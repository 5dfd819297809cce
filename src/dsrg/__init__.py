"""Directed strongly regular graphs: constructions, verification,
feasibility enumeration, and isomorphism classification."""

from .adjio import AdjFormatError, format_adj, parse_adj, read_adj, write_adj
from .constructions import (ConstructionResult, bordered_team_dsrg,
                            cycle_sum_dsrg, cycle_sum_matrix, duval_b,
                            duval_c, kronecker_expand, m_construction, m_of,
                            pq_dsrg, pq_search, qr_dsrg, qr_search,
                            tall_blocks, team_dsrg, wide_blocks)
from .groups import (CayleySpec, GroupTable, abelian_groups_up_to,
                     cayley_criteria, cayley_dsrg, cayley_graph,
                     cayley_subset_scan, cyclic_group, dihedral_group,
                     direct_product, hobart_shaw, symmetric_group)
from .iso import (BoundExceeded, IsoCertificate, are_isomorphic,
                  canonical_form, classify)
from .matrix import (BinMatrix, DimensionError, IntMatrix, PermSpec,
                     block_compose, conjugate_by_perm, cycle_power,
                     kronecker, mat_mul_count, sigma_circulant)
from .params import (DOUBLY_REGULAR_TOURNAMENT, GENUINE, UNDIRECTED,
                     DsrgParams, FeasibilityReport, NotDsrg,
                     complement_graph, complement_params, duval_feasible,
                     enumerate_feasible, try_verify_dsrg, verify_dsrg)
from .tournaments import (NotTournament, TeamProfile, Tournament,
                          circulant_tournament,
                          enumerate_regular_tournaments,
                          is_doubly_regular_team,
                          is_doubly_regular_tournament, paley_tournament,
                          team_lem6)

__all__ = [name for name in dir() if not name.startswith("_")]
