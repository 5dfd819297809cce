"""Directed strongly regular graphs from block matrices.

Each function assembles one construction as a total map from certified
inputs to an adjacency matrix, verifies the defining equations on the
result, and returns a ConstructionResult carrying the method tag used in
catalog files, an input descriptor, the matrix, and its parameters.  The
paired rows and columns and the wide and tall blocks are one alternating
pattern of A and A^T; they take a regular tournament of valency k and
yield ((4k+2)w, 2kw, kw, (k-1)w, kw), w = 1 for the paired forms.  The
bordered-team family yields (4h+4, 2h+1, h+1, h, h) from order-h
tournaments; quadratic-residue and symmetric-product block matrices cover
(2q, q-1, ...) and (2(2mu+1), 2mu, ...); the all-ones Kronecker expansion
scales any graph with t = mu.  Every circulant block is built by
matrix.sigma_circulant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .matrix import (BinMatrix, BoundExceeded, InputError, PermSpec,
                     _indicator, block_compose, kronecker, sigma_circulant)
from .numth import is_prime, mod_inverse, quadratic_residues
from .params import DsrgParams, verify_dsrg
from .tournaments import Tournament, is_doubly_regular_tournament, team_lem6


@dataclass(frozen=True)
class ConstructionResult:
    """A verified construction output."""

    method: str
    input_descriptor: str
    adj: BinMatrix
    params: DsrgParams


def _result(method: str, descriptor: str, adj: BinMatrix,
            expected: tuple[int, int, int, int, int]) -> ConstructionResult:
    params = verify_dsrg(adj)
    if params.as_tuple() != expected:
        raise AssertionError(
            f"{method} verified as {params}, expected {expected}")
    return ConstructionResult(method, descriptor, adj, params)


# dsrg construct qr q=1009 (2,018 vertices) takes 2.0-2.5 s at a peak RSS
# of 188 MB, and lem6 over standard:501 (2,008 vertices) 2.1 s at 183 MB
# (2-vCPU Xeon, Python 3.11); time grows as n^3 and memory as n^2
MAX_VERTICES = 2018


def check_vertex_cap(n: int) -> None:
    """Refuse a graph of more than MAX_VERTICES vertices before it is built."""
    if n > MAX_VERTICES:
        raise BoundExceeded(f"the graph would have {n} vertices, above the "
                            f"cap {MAX_VERTICES}")


def _regular(t: Tournament, what: str) -> tuple[BinMatrix, int]:
    if not t.is_regular:
        raise ValueError(f"{what} needs a regular tournament")
    assert t.valency is not None
    if t.valency < 1:
        raise ValueError(f"{what} needs valency >= 1, got {t.valency}")
    return t.adj, t.valency


def _tournament_label(t: Tournament, label: str | None) -> str:
    return label if label is not None else f"tournament(n={t.order})"


def _alternating(t: Tournament, w: int, by_row: bool, method: str,
                 what: str, descriptor: str) -> ConstructionResult:
    """The 2w x 2w block grid whose block (r, c) is A when c (or r, with
    by_row) is even and A^T otherwise: ((4k+2)w, 2kw, kw, (k-1)w, kw)."""
    if w < 1:
        raise InputError(f"block multiplicity must be >= 1, got {w}")
    check_vertex_cap(2 * t.order * w)
    a, k = _regular(t, what)
    at = a.transpose()
    adj = block_compose([[at if (r if by_row else c) % 2 else a
                          for c in range(2 * w)] for r in range(2 * w)])
    return _result(method, descriptor, adj,
                   ((4 * k + 2) * w, 2 * k * w, k * w, (k - 1) * w, k * w))


def duval_b(t: Tournament, label: str | None = None) -> ConstructionResult:
    """Paired-rows block matrix [[A, A^T], [A, A^T]]: (4k+2, 2k, k, k-1, k)."""
    return _alternating(t, 1, False, "duval_B",
                        "the paired-rows construction",
                        _tournament_label(t, label))


def duval_c(t: Tournament, label: str | None = None) -> ConstructionResult:
    """Paired-columns block matrix [[A, A], [A^T, A^T]]: (4k+2, 2k, k, k-1, k)."""
    return _alternating(t, 1, True, "duval_C",
                        "the paired-columns construction",
                        _tournament_label(t, label))


def m_of(a: BinMatrix) -> BinMatrix:
    """The block matrix [[A, A^T+I], [A+I, A^T]] over any zero-diagonal A."""
    if not a.has_zero_diagonal():
        raise ValueError("m_of needs a zero diagonal")
    at = a.transpose()
    eye = BinMatrix.identity(a.n)
    return block_compose([[a, at | eye], [a | eye, at]])


def m_construction(t: Tournament, label: str | None = None) -> ConstructionResult:
    """m_of over a regular tournament: (4k+2, 2k+1, k+1, k, k+1).

    Isomorphic to the complement of the paired-rows graph via the swap of
    the two blocks.
    """
    check_vertex_cap(2 * t.order)
    a, k = _regular(t, "the m construction")
    return _result("m_of", _tournament_label(t, label), m_of(a),
                   (4 * k + 2, 2 * k + 1, k + 1, k, k + 1))


def wide_blocks(t: Tournament, w: int,
                label: str | None = None) -> ConstructionResult:
    """2w block-columns alternating A, A^T, all block-rows equal.

    Parameters ((4k+2)w, 2kw, kw, (k-1)w, kw); w = 1 reproduces the
    paired-rows matrix exactly.
    """
    return _alternating(t, w, False, "wide",
                        "the wide-blocks construction",
                        _tournament_label(t, label) + f",w={w}")


def tall_blocks(t: Tournament, w: int,
                label: str | None = None) -> ConstructionResult:
    """Transposed pattern of wide_blocks: 2w block-rows alternating A, A^T."""
    return _alternating(t, w, True, "tall",
                        "the tall-blocks construction",
                        _tournament_label(t, label) + f",w={w}")


def _bordered_team(method: str, t: Tournament,
                   label: str | None) -> ConstructionResult:
    h = t.order
    return _result(method, _tournament_label(t, label), m_of(team_lem6(t)),
                   (4 * (h + 1), 2 * h + 1, h + 1, h, h))


def team_dsrg(t: Tournament, label: str | None = None) -> ConstructionResult:
    """The bordered-team graph over a doubly regular tournament, tagged lem5.

    For out-neighborhood valency lam the order is h = 4*lam+3, and the
    bordered-team parameters (4(h+1), 2h+1, h+1, h, h) read
    (16*lam+16, 8*lam+7, 4*lam+4, 4*lam+3, 4*lam+3), i.e.
    (4m, 2m-1, m, m-1, m-1) with m = 4*lam+4: the paper's two lemmas build
    the same matrix.
    """
    check_vertex_cap(4 * (t.order + 1))
    if is_doubly_regular_tournament(t) is None:
        raise ValueError(f"order-{t.order} tournament is not doubly regular")
    return _bordered_team("lem5", t, label)


def bordered_team_dsrg(t: Tournament,
                       label: str | None = None) -> ConstructionResult:
    """m_of over the bordered team layout of any regular tournament of
    order h: (4(h+1), 2h+1, h+1, h, h)."""
    check_vertex_cap(4 * (t.order + 1))
    return _bordered_team("lem6", t, label)


def cycle_sum_matrix(s: int) -> BinMatrix:
    """Sum of the first s powers of the (2s+2)-cycle."""
    if s < 1:
        raise InputError(f"need s >= 1, got {s}")
    n = 2 * s + 2
    return sigma_circulant(n, _indicator(n, range(1, s + 1)), 1)


def cycle_sum_dsrg(s: int) -> ConstructionResult:
    """m_of over the cycle-power sum on 2s+2 vertices:
    (4(s+1), 2s+1, s+1, s, s)."""
    check_vertex_cap(4 * (s + 1))
    adj = m_of(cycle_sum_matrix(s))
    return _result("lem7", f"s={s}", adj,
                   (4 * (s + 1), 2 * s + 1, s + 1, s, s))


def _check_qr_modulus(q: int) -> None:
    # the cap comes first: is_prime is trial division
    check_vertex_cap(2 * q)
    if not is_prime(q) or q % 4 != 1:
        raise InputError(f"need a prime q = 1 (mod 4), got {q}")


def qr_dsrg(q: int, sigma1: int, sigma2: int,
            s_set: Iterable[int]) -> ConstructionResult:
    """Quadratic-residue block matrix [[Q, C1], [C2, Q]] on 2q vertices.

    Q is the residue matrix of the prime q = 4m+1; C1 and C2 are the
    sigma1- and sigma2-circulants whose first row is the indicator of
    s_set, which must be the residues or the non-residues (the only sets
    with the difference-partition property, as qr_search shows);
    sigma1*sigma2 = 1 with both sigmas non-residues.
    Parameters (2q, q-1, 2m, 2m-1, 2m).  A q whose 2q vertices exceed
    MAX_VERTICES is refused before anything is built.
    """
    _check_qr_modulus(q)
    m = (q - 1) // 4
    residues = quadratic_residues(q)
    non_residues = frozenset(range(1, q)) - residues
    for name, sigma in (("sigma1", sigma1), ("sigma2", sigma2)):
        if sigma % q not in non_residues:
            raise ValueError(f"non-residue failure: {name} = {sigma} "
                             f"is not a quadratic non-residue mod {q}")
    if sigma1 * sigma2 % q != 1:
        raise ValueError(f"inverse failure: sigma1*sigma2 = "
                         f"{sigma1 * sigma2 % q} != 1 (mod {q})")
    support = frozenset(x % q for x in s_set)
    if support not in (residues, non_residues):
        raise ValueError(f"S must be the quadratic residues or the "
                         f"non-residues mod {q}, got {sorted(support)}")
    # entry (i, j) of the residue matrix is 1 iff i - j is a residue; -1 is
    # a residue mod q = 1 (mod 4), so that is the circulant on the residues
    qmat = sigma_circulant(q, _indicator(q, residues), 1)
    row = _indicator(q, support)
    adj = block_compose([[qmat, sigma_circulant(q, row, sigma1)],
                         [sigma_circulant(q, row, sigma2), qmat]])
    desc = f"q={q},sigma1={sigma1},sigma2={sigma2},S={{{','.join(map(str, sorted(support)))}}}"
    return _result("qr", desc, adj, (2 * q, q - 1, 2 * m, 2 * m - 1, 2 * m))


def qr_search(q: int) -> list[tuple[int, int, frozenset[int]]]:
    """All (sigma1, sigma2, S) triples passing the quadratic-residue
    preconditions, ascending in sigma1 and then in sorted S.

    sigma1 runs over the non-residues and sigma2 = sigma1^-1 is one too.
    S is the residues R or the non-residues N (Bridges & Mena, Ars Combin.
    8, 1979; Ma, Des. Codes Cryptogr. 4, 1994).  The difference-partition
    property asks that, for each x != 0, the pairs s - t = x with s in S
    and t outside S number m; that holds exactly when
    lambda_S(x) = m - [x in S], where lambda_S(x) counts the pairs
    s - s' = x inside S.  Since
    lambda_S(x) = lambda_S(-x), this forces S = -S.  Then every nontrivial
    character sum of S is a root of z^2 + z - m, so it lies in Q(sqrt q).
    Multiplying by a square fixes sqrt q, so aS = S for every square a,
    and S is R or N.  The cap of qr_dsrg applies, since no larger q can be
    built.
    """
    _check_qr_modulus(q)
    residues = quadratic_residues(q)
    non_residues = frozenset(range(1, q)) - residues
    # 1 is in R and not in N, so R sorts first
    return [(s1, mod_inverse(s1, q), s_set) for s1 in sorted(non_residues)
            for s_set in (residues, non_residues)]


def pq_dsrg(qmat: Tournament, p: PermSpec,
            label: str | None = None) -> ConstructionResult:
    """Symmetric-product block matrix [[Q, PQ], [(PQ)^T, Q]].

    Q is a regular tournament of valency mu and P an involution whose row
    permutation of Q is symmetric; parameters
    (2(2mu+1), 2mu, mu, mu-1, mu).  The descriptor is the label (T's
    descriptor) followed by ",p=" and P's images.
    """
    check_vertex_cap(2 * qmat.order)
    a, mu = _regular(qmat, "the symmetric-product construction")
    if len(p) != a.n:
        raise ValueError(f"permutation length {len(p)} != order {a.n}")
    if not p.is_involution():
        raise ValueError(f"permutation {p.images} is not an involution")
    pq = BinMatrix(a.n, tuple(a.rows[p.images[i]] for i in range(a.n)))
    pqt = pq.transpose()
    if pq != pqt:
        witness = next((i, j) for i in range(a.n) for j in range(a.n)
                       if pq.entry(i, j) != pqt.entry(i, j))
        raise ValueError(f"PQ is not symmetric: entries {witness} differ")
    adj = block_compose([[a, pq], [pqt, a]])
    desc = _tournament_label(qmat, label) + f",p={','.join(map(str, p.images))}"
    return _result("pq", desc, adj,
                   (2 * (2 * mu + 1), 2 * mu, mu, mu - 1, mu))


# the largest tournament order pq_search accepts; the catalog's pq sweep
# stops at the same order
PQ_SEARCH_BOUND = 11


def pq_search(qmat: Tournament) -> list[PermSpec]:
    """All involutions making the row-permuted tournament symmetric.

    Involutions are built in lexicographic image order (fixed point
    first, then swaps with ascending partners); a branch is pruned as soon
    as a newly assigned row i of PQ disagrees with column i on an already
    assigned vertex.  Orders above PQ_SEARCH_BOUND are refused.
    """
    if qmat.order > PQ_SEARCH_BOUND:
        raise BoundExceeded(
            f"order {qmat.order} exceeds the search bound {PQ_SEARCH_BOUND}")
    rows = qmat.adj.rows
    images = [-1] * qmat.order
    assigned: list[int] = []
    found: list[PermSpec] = []

    def assign(i: int) -> bool:
        # PQ[i][x] = A[p(i)][x] must equal PQ[x][i] = A[p(x)][i]
        row = rows[images[i]]
        if any((row >> x) & 1 != (rows[images[x]] >> i) & 1
               for x in assigned):
            return False
        assigned.append(i)
        return True

    def extend(free: list[int]) -> None:
        if not free:
            found.append(PermSpec(tuple(images)))
            return
        i, rest = free[0], free[1:]
        images[i] = i
        if assign(i):
            extend(rest)
            assigned.pop()
        for j in rest:
            images[i], images[j] = j, i
            if assign(i):
                if assign(j):
                    extend([v for v in rest if v != j])
                    assigned.pop()
                assigned.pop()

    extend(list(range(qmat.order)))
    return found


def kronecker_expand(a: BinMatrix, m: int, side: str = "right",
                     label: str | None = None) -> ConstructionResult:
    """All-ones expansion A x J(m) or J(m) x A, defined exactly when t = mu.

    Scales every parameter by m: (nm, km, tm, lam*m, mu*m).
    """
    if m <= 1:
        raise InputError(f"expansion factor must exceed 1, got {m}")
    if side not in ("left", "right"):
        raise InputError(f"side must be 'left' or 'right', got {side!r}")
    check_vertex_cap(a.n * m)
    params = verify_dsrg(a)
    if params.t != params.mu:
        raise ValueError(
            f"the all-ones expansion is a DSRG iff t = mu; "
            f"got t = {params.t}, mu = {params.mu}")
    block = BinMatrix.ones(m)
    adj = kronecker(a, block) if side == "right" else kronecker(block, a)
    desc = (label if label is not None else f"graph(n={a.n})") + f",m={m},{side}"
    n, k, t, lam, mu = params.as_tuple()
    return _result("kron", desc, adj,
                   (n * m, k * m, t * m, lam * m, mu * m))
