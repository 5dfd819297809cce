import itertools
import random

import pytest

from dsrg import (BinMatrix, PermSpec, are_isomorphic, block_compose,
                  check_tournament, circulant_tournament, complement_graph,
                  conjugate_by_perm, cycle_power, duval_feasible,
                  enumerate_regular_tournaments, kronecker,
                  paley_tournament, verify_dsrg)
from dsrg import constructions as cons
from known_graphs import FIXTURE_8, FIXTURE_10, FIXTURE_14

PI3 = circulant_tournament(3, {1})
Z5 = circulant_tournament(5, {1, 2})
P7 = paley_tournament(7)
TRIVIAL = check_tournament(BinMatrix.zeros(1))


def test_paired_rows_parameters():
    assert cons.duval_b(PI3).params.as_tuple() == (6, 2, 1, 0, 1)
    assert cons.duval_b(Z5).params.as_tuple() == (10, 4, 2, 1, 2)
    assert cons.duval_b(P7).params.as_tuple() == (14, 6, 3, 2, 3)


def test_paired_columns_parameters():
    assert cons.duval_c(PI3).params.as_tuple() == (6, 2, 1, 0, 1)
    assert cons.duval_c(Z5).params.as_tuple() == (10, 4, 2, 1, 2)
    assert cons.duval_c(P7).params.as_tuple() == (14, 6, 3, 2, 3)


def test_paired_rows_is_the_expected_block_matrix():
    a = PI3.adj
    at = a.transpose()
    expected = block_compose([[a, at], [a, at]])
    assert cons.duval_b(PI3).adj == expected
    assert verify_dsrg(expected).as_tuple() == (6, 2, 1, 0, 1)


def test_m_of_examples():
    assert verify_dsrg(cons.m_of(PI3.adj)).as_tuple() == (6, 3, 2, 1, 2)
    from dsrg import team_lem6
    assert verify_dsrg(cons.m_of(team_lem6(TRIVIAL))).as_tuple() == \
        (8, 3, 2, 1, 1)
    assert cons.m_of(BinMatrix.zeros(1)) == \
        BinMatrix.from_rows([[0, 1], [1, 0]])


def test_m_construction_parameters():
    assert cons.m_construction(PI3).params.as_tuple() == (6, 3, 2, 1, 2)
    assert cons.m_construction(Z5).params.as_tuple() == (10, 5, 3, 2, 3)
    assert cons.m_construction(P7).params.as_tuple() == (14, 7, 4, 3, 4)


def test_m_construction_is_complement_of_paired_rows():
    # exact witness: swapping the two blocks of the complement gives m_of
    for t in (PI3, Z5, P7):
        n = t.order
        swap = PermSpec(tuple(list(range(n, 2 * n)) + list(range(n))))
        comp = complement_graph(cons.duval_b(t).adj)
        assert conjugate_by_perm(comp, swap) == cons.m_construction(t).adj


def test_wide_tall_parameters():
    assert cons.wide_blocks(PI3, 2).params.as_tuple() == (12, 4, 2, 0, 2)
    assert cons.wide_blocks(Z5, 2).params.as_tuple() == (20, 8, 4, 2, 4)
    assert cons.tall_blocks(PI3, 2).params.as_tuple() == (12, 4, 2, 0, 2)
    assert cons.wide_blocks(PI3, 1).adj == cons.duval_b(PI3).adj
    assert cons.tall_blocks(PI3, 1).adj == cons.duval_c(PI3).adj
    with pytest.raises(ValueError):
        cons.wide_blocks(PI3, 0)


def test_wide_equals_kronecker_of_paired_rows():
    b = cons.duval_b(PI3).adj
    for w in (2, 3):
        assert cons.wide_blocks(PI3, w).adj == kronecker(BinMatrix.ones(w), b)


def test_team_dsrg_parameters():
    assert cons.team_dsrg(PI3).params.as_tuple() == (16, 7, 4, 3, 3)
    assert cons.team_dsrg(P7).params.as_tuple() == (32, 15, 8, 7, 7)
    assert cons.team_dsrg(paley_tournament(11)).params.as_tuple() == \
        (48, 23, 12, 11, 11)
    with pytest.raises(ValueError, match="doubly regular"):
        cons.team_dsrg(Z5)


def test_bordered_team_parameters():
    assert cons.bordered_team_dsrg(TRIVIAL).params.as_tuple() == (8, 3, 2, 1, 1)
    assert cons.bordered_team_dsrg(PI3).params.as_tuple() == (16, 7, 4, 3, 3)
    assert cons.bordered_team_dsrg(Z5).params.as_tuple() == (24, 11, 6, 5, 5)
    assert cons.bordered_team_dsrg(
        circulant_tournament(7, {1, 2, 3})).params.as_tuple() == \
        (32, 15, 8, 7, 7)


def test_cycle_sum_parameters():
    assert cons.cycle_sum_dsrg(1).params.as_tuple() == (8, 3, 2, 1, 1)
    assert cons.cycle_sum_dsrg(2).params.as_tuple() == (12, 5, 3, 2, 2)
    assert cons.cycle_sum_dsrg(4).params.as_tuple() == (20, 9, 5, 4, 4)


def test_cycle_sum_block_decomposition():
    # the cycle-power sum tiles as [[B, B^T], [B^T, B]] with B strictly
    # upper triangular all-ones
    for s in (1, 2, 3):
        L = cons.cycle_sum_matrix(s)
        b_rows = [[1 if j > i else 0 for j in range(s + 1)]
                  for i in range(s + 1)]
        b = BinMatrix.from_rows(b_rows)
        assert L == block_compose([[b, b.transpose()], [b.transpose(), b]])


def test_qr_reproduces_displayed_matrix():
    r = cons.qr_dsrg(5, 2, 3, {1, 4})
    assert r.params.as_tuple() == (10, 4, 2, 1, 2)
    assert r.adj == FIXTURE_10


def test_qr_diagonal_blocks_are_residue_matrix():
    r = cons.qr_dsrg(5, 2, 3, {1, 4})
    q = 5
    residues = {1, 4}
    for i in range(q):
        for j in range(q):
            expected = 1 if i != j and (i - j) % q in residues else 0
            assert r.adj.entry(i, j) == expected
            assert r.adj.entry(q + i, q + j) == expected
    # q = 1 (mod 4): the residue matrix is symmetric (R = -R)
    top = BinMatrix.from_rows([[r.adj.entry(i, j) for j in range(q)]
                               for i in range(q)])
    assert top == top.transpose()


def test_qr_difference_partition_failure():
    with pytest.raises(ValueError, match="difference-partition"):
        cons.qr_dsrg(5, 2, 3, {1, 2})


def test_qr_precondition_errors():
    with pytest.raises(ValueError, match="non-residue"):
        cons.qr_dsrg(5, 4, 4, {1, 4})
    with pytest.raises(ValueError, match="inverse"):
        cons.qr_dsrg(5, 2, 2, {1, 4})
    with pytest.raises(ValueError, match="prime q = 1"):
        cons.qr_dsrg(7, 3, 5, {1, 2, 3})


def test_qr_search_small():
    triples = cons.qr_search(5)
    assert (2, 3, frozenset({1, 4})) in triples
    assert triples
    with pytest.raises(ValueError, match="prime q = 1"):
        cons.qr_search(7)
    with pytest.raises(ValueError, match="bound"):
        cons.qr_search(37)


@pytest.mark.parametrize("q", [5, 13, 17])
def test_qr_search_order_and_lazy_first_triple(q):
    # every (sigma1, sigma2) pair of non-residues against every support
    # that passes the difference-partition check, pairs outermost
    m = (q - 1) // 4
    residues = cons.quadratic_residues(q)
    pairs = [(s1, cons.mod_inverse(s1, q)) for s1 in range(1, q)
             if s1 not in residues and cons.mod_inverse(s1, q) not in residues]
    supports = []
    for combo in itertools.combinations(range(1, q), 2 * m):
        try:
            cons._check_difference_partition(q, m, frozenset(combo))
        except ValueError:
            continue
        supports.append(frozenset(combo))
    expected = [(s1, s2, s) for s1, s2 in pairs for s in supports]
    assert cons.qr_search(q) == expected
    assert next(cons._qr_triples(q)) == expected[0]


def test_qr_13():
    s1, s2, s_set = cons.qr_search(13)[0]
    assert cons.qr_dsrg(13, s1, s2, s_set).params.as_tuple() == \
        (26, 12, 6, 5, 6)


def test_pq_reproduces_displayed_matrix():
    q7 = circulant_tournament(7, {1, 2, 3})
    r = cons.pq_dsrg(q7, PermSpec.reversal(7))
    assert r.params.as_tuple() == (14, 6, 3, 2, 3)
    assert r.adj == FIXTURE_14


def test_pq_examples():
    assert cons.pq_dsrg(Z5, PermSpec.reversal(5)).params.as_tuple() == \
        (10, 4, 2, 1, 2)
    with pytest.raises(ValueError, match="symmetric"):
        cons.pq_dsrg(PI3, PermSpec.identity(3))
    with pytest.raises(ValueError, match="involution"):
        cons.pq_dsrg(PI3, PermSpec((1, 2, 0)))


def test_pq_search():
    assert PermSpec.reversal(5) in cons.pq_search(Z5)
    assert PermSpec.reversal(3) in cons.pq_search(PI3)
    assert cons.pq_search(TRIVIAL) == [PermSpec.identity(1)]
    with pytest.raises(ValueError, match="bound"):
        cons.pq_search(circulant_tournament(13, set(range(1, 7))))


def _involutions_oracle(n):
    """All involutions of {0..n-1} in lexicographic image order."""
    images = [-1] * n

    def extend(free):
        if not free:
            yield PermSpec(tuple(images))
            return
        i = free[0]
        images[i] = i
        yield from extend(free[1:])
        for j in free[1:]:
            images[i], images[j] = j, i
            yield from extend([v for v in free[1:] if v != j])
        images[i] = -1

    yield from extend(list(range(n)))


def _pq_search_oracle(t):
    a = t.adj
    found = []
    for p in _involutions_oracle(a.n):
        pq = BinMatrix(a.n, tuple(a.rows[p.images[i]] for i in range(a.n)))
        if pq == pq.transpose():
            found.append(p)
    return found


def test_pq_search_matches_brute_force():
    # the pruned search returns exactly the brute-force list, in order, on
    # regular tournaments and on random (mostly irregular) ones
    rng = random.Random(19)
    tournaments = [TRIVIAL]
    for n in (3, 5, 7):
        tournaments.extend(enumerate_regular_tournaments(n))
    tournaments.append(circulant_tournament(9, {1, 2, 3, 4}))
    tournaments.append(circulant_tournament(9, {1, 2, 4, 6}))
    for n in (2, 4, 6, 8, 9, 9):
        rows = [[0] * n for _ in range(n)]
        for i, j in itertools.combinations(range(n), 2):
            if rng.random() < 0.5:
                rows[i][j] = 1
            else:
                rows[j][i] = 1
        tournaments.append(check_tournament(BinMatrix.from_rows(rows)))
    for t in tournaments:
        assert cons.pq_search(t) == _pq_search_oracle(t)


def test_kronecker_expansion():
    base = cons.duval_b(PI3).adj
    left = cons.kronecker_expand(base, 2, "left")
    assert left.params.as_tuple() == (12, 4, 2, 0, 2)
    assert left.adj == cons.wide_blocks(PI3, 2).adj
    assert cons.kronecker_expand(base, 3, "left").params.as_tuple() == \
        (18, 6, 3, 0, 3)
    right = cons.kronecker_expand(base, 2, "right")
    assert right.params.as_tuple() == (12, 4, 2, 0, 2)
    assert are_isomorphic(left.adj, right.adj) is not None


def test_kronecker_rejects_t_not_mu():
    with pytest.raises(ValueError, match="iff t = mu"):
        cons.kronecker_expand(FIXTURE_8, 2)


def test_all_construction_outputs_verify_and_are_feasible():
    results = [
        cons.duval_b(PI3), cons.duval_c(Z5), cons.m_construction(P7),
        cons.wide_blocks(PI3, 2), cons.tall_blocks(Z5, 2),
        cons.team_dsrg(PI3), cons.bordered_team_dsrg(Z5),
        cons.cycle_sum_dsrg(3), cons.qr_dsrg(5, 2, 3, {1, 4}),
        cons.pq_dsrg(Z5, PermSpec.reversal(5)),
        cons.kronecker_expand(cons.duval_b(PI3).adj, 2, "left"),
    ]
    for r in results:
        assert verify_dsrg(r.adj) == r.params
        assert duval_feasible(r.params).feasible
