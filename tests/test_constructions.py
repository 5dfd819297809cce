import itertools
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsrg import (BinMatrix, PermSpec, Tournament, are_isomorphic,
                  block_compose, circulant_tournament, complement_graph,
                  conjugate_by_perm, cycle_power, duval_feasible,
                  enumerate_regular_tournaments, kronecker,
                  paley_tournament, verify_dsrg)
from dsrg import constructions as cons
from dsrg.matrix import InputError
from dsrg.cli import all_construction_results
from known_graphs import FIXTURE_8, FIXTURE_10, FIXTURE_14

PI3 = circulant_tournament(3, {1})
Z5 = circulant_tournament(5, {1, 2})
P7 = paley_tournament(7)
TRIVIAL = Tournament(BinMatrix.zeros(1))


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
    with pytest.raises(ValueError, match="S must be the quadratic residues "
                       r"or the non-residues mod 5, got \[1, 2\]"):
        cons.qr_dsrg(5, 2, 3, {1, 2})


def _difference_partition(q, s_set):
    """Brute-force oracle: every nonzero residue occurs m = (q-1)/4 times
    among s - t, s in S and t in Z_q* outside S."""
    m = (q - 1) // 4
    t_set = [x for x in range(1, q) if x not in s_set]
    counts = [0] * q
    for s in s_set:
        for t in t_set:
            counts[(s - t) % q] += 1
    return all(counts[x] == m for x in range(1, q))


@pytest.mark.parametrize("q", [13, 17])
def test_qr_accepts_exactly_the_difference_partition_sets(q):
    # every 2m-subset of Z_q* (924 at q = 13, 12,870 at q = 17): qr_dsrg
    # builds R and N and refuses the rest, and those two are exactly the
    # sets that pass the brute-force count
    m = (q - 1) // 4
    residues = cons.quadratic_residues(q)
    r_and_n = {residues, frozenset(range(1, q)) - residues}
    sigma1, sigma2, _ = cons.qr_search(q)[0]
    accepted = set()
    for combo in itertools.combinations(range(1, q), 2 * m):
        s_set = frozenset(combo)
        assert _difference_partition(q, s_set) == (s_set in r_and_n)
        try:
            cons.qr_dsrg(q, sigma1, sigma2, s_set)
        except ValueError as exc:
            assert str(exc) == (f"S must be the quadratic residues or the "
                                f"non-residues mod {q}, got {sorted(s_set)}")
            continue
        accepted.add(s_set)
    assert accepted == r_and_n


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
    assert cons.qr_search(37)[0] == (2, 19, cons.quadratic_residues(37))


def test_qr_cap_refuses_before_building():
    # 1013 is the first prime = 1 (mod 4) above the vertex cap on 2q
    # vertices; the cap is checked before the arguments, so none of them is
    # looked at, and before the trial division of is_prime
    from dsrg import BoundExceeded
    with mock.patch.object(cons, "is_prime",
                           side_effect=AssertionError("tested")):
        with pytest.raises(BoundExceeded, match="would have 2026 "):
            cons.qr_dsrg(1013, 3, 338, ())
        with pytest.raises(BoundExceeded, match="would have 2026 "):
            cons.qr_search(1013)


@pytest.mark.parametrize("q", [5, 13, 17])
def test_qr_search_order_and_lazy_first_triple(q):
    # every (sigma1, sigma2) pair of non-residues against every support
    # that passes the brute-force difference count, pairs outermost
    m = (q - 1) // 4
    residues = cons.quadratic_residues(q)
    pairs = [(s1, cons.mod_inverse(s1, q)) for s1 in range(1, q)
             if s1 not in residues and cons.mod_inverse(s1, q) not in residues]
    supports = [frozenset(combo)
                for combo in itertools.combinations(range(1, q), 2 * m)
                if _difference_partition(q, frozenset(combo))]
    expected = [(s1, s2, s) for s1, s2 in pairs for s in supports]
    assert cons.qr_search(q) == expected


@pytest.mark.parametrize("q", [29, 37])
def test_qr_difference_partition_sets_are_residues_or_non_residues(q):
    # S = -S is forced, so scanning every symmetric S of size 2m is
    # exhaustive; only R and N pass
    m = (q - 1) // 4
    residues = cons.quadratic_residues(q)
    passing = set()
    for half in itertools.combinations(range(1, (q + 1) // 2), m):
        s_set = frozenset(half) | frozenset(q - x for x in half)
        if _difference_partition(q, s_set):
            passing.add(s_set)
    assert passing == {residues, frozenset(range(1, q)) - residues}


@pytest.mark.parametrize("q", [5, 13, 17, 29, 37, 41, 53, 61])
def test_qr_verifies_on_every_non_residue_and_both_sets(q):
    m = (q - 1) // 4
    residues = cons.quadratic_residues(q)
    non_residues = frozenset(range(1, q)) - residues
    for s1 in sorted(non_residues):
        for s_set in (residues, non_residues):
            r = cons.qr_dsrg(q, s1, cons.mod_inverse(s1, q), s_set)
            assert r.params.as_tuple() == \
                (2 * q, q - 1, 2 * m, 2 * m - 1, 2 * m)


def test_qr_13():
    s1, s2, s_set = cons.qr_search(13)[0]
    assert cons.qr_dsrg(13, s1, s2, s_set).params.as_tuple() == \
        (26, 12, 6, 5, 6)


def test_pq_reproduces_displayed_matrix():
    q7 = circulant_tournament(7, {1, 2, 3})
    r = cons.pq_dsrg(q7, PermSpec.reversal(7))
    assert r.params.as_tuple() == (14, 6, 3, 2, 3)
    assert r.adj == FIXTURE_14
    # the descriptor is the label, or the order, followed by the images
    assert r.input_descriptor == "tournament(n=7),p=0,6,5,4,3,2,1"
    assert cons.pq_dsrg(q7, PermSpec.reversal(7), "standard:7"
                        ).input_descriptor == "standard:7,p=0,6,5,4,3,2,1"


def test_pq_examples():
    assert cons.pq_dsrg(Z5, PermSpec.reversal(5)).params.as_tuple() == \
        (10, 4, 2, 1, 2)
    with pytest.raises(ValueError, match="symmetric"):
        cons.pq_dsrg(PI3, PermSpec.identity(3))
    with pytest.raises(ValueError, match="involution"):
        cons.pq_dsrg(PI3, PermSpec((1, 2, 0)))


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_pq_identity_never_builds(n):
    # PQ = Q is a tournament of valency >= 1, never symmetric, which is why
    # `construct pq` offers no identity keyword
    for t in enumerate_regular_tournaments(n):
        with pytest.raises(ValueError, match="PQ is not symmetric"):
            cons.pq_dsrg(t, PermSpec.identity(n))


def test_pq_search():
    assert PermSpec.reversal(5) in cons.pq_search(Z5)
    assert PermSpec.reversal(3) in cons.pq_search(PI3)
    assert cons.pq_search(TRIVIAL) == [PermSpec.identity(1)]
    with pytest.raises(ValueError, match="bound"):
        cons.pq_search(circulant_tournament(13, set(range(1, 7))))


def test_pq_search_bound_governs_search_and_catalog():
    # one constant bounds both pq_search and the catalog's pq sweep
    pq_orders = {r.adj.n // 2 for r in all_construction_results(48)
                 if r.method == "pq"}
    assert {9, 11} <= pq_orders
    with mock.patch.object(cons, "PQ_SEARCH_BOUND", 7):
        with pytest.raises(ValueError, match="search bound 7"):
            cons.pq_search(circulant_tournament(9, {1, 2, 3, 4}))
        pq_orders = {r.adj.n // 2 for r in all_construction_results(48)
                     if r.method == "pq"}
    assert pq_orders == {3, 5, 7}


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
        tournaments.append(Tournament(BinMatrix.from_rows(rows)))
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


@st.composite
def relabelled_regular_tournaments(draw):
    """A regular tournament of order <= 11 under a random relabelling."""
    n = draw(st.sampled_from([3, 5, 7, 9, 11]))
    conn = {e if draw(st.booleans()) else n - e
            for e in range(1, (n + 1) // 2)}
    t = draw(st.sampled_from([circulant_tournament(n, conn)] +
                             (enumerate_regular_tournaments(7) if n == 7 else [])))
    images = draw(st.permutations(range(n)))
    return Tournament(conjugate_by_perm(t.adj, PermSpec(tuple(images))))


@settings(max_examples=40, deadline=None)
@given(relabelled_regular_tournaments(), st.integers(1, 4))
def test_wide_pattern_routes_are_explicit_relabellings(t, m):
    # the catalog builds the wide pattern once, as J_m x duval_B(T); these
    # are the identities that make the other routes rebuilds of it
    h = t.order
    b = cons.duval_b(t).adj
    wide = cons.wide_blocks(t, m).adj
    assert wide == kronecker(BinMatrix.ones(m), b)
    # tau swaps the two halves of each 2h block: wide^T onto tall
    tau = PermSpec(tuple(x - x % (2 * h) + (x + h) % (2 * h)
                         for x in range(2 * h * m)))
    assert conjugate_by_perm(wide.transpose(), tau) == cons.tall_blocks(t, m).adj
    if m >= 2:
        # sigma(i*m + p) = p*n + i: B x J_m onto J_m x B
        n = 2 * h
        sigma = PermSpec(tuple(p * n + i for i in range(n) for p in range(m)))
        right = cons.kronecker_expand(b, m, "right").adj
        assert conjugate_by_perm(right, sigma) == \
            cons.kronecker_expand(b, m, "left").adj


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


@st.composite
def regular_circulant_tournaments(draw):
    n = draw(st.sampled_from([3, 5, 7, 9, 11, 13]))
    conn = {e if draw(st.booleans()) else n - e
            for e in range(1, (n + 1) // 2)}
    return circulant_tournament(n, conn)


@settings(max_examples=60, deadline=None)
@given(regular_circulant_tournaments(), st.integers(1, 3))
def test_block_builders_give_the_paper_family(t, w):
    # ((4k+2)w, 2kw, kw, (k-1)w, kw): lam + w = mu = t, and at w = 1 the
    # paper's family lam + 1 = mu = t
    k = t.valency
    results = [cons.wide_blocks(t, w), cons.tall_blocks(t, w)]
    if w == 1:
        results += [cons.duval_b(t), cons.duval_c(t)]
        assert results[0].adj == results[2].adj
        assert results[1].adj == results[3].adj
    for r in results:
        p = verify_dsrg(r.adj)
        assert p == r.params
        assert p.as_tuple() == ((4 * k + 2) * w, 2 * k * w, k * w,
                                (k - 1) * w, k * w)
        assert p.lam + w == p.mu == p.t


@settings(max_examples=30, deadline=None)
@given(regular_circulant_tournaments(), st.integers(1, 6))
def test_bordered_and_cycle_sum_builders_give_lambda_equal_mu(t, s):
    # the paper's other family: lam = mu = t - 1
    h = t.order
    for r, expected in ((cons.bordered_team_dsrg(t),
                         (4 * (h + 1), 2 * h + 1, h + 1, h, h)),
                        (cons.cycle_sum_dsrg(s),
                         (4 * (s + 1), 2 * s + 1, s + 1, s, s))):
        p = verify_dsrg(r.adj)
        assert p == r.params
        assert p.as_tuple() == expected
        assert p.lam == p.mu == p.t - 1


TRANSITIVE3 = Tournament(BinMatrix.from_strings(["011", "001", "000"]))


@pytest.mark.parametrize("call, error, fragment", [
    (lambda: cons.duval_b(TRANSITIVE3), ValueError,
     "the paired-rows construction needs a regular tournament"),
    (lambda: cons.duval_b(TRIVIAL), ValueError, "needs valency >= 1, got 0"),
    (lambda: cons.m_of(BinMatrix.identity(2)), ValueError,
     "m_of needs a zero diagonal"),
    (lambda: cons.qr_dsrg(5, 2, 3, {1}), ValueError,
     "S must be the quadratic residues or the non-residues mod 5, got [1]"),
    (lambda: cons.pq_dsrg(Z5, PermSpec.reversal(3)), ValueError,
     "permutation length 3 != order 5"),
    (lambda: cons.kronecker_expand(FIXTURE_10, 1), InputError,
     "expansion factor must exceed 1, got 1"),
    (lambda: cons.kronecker_expand(FIXTURE_10, 2, side="up"), InputError,
     "side must be 'left' or 'right', got 'up'"),
], ids=["irregular", "valency-0", "m-of-loop", "qr-s-set-size",
        "pq-short-perm", "kron-m-1", "kron-side"])
def test_construction_refusals(call, error, fragment):
    # InputError is a bad argument (exit 2), a plain ValueError a rejected
    # construction (exit 1)
    with pytest.raises(ValueError) as info:
        call()
    assert info.type is error and fragment in str(info.value)


def test_builders_refuse_above_the_vertex_cap():
    # a size given as a number is checked before any block or group table
    # is built
    from dsrg import groups
    from dsrg.iso import BoundExceeded
    never = {"side_effect": AssertionError("built")}
    with mock.patch.object(cons, "block_compose", **never), \
            mock.patch.object(cons, "kronecker", **never), \
            mock.patch.object(cons, "sigma_circulant", **never), \
            mock.patch.object(groups, "sigma_circulant", **never), \
            mock.patch.object(groups.GroupTable, "from_table", **never):
        for call, n in ((lambda: cons.wide_blocks(Z5, 202), 2020),
                        (lambda: cons.tall_blocks(Z5, 202), 2020),
                        (lambda: cons.cycle_sum_dsrg(504), 2020),
                        (lambda: cons.kronecker_expand(FIXTURE_10, 202), 2020),
                        (lambda: cons.qr_dsrg(1013, 3, 338, ()), 2026),
                        (lambda: groups.hobart_shaw(505, "odd"), 2022),
                        (lambda: groups.cyclic_group(2019), 2019),
                        (lambda: groups.dihedral_group(1010), 2020)):
            with pytest.raises(BoundExceeded, match=f"would have {n} "):
                call()


def test_tournament_builders_refuse_above_the_vertex_cap():
    # every builder over a tournament checks the size of its graph first:
    # the order-1011 tournament is certified, but no block is assembled
    from dsrg.iso import BoundExceeded
    t = circulant_tournament(1011, range(1, 506))
    never = {"side_effect": AssertionError("built")}
    with mock.patch.object(cons, "block_compose", **never), \
            mock.patch.object(cons, "team_lem6", **never):
        for call, n in (
                (lambda: cons.duval_b(t), 2022),
                (lambda: cons.duval_c(t), 2022),
                (lambda: cons.m_construction(t), 2022),
                (lambda: cons.bordered_team_dsrg(t), 4048),
                (lambda: cons.team_dsrg(t), 4048),
                (lambda: cons.pq_dsrg(t, PermSpec.reversal(1011)), 2022)):
            with pytest.raises(BoundExceeded, match=f"would have {n} "):
                call()
