import functools
import hashlib
import itertools
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsrg import (BinMatrix, NotTournament, PermSpec, TeamProfile,
                  Tournament, are_isomorphic, block_compose,
                  circulant_tournament, complement_graph, conjugate_by_perm,
                  cycle_power,
                  enumerate_regular_tournaments, is_doubly_regular_team,
                  is_doubly_regular_tournament, mat_mul_count,
                  paley_tournament, team_lem6)
from dsrg import constructions as cons


def test_check_tournament_cycle():
    t = Tournament(cycle_power(3, 1))
    assert t.valency == 1


def test_check_tournament_circulant():
    t = circulant_tournament(5, {1, 2})
    assert t.valency == 2
    assert Tournament(t.adj).valency == 2


def test_check_tournament_rejects_digon():
    full = complement_graph(BinMatrix.zeros(3))  # J - I
    with pytest.raises(NotTournament) as info:
        Tournament(full)
    assert info.value.pair == (0, 1)


def test_tournament_is_certified_on_construction():
    with pytest.raises(NotTournament, match="no arc in either direction"):
        Tournament(BinMatrix.zeros(3))
    with pytest.raises(ValueError, match="nonzero diagonal"):
        Tournament(BinMatrix.identity(3))
    # the valency is derived, never passed in
    with pytest.raises(TypeError):
        Tournament(paley_tournament(7).adj, 2)
    assert Tournament(paley_tournament(7).adj).valency == 3
    assert Tournament(BinMatrix.from_strings(
        ["011", "000", "010"])).valency is None


def test_tournament_complement_identity():
    for t in (circulant_tournament(3, {1}), circulant_tournament(7, {1, 2, 3})):
        assert complement_graph(t.adj) == t.adj.transpose()


def test_double_regularity():
    assert is_doubly_regular_tournament(Tournament(cycle_power(3, 1))) == 0
    assert is_doubly_regular_tournament(paley_tournament(7)) == 1
    assert is_doubly_regular_tournament(circulant_tournament(5, {1, 2})) is None


def test_double_regularity_is_verified_once_per_tournament():
    from dsrg import tournaments
    t = paley_tournament(11)
    with mock.patch.object(tournaments, "try_verify_dsrg",
                           wraps=tournaments.try_verify_dsrg) as spy:
        assert is_doubly_regular_tournament(t) == 2
        assert cons.team_dsrg(t).params.as_tuple() == (48, 23, 12, 11, 11)
    assert spy.call_count == 1


def test_double_regularity_needs_regular():
    a = BinMatrix.from_strings(["00100", "10000", "01000", "11100", "11110"])
    with pytest.raises(ValueError):
        is_doubly_regular_tournament(Tournament(a))


def test_circulant_rejects_bad_connection_sets():
    with pytest.raises(ValueError, match="3"):
        circulant_tournament(7, {2, 3, 4})
    with pytest.raises(ValueError, match="odd"):
        circulant_tournament(4, {1})
    with pytest.raises(ValueError):
        circulant_tournament(5, {1})  # covers neither 2 nor 3


@pytest.mark.parametrize("n, conn", [(-3, {1}), (-3, set()), (0, {1}),
                                     (-1, set())])
def test_circulant_rejects_non_positive_order(n, conn):
    with pytest.raises(ValueError, match="positive odd order"):
        circulant_tournament(n, conn)


def test_cycle_sum_families():
    # the odd {1, 3, .., 2k-1}, even {2, .., 2k} and run {j+1, .., j+k}
    # exponent sets, over circulant_tournament, which refuses a set that is
    # not a tournament
    assert circulant_tournament(5, {1, 3}).valency == 2
    assert circulant_tournament(5, {2, 4}).valency == 2
    assert circulant_tournament(7, {1, 2, 3}).valency == 3
    with pytest.raises(ValueError,
                       match="residue 3 and its negation 4 are both present"):
        circulant_tournament(7, {2, 3, 4})


def test_cycle_sum_family_has_commuting_transposer():
    # the odd-exponent set's rows all reappear as columns
    from transposers import find_commuting_transposer
    t = circulant_tournament(7, {1, 3, 5})
    assert find_commuting_transposer(t.adj) is not None


def test_team_from_drt_profile():
    t = circulant_tournament(3, {1})
    assert is_doubly_regular_tournament(t) is not None
    d = team_lem6(t)
    assert d.n == 8
    prof = is_doubly_regular_team(d)
    assert prof is not None
    assert (prof.alpha, prof.beta, prof.gamma, prof.k) == (1, 1, 3, 3)


def test_team_from_drt_paley_7():
    t = paley_tournament(7)
    assert is_doubly_regular_tournament(t) is not None
    d = team_lem6(t)
    assert d.n == 16
    prof = is_doubly_regular_team(d)
    assert prof is not None and prof.k == 7
    assert (prof.alpha, prof.beta, prof.gamma) == (3, 3, 7)


def test_team_from_drt_rejects_non_drt():
    t = circulant_tournament(5, {1, 2})
    assert is_doubly_regular_tournament(t) is None
    with pytest.raises(ValueError, match="not doubly regular"):
        cons.team_dsrg(t)


def test_team_identities():
    # D^2 = (2L+1)(D+D^T) + (4L+3)(J-I-D-D^T), DD^T = (4L+3)I + (2L+1)(D+D^T)
    for t, lam in ((Tournament(cycle_power(3, 1)), 0),
                   (paley_tournament(7), 1)):
        assert is_doubly_regular_tournament(t) == lam
        d = team_lem6(t)
        n = d.n
        dt = d.transpose()
        sq = mat_mul_count(d, d)
        ddt = mat_mul_count(d, dt)
        for i in range(n):
            for j in range(n):
                both = d.entry(i, j) + dt.entry(i, j)
                neither = 1 - both if i != j else 0
                assert sq.entry(i, j) == \
                    (2 * lam + 1) * both + (4 * lam + 3) * neither
                expected = (2 * lam + 1) * both
                if i == j:
                    expected += 4 * lam + 3
                assert ddt.entry(i, j) == expected


def test_team_lem6_block_identity():
    # D + D^T tiles as J-I in (h+1)-blocks and
    # D^2 + DD^T + D + D^T = h*J
    for t in (Tournament(BinMatrix.zeros(1)),
              Tournament(cycle_power(3, 1)),
              circulant_tournament(5, {1, 2})):
        h = t.order
        d = team_lem6(t)
        assert d.n == 2 * h + 2
        dt = d.transpose()
        half = complement_graph(BinMatrix.zeros(h + 1))  # J - I
        tiled = block_compose([[half, half], [half, half]])
        assert BinMatrix(d.n, tuple(a | b for a, b in zip(d.rows, dt.rows))) \
            == tiled
        sq = mat_mul_count(d, d)
        ddt = mat_mul_count(d, dt)
        for i in range(d.n):
            for j in range(d.n):
                total = sq.entry(i, j) + ddt.entry(i, j) + \
                    d.entry(i, j) + dt.entry(i, j)
                assert total == h


def _bordered_layout_oracle(a):
    """The layout as it was first written: a grid of tournament blocks,
    constant cells and one-row or one-column lists, expanded to dense rows
    cell by cell."""
    h = a.n
    at = a.transpose()
    layout = [[0, [[1] * h], 0, [[0] * h]],
              [[[0]] * h, a, [[1]] * h, at],
              [0, [[0] * h], 0, [[1] * h]],
              [[[1]] * h, at, [[0]] * h, a]]
    sizes = [1, h, 1, h]

    def dense(cell, height, width):
        if isinstance(cell, BinMatrix):
            return cell.to_lists()
        if isinstance(cell, int):
            return [[cell] * width for _ in range(height)]
        return cell

    rows = []
    for grid_row, height in zip(layout, sizes):
        blocks = [dense(c, height, w) for c, w in zip(grid_row, sizes)]
        rows.extend([x for b in blocks for x in b[i]] for i in range(height))
    return BinMatrix.from_rows(rows)


def test_bordered_layout_matches_block_oracle():
    tournaments = [t for n in (1, 3, 5, 7, 9)
                   for t in enumerate_regular_tournaments(n)]
    tournaments += [paley_tournament(q) for q in (3, 7, 11, 19, 23)]
    assert len(tournaments) == 26
    for t in tournaments:
        assert team_lem6(t) == _bordered_layout_oracle(t.adj)
        if is_doubly_regular_tournament(t) is not None:
            assert team_lem6(t) == _bordered_layout_oracle(t.adj)


def regular_classes():
    return [t for n in range(1, 12, 2) for t in canonical_classes(n).values()]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_lem5_is_lem6_over_doubly_regular_tournaments(data):
    # a relabelled class of order <= 11 (mostly not doubly regular) or a
    # relabelled Paley tournament (always doubly regular)
    t = data.draw(st.one_of(
        st.sampled_from(regular_classes()),
        st.sampled_from([paley_tournament(q) for q in (3, 7, 11, 19, 23)])))
    p = PermSpec(tuple(data.draw(st.permutations(range(t.order)))))
    t = Tournament(conjugate_by_perm(t.adj, p))
    if is_doubly_regular_tournament(t) is None:
        # a ValueError naming the order, never _result's AssertionError
        with pytest.raises(ValueError, match=f"order-{t.order} tournament "
                                             f"is not doubly regular"):
            cons.team_dsrg(t)
    else:
        lem5 = cons.team_dsrg(t)
        assert lem5.method == "lem5"
        assert lem5.adj == cons.bordered_team_dsrg(t).adj


def test_team_lem6_rejects_irregular():
    a = BinMatrix.from_strings(["00100", "10000", "01000", "11100", "11110"])
    with pytest.raises(ValueError, match="regular"):
        team_lem6(Tournament(a))


def _reversed_triangle(a, rng):
    """a with one directed 3-cycle reversed, which keeps every in- and
    out-degree."""
    rows = list(a.rows)
    back = []
    while not back:
        i = rng.randrange(a.n)
        j = rng.choice([j for j in range(a.n) if rows[i] >> j & 1])
        back = [v for v in range(a.n) if rows[j] >> v & 1 and rows[v] >> i & 1]
    v = rng.choice(back)
    for x, y in ((i, j), (j, v), (v, i)):
        rows[x] ^= 1 << y
        rows[y] |= 1 << x
    return BinMatrix(a.n, tuple(rows))


def test_team_profile_matches_oracle_with_two_byte_fields():
    # order 256 widens the A^2 count fields to two bytes; a reversed 3-cycle
    # keeps every degree, so its rows of A^2 are compared and one differs
    rng = random.Random(256)
    a = team_lem6(paley_tournament(127))
    order = list(range(a.n))
    rng.shuffle(order)
    cases = [a, conjugate_by_perm(a, PermSpec(tuple(order))),
             _reversed_triangle(a, rng)]
    cases += [_perturbed(a, rng, rng.randint(1, 3)) for _ in range(4)]
    outcomes = set()
    for b in cases:
        expected = _outcome(_is_doubly_regular_team_oracle, b)
        assert _outcome(is_doubly_regular_team, b) == expected
        outcomes.add(type(expected).__name__)
    assert outcomes == {"TeamProfile", "NoneType", "str"}
    assert is_doubly_regular_team(a) == TeamProfile(63, 63, 127, 127)


@pytest.mark.parametrize("call, error, fragment", [
    (lambda: is_doubly_regular_team(BinMatrix.identity(2)), ValueError,
     "team tournaments have zero diagonal"),
    (lambda: circulant_tournament(5, {0, 1, 2}), ValueError,
     "residue 0 is not allowed"),
    (lambda: paley_tournament(5), ValueError, "need a prime q = 3 (mod 4)"),
], ids=["team-loop", "residue-0", "paley-5"])
def test_tournament_refusals(call, error, fragment):
    with pytest.raises(ValueError) as info:
        call()
    assert info.type is error and fragment in str(info.value)


def test_degenerate_team_is_tournament_check():
    # r = 1: profile exists iff the tournament is doubly regular
    assert is_doubly_regular_team(cycle_power(3, 1).transpose()) is not None
    assert is_doubly_regular_team(circulant_tournament(5, {1, 2}).adj) is None


def test_team_rejects_unequal_degrees():
    # orientation of the complement of 2 K_2 with unequal degrees
    a = BinMatrix.from_rows([
        [0, 0, 1, 1],
        [0, 0, 1, 1],
        [0, 0, 0, 0],
        [0, 0, 0, 0]])
    assert is_doubly_regular_team(a) is None


# -- enumeration and its independent oracle ----------------------------------


def naive_labeled_regular_tournaments(n):
    """All labeled regular tournaments of order n, by brute force over
    every orientation (row-0 out-set choices x all other pair bits)."""
    k = (n - 1) // 2
    pairs = [(i, j) for i in range(1, n) for j in range(i + 1, n)]
    out = []
    for head in itertools.combinations(range(1, n), k):
        base = [0] * n
        for v in head:
            base[0] |= 1 << v
        for v in range(1, n):
            if v not in head:
                base[v] |= 1
        for bits in range(1 << len(pairs)):
            rows = list(base)
            for idx, (i, j) in enumerate(pairs):
                if (bits >> idx) & 1:
                    rows[i] |= 1 << j
                else:
                    rows[j] |= 1 << i
            if all(r.bit_count() == k for r in rows):
                out.append(tuple(rows))
    return out


def orbit_of(rows, n):
    """All labelings of one tournament under the full symmetric group."""
    orbit = set()
    for images in itertools.permutations(range(n)):
        new = [0] * n
        for i in range(n):
            r = rows[i]
            acc = 0
            while r:
                low = r & -r
                acc |= 1 << images[low.bit_length() - 1]
                r ^= low
            new[images[i]] = acc
        orbit.add(tuple(new))
    return orbit


@pytest.mark.parametrize("n,expected_classes", [(1, 1), (3, 1), (5, 1), (7, 3)])
def test_enumeration_counts_against_naive_oracle(n, expected_classes):
    reps = enumerate_regular_tournaments(n)
    assert len(reps) == expected_classes
    labeled = naive_labeled_regular_tournaments(n)
    orbits = [orbit_of(t.adj.rows, n) for t in reps]
    for a, b in itertools.combinations(orbits, 2):
        assert not (a & b), "representatives are not isomorphism-distinct"
    union = set().union(*orbits)
    assert union == set(labeled), "orbits do not cover the labeled count"


@pytest.mark.parametrize("n", [7, 9])
def test_enumeration_deterministic_and_canonical(n):
    first = enumerate_regular_tournaments(n)
    second = enumerate_regular_tournaments(n)
    assert [t.adj for t in first] == [t.adj for t in second]
    from dsrg import canonical_form
    for t in first:
        assert canonical_form(t.adj).canonical == t.adj


def test_enumeration_rediscovers_circulants():
    for n in (3, 5, 7):
        reps = enumerate_regular_tournaments(n)
        k = (n - 1) // 2
        for choice in itertools.product(*[(e, n - e) for e in range(1, k + 1)]):
            circ = circulant_tournament(n, set(choice))
            assert any(are_isomorphic(circ.adj, t.adj) is not None
                       for t in reps)


@pytest.mark.parametrize("n", [3, 5, 7])
def test_neighbourhood_candidates_cover_every_labeling(n):
    # every labeled regular tournament is a relabeling of some candidate,
    # and every candidate is a labeled regular tournament
    from dsrg.tournaments import _neighbourhood_candidates
    candidates = list(_neighbourhood_candidates(n))
    labeled = set(naive_labeled_regular_tournaments(n))
    assert set(candidates) <= labeled
    assert set().union(*(orbit_of(rows, n) for rows in candidates)) == labeled


ORDER_9_CANDIDATES = [
    (30, 480, 450, 390, 270, 29, 57, 113, 225),
    (30, 480, 354, 390, 270, 153, 57, 85, 225),
    (30, 480, 354, 390, 142, 281, 57, 101, 209),
    (30, 480, 418, 198, 270, 281, 53, 113, 201),
    (30, 480, 418, 326, 142, 281, 53, 105, 209),
    (30, 480, 418, 390, 78, 281, 45, 113, 209),
    (30, 480, 450, 166, 270, 277, 57, 113, 201),
    (30, 480, 450, 294, 142, 277, 57, 105, 209),
    (30, 360, 418, 452, 270, 153, 53, 83, 225),
    (30, 360, 450, 420, 270, 149, 57, 83, 225),
    (30, 360, 418, 452, 142, 281, 53, 99, 209),
    (30, 360, 450, 420, 142, 277, 57, 99, 209),
    (30, 424, 418, 452, 78, 281, 39, 113, 209),
    (30, 424, 418, 420, 78, 337, 15, 113, 209),
    (30, 368, 418, 326, 396, 153, 53, 75, 225),
    (30, 368, 450, 294, 396, 149, 57, 75, 225),
    (30, 240, 418, 326, 396, 281, 53, 105, 195),
    (30, 432, 354, 390, 204, 281, 43, 101, 209),
    (30, 432, 450, 166, 332, 277, 43, 113, 201),
    (30, 464, 354, 166, 396, 275, 57, 101, 201),
]


def test_neighbourhood_candidates_stream_is_pinned():
    # the candidate tuples and their order feed the canonical pass, so a
    # faster generator must yield exactly this stream
    from dsrg.tournaments import _neighbourhood_candidates
    assert list(_neighbourhood_candidates(9)) == ORDER_9_CANDIDATES
    order_11 = list(_neighbourhood_candidates(11))
    assert len(order_11) == 1366
    assert hashlib.sha256(repr(order_11).encode()).hexdigest() == \
        "f836454af864f827f2802f7bd3de60c6ede86841f19239dc230f732e6f0d89d5"


def brute_force_cross_matrices(row_sums, need):
    """0/1 matrices, as row bit masks, with these row and column sums: all
    2^k masks tried at each row level, in ascending order."""
    if not row_sums:
        yield ()
        return
    must = sum(1 << j for j, c in enumerate(need) if c == len(row_sums))
    can = sum(1 << j for j, c in enumerate(need) if c)
    for m in range(1 << len(need)):
        if m.bit_count() == row_sums[0] and m & must == must and not m & ~can:
            rest = [c - (m >> j & 1) for j, c in enumerate(need)]
            for tail in brute_force_cross_matrices(row_sums[1:], rest):
                yield (m,) + tail


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_rooted_labelings_follow_brute_force_cross_matrices(k):
    # the row-by-row builder yields, for every pair of representatives,
    # the rows of exactly the brute-force cross matrices, in their order
    from dsrg.tournaments import _rooted_labelings, _small_classes
    reps, _ = _small_classes(k, list(itertools.combinations(range(k), 2)))
    for out_rows, _ in reps:
        for in_rows, _ in reps:
            expected = [
                ((1 << k) - 1 << 1,
                 *(out_rows[i] << 1 | cross[i] << k + 1 for i in range(k)),
                 *(1 | in_rows[j] << k + 1 |
                   sum(1 << 1 + i for i in range(k) if not cross[i] >> j & 1)
                   for j in range(k)))
                for cross in brute_force_cross_matrices(
                    [k - r.bit_count() for r in out_rows],
                    [1 + r.bit_count() for r in in_rows])]
            assert list(_rooted_labelings(out_rows, in_rows)) == expected


def test_enumeration_order_9_class_count():
    # beyond the oracle's reach; pins the enumerator's stable class count
    reps = enumerate_regular_tournaments(9)
    assert len(reps) == 15
    assert all(t.valency == 4 for t in reps)
    assert all(is_doubly_regular_tournament(t) is None
               for t in reps)  # 9 != 3 mod 4


def test_enumeration_refuses_large_order():
    with pytest.raises(ValueError) as info:
        enumerate_regular_tournaments(13)
    assert str(info.value) == "order 13 exceeds the enumeration limit 11"


@functools.lru_cache(maxsize=None)
def canonical_classes(n):
    return {t.adj: t for t in enumerate_regular_tournaments(n)}


def test_order_11_has_one_doubly_regular_class():
    doubly = [t for t in canonical_classes(11).values()
              if is_doubly_regular_tournament(t) == 2]
    assert len(doubly) == 1
    assert all(is_doubly_regular_tournament(t) in (None, 2)
               for t in canonical_classes(11).values())
    assert are_isomorphic(doubly[0].adj, paley_tournament(11).adj) is not None


def reverse_three_cycles(n, picks):
    """Walk from the circulant {1..k} by reversing directed 3-cycles.

    Each step lists the directed 3-cycles (a -> b -> c -> a, a smallest)
    and reverses the one the pick selects; scores never change.
    """
    k = (n - 1) // 2
    rows = list(circulant_tournament(n, range(1, k + 1)).adj.rows)
    for pick in picks:
        cycles = [(a, b, c) for a in range(n) for b in range(a + 1, n)
                  for c in range(a + 1, n)
                  if rows[a] >> b & 1 and rows[b] >> c & 1 and rows[c] >> a & 1]
        a, b, c = cycles[pick % len(cycles)]
        for u, v in ((a, b), (b, c), (c, a)):
            rows[u] ^= 1 << v
            rows[v] ^= 1 << u
    return BinMatrix(n, tuple(rows))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([9, 11]),
       st.lists(st.integers(0, 10 ** 6), min_size=0, max_size=40))
def test_random_regular_tournament_is_enumerated(n, picks):
    from dsrg import canonical_form
    walked = reverse_three_cycles(n, picks)
    t = Tournament(walked)
    assert t.valency == (n - 1) // 2
    assert canonical_form(walked).canonical in canonical_classes(n)


def test_enumeration_rejects_even_order():
    with pytest.raises(ValueError, match="odd"):
        enumerate_regular_tournaments(4)


def test_enumeration_rejects_negative_order():
    with pytest.raises(ValueError, match="positive odd"):
        enumerate_regular_tournaments(-1)


def test_tournament_plus_transpose_is_full():
    for t in (circulant_tournament(7, {1, 2, 3}), paley_tournament(7)):
        full = complement_graph(BinMatrix.zeros(7))
        combined = BinMatrix(7, tuple(a | b for a, b in
                                      zip(t.adj.rows, t.adj.transpose().rows)))
        assert combined == full


def test_circulant_commutes_with_shift():
    from dsrg import PermSpec, conjugate_by_perm
    t = circulant_tournament(7, {1, 2, 3})
    assert conjugate_by_perm(t.adj, PermSpec.shift(7, 1)) == t.adj


# -- the former double-regularity checks, kept verbatim as oracles ----------

def _is_doubly_regular_tournament_oracle(t):
    if not t.is_regular:
        raise ValueError("double regularity is defined for regular tournaments")
    n = t.order
    if n % 4 != 3:
        return None
    lam = (n - 3) // 4
    rows = t.adj.rows
    for x in range(n):
        members = []
        r = rows[x]
        while r:
            low = r & -r
            members.append(low.bit_length() - 1)
            r ^= low
        for v in members:
            degree = sum((rows[v] >> w) & 1 for w in members)
            if degree != lam:
                return None
    return lam


def _is_doubly_regular_team_oracle(a):
    n = a.n
    if not a.has_zero_diagonal():
        raise ValueError("team tournaments have zero diagonal")
    cols = a.transpose().rows
    mask = (1 << n) - 1
    for i in range(n):
        if a.rows[i] & cols[i]:
            j = ((a.rows[i] & cols[i]) & -(a.rows[i] & cols[i])).bit_length() - 1
            raise ValueError(f"arcs in both directions between {i} and {j}")
    teammates = [~(a.rows[i] | cols[i]) & mask & ~(1 << i) for i in range(n)]
    seen = [False] * n
    team_size = None
    for i in range(n):
        if seen[i]:
            continue
        block = teammates[i] | (1 << i)
        members = [v for v in range(n) if (block >> v) & 1]
        for v in members:
            if teammates[v] | (1 << v) != block:
                raise ValueError(
                    f"non-adjacency classes are not cliques (vertices {i}, {v})")
            seen[v] = True
        if team_size is None:
            team_size = len(members)
        elif team_size != len(members):
            raise ValueError("non-adjacency cliques have unequal sizes")
    assert team_size is not None
    m = n // team_size
    k = (m - 1) * team_size // 2
    if any(r.bit_count() != k for r in a.rows):
        return None
    if any(c.bit_count() != k for c in cols):
        return None
    sq = mat_mul_count(a, a).entries
    alpha = beta = gamma = None
    for i in range(n):
        if sq[i][i] != 0:
            return None
        for j in range(n):
            if i == j:
                continue
            value = sq[i][j]
            if (a.rows[i] >> j) & 1:
                if alpha is None:
                    alpha = value
                elif value != alpha:
                    return None
            elif (cols[i] >> j) & 1:
                if beta is None:
                    beta = value
                elif value != beta:
                    return None
            else:
                if gamma is None:
                    gamma = value
                elif value != gamma:
                    return None
    if alpha is None or beta is None:
        return None
    return TeamProfile(alpha, beta, gamma if gamma is not None else 0, k)


def _outcome(fn, arg):
    try:
        return fn(arg)
    except ValueError as exc:
        return str(exc)


def test_double_regularity_matches_oracle_on_all_small_orders():
    for n in range(1, 12, 2):
        for t in canonical_classes(n).values():
            assert is_doubly_regular_tournament(t) == \
                _is_doubly_regular_tournament_oracle(t)
    for q in (3, 7, 11, 19, 23):
        t = paley_tournament(q)
        plain = Tournament(t.adj)
        assert is_doubly_regular_tournament(plain) == \
            _is_doubly_regular_tournament_oracle(plain) == (q - 3) // 4


def _perturbed(a, rng, count):
    """a with `count` random arcs changed: mostly reversed, sometimes
    deleted or doubled into a 2-cycle."""
    rows = list(a.rows)
    for _ in range(count):
        i = rng.randrange(a.n)
        if rows[i]:
            j = rng.choice([j for j in range(a.n) if rows[i] >> j & 1])
            change = rng.choice(("reverse", "reverse", "delete", "double"))
            if change != "double":
                rows[i] ^= 1 << j
            if change != "delete":
                rows[j] |= 1 << i
    return BinMatrix(a.n, tuple(rows))


def test_team_profile_matches_oracle_on_layouts_and_perturbations():
    rng = random.Random(6)
    tournaments = [t for n in (1, 3, 5, 7)
                   for t in enumerate_regular_tournaments(n)]
    tournaments += [paley_tournament(q) for q in (7, 11)]
    layouts = [team_lem6(t) for t in tournaments]
    layouts += [team_lem6(t) for t in tournaments
                if is_doubly_regular_tournament(t) is not None]
    layouts += [t.adj for t in tournaments]
    # an oriented complete multipartite graph that is not a team layout
    layouts.append(BinMatrix.from_rows([[0, 0, 1, 1], [0, 0, 1, 1],
                                        [0, 0, 0, 0], [0, 0, 0, 0]]))
    profiles = set()
    for a in layouts:
        for b in [a] + [_perturbed(a, rng, rng.randint(1, 3))
                        for _ in range(6)]:
            expected = _outcome(_is_doubly_regular_team_oracle, b)
            assert _outcome(is_doubly_regular_team, b) == expected, b
            profiles.add(type(expected).__name__)
    assert profiles == {"TeamProfile", "NoneType", "str"}
