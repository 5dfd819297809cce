import itertools
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsrg import (BinMatrix, PermSpec, are_isomorphic, canonical_form,
                  circulant_tournament, classify, conjugate_by_perm,
                  cycle_power, enumerate_regular_tournaments,
                  find_commuting_transposer, paley_tournament)
from dsrg import constructions as cons
from dsrg import iso


def random_digraph(rng, n):
    return BinMatrix.from_rows([
        [0 if i == j else rng.randint(0, 1) for j in range(n)]
        for i in range(n)])


def brute_force_isomorphic(a, b):
    if a.n != b.n:
        return None
    for images in itertools.permutations(range(a.n)):
        p = PermSpec(images)
        if conjugate_by_perm(a, p) == b:
            return p
    return None


def test_planted_isomorphism():
    rng = random.Random(10)
    a = random_digraph(rng, 10)
    p = PermSpec(tuple(rng.sample(range(10), 10)))
    b = conjugate_by_perm(a, p)
    w = are_isomorphic(a, b)
    assert w is not None
    assert conjugate_by_perm(a, w) == b


def test_matches_brute_force_on_small_graphs():
    rng = random.Random(11)
    agree = disagree = 0
    for _ in range(40):
        n = rng.randrange(2, 6)
        a = random_digraph(rng, n)
        b = random_digraph(rng, n)
        expected = brute_force_isomorphic(a, b)
        got = are_isomorphic(a, b)
        assert (expected is None) == (got is None)
        if got is not None:
            assert conjugate_by_perm(a, got) == b
            agree += 1
        else:
            disagree += 1
    assert agree > 0 and disagree > 0


def test_canonical_invariance_random():
    rng = random.Random(12)
    for _ in range(15):
        n = rng.randrange(2, 10)
        a = random_digraph(rng, n)
        p = PermSpec(tuple(rng.sample(range(n), n)))
        assert canonical_form(a).canonical == \
            canonical_form(conjugate_by_perm(a, p)).canonical


def test_canonical_iff_isomorphic():
    rng = random.Random(13)
    for _ in range(25):
        n = rng.randrange(2, 7)
        a = random_digraph(rng, n)
        b = random_digraph(rng, n)
        same_canon = canonical_form(a).canonical == canonical_form(b).canonical
        assert same_canon == (brute_force_isomorphic(a, b) is not None)


def test_canonical_belongs_to_class():
    rng = random.Random(14)
    a = random_digraph(rng, 8)
    cert = canonical_form(a)
    assert are_isomorphic(a, cert.canonical) is not None


def test_three_cycle_and_reverse_share_canonical():
    assert canonical_form(cycle_power(3, 1)).canonical == \
        canonical_form(cycle_power(3, 2)).canonical


def test_distinct_hashes_for_non_isomorphic_16():
    pi3 = circulant_tournament(3, {1})
    a = cons.team_dsrg(pi3).adj
    b = cons.cycle_sum_dsrg(3).adj
    assert canonical_form(a).cert_hash != canonical_form(b).cert_hash


def test_classify_groups_and_order():
    pi3 = circulant_tournament(3, {1})
    rng = random.Random(15)
    a = cons.team_dsrg(pi3).adj
    graphs = [a,
              cons.cycle_sum_dsrg(3).adj,
              conjugate_by_perm(a, PermSpec(tuple(rng.sample(range(16), 16)))),
              cycle_power(3, 1)]
    groups = classify(graphs)
    assert groups == [[3], [0, 2], [1]] or groups == [[3], [1], [0, 2]]
    # classes ordered by (order, canonical); the 3-vertex class comes first
    assert groups[0] == [3]


def test_classify_duplicates():
    a = random_digraph(random.Random(16), 7)
    assert classify([a, a]) == [[0, 1]]


def test_iso_bound_refusal():
    big = BinMatrix.zeros(49)
    with pytest.raises(ValueError, match="bound"):
        are_isomorphic(big, big)
    with pytest.raises(ValueError, match="bound"):
        canonical_form(big)
    assert canonical_form(big, bound=49).order == 49


def test_commuting_transposer_three_cycle():
    p = find_commuting_transposer(cycle_power(3, 1))
    assert p is not None and p.images == (1, 2, 0)


def test_commuting_transposer_circulant_is_shift():
    a = circulant_tournament(5, {1, 2}).adj
    p = find_commuting_transposer(a)
    assert p is not None
    assert p.images == PermSpec.shift(5, 2).images
    # two-sided identity holds exactly
    n = 5
    pa = BinMatrix(n, tuple(a.rows[p.images[i]] for i in range(n)))
    assert pa == a.transpose()


def test_all_small_regular_tournaments_self_converse():
    # every regular tournament class of order <= 7 is self-converse
    for n in (3, 5, 7):
        for t in enumerate_regular_tournaments(n):
            assert are_isomorphic(t.adj, t.adj.transpose()) is not None


def test_commuting_transposer_absent():
    # a non-self-converse tournament (order 5, found by brute force);
    # its transpose is not even isomorphic, so no transposer exists
    a = BinMatrix.from_strings(
        ["00100", "10000", "01000", "11100", "11110"])
    assert are_isomorphic(a, a.transpose()) is None
    assert find_commuting_transposer(a) is None


def test_commuting_transposer_absent_for_paley_7():
    # rows are translates of the residue set, columns of the non-residues,
    # so no row equals a column even though the graph is self-converse
    assert find_commuting_transposer(paley_tournament(7).adj) is None


def _lift_identity_p(n, p):
    return PermSpec.block_diag([PermSpec.identity(n), p.inverse()])


def test_paired_constructions_isomorphic_via_block_witness():
    for t in (circulant_tournament(3, {1}), circulant_tournament(5, {1, 2}),
              circulant_tournament(7, {1, 2, 3})):
        p = find_commuting_transposer(t.adj)
        assert p is not None
        b = cons.duval_b(t).adj
        c = cons.duval_c(t).adj
        witness = _lift_identity_p(t.order, p)
        assert conjugate_by_perm(b, witness) == c
        assert are_isomorphic(b, c) is not None


def test_wide_tall_isomorphic_via_alternating_witness():
    for w in (2, 3):
        t = circulant_tournament(3, {1})
        p = find_commuting_transposer(t.adj)
        parts = [PermSpec.identity(3) if i % 2 == 0 else p.inverse()
                 for i in range(2 * w)]
        witness = PermSpec.block_diag(parts)
        wide = cons.wide_blocks(t, w).adj
        tall = cons.tall_blocks(t, w).adj
        assert conjugate_by_perm(wide, witness) == tall


def test_wide_block_column_permutation_is_isomorphic():
    t = circulant_tournament(3, {1})
    h = 3
    for w in (2, 3):
        wide = cons.wide_blocks(t, w).adj
        rng = random.Random(17 + w)
        block_perm = PermSpec(tuple(rng.sample(range(2 * w), 2 * w)))
        lifted = PermSpec(tuple(block_perm.images[i // h] * h + (i % h)
                                for i in range(2 * w * h)))
        permuted = conjugate_by_perm(wide, lifted)
        # conjugation only reorders the identical block rows, so the result
        # is exactly the block-column permutation of the original
        for bi in range(2 * w):
            for r in range(h):
                for bj in range(2 * w):
                    for c in range(h):
                        assert permuted.entry(block_perm.images[bi] * h + r,
                                              block_perm.images[bj] * h + c) \
                            == wide.entry(bi * h + r, bj * h + c)
        assert are_isomorphic(wide, permuted) is not None


def test_non_isomorphic_tournaments_give_non_isomorphic_graphs():
    # empirical status of the converse question: across each construction,
    # the distinct tournament classes of order <= 7 always produce
    # non-isomorphic graphs (no counterexample known at these orders)
    reps = enumerate_regular_tournaments(7)
    builders = (cons.duval_b, cons.duval_c, cons.m_construction,
                cons.bordered_team_dsrg)
    counterexamples = []
    for builder in builders:
        for a, b in itertools.combinations(reps, 2):
            if are_isomorphic(builder(a).adj, builder(b).adj) is not None:
                counterexamples.append(builder.__name__)
    assert counterexamples == []


def test_soundness_of_witnesses():
    rng = random.Random(18)
    for _ in range(10):
        n = rng.randrange(2, 9)
        a = random_digraph(rng, n)
        p = PermSpec(tuple(rng.sample(range(n), n)))
        b = conjugate_by_perm(a, p)
        w = are_isomorphic(a, b)
        assert w is not None and conjugate_by_perm(a, w) == b


def test_commuting_transposer_large_order():
    # the bijection is assembled by a loop, so the order is not limited by
    # the interpreter's recursion depth
    p = find_commuting_transposer(BinMatrix.zeros(1201), bound=1201)
    assert p == PermSpec.identity(1201)


def test_invalid_canonical_witness_raises():
    # a canonical labelling that disagrees with the graphs must be caught by
    # the witness re-check, which is real code and survives python -O
    a = cycle_power(5, 1)
    b = conjugate_by_perm(a, PermSpec((0, 2, 1, 3, 4)))
    assert a != b
    bogus = (BinMatrix.zeros(5), list(range(5)))
    with mock.patch.object(iso, "_MAPPING_SEARCH_BUDGET", 0), \
            mock.patch.object(iso, "_canonical", return_value=bogus):
        with pytest.raises(AssertionError, match="witness"):
            are_isomorphic(a, b)


# -- property tests on graphs with twins -------------------------------------


def blow_up(base, copies):
    """Replace base vertex v by copies[v] twins; a loop on v makes its
    twins mutually adjacent (loops included)."""
    owner = [v for v, m in enumerate(copies) for _ in range(m)]
    return BinMatrix.from_rows([[base[u][v] for v in owner] for u in owner])


@st.composite
def base_digraphs(draw, max_order=5, max_copies=4):
    n = draw(st.integers(1, max_order))
    loops = draw(st.booleans())
    base = [[int(draw(st.booleans()) and (loops or i != j)) for j in range(n)]
            for i in range(n)]
    copies = draw(st.lists(st.integers(1, max_copies), min_size=n,
                           max_size=n))
    return base, copies


def _constructed_with_twins():
    pi3 = circulant_tournament(3, {1})
    z5 = circulant_tournament(5, {1, 2})
    graphs = []
    for t in (pi3, z5):
        for w in (2, 3):
            graphs.append(cons.wide_blocks(t, w).adj)
            graphs.append(cons.tall_blocks(t, w).adj)
        base = cons.duval_b(t).adj
        for m in (2, 3):
            for side in ("left", "right"):
                graphs.append(cons.kronecker_expand(base, m, side).adj)
    return graphs


CONSTRUCTED_WITH_TWINS = _constructed_with_twins()

twin_heavy = st.one_of(
    base_digraphs().map(lambda bc: blow_up(*bc)),
    st.sampled_from(CONSTRUCTED_WITH_TWINS))


@st.composite
def blow_up_pairs(draw):
    """Two blow-ups of one base digraph, the second with its copy counts
    shuffled and perhaps one base arc flipped, so that some pairs are
    isomorphic and some are not."""
    base, copies = draw(base_digraphs())
    other = [row[:] for row in base]
    if draw(st.booleans()):
        i = draw(st.integers(0, len(base) - 1))
        j = draw(st.integers(0, len(base) - 1))
        other[i][j] ^= 1
    shuffled = draw(st.permutations(copies))
    return blow_up(base, copies), blow_up(other, shuffled)


@st.composite
def constructed_pairs(draw):
    a = draw(st.sampled_from(CONSTRUCTED_WITH_TWINS))
    b = draw(st.sampled_from([g for g in CONSTRUCTED_WITH_TWINS
                              if g.n == a.n]))
    return a, b


def test_canonical_form_exhaustive_on_tiny_blow_ups():
    # every digraph on two vertices (loops allowed), each vertex doubled or
    # not, under every relabeling: one canonical matrix per graph, and
    # distinct graphs keep distinct matrices unless they are isomorphic
    forms = []
    for bits in range(16):
        base = [[(bits >> (2 * i + j)) & 1 for j in range(2)]
                for i in range(2)]
        for copies in itertools.product((1, 2), repeat=2):
            a = blow_up(base, copies)
            seen = {canonical_form(conjugate_by_perm(a, PermSpec(p))).canonical
                    for p in itertools.permutations(range(a.n))}
            assert len(seen) == 1, (base, copies)
            forms.append((a, seen.pop()))
    for (a, ca), (b, cb) in itertools.combinations(forms, 2):
        assert (ca == cb) == (brute_force_isomorphic(a, b) is not None)


@settings(max_examples=80, deadline=None)
@given(twin_heavy, st.data())
def test_canonical_form_relabeling_invariant_with_twins(a, data):
    p = PermSpec(tuple(data.draw(st.permutations(range(a.n)))))
    assert canonical_form(a).canonical == \
        canonical_form(conjugate_by_perm(a, p)).canonical


@settings(max_examples=80, deadline=None)
@given(st.one_of(blow_up_pairs(), constructed_pairs()), st.data())
def test_canonical_equality_matches_witness_with_twins(pair, data):
    a, b = pair
    p = PermSpec(tuple(data.draw(st.permutations(range(b.n)))))
    b = conjugate_by_perm(b, p)
    same = canonical_form(a).canonical == canonical_form(b).canonical
    witness = are_isomorphic(a, b)
    # with no mapping budget every branching pair is settled by comparing
    # canonical labellings, whose orders yield the witness
    with mock.patch.object(iso, "_MAPPING_SEARCH_BUDGET", 0):
        canonical_witness = are_isomorphic(a, b)
    for w in (witness, canonical_witness):
        assert (w is not None) == same
        if w is not None:
            assert conjugate_by_perm(a, w) == b


def full_signature_refinement(graphs, colorings):
    """Joint refinement that recomputes every vertex's counts against
    every cell in every round; the oracle for iso._refine_joint."""
    n = len(colorings[0])
    base = n + 1
    colorings = [list(c) for c in colorings]
    ncolors = max(max(c) for c in colorings) + 1
    while True:
        sigs_all = []
        for (rows, cols), colors in zip(graphs, colorings):
            masks = [0] * ncolors
            for v, c in enumerate(colors):
                masks[c] |= 1 << v
            sigs = []
            for v in range(n):
                s = colors[v]
                for m in masks:
                    s = s * base * base + (rows[v] & m).bit_count() * base \
                        + (cols[v] & m).bit_count()
                sigs.append(s)
            sigs_all.append(sigs)
        if len(graphs) > 1:
            reference = sorted(sigs_all[0])
            if any(sorted(s) != reference for s in sigs_all[1:]):
                return None
        values = sorted(set().union(*(set(s) for s in sigs_all)))
        rank = {v: i for i, v in enumerate(values)}
        colorings = [[rank[s] for s in sigs] for sigs in sigs_all]
        if len(values) == ncolors:
            return colorings
        ncolors = len(values)


@st.composite
def small_digraphs(draw, n):
    """Dense or sparse random digraphs, loops allowed, or circulants with a
    few arcs flipped, whose refinement takes many rounds."""
    kind = draw(st.sampled_from(["dense", "sparse", "circulant"]))
    if kind == "dense":
        return BinMatrix(n, tuple(draw(st.lists(
            st.integers(0, (1 << n) - 1), min_size=n, max_size=n))))
    rows = [0] * n
    if kind == "circulant":
        shifts = draw(st.sets(st.integers(1, max(1, n - 1))))
        for i in range(n):
            for d in shifts:
                rows[i] |= 1 << ((i + d) % n)
    arcs = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                   st.integers(0, n - 1)), max_size=2 * n))
    for i, j in arcs:
        rows[i] ^= 1 << j
    return BinMatrix(n, tuple(rows))


@st.composite
def refinement_inputs(draw):
    """One or two digraphs on at most 14 vertices with start colorings:
    arbitrary ones, or an individualized vertex of a stable coloring as the
    search makes them.  A second graph is a relabeled copy, a copy with one
    arc flipped, or independent."""
    n = draw(st.integers(1, 14))
    a = draw(small_digraphs(n))
    colors_a = draw(st.one_of(
        st.just([0] * n),
        st.lists(st.integers(0, n - 1), min_size=n, max_size=n)))
    if draw(st.booleans()):
        stable = full_signature_refinement([iso._graph_bits(a)],
                                           [colors_a])[0]
        colors_a = iso._individualize(stable, draw(st.integers(0, n - 1)))
    kind = draw(st.sampled_from(["single", "relabeled", "flipped",
                                 "independent"]))
    if kind == "single":
        return [iso._graph_bits(a)], [colors_a]
    p = draw(st.permutations(range(n)))
    b = conjugate_by_perm(a, PermSpec(tuple(p)))
    colors_b = [0] * n
    for v in range(n):
        colors_b[p[v]] = colors_a[v]
    if kind == "flipped":
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        rows = list(b.rows)
        rows[i] ^= 1 << j
        b = BinMatrix(n, tuple(rows))
    elif kind == "independent":
        b = draw(small_digraphs(n))
        colors_b = draw(st.permutations(colors_a))
    return [iso._graph_bits(a), iso._graph_bits(b)], [colors_a, colors_b]


def _color_matching_is_isomorphism(graphs, colorings):
    (rows_a, _), (rows_b, _) = graphs
    by_color = {c: v for v, c in enumerate(colorings[1])}
    images = [by_color[c] for c in colorings[0]]
    n = len(images)
    return all(((rows_a[i] >> j) & 1) == ((rows_b[images[i]] >> images[j]) & 1)
               for i in range(n) for j in range(n))


@settings(max_examples=400, deadline=None)
@given(refinement_inputs())
def test_refine_joint_matches_full_signature_oracle(inputs):
    graphs, colorings = inputs
    expected = full_signature_refinement(graphs, colorings)
    got = iso._refine_joint(graphs, colorings)
    if got == expected:
        return
    # refinement stops at a discrete coloring, which is stable; in joint
    # mode the oracle instead runs one more round and rejects a pair whose
    # color matching is no isomorphism, which the search rejects anyway
    n = len(colorings[0])
    assert len(graphs) == 2 and expected is None and got is not None
    assert all(sorted(c) == list(range(n)) for c in got)
    assert not _color_matching_is_isomorphism(graphs, got)
