import gc
import hashlib
import itertools
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dsrg import (BinMatrix, PermSpec, are_isomorphic, canonical_form,
                  circulant_tournament, classify, conjugate_by_perm,
                  cycle_power, enumerate_regular_tournaments,
                  paley_tournament)
from dsrg import constructions as cons
from dsrg import iso
from dsrg.cli import all_construction_results
from dsrg.matrix import _relabeled_rows
from transposers import block_diag, find_commuting_transposer

SRC = Path(__file__).resolve().parent.parent / "src"


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
    groups = [members for _, members in classify(graphs)]
    assert groups == [[3], [0, 2], [1]] or groups == [[3], [1], [0, 2]]
    # classes ordered by (order, canonical); the 3-vertex class comes first
    assert groups[0] == [3]


def test_classify_duplicates():
    a = random_digraph(random.Random(16), 7)
    assert classify([a, a]) == [(canonical_form(a), [0, 1])]


@st.composite
def classify_inputs(draw):
    """Random digraphs on at most 5 vertices, loops allowed, mixed with
    relabelled copies of some of them, in random order."""
    bases = draw(st.lists(
        st.integers(1, 5).flatmap(lambda n: st.lists(
            st.integers(0, (1 << n) - 1), min_size=n, max_size=n)),
        min_size=1, max_size=5))
    graphs = [BinMatrix(len(rows), tuple(rows)) for rows in bases]
    for _ in range(draw(st.integers(0, 6))):
        g = draw(st.sampled_from(graphs))
        p = PermSpec(tuple(draw(st.permutations(range(g.n)))))
        graphs.append(conjugate_by_perm(g, p))
    return draw(st.permutations(graphs))


@settings(max_examples=150, deadline=None)
@given(classify_inputs())
def test_classify_matches_are_isomorphic(graphs):
    classes = classify(graphs)
    oracle = {frozenset(j for j, h in enumerate(graphs)
                        if are_isomorphic(g, h) is not None)
              for g in graphs}
    assert {frozenset(members) for _, members in classes} == oracle
    assert sum(len(members) for _, members in classes) == len(graphs)
    for cert, members in classes:
        assert members == sorted(members)
        assert all(canonical_form(graphs[i]) == cert for i in members)
    keys = [(cert.order, cert.canonical.rows) for cert, _ in classes]
    assert keys == sorted(keys)


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


def _transposes_both_sides(e, images):
    # P[i][p(i)] = 1, so (PA)[i][j] = A[p(i)][j] and (AP)[i][p(j)] = A[i][j]
    n = len(e)
    return all(e[images[i]][j] == e[j][i] and e[i][j] == e[images[j]][i]
               for i in range(n) for j in range(n))


def test_commuting_transposer_matches_brute_force_up_to_order_4():
    # all 4,165 loopless digraphs of order <= 4
    for n in range(1, 5):
        perms = list(itertools.permutations(range(n)))
        off = [(i, j) for i in range(n) for j in range(n) if i != j]
        for mask in range(1 << len(off)):
            e = [[0] * n for _ in range(n)]
            for b, (i, j) in enumerate(off):
                e[i][j] = (mask >> b) & 1
            p = find_commuting_transposer(BinMatrix.from_rows(e))
            exists = any(_transposes_both_sides(e, q) for q in perms)
            assert (p is not None) == exists
            if p is not None:
                assert _transposes_both_sides(e, p.images)


def _lift_identity_p(n, p):
    return block_diag([PermSpec.identity(n), p.inverse()])


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
        witness = block_diag(parts)
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
    p = find_commuting_transposer(BinMatrix.zeros(1201))
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


def test_lockstep_leaf_checks_its_witness():
    # a refinement that calls every coloring discrete must yield no witness:
    # the lockstep leaf compares a's relabeled rows with b's, and the pair's
    # only leaf differs
    a = cycle_power(5, 1)
    b = conjugate_by_perm(a, PermSpec((0, 2, 1, 3, 4)))
    with mock.patch.object(iso, "_refine", lambda *args, **kw: list(range(5))):
        assert are_isomorphic(a, b) is None


def test_invalid_canonical_witness_raises_under_python_O():
    # the same scenario with asserts stripped: the re-check still raises
    script = textwrap.dedent("""
        from unittest import mock
        from dsrg import (BinMatrix, PermSpec, are_isomorphic,
                          conjugate_by_perm, cycle_power, iso)
        assert False, "asserts are not stripped"
        a = cycle_power(5, 1)
        b = conjugate_by_perm(a, PermSpec((0, 2, 1, 3, 4)))
        bogus = (BinMatrix.zeros(5), list(range(5)))
        with mock.patch.object(iso, "_MAPPING_SEARCH_BUDGET", 0), \\
                mock.patch.object(iso, "_canonical", return_value=bogus):
            try:
                are_isomorphic(a, b)
            except AssertionError as exc:
                print(exc)
        """)
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "equal canonical forms gave an invalid witness\n"


def test_equal_parameter_lem6_pair_at_48():
    # lem6 over standard:11 and over paley:11 share (48, 23, 12, 11, 11)
    # and refine alike; the lockstep search uses up its budget on the pair
    a = cons.bordered_team_dsrg(circulant_tournament(11, range(1, 6))).adj
    b = cons.bordered_team_dsrg(paley_tournament(11)).adj
    p = PermSpec(tuple(random.Random(48).sample(range(48), 48)))
    for budget in (iso._MAPPING_SEARCH_BUDGET, 0):
        with mock.patch.object(iso, "_MAPPING_SEARCH_BUDGET", budget):
            assert are_isomorphic(a, b) is None
            for g in (a, b):
                copy = conjugate_by_perm(g, p)
                w = are_isomorphic(g, copy)
                assert w is not None and conjugate_by_perm(g, w) == copy


def test_are_isomorphic_leaves_no_reference_cycles():
    # the lockstep search must not keep both graphs and its traces alive
    # until the cyclic collector runs, whether it settles the pair or falls
    # back to canonical forms (the lem6 pair above uses up its budget)
    a = cons.bordered_team_dsrg(circulant_tournament(11, range(1, 6))).adj
    b = cons.bordered_team_dsrg(paley_tournament(11)).adj
    copy = conjugate_by_perm(a, PermSpec(tuple(
        random.Random(48).sample(range(48), 48))))
    for pair, falls_back in (((a, copy), False), ((a, b), True)):
        with mock.patch.object(iso, "_canonical",
                               wraps=iso._canonical) as canonical:
            are_isomorphic(*pair)
        assert (canonical.call_count > 0) == falls_back
    gc.collect()
    gc.disable()
    try:
        assert are_isomorphic(a, copy) is not None
        assert are_isomorphic(a, b) is None
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_lockstep_search_runs_without_deep_recursion():
    # twins split off one per search node, so the search path is about as
    # deep as the graph is large; a call stack of 120 frames must do at 150
    script = textwrap.dedent("""
        import random, sys
        sys.setrecursionlimit(120)
        from dsrg import (PermSpec, are_isomorphic, circulant_tournament,
                          conjugate_by_perm, tall_blocks)
        a = tall_blocks(circulant_tournament(3, {1}), 25).adj
        b = conjugate_by_perm(a, PermSpec(tuple(
            random.Random(1).sample(range(150), 150))))
        w = are_isomorphic(a, b, bound=150)
        print(a.n, w is not None and conjugate_by_perm(a, w) == b)
        """)
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "150 True\n"


def _golden_inputs():
    """The twin-free outputs at n <= 48, two seeded relabelled copies of
    each as (output, copy) pairs, and every pair of outputs with equal
    parameters."""
    sources = [r for r in all_construction_results(48) if _twin_free(r.adj)]
    rng = random.Random(48)
    copies = []
    for r in sources:
        for _ in range(2):
            images = list(range(r.adj.n))
            rng.shuffle(images)
            copies.append((r.adj,
                           conjugate_by_perm(r.adj, PermSpec(tuple(images)))))
    pairs = [(r.adj, s.adj) for i, r in enumerate(sources)
             for s in sources[i + 1:] if r.params == s.params]
    return sources, copies, pairs


def test_witness_and_canonical_golden():
    # pins every witness image (or None) and canonical matrix byte for byte:
    # each copy's witness and canonical matrix, then each pair's witness
    sources, copies, pairs = _golden_inputs()
    digest = hashlib.sha256()

    def feed(witness):
        digest.update(repr(None if witness is None
                           else witness.images).encode())
    for a, copy in copies:
        feed(are_isomorphic(a, copy))
        digest.update(repr(canonical_form(copy).canonical.rows).encode())
    for a, b in pairs:
        feed(are_isomorphic(a, b))
    assert (len(sources), len(pairs)) == (89, 131)
    assert digest.hexdigest() == \
        "80b4b98e97f7815a0b25db1d58b77f0660b6453f26ff82c5d475ac04d32753ba"


def test_refine_call_count_pinned():
    # equal outputs cannot show weaker orbit pruning or a node refined twice;
    # the number of refinements can.  Canonical forms of every output at
    # n <= 48, then the golden's are_isomorphic calls
    results = all_construction_results(48)
    _, copies, pairs = _golden_inputs()
    with mock.patch.object(iso, "_refine", wraps=iso._refine) as refine:
        for r in results:
            canonical_form(r.adj)
        canonical_calls = refine.call_count
        for a, b in copies + pairs:
            are_isomorphic(a, b)
    assert (canonical_calls, refine.call_count - canonical_calls) == \
        (693, 3542)


def test_every_found_automorphism_prunes():
    # the perfect matching v -> v xor 1 has 2^48 * 48! automorphisms;
    # orbit pruning with every one that a leaf witnesses takes 2,400
    # refinements, and a cap of 64 stored ones would take 12,185
    matching = BinMatrix(96, tuple(1 << (v ^ 1) for v in range(96)))
    with mock.patch.object(iso, "_refine", wraps=iso._refine) as refine:
        cert = canonical_form(matching, bound=96)
    assert (refine.call_count, cert.cert_hash) == (2400, "3807ef4ad95036e5")


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


@st.composite
def shared_quotient_blow_ups(draw):
    """Blow-ups of one base digraph by several copy-count vectors, so one
    twin quotient under several class-size colorings, mixed with relabelled
    copies of some of them, in random order."""
    base, copies = draw(base_digraphs())
    vectors = [copies] + draw(st.lists(st.permutations(copies) | st.lists(
        st.integers(1, 4), min_size=len(base), max_size=len(base)),
        max_size=4))
    graphs = [blow_up(base, c) for c in vectors]
    for _ in range(draw(st.integers(0, 4))):
        g = draw(st.sampled_from(graphs))
        p = PermSpec(tuple(draw(st.permutations(range(g.n)))))
        graphs.append(conjugate_by_perm(g, p))
    return draw(st.permutations(graphs))


@settings(max_examples=150, deadline=None)
@given(shared_quotient_blow_ups())
@example([blow_up([[0, 1], [0, 0]], c) for c in ([1, 2], [2, 1], [1, 3])])
def test_classify_certificates_equal_canonical_form_on_shared_quotients(
        graphs):
    # classify searches each (quotient rows, class-size coloring) once per
    # call; every member's certificate must still be its own canonical form
    for cert, members in classify(graphs):
        assert all(canonical_form(graphs[i]) == cert for i in members)


def test_classify_searches_each_quotient_once_per_call():
    # the 127 outputs at n <= 48 have 86 distinct (quotient rows, coloring)
    # pairs; a second call searches all 86 again, so no search outlives the
    # call that made it
    mats = [r.adj for r in all_construction_results(48)]
    runs = []
    for _ in range(2):
        with mock.patch.object(iso._CanonicalSearch, "run", autospec=True,
                               side_effect=iso._CanonicalSearch.run) as run, \
                mock.patch.object(iso, "_refine", wraps=iso._refine) as refine:
            classes = classify(mats, 48)
        runs.append((len(mats), run.call_count, refine.call_count, classes))
    assert runs[0][:3] == runs[1][:3] == (127, 86, 463)
    assert runs[0][3] == runs[1][3] and len(runs[0][3]) == 74


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
    cert = canonical_form(a)
    assert cert.canonical == canonical_form(conjugate_by_perm(a, p)).canonical
    assert canonical_form(cert.canonical).canonical == cert.canonical


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


def refine_joint(graphs, colorings, first=None):
    """iso._refine on one graph, or on two jointly: the first with an empty
    trace, then the second against the first one's trace."""
    trace = [] if len(graphs) > 1 else None
    refined = [iso._refine(graph, colors, first, trace)
               for graph, colors in zip(graphs, colorings)]
    return None if refined[-1] is None else refined


def full_signature_refinement(graphs, colorings):
    """Joint refinement that recomputes every vertex's counts against
    every cell in every round; the oracle for iso._refine.  Color ids
    need not be consecutive."""
    n = len(colorings[0])
    base = n + 1
    colorings = [list(c) for c in colorings]
    ncolors = len(set().union(*map(set, colorings)))
    while True:
        size = max(max(c) for c in colorings) + 1
        sigs_all = []
        for (rows, _), colors in zip(graphs, colorings):
            cols = BinMatrix(n, rows).transpose().rows
            masks = [0] * size
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
    """Dense or sparse random digraphs, loops allowed, circulants with a
    few arcs flipped, whose refinement takes many rounds, or digraphs with
    every out-degree equal and the in-degrees as they fall (a union of maps
    v -> f(v) with distinct images at each v) and their converses, on
    which the root refinement's shortcut for regular digraphs declines."""
    kind = draw(st.sampled_from(["dense", "sparse", "circulant",
                                 "out-regular", "in-regular"]))
    if kind == "dense":
        return BinMatrix(n, tuple(draw(st.lists(
            st.integers(0, (1 << n) - 1), min_size=n, max_size=n))))
    if kind in ("out-regular", "in-regular"):
        m = draw(st.integers(1, n))
        a = BinMatrix(n, tuple(sum(1 << u for u in draw(
            st.permutations(range(n)))[:m]) for _ in range(n)))
        return a if kind == "out-regular" else a.transpose()
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


# orders 1 and 2: a loop alone, with an unused id below its color (a
# round runs, cutting one column); a loop against none; J - I, regular,
# against one arc; one arc against its converse
_LOOP, _NONE, _J_MINUS_I, _ARC, _CONVERSE = (
    iso._graph_bits(BinMatrix(len(rows), rows))
    for rows in ((1,), (0,), (2, 1), (2, 0), (0, 1)))


@settings(max_examples=400, deadline=None)
@given(refinement_inputs())
@example(([_LOOP], [[1]]))
@example(([_LOOP, _NONE], [[0], [0]]))
@example(([_J_MINUS_I, _ARC], [[0, 0], [0, 0]]))
@example(([_ARC, _CONVERSE], [[0, 0], [0, 0]]))
def test_refine_joint_matches_full_signature_oracle(inputs):
    graphs, colorings = inputs
    expected = full_signature_refinement(graphs, colorings)
    got = refine_joint(graphs, colorings)
    if got == expected:
        return
    # refinement stops at a discrete coloring, which is stable; in joint
    # mode the oracle instead runs one more round and rejects a pair whose
    # color matching is no isomorphism, which the search rejects anyway
    n = len(colorings[0])
    assert len(graphs) == 2 and expected is None and got is not None
    assert all(sorted(c) == list(range(n)) for c in got)
    assert not _color_matching_is_isomorphism(graphs, got)


def test_refine_start_with_unused_ids_runs_to_stable():
    # ids 1, 4, 5 and 7 are unused: the first round splits cells and still
    # yields nine signatures, as many as max(start) + 1
    graph = iso._graph_bits(BinMatrix(11, (14, 13, 11, 7, 224, 448, 896,
                                            1792, 1552, 1072, 112)))
    start = [2, 2, 8, 3, 0, 3, 8, 8, 3, 6, 8]
    for refined in (iso._refine(graph, start),
                    full_signature_refinement([graph], [start])[0]):
        assert iso._refine(graph, refined) == refined
        assert full_signature_refinement([graph], [refined]) == [refined]


@st.composite
def circulant_unions(draw, n):
    """Two circulants of one valency side by side: regular, so refinement
    cannot tell the parts apart, and seldom vertex-transitive."""
    n1 = draw(st.integers(1, n - 1))
    k = draw(st.integers(0, min(n1, n - n1) - 1))
    rows = []
    for offset, size in ((0, n1), (n1, n - n1)):
        shifts = draw(st.sets(st.integers(1, size - 1), min_size=k,
                              max_size=k)) if k else set()
        rows.extend(sum(1 << offset + (i + d) % size for d in shifts)
                    for i in range(size))
    return BinMatrix(n, tuple(rows))


@st.composite
def individualized_children(draw):
    """Child nodes as the searches make them: a stable coloring (joint for a
    relabeled copy, perhaps with one arc flipped) with a vertex of one
    non-singleton cell individualized in each graph.  Returns the graphs,
    the child colorings and the cell, or None when the stable coloring is
    discrete or the flipped copy refines apart."""
    n = draw(st.integers(2, 14))
    a = draw(st.one_of(small_digraphs(n), circulant_unions(n)))
    start = draw(st.one_of(
        st.just([0] * n),
        st.lists(st.integers(0, n - 1), min_size=n, max_size=n)))
    graphs, parents = [iso._graph_bits(a)], [start]
    kind = draw(st.sampled_from(["single", "relabeled", "flipped"]))
    if kind != "single":
        p = draw(st.permutations(range(n)))
        rows = list(conjugate_by_perm(a, PermSpec(tuple(p))).rows)
        if kind == "flipped":
            i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            rows[i] ^= 1 << j
        start_b = [0] * n
        for v in range(n):
            start_b[p[v]] = start[v]
        graphs.append(iso._graph_bits(BinMatrix(n, tuple(rows))))
        parents.append(start_b)
    stable = full_signature_refinement(graphs, parents)
    if stable is None:
        return None
    cells = [c for c, m in enumerate(iso._cells(stable[0])) if len(m) > 1]
    if not cells:
        return None
    cell = draw(st.sampled_from(cells))
    children = [iso._individualize(colors, draw(st.sampled_from(
        iso._cells(colors)[cell]))) for colors in stable]
    return graphs, children, cell


# a 3-cycle beside a 5-cycle, with a vertex of each individualized: a
# child the joint refinement rejects
_CYCLES_3_5 = iso._graph_bits(BinMatrix(8, tuple(
    [1 << (i + 1) % 3 for i in range(3)]
    + [1 << 3 + (i + 1) % 5 for i in range(5)])))


@settings(max_examples=400, deadline=None)
@given(individualized_children())
@example(([_CYCLES_3_5, _CYCLES_3_5],
          [[0, 1, 1, 1, 1, 1, 1, 1], [1, 1, 1, 0, 1, 1, 1, 1]], 0))
def test_refine_joint_from_new_singleton_matches_oracle(inputs):
    if inputs is None:
        return
    graphs, colorings, cell = inputs
    got = refine_joint(graphs, colorings, [cell])
    assert got == refine_joint(graphs, colorings)
    expected = full_signature_refinement(graphs, colorings)
    if got != expected:
        # a discrete coloring returns at once; see the oracle test above
        n = len(colorings[0])
        assert len(graphs) == 2 and expected is None and got is not None
        assert all(sorted(c) == list(range(n)) for c in got)
        assert not _color_matching_is_isomorphism(graphs, got)


# -- two-byte fields: orders of 256 and more --------------------------------


@pytest.mark.parametrize("n", [1, 2, 255, 256, 300])
def test_graph_bits_fields_match_per_bit_definition(n):
    # field v of arcs[u], 2w bytes from bit 16wv, is A[v][u] * 256^w +
    # A[u][v]; w = 2 from n = 256 on.  Every even vertex has a loop
    rng = random.Random(n)
    rows = tuple(rng.getrandbits(n) | (1 << u) * (u % 2 == 0)
                 for u in range(n))
    got_rows, arcs = iso._graph_bits(BinMatrix(n, rows))
    w = 1 if n < 256 else 2
    assert got_rows == rows and len(arcs) == n
    for u, arc in enumerate(arcs):
        assert arc >> 16 * w * n == 0
        for v in range(n):
            assert arc >> 16 * w * v & (1 << 16 * w) - 1 == \
                ((rows[v] >> u & 1) << 8 * w) + (rows[u] >> v & 1)


def test_refine_two_byte_fields_matches_oracle():
    # circulants of orders 128 and 129 and valency 3 side by side: regular,
    # so the stable coloring of order 257 is one cell, and a vertex of each
    # part individualized refines over many rounds
    n = 257
    rows = [sum(1 << (i + d) % 128 for d in (1, 5, 17)) for i in range(128)]
    rows += [sum(1 << 128 + (i + d) % 129 for d in (2, 7, 40))
             for i in range(129)]
    a = BinMatrix(n, tuple(rows))
    p = random.Random(257).sample(range(n), n)
    b = conjugate_by_perm(a, PermSpec(tuple(p)))
    graphs = [iso._graph_bits(a), iso._graph_bits(b)]
    for v in (0, 200):
        children = [iso._individualize([0] * n, u) for u in (v, p[v])]
        expected = full_signature_refinement(graphs, children)
        assert len(set(expected[0])) > 2
        assert refine_joint(graphs, children, [0]) == expected
        assert refine_joint(graphs, children) == expected
        assert refine_joint(graphs[:1], children[:1], [0]) == expected[:1]
    # ids 0, 128 and 256: a color of two bytes inside the signatures
    start = [v * 7 % 3 * 128 for v in range(n)]
    starts = [start, [0] * n]
    for v in range(n):
        starts[1][p[v]] = start[v]
    assert refine_joint(graphs, starts) == \
        full_signature_refinement(graphs, starts)


def test_canonical_and_witness_relabeling_invariant_at_order_300():
    # a circulant, which the search must branch through, and a blow-up
    # whose twin classes have three members; both have two-byte fields
    rng = random.Random(300)
    circulant = BinMatrix(300, tuple(sum(1 << (i + d) % 300
                                         for d in (1, 4, 9, 150, 211))
                                     for i in range(300)))
    base = [[rng.randint(0, 1) for _ in range(100)] for _ in range(100)]
    for a in (circulant, blow_up(base, [3] * 100)):
        p = PermSpec(tuple(rng.sample(range(300), 300)))
        b = conjugate_by_perm(a, p)
        assert canonical_form(a, 300) == canonical_form(b, 300)
        w = are_isomorphic(a, b, 300)
        assert w is not None and conjugate_by_perm(a, w) == b


# -- node primitives of both searches ---------------------------------------


@st.composite
def colorings(draw):
    """Colorings of 1 to 14 vertices: arbitrary ids, empty cells allowed,
    or a few singletons followed by one cell of the rest, as the canonical
    search meets them on its way to a leaf."""
    n = draw(st.integers(1, 14))
    if draw(st.booleans()):
        return draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    order = draw(st.permutations(range(n)))
    fixed = draw(st.integers(0, n))
    return [min(order[v], fixed) for v in range(n)]


@settings(max_examples=300, deadline=None)
@given(colorings())
@example([0])
@example([1, 0, 1])
@example([2, 0, 1])
def test_cell_primitives_match_per_vertex_definitions(colors):
    n = len(colors)
    cells = iso._cells(colors)
    assert cells == [[v for v in range(n) if colors[v] == c]
                     for c in range(max(colors) + 1)]
    # the smallest non-singleton cell, the lowest id among equal sizes
    ranked = sorted((colors.count(c), c) for c in set(colors)
                    if colors.count(c) > 1)
    assert iso._target_cell(cells) == (ranked[0][1] if ranked else None)
    # a vertex is fixed when it and every lower color are alone in a cell
    fixed = [v for v in range(n) if all(colors.count(c) == 1
                                        for c in range(colors[v] + 1))]
    assert iso._fixed_prefix(cells) == sorted(fixed, key=colors.__getitem__)


def _individualize_by_comprehension(colors, v):
    """The comprehension iso._individualize replaced, kept as its oracle."""
    cv = colors[v]
    return [c + 1 if (c > cv or (c == cv and w != v)) else c
            for w, c in enumerate(colors)]


@settings(max_examples=300, deadline=None)
@given(colorings().flatmap(
    lambda colors: st.tuples(st.just(colors),
                             st.integers(0, len(colors) - 1))))
@example(([0], 0))
@example(([3, 0, 3, 7, 0], 2))
@example(([3, 0, 3, 7, 0], 3))
def test_individualize_matches_comprehension(inputs):
    # ids 1, 2, 4, 5 and 6 of the examples are unused
    colors, v = inputs
    before = list(colors)
    assert iso._individualize(colors, v) == \
        _individualize_by_comprehension(colors, v)
    assert colors == before


# -- property tests on twin-free graphs --------------------------------------


def _twin_free(a):
    return len(set(zip(a.rows, a.transpose().rows))) == a.n


@st.composite
def random_digraphs(draw, max_order=12):
    n = draw(st.integers(1, max_order))
    rows = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=n,
                         max_size=n))
    return BinMatrix(n, tuple(r & ~(1 << i) for i, r in enumerate(rows)))


@st.composite
def circulant_digraphs(draw, max_order=16):
    """Vertex-transitive digraphs, which make the search branch."""
    n = draw(st.integers(2, max_order))
    conn = draw(st.sets(st.integers(1, n - 1), min_size=1))
    return BinMatrix.from_rows([[int((j - i) % n in conn) for j in range(n)]
                                for i in range(n)])


CONSTRUCTED_TWIN_FREE = [
    *(build(circulant_tournament(3, {1})).adj
      for build in (cons.team_dsrg, cons.duval_b, cons.duval_c)),
    cons.cycle_sum_dsrg(3).adj, cons.m_construction(paley_tournament(7)).adj]

twin_free = st.one_of(random_digraphs(), circulant_digraphs(),
                      st.sampled_from(CONSTRUCTED_TWIN_FREE)).filter(_twin_free)


@settings(max_examples=80, deadline=None)
@given(twin_free, st.data())
def test_canonical_form_relabeling_invariant_twin_free(a, data):
    p = PermSpec(tuple(data.draw(st.permutations(range(a.n)))))
    cert = canonical_form(a)
    assert cert.canonical == canonical_form(conjugate_by_perm(a, p)).canonical
    assert canonical_form(cert.canonical).canonical == cert.canonical


@settings(max_examples=80, deadline=None)
@given(twin_free, st.data())
def test_are_isomorphic_witness_sound_twin_free(a, data):
    # a relabelled copy, perhaps with one arc flipped, so that some pairs
    # are isomorphic and some are not
    p = PermSpec(tuple(data.draw(st.permutations(range(a.n)))))
    b = conjugate_by_perm(a, p)
    if a.n > 1 and data.draw(st.booleans()):
        i, j = data.draw(st.permutations(range(a.n)))[:2]
        rows = list(b.rows)
        rows[i] ^= 1 << j
        b = BinMatrix(b.n, tuple(rows))
    same = canonical_form(a).canonical == canonical_form(b).canonical
    witness = are_isomorphic(a, b)
    with mock.patch.object(iso, "_MAPPING_SEARCH_BUDGET", 0):
        canonical_witness = are_isomorphic(a, b)
    for w in (witness, canonical_witness):
        assert (w is not None) == same
        if w is not None:
            assert conjugate_by_perm(a, w) == b


@settings(max_examples=100, deadline=None)
@given(st.one_of(random_digraphs(70),
                 circulant_digraphs(70)).filter(_twin_free),
       st.integers(0, 2 ** 32))
@example(BinMatrix(1, (0,)), 0)
@example(BinMatrix(40, tuple(((1 << 40) - 1) ^ 1 << v for v in range(40))), 1)
@example(BinMatrix(70, tuple(1 << (v ^ 1) for v in range(70))), 2)
def test_twin_free_canonical_rows_read_off_best_leaf(a, seed):
    # the best leaf's string holds the canonical matrix column by column;
    # its rows must be those of the graph relabeled by the returned order
    assert _twin_free(a)
    n = a.n
    canon, order = iso._canonical(iso._graph_bits(a))
    assert sorted(order) == list(range(n))
    assert canon == BinMatrix(n, _relabeled_rows(a.rows, order))
    p = PermSpec(tuple(random.Random(seed).sample(range(n), n)))
    assert canonical_form(conjugate_by_perm(a, p), bound=70) == \
        canonical_form(a, bound=70)


# -- shells of the canonical search ------------------------------------------


def _shells_per_bit(graph, fixed):
    """Shell m by its definition: row fixed[m] at fixed[:m+1], then column
    fixed[m] at fixed[:m], read bit by bit."""
    rows = graph[0]
    return ["".join(str(rows[u] >> v & 1) for v in fixed[:m + 1])
            + "".join(str(rows[v] >> u & 1) for v in fixed[:m])
            for m, u in enumerate(fixed)]


def _shells_as_ints(graph, fixed):
    """The shells as binary numbers gathered from per-vertex row and column
    strings, the form the search compared before it kept strings."""
    rows = graph[0]
    n = len(rows)
    row_chars, col_chars = ([f"{b:0{n}b}"[::-1] for b in bits]
                            for bits in (rows,
                                         BinMatrix(n, rows).transpose().rows))
    return [int("".join(row_chars[u][v] for v in fixed[:m + 1])
                + "".join(col_chars[u][v] for v in fixed[:m]), 2)
            for m, u in enumerate(fixed)]


@st.composite
def shell_inputs(draw):
    """A digraph on 1 to 70 vertices, loops allowed, whose rows are drawn
    as all zeros, all ones or at random, and two prefixes of fixed
    vertices of length 0, 1, 2 or n.  The second prefix often shares a
    start with the first, as sibling nodes of the search do."""
    n = draw(st.integers(1, 70))
    full = (1 << n) - 1
    rows = draw(st.lists(st.one_of(st.just(0), st.just(full),
                                   st.integers(0, full)),
                         min_size=n, max_size=n))
    sizes = sorted({0, min(1, n), min(2, n), n})
    first = draw(st.permutations(range(n)))
    shared = draw(st.integers(0, n))
    second = first[:shared] + draw(st.permutations(first[shared:]))
    return (iso._graph_bits(BinMatrix(n, tuple(rows))),
            [order[:draw(st.sampled_from(sizes))] for order in (first, second)])


@settings(max_examples=300, deadline=None)
@given(shell_inputs())
@example((iso._graph_bits(BinMatrix(1, (1,))), [[0], []]))
@example((iso._graph_bits(BinMatrix.ones(3)), [[2, 0, 1], [2, 1, 0]]))
def test_shells_match_per_bit_definition(inputs):
    graph, prefixes = inputs
    search = iso._CanonicalSearch(graph, [0] * len(graph[0]))
    shells = [search._shells(list(fixed)) for fixed in prefixes]
    ints = [_shells_as_ints(graph, fixed) for fixed in prefixes]
    for fixed, got, old in zip(prefixes, shells, ints):
        assert got == _shells_per_bit(graph, fixed)
        assert [int(s, 2) for s in got] == old
    # the search compares whole lists and a list against a best prefix
    (s1, s2), (i1, i2) = shells, ints
    assert (s1 < s2, s1 == s2, s1 > s2) == (i1 < i2, i1 == i2, i1 > i2)
    assert (s1 > s2[:len(s1)]) == (i1 > i2[:len(i1)])
    assert (s2 > s1[:len(s2)]) == (i2 > i1[:len(i2)])
