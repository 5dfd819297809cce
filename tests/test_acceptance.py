"""Acceptance suite: one test per criterion, each printing a pass line
with its elapsed time and asserting the stated runtime budget."""

import itertools
import random
import time
from contextlib import contextmanager

import pytest

from dsrg import (BinMatrix, PermSpec, abelian_groups_up_to, are_isomorphic,
                  cayley_criteria, cayley_subset_scan, CayleySpec,
                  circulant_tournament, complement_graph, conjugate_by_perm,
                  duval_feasible, enumerate_feasible,
                  enumerate_regular_tournaments, hobart_shaw,
                  is_doubly_regular_tournament, paley_tournament,
                  symmetric_group, Tournament, verify_dsrg)
from dsrg import constructions as cons
from dsrg.cli import all_construction_results
from known_graphs import (FIXTURE_8, FIXTURE_10, FIXTURE_14, TABLE_2_LEFT,
                            TABLE_2_RIGHT, TABLE_3)
from test_tournaments import naive_labeled_regular_tournaments, orbit_of


@contextmanager
def criterion(number, description, limit_seconds):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"criterion {number:2d} FAIL {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {number:2d} PASS {description} "
          f"({elapsed:.2f}s < {limit_seconds}s)")
    assert elapsed < limit_seconds


def test_criterion_1_fixture_verification():
    with criterion(1, "displayed matrices verify exactly", 1.0):
        assert verify_dsrg(FIXTURE_8).as_tuple() == (8, 3, 2, 1, 1)
        assert verify_dsrg(FIXTURE_10).as_tuple() == (10, 4, 2, 1, 2)
        assert verify_dsrg(FIXTURE_14).as_tuple() == (14, 6, 3, 2, 3)


def test_criterion_2_table_2_reproduction():
    with criterion(2, "paired-rows family reproduces all 16 rows", 5.0):
        left, right = [], []
        for order in range(3, 18, 2):
            k = (order - 1) // 2
            t = circulant_tournament(order, set(range(1, k + 1)))
            b = cons.duval_b(t)
            c = cons.duval_c(t)
            m = cons.m_construction(t)
            assert b.params == c.params
            left.append(b.params.as_tuple())
            right.append(m.params.as_tuple())
        assert left == TABLE_2_LEFT
        assert right == TABLE_2_RIGHT


def test_criterion_3_table_3_reproduction():
    with criterion(3, "team and cycle-sum families reproduce the rows", 10.0):
        assert [cons.cycle_sum_dsrg(s).params.as_tuple()
                for s in range(1, 8)] == TABLE_3
        bordered = []
        for h in (1, 3, 5, 7):
            k = (h - 1) // 2
            t = Tournament(BinMatrix.zeros(1)) if h == 1 else \
                circulant_tournament(h, set(range(1, k + 1)))
            bordered.append(cons.bordered_team_dsrg(t).params.as_tuple())
        assert bordered == [TABLE_3[0], TABLE_3[2], TABLE_3[4], TABLE_3[6]]
        assert cons.team_dsrg(
            circulant_tournament(3, {1})).params.as_tuple() == TABLE_3[2]
        assert cons.team_dsrg(paley_tournament(7)).params.as_tuple() == \
            TABLE_3[6]


def test_criterion_4_isomorphism_remarks():
    with criterion(4, "order-8 graph unique; order-16 split", 30.0):
        trivial = Tournament(BinMatrix.zeros(1))
        eight = [cons.bordered_team_dsrg(trivial).adj,
                 cons.cycle_sum_dsrg(1).adj, FIXTURE_8]
        for a, b in itertools.combinations(eight, 2):
            assert are_isomorphic(a, b) is not None
        pi3 = circulant_tournament(3, {1})
        team16 = cons.team_dsrg(pi3).adj
        bordered16 = cons.bordered_team_dsrg(pi3).adj
        cyclesum16 = cons.cycle_sum_dsrg(3).adj
        assert are_isomorphic(team16, bordered16) is not None
        assert are_isomorphic(team16, cyclesum16) is None
        assert are_isomorphic(bordered16, cyclesum16) is None


def test_criterion_5_complement_duality():
    with criterion(5, "m construction is the paired-rows complement", 30.0):
        classes = [t for n in (3, 5, 7)
                   for t in enumerate_regular_tournaments(n)]
        assert len(classes) == 5
        for t in classes:
            lhs = cons.m_construction(t).adj
            rhs = complement_graph(cons.duval_b(t).adj)
            witness = are_isomorphic(lhs, rhs)
            assert witness is not None
            assert conjugate_by_perm(lhs, witness) == rhs


def test_criterion_6_qr_construction():
    with criterion(6, "quadratic-residue search and reproduction", 60.0):
        triples = cons.qr_search(5)
        assert triples
        s1, s2, s_set = triples[0]
        built = cons.qr_dsrg(5, s1, s2, s_set)
        assert are_isomorphic(built.adj, FIXTURE_10) is not None
        t1, t2, t_set = cons.qr_search(13)[0]
        assert cons.qr_dsrg(13, t1, t2, t_set).params.as_tuple() == \
            (26, 12, 6, 5, 6)


def test_criterion_7_kronecker_iff():
    with criterion(7, "all-ones expansion accepted iff t = mu", 1.0):
        base = cons.duval_b(circulant_tournament(3, {1}))
        assert base.params.t == base.params.mu
        expanded = cons.kronecker_expand(base.adj, 2, "left")
        assert expanded.params.as_tuple() == (12, 4, 2, 0, 2)
        with pytest.raises(ValueError, match="iff t = mu"):
            cons.kronecker_expand(FIXTURE_8, 2)


def test_criterion_8_cayley_criteria():
    with criterion(8, "Cayley criteria, dihedral family, abelian scan", 120.0):
        s3 = symmetric_group(3)
        conn = frozenset({s3.index_of("(12)"), s3.index_of("(123)")})
        assert cayley_criteria(CayleySpec(s3, conn)).as_tuple() == \
            (6, 2, 1, 0, 1)
        # dihedral families for lam = 1..5, both parities, where genuine
        # (even lam = 1 is not genuine; odd t is lam+1, forced by the
        # balance equation -- see the notes in groups.hobart_shaw)
        for lam in range(1, 6):
            if lam >= 2:
                assert hobart_shaw(lam, "even").params.as_tuple() == \
                    (4 * lam, 2 * lam - 1, lam, lam - 1, lam - 1)
            assert hobart_shaw(lam, "odd").params.as_tuple() == \
                (4 * lam + 2, 2 * lam + 1, lam + 1, lam, lam + 1)
        with pytest.raises(ValueError):
            hobart_shaw(1, "even")
        for name, group in abelian_groups_up_to(12):
            assert cayley_subset_scan(group) == [], \
                f"genuine DSRG on abelian group {name}"


def test_criterion_9_well_definedness():
    with criterion(9, "100 conjugation trials produce isomorphic outputs",
                   120.0):
        rng = random.Random(20260809)
        tournaments = {n: enumerate_regular_tournaments(n) for n in (3, 5, 7)}
        drts = [t for reps in tournaments.values() for t in reps
                if is_doubly_regular_tournament(t) is not None]
        builders = [
            ("duval_b", cons.duval_b, None),
            ("duval_c", cons.duval_c, None),
            ("m", cons.m_construction, None),
            ("wide2", lambda t: cons.wide_blocks(t, 2), None),
            ("tall2", lambda t: cons.tall_blocks(t, 2), None),
            ("bordered_team", cons.bordered_team_dsrg, None),
            ("team", cons.team_dsrg, drts),
        ]
        for trial in range(100):
            name, builder, pool = builders[trial % len(builders)]
            if pool is None:
                order = rng.choice((3, 5, 7))
                t = rng.choice(tournaments[order])
            else:
                t = rng.choice(pool)
            p = PermSpec(tuple(rng.sample(range(t.order), t.order)))
            relabeled = Tournament(conjugate_by_perm(t.adj, p))
            a = builder(t).adj
            b = builder(relabeled).adj
            assert are_isomorphic(a, b) is not None, (name, t.order, trial)


def test_criterion_10_feasibility_enumerator():
    with criterion(10, "construction outputs feasible; tables enumerated",
                   5.0):
        results = all_construction_results(34)
        assert len(results) >= 50
        for result in results:
            report = duval_feasible(result.params)
            assert report.feasible, result.params
        found = {p.as_tuple() for p in enumerate_feasible(34)}
        for row in TABLE_2_LEFT + TABLE_2_RIGHT + TABLE_3:
            if row[0] <= 34:
                assert row in found, row


def test_criterion_11_enumeration_oracle():
    with criterion(11, "tournament class counts 1, 1, 3 with naive oracle",
                   300.0):
        for n, expected in ((3, 1), (5, 1), (7, 3)):
            reps = enumerate_regular_tournaments(n)
            assert len(reps) == expected
            labeled = set(naive_labeled_regular_tournaments(n))
            orbits = [orbit_of(t.adj.rows, n) for t in reps]
            for a, b in itertools.combinations(orbits, 2):
                assert not (a & b)
            assert set().union(*orbits) == labeled


def test_criterion_11_stretch_order_11():
    reps = enumerate_regular_tournaments(11)
    print(f"order 11 classes: {len(reps)}")
    assert len(reps) == 1223
