import dataclasses
import functools
import math
import random
import time
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dsrg import (DOUBLY_REGULAR_TOURNAMENT, GENUINE, UNDIRECTED, BinMatrix,
                  DsrgParams, NotDsrg, PermSpec, complement_graph,
                  complement_params, conjugate_by_perm, cycle_power,
                  duval_feasible, enumerate_feasible, kronecker,
                  mat_mul_count, try_verify_dsrg, verify_dsrg)
from dsrg import params
from dsrg.params import iter_feasible
from known_graphs import FIXTURE_8, FIXTURE_10, TABLE_2_LEFT, TABLE_2_RIGHT


def test_fixture_8_verifies():
    p = verify_dsrg(FIXTURE_8)
    assert p.as_tuple() == (8, 3, 2, 1, 1)
    assert p.classification == GENUINE


def test_fixture_10_verifies():
    assert verify_dsrg(FIXTURE_10).as_tuple() == (10, 4, 2, 1, 2)


def test_three_cycle_is_doubly_regular_tournament():
    p = verify_dsrg(cycle_power(3, 1))
    assert p.as_tuple() == (3, 1, 0, 0, 1)
    assert p.classification == DOUBLY_REGULAR_TOURNAMENT


def test_verify_rejects_nonzero_diagonal():
    with pytest.raises(ValueError, match="diagonal"):
        verify_dsrg(BinMatrix.identity(3))


def test_verify_failure_carries_witness():
    # a 4-cycle is 1-regular but its path-2 counts are not constant
    with pytest.raises(NotDsrg) as info:
        verify_dsrg(cycle_power(4, 1))
    assert info.value.constraint == "mu-constancy"
    assert isinstance(info.value.position, tuple)


def test_verify_row_sum_witness():
    m = BinMatrix.from_rows([[0, 1, 1], [0, 0, 1], [1, 1, 0]])
    with pytest.raises(NotDsrg) as info:
        verify_dsrg(m)
    assert info.value.constraint in ("row-sum", "column-sum")


def test_complete_graph_convention():
    n = 5
    complete = complement_graph(BinMatrix.zeros(n))
    p = verify_dsrg(complete)
    assert p.mu == 0
    assert p.classification == UNDIRECTED


def test_complement_params_examples():
    assert complement_params(DsrgParams(6, 2, 1, 0, 1)).as_tuple() == \
        (6, 3, 2, 1, 2)
    assert complement_params(DsrgParams(10, 4, 2, 1, 2)).as_tuple() == \
        (10, 5, 3, 2, 3)


def test_complement_params_involution_on_table_rows():
    for row in TABLE_2_LEFT + TABLE_2_RIGHT:
        p = DsrgParams(*row)
        assert complement_params(complement_params(p)) == p
    assert [complement_params(DsrgParams(*row)).as_tuple()
            for row in TABLE_2_LEFT] == TABLE_2_RIGHT


def test_complement_graph_of_fixture():
    assert verify_dsrg(complement_graph(FIXTURE_8)).as_tuple() == (8, 4, 3, 1, 3)


def test_complement_graph_involution():
    rng = random.Random(9)
    a = BinMatrix.from_rows([
        [0 if i == j else rng.randint(0, 1) for j in range(9)]
        for i in range(9)])
    assert complement_graph(complement_graph(a)) == a


@pytest.mark.parametrize("call, fragment", [
    (lambda: DsrgParams(5, 2, 3, 0, 0), "need 0 <= t <= k <= n-1"),
    (lambda: DsrgParams(5, 2, 1, -1, 0), "lambda and mu must be non-negative"),
    (lambda: complement_graph(BinMatrix.identity(2)),
     "complement requires a zero diagonal"),
], ids=["t-above-k", "negative-lambda", "complement-loop"])
def test_params_refusals(call, fragment):
    with pytest.raises(ValueError) as info:
        call()
    assert info.type is ValueError and fragment in str(info.value)


def test_complement_of_three_cycle():
    pi = cycle_power(3, 1)
    comp = complement_graph(pi)
    assert comp == cycle_power(3, 2)
    assert verify_dsrg(comp).as_tuple() == (3, 1, 0, 0, 1)


def test_params_and_graph_complement_commute():
    for mat in (FIXTURE_8, FIXTURE_10):
        assert verify_dsrg(complement_graph(mat)) == \
            complement_params(verify_dsrg(mat))


def test_duval_feasible_examples():
    r = duval_feasible(DsrgParams(6, 2, 1, 0, 1))
    assert r.feasible and r.d == 1 and r.quotient == -1
    r = duval_feasible(DsrgParams(10, 4, 2, 1, 2))
    assert r.feasible and r.d == 1
    r = duval_feasible(DsrgParams(6, 2, 1, 1, 1))
    assert not r.feasible and not r.balance_ok


def test_duval_feasible_not_applicable():
    r = duval_feasible(DsrgParams(3, 1, 0, 0, 1))
    assert not r.applicable and not r.feasible


def test_feasibility_root_identity():
    for row in TABLE_2_LEFT + TABLE_2_RIGHT:
        r = duval_feasible(DsrgParams(*row))
        assert r.feasible
        n, k, t, lam, mu = row
        assert r.d * r.d == (mu - lam) ** 2 + 4 * (t - mu)


def test_enumerate_feasible_small():
    found = {p.as_tuple() for p in enumerate_feasible(6)}
    assert (6, 2, 1, 0, 1) in found
    assert (6, 3, 2, 1, 2) in found
    found8 = {p.as_tuple() for p in enumerate_feasible(8)}
    assert (8, 3, 2, 1, 1) in found8
    assert enumerate_feasible(2) == []


def test_iter_feasible_yields_before_the_scan_ends():
    # the scan to 1000 takes a few seconds; its first tuple comes at once
    start = time.perf_counter()
    first = next(iter_feasible(1000))
    assert time.perf_counter() - start < 1.0
    assert first == enumerate_feasible(60)[0]


def test_enumerate_feasible_sorted_and_genuine():
    out = enumerate_feasible(300)
    assert out == sorted(out, key=lambda p: p.as_tuple())
    assert all(p.is_genuine for p in out)
    assert all(duval_feasible(p).feasible for p in out)


def test_enumerate_feasible_closed_under_complement():
    found = {p.as_tuple() for p in enumerate_feasible(30)}
    for row in found:
        try:
            comp = complement_params(DsrgParams(*row))
        except ValueError:
            # the listed conditions alone admit tuples whose complement is
            # not a parameter tuple, e.g. (24, 17, 14, 13, 9)
            continue
        if comp.is_genuine:
            assert comp.as_tuple() in found


def _balance_candidates(max_n):
    """Every (n, k, t, lam, mu) with n <= max_n, 0 <= lam < t < k and
    1 <= mu <= t that satisfies the balance equation, by a quartic walk."""
    for n in range(1, max_n + 1):
        for k in range(2, n):
            denom = n - 1 - k
            if denom <= 0:
                # k = n-1 forces t = k(k - lam) >= k, never genuine.
                continue
            for t in range(1, k):
                for lam in range(0, t):
                    numer = k * (k - lam) - t
                    if numer <= 0 or numer % denom:
                        continue
                    mu = numer // denom
                    if not 1 <= mu <= t:
                        continue
                    yield DsrgParams(n, k, t, lam, mu)


def _scan_oracle(max_n):
    """The quartic scan enumerate_feasible replaced, kept as its oracle."""
    return [p for p in _balance_candidates(max_n) if duval_feasible(p).feasible]


@pytest.mark.parametrize("max_n", [*range(13), 60, 120])
def test_enumerate_feasible_matches_scan_oracle(max_n):
    assert enumerate_feasible(max_n) == _scan_oracle(max_n)


@functools.cache
def _scan_oracle_60():
    return _scan_oracle(60)


def _eigenvalue_span(p):
    """(rho, sigma, full) of a feasible tuple: Duval's eigenvalues, and
    whether every rho in [0, d - 1] of its pair x = k - rho, y = k - sigma
    (d = y - x) meets t < k, or the scan's t < k test cuts some out."""
    n, k, t, lam, mu = p.as_tuple()
    d = math.isqrt((mu - lam) ** 2 + 4 * (t - mu))
    rho = (lam - mu + d) // 2
    x = k - rho
    return rho, rho - d, (d - 1) ** 2 // 4 < x - mu


def test_scan_oracle_60_reaches_every_eigenvalue_span():
    # the spans the drawn comparison below exercises: rho = 0 (t = mu),
    # sigma = -1 (t = lam + 1), a whole span and two end spans with a gap
    spans = [_eigenvalue_span(p) for p in _scan_oracle_60()]
    assert any(rho == 0 for rho, _, _ in spans)
    assert any(sigma == -1 for _, sigma, _ in spans)
    assert {full for _, _, full in spans} == {True, False}


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 60))
def test_iter_feasible_matches_scan_oracle_drawn(max_n):
    assert list(iter_feasible(max_n)) == \
        [p for p in _scan_oracle_60() if p.n <= max_n]


def test_scan_judges_each_congruent_candidate_once():
    # the candidates are the (n, k, t, lambda) that balance and the order
    # conditions allow with a square (mu - lambda)^2 + 4(t - mu) whose root
    # divides Duval's numerator with a quotient of the parity of n - 1; the
    # eigenvalue scan reaches each once and nothing else
    with mock.patch.object(params, "_mu_band_ok",
                           wraps=params._mu_band_ok) as judged:
        enumerate_feasible(60)
    reports = [duval_feasible(p) for p in _balance_candidates(60)]
    congruent = sum(r.square_ok and r.divisibility_ok and r.parity_ok
                    for r in reports)
    assert judged.call_count == congruent == 738


def test_scan_congruence_replaces_divisibility_parity_and_magnitude():
    # for every (n, x, y, rho) of the scan's range up to 60, with
    # k = x + rho and mu - lambda = d - 2 rho: divisibility and parity of
    # Duval's quotient hold exactly when x + rho n = 0 (mod d), and its
    # magnitude bound always holds
    for n in range(1, 61):
        for x in range(2, n):
            for y in range(x + 1, n):
                if x * y % n:
                    continue
                d = y - x
                for rho in range(d):
                    quotient, parity_ok, magnitude_ok = params._quotient(
                        n, x + rho, d - 2 * rho, d)
                    assert (quotient is not None and parity_ok) == \
                        ((x + rho * n) % d == 0)
                    assert x + rho * n <= d * (n - 1)
                    assert magnitude_ok or quotient is None


def test_scan_builds_params_only_for_yielded_tuples():
    # every condition is decided on integers: one DsrgParams per yielded
    # tuple and no FeasibilityReport
    with mock.patch.object(params, "DsrgParams", wraps=DsrgParams) as made, \
            mock.patch.object(params, "FeasibilityReport",
                              wraps=params.FeasibilityReport) as reports:
        out = enumerate_feasible(60)
    assert len(out) == made.call_count == 680
    assert reports.call_count == 0


@functools.cache
def _feasible_40():
    return frozenset(p.as_tuple() for p in enumerate_feasible(40))


@st.composite
def parameter_tuples(draw):
    """Tuples with n <= 40.  Most of them satisfy the balance equation
    k(k - lambda) = t + (n-1-k) mu, with t solved from a drawn mu, so that
    feasible tuples are drawn often."""
    n = draw(st.integers(1, 40))
    k = draw(st.integers(0, n - 1))
    lam = draw(st.integers(0, k))
    d = n - 1 - k
    big_k = k * (k - lam)
    if d > 0:
        # mu with 0 <= t = K - d mu <= k, if there is one
        lo, hi = max(0, -(-(big_k - k) // d)), big_k // d
        if lo <= hi and draw(st.integers(0, 3)):
            mu = draw(st.integers(lo, hi))
            return DsrgParams(n, k, big_k - d * mu, lam, mu)
    t = draw(st.integers(0, k))
    return DsrgParams(n, k, t, lam, draw(st.integers(0, n)))


@settings(max_examples=1000, deadline=None)
@given(parameter_tuples())
def test_enumerate_feasible_iff_duval_feasible(p):
    expected = p.is_genuine and duval_feasible(p).feasible
    assert (p.as_tuple() in _feasible_40()) == expected


@st.composite
def zero_root_tuples(draw):
    """Tuples with (mu-lambda)^2 + 4(t-mu) = 0: mu = t + s^2 and
    lambda = mu -+ 2s."""
    n = draw(st.integers(1, 40))
    k = draw(st.integers(0, n - 1))
    t = draw(st.integers(0, k))
    s = draw(st.integers(0, 3))
    mu = t + s * s
    lam = mu + 2 * s * draw(st.sampled_from([-1, 1]))
    assume(lam >= 0)
    return DsrgParams(n, k, t, lam, mu)


def _report_oracle(p):
    """The fields of duval_feasible(p) as FeasibilityReport defines them."""
    n, k, t, lam, mu = p.as_tuple()
    disc = (mu - lam) ** 2 + 4 * (t - mu)
    d = next((r for r in range(disc + 1) if r * r == disc), None)
    numerator = 2 * k - (mu - lam) * (n - 1)
    quotient = None
    if d == 0:
        quotient = 0 if numerator == 0 else None
    elif d is not None and Fraction(numerator, d).denominator == 1:
        quotient = numerator // d
    has_q = quotient is not None
    return {"params": p, "applicable": 0 < t < k, "d": d,
            "quotient": quotient,
            "balance_ok": k * (k + mu - lam) == t + (n - 1) * mu,
            "square_ok": d is not None, "divisibility_ok": has_q,
            "parity_ok": has_q and (quotient - (n - 1)) % 2 == 0,
            "magnitude_ok": has_q and -(n - 1) <= quotient <= n - 1,
            "order_ok": 0 <= lam < t < k and 0 < mu <= t < k,
            "mu_band_ok": -2 * (k - t - 1) <= mu - lam <= 2 * (k - t)}


@settings(max_examples=1000, deadline=None)
@given(st.one_of(parameter_tuples(), zero_root_tuples()))
@example(DsrgParams(5, 4, 1, 0, 2))   # d = 0, quotient 0
@example(DsrgParams(5, 3, 1, 0, 2))   # d = 0, no quotient
@example(DsrgParams(6, 2, 1, 3, 3))   # negative discriminant
@example(DsrgParams(3, 1, 0, 0, 1))   # doubly regular tournament
@example(DsrgParams(5, 2, 2, 0, 1))   # undirected pentagon
@example(DsrgParams(6, 2, 1, 0, 1))   # feasible
def test_duval_feasible_matches_report_oracle(p):
    report = duval_feasible(p)
    expected = _report_oracle(p)
    assert {f.name: getattr(report, f.name)
            for f in dataclasses.fields(report)} == expected
    assert report.feasible == all(
        v for name, v in expected.items()
        if name.endswith("_ok") or name == "applicable")


@settings(max_examples=300, deadline=None)
@given(parameter_tuples())
def test_complement_params_involution(p):
    try:
        comp = complement_params(p)
    except ValueError:
        return
    assert complement_params(comp) == p


def test_enumerate_feasible_composite_orders():
    # observational: no genuine feasible tuple of prime order shows up
    from dsrg.numth import is_prime
    for p in enumerate_feasible(50):
        assert not is_prime(p.n), f"prime order {p.n} appeared: {p}"


def test_try_verify():
    assert try_verify_dsrg(cycle_power(4, 1)) is None
    assert try_verify_dsrg(FIXTURE_8) is not None


def dense_verify(a, sq=None):
    """verify_dsrg's checks, in its order, on dense lists: the outcome as
    ("ok", parameters) or ("NotDsrg", constraint, position, detail).  sq,
    when given, stands for the dense product A^2 (a list of rows)."""
    n = a.n
    rows = a.to_lists()
    k = sum(rows[0])
    for i in range(n):
        if sum(rows[i]) != k:
            return ("NotDsrg", "row-sum", (i, i),
                    f"row {i} sums to {sum(rows[i])}, row 0 to {k}")
    for j in range(n):
        s = sum(rows[i][j] for i in range(n))
        if s != k:
            return ("NotDsrg", "column-sum", (j, j),
                    f"column {j} sums to {s}, expected {k}")
    if sq is None:
        sq = [[sum(rows[i][h] * rows[h][j] for h in range(n))
               for j in range(n)] for i in range(n)]
    t = sq[0][0]
    values = {1: None, 0: None}
    for i in range(n):
        if sq[i][i] != t:
            return ("NotDsrg", "t-constancy", (i, i),
                    f"diagonal of A^2 is {sq[i][i]} at {i}, {t} at 0")
        for j in range(n):
            if i == j:
                continue
            adjacent = rows[i][j]
            if values[adjacent] is None:
                values[adjacent] = sq[i][j]
            elif sq[i][j] != values[adjacent]:
                if adjacent:
                    return ("NotDsrg", "lambda-constancy", (i, j),
                            f"adjacent pair has {sq[i][j]} paths, "
                            f"expected {values[1]}")
                return ("NotDsrg", "mu-constancy", (i, j),
                        f"non-adjacent pair has {sq[i][j]} paths, "
                        f"expected {values[0]}")
    return ("ok", (n, k, t, values[1] or 0, values[0] or 0))


def _switched(a, rng, count):
    """a with `count` random 2x2 switches; row and column sums and the zero
    diagonal are kept, so the later checks of verify_dsrg are reached."""
    rows = a.to_lists()
    n = a.n
    for _ in range(count):
        i, k, j, l = (rng.randrange(n) for _ in range(4))
        if len({i, k}) < 2 or len({j, l}) < 2 or i in (j, l) or k in (j, l):
            continue
        if rows[i][j] == rows[k][l] == 1 and rows[i][l] == rows[k][j] == 0:
            rows[i][j] = rows[k][l] = 0
            rows[i][l] = rows[k][j] = 1
    return BinMatrix.from_rows(rows)


def _switched_once(a, rng, moves_t, tries=200):
    """a after one 2x2 switch i->j, k->l => i->l, k->j, relabelled so that i
    is vertex 1 and vertex 0 is some x outside {i, k} with A[x][i] = A[x][k],
    which keeps row 0 of A^2.  With moves_t, A[j][i] != A[l][i] moves
    (A^2)[i][i], so over a DSRG verify_dsrg fails at t-constancy; without,
    A[j][i] = A[l][i] = A[j][k] = A[l][k] keeps the whole diagonal of A^2,
    and a failure is at lambda- or mu-constancy.  Returns a unchanged when
    no such switch turns up."""
    rows = a.to_lists()
    n = a.n
    for _ in range(tries):
        i, k, j, l = (rng.randrange(n) for _ in range(4))
        if len({i, k}) < 2 or len({j, l}) < 2 or i in (j, l) or k in (j, l):
            continue
        if not (rows[i][j] == rows[k][l] == 1 and rows[i][l] == rows[k][j] == 0):
            continue
        if moves_t:
            wanted = rows[j][i] != rows[l][i]
        else:
            wanted = rows[j][i] == rows[l][i] == rows[j][k] == rows[l][k]
        if not wanted:
            continue
        xs = [x for x in range(n) if x not in (i, k) and rows[x][i] == rows[x][k]]
        if not xs:
            continue
        x = rng.choice(xs)
        rows[i][j] = rows[k][l] = 0
        rows[i][l] = rows[k][j] = 1
        order = [x, i] + [v for v in range(n) if v not in (x, i)]
        return conjugate_by_perm(BinMatrix.from_rows(rows),
                                 PermSpec(tuple(order)).inverse())
    return a


def test_verify_dsrg_matches_dense_oracle():
    rng = random.Random(5)
    cases = []
    for base in (FIXTURE_8, FIXTURE_10, cycle_power(7, 1) | cycle_power(7, 2)):
        cases.append(base)
        cases += [_switched(base, rng, rng.randint(1, 4)) for _ in range(40)]
    for _ in range(60):
        n = rng.randint(1, 9)
        cases.append(BinMatrix.from_rows(
            [[0 if i == j else rng.randint(0, 1) for j in range(n)]
             for i in range(n)]))
    outcomes = set()
    for a in cases:
        expected = dense_verify(a)
        try:
            got = ("ok", verify_dsrg(a).as_tuple())
        except NotDsrg as exc:
            got = ("NotDsrg", exc.constraint, exc.position, exc.detail)
        assert got == expected, a
        outcomes.add(got[0] if got[0] == "ok" else got[1])
    # every check is reached by some case
    assert outcomes == {"ok", "row-sum", "column-sum", "t-constancy",
                        "lambda-constancy", "mu-constancy"}


@functools.lru_cache(maxsize=None)
def _construction_outputs(max_n=30):
    from dsrg.cli import all_construction_results
    return [r.adj for r in all_construction_results(max_n)]


@st.composite
def verify_inputs(draw):
    """A construction output up to order 30 with a few random switches or
    with one switch aimed at t-constancy or away from it, or a random
    loopless digraph, half of them with constant out-degree."""
    rng = draw(st.randoms(use_true_random=False))
    if draw(st.booleans()):
        base = draw(st.sampled_from(_construction_outputs()))
        how = draw(st.sampled_from(["switches", "moves t", "keeps t"]))
        if how == "switches":
            return _switched(base, rng, draw(st.integers(0, 4)))
        return _switched_once(base, rng, how == "moves t")
    n = draw(st.integers(1, 12))
    k = draw(st.integers(0, n - 1))
    regular = draw(st.booleans())
    rows = []
    for i in range(n):
        others = [j for j in range(n) if j != i]
        row = rng.sample(others, k) if regular else \
            [j for j in others if rng.random() < 0.5]
        rows.append(sum(1 << j for j in row))
    return BinMatrix(n, tuple(rows))


def test_verify_dsrg_matches_dense_oracle_property():
    outcomes = set()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(verify_inputs())
    def check(a):
        try:
            got = ("ok", verify_dsrg(a).as_tuple())
        except NotDsrg as exc:
            got = ("NotDsrg", exc.constraint, exc.position, exc.detail)
        assert got == dense_verify(a), a
        outcomes.add(got[0] if got[0] == "ok" else got[1])

    check()
    assert outcomes == {"ok", "row-sum", "column-sum", "t-constancy",
                        "lambda-constancy", "mu-constancy"}


def _outcome(a):
    try:
        return ("ok", verify_dsrg(a).as_tuple())
    except NotDsrg as exc:
        return ("NotDsrg", exc.constraint, exc.position, exc.detail)


def popcount_verify(a):
    """dense_verify with A^2 from the popcount product mat_mul_count."""
    return dense_verify(a, mat_mul_count(a, a).entries)


def test_verify_dsrg_two_byte_fields():
    # orders from 256 up count paths in 2-byte fields; A x J(10) of a
    # t = mu output of order 30 has order 300 and every parameter times 10
    base = next(a for a in _construction_outputs()
                if a.n == 30 and verify_dsrg(a).t == verify_dsrg(a).mu)
    n, k, t, lam, mu = verify_dsrg(base).as_tuple()
    big = kronecker(base, BinMatrix.ones(10))
    assert _outcome(big) == ("ok", (300, 10 * k, 10 * t, 10 * lam, 10 * mu))
    rng = random.Random(19)
    refused = set()
    for moves_t in (True, False):
        switched = _switched_once(big, rng, moves_t)
        assert switched != big
        got = _outcome(switched)
        assert got == popcount_verify(switched)
        refused.add(got[1])
    assert "t-constancy" in refused and len(refused) == 2


@pytest.mark.parametrize("n", [255, 256, 257])
def test_verify_dsrg_field_width_boundary(n):
    # random regular loopless digraphs around the switch from 1-byte to
    # 2-byte fields at order 256: relabelled circulants (every row and column
    # sum k, so verify_dsrg reaches its A^2 checks), digraphs with k random
    # out-neighbours per vertex (column sums vary) and J - I, whose counts
    # reach n - 1
    rng = random.Random(n)
    cases = [complement_graph(BinMatrix.zeros(n))]
    for k in (1, 3, n // 2, n - 2):
        shifts = rng.sample(range(1, n), k)
        circulant = BinMatrix(n, tuple(sum(1 << (i + s) % n for s in shifts)
                                       for i in range(n)))
        order = list(range(n))
        rng.shuffle(order)
        cases.append(conjugate_by_perm(circulant, PermSpec(tuple(order))))
        cases.append(BinMatrix(n, tuple(
            sum(1 << j for j in rng.sample([j for j in range(n) if j != i], k))
            for i in range(n))))
    outcomes = set()
    for a in cases:
        got = _outcome(a)
        assert got == popcount_verify(a)
        outcomes.add(got[0] if got[0] == "ok" else got[1])
    assert {"ok", "column-sum", "lambda-constancy"} <= outcomes
