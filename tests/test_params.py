import random

import pytest

from dsrg import (DOUBLY_REGULAR_TOURNAMENT, GENUINE, UNDIRECTED, BinMatrix,
                  DsrgParams, NotDsrg, complement_graph, complement_params,
                  cycle_power, duval_feasible, enumerate_feasible,
                  try_verify_dsrg, verify_dsrg)
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


def test_enumerate_feasible_sorted_and_genuine():
    out = enumerate_feasible(20)
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


def test_enumerate_feasible_composite_orders():
    # observational: no genuine feasible tuple of prime order shows up
    from dsrg.numth import is_prime
    for p in enumerate_feasible(50):
        assert not is_prime(p.n), f"prime order {p.n} appeared: {p}"


def test_try_verify():
    assert try_verify_dsrg(cycle_power(4, 1)) is None
    assert try_verify_dsrg(FIXTURE_8) is not None


def dense_verify(a):
    """verify_dsrg's checks, in its order, on dense lists: the outcome as
    ("ok", parameters) or ("NotDsrg", constraint, position, detail)."""
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
    sq = [[sum(rows[i][h] * rows[h][j] for h in range(n)) for j in range(n)]
          for i in range(n)]
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
