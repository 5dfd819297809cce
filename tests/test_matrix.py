import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dsrg import (BinMatrix, DimensionError, PermSpec, block_compose,
                  conjugate_by_perm, cycle_power, kronecker, mat_mul_count,
                  sigma_circulant)
from dsrg.matrix import _relabeled_rows
from transposers import compose


def random_binmatrix(rng, n, zero_diag=True):
    return BinMatrix.from_rows([
        [0 if (i == j and zero_diag) else rng.randint(0, 1) for j in range(n)]
        for i in range(n)])


def test_cycle_power_display():
    pi = cycle_power(6, 1)
    assert pi.row_strings() == [
        "010000", "001000", "000100", "000010", "000001", "100000"]
    assert cycle_power(5, 5) == BinMatrix.identity(5)
    assert cycle_power(4, 2).entry(0, 2) == 1
    assert cycle_power(3, 0) == BinMatrix.identity(3)


def test_mat_mul_count_permutation_composition():
    pi = cycle_power(3, 1)
    sq = mat_mul_count(pi, pi)
    assert sq.entry(0, 2) == 1
    assert sq.entries == tuple(tuple(cycle_power(3, 2).to_lists()[i])
                               for i in range(3))


def test_mat_mul_count_all_ones():
    j = BinMatrix.ones(4)
    assert mat_mul_count(j, j).entries == ((4,) * 4,) * 4


def test_mat_mul_count_path_diagonals():
    from known_graphs import FIXTURE_8
    # A*A counts closed 2-paths (the t parameter); A*A^T counts common
    # out-neighbors, which on the diagonal is the valency
    assert mat_mul_count(FIXTURE_8, FIXTURE_8).diagonal() == (2,) * 8
    assert mat_mul_count(FIXTURE_8, FIXTURE_8.transpose()).diagonal() == (3,) * 8


def test_mat_mul_count_order_mismatch():
    with pytest.raises(DimensionError):
        mat_mul_count(BinMatrix.identity(3), BinMatrix.identity(4))


@pytest.mark.parametrize("rows, bad", [((0b010, 0b1000, 0b001), 1),
                                       ((0b010, 0b001, -1), 2),
                                       ((-4, 0b1000, 0b001), 0)])
def test_rows_out_of_range_are_refused(rows, bad):
    # a bit at column n and a negative row each name the first bad row
    with pytest.raises(DimensionError) as info:
        BinMatrix(3, rows)
    assert str(info.value) == f"row {bad} has bits beyond column 2"


def test_transpose_examples():
    pi = cycle_power(3, 1)
    assert pi.transpose() == cycle_power(3, 2)
    sym = BinMatrix.from_rows([[0, 1], [1, 0]])
    assert sym.transpose() == sym
    rng = random.Random(1)
    a = random_binmatrix(rng, 7, zero_diag=False)
    assert a.transpose().transpose() == a


def _transpose_by_bits(a):
    """The former per-bit transpose, kept as an oracle."""
    cols = [0] * a.n
    for i, r in enumerate(a.rows):
        while r:
            low = r & -r
            cols[low.bit_length() - 1] |= 1 << i
            r ^= low
    return BinMatrix(a.n, tuple(cols))


@st.composite
def square_rows(draw):
    n = draw(st.integers(1, 70))
    full = (1 << n) - 1
    row = st.one_of(st.just(0), st.just(full), st.integers(0, full))
    return BinMatrix(n, tuple(draw(st.lists(row, min_size=n, max_size=n))))


@settings(max_examples=300, deadline=None)
@given(square_rows())
@example(BinMatrix(1, (0,)))
@example(BinMatrix(1, (1,)))
@example(BinMatrix(9, (0,) * 9))
@example(BinMatrix(64, ((1 << 64) - 1,) * 64))
@example(BinMatrix(9, (511,) + (0,) * 8))
def test_transpose_matches_bit_loop(a):
    assert a.transpose() == _transpose_by_bits(a)


def test_product_transpose_identity():
    rng = random.Random(2)
    for n in range(1, 13):
        a = random_binmatrix(rng, n, zero_diag=False)
        b = random_binmatrix(rng, n, zero_diag=False)
        assert mat_mul_count(a, b).transpose() == \
            mat_mul_count(b.transpose(), a.transpose())


def test_kronecker_identity_blocks():
    out = kronecker(BinMatrix.identity(2), BinMatrix.ones(2))
    assert out.row_strings() == ["1100", "1100", "0011", "0011"]
    a = random_binmatrix(random.Random(3), 5, zero_diag=False)
    assert kronecker(a, BinMatrix.identity(1)) == a


def test_kronecker_row_sums():
    rng = random.Random(4)
    a = random_binmatrix(rng, 3, zero_diag=False)
    b = random_binmatrix(rng, 4, zero_diag=False)
    out = kronecker(a, b)
    for i in range(3):
        for p in range(4):
            assert out.row_sum(4 * i + p) == a.row_sum(i) * b.row_sum(p)


def test_sigma_circulant_ordinary():
    first = [0, 1, 0, 0, 1]
    c = sigma_circulant(5, first, 1)
    for i in range(5):
        assert [c.entry(i, j) for j in range(5)] == \
            [first[(j - i) % 5] for j in range(5)]


def test_sigma_circulant_zero_row():
    assert sigma_circulant(3, [0, 0, 0], 2) == BinMatrix.zeros(3)


def test_sigma_circulant_normalizes_sigma():
    first = [0, 1, 1, 0, 0]
    assert sigma_circulant(5, first, 7) == sigma_circulant(5, first, 2)


def test_block_compose_identity_and_errors():
    eye = BinMatrix.identity(3)
    assert block_compose([[eye]]) == eye
    with pytest.raises(DimensionError):
        block_compose([[eye, BinMatrix.identity(2)],
                       [BinMatrix.identity(2), eye]])


@pytest.mark.parametrize("call, error, fragment", [
    (lambda: BinMatrix.from_rows([[0, 2], [0, 0]]), ValueError,
     "matrix entries must be 0 or 1, got 2"),
    (lambda: BinMatrix(0, ()), DimensionError,
     "order must be positive, got 0"),
    (lambda: BinMatrix(2, (0,)), DimensionError, "expected 2 rows, got 1"),
    (lambda: BinMatrix.from_rows([[0, 1], [0]]), DimensionError,
     "row 1 has length 1, expected 2"),
    (lambda: BinMatrix.zeros(2) | BinMatrix.zeros(3), DimensionError,
     "order mismatch: 2 vs 3"),
    (lambda: cycle_power(0, 1), DimensionError,
     "order must be positive, got 0"),
    (lambda: sigma_circulant(3, [0, 1], 1), DimensionError,
     "first row has length 2, expected 3"),
    (lambda: block_compose([[BinMatrix.identity(2)] * 2]), DimensionError,
     "block grid is not square"),
    (lambda: conjugate_by_perm(BinMatrix.zeros(3), PermSpec((1, 0))),
     DimensionError, "permutation length 2 != order 3"),
], ids=["entry-2", "order-0", "row-count", "ragged", "or-orders",
        "cycle-power-0", "short-first-row", "grid-not-square", "short-perm"])
def test_matrix_refusals(call, error, fragment):
    with pytest.raises(ValueError) as info:
        call()
    assert info.type is error and fragment in str(info.value)


def test_conjugate_identity_and_shift():
    pi = cycle_power(3, 1)
    assert conjugate_by_perm(pi, PermSpec.identity(3)) == pi
    assert conjugate_by_perm(pi, PermSpec((1, 2, 0))) == pi


def test_conjugate_group_action():
    rng = random.Random(5)
    a = random_binmatrix(rng, 8, zero_diag=False)
    p = PermSpec(tuple(rng.sample(range(8), 8)))
    assert conjugate_by_perm(conjugate_by_perm(a, p), p.inverse()) == a


def _conjugate_per_bit(a, p):
    rows = [0] * a.n
    for i in range(a.n):
        for j in range(a.n):
            if a.entry(i, j):
                rows[p(i)] |= 1 << p(j)
    return BinMatrix(a.n, tuple(rows))


@st.composite
def matrix_and_perm(draw):
    # orders either side of the 64-bit limb and of twice it
    n = draw(st.one_of(st.integers(1, 130),
                       st.sampled_from([63, 64, 65, 127, 128, 129, 130])))
    rows = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n))
    return BinMatrix(n, tuple(rows)), PermSpec(tuple(draw(
        st.permutations(range(n)))))


@settings(max_examples=60, deadline=None)
@given(matrix_and_perm())
# one column per stride, the leading zeros of each row's width, and a
# full row beside a zero diagonal bit
@example((BinMatrix(1, (1,)), PermSpec((0,))))
@example((BinMatrix(2, (0b10, 0b11)), PermSpec((1, 0))))
@example((BinMatrix.zeros(65), PermSpec.reversal(65)))
@example((BinMatrix(64, tuple(((1 << 64) - 1) ^ (1 << i) for i in range(64))),
          PermSpec.shift(64, 5)))
def test_conjugate_matches_per_bit_reference(inputs):
    a, p = inputs
    b = conjugate_by_perm(a, p)
    assert b == _conjugate_per_bit(a, p)
    assert conjugate_by_perm(b, p.inverse()) == a


@st.composite
def rows_and_sub_order(draw):
    """Rows of order 1 to 70 and m of their vertices in some order: a
    shuffled prefix, or ascending as twin-class representatives are."""
    n = draw(st.integers(1, 70))
    rows = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n))
    order = draw(st.permutations(range(n)))[:draw(st.integers(1, n))]
    return rows, sorted(order) if draw(st.booleans()) else order


@settings(max_examples=100, deadline=None)
@given(rows_and_sub_order())
# a 3-cycle blown up to classes {0, 1}, {2}, {3, 4, 5}, cut to its
# quotient on the representatives 0, 2, 3
@example(([0b000100, 0b000100, 0b111000, 0b000011, 0b000011, 0b000011],
          [0, 2, 3]))
@example(([0b1], [0]))
def test_relabeled_rows_on_sub_order_matches_per_bit(inputs):
    rows, order = inputs
    m = len(order)
    assert _relabeled_rows(rows, order) == tuple(
        sum(((rows[order[r]] >> order[c]) & 1) << c for c in range(m))
        for r in range(m))


def test_conjugate_preserves_invariants():
    rng = random.Random(6)
    a = random_binmatrix(rng, 9)
    p = PermSpec(tuple(rng.sample(range(9), 9)))
    b = conjugate_by_perm(a, p)
    assert sorted(a.row_sums()) == sorted(b.row_sums())
    assert sorted(mat_mul_count(a, a).diagonal()) == \
        sorted(mat_mul_count(b, b).diagonal())


def _to_bin(m):
    rows = []
    for i in range(m.n):
        value = 0
        for j in range(m.n):
            assert m.entry(i, j) in (0, 1)
            value |= m.entry(i, j) << j
        rows.append(value)
    return BinMatrix(m.n, tuple(rows))


def test_conjugate_matches_matrix_identity():
    # conjugate_by_perm(a, p) equals P^T A P for P = p.matrix()
    rng = random.Random(7)
    a = random_binmatrix(rng, 6, zero_diag=False)
    p = PermSpec(tuple(rng.sample(range(6), 6)))
    q = p.matrix()
    product = _to_bin(mat_mul_count(_to_bin(mat_mul_count(q.transpose(), a)), q))
    assert product == conjugate_by_perm(a, p)


def test_permspec_basics():
    p = PermSpec((2, 0, 1))
    assert p.inverse().images == (1, 2, 0)
    assert compose(p, p.inverse()).images == (0, 1, 2)
    assert PermSpec.reversal(5).images == (0, 4, 3, 2, 1)
    assert PermSpec.reversal(5).is_involution()
    assert not p.is_involution()
    with pytest.raises(ValueError):
        PermSpec((0, 0, 1))
