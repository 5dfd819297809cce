import itertools
from unittest import mock

import pytest

from dsrg import (BinMatrix, CayleySpec, GroupTable, PermSpec,
                  abelian_groups_up_to, cayley_criteria, cayley_dsrg,
                  cayley_graph,
                  cayley_subset_scan, conjugate_by_perm, cycle_power,
                  cyclic_group, dihedral_group, direct_product, hobart_shaw,
                  symmetric_group, try_verify_dsrg)
from dsrg.matrix import InputError


def groups_isomorphic(g, h):
    if g.order != h.order:
        return False
    # brute force over bijections; desk scale only
    for images in itertools.permutations(range(h.order)):
        if images[g.identity] != h.identity:
            continue
        if all(images[g.table[a][b]] == h.table[images[a]][images[b]]
               for a in range(g.order) for b in range(g.order)):
            return True
    return False


def is_abelian(g):
    return all(g.table[a][b] == g.table[b][a]
               for a in range(g.order) for b in range(g.order))


def test_dihedral_3_is_symmetric_3():
    d6 = dihedral_group(3)
    s3 = symmetric_group(3)
    assert d6.order == 6 and not is_abelian(d6)
    assert groups_isomorphic(d6, s3)


def test_cyclic_and_product_abelian():
    assert is_abelian(cyclic_group(6))
    z2z3 = direct_product(cyclic_group(2), cyclic_group(3))
    assert z2z3.order == 6 and is_abelian(z2z3)


def test_group_table_validation():
    with pytest.raises(ValueError, match="permutation"):
        from dsrg.groups import GroupTable
        GroupTable.from_table([[0, 0], [1, 1]])


def test_group_table_default_names():
    assert GroupTable.from_table([[0, 1], [1, 0]]).names == ("g0", "g1")


@pytest.mark.parametrize("call, error, fragment", [
    (lambda: GroupTable.from_table([[0, 1]]), ValueError,
     "multiplication table must be square"),
    (lambda: GroupTable.from_table([[0, 1], [0, 1]]), ValueError,
     "column 0 is not a permutation of 0..1"),
    # x*y = -x-y (mod 3) is a Latin square without an identity
    (lambda: GroupTable.from_table([[0, 2, 1], [2, 1, 0], [1, 0, 2]]),
     ValueError, "no two-sided identity element"),
    # a Latin square with identity 0 that is not a group
    (lambda: GroupTable.from_table([[0, 1, 2, 3, 4], [1, 0, 3, 4, 2],
                                    [2, 4, 0, 1, 3], [3, 2, 4, 0, 1],
                                    [4, 3, 1, 2, 0]]),
     ValueError, "associativity fails at (1, 1, 2)"),
    (lambda: cyclic_group(0), ValueError, "order must be positive, got 0"),
    (lambda: dihedral_group(2), ValueError, "need n >= 3, got 2"),
    (lambda: symmetric_group(6), ValueError, "1 <= n <= 5, got 6"),
    (lambda: hobart_shaw(2, "both"), InputError,
     "parity must be 'even' or 'odd', got 'both'"),
    (lambda: CayleySpec(cyclic_group(5), frozenset({7})), InputError,
     "connection set indices out of range"),
], ids=["not-square", "column", "no-identity", "not-associative",
        "cyclic-0", "dihedral-2", "symmetric-6", "hobart-shaw-parity",
        "cayley-index-range"])
def test_group_refusals(call, error, fragment):
    with pytest.raises(ValueError) as info:
        call()
    assert info.type is error and fragment in str(info.value)


def test_dihedral_relations():
    d = dihedral_group(4)
    n = 4
    a, b = 1, n  # generators
    # b a b = a^-1
    assert d.table[d.table[b][a]][b] == d.table[a].index(d.identity)
    assert d.table[b][b] == d.identity
    assert d.names[:4] == ("e", "a", "a2", "a3")
    assert d.names[4:6] == ("b", "ba")


def test_cayley_graph_cycle():
    z6 = cyclic_group(6)
    adj = cayley_graph(CayleySpec(z6, frozenset({1})))
    assert adj == cycle_power(6, 1)


def test_cayley_graph_s3_example():
    s3 = symmetric_group(3)
    conn = frozenset({s3.index_of("(12)"), s3.index_of("(123)")})
    adj = cayley_graph(CayleySpec(s3, conn))
    assert try_verify_dsrg(adj).as_tuple() == (6, 2, 1, 0, 1)
    assert cayley_criteria(CayleySpec(s3, conn)).as_tuple() == (6, 2, 1, 0, 1)


def test_cayley_graph_full_connection_set():
    z4 = cyclic_group(4)
    conn = frozenset({1, 2, 3})
    adj = cayley_graph(CayleySpec(z4, conn))
    from dsrg import complement_graph
    assert adj == complement_graph(BinMatrix.zeros(4))


def test_cayley_criteria_dihedral():
    d6 = dihedral_group(3)
    conn = frozenset({d6.index_of("a"), d6.index_of("b"), d6.index_of("ba")})
    params = cayley_criteria(CayleySpec(d6, conn))
    # the lam+1 reflections force t = 2 here; see hobart_shaw
    assert params is not None and params.as_tuple() == (6, 3, 2, 1, 2)


def test_cayley_criteria_abelian_failure():
    z6 = cyclic_group(6)
    assert cayley_criteria(CayleySpec(z6, frozenset({1, 2}))) is None


def test_cayley_rejects_identity_in_connection_set():
    with pytest.raises(ValueError, match="identity"):
        CayleySpec(cyclic_group(4), frozenset({0, 1}))


def test_cayley_vertex_transitivity():
    s3 = symmetric_group(3)
    conn = frozenset({s3.index_of("(12)"), s3.index_of("(123)")})
    adj = cayley_graph(CayleySpec(s3, conn))
    for g in range(s3.order):
        left = PermSpec(tuple(s3.table[g][x] for x in range(s3.order)))
        assert conjugate_by_perm(adj, left) == adj


def test_hobart_shaw_formulas():
    for lam in range(2, 6):
        assert hobart_shaw(lam, "even").params.as_tuple() == \
            (4 * lam, 2 * lam - 1, lam, lam - 1, lam - 1)
    for lam in range(1, 6):
        assert hobart_shaw(lam, "odd").params.as_tuple() == \
            (4 * lam + 2, 2 * lam + 1, lam + 1, lam, lam + 1)


def test_hobart_shaw_examples():
    assert hobart_shaw(2, "even").params.as_tuple() == (8, 3, 2, 1, 1)
    assert hobart_shaw(1, "odd").params.as_tuple() == (6, 3, 2, 1, 2)
    assert hobart_shaw(2, "odd").params.as_tuple() == (10, 5, 3, 2, 3)


def test_hobart_shaw_rejects_non_genuine():
    with pytest.raises(ValueError, match="genuine"):
        hobart_shaw(1, "even")


def test_scan_s3():
    s3 = symmetric_group(3)
    found = cayley_subset_scan(s3)
    conn = frozenset({s3.index_of("(12)"), s3.index_of("(123)")})
    assert any(c == conn and p.as_tuple() == (6, 2, 1, 0, 1)
               for c, p in found)


def test_scan_z8_empty():
    assert cayley_subset_scan(cyclic_group(8)) == []


def test_scan_d8_contains_hobart_shaw_set():
    d8 = dihedral_group(4)
    hs = hobart_shaw(2, "even")
    expected_conn = frozenset({1, 4, 5})  # a, b, ba
    found = cayley_subset_scan(d8)
    assert any(c == expected_conn for c, p in found)
    match = [p for c, p in found if c == expected_conn]
    assert match[0] == hs.params


def test_scan_bound_refusal():
    with pytest.raises(ValueError, match="bound"):
        cayley_subset_scan(cyclic_group(17))


def test_abelian_groups_up_to_12():
    groups = abelian_groups_up_to(12)
    names = [name for name, _ in groups]
    # 1,1,1,2,1,1,1,3,2,1,1,2 classes for orders 1..12
    assert len(groups) == 17
    assert "Z2xZ2" in names and "Z2xZ2xZ2" in names and "Z2xZ4" in names
    assert all(is_abelian(g) for _, g in groups)


def test_jorgensen_no_abelian_genuine_dsrgs():
    for name, g in abelian_groups_up_to(12):
        assert cayley_subset_scan(g) == [], f"genuine DSRG on abelian {name}"


def test_criteria_cross_validates_verification():
    # on every subset of a sample group the criteria agree with direct
    # verification (the criteria check this internally; exercise it)
    d6 = dihedral_group(3)
    non_identity = [x for x in range(6) if x != d6.identity]
    for size in (1, 2, 3):
        for conn in itertools.combinations(non_identity, size):
            spec = CayleySpec(d6, frozenset(conn))
            params = cayley_criteria(spec)
            direct = try_verify_dsrg(cayley_graph(spec))
            if params is not None:
                assert direct == params


def test_criteria_verification_mismatch_raises():
    # the cross-check is real code, not an assert that python -O strips
    s3 = symmetric_group(3)
    conn = frozenset({s3.index_of("(12)"), s3.index_of("(123)")})
    with mock.patch("dsrg.groups.try_verify_dsrg", return_value=None):
        with pytest.raises(AssertionError, match="mismatch"):
            cayley_criteria(CayleySpec(s3, conn))


def test_cayley_dsrg_wrapper():
    s3 = symmetric_group(3)
    conn = frozenset({s3.index_of("(12)"), s3.index_of("(123)")})
    r = cayley_dsrg(CayleySpec(s3, conn))
    assert r.method == "cayley"
    assert r.input_descriptor == "order=6,S={(12),(123)}"
    assert r.params.as_tuple() == (6, 2, 1, 0, 1)
    # a label is the group's descriptor, followed by the names in index order
    assert cayley_dsrg(CayleySpec(s3, conn), "symmetric:3").input_descriptor \
        == "symmetric:3,S={(12),(123)}"
    with pytest.raises(ValueError, match="criteria"):
        cayley_dsrg(CayleySpec(cyclic_group(6), frozenset({1, 2})))


@pytest.mark.parametrize("group, conn, message", [
    (cyclic_group(7), {1, 2, 4}, "7 3 0 1 2 doubly-regular-tournament"),
    (cyclic_group(5), {1, 4}, "5 2 2 0 1 undirected"),
])
def test_cayley_dsrg_refuses_non_genuine(group, conn, message):
    # a DSRG with t = 0 or t = k is refused, as hobart_shaw refuses one
    with pytest.raises(ValueError) as info:
        cayley_dsrg(CayleySpec(group, frozenset(conn)))
    assert info.type is ValueError
    assert str(info.value) == f"not a genuine DSRG: {message}"


@pytest.mark.parametrize("parity", ["even", "odd"])
def test_hobart_shaw_is_the_dihedral_cayley_graph(parity):
    for lam in range(2 if parity == "even" else 1, 11):
        rotations, m = (lam - 1, 2 * lam) if parity == "even" else \
            (lam, 2 * lam + 1)
        conn = frozenset(range(1, rotations + 1)) | \
            frozenset(range(m, m + rotations + 1))
        assert hobart_shaw(lam, parity).adj == \
            cayley_graph(CayleySpec(dihedral_group(m), conn))
