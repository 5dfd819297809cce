"""Finite groups as multiplication tables, and their Cayley digraphs.

Groups are stored as explicit order x order index tables with the identity
as element 0, built by the cyclic, dihedral, symmetric and direct-product
constructors and not re-verified: every Cayley graph is checked where it is
used (cayley_dsrg verifies it, cayley_criteria cross-checks against that
verification).  The Cayley digraph of a connection set S puts an arc
x -> y whenever x*s = y for some s in S (right multiplication).  A subset
criterion reads the strongly regular parameters straight off the multiset
of pairwise products of S; dihedral groups carry two explicit subset
families producing genuine graphs (hobart_shaw, built directly as block
circulants without a group table), and an exhaustive subset scan provides
the brute-force baseline.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .constructions import ConstructionResult, _result, check_vertex_cap
from .matrix import (BinMatrix, BoundExceeded, InputError, _indicator,
                     block_compose, sigma_circulant)
from .params import DsrgParams, NotDsrg, try_verify_dsrg, verify_dsrg

SCAN_BOUND = 16


@dataclass(frozen=True)
class GroupTable:
    """Finite group: table[i][j] is the index of g_i * g_j, and element 0
    is the identity.  Every table is built by the constructors below."""

    table: tuple[tuple[int, ...], ...]
    names: tuple[str, ...]

    @property
    def order(self) -> int:
        return len(self.table)

    def index_of(self, name: str) -> int:
        return self.names.index(name)


def cyclic_group(n: int) -> GroupTable:
    if n < 1:
        raise ValueError(f"order must be positive, got {n}")
    check_vertex_cap(n)
    elements = tuple(range(n))
    names = ("e",) + tuple(f"a{i}" if i > 1 else "a" for i in range(1, n))
    return GroupTable(tuple(elements[i:] + elements[:i] for i in range(n)),
                      names)


def dihedral_group(n: int) -> GroupTable:
    """Order-2n dihedral group <a, b : b^2 = a^n = e, b a b = a^-1>.

    Elements are ordered e, a, .., a^(n-1), b, ba, .., ba^(n-1);
    index i < n is a^i and n + i is b*a^i.
    """
    if n < 3:
        raise ValueError(f"dihedral groups here need n >= 3, got {n}")
    size = 2 * n
    check_vertex_cap(size)
    table = [[0] * size for _ in range(size)]
    for i in range(n):
        for j in range(n):
            table[i][j] = (i + j) % n                    # a^i a^j
            table[i][n + j] = n + (j - i) % n            # a^i (b a^j)
            table[n + i][j] = n + (i + j) % n            # (b a^i) a^j
            table[n + i][n + j] = (j - i) % n            # (b a^i)(b a^j)
    names = ["e"] + [f"a{i}" if i > 1 else "a" for i in range(1, n)]
    names += ["b"] + [f"ba{i}" if i > 1 else "ba" for i in range(1, n)]
    return GroupTable(tuple(map(tuple, table)), tuple(names))


def _cycle_notation(perm: tuple[int, ...]) -> str:
    seen = [False] * len(perm)
    parts = []
    for start in range(len(perm)):
        if seen[start] or perm[start] == start:
            seen[start] = True
            continue
        cycle = [start]
        seen[start] = True
        v = perm[start]
        while v != start:
            cycle.append(v)
            seen[v] = True
            v = perm[v]
        parts.append("(" + "".join(str(x + 1) for x in cycle) + ")")
    return "".join(parts) if parts else "e"


def symmetric_group(n: int) -> GroupTable:
    """Permutations of n points with (x*y)(i) = x(y(i)); names use 1-based
    cycle notation like "(12)" and "(123)"."""
    if not 1 <= n <= 5:
        raise ValueError(f"symmetric groups are built for 1 <= n <= 5, got {n}")
    elements = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(elements)}
    table = tuple(tuple(index[tuple(x[y[i]] for i in range(n))]
                        for y in elements) for x in elements)
    return GroupTable(table, tuple(map(_cycle_notation, elements)))


def direct_product(g: GroupTable, h: GroupTable) -> GroupTable:
    pairs = [(a, b) for a in range(g.order) for b in range(h.order)]
    index = {p: i for i, p in enumerate(pairs)}
    table = tuple(tuple(index[(g.table[a1][a2], h.table[b1][b2])]
                        for (a2, b2) in pairs) for (a1, b1) in pairs)
    names = tuple(f"({g.names[a]},{h.names[b]})" for (a, b) in pairs)
    return GroupTable(table, names)


def _partitions(n: int, largest: int | None = None) -> Iterator[tuple[int, ...]]:
    if n == 0:
        yield ()
        return
    cap = n if largest is None else min(n, largest)
    for first in range(cap, 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def abelian_groups_up_to(max_order: int) -> list[tuple[str, GroupTable]]:
    """One representative per isomorphism class of abelian groups of each
    order <= max_order, as products of cyclic prime-power factors."""
    out: list[tuple[str, GroupTable]] = []
    for order in range(1, max_order + 1):
        remaining = order
        prime_exponents: list[tuple[int, int]] = []
        p = 2
        while p * p <= remaining:
            if remaining % p == 0:
                e = 0
                while remaining % p == 0:
                    remaining //= p
                    e += 1
                prime_exponents.append((p, e))
            p += 1
        if remaining > 1:
            prime_exponents.append((remaining, 1))
        per_prime = [[tuple(p ** part for part in partition)
                      for partition in _partitions(e)]
                     for p, e in prime_exponents]
        for choice in itertools.product(*per_prime):
            factors = sorted(f for group_factors in choice for f in group_factors)
            if not factors:
                factors = [1]
            group = cyclic_group(factors[0])
            for f in factors[1:]:
                group = direct_product(group, cyclic_group(f))
            name = "x".join(f"Z{f}" for f in factors)
            out.append((name, group))
    return out


@dataclass(frozen=True)
class CayleySpec:
    """A group together with a connection set of non-identity elements."""

    group: GroupTable
    conn: frozenset[int]

    def __post_init__(self) -> None:
        if 0 in self.conn:
            raise InputError("the identity cannot be in a connection set")
        if any(not 0 <= s < self.group.order for s in self.conn):
            raise InputError("connection set indices out of range")


def cayley_graph(spec: CayleySpec) -> BinMatrix:
    """Digraph on the group with an arc x -> x*s for every s in the set."""
    g = spec.group
    rows = [0] * g.order
    for x in range(g.order):
        for s in spec.conn:
            rows[x] |= 1 << g.table[x][s]
    return BinMatrix(g.order, tuple(rows))


def cayley_criteria(spec: CayleySpec) -> DsrgParams | None:
    """Read parameters off the multiset of pairwise products of the set.

    Succeeds iff the identity count, the common count over S, and the
    common count over the remaining elements are all constant; the result
    is cross-checked against direct verification of the Cayley graph.
    """
    g = spec.group
    conn = sorted(spec.conn)
    counts = [0] * g.order
    for s1 in conn:
        row = g.table[s1]
        for s2 in conn:
            counts[row[s2]] += 1
    lam = {counts[x] for x in spec.conn}
    mu = {counts[x] for x in range(1, g.order) if x not in spec.conn}
    if len(lam) > 1 or len(mu) > 1:
        return None
    params = DsrgParams(g.order, len(conn), counts[0],
                        max(lam, default=0), max(mu, default=0))
    verified = try_verify_dsrg(cayley_graph(spec))
    if verified != params:
        raise AssertionError(
            f"criteria/verification mismatch: {params} vs {verified}")
    return params


def cayley_dsrg(spec: CayleySpec, label: str | None = None) -> ConstructionResult:
    """A genuine Cayley DSRG (0 < t < k) as a verified construction result.

    The descriptor is the label (the group's descriptor) followed by
    ",S={...}", the set's element names in index order.  A graph that
    fails verification is refused with the violated constraint."""
    adj = cayley_graph(spec)
    try:
        params = verify_dsrg(adj)
    except NotDsrg as exc:
        raise ValueError(f"the Cayley graph is not a DSRG: {exc}") from exc
    if not params.is_genuine:
        raise ValueError(f"not a genuine DSRG: {params} {params.classification}")
    names = ",".join(spec.group.names[s] for s in sorted(spec.conn))
    group = label if label is not None else f"order={spec.group.order}"
    return ConstructionResult("cayley", f"{group},S={{{names}}}", adj, params)


def hobart_shaw(lam: int, parity: str) -> ConstructionResult:
    """Dihedral Cayley graphs from runs of rotations and reflections.

    The even case takes S = {a, .., a^(lam-1), b, .., b*a^(lam-1)} in the
    dihedral group of order 4*lam and yields (4*lam, 2*lam-1, lam, lam-1,
    lam-1); the odd case extends both runs to exponent lam in the group of
    order 4*lam+2 and yields (4*lam+2, 2*lam+1, lam+1, lam, lam+1).  The
    odd t must be lam+1: the lam+1 reflections in S are involutions, each
    contributing to |S meet S^-1|, and no smaller t satisfies the balance
    equation.  Tuples violating 0 < t < k (even case with lam = 1) are
    rejected.

    The graph is the Cayley graph of dihedral_group(m) on the runs a..a^r
    and b..b*a^r (m = 2*lam, r = lam-1 or m = 2*lam+1, r = lam), built
    as the block circulant [[C, X], [X, C]] in the element order a^i,
    b*a^i: entry (i, j) of C is 1 when j - i lies in {1..r} and of X when
    i + j lies in {0..r}, both mod m.
    """
    if lam < 1:
        raise InputError(f"need lam >= 1, got {lam}")
    if parity == "even":
        expected = (4 * lam, 2 * lam - 1, lam, lam - 1, lam - 1)
        rotations = lam - 1
        n_rot = 2 * lam
    elif parity == "odd":
        expected = (4 * lam + 2, 2 * lam + 1, lam + 1, lam, lam + 1)
        rotations = lam
        n_rot = 2 * lam + 1
    else:
        raise InputError(f"parity must be 'even' or 'odd', got {parity!r}")
    n, k, t, _, _ = expected
    check_vertex_cap(n)
    if not 0 < t < k:  # only the even case with lam = 1
        raise ValueError(f"parameters {expected} are not genuine (need "
                         f"0 < t < k); the even case requires lam >= 2")
    c = sigma_circulant(n_rot, _indicator(n_rot, range(1, rotations + 1)), 1)
    x = sigma_circulant(n_rot, _indicator(n_rot, range(rotations + 1)), -1)
    return _result("hobart_shaw", f"lam={lam},{parity}",
                   block_compose([[c, x], [x, c]]), expected)


def _check_scan_bound(order: int) -> None:
    if order > SCAN_BOUND:
        raise BoundExceeded(
            f"group order {order} exceeds the scan bound {SCAN_BOUND}")


def cayley_subset_scan(g: GroupTable
                       ) -> list[tuple[frozenset[int], DsrgParams]]:
    """Exhaustive scan over connection sets yielding genuine parameters.

    Subsets of the non-identity elements are visited in ascending bitmask
    order (so output order is reproducible) and kept when the product
    criteria succeed with 0 < t < k.  Refuses orders above SCAN_BOUND."""
    _check_scan_bound(g.order)
    non_identity = range(1, g.order)
    found: list[tuple[frozenset[int], DsrgParams]] = []
    for mask in range(1, 1 << len(non_identity)):
        conn = frozenset(x for b, x in enumerate(non_identity)
                         if (mask >> b) & 1)
        params = cayley_criteria(CayleySpec(g, conn))
        if params is not None and params.is_genuine:
            found.append((conn, params))
    return found
