"""Finite groups as multiplication tables, and their Cayley digraphs.

Groups are stored as explicit order x order index tables (verified: Latin
square, identity, associativity), which keeps everything at desk scale and
totally checkable.  The Cayley digraph of a connection set S puts an arc
x -> y whenever x*s = y for some s in S (right multiplication).  A subset
criterion reads the strongly regular parameters straight off the multiset
of pairwise products of S; dihedral groups carry two explicit subset
families producing genuine graphs (hobart_shaw, built directly as block
circulants without a group table), and an exhaustive subset scan provides
the brute-force baseline.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from .constructions import ConstructionResult, _result
from .iso import BoundExceeded
from .matrix import (BinMatrix, InputError, _indicator, block_compose,
                     sigma_circulant)
from .params import DsrgParams, try_verify_dsrg

SCAN_BOUND = 16
_ASSOCIATIVITY_CHECK_LIMIT = 64


@dataclass(frozen=True)
class GroupTable:
    """Finite group: table[i][j] is the index of g_i * g_j."""

    order: int
    table: tuple[tuple[int, ...], ...]
    identity: int
    inverse: tuple[int, ...]
    names: tuple[str, ...]
    abelian: bool

    @classmethod
    def from_table(cls, table: Sequence[Sequence[int]],
                   names: Sequence[str] | None = None) -> "GroupTable":
        n = len(table)
        rows = tuple(tuple(row) for row in table)
        if any(len(row) != n for row in rows):
            raise ValueError("multiplication table must be square")
        indices = list(range(n))
        for i, row in enumerate(rows):
            if sorted(row) != indices:
                raise ValueError(f"row {i} is not a permutation of 0..{n - 1}")
        for j in range(n):
            if sorted(rows[i][j] for i in range(n)) != indices:
                raise ValueError(f"column {j} is not a permutation of 0..{n - 1}")
        identity = next((e for e in range(n)
                         if all(rows[e][x] == x and rows[x][e] == x
                                for x in range(n))), None)
        if identity is None:
            raise ValueError("no two-sided identity element")
        if n <= _ASSOCIATIVITY_CHECK_LIMIT:
            for a in range(n):
                for b in range(n):
                    ab = rows[a][b]
                    for c in range(n):
                        if rows[ab][c] != rows[a][rows[b][c]]:
                            raise ValueError(
                                f"associativity fails at ({a}, {b}, {c})")
        inverse = [row.index(identity) for row in rows]
        abelian = all(rows[a][b] == rows[b][a]
                      for a in range(n) for b in range(a + 1, n))
        if names is None:
            names = tuple(f"g{i}" for i in range(n))
        return cls(n, rows, identity, tuple(inverse), tuple(names), abelian)

    def mult(self, a: int, b: int) -> int:
        return self.table[a][b]

    def index_of(self, name: str) -> int:
        return self.names.index(name)


def cyclic_group(n: int) -> GroupTable:
    if n < 1:
        raise ValueError(f"order must be positive, got {n}")
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    names = ["e"] + [f"a{i}" if i > 1 else "a" for i in range(1, n)]
    return GroupTable.from_table(table, names[:n])


def dihedral_group(n: int) -> GroupTable:
    """Order-2n dihedral group <a, b : b^2 = a^n = e, b a b = a^-1>.

    Elements are ordered e, a, .., a^(n-1), b, ba, .., ba^(n-1);
    index i < n is a^i and n + i is b*a^i.
    """
    if n < 3:
        raise ValueError(f"dihedral groups here need n >= 3, got {n}")
    size = 2 * n
    table = [[0] * size for _ in range(size)]
    for i in range(n):
        for j in range(n):
            table[i][j] = (i + j) % n                    # a^i a^j
            table[i][n + j] = n + (j - i) % n            # a^i (b a^j)
            table[n + i][j] = n + (i + j) % n            # (b a^i) a^j
            table[n + i][n + j] = (j - i) % n            # (b a^i)(b a^j)
    names = ["e"] + [f"a{i}" if i > 1 else "a" for i in range(1, n)]
    names += ["b"] + [f"ba{i}" if i > 1 else "ba" for i in range(1, n)]
    return GroupTable.from_table(table, names)


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
    table = [[index[tuple(x[y[i]] for i in range(n))] for y in elements]
             for x in elements]
    names = [_cycle_notation(p) for p in elements]
    return GroupTable.from_table(table, names)


def direct_product(g: GroupTable, h: GroupTable) -> GroupTable:
    pairs = [(a, b) for a in range(g.order) for b in range(h.order)]
    index = {p: i for i, p in enumerate(pairs)}
    table = [[index[(g.table[a1][a2], h.table[b1][b2])]
              for (a2, b2) in pairs] for (a1, b1) in pairs]
    names = [f"({g.names[a]},{h.names[b]})" for (a, b) in pairs]
    return GroupTable.from_table(table, names)


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
    conn: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if self.group.identity in self.conn:
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
    mu = {counts[x] for x in range(g.order)
          if x != g.identity and x not in spec.conn}
    if len(lam) > 1 or len(mu) > 1:
        return None
    params = DsrgParams(g.order, len(conn), counts[g.identity],
                        max(lam, default=0), max(mu, default=0))
    verified = try_verify_dsrg(cayley_graph(spec))
    if verified != params:
        raise AssertionError(
            f"criteria/verification mismatch: {params} vs {verified}")
    return params


def cayley_dsrg(spec: CayleySpec, label: str | None = None) -> ConstructionResult:
    """Cayley graph wrapped as a verified construction result."""
    adj = cayley_graph(spec)
    params = try_verify_dsrg(adj)
    if params is None:
        raise ValueError("the connection set does not satisfy the product criteria")
    names = ",".join(spec.group.names[s] for s in sorted(spec.conn))
    desc = label if label is not None else f"order={spec.group.order},S={{{names}}}"
    return ConstructionResult("cayley", desc, adj, params)


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
    _, k, t, _, _ = expected
    if not 0 < t < k:  # only the even case with lam = 1
        raise ValueError(f"parameters {expected} are not genuine (need "
                         f"0 < t < k); the even case requires lam >= 2")
    c = sigma_circulant(n_rot, _indicator(n_rot, range(1, rotations + 1)), 1)
    x = sigma_circulant(n_rot, _indicator(n_rot, range(rotations + 1)), -1)
    return _result("hobart_shaw", f"lam={lam},{parity}",
                   block_compose([[c, x], [x, c]]), expected)


def cayley_subset_scan(g: GroupTable, max_results: int | None = None
                       ) -> list[tuple[frozenset[int], DsrgParams]]:
    """Exhaustive scan over connection sets yielding genuine parameters.

    Subsets of the non-identity elements are visited in ascending bitmask
    order (so output order is reproducible) and kept when the product
    criteria succeed with 0 < t < k.  Refuses orders above SCAN_BOUND and a
    max_results below 1."""
    if max_results is not None and max_results < 1:
        raise InputError(f"max_results must be >= 1, got {max_results}")
    if g.order > SCAN_BOUND:
        raise BoundExceeded(
            f"group order {g.order} exceeds the scan bound {SCAN_BOUND}")
    non_identity = [x for x in range(g.order) if x != g.identity]
    found: list[tuple[frozenset[int], DsrgParams]] = []
    for mask in range(1, 1 << len(non_identity)):
        conn = frozenset(x for b, x in enumerate(non_identity)
                         if (mask >> b) & 1)
        params = cayley_criteria(CayleySpec(g, conn))
        if params is not None and params.is_genuine:
            found.append((conn, params))
            if max_results is not None and len(found) >= max_results:
                break
    return found
