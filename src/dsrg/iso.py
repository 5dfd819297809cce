"""Exact digraph isomorphism testing and canonical labeling at desk scale.

The engine is classical individualization-refinement: vertices are colored
by iterated in/out neighborhood histograms, and when refinement stalls a
vertex of the smallest non-singleton color class is individualized and the
search branches.  Refinement is driven by splitter cells: each round
counts neighbors only in the pieces of the cells that have just split,
all but the last piece of each, which yields the same colorings as
recounting against every cell.  The root starts from every cell; a child
node starts from its new singleton alone, since its parent coloring was
already stable.  ``are_isomorphic`` runs the two graphs in lockstep for
at most one search node per vertex and then compares canonical forms;
either way it returns an explicit relabeling witness, checked by
``conjugate_by_perm``.  In lockstep, the first graph is refined once per
node with each round's sorted signatures recorded in a trace, and the
second graph is refined for each candidate against that trace.
``canonical_form`` minimizes the relabeled matrix over the leaves of the
search tree (in shell order: row and column fragments of the leading
fixed vertices), pruning with automorphisms discovered along the way.
The shells of a node are gathered from per-vertex row and column bit
strings in one pass and compared as one list.  Canonical matrices of two
graphs are equal exactly when the graphs are isomorphic.

Twins (vertices with identical in- and out-neighborhoods) are
interchangeable, so branching through a twin class only repeats work.
Canonical labeling therefore searches the twin quotient, one vertex per
class colored by the class size, and expands its best leaf class by
class; twin-free graphs are searched as they are.  Certificate hashes
include ``CERT_VERSION``, which changes whenever canonical matrices do.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Sequence

from .matrix import (BinMatrix, InputError, PermSpec, _relabeled_rows,
                     conjugate_by_perm)

DEFAULT_BOUND = 48

# Hashed into every certificate; bumped whenever canonical matrices change.
# Version 2 labels graphs with twins through their twin quotient.
CERT_VERSION = 2

_MAX_STORED_AUTOMORPHISMS = 64


class BoundExceeded(InputError):
    """An order limit was exceeded; pass a larger bound explicitly."""


def _check_bound(n: int, bound: int) -> None:
    if n > bound:
        raise BoundExceeded(
            f"order {n} exceeds the isomorphism bound {bound}; "
            f"pass a larger bound explicitly (runtime grows quickly)")


def _graph_bits(a: BinMatrix) -> tuple[tuple[int, ...], tuple[int, ...]]:
    return a.rows, a.transpose().rows


def _refine(graph: tuple[tuple[int, ...], tuple[int, ...]],
            colors: Sequence[int], first: Sequence[int] | None = None,
            trace: list[list[int]] | None = None) -> list[int] | None:
    """Stable color refinement of one graph.

    A vertex's signature is its color followed by its out and in counts
    against each splitter cell, as digits in base n + 1, and the new color
    ids rank the distinct signatures.  The first round uses the cells in
    ``first`` as splitters, by default every cell.  A discrete coloring is
    stable and is returned at once.

    Round r's sorted signature list goes to ``trace[r]``: a round beyond
    the recorded ones appends it, and a recorded round is compared with it
    instead, returning None at the first difference.  Two graphs are
    refined jointly by refining the first with an empty trace and the
    second against it.  Each round's ids depend only on the sorted list, so
    while the lists agree the second graph gets the ids that a union of
    both graphs' signatures would give; a difference means that no
    isomorphism can respect the colorings.

    Each later round uses as splitters the pieces of the cells that split
    in the round before, except the last (highest id) piece of each.  After
    a round, counts against each cell of the coloring it started from are
    constant on every new cell (and equal across jointly refined graphs):
    those against a splitter are signature digits, and those against any
    other cell were constant already.  So within a cell, counts against the
    last piece of a split cell are those against the old cell minus those
    against its other pieces, whose digits come just before them.  They
    never decide between two signatures, and the partition, the color ids
    and the outcome of every trace check are those of a round with every
    piece as a splitter.  Dropping the largest piece instead (Hopcroft's
    rule) would move digits and reorder colors, and a mask costs the same
    two popcounts per vertex whatever its size.

    A child node passes ``first=[cell]``: ``_individualize`` left its
    vertex v alone at id ``cell`` and the rest of v's old cell at
    ``cell + 1``, the old cell's last piece, and the parent coloring was
    stable, so by the same argument counts against {v} alone suffice.
    """
    rows, cols = graph
    n = len(colors)
    base = n + 1
    base2 = base * base
    ncolors = max(colors) + 1
    splitters: Sequence[int] = range(ncolors) if first is None else first
    rounds = 0
    while True:
        masks = [0] * ncolors
        for v, c in enumerate(colors):
            masks[c] |= 1 << v
        masks = [masks[c] for c in splitters]
        sigs = []
        for v in range(n):
            rv = rows[v]
            cv = cols[v]
            s = colors[v]
            for m in masks:
                s = s * base2 + (rv & m).bit_count() * base \
                    + (cv & m).bit_count()
            sigs.append(s)
        if trace is not None:
            ordered = sorted(sigs)
            if rounds == len(trace):
                trace.append(ordered)
            elif ordered != trace[rounds]:
                return None
            rounds += 1
        values = sorted(set(sigs))
        rank = {v: i for i, v in enumerate(values)}
        colors = [rank[s] for s in sigs]
        if len(values) == ncolors or len(values) == n:
            return colors
        # the leading digit of a signature is its parent color, and ids of
        # one parent are consecutive
        lead = base2 ** len(splitters)
        parents = [s // lead for s in values]
        splitters = [i for i in range(len(values) - 1)
                     if parents[i] == parents[i + 1]]
        ncolors = len(values)


def _individualize(colors: Sequence[int], v: int) -> list[int]:
    """Split {v} off as its own cell, placed just before its old cell."""
    cv = colors[v]
    return [c + 1 if (c > cv or (c == cv and w != v)) else c
            for w, c in enumerate(colors)]


def _cell_sizes(colors: Sequence[int]) -> list[int]:
    sizes = [0] * (max(colors) + 1)
    for c in colors:
        sizes[c] += 1
    return sizes


def _target_cell(colors: Sequence[int]) -> int | None:
    """Smallest non-singleton color class, ties broken by lowest id."""
    sizes = _cell_sizes(colors)
    best = None
    for c, s in enumerate(sizes):
        if s > 1 and (best is None or s < sizes[best]):
            best = c
    return best


# Lockstep search nodes per vertex before are_isomorphic compares canonical
# forms instead.  Isomorphic pairs rarely need more than n nodes; a
# non-isomorphic pair of equal refinement can need many times more, where
# two canonical forms cost a few milliseconds.
_MAPPING_SEARCH_BUDGET = 1


class _SearchBudgetExceeded(Exception):
    pass


def are_isomorphic(a: BinMatrix, b: BinMatrix,
                   bound: int = DEFAULT_BOUND) -> PermSpec | None:
    """Search for a relabeling p with conjugate_by_perm(a, p) == b.

    Returns the witness permutation, or None when the graphs are not
    isomorphic.  A direct refinement-guided mapping search runs first;
    pairs that exhaust its budget of _MAPPING_SEARCH_BUDGET nodes per
    vertex (highly symmetric or non-isomorphic ones) are settled by
    comparing canonical forms instead (whose labelings also yield the
    witness), so the test is exhaustive either way.
    """
    if a.n != b.n:
        return None
    _check_bound(a.n, bound)
    n = a.n
    if a == b:
        return PermSpec.identity(n)
    ga = _graph_bits(a)
    gb = _graph_bits(b)
    trace: list[list[int]] = []
    root_a = _refine(ga, [0] * n, trace=trace)
    root_b = _refine(gb, [0] * n, trace=trace)
    if root_b is None:
        return None

    nodes_left = _MAPPING_SEARCH_BUDGET * n

    def verified(colors_a: list[int], colors_b: list[int]) -> PermSpec | None:
        by_color_b = [0] * n
        for v, c in enumerate(colors_b):
            by_color_b[c] = v
        witness = PermSpec(tuple(by_color_b[c] for c in colors_a))
        return witness if conjugate_by_perm(a, witness) == b else None

    def search(colors_a: list[int], colors_b: list[int]) -> PermSpec | None:
        nonlocal nodes_left
        cell = _target_cell(colors_a)
        if cell is None:
            return verified(colors_a, colors_b)
        if nodes_left <= 0:
            raise _SearchBudgetExceeded
        u = min(v for v in range(n) if colors_a[v] == cell)
        # a's child is the same for every candidate v: refine it once
        trace: list[list[int]] = []
        child_a = _refine(ga, _individualize(colors_a, u), [cell], trace)
        for v in sorted(w for w in range(n) if colors_b[w] == cell):
            nodes_left -= 1
            child_b = _refine(gb, _individualize(colors_b, v), [cell], trace)
            if child_b is None:
                continue
            found = search(child_a, child_b)
            if found is not None:
                return found
        return None

    try:
        return search(root_a, root_b)
    except _SearchBudgetExceeded:
        pass
    canon_a, order_a = _canonical(ga)
    canon_b, order_b = _canonical(gb)
    if canon_a != canon_b:
        return None
    images = [0] * n
    for pos in range(n):
        images[order_a[pos]] = order_b[pos]
    witness = PermSpec(tuple(images))
    if conjugate_by_perm(a, witness) != b:
        raise AssertionError("equal canonical forms gave an invalid witness")
    return witness


@dataclass(frozen=True)
class IsoCertificate:
    """Canonical relabeling of a graph plus a 64-bit digest of it."""

    canonical: BinMatrix
    cert_hash: str
    order: int


def _cert_hash(canonical: BinMatrix) -> str:
    digest = hashlib.blake2b(digest_size=8)
    digest.update(bytes([CERT_VERSION]))
    digest.update(canonical.n.to_bytes(4, "little"))
    digest.update(canonical.to_bytes())
    return digest.hexdigest()


class _CanonicalSearch:
    """Shell-minimal leaf of the individualization-refinement tree.

    The labeled matrix of a leaf is compared shell by shell (row fragment
    then column fragment of each newly fixed vertex), which is exactly the
    part of the matrix determined by the leading singleton cells; branches
    whose fixed shells already exceed the best leaf are pruned.  A leaf
    that reproduces the best matrix witnesses an automorphism: it prunes
    siblings within one orbit and lets the search unwind straight to the
    node where the current path left the best leaf's path, since the
    automorphism maps the abandoned subtree onto already-explored ground.
    """

    _NO_JUMP = 1 << 30

    def __init__(self, graph: tuple[tuple[int, ...], tuple[int, ...]],
                 colors: list[int]):
        self.n = len(colors)
        self.graph = graph
        # bit j of vertex u's row (column) is character j of its string
        spec = "{:0%db}" % self.n
        self.row_chars = [spec.format(r)[::-1] for r in graph[0]]
        self.col_chars = [spec.format(c)[::-1] for c in graph[1]]
        self.colors = colors
        self.best_shells: list[int] | None = None
        self.best_order: list[int] | None = None
        self.best_branches: list[int] = []
        self.branches: list[int] = []
        self.autos: list[tuple[int, ...]] = []

    def run(self) -> list[int]:
        """Vertices in canonical order: position i holds order[i]."""
        start = _refine(self.graph, self.colors)
        assert start is not None
        self._visit(start, 0)
        assert self.best_order is not None
        return self.best_order

    def _fixed_prefix(self, colors: list[int]) -> list[int]:
        ncolors = max(colors) + 1
        counts = [0] * ncolors
        member = [0] * ncolors
        for v, c in enumerate(colors):
            counts[c] += 1
            member[c] = v
        prefix = []
        for c in range(ncolors):
            if counts[c] != 1:
                break
            prefix.append(member[c])
        return prefix

    def _shells(self, fixed: list[int]) -> list[int]:
        """Shell of each fixed vertex: its row at fixed[:m+1], then its
        column at fixed[:m], read as one binary number."""
        if not fixed:
            return []
        # one index makes itemgetter return a character, not a tuple;
        # join reads both alike
        gather = itemgetter(*fixed)
        return [int("".join(gather(self.row_chars[u])[:m + 1])
                    + "".join(gather(self.col_chars[u])[:m]), 2)
                for m, u in enumerate(fixed)]

    def _visit(self, colors: list[int], depth: int) -> int:
        """Explore one node; returns the depth to unwind to (backjump)."""
        fixed = self._fixed_prefix(colors)
        shells: list[int] = []
        if self.best_shells is not None:
            shells = self._shells(fixed)
            if shells > self.best_shells[:len(shells)]:
                return self._NO_JUMP
        if len(fixed) == self.n:
            if not shells:
                shells = self._shells(fixed)
            if self.best_shells is None or shells < self.best_shells:
                self.best_shells = shells
                self.best_order = fixed
                self.best_branches = list(self.branches)
            elif shells == self.best_shells:
                assert self.best_order is not None
                if len(self.autos) < _MAX_STORED_AUTOMORPHISMS:
                    images = [0] * self.n
                    for pos in range(self.n):
                        images[self.best_order[pos]] = fixed[pos]
                    auto = tuple(images)
                    if auto not in self.autos and auto != tuple(range(self.n)):
                        self.autos.append(auto)
                common = 0
                limit = min(len(self.branches), len(self.best_branches))
                while common < limit and \
                        self.branches[common] == self.best_branches[common]:
                    common += 1
                return common
            return self._NO_JUMP
        cell = _target_cell(colors)
        assert cell is not None
        members = sorted(v for v in range(self.n) if colors[v] == cell)
        fixed_set = set(fixed)
        parent = list(range(self.n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        known = 0
        tried: set[int] = set()
        for v in members:
            if known < len(self.autos):
                # fold newly discovered generators into the orbit partition
                for g in self.autos[known:]:
                    if all(g[x] == x for x in fixed_set):
                        for w in range(self.n):
                            rw, rg = find(w), find(g[w])
                            if rw != rg:
                                parent[rg] = rw
                known = len(self.autos)
                tried = {find(u) for u in tried}
            root = find(v)
            if root in tried:
                continue
            tried.add(root)
            child = _refine(self.graph, _individualize(colors, v), [cell])
            assert child is not None
            self.branches.append(v)
            jump = self._visit(child, depth + 1)
            self.branches.pop()
            if jump < depth:
                return jump
        return self._NO_JUMP


def _canonical(graph: tuple[tuple[int, ...], tuple[int, ...]]
               ) -> tuple[BinMatrix, list[int]]:
    """Canonical matrix and order of the graph with bits (rows, cols).

    Twins (vertices with equal rows and equal columns) are collapsed to
    one representative each, keeping its loop bit, which records whether
    the members of its class are mutually adjacent.  The quotient is
    searched with its vertices colored by class size, and the best leaf is
    expanded class by class, members in ascending label order.  Twins are
    interchangeable, so the expansion is the same for every relabeling,
    and the quotient with its class sizes can be read back off the
    expanded matrix.  A twin-free graph is searched directly.
    """
    rows, cols = graph
    n = len(rows)
    classes: dict[tuple[int, int], list[int]] = {}
    for v in range(n):
        classes.setdefault((rows[v], cols[v]), []).append(v)
    if len(classes) == n:
        order = _CanonicalSearch(graph, [0] * n).run()
    else:
        members = list(classes.values())
        reps = [m[0] for m in members]
        quotient = tuple(
            tuple(sum(((bits[r] >> s) & 1) << j for j, s in enumerate(reps))
                  for r in reps)
            for bits in (rows, cols))
        sizes = sorted({len(m) for m in members})
        colors = [sizes.index(len(m)) for m in members]
        order = [v for c in _CanonicalSearch(quotient, colors).run()
                 for v in members[c]]
    return BinMatrix(n, _relabeled_rows(rows, order)), order


def canonical_form(a: BinMatrix, bound: int = DEFAULT_BOUND) -> IsoCertificate:
    """Distinguished representative of the isomorphism class of ``a``.

    Invariant under relabeling: canonical_form(a) equals
    canonical_form(conjugate_by_perm(a, p)) for every permutation p, and
    two graphs within the bound are isomorphic iff their canonical
    matrices coincide.
    """
    _check_bound(a.n, bound)
    canonical, _ = _canonical(_graph_bits(a))
    return IsoCertificate(canonical, _cert_hash(canonical), a.n)


def classify(graphs: Iterable[BinMatrix], bound: int = DEFAULT_BOUND
             ) -> list[tuple[IsoCertificate, list[int]]]:
    """Partition input indices into isomorphism classes.

    Each class comes with its certificate, which every member shares.
    Graphs of different orders are trivially in distinct classes.  Classes
    are ordered by (order, canonical matrix); members keep input order.
    """
    classes: dict[tuple[int, tuple[int, ...]],
                  tuple[IsoCertificate, list[int]]] = {}
    for idx, g in enumerate(graphs):
        cert = canonical_form(g, bound)
        key = (cert.order, cert.canonical.rows)
        classes.setdefault(key, (cert, []))[1].append(idx)
    return [classes[key] for key in sorted(classes)]


def find_commuting_transposer(a: BinMatrix) -> PermSpec | None:
    """Permutation p whose matrix P satisfies P*A = A^T = A*P, if any.

    P*A = A^T pins row p(i) of A to column i of A, so column i takes the
    first unused row equal to it.  The other side needs no check: P*A = A^T
    transposes to A^T*P^T = A, and P^T = P^-1 gives A*P = A^T (so p is
    also an automorphism of A).  A greedy O(n^2) pass with no search, so no
    order bound.
    """
    by_row: dict[int, list[int]] = {}
    for w, row in enumerate(a.rows):
        by_row.setdefault(row, []).append(w)
    # rows with equal values are interchangeable, so handing out equal rows
    # in ascending order finds a bijection whenever one exists and never
    # needs to backtrack
    supply = {value: iter(ws) for value, ws in by_row.items()}
    images = []
    for value in a.transpose().rows:
        w = next(supply.get(value, iter(())), None)
        if w is None:
            return None
        images.append(w)
    return PermSpec(tuple(images))
