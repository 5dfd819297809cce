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
fixed vertices), pruning with automorphisms discovered along the way: a
node skips the closure of its tried vertices under the stored
automorphisms that fix its fixed vertices.  Both searches read a coloring
through ``_cells`` (the members of each color) and turn two vertex orders
into a permutation (witness or automorphism) through ``_mapping``.  The
shells of a node are strided slices of its fixed vertices' joined row
strings, compared as one list.  Canonical matrices of two graphs are
equal exactly when the graphs are isomorphic.

Twins (vertices with identical in- and out-neighborhoods) are
interchangeable, so branching through a twin class only repeats work.
Canonical labeling therefore searches the twin quotient (the rows and
columns of one representative per class, cut out by ``_relabeled_rows``),
colored by class size, and expands its best leaf class by class;
twin-free graphs are searched as they are.  Certificate hashes include
``CERT_VERSION``, which changes whenever canonical matrices do.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from .matrix import (BinMatrix, InputError, PermSpec, _relabeled_rows,
                     conjugate_by_perm)

DEFAULT_BOUND = 48

# Hashed into every certificate; bumped whenever canonical matrices change.
# Version 2 labels graphs with twins through their twin quotient.
CERT_VERSION = 2

_MAX_STORED_AUTOMORPHISMS = 64


class BoundExceeded(InputError):
    """An order limit was exceeded."""


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

    Color ids need not be consecutive: a round splits nothing when its
    distinct signatures are as many as the colors in use.
    """
    rows, cols = graph
    n = len(colors)
    base = n + 1
    base2 = base * base
    ncolors = max(colors) + 1
    used = len(set(colors))
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
        if len(values) == used or len(values) == n:
            return colors
        # the leading digit of a signature is its parent color, and ids of
        # one parent are consecutive
        lead = base2 ** len(splitters)
        parents = [s // lead for s in values]
        splitters = [i for i in range(len(values) - 1)
                     if parents[i] == parents[i + 1]]
        ncolors = used = len(values)


def _individualize(colors: Sequence[int], v: int) -> list[int]:
    """Split {v} off as its own cell, placed just before its old cell."""
    cv = colors[v]
    return [c + 1 if (c > cv or (c == cv and w != v)) else c
            for w, c in enumerate(colors)]


def _cells(colors: Sequence[int]) -> list[list[int]]:
    """Members of each color class in ascending order, indexed by color."""
    cells: list[list[int]] = [[] for _ in range(max(colors) + 1)]
    for v, c in enumerate(colors):
        cells[c].append(v)
    return cells


def _target_cell(cells: list[list[int]]) -> int | None:
    """Smallest non-singleton color class, ties broken by lowest id."""
    return min((c for c, m in enumerate(cells) if len(m) > 1),
               key=lambda c: len(cells[c]), default=None)


def _fixed_prefix(cells: list[list[int]]) -> list[int]:
    """Members of the leading singleton cells, in color order."""
    return [m[0] for m in itertools.takewhile(lambda m: len(m) == 1, cells)]


def _mapping(source: Sequence[int], target: Sequence[int]) -> tuple[int, ...]:
    """Images of the permutation that takes source[i] to target[i]."""
    images = [0] * len(source)
    for u, v in zip(source, target):
        images[u] = v
    return tuple(images)


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

    def search(colors_a: list[int], colors_b: list[int]) -> PermSpec | None:
        nonlocal nodes_left
        if max(colors_a) == n - 1:
            # discrete: a coloring inverted is its vertices in color order
            witness = PermSpec(_mapping(_mapping(colors_a, range(n)),
                                        _mapping(colors_b, range(n))))
            return witness if conjugate_by_perm(a, witness) == b else None
        if nodes_left <= 0:
            raise _SearchBudgetExceeded
        cells_a = _cells(colors_a)
        cell = _target_cell(cells_a)
        # a's child is the same for every candidate v: refine it once
        trace: list[list[int]] = []
        child_a = _refine(ga, _individualize(colors_a, cells_a[cell][0]),
                          [cell], trace)
        for v in _cells(colors_b)[cell]:
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
    witness = PermSpec(_mapping(order_a, order_b))
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
    that reproduces the best matrix witnesses an automorphism, which is
    stored, and lets the search unwind straight to the node where the
    current path left the best leaf's path, since the automorphism maps the
    abandoned subtree onto already-explored ground.  A node skips each
    vertex of its target cell in the closure of the vertices it has tried
    under the stored automorphisms that fix its fixed vertices: those
    vertices lie in the orbits of tried ones, whose subtrees the
    automorphisms map onto explored ground too.

    Rows are kept as big-endian binary strings.  The fixed ones joined and
    cut at each fixed column v by the stride-n slice from n-1-v spell the
    fixed submatrix column by column, and each shell is two slices of that.
    Shell m is a '0'/'1' string of 2m + 1 characters at every node, so
    lists of shells compare like the binary numbers they spell.
    """

    _NO_JUMP = 1 << 30

    def __init__(self, graph: tuple[tuple[int, ...], tuple[int, ...]],
                 colors: list[int]):
        self.n = len(colors)
        self.graph = graph
        # bit v of vertex u's row is character n-1-v of its string
        self.row_strings = list(map(f"{{:0{self.n}b}}".format, graph[0]))
        self.colors = colors
        self.best_shells: list[str] | None = None
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

    def _shells(self, fixed: list[int]) -> list[str]:
        """Shell m: row fixed[m] at fixed[:m+1], then column fixed[m] at
        fixed[:m].  flat[j*size + i] is entry (fixed[i], fixed[j])."""
        n, size = self.n, len(fixed)
        spelled = "".join([self.row_strings[u] for u in fixed])
        flat = "".join([spelled[n - 1 - v::n] for v in fixed])
        return [flat[m:m * size + m + 1:size] + flat[m * size:m * size + m]
                for m in range(size)]

    def _visit(self, colors: list[int], depth: int) -> int:
        """Explore one node; returns the depth to unwind to (backjump)."""
        cells = _cells(colors)
        fixed = _fixed_prefix(cells)
        shells = self._shells(fixed)
        if self.best_shells is not None and \
                shells > self.best_shells[:len(shells)]:
            return self._NO_JUMP
        if len(fixed) == self.n:
            if self.best_shells is None or shells < self.best_shells:
                self.best_shells = shells
                self.best_order = fixed
                self.best_branches = list(self.branches)
            elif shells == self.best_shells:
                assert self.best_order is not None
                if len(self.autos) < _MAX_STORED_AUTOMORPHISMS:
                    auto = _mapping(self.best_order, fixed)
                    if auto not in self.autos and auto != tuple(range(self.n)):
                        self.autos.append(auto)
                common = 0
                limit = min(len(self.branches), len(self.best_branches))
                while common < limit and \
                        self.branches[common] == self.best_branches[common]:
                    common += 1
                return common
            return self._NO_JUMP
        cell = _target_cell(cells)
        assert cell is not None
        # the tried vertices' orbits under the stored automorphisms that fix
        # every fixed vertex; automorphisms are only found by visits
        orbits: set[int] = set()
        for v in cells[cell]:
            if v in orbits:
                continue
            child = _refine(self.graph, _individualize(colors, v), [cell])
            assert child is not None
            self.branches.append(v)
            jump = self._visit(child, depth + 1)
            self.branches.pop()
            if jump < depth:
                return jump
            orbits.add(v)
            if self.autos:
                gens = [g for g in self.autos if all(g[x] == x for x in fixed)]
                size = 0
                while size < len(orbits):
                    size = len(orbits)
                    orbits |= {g[u] for g in gens for u in orbits}
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
        quotient = (_relabeled_rows(rows, reps), _relabeled_rows(cols, reps))
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
