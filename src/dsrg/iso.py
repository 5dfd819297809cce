"""Exact digraph isomorphism testing and canonical labeling at desk scale.

The engine is classical individualization-refinement: vertices are colored
by iterated in/out neighborhood histograms, and when refinement stalls a
vertex of the smallest non-singleton color class is individualized and the
search branches.  Refinement (``_refine``) counts neighbors only against
the cells that have just split, reading them off the byte planes of
per-cell sums of packed arc fields; a child node starts from its new
singleton alone, whose sum is its vertex's arcs.  ``are_isomorphic`` runs
the two graphs in lockstep for at most one search node per vertex,
refining the second against the first one's trace of sorted signatures,
and then compares canonical forms; either way its relabeling witness is
checked by relabeling the first graph's rows.  ``canonical_form``
minimizes the relabeled matrix over the leaves of the search tree in
shell order (``_CanonicalSearch``), pruning with every automorphism it
finds; a discrete leaf is settled by one string compare with the best
leaf.  Canonical matrices of two graphs are equal exactly when the graphs
are isomorphic.

Twins (vertices with identical in- and out-neighborhoods) are
interchangeable, so branching through a twin class only repeats work.
Canonical labeling therefore searches the twin quotient (the rows and
columns of one representative per class), colored by class size, and
expands its best leaf class by class; a twin-free graph is its own
quotient.  ``classify`` searches each distinct quotient and coloring once
per call: a block construction and its Kronecker expansions share one.
Certificate hashes include ``CERT_VERSION``, which changes whenever
canonical matrices do.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Sequence

from .matrix import (BinMatrix, BoundExceeded, PermSpec, _bit_bytes,
                     _relabeled_rows, conjugate_by_perm)

DEFAULT_BOUND = 48

# Hashed into every certificate; bumped whenever canonical matrices change.
# Version 2 labels graphs with twins through their twin quotient.
CERT_VERSION = 2

def _check_bound(n: int, bound: int) -> None:
    if n > bound:
        raise BoundExceeded(
            f"order {n} exceeds the isomorphism bound {bound}; "
            f"pass a larger bound explicitly (runtime grows quickly)")


def _graph_bits(a: BinMatrix) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(rows, arcs): field v of arcs[u], 2w bytes from bit 16wv, is
    A[v][u] * 256^w + A[u][v], u's share of v's out- and in-count."""
    n, (w, bits) = a.n, _bit_bytes(a)
    size = 2 * w * n
    wide = bytearray(n * size)
    wide[::2 * w] = bits
    # the transpose: column u, bits[u::n], puts entry (v, u) at u*n + v
    wide[w::2 * w] = b"".join([bits[u::n] for u in range(n)])
    return a.rows, tuple(int.from_bytes(wide[s:s + size], "little")
                         for s in range(0, n * size, size))


@functools.cache
def _byte_planes(w: int) -> itemgetter:
    """Cuts a little-endian spelling of 2w-byte fields into its byte
    planes, high byte first, in one call: a comprehension per splitter
    made refinement at order 9 a tenth slower."""
    return itemgetter(*[slice(b, None, 2 * w) for b in range(2 * w)][::-1])


def _refine(graph: tuple[tuple[int, ...], tuple[int, ...]],
            colors: Sequence[int], first: Sequence[int] | None = None,
            trace: list[list[bytes]] | None = None) -> list[int] | None:
    """Stable color refinement of one graph.

    A vertex's signature is its color followed by its out and in counts
    against each splitter cell, and the new color ids rank the distinct
    signatures.  One pass adds up the ``arcs`` of each cell; no count
    exceeds n, so no field carries, and field v of cell c's sum holds v's
    counts against c.  Each splitter's sum, spelled little-endian, is cut
    into its 2w byte planes, high byte first, after the w planes of the
    colors; joined, the planes hold v's signature at every n-th byte from
    v, each digit w bytes big-endian.  So byte order on signatures is the
    numeric order of their digits in base n + 1: ranks, parent colors (the
    first w bytes) and trace checks are those of the digits.  The first
    round uses the cells in ``first`` as splitters, by default every cell.
    A discrete coloring is stable and is returned at once.

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
    rule) would move digits and reorder colors, and a sum costs the same
    2w planes whatever the size of its cell.

    A child node passes ``first=[cell]``: ``_individualize`` left its
    vertex v alone at id ``cell`` and the rest of v's old cell at
    ``cell + 1``, the old cell's last piece, and the parent coloring was
    stable, so by the same argument counts against {v} alone suffice.
    Every cell in ``first`` must be a singleton: the first round takes its
    sum to be its vertex's arcs and adds up no other cell.

    Color ids need not be consecutive: a round splits nothing when its
    distinct signatures are as many as the colors in use.
    """
    arcs = graph[1]
    n = len(colors)
    w = (n.bit_length() + 7) // 8
    size = 2 * w * n
    cut = _byte_planes(w)
    ncolors = max(colors) + 1
    used = len(set(colors))
    splitters: Sequence[int] = range(ncolors) if first is None else first
    sums = None if first is None else {c: arcs[colors.index(c)] for c in first}
    rounds = 0
    while True:
        if sums is None:
            sums = [0] * ncolors
            for arc, c in zip(arcs, colors):
                sums[c] += arc
        planes = [bytes(colors)] if w == 1 else \
            [bytes([c >> 8 * b & 255 for c in colors])
             for b in range(w - 1, -1, -1)]
        for c in splitters:
            planes += cut(sums[c].to_bytes(size, "little"))
        flat = b"".join(planes)
        sigs = [flat[v::n] for v in range(n)]
        if trace is None:
            values = sorted(set(sigs))
        else:
            ordered = sorted(sigs)
            if rounds == len(trace):
                trace.append(ordered)
            elif ordered != trace[rounds]:
                return None
            rounds += 1
            values = list(dict.fromkeys(ordered))
        rank = {v: i for i, v in enumerate(values)}
        colors = [rank[s] for s in sigs]
        if len(values) == used or len(values) == n:
            return colors
        # the leading w bytes of a signature are its parent color, and ids
        # of one parent are consecutive
        parents = [s[:w] for s in values]
        splitters = [i for i in range(len(values) - 1)
                     if parents[i] == parents[i + 1]]
        ncolors = used = len(values)
        sums = None


def _individualize(colors: Sequence[int], v: int) -> list[int]:
    """Split {v} off as its own cell, placed just before its old cell."""
    cv = colors[v]
    child = [c + (c >= cv) for c in colors]
    child[v] = cv
    return child


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
    trace: list[list[bytes]] = []
    root_a = _refine(ga, [0] * n, trace=trace)
    root_b = _refine(gb, [0] * n, trace=trace)
    if root_b is None:
        return None

    nodes_left = _MAPPING_SEARCH_BUDGET * n
    # depth-first, one frame per open node: a's child, the target cell, b's
    # coloring, the round trace and b's untried candidates
    stack: list[tuple] = []
    colors_a, colors_b = root_a, root_b
    while True:
        if max(colors_a) == n - 1:
            # discrete: a coloring inverted is its vertices in color order;
            # a's rows relabeled by the inverse of order_a -> order_b are b's
            order_a = _mapping(colors_a, range(n))
            order_b = _mapping(colors_b, range(n))
            if _relabeled_rows(a.rows, _mapping(order_b, order_a)) == b.rows:
                return PermSpec(_mapping(order_a, order_b))
        elif nodes_left <= 0:
            break
        else:
            cells_a = _cells(colors_a)
            cell = _target_cell(cells_a)
            # a's child is the same for every candidate v: refine it once
            trace = []
            child_a = _refine(ga, _individualize(colors_a, cells_a[cell][0]),
                              [cell], trace)
            stack.append((child_a, cell, colors_b, trace,
                          iter(_cells(colors_b)[cell])))
        colors_b = None
        while stack and colors_b is None:
            colors_a, cell, parent_b, trace, untried = stack[-1]
            v = next(untried, None)
            if v is None:
                stack.pop()
                continue
            nodes_left -= 1
            colors_b = _refine(gb, _individualize(parent_b, v), [cell], trace)
        if colors_b is None:
            return None
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
    lists of shells compare like the binary numbers they spell.  At a
    discrete leaf that string is the whole relabeled matrix: one compare
    with the best leaf's settles an automorphism, and a twin-free graph's
    canonical rows are read off the best leaf's.
    """

    _NO_JUMP = 1 << 30

    def __init__(self, graph: tuple[tuple[int, ...], tuple[int, ...]],
                 colors: Sequence[int]):
        self.n = len(colors)
        self.graph = graph
        # bit v of vertex u's row is character n-1-v of its string
        self.row_strings = list(map(f"{{:0{self.n}b}}".format, graph[0]))
        self.colors = colors
        self.best_flat = ""
        self.best_shells: list[str] | None = None
        self.best_order: tuple[int, ...] = ()
        self.best_branches: list[int] = []
        self.branches: list[int] = []
        self.autos: list[tuple[int, ...]] = []

    def run(self) -> tuple[int, ...]:
        """Vertices in canonical order: position i holds order[i]."""
        start = _refine(self.graph, self.colors)
        assert start is not None
        self._visit(start, 0)
        return self.best_order

    def _flat(self, fixed: Sequence[int]) -> str:
        """flat[j*len(fixed) + i] is entry (fixed[i], fixed[j])."""
        n = self.n
        spelled = "".join([self.row_strings[u] for u in fixed])
        return "".join([spelled[n - 1 - v::n] for v in fixed])

    def _shells(self, fixed: Sequence[int], flat: str = "") -> list[str]:
        """Shell m: row fixed[m] at fixed[:m+1], then column fixed[m] at
        fixed[:m], cut from ``flat``, by default ``_flat(fixed)``."""
        size = len(fixed)
        flat = flat or self._flat(fixed)
        return [flat[m:m * size + m + 1:size] + flat[m * size:m * size + m]
                for m in range(size)]

    def _visit(self, colors: list[int], depth: int) -> int:
        """Explore one node; returns the depth to unwind to (backjump)."""
        if max(colors) == self.n - 1:
            # a discrete leaf: its vertices in color order
            order = _mapping(colors, range(self.n))
            flat = self._flat(order)
            if flat == self.best_flat:
                auto = _mapping(self.best_order, order)
                if auto not in self.autos and auto != tuple(range(self.n)):
                    self.autos.append(auto)
                common = 0
                limit = min(len(self.branches), len(self.best_branches))
                while common < limit and \
                        self.branches[common] == self.best_branches[common]:
                    common += 1
                return common
            shells = self._shells(order, flat)
            if self.best_shells is None or shells < self.best_shells:
                self.best_flat, self.best_shells = flat, shells
                self.best_order = order
                self.best_branches = list(self.branches)
            return self._NO_JUMP
        cells = _cells(colors)
        fixed = _fixed_prefix(cells)
        shells = self._shells(fixed)
        if self.best_shells is not None and \
                shells > self.best_shells[:len(shells)]:
            return self._NO_JUMP
        cell = _target_cell(cells)
        assert cell is not None
        # the tried vertices' orbits under the stored automorphisms fixing
        # every fixed vertex; after each visit (which alone finds them), new
        # ones act on every member and old ones on new members only
        orbits: set[int] = set()
        gens: list[tuple[int, ...]] = []
        known = 0
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
            fresh = {v}
            if len(self.autos) > known:
                new = [g for g in self.autos[known:]
                       if all(g[x] == x for x in fixed)]
                known, gens = len(self.autos), gens + new
                fresh = orbits if new else fresh
            while fresh and gens:
                fresh = {g[u] for g in gens for u in fresh} - orbits
                orbits |= fresh
        return self._NO_JUMP


def _canonical(graph: tuple[tuple[int, ...], tuple[int, ...]],
               memo: dict | None = None) -> tuple[BinMatrix, list[int]]:
    """Canonical matrix and order of the graph with bits (rows, arcs).

    Twins (vertices with equal rows and columns, so equal arcs) are
    collapsed to one representative each; twins are never adjacent, as
    equal rows give A[u][v] = A[v][v] = 0.  The quotient is searched with
    its vertices colored by class size, and the best leaf is expanded class
    by class, members in ascending label order.  Twins are interchangeable,
    so the expansion is the same for every relabeling, and the quotient
    with its class sizes can be read back off the expanded matrix.  A
    twin-free graph is its own quotient: it is searched on its own bits,
    and its canonical rows are read off the best leaf's string.  A search
    depends only on the quotient's rows and colors: ``memo``, a dict the
    caller owns, keeps its best order and canonical rows under them.
    """
    rows, arcs = graph
    n = len(rows)
    classes: dict[int, list[int]] = {}
    for v, arc in enumerate(arcs):
        classes.setdefault(arc, []).append(v)
    members = list(classes.values())
    q = len(members)
    quotient = rows if q == n else \
        _relabeled_rows(rows, [m[0] for m in members])
    sizes = sorted({len(m) for m in members})
    colors = tuple(sizes.index(len(m)) for m in members)
    memo = {} if memo is None else memo
    if (quotient, colors) not in memo:
        search = _CanonicalSearch(graph if q == n else _graph_bits(
            BinMatrix(q, quotient)), colors)
        best, flat = search.run(), search.best_flat
        memo[quotient, colors] = best, tuple(
            int(flat[(q - 1) * q + r::-q], 2) for r in range(q))
    best, canonical = memo[quotient, colors]
    order = [v for c in best for v in members[c]]
    return BinMatrix(n, canonical if q == n else
                     _relabeled_rows(rows, order)), order


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
    Every order is checked against the bound before any graph is labeled,
    and each distinct twin quotient and coloring is searched once.
    """
    graphs = list(graphs)
    for g in graphs:
        _check_bound(g.n, bound)
    classes: dict[tuple[int, tuple[int, ...]],
                  tuple[IsoCertificate, list[int]]] = {}
    memo: dict = {}
    for idx, g in enumerate(graphs):
        canonical, _ = _canonical(_graph_bits(g), memo)
        cert = IsoCertificate(canonical, _cert_hash(canonical), g.n)
        classes.setdefault((g.n, canonical.rows), (cert, []))[1].append(idx)
    return [classes[key] for key in sorted(classes)]

