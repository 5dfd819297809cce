"""Directed strongly regular graphs from block matrices.

Each function assembles one construction as a total map from certified
inputs to an adjacency matrix, verifies the defining equations on the
result, and returns a ConstructionResult carrying the method tag used in
catalog files, an input descriptor, the matrix, and its parameters.  The
paired-rows family takes a regular tournament of valency k and yields
(4k+2, 2k, k, k-1, k); the bordered-team family yields
(4h+4, 2h+1, h+1, h, h) from order-h tournaments; quadratic-residue and
symmetric-product block matrices cover (2q, q-1, ...) and
(2(2mu+1), 2mu, ...); the all-ones Kronecker expansion scales any graph
with t = mu.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator

from .iso import BoundExceeded
from .matrix import (BinMatrix, PermSpec, block_compose, cycle_power,
                     kronecker, sigma_circulant)
from .numth import is_prime, mod_inverse, quadratic_residues
from .params import DsrgParams, try_verify_dsrg, verify_dsrg
from .tournaments import (Tournament, as_doubly_regular, team_from_drt,
                          team_lem6)

METHOD_DUVAL_B = "duval_B"
METHOD_DUVAL_C = "duval_C"
METHOD_M = "m_of"
METHOD_WIDE = "wide"
METHOD_TALL = "tall"
METHOD_TEAM = "lem5"
METHOD_BORDERED = "lem6"
METHOD_CYCLE_SUM = "lem7"
METHOD_QR = "qr"
METHOD_PQ = "pq"
METHOD_KRON = "kron"
METHOD_CAYLEY = "cayley"
METHOD_HOBART_SHAW = "hobart_shaw"


@dataclass(frozen=True)
class ConstructionResult:
    """A verified construction output."""

    method: str
    input_descriptor: str
    adj: BinMatrix
    params: DsrgParams


def _result(method: str, descriptor: str, adj: BinMatrix,
            expected: tuple[int, int, int, int, int]) -> ConstructionResult:
    params = verify_dsrg(adj)
    if params.as_tuple() != expected:
        raise AssertionError(
            f"{method} verified as {params}, expected {expected}")
    return ConstructionResult(method, descriptor, adj, params)


def _regular(t: Tournament, what: str,
             min_valency: int = 0) -> tuple[BinMatrix, int]:
    if not t.is_regular:
        raise ValueError(f"{what} needs a regular tournament")
    assert t.valency is not None
    if t.valency < min_valency:
        raise ValueError(
            f"{what} needs valency >= {min_valency}, got {t.valency}")
    return t.adj, t.valency


def _tournament_label(t: Tournament, label: str | None) -> str:
    return label if label is not None else f"tournament(n={t.order})"


def duval_b(t: Tournament, label: str | None = None) -> ConstructionResult:
    """Paired-rows block matrix [[A, A^T], [A, A^T]]: (4k+2, 2k, k, k-1, k)."""
    a, k = _regular(t, "the paired-rows construction", min_valency=1)
    at = a.transpose()
    adj = block_compose([[a, at], [a, at]])
    return _result(METHOD_DUVAL_B, _tournament_label(t, label), adj,
                   (4 * k + 2, 2 * k, k, k - 1, k))


def duval_c(t: Tournament, label: str | None = None) -> ConstructionResult:
    """Paired-columns block matrix [[A, A], [A^T, A^T]]: (4k+2, 2k, k, k-1, k)."""
    a, k = _regular(t, "the paired-columns construction", min_valency=1)
    at = a.transpose()
    adj = block_compose([[a, a], [at, at]])
    return _result(METHOD_DUVAL_C, _tournament_label(t, label), adj,
                   (4 * k + 2, 2 * k, k, k - 1, k))


def m_of(a: BinMatrix) -> BinMatrix:
    """The block matrix [[A, A^T+I], [A+I, A^T]] over any zero-diagonal A."""
    if not a.has_zero_diagonal():
        raise ValueError("m_of needs a zero diagonal")
    at = a.transpose()
    eye = BinMatrix.identity(a.n)
    return block_compose([[a, at | eye], [a | eye, at]])


def m_construction(t: Tournament, label: str | None = None) -> ConstructionResult:
    """m_of over a regular tournament: (4k+2, 2k+1, k+1, k, k+1).

    Isomorphic to the complement of the paired-rows graph via the swap of
    the two blocks.
    """
    a, k = _regular(t, "the m construction", min_valency=1)
    return _result(METHOD_M, _tournament_label(t, label), m_of(a),
                   (4 * k + 2, 2 * k + 1, k + 1, k, k + 1))


def wide_blocks(t: Tournament, w: int,
                label: str | None = None) -> ConstructionResult:
    """2w block-columns alternating A, A^T, all block-rows equal.

    Parameters ((4k+2)w, 2kw, kw, (k-1)w, kw); w = 1 reproduces the
    paired-rows matrix exactly.
    """
    if w < 1:
        raise ValueError(f"block multiplicity must be >= 1, got {w}")
    a, k = _regular(t, "the wide-blocks construction", min_valency=1)
    at = a.transpose()
    pattern = [a if c % 2 == 0 else at for c in range(2 * w)]
    adj = block_compose([pattern] * (2 * w))
    desc = _tournament_label(t, label) + f",w={w}"
    return _result(METHOD_WIDE, desc, adj,
                   ((4 * k + 2) * w, 2 * k * w, k * w, (k - 1) * w, k * w))


def tall_blocks(t: Tournament, w: int,
                label: str | None = None) -> ConstructionResult:
    """Transposed pattern of wide_blocks: 2w block-rows alternating A, A^T."""
    if w < 1:
        raise ValueError(f"block multiplicity must be >= 1, got {w}")
    a, k = _regular(t, "the tall-blocks construction", min_valency=1)
    at = a.transpose()
    grid = [[a] * (2 * w) if r % 2 == 0 else [at] * (2 * w)
            for r in range(2 * w)]
    adj = block_compose(grid)
    desc = _tournament_label(t, label) + f",w={w}"
    return _result(METHOD_TALL, desc, adj,
                   ((4 * k + 2) * w, 2 * k * w, k * w, (k - 1) * w, k * w))


def team_dsrg(t: Tournament, label: str | None = None) -> ConstructionResult:
    """m_of over the two-team tournament of a doubly regular tournament.

    For out-neighborhood valency lam: (16*lam+16, 8*lam+7, 4*lam+4,
    4*lam+3, 4*lam+3), i.e. (4m, 2m-1, m, m-1, m-1) with m = 4*lam+4.
    """
    t = as_doubly_regular(t)
    lam = t.doubly_regular_lambda
    assert lam is not None
    adj = m_of(team_from_drt(t))
    m = 4 * lam + 4
    return _result(METHOD_TEAM, _tournament_label(t, label), adj,
                   (4 * m, 2 * m - 1, m, m - 1, m - 1))


def bordered_team_dsrg(t: Tournament,
                       label: str | None = None) -> ConstructionResult:
    """m_of over the bordered team layout of any regular tournament of
    order h: (4(h+1), 2h+1, h+1, h, h)."""
    _regular(t, "the bordered-team construction")
    h = t.order
    adj = m_of(team_lem6(t))
    return _result(METHOD_BORDERED, _tournament_label(t, label), adj,
                   (4 * (h + 1), 2 * h + 1, h + 1, h, h))


def cycle_sum_matrix(s: int) -> BinMatrix:
    """Sum of the first s powers of the (2s+2)-cycle."""
    if s < 1:
        raise ValueError(f"need s >= 1, got {s}")
    n = 2 * s + 2
    rows = [0] * n
    for e in range(1, s + 1):
        for i, r in enumerate(cycle_power(n, e).rows):
            rows[i] |= r
    return BinMatrix(n, tuple(rows))


def cycle_sum_dsrg(s: int) -> ConstructionResult:
    """m_of over the cycle-power sum on 2s+2 vertices:
    (4(s+1), 2s+1, s+1, s, s)."""
    adj = m_of(cycle_sum_matrix(s))
    return _result(METHOD_CYCLE_SUM, f"s={s}", adj,
                   (4 * (s + 1), 2 * s + 1, s + 1, s, s))


def _check_difference_partition(q: int, m: int, s_set: frozenset[int]) -> None:
    """Each nonzero residue must occur exactly m times among s - t
    (s in S, t in the complement T); raises naming the first offender."""
    t_set = [x for x in range(1, q) if x not in s_set]
    counts = [0] * q
    for s in s_set:
        for t in t_set:
            counts[(s - t) % q] += 1
    for x in range(1, q):
        if counts[x] != m:
            raise ValueError(
                f"difference-partition failure: residue {x} occurs "
                f"{counts[x]} times, expected {m}")


def _residue_matrix(q: int) -> BinMatrix:
    residues = quadratic_residues(q)
    rows = []
    for i in range(q):
        value = 0
        for j in range(q):
            if i != j and (i - j) % q in residues:
                value |= 1 << j
        rows.append(value)
    return BinMatrix(q, tuple(rows))


def _indicator(q: int, support: frozenset[int]) -> list[int]:
    return [1 if j in support else 0 for j in range(q)]


def qr_dsrg(q: int, sigma1: int, sigma2: int,
            s_set: Iterable[int] = ()) -> ConstructionResult:
    """Quadratic-residue block matrix [[Q, C1], [C2, Q]] on 2q vertices.

    Q is the residue matrix of the prime q = 4m+1; C2 is the
    sigma2-circulant whose first row is the indicator of s_set, which must
    satisfy the difference-partition property against its complement;
    sigma1*sigma2 = 1 with both sigmas non-residues.  C1 is the
    sigma1-circulant whose first-row support completes the matrix to a
    verified graph (candidate supports are tried in a fixed order, so the
    output is deterministic).  Parameters (2q, q-1, 2m, 2m-1, 2m).
    """
    if not is_prime(q) or q % 4 != 1:
        raise ValueError(f"need a prime q = 1 (mod 4), got {q}")
    m = (q - 1) // 4
    residues = quadratic_residues(q)
    for name, sigma in (("sigma1", sigma1), ("sigma2", sigma2)):
        if sigma % q in residues or sigma % q == 0:
            raise ValueError(f"non-residue failure: {name} = {sigma} "
                             f"is not a quadratic non-residue mod {q}")
    if sigma1 * sigma2 % q != 1:
        raise ValueError(f"inverse failure: sigma1*sigma2 = "
                         f"{sigma1 * sigma2 % q} != 1 (mod {q})")
    support = frozenset(x % q for x in s_set)
    if len(support) != 2 * m or 0 in support:
        raise ValueError(
            f"s_set must contain {2 * m} nonzero residues, got {sorted(support)}")
    _check_difference_partition(q, m, support)
    qmat = _residue_matrix(q)
    c2 = sigma_circulant(q, _indicator(q, support), sigma2)
    complement = frozenset(range(1, q)) - support
    neg = frozenset((-x) % q for x in support)
    seen = set()
    candidates = []
    for cand in (support, complement, neg, frozenset((-x) % q for x in complement)):
        if cand not in seen:
            seen.add(cand)
            candidates.append(cand)
    fallback = (frozenset(c) for c in
                itertools.combinations(range(1, q), 2 * m))
    expected = (2 * q, q - 1, 2 * m, 2 * m - 1, 2 * m)
    desc = f"q={q},sigma1={sigma1},sigma2={sigma2},S={{{','.join(map(str, sorted(support)))}}}"
    for c1_support in itertools.chain(candidates, fallback):
        c1 = sigma_circulant(q, _indicator(q, c1_support), sigma1)
        adj = block_compose([[qmat, c1], [c2, qmat]])
        params = try_verify_dsrg(adj)
        if params is not None and params.as_tuple() == expected:
            return ConstructionResult(METHOD_QR, desc, adj, params)
    raise ValueError(f"no sigma1-circulant completes the construction for {desc}")


_QR_SEARCH_BOUND = 29


def qr_search(q: int, bound: int = _QR_SEARCH_BOUND
              ) -> list[tuple[int, int, frozenset[int]]]:
    """All (sigma1, sigma2, S) triples passing the quadratic-residue
    preconditions, ascending in sigma1 and then in sorted S."""
    return list(_qr_triples(q, bound))


def _qr_triples(q: int, bound: int = _QR_SEARCH_BOUND
                ) -> Iterator[tuple[int, int, frozenset[int]]]:
    """The triples of qr_search in its order, generated lazily: the first
    one costs only the subsets tested up to its support."""
    if not is_prime(q) or q % 4 != 1:
        raise ValueError(f"need a prime q = 1 (mod 4), got {q}")
    if q > bound:
        raise BoundExceeded(f"q = {q} exceeds the search bound {bound}")
    m = (q - 1) // 4
    residues = quadratic_residues(q)
    non_residues = [x for x in range(1, q) if x not in residues]
    pairs = []
    for sigma1 in non_residues:
        sigma2 = mod_inverse(sigma1, q)
        if sigma2 in non_residues:
            pairs.append((sigma1, sigma2))
    # the inverse of a non-residue is a non-residue, so pairs is not empty
    valid_sets = []
    s1, s2 = pairs[0]
    for combo in itertools.combinations(range(1, q), 2 * m):
        support = frozenset(combo)
        try:
            _check_difference_partition(q, m, support)
        except ValueError:
            continue
        valid_sets.append(support)
        yield s1, s2, support
    for s1, s2 in pairs[1:]:
        for support in valid_sets:
            yield s1, s2, support


def pq_dsrg(qmat: Tournament, p: PermSpec,
            label: str | None = None) -> ConstructionResult:
    """Symmetric-product block matrix [[Q, PQ], [(PQ)^T, Q]].

    Q is a regular tournament of valency mu and P an involution whose row
    permutation of Q is symmetric; parameters
    (2(2mu+1), 2mu, mu, mu-1, mu).
    """
    a, mu = _regular(qmat, "the symmetric-product construction",
                     min_valency=1)
    if len(p) != a.n:
        raise ValueError(f"permutation length {len(p)} != order {a.n}")
    if not p.is_involution():
        raise ValueError(f"permutation {p.images} is not an involution")
    pq = BinMatrix(a.n, tuple(a.rows[p.images[i]] for i in range(a.n)))
    pqt = pq.transpose()
    if pq != pqt:
        witness = next((i, j) for i in range(a.n) for j in range(a.n)
                       if pq.entry(i, j) != pqt.entry(i, j))
        raise ValueError(f"PQ is not symmetric: entries {witness} differ")
    adj = block_compose([[a, pq], [pqt, a]])
    desc = label if label is not None else \
        f"tournament(n={a.n}),p={','.join(map(str, p.images))}"
    return _result(METHOD_PQ, desc, adj,
                   (2 * (2 * mu + 1), 2 * mu, mu, mu - 1, mu))


def pq_search(qmat: Tournament, bound: int = 11) -> list[PermSpec]:
    """All involutions making the row-permuted tournament symmetric.

    Involutions are built in lexicographic image order (fixed point
    first, then swaps with ascending partners); a branch is pruned as soon
    as a newly assigned row i of PQ disagrees with column i on an already
    assigned vertex.
    """
    if qmat.order > bound:
        raise BoundExceeded(
            f"order {qmat.order} exceeds the search bound {bound}")
    rows = qmat.adj.rows
    images = [-1] * qmat.order
    assigned: list[int] = []
    found: list[PermSpec] = []

    def assign(i: int) -> bool:
        # PQ[i][x] = A[p(i)][x] must equal PQ[x][i] = A[p(x)][i]
        row = rows[images[i]]
        if any((row >> x) & 1 != (rows[images[x]] >> i) & 1
               for x in assigned):
            return False
        assigned.append(i)
        return True

    def extend(free: list[int]) -> None:
        if not free:
            found.append(PermSpec(tuple(images)))
            return
        i, rest = free[0], free[1:]
        images[i] = i
        if assign(i):
            extend(rest)
            assigned.pop()
        for j in rest:
            images[i], images[j] = j, i
            if assign(i):
                if assign(j):
                    extend([v for v in rest if v != j])
                    assigned.pop()
                assigned.pop()

    extend(list(range(qmat.order)))
    return found


def kronecker_expand(a: BinMatrix, m: int, side: str = "right",
                     label: str | None = None) -> ConstructionResult:
    """All-ones expansion A x J(m) or J(m) x A, defined exactly when t = mu.

    Scales every parameter by m: (nm, km, tm, lam*m, mu*m).
    """
    if m <= 1:
        raise ValueError(f"expansion factor must exceed 1, got {m}")
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    params = verify_dsrg(a)
    if params.t != params.mu:
        raise ValueError(
            f"the all-ones expansion is a DSRG iff t = mu; "
            f"got t = {params.t}, mu = {params.mu}")
    block = BinMatrix.ones(m)
    adj = kronecker(a, block) if side == "right" else kronecker(block, a)
    desc = (label if label is not None else f"graph(n={a.n})") + f",m={m},{side}"
    n, k, t, lam, mu = params.as_tuple()
    return _result(METHOD_KRON, desc, adj,
                   (n * m, k * m, t * m, lam * m, mu * m))
