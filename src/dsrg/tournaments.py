"""Tournaments: the inputs every block construction consumes.

A tournament orients each edge of a complete graph exactly one way, so its
adjacency matrix satisfies A + A^T = J - I.  Regular tournaments (all
out-degrees equal, order 2k+1) feed the paired-block constructions; doubly
regular tournaments (each out-neighborhood spans a regular tournament,
order 4*lam+3) feed the team-tournament constructions.  This module
builds circulant and quadratic-residue tournaments, certifies the defining
properties, assembles the bordered two-team layouts, and enumerates
regular tournaments up to isomorphism at small orders.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from . import iso
from .matrix import BinMatrix, _full_mask, block_compose, cycle_power, mat_mul_count
from .numth import is_prime, quadratic_residues

ENUMERATION_LIMIT = 9


class NotTournament(Exception):
    """A pair of vertices violates the one-arc-per-pair rule."""

    def __init__(self, i: int, j: int, detail: str):
        self.pair = (i, j)
        super().__init__(f"vertices ({i}, {j}): {detail}")


@dataclass(frozen=True)
class Tournament:
    """Certified tournament; valency is set iff all out-degrees agree."""

    adj: BinMatrix
    valency: int | None = None
    doubly_regular_lambda: int | None = None

    @property
    def order(self) -> int:
        return self.adj.n

    @property
    def is_regular(self) -> bool:
        return self.valency is not None


@dataclass(frozen=True)
class TeamProfile:
    """Path-2 counts (alpha, beta, gamma) of a doubly regular team tournament."""

    alpha: int
    beta: int
    gamma: int
    k: int


def check_tournament(a: BinMatrix) -> Tournament:
    """Certify A + A^T = J - I; raises NotTournament with the violating pair."""
    n = a.n
    if not a.has_zero_diagonal():
        bad = next(i for i in range(n) if a.entry(i, i))
        raise ValueError(f"nonzero diagonal at ({bad}, {bad})")
    cols = a.transpose().rows
    for i in range(n):
        both = a.rows[i] & cols[i]
        if both:
            j = (both & -both).bit_length() - 1
            raise NotTournament(i, j, "arcs in both directions")
        missing = ~(a.rows[i] | cols[i]) & _full_mask(n) & ~(1 << i)
        if missing:
            j = (missing & -missing).bit_length() - 1
            raise NotTournament(i, j, "no arc in either direction")
    sums = a.row_sums()
    valency = sums[0] if all(s == sums[0] for s in sums) else None
    return Tournament(a, valency)


def is_doubly_regular_tournament(t: Tournament) -> int | None:
    """Valency of the sub-tournament spanned by each out-neighborhood.

    Returns lam when every out-neighborhood induces a regular tournament of
    the same valency lam (then the order is 4*lam + 3), None otherwise.
    Requires a regular tournament.
    """
    if not t.is_regular:
        raise ValueError("double regularity is defined for regular tournaments")
    n = t.order
    if n % 4 != 3:
        return None
    lam = (n - 3) // 4
    rows = t.adj.rows
    for x in range(n):
        members = []
        r = rows[x]
        while r:
            low = r & -r
            members.append(low.bit_length() - 1)
            r ^= low
        for v in members:
            degree = sum((rows[v] >> w) & 1 for w in members)
            if degree != lam:
                return None
    return lam


def as_doubly_regular(t: Tournament) -> Tournament:
    """Attach the out-neighborhood valency, or raise if not doubly regular."""
    if t.doubly_regular_lambda is not None:
        return t
    lam = is_doubly_regular_tournament(t)
    if lam is None:
        raise ValueError(f"order-{t.order} tournament is not doubly regular")
    return Tournament(t.adj, t.valency, lam)


def circulant_tournament(n: int, conn: Iterable[int]) -> Tournament:
    """Sum of cycle powers over a connection set partitioning Z_n - {0}.

    conn must pick exactly one of {e, -e} for every nonzero residue pair,
    which forces n odd; the result is regular of valency |conn|.
    """
    conn_set = {e % n for e in conn}
    if n % 2 == 0:
        raise ValueError(f"circulant tournaments need odd order, got {n}")
    if 0 in conn_set:
        raise ValueError("residue 0 is not allowed in a connection set")
    for e in sorted(conn_set):
        if (n - e) % n in conn_set:
            raise ValueError(
                f"residue {e} and its negation {(n - e) % n} are both present")
    if len(conn_set) != (n - 1) // 2:
        missing = next(e for e in range(1, n)
                       if e not in conn_set and (n - e) not in conn_set)
        raise ValueError(
            f"connection set covers neither {missing} nor {(n - missing) % n}")
    rows = [0] * n
    for e in conn_set:
        for i, r in enumerate(cycle_power(n, e).rows):
            rows[i] |= r
    return check_tournament(BinMatrix(n, tuple(rows)))


def paley_tournament(q: int) -> Tournament:
    """Quadratic-residue circulant tournament on a prime q = 3 (mod 4).

    The standard source of doubly regular tournaments: the result always
    carries doubly_regular_lambda = (q - 3) / 4.
    """
    if not is_prime(q) or q % 4 != 3:
        raise ValueError(f"need a prime q = 3 (mod 4), got {q}")
    t = circulant_tournament(q, quadratic_residues(q))
    return as_doubly_regular(t)


@dataclass(frozen=True)
class FamilyMatrix:
    """Cycle-power sum with a computed tournament-validity flag."""

    matrix: BinMatrix
    exponents: frozenset[int]
    is_tournament: bool


def cycle_sum_family(n: int, which: str, j: int | None = None) -> FamilyMatrix:
    """Sums of cycle powers on odd order n = 2k+1.

    which = "odd" sums exponents {1, 3, .., 2k-1}; "even" sums
    {2, 4, .., 2k}; "run" sums the shifted run {j+1, .., j+k} for
    0 <= j <= k.  The validity flag records whether the exponent set
    satisfies the tournament partition condition; no claim is made that it
    always does (the run family fails for some j, e.g. n=7, j=1).
    """
    if n % 2 == 0 or n < 3:
        raise ValueError(f"need odd n >= 3, got {n}")
    k = (n - 1) // 2
    if which == "odd":
        exps = frozenset(range(1, 2 * k, 2))
    elif which == "even":
        exps = frozenset(range(2, 2 * k + 1, 2))
    elif which == "run":
        if j is None or not 0 <= j <= k:
            raise ValueError(f"run family needs 0 <= j <= k = {k}, got {j}")
        exps = frozenset((j + i) % n for i in range(1, k + 1))
    else:
        raise ValueError(f"unknown family {which!r}; use odd, even, or run")
    rows = [0] * n
    for e in exps:
        for i, r in enumerate(cycle_power(n, e).rows):
            rows[i] |= r
    matrix = BinMatrix(n, tuple(rows))
    try:
        check_tournament(matrix)
        valid = True
    except NotTournament:
        valid = False
    return FamilyMatrix(matrix, exps, valid)


def _bordered_team_layout(a: BinMatrix) -> BinMatrix:
    """Two bordered copies of a tournament: the doubly regular two-team layout."""
    h = a.n
    at = a.transpose()
    ones_row = [[1] * h]
    zeros_row = [[0] * h]
    ones_col = [[1]] * h
    zeros_col = [[0]] * h
    return block_compose([
        [0, ones_row, 0, zeros_row],
        [zeros_col, a, ones_col, at],
        [0, zeros_row, 0, ones_row],
        [ones_col, at, zeros_col, a],
    ])


def team_from_drt(t: Tournament) -> BinMatrix:
    """Doubly regular (m, 2)-team tournament built from a doubly regular
    tournament of order m - 1 (two bordered copies, transposed crosswise)."""
    t = as_doubly_regular(t)
    return _bordered_team_layout(t.adj)


def team_lem6(t: Tournament) -> BinMatrix:
    """The same bordered two-team layout over any regular tournament.

    For a regular tournament of odd order h the result D satisfies
    D + D^T = J - I blockwise in (h+1)-blocks and
    D^2 + D*D^T + D + D^T = h*J.
    """
    if not t.is_regular:
        raise ValueError("the bordered team layout needs a regular tournament")
    return _bordered_team_layout(t.adj)


def is_doubly_regular_team(a: BinMatrix) -> TeamProfile | None:
    """Profile (alpha, beta, gamma, k) of a doubly regular team tournament.

    The input must be an oriented complement of m disjoint r-cliques (the
    non-adjacency classes are checked); r = 1 degenerates to a plain
    tournament, where gamma is vacuous and reported as 0.  Returns None
    when degrees or path-2 counts are not constant.
    """
    n = a.n
    if not a.has_zero_diagonal():
        raise ValueError("team tournaments have zero diagonal")
    cols = a.transpose().rows
    mask = _full_mask(n)
    for i in range(n):
        if a.rows[i] & cols[i]:
            j = ((a.rows[i] & cols[i]) & -(a.rows[i] & cols[i])).bit_length() - 1
            raise ValueError(f"arcs in both directions between {i} and {j}")
    teammates = [~(a.rows[i] | cols[i]) & mask & ~(1 << i) for i in range(n)]
    seen = [False] * n
    team_size: int | None = None
    for i in range(n):
        if seen[i]:
            continue
        block = teammates[i] | (1 << i)
        members = [v for v in range(n) if (block >> v) & 1]
        for v in members:
            if teammates[v] | (1 << v) != block:
                raise ValueError(
                    f"non-adjacency classes are not cliques (vertices {i}, {v})")
            seen[v] = True
        if team_size is None:
            team_size = len(members)
        elif team_size != len(members):
            raise ValueError("non-adjacency cliques have unequal sizes")
    assert team_size is not None
    m = n // team_size
    k = (m - 1) * team_size // 2
    if any(r.bit_count() != k for r in a.rows):
        return None
    if any(c.bit_count() != k for c in cols):
        return None
    sq = mat_mul_count(a, a).entries
    alpha = beta = gamma = None
    for i in range(n):
        if sq[i][i] != 0:
            return None
        for j in range(n):
            if i == j:
                continue
            value = sq[i][j]
            if (a.rows[i] >> j) & 1:
                if alpha is None:
                    alpha = value
                elif value != alpha:
                    return None
            elif (cols[i] >> j) & 1:
                if beta is None:
                    beta = value
                elif value != beta:
                    return None
            else:
                if gamma is None:
                    gamma = value
                elif value != gamma:
                    return None
    if alpha is None or beta is None:
        return None
    return TeamProfile(alpha, beta, gamma if gamma is not None else 0, k)


def _regular_completions(n: int) -> list[tuple[int, ...]]:
    """All regular tournaments on n labeled vertices with out(0) = {1..k}.

    Every isomorphism class has such a labeling, so the list meets every
    class at least once.  When k >= 2 the labelings are further restricted
    by 1 -> 2 (a swap of two out-neighbors of 0) and by k+1 -> k+2
    (a swap of two in-neighbors), which keeps class coverage intact.
    """
    k = (n - 1) // 2
    rows = [0] * n
    out_deg = [0] * n
    for v in range(1, k + 1):
        rows[0] |= 1 << v
    out_deg[0] = k
    for v in range(k + 1, n):
        rows[v] |= 1
        out_deg[v] = 1
    pairs = [(i, j) for i in range(1, n) for j in range(i + 1, n)]
    forced = {}
    if k >= 2:
        forced[(1, 2)] = True
        if k + 2 <= n - 1:
            forced[(k + 1, k + 2)] = True
    remaining = [0] * n
    for i, j in pairs:
        remaining[i] += 1
        remaining[j] += 1
    results: list[tuple[int, ...]] = []

    def place(idx: int) -> None:
        if idx == len(pairs):
            results.append(tuple(rows))
            return
        i, j = pairs[idx]
        remaining[i] -= 1
        remaining[j] -= 1
        choices = (True,) if forced.get((i, j)) else (True, False)
        for i_wins in choices:
            winner, loser = (i, j) if i_wins else (j, i)
            if out_deg[winner] < k and out_deg[loser] + remaining[loser] >= k:
                rows[winner] |= 1 << loser
                out_deg[winner] += 1
                place(idx + 1)
                out_deg[winner] -= 1
                rows[winner] &= ~(1 << loser)
        remaining[i] += 1
        remaining[j] += 1

    place(0)
    return results


def _path2_invariant(m: BinMatrix) -> tuple:
    sq = mat_mul_count(m, m).entries
    return tuple(sorted(tuple(sorted(row)) for row in sq))


def enumerate_regular_tournaments(n: int,
                                  limit: int = ENUMERATION_LIMIT
                                  ) -> list[Tournament]:
    """One canonical representative per isomorphism class of regular
    tournaments of odd order n.

    Exhaustive: labeled candidates are generated with degree pruning and
    deduplicated against class representatives; the output carries each
    class's canonical matrix, sorted, so repeated runs are identical.
    Orders above ``limit`` are refused (runtime explodes); pass a larger
    limit explicitly for order 11 and accept hours of runtime.
    """
    if n % 2 == 0:
        raise ValueError(f"regular tournaments have odd order, got {n}")
    if n > limit:
        raise iso.BoundExceeded(
            f"order {n} exceeds the enumeration limit {limit}; "
            f"pass limit={n} explicitly to override")
    if n == 1:
        return [Tournament(BinMatrix.zeros(1), 0)]
    k = (n - 1) // 2
    buckets: dict[tuple, list[BinMatrix]] = {}
    for rows in _regular_completions(n):
        candidate = BinMatrix(n, rows)
        key = _path2_invariant(candidate)
        reps = buckets.setdefault(key, [])
        if not any(iso.are_isomorphic(candidate, rep) for rep in reps):
            reps.append(candidate)
    canonical = [iso.canonical_form(rep).canonical
                 for reps in buckets.values() for rep in reps]
    canonical.sort(key=lambda m: m.rows)
    out = []
    for mat in canonical:
        t = check_tournament(mat)
        if t.valency != k:
            raise AssertionError(
                f"canonical representative has valency {t.valency}, "
                f"expected {k}")
        lam = is_doubly_regular_tournament(t) if n % 4 == 3 else None
        out.append(Tournament(mat, k, lam))
    return out
