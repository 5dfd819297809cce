"""Parameter arithmetic for directed strongly regular graphs.

A digraph with adjacency matrix A is directed strongly regular with
parameters (n, k, t, lambda, mu) when

    A^2 = t*I + lambda*A + mu*(J - I - A)      and      AJ = JA = kJ.

This module verifies those equations on explicit matrices, complements
graphs and parameter tuples, and evaluates the classical feasibility
system for genuine tuples (0 < t < k).  Everything is exact integer
arithmetic; no floating point is used anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

# mat_mul_count stays a name of this module: bench/spans.py wraps
# params.mat_mul_count when it traces a run
from .matrix import BinMatrix, _full_mask, mat_mul_count  # noqa: F401

GENUINE = "genuine"
UNDIRECTED = "undirected"
DOUBLY_REGULAR_TOURNAMENT = "doubly-regular-tournament"


@dataclass(frozen=True)
class DsrgParams:
    """The tuple (n, k, t, lam, mu) of a directed strongly regular graph."""

    n: int
    k: int
    t: int
    lam: int
    mu: int

    def __post_init__(self) -> None:
        if not 0 <= self.t <= self.k <= self.n - 1:
            raise ValueError(f"need 0 <= t <= k <= n-1, got {self}")
        if self.lam < 0 or self.mu < 0:
            raise ValueError(f"lambda and mu must be non-negative, got {self}")

    @property
    def classification(self) -> str:
        if self.t == self.k:
            return UNDIRECTED
        if self.t == 0:
            return DOUBLY_REGULAR_TOURNAMENT
        return GENUINE

    @property
    def is_genuine(self) -> bool:
        return 0 < self.t < self.k

    def as_tuple(self) -> tuple[int, int, int, int, int]:
        return (self.n, self.k, self.t, self.lam, self.mu)

    def __str__(self) -> str:
        return f"{self.n} {self.k} {self.t} {self.lam} {self.mu}"


class NotDsrg(Exception):
    """A matrix failed verification; carries the first violated constraint.

    ``position`` is an (i, j) witness: the offending entry for constancy
    failures, (i, i) for a bad row/column sum or diagonal value.
    """

    def __init__(self, constraint: str, position: tuple[int, int], detail: str):
        self.constraint = constraint
        self.position = position
        self.detail = detail
        super().__init__(f"{constraint} at {position}: {detail}")


def verify_dsrg(a: BinMatrix) -> DsrgParams:
    """Check the defining equations and return the parameters.

    Raises ValueError for a nonzero diagonal (not a loopless digraph) and
    NotDsrg with a witness position when the structure is not strongly
    regular.  Conventions for degenerate inputs: when there are no
    non-adjacent pairs (A = J - I) mu is reported as 0, and when there are
    no adjacent pairs (A = 0) lambda is reported as 0; classification is
    derived from t vs k, so the complete and empty graphs come out
    "undirected".
    """
    n = a.n
    if not a.has_zero_diagonal():
        bad = next(i for i in range(n) if a.entry(i, i))
        raise ValueError(f"nonzero diagonal at ({bad}, {bad})")
    k = a.row_sum(0)
    for i in range(n):
        s = a.row_sum(i)
        if s != k:
            raise NotDsrg("row-sum", (i, i), f"row {i} sums to {s}, row 0 to {k}")
    cols = a.transpose().rows
    for j in range(n):
        s = cols[j].bit_count()
        if s != k:
            raise NotDsrg("column-sum", (j, j),
                          f"column {j} sums to {s}, expected {k}")
    # A^2 from the rows and the columns already at hand; the class of (i, j)
    # is "d" on the diagonal, else the bit of A ("1" adjacent, "0" not)
    sq = [[(r & c).bit_count() for c in cols] for r in a.rows]
    labels = [row[:i] + "d" + row[i + 1:]
              for i, row in enumerate(a.row_strings())]
    first, cell = _first_inconstant(sq, labels)
    t = sq[0][0]
    if cell is not None:
        i, j = cell
        # each row's diagonal entry is checked before the rest of the row
        if sq[i][i] != t:
            raise NotDsrg("t-constancy", (i, i),
                          f"diagonal of A^2 is {sq[i][i]} at {i}, {t} at 0")
        if labels[i][j] == "1":
            raise NotDsrg("lambda-constancy", (i, j),
                          f"adjacent pair has {sq[i][j]} paths, "
                          f"expected {first['1']}")
        raise NotDsrg("mu-constancy", (i, j),
                      f"non-adjacent pair has {sq[i][j]} paths, "
                      f"expected {first['0']}")
    return DsrgParams(n, k, t, first.get("1", 0), first.get("0", 0))


def _first_inconstant(values, labels) -> tuple[dict, tuple[int, int] | None]:
    """Check that values[i][j] is constant over each class labels[i][j].

    Returns (first, cell): cell is the first (i, j), in row-major order,
    whose value differs from the first value seen under its class, or None
    when every class is constant; first maps each class to its first value
    seen (before cell).  The common, constant case costs one set of
    (class, value) pairs; only a failure is located cell by cell.
    """
    seen = set()
    for label_row, value_row in zip(labels, values):
        seen.update(zip(label_row, value_row))
    if len({c for c, _ in seen}) < len(seen):
        first: dict = {}
        for i, (label_row, value_row) in enumerate(zip(labels, values)):
            for j, (c, v) in enumerate(zip(label_row, value_row)):
                if first.setdefault(c, v) != v:
                    return first, (i, j)
    return dict(seen), None


def try_verify_dsrg(a: BinMatrix) -> DsrgParams | None:
    """verify_dsrg, but returning None instead of raising NotDsrg."""
    try:
        return verify_dsrg(a)
    except NotDsrg:
        return None


def complement_graph(a: BinMatrix) -> BinMatrix:
    """Adjacency matrix J - I - A of the complement digraph."""
    if not a.has_zero_diagonal():
        raise ValueError("complement requires a zero diagonal")
    mask = _full_mask(a.n)
    return BinMatrix(a.n, tuple((~r) & mask & ~(1 << i)
                                for i, r in enumerate(a.rows)))


def complement_params(p: DsrgParams) -> DsrgParams:
    """Parameters of the complement graph; an involution.

    k' = (n-2k)+(k-1), t' = (n-2k)+(t-1), lambda' = (n-2k)+(mu-2),
    mu' = (n-2k)+lambda.  A resulting negative entry means the tuple has
    no complement among parameter tuples and raises ValueError.
    """
    d = p.n - 2 * p.k
    k2 = d + p.k - 1
    t2 = d + p.t - 1
    lam2 = d + p.mu - 2
    mu2 = d + p.lam
    if min(k2, t2, lam2, mu2) < 0:
        raise ValueError(f"infeasible complement of {p}: "
                         f"({p.n}, {k2}, {t2}, {lam2}, {mu2})")
    return DsrgParams(p.n, k2, t2, lam2, mu2)


@dataclass(frozen=True)
class FeasibilityReport:
    """Outcome of the feasibility system on one parameter tuple.

    ``order_ok`` covers the two chains 0 <= lam < t < k and 0 < mu <= t < k;
    ``mu_band_ok`` the band -2(k-t-1) <= mu-lam <= 2(k-t).  ``d`` is the
    non-negative integer square root of (mu-lam)^2 + 4(t-mu) when it exists
    and ``quotient`` the integer (2k - (mu-lam)(n-1)) / d when defined.
    ``applicable`` is False for non-genuine tuples, which the system does
    not constrain.
    """

    params: DsrgParams
    applicable: bool
    d: int | None
    quotient: int | None
    balance_ok: bool
    square_ok: bool
    divisibility_ok: bool
    parity_ok: bool
    magnitude_ok: bool
    order_ok: bool
    mu_band_ok: bool

    @property
    def feasible(self) -> bool:
        return (self.applicable and self.balance_ok and self.square_ok
                and self.divisibility_ok and self.parity_ok
                and self.magnitude_ok and self.order_ok and self.mu_band_ok)


def duval_feasible(p: DsrgParams) -> FeasibilityReport:
    """Evaluate the feasibility equations and inequalities for a genuine tuple."""
    n, k, t, lam, mu = p.as_tuple()
    diff = mu - lam
    applicable = p.is_genuine
    balance_ok = k * (k + diff) == t + (n - 1) * mu
    disc = diff * diff + 4 * (t - mu)
    d: int | None = None
    if disc >= 0:
        root = math.isqrt(disc)
        if root * root == disc:
            d = root
    square_ok = d is not None
    numerator = 2 * k - diff * (n - 1)
    quotient: int | None = None
    divisibility_ok = parity_ok = magnitude_ok = False
    if d is not None:
        if d == 0:
            divisibility_ok = numerator == 0
            quotient = 0 if divisibility_ok else None
        elif numerator % d == 0:
            divisibility_ok = True
            quotient = numerator // d
        if quotient is not None:
            parity_ok = (quotient - (n - 1)) % 2 == 0
            magnitude_ok = abs(quotient) <= n - 1
    order_ok = (0 <= lam < t < k) and (0 < mu <= t < k)
    mu_band_ok = -2 * (k - t - 1) <= diff <= 2 * (k - t)
    return FeasibilityReport(p, applicable, d, quotient, balance_ok, square_ok,
                             divisibility_ok, parity_ok, magnitude_ok,
                             order_ok, mu_band_ok)


def iter_feasible(max_n: int) -> Iterator[DsrgParams]:
    """All genuine tuples with n <= max_n passing the feasibility system.

    Yielded in lexicographic (n, k, t, lambda, mu) order as the scan finds
    them, so the first arrives at once whatever max_n; every tuple is
    judged by duval_feasible.  With d = n-1-k the balance equation reads
    K = t + d*mu for K = k(k - lambda), so (n, k, lambda, t) pins mu, and
    the scan steps t through the residue class t = K (mod d) inside the
    bounds that lambda < t < k, 1 <= mu and mu <= t impose.  A candidate
    reaches duval_feasible only when (mu-lambda)^2 + 4(t-mu) is a perfect
    square.  On a 2-vCPU x86-64 host with Python 3.11 it takes 0.6 s at
    max_n = 200, 1.9 s at 300, 8.5 s at 500 and about 65 s at 1000,
    growing roughly as max_n^3.
    """
    for n in range(1, max_n + 1):
        # k = n-1 (d = 0) forces t = k(k - lam) >= k, never genuine.
        for k in range(2, n - 1):
            d = n - 1 - k
            m = n - k
            # mu = (K - t) / d with K = k(k - lam), and
            #   lam < t < k  <=>  lam + 1 <= t <= k - 1
            #   mu <= t      <=>  K <= m t, i.e. t >= ceil(K / m)
            #   mu >= 1      <=>  t <= K - d
            # ceil(K / m) <= k - 1 needs K <= (k-1) m, which bounds lam below;
            # lam + 1 <= k - 1 bounds it above.
            batch = []
            for lam in range(max(0, k - (k - 1) * m // k), k - 1):
                big_k = k * (k - lam)
                lo = -(-big_k // m)
                if lo <= lam:
                    lo = lam + 1
                hi = big_k - d
                if hi >= k:
                    hi = k - 1
                for t in range(lo + (big_k - lo) % d, hi + 1, d):
                    mu = (big_k - t) // d
                    # duval_feasible's square_ok; t >= mu keeps disc >= 0
                    disc = (mu - lam) ** 2 + 4 * (t - mu)
                    if math.isqrt(disc) ** 2 == disc:
                        batch.append((t, lam, mu))
            batch.sort()
            for t, lam, mu in batch:
                p = DsrgParams(n, k, t, lam, mu)
                if duval_feasible(p).feasible:
                    yield p


def enumerate_feasible(max_n: int) -> list[DsrgParams]:
    """The tuples of ``iter_feasible(max_n)`` as a list."""
    return list(iter_feasible(max_n))
