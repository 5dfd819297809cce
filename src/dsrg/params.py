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
    # A^2 from the rows and the columns already at hand
    sq = [[(r & c).bit_count() for c in cols] for r in a.rows]
    t = sq[0][0]
    lam: int | None = None
    mu: int | None = None
    for i in range(n):
        if sq[i][i] != t:
            raise NotDsrg("t-constancy", (i, i),
                          f"diagonal of A^2 is {sq[i][i]} at {i}, {t} at 0")
        row = a.rows[i]
        for j in range(n):
            if i == j:
                continue
            value = sq[i][j]
            if (row >> j) & 1:
                if lam is None:
                    lam = value
                elif value != lam:
                    raise NotDsrg("lambda-constancy", (i, j),
                                  f"adjacent pair has {value} paths, expected {lam}")
            else:
                if mu is None:
                    mu = value
                elif value != mu:
                    raise NotDsrg("mu-constancy", (i, j),
                                  f"non-adjacent pair has {value} paths, expected {mu}")
    return DsrgParams(n, k, t, lam if lam is not None else 0,
                      mu if mu is not None else 0)


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


def enumerate_feasible(max_n: int) -> list[DsrgParams]:
    """All genuine tuples with n <= max_n passing the feasibility system.

    Returned in lexicographic (n, k, t, lambda, mu) order.  For each
    (n, k, t, lambda) the balance equation pins mu, so the scan is cubic
    per order; fine at desk scale (a few hundred vertices).
    """
    found: list[DsrgParams] = []
    for n in range(1, max_n + 1):
        for k in range(2, n):
            denom = n - 1 - k
            if denom <= 0:
                # k = n-1 forces t = k(k - lam) >= k, never genuine.
                continue
            for t in range(1, k):
                for lam in range(0, t):
                    numer = k * (k - lam) - t
                    if numer <= 0 or numer % denom:
                        continue
                    mu = numer // denom
                    if not 1 <= mu <= t:
                        continue
                    p = DsrgParams(n, k, t, lam, mu)
                    if duval_feasible(p).feasible:
                        found.append(p)
    return found
