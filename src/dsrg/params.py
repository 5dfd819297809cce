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
from itertools import compress
from typing import Iterator

# mat_mul_count stays a name of this module: bench/spans.py wraps
# params.mat_mul_count when it traces a run
from .matrix import (BinMatrix, _byte_fields, _full_mask,  # noqa: F401
                     mat_mul_count)

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

    Row i of A is read as one integer of n fields w bytes wide (w holds n):
    all rows summed give the column sums, and the rows of i's out-neighbours
    summed give row i of A^2.  With t, lambda and mu read off row 0, row i
    must equal mu*(1, .., 1) + (lambda - mu)*(row i of A) + (t - mu)*e_i,
    whose fields are t, lambda or mu, so one comparison checks the row.
    """
    n = a.n
    if not a.has_zero_diagonal():
        bad = next(i for i in range(n) if a.entry(i, i))
        raise ValueError(f"nonzero diagonal at ({bad}, {bad})")
    k = a.row_sum(0)
    for i, s in enumerate(a.row_sums()):
        if s != k:
            raise NotDsrg("row-sum", (i, i), f"row {i} sums to {s}, row 0 to {k}")
    w, bits, fields = _byte_fields(a)
    mask = (1 << 8 * w) - 1

    def field(value: int, j: int) -> int:
        return value >> 8 * w * j & mask
    ones = int.from_bytes(b"\1".ljust(w, b"\0") * n, "little")
    cols = sum(fields)
    if cols != k * ones:
        j = next(j for j in range(n) if field(cols, j) != k)
        raise NotDsrg("column-sum", (j, j),
                      f"column {j} sums to {field(cols, j)}, expected {k}")
    squares = [sum(compress(fields, bits[s:s + n]))
               for s in range(0, n * n, n)]
    # (A^2)[0][j] at the diagonal, the first adjacent and the first other j
    t, lam, mu = (field(squares[0], j) if j >= 0 else 0
                  for j in (0, bits.find(1, 0, n), bits.find(0, 1, n)))
    for i, square in enumerate(squares):
        expected = mu * ones + (lam - mu) * fields[i] + ((t - mu) << 8 * w * i)
        if square == expected:
            continue
        if field(square, i) != t:
            raise NotDsrg("t-constancy", (i, i), f"diagonal of A^2 is "
                          f"{field(square, i)} at {i}, {t} at 0")
        diff = square ^ expected  # its lowest bit is in the first bad field
        j = ((diff & -diff).bit_length() - 1) // (8 * w)
        if a.entry(i, j):
            raise NotDsrg("lambda-constancy", (i, j), f"adjacent pair has "
                          f"{field(square, j)} paths, expected {lam}")
        raise NotDsrg("mu-constancy", (i, j), f"non-adjacent pair has "
                      f"{field(square, j)} paths, expected {mu}")
    return DsrgParams(n, k, t, lam, mu)


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

    ``balance_ok`` is k(k + mu - lam) = t + (n-1)mu; ``order_ok`` covers the
    two chains 0 <= lam < t < k and 0 < mu <= t < k; ``mu_band_ok`` the band
    -2(k-t-1) <= mu-lam <= 2(k-t).  ``d`` is the non-negative integer square
    root of (mu-lam)^2 + 4(t-mu) when it exists and ``quotient`` the integer
    (2k - (mu-lam)(n-1)) / d when defined (for d = 0: 0, when the numerator
    is 0).  ``parity_ok`` is quotient = n-1 (mod 2) and ``magnitude_ok``
    |quotient| <= n-1, both False without a quotient.  ``applicable`` is
    False for non-genuine tuples, which the system does not constrain.
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


def _mu_band_ok(k: int, t: int, diff: int) -> bool:
    """The band of FeasibilityReport.mu_band_ok, with diff = mu - lam."""
    return -2 * (k - t - 1) <= diff <= 2 * (k - t)


def _quotient(n: int, k: int, diff: int,
              d: int | None) -> tuple[int | None, bool, bool]:
    """(quotient, parity_ok, magnitude_ok) of FeasibilityReport for the
    root d of (mu-lam)^2 + 4(t-mu) (None if not a square), diff = mu - lam."""
    numerator = 2 * k - diff * (n - 1)
    if d is None or (numerator % d if d else numerator):
        return None, False, False
    quotient = numerator // d if d else 0
    return quotient, (quotient - (n - 1)) % 2 == 0, abs(quotient) <= n - 1


def duval_feasible(p: DsrgParams) -> FeasibilityReport:
    """Evaluate the feasibility equations and inequalities for a genuine tuple."""
    n, k, t, lam, mu = p.as_tuple()
    diff = mu - lam
    disc = diff * diff + 4 * (t - mu)
    root = math.isqrt(max(disc, 0))
    d = root if root * root == disc else None
    quotient, parity_ok, magnitude_ok = _quotient(n, k, diff, d)
    return FeasibilityReport(
        p, p.is_genuine, d, quotient, k * (k + diff) == t + (n - 1) * mu,
        d is not None, quotient is not None, parity_ok, magnitude_ok,
        (0 <= lam < t < k) and (0 < mu <= t < k), _mu_band_ok(k, t, diff))


def iter_feasible(max_n: int) -> Iterator[DsrgParams]:
    """All genuine tuples with n <= max_n passing the feasibility system.

    Yielded in lexicographic (n, k, t, lambda, mu) order, one sorted batch
    per n, so the first arrives at once whatever max_n; they are exactly the
    genuine tuples that duval_feasible accepts.  The scan runs over Duval's
    eigenvalues rho >= 0 >= sigma, the roots of z^2 + (mu - lam) z + mu - t,
    which are integers whenever (mu - lam)^2 + 4(t - mu) is a square d^2
    (then d = mu - lam mod 2); the balance equation reads
    mu n = (k - rho)(k - sigma).  With x = k - rho and y = k - sigma the scan
    visits (n, x, y, rho) with root d = y - x, so balance, genuineness and
    the square root hold by construction.  Duval's numerator
    2k - (mu - lam)(n - 1) is 2(x + rho n) - d(n - 1): d divides it with a
    quotient = n - 1 (mod 2) exactly when x + rho n = 0 (mod d), and the
    quotient's magnitude is at most n - 1 exactly when x + rho n <= d(n - 1),
    which rho < d and y < n always give.  So rho walks one progression, the
    mu band is decided by duval_feasible's own helper, and only a yielded
    tuple becomes a DsrgParams.  On a 2-vCPU x86-64 host with Python 3.11
    it takes about 0.03 s at max_n = 200, 0.08 s at 300 and 1.05 s at 1000.
    """
    for n in range(1, max_n + 1):
        # lam = mu + rho + sigma and t = mu - rho sigma >= mu >= 1, and
        #   lam < t   <=>  (rho + 1)(sigma + 1) <= 0  <=>  sigma <= -1,
        #                  so 0 <= rho < d = y - x
        #   t < k     <=>  rho (d - 1 - rho) < x - mu, so mu < x and y < n;
        #                  with mu >= 1, 2 <= x < y < n and k <= n - 2
        #   n | x y   with y < n needs y to be a multiple of n / gcd(x, n)
        #   lam >= 0  <=>  mu - lam = d - 2 rho <= mu
        # x + rho n = 0 (mod d) needs g = gcd(n, d) to divide x, and then
        # rho = -(x / g)(n / g)^-1 (mod d / g): one progression below d.
        batch = []
        for x in range(2, n - 1):
            step = n // math.gcd(x, n)
            for y in range(x - x % step + step, n, step):
                d = y - x
                g = math.gcd(n, d)
                if x % g:
                    continue
                mu = x * y // n
                m = d // g
                for rho in range(-(x // g) * pow(n // g, -1, m) % m, d, m):
                    k = x + rho
                    t = mu + rho * (d - rho)
                    diff = d - 2 * rho
                    if diff <= mu and t < k and _mu_band_ok(k, t, diff):
                        batch.append((k, t, mu - diff, mu))
        batch.sort()
        for k, t, lam, mu in batch:
            yield DsrgParams(n, k, t, lam, mu)


def enumerate_feasible(max_n: int) -> list[DsrgParams]:
    """The tuples of ``iter_feasible(max_n)`` as a list."""
    return list(iter_feasible(max_n))
