"""Tournaments: the inputs every block construction consumes.

A tournament orients each edge of a complete graph exactly one way, so its
adjacency matrix satisfies A + A^T = J - I.  Regular tournaments (all
out-degrees equal, order 2k+1) feed the paired-block constructions; doubly
regular tournaments (each out-neighborhood spans a regular tournament,
order 4*lam+3) feed the team-tournament constructions.  This module
builds circulant and quadratic-residue tournaments, certifies the defining
properties, assembles the bordered two-team layout, and enumerates
regular tournaments up to isomorphism through order ENUMERATION_LIMIT (11).
The enumeration fixes vertex 0's out- and in-neighbourhoods to
one representative per class of half-order tournaments and fills in the
cross arcs between them up to the representatives' automorphisms, so it
yields few more candidates than there are classes, which are then keyed
by canonical form.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from . import iso
# mat_mul_count stays a name here: bench/spans.py wraps it when tracing
from .matrix import (BinMatrix, InputError, PermSpec,  # noqa: F401
                     _byte_fields, _full_mask, _indicator, conjugate_by_perm,
                     mat_mul_count, sigma_circulant)
from .numth import is_prime, quadratic_residues
from .params import try_verify_dsrg

ENUMERATION_LIMIT = 11


class NotTournament(Exception):
    """A pair of vertices violates the one-arc-per-pair rule."""

    def __init__(self, i: int, j: int, detail: str):
        self.pair = (i, j)
        super().__init__(f"vertices ({i}, {j}): {detail}")


@dataclass(frozen=True)
class Tournament:
    """Certified tournament: construction checks A + A^T = J - I and raises
    NotTournament naming the first violating pair.  valency is the common
    out-degree, or None when out-degrees differ."""

    adj: BinMatrix
    valency: int | None = field(init=False)

    def __post_init__(self) -> None:
        a = self.adj
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
        regular = all(s == sums[0] for s in sums)
        object.__setattr__(self, "valency", sums[0] if regular else None)

    @property
    def order(self) -> int:
        return self.adj.n

    @property
    def is_regular(self) -> bool:
        return self.valency is not None

    @cached_property
    def _double_regularity(self) -> int | None:
        # is_doubly_regular_tournament's answer, verified once per tournament
        if self.order % 4 != 3:
            return None
        params = try_verify_dsrg(self.adj)
        return None if params is None else params.lam


@dataclass(frozen=True)
class TeamProfile:
    """Path-2 counts (alpha, beta, gamma) of a doubly regular team tournament."""

    alpha: int
    beta: int
    gamma: int
    k: int


def is_doubly_regular_tournament(t: Tournament) -> int | None:
    """Valency of the sub-tournament spanned by each out-neighborhood.

    Returns lam when every out-neighborhood induces a regular tournament of
    the same valency lam (then the order is 4*lam + 3), None otherwise.
    Requires a regular tournament.  Then every pair has lam common
    out-neighbours, which for a tournament (A^T = J - I - A) says
    A^2 = lam*A + (lam+1)(J - I - A), a DSRG with t = 0; counting 3-cycles
    shows that a regular tournament is a DSRG only with these parameters.
    The answer is kept on t, so each tournament is verified once.
    """
    if not t.is_regular:
        raise ValueError("double regularity is defined for regular tournaments")
    return t._double_regularity


def circulant_tournament(n: int, conn: Iterable[int]) -> Tournament:
    """Sum of cycle powers over a connection set partitioning Z_n - {0}.

    conn must pick exactly one of {e, -e} for every nonzero residue pair,
    which forces n odd; the result is regular of valency |conn|.
    """
    if n < 1 or n % 2 == 0:
        raise ValueError(
            f"circulant tournaments need positive odd order, got {n}")
    conn_set = {e % n for e in conn}
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
    return Tournament(sigma_circulant(n, _indicator(n, conn_set), 1))


def paley_tournament(q: int) -> Tournament:
    """Quadratic-residue circulant tournament on a prime q = 3 (mod 4).

    The standard source of doubly regular tournaments: the out-neighborhood
    valency is (q - 3) / 4.
    """
    if not is_prime(q) or q % 4 != 3:
        raise ValueError(f"need a prime q = 3 (mod 4), got {q}")
    return circulant_tournament(q, quadratic_residues(q))


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
    matrix = sigma_circulant(n, _indicator(n, exps), 1)
    try:
        Tournament(matrix)
        valid = True
    except NotTournament:
        valid = False
    return FamilyMatrix(matrix, exps, valid)


def team_lem6(t: Tournament) -> BinMatrix:
    """Two bordered copies of a regular tournament, transposed crosswise.

    For a regular tournament of odd order h the result D satisfies
    D + D^T = J - I blockwise in (h+1)-blocks and
    D^2 + D*D^T + D + D^T = h*J.  Over a doubly regular tournament of
    order m - 1 it is a doubly regular (m, 2)-team tournament.
    """
    if not t.is_regular:
        raise ValueError("the bordered team layout needs a regular tournament")
    # block rows [0 1 0 0], [0 A 1 A^T], [0 0 0 1], [1 A^T 0 A] over
    # column blocks of widths 1, h, 1, h
    a = t.adj
    h = a.n
    ones = _full_mask(h)
    pairs = list(zip(a.rows, a.transpose().rows))
    return BinMatrix(2 * h + 2, (
        ones << 1,
        *(r << 1 | 1 << h + 1 | c << h + 2 for r, c in pairs),
        ones << h + 2,
        *(1 | c << 1 | r << h + 2 for r, c in pairs)))


def is_doubly_regular_team(a: BinMatrix) -> TeamProfile | None:
    """Profile (alpha, beta, gamma, k) of a doubly regular team tournament.

    The input must be an oriented complement of m disjoint r-cliques (the
    non-adjacency classes are checked); r = 1 degenerates to a plain
    tournament, where gamma is vacuous and reported as 0.  Returns None
    when degrees or path-2 counts are not constant.

    A^2 is read as verify_dsrg reads it, as sums of packed rows; with T the
    teammate matrix and alpha, beta, gamma read off row 0, row i must equal
    alpha*A_i + beta*(A^T)_i + gamma*T_i: one integer comparison per row.
    """
    n = a.n
    if not a.has_zero_diagonal():
        raise ValueError("team tournaments have zero diagonal")
    at = a.transpose()
    cols = at.rows
    mask = _full_mask(n)
    for i in range(n):
        if a.rows[i] & cols[i]:
            j = ((a.rows[i] & cols[i]) & -(a.rows[i] & cols[i])).bit_length() - 1
            raise ValueError(f"arcs in both directions between {i} and {j}")
    teammates = [~(a.rows[i] | cols[i]) & mask & ~(1 << i) for i in range(n)]
    team_size = teammates[0].bit_count() + 1
    for i in range(n):
        block = rest = teammates[i] | (1 << i)
        while rest:
            v = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            if teammates[v] | (1 << v) != block:
                raise ValueError(
                    f"non-adjacency classes are not cliques (vertices {i}, {v})")
        if block.bit_count() != team_size:
            raise ValueError("non-adjacency cliques have unequal sizes")
    m = n // team_size
    k = (m - 1) * team_size // 2
    # k = 0 leaves no arcs, hence no alpha or beta
    if k == 0 or any(r.bit_count() != k for r in a.rows + cols):
        return None
    w, bits, fields = _byte_fields(a)
    ins = _byte_fields(at)[2]
    ones = int.from_bytes(b"\1".ljust(w, b"\0") * n, "little")
    squares = [sum(itertools.compress(fields, bits[s:s + n]))
               for s in range(0, n * n, n)]
    # (A^2)[0][j] at the first out-, in- and teammate j of vertex 0
    alpha, beta, gamma = (squares[0] >> 8 * w * ((r & -r).bit_length() - 1)
                          & (1 << 8 * w) - 1 if r else 0
                          for r in (a.rows[0], cols[0], teammates[0]))
    # T_i = (1, .., 1) - e_i - A_i - (A^T)_i; the diagonal of A^2 is 0
    for i, square in enumerate(squares):
        if square != (gamma * (ones - (1 << 8 * w * i))
                      + (alpha - gamma) * fields[i] + (beta - gamma) * ins[i]):
            return None
    return TeamProfile(alpha, beta, gamma, k)


def _code(rows: Sequence[int], verts: Sequence[int],
          pairs: list[tuple[int, int]]) -> int:
    """Bit b set when verts[p] beats verts[q], for (p, q) = pairs[b]."""
    return sum(1 << b for b, (p, q) in enumerate(pairs)
               if rows[verts[p]] >> verts[q] & 1)


def _small_classes(k: int, pairs: list[tuple[int, int]]) -> tuple[
        list[tuple[list[int], list[tuple[int, ...]]]], dict[int, int]]:
    """Order-k tournaments up to isomorphism, from all labeled ones.

    Returns each class's smallest code as rows, with its automorphisms
    (the identity first), in increasing order of that code, and the
    class index of every code.
    """
    reps: list[tuple[list[int], list[tuple[int, ...]]]] = []
    class_of: dict[int, int] = {}
    for code in range(1 << len(pairs)):
        if code in class_of:
            continue
        rows = [0] * k
        for b, (p, q) in enumerate(pairs):
            if code >> b & 1:
                rows[p] |= 1 << q
            else:
                rows[q] |= 1 << p
        autos = []
        for perm in itertools.permutations(range(k)):
            image = _code(rows, perm, pairs)
            class_of[image] = len(reps)
            if image == code:
                autos.append(perm)
        reps.append((rows, autos))
    return reps, class_of


def _cross_matrices(row_sums: list[int], need: list[int]
                    ) -> Iterator[tuple[int, ...]]:
    """0/1 matrices, as row bit masks, with these row and column sums."""
    if not row_sums:
        yield ()
        return
    must = sum(1 << j for j, c in enumerate(need) if c == len(row_sums))
    can = sum(1 << j for j, c in enumerate(need) if c)
    for m in range(1 << len(need)):
        if m.bit_count() == row_sums[0] and m & must == must and not m & ~can:
            rest = [c - (m >> j & 1) for j, c in enumerate(need)]
            for tail in _cross_matrices(row_sums[1:], rest):
                yield (m,) + tail


def _neighbourhood_candidates(n: int) -> Iterator[tuple[int, ...]]:
    """Labeled regular tournaments of odd order n >= 3 meeting every class.

    With k = (n-1)/2, vertex 0 beats 1..k, which induce one representative
    T_out of the order-k classes, and loses to k+1..2k, which induce a
    representative T_in.  Regularity fixes the margins of the cross matrix
    B (B[i][j] = 1 when out-vertex 1+i beats in-vertex k+1+j): row i sums
    to k - outdeg_{T_out}(i) and column j to 1 + outdeg_{T_in}(j).  A B is
    kept only if it is the smallest, row by row, in its orbit under
    Aut(T_out) x Aut(T_in), and a candidate is dropped if some vertex v
    has a smaller pair (class of out(v), class of in(v)) than vertex 0.

    Coverage: root any regular tournament at a vertex whose pair (a, b) is
    minimal, and relabel its out- and in-neighbourhoods onto
    representatives a and b.  The cross arcs then form a B with the forced
    margins.  An automorphism (alpha, beta) of the two representatives
    relabels the tournament again, keeps both neighbourhood tournaments
    and maps B to its orbit under Aut(T_out) x Aut(T_in), so some
    labeling carries the orbit-minimal B.  That labeling is generated, and
    no vertex has a smaller pair than vertex 0, so it is not dropped:
    every isomorphism class is met at least once (isomorph rejection in
    the style of McKay, "Isomorph-free exhaustive generation",
    J. Algorithms 26, 1998).
    """
    k = (n - 1) // 2
    pairs = list(itertools.combinations(range(k), 2))
    reps, class_of = _small_classes(k, pairs)
    full = _full_mask(n)

    def class_of_set(rows: tuple[int, ...], members: int) -> int:
        verts = [u for u in range(n) if members >> u & 1]
        return class_of[_code(rows, verts, pairs)]

    for a, (out_rows, out_autos) in enumerate(reps):
        for b, (in_rows, in_autos) in enumerate(reps):
            # vertex maps fixing 0; the identity comes first and is skipped
            relabels = [PermSpec((0, *(1 + i for i in alpha),
                                  *(k + 1 + j for j in beta)))
                        for alpha in out_autos for beta in in_autos][1:]
            for cross in _cross_matrices([k - r.bit_count() for r in out_rows],
                                         [1 + r.bit_count() for r in in_rows]):
                rows = (_full_mask(k) << 1,
                        *(out_rows[i] << 1 | cross[i] << k + 1
                          for i in range(k)),
                        *(1 | in_rows[j] << k + 1 |
                          sum(1 << 1 + i for i in range(k)
                              if not cross[i] >> j & 1)
                          for j in range(k)))
                if any((c := class_of_set(rows, rows[v])) < a or c == a and
                       class_of_set(rows, full & ~rows[v] & ~(1 << v)) < b
                       for v in range(1, n)):
                    continue
                # relabeled rows 1..k keep their T_out bits and carry the
                # image of B above them, so the row tuples order as the Bs
                if all(conjugate_by_perm(BinMatrix(n, rows), p).rows >= rows
                       for p in relabels):
                    yield rows


def enumerate_regular_tournaments(n: int) -> list[Tournament]:
    """One canonical representative per isomorphism class of regular
    tournaments of odd order n.

    Exhaustive: labeled candidates are generated from vertex 0's out- and
    in-neighbourhoods with isomorph rejection (see
    ``_neighbourhood_candidates``; 20 candidates for the 15 classes of order
    9, 1,366 for the 1,223 of order 11) and grouped by canonical form
    through ``iso.classify``; the output carries each class's canonical
    matrix, sorted, so repeated runs are identical.  Orders above
    ENUMERATION_LIMIT are refused: order 13 has 1,495,297 classes, beyond
    what this generation reaches.  That limit is the only order guard; the
    classification runs with isomorphism bound n.
    """
    if n < 1 or n % 2 == 0:
        raise InputError(f"regular tournaments have positive odd order, got {n}")
    if n > ENUMERATION_LIMIT:
        raise iso.BoundExceeded(
            f"order {n} exceeds the enumeration limit {ENUMERATION_LIMIT}")
    if n == 1:
        return [Tournament(BinMatrix.zeros(1))]
    k = (n - 1) // 2
    out = []
    for cert, _ in iso.classify((BinMatrix(n, rows)
                                 for rows in _neighbourhood_candidates(n)),
                                bound=n):
        t = Tournament(cert.canonical)
        if t.valency != k:
            raise AssertionError(
                f"canonical representative has valency {t.valency}, "
                f"expected {k}")
        out.append(t)
    return out
