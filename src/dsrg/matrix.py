"""Dense square 0/1 matrix algebra on bit-packed rows.

Every adjacency matrix, block composition, and product in this package runs
through this small kernel.  A matrix of order n stores its rows as n Python
integers, bit j of ``rows[i]`` being entry (i, j).  Transposition, equality
and elementwise operations are then integer bit operations, and the exact
integer product is computed with popcounts over row/column intersections.

All values are immutable after construction; every operation is pure, so
matrices can be shared freely between threads.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass
from itertools import compress
from typing import Callable, Iterable, Sequence


class DimensionError(ValueError):
    """Shapes of the operands do not line up."""


class InputError(ValueError):
    """Bad argument, descriptor or file content, as opposed to a rejected
    construction (exit code 2 on the command line)."""


class BoundExceeded(InputError):
    """An order limit was exceeded."""


def _full_mask(n: int) -> int:
    return (1 << n) - 1


def _pack_row(bits: Iterable[int]) -> int:
    value = 0
    for j, b in enumerate(bits):
        if b not in (0, 1):
            raise ValueError(f"matrix entries must be 0 or 1, got {b!r}")
        value |= b << j
    return value


@dataclass(frozen=True)
class BinMatrix:
    """Square 0/1 matrix; ``rows[i]`` holds row i with bit j = entry (i, j)."""

    n: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise DimensionError(f"order must be positive, got {self.n}")
        if len(self.rows) != self.n:
            raise DimensionError(
                f"expected {self.n} rows, got {len(self.rows)}")
        mask = _full_mask(self.n)
        if min(self.rows) < 0 or max(self.rows) > mask:
            i = next(i for i, r in enumerate(self.rows) if r & ~mask)
            raise DimensionError(f"row {i} has bits beyond column {self.n - 1}")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "BinMatrix":
        n = len(rows)
        packed = []
        for i, row in enumerate(rows):
            if len(row) != n:
                raise DimensionError(f"row {i} has length {len(row)}, expected {n}")
            packed.append(_pack_row(row))
        return cls(n, tuple(packed))

    @classmethod
    def from_strings(cls, lines: Sequence[str]) -> "BinMatrix":
        return cls.from_rows([[int(c) for c in line] for line in lines])

    @classmethod
    def identity(cls, n: int) -> "BinMatrix":
        return cls(n, tuple(1 << i for i in range(n)))

    @classmethod
    def zeros(cls, n: int) -> "BinMatrix":
        return cls(n, (0,) * n)

    @classmethod
    def ones(cls, n: int) -> "BinMatrix":
        """All-ones matrix J (diagonal included)."""
        return cls(n, (_full_mask(n),) * n)

    # -- queries -----------------------------------------------------------

    @property
    def order(self) -> int:
        return self.n

    def entry(self, i: int, j: int) -> int:
        return (self.rows[i] >> j) & 1

    def row_sum(self, i: int) -> int:
        return self.rows[i].bit_count()

    def row_sums(self) -> list[int]:
        return [r.bit_count() for r in self.rows]

    def has_zero_diagonal(self) -> bool:
        return all(not (self.rows[i] >> i) & 1 for i in range(self.n))

    def to_lists(self) -> list[list[int]]:
        return [[(r >> j) & 1 for j in range(self.n)] for r in self.rows]

    def row_strings(self) -> list[str]:
        return [f"{r:0{self.n}b}"[::-1] for r in self.rows]

    def to_bytes(self) -> bytes:
        width = (self.n + 7) // 8
        return b"".join(r.to_bytes(width, "little") for r in self.rows)

    # -- elementwise -------------------------------------------------------

    def transpose(self) -> "BinMatrix":
        # Spell the rows, last row first, as n-digit binary strings and join
        # them: every n-th character from offset n-1-j is then column j,
        # most significant row first.
        n = self.n
        spelled = "".join(map(f"{{:0{n}b}}".format, reversed(self.rows)))
        return BinMatrix(n, tuple(int(spelled[p::n], 2)
                                  for p in range(n - 1, -1, -1)))

    def __or__(self, other: "BinMatrix") -> "BinMatrix":
        if self.n != other.n:
            raise DimensionError(f"order mismatch: {self.n} vs {other.n}")
        return BinMatrix(self.n, tuple(a | b for a, b in zip(self.rows, other.rows)))

    def __repr__(self) -> str:
        return f"BinMatrix({self.n}, {self.row_strings()})"


@dataclass(frozen=True)
class IntMatrix:
    """Square matrix of non-negative integers (exact path counts)."""

    n: int
    entries: tuple[tuple[int, ...], ...]

    def entry(self, i: int, j: int) -> int:
        return self.entries[i][j]

    @property
    def order(self) -> int:
        return self.n

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.entries[i][i] for i in range(self.n))

    def transpose(self) -> "IntMatrix":
        return IntMatrix(self.n, tuple(
            tuple(self.entries[j][i] for j in range(self.n)) for i in range(self.n)))


@dataclass(frozen=True)
class PermSpec:
    """Permutation of {0, .., n-1}, stored as the tuple of images."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.images)
        if sorted(self.images) != list(range(n)):
            raise ValueError(f"not a permutation of 0..{n - 1}: {self.images}")

    @classmethod
    def identity(cls, n: int) -> "PermSpec":
        return cls(tuple(range(n)))

    @classmethod
    def reversal(cls, n: int) -> "PermSpec":
        """i -> -i mod n (fixes 0; an involution)."""
        return cls(tuple((-i) % n for i in range(n)))

    @classmethod
    def shift(cls, n: int, s: int) -> "PermSpec":
        return cls(tuple((i + s) % n for i in range(n)))

    def __len__(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i]

    def inverse(self) -> "PermSpec":
        inv = [0] * len(self.images)
        for i, v in enumerate(self.images):
            inv[v] = i
        return PermSpec(tuple(inv))

    def is_involution(self) -> bool:
        return all(self.images[v] == i for i, v in enumerate(self.images))

    def matrix(self) -> BinMatrix:
        """Permutation matrix P with P[i][images[i]] = 1."""
        return BinMatrix(len(self.images),
                         tuple(1 << v for v in self.images))


def mat_mul_count(a: BinMatrix, b: BinMatrix) -> IntMatrix:
    """Exact integer product; entry (i, j) counts h with a[i][h] = b[h][j] = 1."""
    if a.n != b.n:
        raise DimensionError(f"order mismatch: {a.n} vs {b.n}")
    bt = b.transpose().rows
    return IntMatrix(a.n, tuple(
        tuple((ra & cb).bit_count() for cb in bt) for ra in a.rows))


_ZERO_ONE = bytes.maketrans(b"01", b"\0\1")


def _bit_bytes(a: BinMatrix) -> tuple[int, bytes]:
    """(w, bits) as in ``_byte_fields``."""
    # the rows spelled last row first, then reversed, put (i, j) at i*n + j
    spelled = "".join(map(f"{{:0{a.n}b}}".format, reversed(a.rows)))[::-1]
    return (a.n.bit_length() + 7) // 8, spelled.encode().translate(_ZERO_ONE)


@functools.lru_cache(maxsize=8)
def _row_cutter(size: int, n: int) -> Callable[[bytes], tuple[bytes, ...]]:
    """Cuts a buffer of n rows of ``size`` bytes into its rows, in one
    call.  Kept for the 8 shapes used last (an order uses two or three);
    struct's own cache of up to 100 formats held 0.17 MB more on the
    classify workload."""
    return struct.Struct(f"{size}s" * n).unpack


def _byte_fields(a: BinMatrix) -> tuple[int, bytes, list[int]]:
    """(w, bits, fields): bits[i*n + j] and field j of fields[i], w bytes
    wide from bit 8wj, are entry (i, j); w is the least width that holds n."""
    # one strided slice widens each 0/1 byte to a little-endian w-byte field
    n, (w, bits) = a.n, _bit_bytes(a)
    wide = bytearray(n * n * w)
    wide[::w] = bits
    return w, bits, [int.from_bytes(r, "little")
                     for r in _row_cutter(n * w, n)(wide)]


def _square_rows(bits: bytes, fields: list[int]) -> list[int]:
    """Rows of A^2 from ``_byte_fields``: row i is the sum of the fields of
    i's out-neighbours, so field j counts the paths i -> h -> j.  The two
    matrix criteria, ``verify_dsrg`` and ``is_doubly_regular_team``, check
    A^2 through it, one integer comparison per row."""
    n = len(fields)
    return [sum(compress(fields, row)) for row in _row_cutter(n, n)(bits)]


def kronecker(a: BinMatrix, b: BinMatrix) -> BinMatrix:
    """Block-scaled product: block (i, j) of the result is b where a[i][j] = 1."""
    shifts = [[j * b.n for j in range(a.n) if ra >> j & 1] for ra in a.rows]
    return BinMatrix(a.n * b.n, tuple(sum(rb << s for s in row_shifts)
                                      for row_shifts in shifts for rb in b.rows))


def cycle_power(n: int, e: int) -> BinMatrix:
    """Permutation matrix of the e-th power of the n-cycle: (i, j) = 1 iff j = i+e mod n."""
    if n < 1:
        raise DimensionError(f"order must be positive, got {n}")
    return PermSpec.shift(n, e).matrix()


def _indicator(n: int, support) -> list[int]:
    """First row of the circulant whose row 0 has ones exactly on support."""
    return [1 if j in support else 0 for j in range(n)]


def sigma_circulant(n: int, first_row: Sequence[int], sigma: int) -> BinMatrix:
    """Matrix whose row i, entry j equals first_row[(j - sigma*i) mod n].

    Each row is the previous one shifted sigma entries to the right;
    sigma = 1 gives an ordinary circulant.  sigma is normalized mod n
    (it plays the role of a residue).
    """
    if len(first_row) != n:
        raise DimensionError(f"first row has length {len(first_row)}, expected {n}")
    sigma %= n
    row0 = _pack_row(first_row)
    rows = []
    for i in range(n):
        shift = (sigma * i) % n
        rows.append(((row0 << shift) | (row0 >> (n - shift))) & _full_mask(n)
                    if shift else row0)
    return BinMatrix(n, tuple(rows))


def block_compose(layout: Sequence[Sequence[BinMatrix]]) -> BinMatrix:
    """Assemble a square grid of blocks, all of one order, into one matrix."""
    g = len(layout)
    m = layout[0][0].n if g and layout[0] else 0
    if any(len(row) != g for row in layout):
        raise DimensionError("block grid is not square")
    if any(block.n != m for row in layout for block in row):
        raise DimensionError(f"blocks differ in order from {m}")
    return BinMatrix(g * m, tuple(
        sum(block.rows[i] << j * m for j, block in enumerate(row))
        for row in layout for i in range(m)))


def _relabeled_rows(rows: Sequence[int],
                    order: Sequence[int]) -> tuple[int, ...]:
    """Rows of the matrix whose entry (r, c) is entry (order[r], order[c])."""
    # order may list m of the n = len(rows) vertices.  Its rows spelled as
    # n-digit binary strings and joined hold column v at every n-th character
    # from n-1-v; its m columns joined put entry (r, c) at flat[c*m + r], so
    # row r, most significant bit first, is flat[(m-1)*m + r::-m].
    n, m = len(rows), len(order)
    spelled = "".join(map(f"{{:0{n}b}}".format, [rows[v] for v in order]))
    flat = "".join([spelled[n - 1 - v::n] for v in order])
    return tuple(int(flat[(m - 1) * m + r::-m], 2) for r in range(m))


def conjugate_by_perm(a: BinMatrix, p: PermSpec) -> BinMatrix:
    """Relabel vertices: result[p(i)][p(j)] = a[i][j].

    Equals Q^-1 A Q for the permutation matrix Q = p.matrix().
    """
    if len(p) != a.n:
        raise DimensionError(f"permutation length {len(p)} != order {a.n}")
    return BinMatrix(a.n, _relabeled_rows(a.rows, p.inverse().images))
