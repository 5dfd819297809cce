"""The .adj file format: bit-exact adjacency matrices.

Line 1 is the decimal order n; lines 2..n+1 hold exactly n characters from
{0, 1} each, LF-terminated, with no trailing whitespace and '0' on the
diagonal.  The format is deliberately rigid so files diff byte for byte.
"""

from __future__ import annotations

from pathlib import Path

from .matrix import BinMatrix, InputError


class AdjFormatError(InputError):
    """Malformed .adj content; carries the offending 1-based line number."""

    def __init__(self, line: int, detail: str):
        self.line = line
        super().__init__(f"line {line}: {detail}")


def parse_adj(data: bytes) -> BinMatrix:
    if not data.endswith(b"\n"):
        raise AdjFormatError(max(1, data.count(b"\n") + 1),
                             "file must end with a line feed")
    # at least one piece: data ends with a line feed
    lines = data.split(b"\n")[:-1]
    if not lines[0].isdigit():
        raise AdjFormatError(1, f"order is not a decimal integer: {lines[0]!r}")
    n = int(lines[0])
    if n < 1:
        raise AdjFormatError(1, f"order must be positive, got {n}")
    if len(lines) != n + 1:
        raise AdjFormatError(len(lines) + 1,
                             f"expected {n} adjacency rows, found {len(lines) - 1}")
    rows = []
    for i in range(n):
        raw = lines[i + 1]
        if len(raw) != n:
            raise AdjFormatError(i + 2,
                                 f"row has {len(raw)} characters, expected {n}")
        if raw.translate(None, b"01"):
            raise AdjFormatError(i + 2, "rows may contain only '0' and '1'")
        if raw[i] == 0x31:
            raise AdjFormatError(i + 2, "diagonal characters must be '0'")
        # character j is bit j, so the reversed row reads as a binary number
        rows.append(int(raw[::-1], 2))
    return BinMatrix(n, tuple(rows))


def read_adj(path: str | Path) -> BinMatrix:
    return parse_adj(Path(path).read_bytes())


def format_adj(m: BinMatrix) -> str:
    return f"{m.n}\n" + "".join(line + "\n" for line in m.row_strings())


def write_adj(m: BinMatrix, path: str | Path) -> None:
    Path(path).write_bytes(format_adj(m).encode("ascii"))
