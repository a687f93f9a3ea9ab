"""MSA data model, aligned-FASTA ingestion, and gap-aware coordinate mapping.

Rows and columns are 1-based and inclusive throughout the public API, which
is the native coordinate system of alignment formats. The rank arrays hold
column 0 as the empty prefix; column ``n + 1`` is the virtual terminator
column past the end of a row.
"""

from __future__ import annotations

import string
from dataclasses import dataclass, field
from itertools import accumulate
from typing import NoReturn

import numpy as np

from .sais import RANK_LIMIT

GAP = "-"

# Byte values a row may hold: printable ASCII, GAP included, except '>' (the
# FASTA header mark) and '.' (a gap in A2M and Stockholm, which Msa.from_rows
# turns into GAP).
_VALID = bytes(c for c in range(33, 127) if chr(c) not in ">.")

# Msa.from_rows: ASCII lower case to upper case and '.' to GAP, nothing else
_FOLD = str.maketrans(string.ascii_lowercase + ".", string.ascii_uppercase + GAP)

# The segmentation DPs keep scores and columns in int32 below this sentinel.
DP_LIMIT = 1 << 28


class MsaError(ValueError):
    """Raised for malformed alignments or out-of-range coordinates."""


def check_size_limits(n: int, text_len: int):
    """Reject sizes that overflow the pipeline's int32 arrays, before any
    array of that size exists.

    ``n`` is the column count; the DPs need n + 1 < 2^28. ``text_len`` is N,
    the total length of the gaps-removed rows plus one terminator per row;
    the suffix array's int32 prefix ranks need N < 2^31.
    """
    if n + 1 >= DP_LIMIT:
        raise MsaError(f"alignment has {n} columns; n + 1 must stay below {DP_LIMIT}")
    if text_len >= RANK_LIMIT:
        raise MsaError(
            f"gaps-removed text has {text_len} symbols; it must stay below {RANK_LIMIT}"
        )


@dataclass(frozen=True)
class Msa:
    """A gapped multiple sequence alignment: m rows of equal length n.

    Rows hold GAP and printable ASCII symbols other than '>' and '.'.
    ``cells`` is the read-only ``(m, n)`` uint8 matrix of the row bytes,
    which the gap index, ``Gst`` (its layout and symbol codes) and the graph
    build read. The rows are checked as one text; only a failed check walks
    them row by row, to name the first bad one.
    """

    rows: tuple[str, ...]
    names: tuple[str, ...]
    cells: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.rows:
            raise MsaError("alignment has no rows")
        if len(self.names) != len(self.rows):
            raise MsaError(f"{len(self.names)} names for {len(self.rows)} rows")
        n = len(self.rows[0])
        if n == 0:
            raise MsaError(f"row '{self.names[0]}' is empty")
        text = "".join(self.rows)
        if set(map(len, self.rows)) != {n} or not text.isascii():
            self._raise_first_bad_row(n)
        data = text.encode("ascii")
        cells = np.frombuffer(data, np.uint8).reshape(-1, n)
        # the bytes of _VALID, GAP among them: 33..126 except '>' and '.'
        if (
            cells.min() < 33
            or cells.max() > 126
            or b">" in data
            or b"." in data
            or not (cells != ord(GAP)).any(axis=1).all()
        ):
            self._raise_first_bad_row(n)
        object.__setattr__(self, "cells", cells)

    def _raise_first_bad_row(self, n: int) -> NoReturn:
        """Raise the MsaError of the first row that fails a check."""
        for name, row in zip(self.names, self.rows):
            if len(row) != n:
                raise MsaError(f"row '{name}' has length {len(row)}, expected {n}")
            if not row.isascii() or row.encode("ascii").translate(None, _VALID):
                bad = next(c for c in row if not c.isascii() or ord(c) not in _VALID)
                raise MsaError(f"row '{name}' contains invalid symbol {bad!r}")
            if row.count(GAP) == n:
                raise MsaError(f"row '{name}' consists only of gap symbols")
        raise AssertionError("a whole-text check failed on rows that pass one by one")

    @classmethod
    def from_rows(cls, rows, names=None) -> "Msa":
        """Msa of the rows with ASCII letters upper-cased and every '.' read
        as a gap. Other symbols stay as they are, so a non-ASCII letter is
        rejected as itself, not as its upper case ("ß" is not "SS")."""
        rows = tuple(rows)
        if names is None:
            names = tuple(f"r{i}" for i in range(1, len(rows) + 1))
        # one translation of the joined rows; it keeps every length, so the
        # rows are sliced back at their old ends
        text = "".join(rows).translate(_FOLD)
        ends = list(accumulate(map(len, rows)))
        rows = tuple(map(text.__getitem__, map(slice, [0, *ends[:-1]], ends)))
        return cls(rows=rows, names=tuple(names))

    @property
    def m(self) -> int:
        return len(self.rows)

    @property
    def n(self) -> int:
        return len(self.rows[0])


def parse_aligned_fasta(data: str | bytes) -> Msa:
    """Parse aligned FASTA text into an Msa.

    ASCII letters are upper-cased; '-' and '.' mark a gap. Header text
    after '>' is kept verbatim as the row name. A record's sequence is the
    join of the lines up to the next header.
    """
    if isinstance(data, bytes):
        data = data.decode("ascii")
    lines = list(map(str.strip, data.splitlines()))
    heads = [k for k, line in enumerate(lines) if line.startswith(">")]
    first = heads[0] if heads else len(lines)
    for lineno, line in enumerate(lines[:first], start=1):
        if line:
            raise MsaError(f"line {lineno}: sequence data before first header")
    if not heads:
        raise MsaError("empty input: no FASTA records found")
    names = [lines[k][1:].strip() or f"r{j}" for j, k in enumerate(heads, start=1)]
    rows = ["".join(lines[a + 1 : b]) for a, b in zip(heads, heads[1:] + [len(lines)])]
    return Msa.from_rows(rows, names)


def to_fasta(msa: Msa) -> str:
    """Serialize back to aligned FASTA (one sequence line per row)."""
    out = []
    for name, row in zip(msa.names, msa.rows):
        out.append(f">{name}\n{row}\n")
    return "".join(out)


class GapIndex:
    """Rank array over the non-gap positions of each row.

    ``rank2d[i, x]`` is the number of non-gaps in row i + 1 up to column x,
    an int32 per-row prefix sum of the non-gap flags; it maps a column
    boundary to a position in the gaps-removed row. The way back, from a
    text position to its column, is ``Gst.columns``. ``msa`` is the
    alignment it was built from.
    """

    def __init__(self, msa: Msa):
        check_size_limits(msa.n, int(np.count_nonzero(msa.cells != ord(GAP))) + msa.m)
        self.msa = msa
        # the flags first, then one cumsum along the contiguous rows: a
        # cumsum into the strided view rank2d[:, 1:] buffers an (m, n) copy
        self.rank2d = rank2d = np.zeros((msa.m, msa.n + 1), dtype=np.int32)
        np.not_equal(msa.cells, ord(GAP), out=rank2d[:, 1:], casting="unsafe")
        np.cumsum(rank2d, axis=1, out=rank2d)
