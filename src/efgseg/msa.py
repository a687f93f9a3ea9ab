"""MSA data model, aligned-FASTA ingestion, and gap-aware coordinate mapping.

Rows and columns are 1-based and inclusive throughout the public API, which
is the native coordinate system of alignment formats. The rank arrays hold
column 0 as the empty prefix; the select arrays use column ``n + 1`` as the
virtual terminator column past the end of a row.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .sais import RANK_LIMIT

GAP = "-"

# Byte values a row may hold: printable ASCII, GAP included, except '>' (the
# FASTA header mark) and '.' (a gap in A2M and Stockholm, which Msa.from_rows
# turns into GAP).
_VALID = bytes(c for c in range(33, 127) if chr(c) not in ">.")

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
    which the gap index, the suffix array and the graph build read.
    """

    rows: tuple[str, ...]
    names: tuple[str, ...]
    alphabet: frozenset[str] = field(init=False)
    cells: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.rows:
            raise MsaError("alignment has no rows")
        if len(self.names) != len(self.rows):
            raise MsaError(f"{len(self.names)} names for {len(self.rows)} rows")
        n = len(self.rows[0])
        if n == 0:
            raise MsaError(f"row '{self.names[0]}' is empty")
        for name, row in zip(self.names, self.rows):
            if len(row) != n:
                raise MsaError(
                    f"row '{name}' has length {len(row)}, expected {n}"
                )
            if not row.isascii() or row.encode("ascii").translate(None, _VALID):
                bad = next(c for c in row if not c.isascii() or ord(c) not in _VALID)
                raise MsaError(f"row '{name}' contains invalid symbol {bad!r}")
            if row.count(GAP) == n:
                raise MsaError(f"row '{name}' consists only of gap symbols")
        cells = np.frombuffer("".join(self.rows).encode("ascii"), np.uint8).reshape(-1, n)
        # a boolean scatter, not np.bincount, which copies the bytes to intp first
        seen = np.zeros(128, np.bool_)
        seen[cells] = True
        sigma = frozenset(map(chr, np.flatnonzero(seen).tolist())) - {GAP}
        object.__setattr__(self, "alphabet", sigma)
        object.__setattr__(self, "cells", cells)

    @classmethod
    def from_rows(cls, rows, names=None) -> "Msa":
        """Msa of the upper-cased rows, with every '.' read as a gap."""
        rows = tuple(r.upper().replace(".", GAP) for r in rows)
        if names is None:
            names = tuple(f"r{i}" for i in range(1, len(rows) + 1))
        return cls(rows=rows, names=tuple(names))

    @property
    def m(self) -> int:
        return len(self.rows)

    @property
    def n(self) -> int:
        return len(self.rows[0])


def parse_aligned_fasta(data: str | bytes) -> Msa:
    """Parse aligned FASTA text into an Msa.

    Sequence characters are upper-cased; '-' and '.' mark a gap. Header text
    after '>' is kept verbatim as the row name.
    """
    if isinstance(data, bytes):
        data = data.decode("ascii")
    names: list[str] = []
    chunks: list[list[str]] = []
    for lineno, raw in enumerate(data.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith(">"):
            names.append(line[1:].strip() or f"r{len(names) + 1}")
            chunks.append([])
        else:
            if not names:
                raise MsaError(f"line {lineno}: sequence data before first header")
            chunks[-1].append(line)
    if not names:
        raise MsaError("empty input: no FASTA records found")
    rows = ["".join(parts) for parts in chunks]
    return Msa.from_rows(rows, names)


def to_fasta(msa: Msa) -> str:
    """Serialize back to aligned FASTA (one sequence line per row)."""
    out = []
    for name, row in zip(msa.names, msa.rows):
        out.append(f">{name}\n{row}\n")
    return "".join(out)


def spell(msa: Msa, i: int, x: int, y: int) -> str:
    """Row i restricted to columns [x..y] with gaps removed.

    x = y + 1 yields the empty string.
    """
    if not 1 <= i <= msa.m:
        raise MsaError(f"row index {i} out of range [1..{msa.m}]")
    if not (1 <= x <= y + 1 and y <= msa.n):
        raise MsaError(f"column range [{x}..{y}] out of range for n={msa.n}")
    return msa.rows[i - 1][x - 1 : y].replace(GAP, "")


class GapIndex:
    """Rank/select arrays over the non-gap positions of each row.

    Maps between alignment columns and positions in the gaps-removed rows.
    Backed by int32 arrays: per-row prefix sums of the non-gap flags
    (``rank2d``), the columns of each row's non-gaps, padded with n + 1
    (``sel2d``), and each row's non-gap count (``spell_lens``).
    """

    def __init__(self, msa: Msa):
        m, n = msa.m, msa.n
        check_size_limits(n, sum(len(row) - row.count(GAP) for row in msa.rows) + m)
        self.m, self.n = m, n
        nongap = msa.cells != ord(GAP)
        # rank2d[i, x] = number of non-gaps in row i+1, columns [1..x]
        self.rank2d = np.zeros((m, n + 1), dtype=np.int32)
        np.cumsum(nongap, axis=1, out=self.rank2d[:, 1:])
        self.spell_lens = self.rank2d[:, n].copy()
        # sel2d[i, k] = 1-based column of the k-th non-gap of row i+1
        max_len = int(self.spell_lens.max())
        self.sel2d = np.full((m, max_len + 1), n + 1, dtype=np.int32)
        for i in range(m):
            cols = np.flatnonzero(nongap[i]) + 1
            self.sel2d[i, 1 : len(cols) + 1] = cols
