"""Enhanced suffix array over the gaps-removed MSA rows.

Each row contributes its gaps-removed string followed by a distinct
terminator; terminators sort below every sequence symbol and in row order,
so suffix order is deterministic. The structure is the suffix array, its
inverse and the LCP array of the row concatenation (Abouelhoda, Kurtz &
Ohlebusch 2004). The column sweep answers the paper's suffix-tree queries
on these arrays directly, so no tree is built.
"""

from __future__ import annotations

import numpy as np

from .msa import GAP, Msa, check_size_limits
from .sais import enhanced_suffix_array


class Gst:
    """Enhanced suffix array of the gaps-removed rows.

    ``text`` codes 0 as unused, the terminator of row i as i (1..m) and the
    k-th (0-based) byte value other than GAP that occurs in ``msa.cells`` as
    m + 1 + k: a boolean scatter of the cells and its cumulative sum make
    the code table, so symbols sort in byte order. Row i's string plus
    terminator starts at ``text[row_starts[i - 1]]``. ``columns`` maps each
    text position to its 1-based alignment column, and each terminator to
    n + 1. ``sa``, ``isa`` and ``lcp`` are the suffix array, its inverse and
    the LCP array of ``text``. ``msa`` is the alignment it was built from.
    One (m, n + 1) mask, the non-gap cells and then a terminator column,
    lays out both ``text`` and ``columns``; ``columns`` is gathered after
    the suffix array, so only the mask and ``text`` are alive through it.
    """

    def __init__(self, msa: Msa):
        m, n = msa.m, msa.n
        keep = np.ones((m, n + 1), np.bool_)
        np.not_equal(msa.cells, ord(GAP), out=keep[:, :n])
        row_lens = np.count_nonzero(keep, axis=1)
        check_size_limits(n, int(row_lens.sum()))
        used = np.zeros(128, np.bool_)
        used[msa.cells] = True
        used[ord(GAP)] = False
        code_of = np.cumsum(used, dtype=np.int32) + m

        codes = np.empty((m, n + 1), np.int32)
        codes[:, :n] = code_of[msa.cells]
        codes[:, n] = np.arange(1, m + 1)  # terminator of row i+1
        text = codes[keep]
        del codes

        sa, lcp, isa = enhanced_suffix_array(text, int(code_of[-1]) + 1)

        # an int32 mask gather, not np.nonzero, which makes two int64 arrays
        columns = np.broadcast_to(np.arange(1, n + 2, dtype=np.int32), (m, n + 1))[keep]
        row_starts = np.zeros(m, np.int64)
        np.cumsum(row_lens[:-1], out=row_starts[1:])

        self.msa = msa
        self.text = text
        self.columns = columns
        self.sa = sa
        self.isa = isa
        self.lcp = lcp
        self.row_starts = row_starts


def build_gst(msa: Msa) -> Gst:
    """Build the enhanced suffix array of the gaps-removed rows."""
    return Gst(msa)
