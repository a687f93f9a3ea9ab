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
    k-th symbol of the sorted alphabet as m + 1 + k. Row i's string plus
    terminator starts at ``text[row_starts[i - 1]]`` and has length
    ``row_alpha_lens[i - 1]``. ``columns`` maps each text position to its
    1-based alignment column, and each terminator to n + 1. ``sa``, ``isa``
    and ``lcp`` are the suffix array, its inverse and the LCP array of
    ``text``. ``msa`` is the alignment it was built from.
    """

    def __init__(self, msa: Msa):
        m, n = msa.m, msa.n
        nongap = msa.cells != ord(GAP)
        row_alpha_lens = np.count_nonzero(nongap, axis=1).astype(np.int64) + 1
        check_size_limits(n, int(row_alpha_lens.sum()))
        sigma = sorted(msa.alphabet)
        alphabet_size = m + 1 + len(sigma)
        code_of = np.zeros(256, np.int32)
        for idx, c in enumerate(sigma):
            code_of[ord(c)] = m + 1 + idx

        row_starts = np.zeros(m, np.int64)
        np.cumsum(row_alpha_lens[:-1], out=row_starts[1:])
        terminators = row_starts + row_alpha_lens - 1
        text = np.empty(int(row_alpha_lens.sum()), np.int32)
        is_symbol = np.ones(len(text), np.bool_)
        is_symbol[terminators] = False
        text[is_symbol] = code_of[msa.cells[nongap]]
        text[terminators] = np.arange(1, m + 1)  # terminator of row i+1
        # an int32 mask gather, not np.nonzero, which makes two int64 arrays
        columns = np.full(len(text), n + 1, np.int32)
        columns[is_symbol] = np.broadcast_to(np.arange(1, n + 1, dtype=np.int32), (m, n))[nongap]
        del nongap, is_symbol

        sa, lcp, isa = enhanced_suffix_array(text, alphabet_size)

        self.msa = msa
        self.text = text
        self.columns = columns
        self.sa = sa
        self.isa = isa
        self.lcp = lcp
        self.row_starts = row_starts
        self.row_alpha_lens = row_alpha_lens


def build_gst(msa: Msa) -> Gst:
    """Build the enhanced suffix array of the gaps-removed rows."""
    return Gst(msa)
