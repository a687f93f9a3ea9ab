"""Minimal semi-repeat-free right extensions f(x) for every prefix boundary.

At column x, row i's gaps-removed suffix that starts just past the boundary
is a leaf of the generalized suffix tree: ``isa[row_starts[i] + rank2d[i, x]]``.
The m leaves of a column split into runs of consecutive leaf ranks. For leaf
q in run [lb..rb], the exclusive ancestor that covers q hangs below a node of
string depth D = max(min lcp[lb..q], min lcp[q+1..rb+1]) (lcp[N] = 0), so
row i's segment must spell g = D + 1 symbols to be unique, and its extension
ends at the column of its (rank2d[i, x] + g)-th non-gap. This is the
exclusive-ancestor query of the paper answered on the enhanced suffix array
(Abouelhoda, Kurtz & Ohlebusch 2004) instead of on a materialised tree.

The sweep runs over chunks of columns with whole-array numpy: one sort per
column, then segmented prefix and suffix minima over all runs of the chunk
at once. Chunks hold at most about ``SWEEP_CHUNK_CELLS`` cells, so the
temporaries stay bounded whatever the alignment size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gst import Gst
from .msa import GapIndex, Msa, MsaError

SWEEP_CHUNK_CELLS = 1 << 14


def _segmented_min(values: np.ndarray, run: np.ndarray, big: int, reverse: bool) -> np.ndarray:
    """Running minimum of values restarted at every new run id.

    ``run`` is non-decreasing and every value lies in [0..big). Shifting each
    run by run * big keeps earlier runs (later ones, when reverse) above all
    values of the current run, so one plain accumulate never crosses a run.
    """
    off = run * big
    if reverse:
        return np.minimum.accumulate((values + off)[::-1])[::-1] - off
    return np.minimum.accumulate(values - off) + off


@dataclass
class ExtensionTable:
    """f(x) for x in [0..n-1]; value n+1 means no extension ends by column n.

    ``op_count`` counts the elements the sweep touches: per column, m
    elements for each of the ceil(log2 m) passes of the leaf sort (at least
    one), and m each for the run split, the prefix-minimum scan and the
    suffix-minimum scan. That is n * m * (max(1, ceil(log2 m)) + 3).
    """

    f: np.ndarray
    n: int
    op_count: int

    def pairs_by_f(self) -> tuple[np.ndarray, np.ndarray]:
        """(xs, fs) with all n pairs (x, f(x)) sorted ascending by f.

        The sort is stable, so x ascends within equal f; the DPs' tie-breaking
        relies on that order.
        """
        xs = np.argsort(self.f, kind="stable")
        return xs, self.f[xs]

    def __getitem__(self, x: int) -> int:
        return int(self.f[x])


def compute_minimal_right_extensions(msa: Msa, gi: GapIndex, gst: Gst) -> ExtensionTable:
    """f(x) = least y > x such that columns [x+1..y] form a semi-repeat-free
    segment, or n+1 when no such y <= n exists."""
    if (gi.m, gi.n) != (msa.m, msa.n) or (gst.msa.m, gst.msa.n) != (msa.m, msa.n):
        raise MsaError("gap index / suffix tree were built from a different alignment")
    m, n = msa.m, msa.n
    lcp = np.append(gst.lcp, 0)  # lcp[N] = 0 closes a run that ends at the last leaf
    big = int(lcp.max()) + 1
    max_k = gi.sel2d.shape[1] - 1
    sort_passes = max(1, (m - 1).bit_length())
    f = np.empty(n, np.int64)
    width = max(1, SWEEP_CHUNK_CELLS // m)
    ops = 0
    for x0 in range(0, n, width):
        cols = np.arange(x0, min(n, x0 + width))
        # (columns, m): each column's m leaves, ascending, and their rows
        leaves = gst.isa[gst.row_starts + gi.rank2d[:, cols].T]
        rows = np.argsort(leaves, axis=1)
        leaves = np.take_along_axis(leaves, rows, axis=1)
        flat = leaves.ravel()
        new_run = np.empty(flat.size, np.bool_)
        new_run[0] = True
        np.not_equal(flat[1:], flat[:-1] + 1, out=new_run[1:])
        new_run[::m] = True  # runs never span two columns
        run = np.cumsum(new_run)
        left = _segmented_min(lcp[flat], run, big, reverse=False)
        right = _segmented_min(lcp[flat + 1], run, big, reverse=True)
        k = gi.rank2d[rows, cols[:, None]] + (np.maximum(left, right) + 1).reshape(rows.shape)
        fi = np.where(
            k <= gi.spell_lens[rows], gi.sel2d[rows, np.minimum(k, max_k)], n + 1
        )
        f[cols] = fi.max(axis=1)
        ops += flat.size * (sort_passes + 3)
    return ExtensionTable(f=f, n=n, op_count=ops)
