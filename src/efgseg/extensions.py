"""Minimal semi-repeat-free right extensions f(x) for every prefix boundary.

At column x, row i's gaps-removed suffix that starts just past the boundary
is a leaf of the generalized suffix tree: ``isa[row_starts[i] + rank2d[i, x]]``.
The m leaves of a column split into runs of consecutive leaf ranks. For leaf
q in run [lb..rb], the exclusive ancestor that covers q hangs below a node of
string depth D = max(min lcp[lb..q], min lcp[q+1..rb+1]) (lcp[N] = 0), so
the row's segment must spell D + 1 symbols to be unique, and its extension
ends at column ``columns[sa[q] + D]``. No LCP crosses a terminator, as each
is distinct, so sa[q] + D reaches the row's terminator (column n + 1, no
extension) exactly when the row has too few symbols left. This is the
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

    ``op_count`` is the sweep's element-touch model of the shape (m, n), not
    a count taken from the cells: per column, m elements for each of the
    ceil(log2 m) passes of the leaf sort (at least one), and m each for the
    run split, the prefix-minimum scan and the suffix-minimum scan. That is
    n * m * (max(1, ceil(log2 m)) + 3) for every alignment of that shape.
    """

    f: np.ndarray
    op_count: int

    @property
    def n(self) -> int:
        return len(self.f)

    def pairs_by_f(self) -> tuple[np.ndarray, np.ndarray]:
        """(xs, fs) with all n pairs (x, f(x)) sorted ascending by f.

        The sort is stable, so x ascends within equal f; the DPs' tie-breaking
        relies on that order.
        """
        xs = np.argsort(self.f, kind="stable")
        return xs, self.f[xs]


def compute_minimal_right_extensions(msa: Msa, gi: GapIndex, gst: Gst) -> ExtensionTable:
    """f(x) = least y > x such that columns [x+1..y] form a semi-repeat-free
    segment, or n+1 when no such y <= n exists."""
    if gi.msa != msa or gst.msa != msa:
        raise MsaError("gap index / suffix tree were built from a different alignment")
    m, n = msa.m, msa.n
    lcp = np.append(gst.lcp, 0)  # lcp[N] = 0 closes a run that ends at the last leaf
    big = n + 1  # no LCP crosses a terminator, so none exceeds a row's n symbols
    sort_passes = max(1, (m - 1).bit_length())
    f = np.empty(n, np.int64)
    width = max(1, SWEEP_CHUNK_CELLS // m)
    for x0 in range(0, n, width):
        cols = np.arange(x0, min(n, x0 + width))
        # (columns, m): each column's m leaves, ascending
        leaves = gst.isa[gst.row_starts + gi.rank2d[:, cols].T]
        leaves.sort(axis=1)
        flat = leaves.ravel()
        new_run = np.empty(flat.size, np.bool_)
        new_run[0] = True
        np.not_equal(flat[1:], flat[:-1] + 1, out=new_run[1:])
        new_run[::m] = True  # runs never span two columns
        run = np.cumsum(new_run)
        left = _segmented_min(lcp[flat], run, big, reverse=False)
        right = _segmented_min(lcp[flat + 1], run, big, reverse=True)
        f[cols] = gst.columns[gst.sa[flat] + np.maximum(left, right)].reshape(-1, m).max(axis=1)
    return ExtensionTable(f=f, op_count=n * m * (sort_passes + 3))
