"""The stages of the method in their order, in one place.

The enhanced suffix array of the gaps-removed rows is built first, then the
gap index, and the column sweep reads both to compute f. Neither outlives
the sweep, so the segmentation DP runs with only f alive, and the gap
index's rank matrix is not alive through the suffix array's peak.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dp import ScoreTable, Segmentation, score, traceback
from .extensions import ExtensionTable, compute_minimal_right_extensions
from .gst import build_gst
from .msa import GapIndex, Msa


@dataclass
class Run:
    """The minimal right extensions of an alignment and, when a scheme was
    given, its score table."""

    ext: ExtensionTable
    table: ScoreTable | None

    def segmentation(self) -> Segmentation:
        """An optimal segmentation; raises UnsegmentableError when none exists."""
        if self.table is None:
            raise ValueError("the pipeline ran without a scheme, so it has no segmentation")
        return traceback(self.table, self.ext)


def run_pipeline(msa: Msa, scheme: str | None = None) -> Run:
    """f of every prefix boundary, and the score table of ``scheme`` (MAXBLOCKS
    or MINMAXLEN) unless it is None."""
    gst = build_gst(msa)
    ext = compute_minimal_right_extensions(msa, GapIndex(msa), gst)
    del gst  # freed before the DP
    return Run(ext=ext, table=None if scheme is None else score(ext, scheme))
