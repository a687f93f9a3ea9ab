"""Semi-repeat-free MSA segmentation and indexable elastic founder graphs.

Pipeline: parse an aligned FASTA, compute the minimal semi-repeat-free
right extension of every prefix from an enhanced suffix array, run a linear
segmentation DP (maximize block count or minimize maximum block length),
and build and export the induced elastic founder graph. ``run_pipeline``
runs the stages up to the score table in that order.
"""

from .dp import (
    MAXBLOCKS,
    MINMAXLEN,
    ScoreTable,
    Segmentation,
    UnsegmentableError,
    score,
    score_max_blocks,
    score_min_max_length,
    traceback,
)
from .efg import (
    Efg,
    EfgError,
    EfgNode,
    build_efg,
    export_dot,
    export_gfa,
    export_json,
)
from .extensions import ExtensionTable, compute_minimal_right_extensions
from .gst import Gst, build_gst
from .msa import GAP, GapIndex, Msa, MsaError, parse_aligned_fasta, to_fasta
from .pipeline import Run, run_pipeline

__version__ = "0.1.0"

# The package has one plain numpy engine; perfbench still records this flag.
NUMBA_ENABLED = False

__all__ = [
    "GAP",
    "MAXBLOCKS",
    "MINMAXLEN",
    "NUMBA_ENABLED",
    "Efg",
    "EfgError",
    "EfgNode",
    "ExtensionTable",
    "GapIndex",
    "Gst",
    "Msa",
    "MsaError",
    "Run",
    "ScoreTable",
    "Segmentation",
    "UnsegmentableError",
    "build_efg",
    "build_gst",
    "compute_minimal_right_extensions",
    "export_dot",
    "export_gfa",
    "export_json",
    "parse_aligned_fasta",
    "run_pipeline",
    "score",
    "score_max_blocks",
    "score_min_max_length",
    "to_fasta",
    "traceback",
]
