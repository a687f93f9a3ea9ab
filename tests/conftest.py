import random
from types import SimpleNamespace

import numpy as np
import pytest

import efgseg as E


@pytest.fixture
def msa_e():
    """Two-row gapped alignment whose derived values are known exactly."""
    return E.parse_aligned_fasta(">r1\nAG-C\n>r2\nA-GC\n")


@pytest.fixture
def msa_aaa():
    return E.Msa.from_rows(["AAA"])


def build_pipeline(msa):
    gi = E.GapIndex(msa)
    gst = E.build_gst(msa)
    ext = E.compute_minimal_right_extensions(msa, gi, gst)
    return gi, gst, ext


@pytest.fixture
def pipeline():
    return build_pipeline


def leaf_tree(gst):
    """The tree view of gst as ``ancestors.solve`` reads it, with fresh
    leaf marks. A Gst's leaves are node ids 0..n_leaves-1 in suffix order."""
    return SimpleNamespace(
        parent=gst.parent,
        lml=gst.lml,
        rml=gst.rml,
        root=gst.root,
        n_leaves=gst.n_leaves,
        leaf_nodes=np.arange(gst.n_leaves, dtype=np.int64),
        marked=np.zeros(gst.n_leaves, np.bool_),
    )


def near_identical_msa(seed, m, n, snp_rate, gap_rate):
    """Copies of one random row with private substitutions and gaps."""
    rng = random.Random(seed)
    base = [rng.choice("ACGT") for _ in range(n)]
    rows = []
    for _ in range(m):
        row = [rng.choice("ACGT") if rng.random() < snp_rate else c for c in base]
        row = ["-" if rng.random() < gap_rate else c for c in row]
        if all(c == "-" for c in row):
            row[0] = base[0]
        rows.append("".join(row))
    return E.Msa.from_rows(rows)
