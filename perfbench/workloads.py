"""Seeded input generators for the benchmark workloads.

The generators use numpy only and never import efgseg, so a change to the
program cannot change the inputs. The same (workload, seed) always gives the
same alignments, byte for byte. Every row gets a unique header; the first
whitespace token (the GFA path name) is unique too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

LETTERS = np.frombuffer(b"ACGT", dtype=np.uint8)
GAP = ord("-")
LEAD = 16  # columns at the start of a near-identical alignment where no gap run starts


@dataclass(frozen=True)
class Workload:
    name: str
    scheme: str  # --score passed to `efgseg export` / `efgseg segment`
    m: int
    n: int
    snp_rate: float = 0.0  # near-identical rows: per-row, per-column substitution rate
    indel_rate: float = 0.0  # near-identical rows: gap runs started per row and column
    indel_max: int = 0  # gap run lengths are uniform in [1..indel_max]
    gap_prob: float = 0.0  # random rows: per-cell gap probability


WORKLOADS = {
    "random": Workload("random", "maxblocks", m=16, n=8000, gap_prob=0.2),
    "pangenome": Workload(
        "pangenome", "minmaxlen", m=32, n=10_000,
        snp_rate=0.002, indel_rate=0.0005, indel_max=8,
    ),
    "reexport": Workload(
        "reexport", "maxblocks", m=1000, n=500,
        snp_rate=0.002, indel_rate=0.0001, indel_max=8,
    ),
}

_SALT = {"random": 1, "pangenome": 2, "reexport": 3, "smoke": 4}


def _rng(workload: str, seed: int, k: int) -> np.random.Generator:
    return np.random.default_rng([_SALT.get(workload, 0), seed, k])


def random_rows(rng: np.random.Generator, m: int, n: int, gap_prob: float) -> np.ndarray:
    """Uniform rows over ACGT with independent gaps; no row is all gaps."""
    rows = LETTERS[rng.integers(0, 4, size=(m, n))]
    rows[rng.random((m, n)) < gap_prob] = GAP
    for i in np.flatnonzero((rows == GAP).all(axis=1)):
        rows[i, 0] = LETTERS[0]
    return rows


def near_identical_rows(
    rng: np.random.Generator, m: int, n: int, snp_rate: float, indel_rate: float, indel_max: int
) -> np.ndarray:
    """Rows copied from one random base, with private SNPs and gap-run deletions.

    Gap runs start at column LEAD + 1 or later. A row with a deletion of
    length d after a prefix that equals itself shifted by d (such as any
    leading gap) spells a string that also occurs d symbols into the other
    rows, and then the alignment may have no semi-repeat-free segmentation
    at all (efgseg exits 3). With LEAD = 16 such a prefix is as likely as a
    16-symbol random match, and the whole alignment is one valid block.
    """
    base = LETTERS[rng.integers(0, 4, size=n)]
    rows = np.repeat(base[None, :], m, axis=0)
    snp = rng.random((m, n)) < snp_rate
    # a substitution never reproduces the base letter
    shift = rng.integers(1, 4, size=(m, n), dtype=np.uint8)
    code = np.searchsorted(LETTERS, rows)
    rows = np.where(snp, LETTERS[(code + shift) % 4], rows)
    starts = np.argwhere(rng.random((m, n)) < indel_rate)
    starts = starts[starts[:, 1] >= LEAD]
    lengths = rng.integers(1, indel_max + 1, size=len(starts))
    for (i, x), length in zip(starts, lengths):
        rows[i, x : x + length] = GAP
    return rows


def make_rows(w: Workload, seed: int, k: int) -> np.ndarray:
    """Alignment k of a run with this seed, as an (m, n) uint8 array."""
    rng = _rng(w.name, seed, k)
    if w.gap_prob:
        return random_rows(rng, w.m, w.n, w.gap_prob)
    return near_identical_rows(rng, w.m, w.n, w.snp_rate, w.indel_rate, w.indel_max)


def to_fasta(w: Workload, seed: int, k: int, rows: np.ndarray) -> str:
    return "".join(
        f">{w.name}{k}_{i + 1:04d} seed={seed}\n{row.tobytes().decode('ascii')}\n"
        for i, row in enumerate(rows)
    )
