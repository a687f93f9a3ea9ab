"""Brute-force reference implementations and seeded input generators.

Everything here recomputes from first principles with naive scans: no suffix
tree, no rank/select tables, no shared state with the fast modules. These
are the ground truth the fast paths are tested against, so keeping them
independent (and slow) is deliberate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .msa import GAP, Msa

MAXBLOCKS = "maxblocks"
MINMAXLEN = "minmaxlen"

_LETTERS = "ACGTBDEFHIKLMNPQRSUVWXYZ"


# -- generators -------------------------------------------------------------


@dataclass(frozen=True)
class RandomMsaSpec:
    """Deterministic generator parameters; same spec always yields the same Msa."""

    seed: int
    m: int
    n: int
    sigma: int = 4
    gap_prob: float = 0.2


def generate_msa(spec: RandomMsaSpec) -> Msa:
    """Seeded random alignment; all-gap rows are resampled."""
    rng = random.Random(spec.seed)
    letters = _LETTERS[: spec.sigma]
    threshold = round(spec.gap_prob * 1000)
    rows = []
    for _ in range(spec.m):
        while True:
            row = "".join(
                GAP if rng.randrange(1000) < threshold else letters[rng.randrange(spec.sigma)]
                for _ in range(spec.n)
            )
            if row.count(GAP) < spec.n:
                break
        rows.append(row)
    return Msa.from_rows(rows)


# -- segment / extension / score oracles -------------------------------------


def _occurrences(text: str, pat: str) -> list[int]:
    """All (overlapping) 0-based occurrence positions of pat in text."""
    out = []
    start = 0
    while True:
        p = text.find(pat, start)
        if p == -1:
            return out
        out.append(p)
        start = p + 1


class SegmentChecker:
    """Memoized naive semi-repeat-free test for one alignment."""

    def __init__(self, msa: Msa):
        self.msa = msa
        self.full = [row.replace(GAP, "") for row in msa.rows]
        # start[i][x] = 0-based position in full[i] of the suffix at column x+1
        self.start = [
            [len(row[:x].replace(GAP, "")) for x in range(msa.n + 1)] for row in msa.rows
        ]
        self._memo: dict[tuple[int, int], bool] = {}

    def is_valid(self, x: int, y: int) -> bool:
        """True iff columns [x..y] form a semi-repeat-free segment (1-based)."""
        if not 1 <= x <= y <= self.msa.n:
            raise ValueError(f"segment [{x}..{y}] out of range for n={self.msa.n}")
        key = (x, y)
        if key in self._memo:
            return self._memo[key]
        ok = True
        seen: set[str] = set()
        for i, row in enumerate(self.msa.rows):
            t = row[x - 1 : y].replace(GAP, "")
            if not t:
                ok = False
                break
            if t in seen:
                continue
            seen.add(t)
            for ip in range(self.msa.m):
                req = self.start[ip][x - 1]
                if any(p != req for p in _occurrences(self.full[ip], t)):
                    ok = False
                    break
            if not ok:
                break
        self._memo[key] = ok
        return ok


def oracle_minimal_right_extension(msa: Msa, x: int, checker: SegmentChecker | None = None) -> int:
    """Smallest y in [x+1..n] making [x+1..y] semi-repeat-free, else n+1."""
    if not 0 <= x <= msa.n - 1:
        raise ValueError(f"x={x} out of range [0..{msa.n - 1}]")
    checker = checker or SegmentChecker(msa)
    for y in range(x + 1, msa.n + 1):
        if checker.is_valid(x + 1, y):
            return y
    return msa.n + 1


def oracle_optimal_score(msa: Msa, scheme: str,
                         checker: SegmentChecker | None = None) -> int | None:
    """Quadratic segmentation DP; None when no valid segmentation exists."""
    if scheme not in (MAXBLOCKS, MINMAXLEN):
        raise ValueError(f"unknown scheme {scheme!r}")
    checker = checker or SegmentChecker(msa)
    n = msa.n
    s: list[int | None] = [None] * (n + 1)
    s[0] = 0
    for j in range(1, n + 1):
        best: int | None = None
        for x in range(j):
            if s[x] is None or not checker.is_valid(x + 1, j):
                continue
            if scheme == MAXBLOCKS:
                cand = s[x] + 1
                if best is None or cand > best:
                    best = cand
            else:
                cand = max(s[x], j - x)
                if best is None or cand < best:
                    best = cand
        s[j] = best
    return s[n]


def oracle_segmentation_score(blocks, scheme: str) -> int:
    """The score the segmentation ``blocks`` achieves under ``scheme``: its
    block count, or its longest block's length."""
    if scheme == MAXBLOCKS:
        return len(blocks)
    if scheme == MINMAXLEN:
        return max(y - x + 1 for x, y in blocks)
    raise ValueError(f"unknown scheme {scheme!r}")


# -- founder graph oracle ------------------------------------------------------


def oracle_efg_semi_repeat_free(efg, max_path_len: int) -> bool:
    """Check every node label occurs only as a prefix of paths starting in
    its own block, by enumerating path labels.

    Paths are extended far enough past their first node to contain any
    occurrence that starts inside it (no label can span more than the first
    node plus two maximal labels), and never beyond max_path_len.
    """
    label = {v: t for ids, labels in zip(efg.ids, efg.labels) for v, t in zip(ids, labels)}
    block_of = {v: k for k, ids in enumerate(efg.ids, start=1) for v in ids}
    adj: dict[str, list[str]] = {v: [] for v in label}
    for a, b in efg.edges:
        adj[a].append(b)
    max_lab = max(map(len, label.values()))

    def path_ok(start: str, lab: str) -> bool:
        first_len = len(label[start])
        for v, t in label.items():
            for p in _occurrences(lab, t):
                if p >= first_len:
                    continue  # starts in a later node: checked from that start
                if p != 0 or block_of[start] != block_of[v]:
                    return False
        return True

    for start in label:
        horizon = min(max_path_len, len(label[start]) + 2 * max_lab)
        stack = [(start, label[start])]
        while stack:
            v, lab = stack.pop()
            if len(lab) >= horizon or not adj[v]:
                if not path_ok(start, lab):
                    return False
                continue
            for w in adj[v]:
                stack.append((w, lab + label[w]))
    return True
