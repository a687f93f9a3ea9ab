"""Optimal semi-repeat-free segmentation scores in one pass over the columns.

Both schemes consume the (x, f(x)) pairs sorted by f. Scheme "maxblocks"
keeps a running maximum of s(x)+1 over the usable prefixes. Scheme
"minmaxlen" (Equi et al., ISAAC 2021) splits the usable x at column j in
two. A non-leader's last segment [x+1..j] is no longer than s(x), so it
scores s(x); a count array C over those scores gives their minimum I. A
leader's last segment is longer, so it scores j - x, and the best leader is
the largest one at every column: the index ``lead`` is all that side keeps.
When a non-leader's segment outgrows its score it becomes a leader via an
expiry bucket, which is why I only ever needs to be nudged up by one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .extensions import ExtensionTable
from .msa import DP_LIMIT

MAXBLOCKS = "maxblocks"
MINMAXLEN = "minmaxlen"

# scores and witnesses are bounded by n + 1 < DP_LIMIT, so the tables fit int32
INF = DP_LIMIT
NEG_INF = -INF


# Both kernels run over plain Python lists: one tolist() per input array and
# one int32 array per output are cheaper than indexing numpy scalars in the
# loop. op_count is one per consumed pair, one per expiry move and one per
# column.


def _max_blocks_kernel(xs, fs, n):
    xs, fs = xs.tolist(), fs.tolist()
    s = [NEG_INF] * (n + 1)
    s[0] = 0
    pred = [-1] * (n + 1)
    best = NEG_INF
    bx = -1
    ptr = 0
    n_pairs = len(fs)
    for j in range(1, n + 1):
        while ptr < n_pairs and fs[ptr] <= j:
            x = xs[ptr]
            if s[x] > NEG_INF and s[x] + 1 > best:
                best = s[x] + 1
                bx = x
            ptr += 1
        if best > NEG_INF:
            s[j] = best
            pred[j] = bx
    return np.array(s, np.int32), np.array(pred, np.int32), ptr + n


def _min_max_len_kernel(xs, fs, n):
    xs, fs = xs.tolist(), fs.tolist()
    s = [INF] * (n + 1)
    s[0] = 0
    pred = [-1] * (n + 1)
    C = [0] * (n + 2)
    # expiry buckets as linked lists threaded through the x values; maxx[v] =
    # largest consumed non-leader x of score v, which is always a live
    # witness while C[v] > 0
    bucket_head = [-1] * (n + 2)
    bucket_next = [-1] * (n + 1)
    maxx = [-1] * (n + 2)
    ptr = 0
    moves = 0
    n_pairs = len(fs)
    I = 1
    # the largest leader x, -1 for none; then j - lead = j + 1 exceeds I,
    # which never exceeds j
    lead = -1
    for j in range(1, n + 1):
        while ptr < n_pairs and fs[ptr] <= j:
            x = xs[ptr]
            ptr += 1
            sx = s[x]
            if sx >= INF:
                continue  # prefix [1..x] has no valid segmentation
            if j <= x + sx:
                # non-leader: usable at score s(x) until column x + s(x)
                C[sx] += 1
                if sx < I:
                    I = sx
                if x > maxx[sx]:
                    maxx[sx] = x
                e = x + sx + 1
                if e <= n:
                    bucket_next[x] = bucket_head[e]
                    bucket_head[e] = x
            elif x > lead:
                lead = x
        b = bucket_head[j]
        while b != -1:
            # [b+1..j] just became longer than s(b), final since column b:
            # b moves to the leader side
            C[s[b]] -= 1
            if b > lead:
                lead = b
            b = bucket_next[b]
            moves += 1
        if C[I] > 0 and I <= j - lead:
            s[j] = I
            pred[j] = maxx[I]
        elif lead >= 0:
            s[j] = j - lead
            pred[j] = lead
        if C[I] == 0:
            I += 1
    return np.array(s, np.int32), np.array(pred, np.int32), ptr + moves + n


@dataclass
class ScoreTable:
    """Per-prefix optimal scores s(0..n) plus traceback witnesses."""

    scheme: str
    s: np.ndarray
    pred: np.ndarray
    op_count: int

    @property
    def n(self) -> int:
        return len(self.s) - 1

    def score(self, j: int | None = None) -> int | None:
        """Optimal score of prefix [1..j] (default j = n); None if unsegmentable."""
        j = self.n if j is None else j
        v = int(self.s[j])
        if v >= INF or v <= NEG_INF:
            return None
        return v


@dataclass
class Segmentation:
    """Consecutive column intervals [start..end] partitioning [1..n]."""

    blocks: list[tuple[int, int]]
    score: int
    scheme: str

    @property
    def b(self) -> int:
        return len(self.blocks)

    def max_block_length(self) -> int:
        return max(e - s + 1 for s, e in self.blocks)


class UnsegmentableError(ValueError):
    """No semi-repeat-free segmentation of the full alignment exists."""


def score_max_blocks(ext: ExtensionTable) -> ScoreTable:
    """Maximize the number of blocks."""
    xs, fs = ext.pairs_by_f()
    s, pred, ops = _max_blocks_kernel(xs, fs, ext.n)
    return ScoreTable(scheme=MAXBLOCKS, s=s, pred=pred, op_count=int(ops))


def score_min_max_length(pairs: tuple[np.ndarray, np.ndarray], n: int) -> ScoreTable:
    """Minimize the maximum block length.

    ``pairs`` is (xs, fs) sorted ascending by f, covering x = 0..n-1; pairs
    with f(x) = n + 1 are never consumed.
    """
    xs, fs = pairs
    if len(xs) != n or len(fs) != n:
        raise ValueError(f"expected {n} extension pairs, got {len(xs)}")
    if np.any(np.diff(fs) < 0):
        raise ValueError("extension pairs are not sorted by f")
    if n and (xs.min() < 0 or xs.max() >= n or fs.min() < 1 or fs.max() > n + 1):
        raise ValueError("extension pair values out of range")
    s, pred, ops = _min_max_len_kernel(xs, fs, n)
    return ScoreTable(scheme=MINMAXLEN, s=s, pred=pred, op_count=int(ops))


def score(ext: ExtensionTable, scheme: str) -> ScoreTable:
    """The score table of ``scheme``, MAXBLOCKS or MINMAXLEN; the one place
    that picks a DP by scheme."""
    if scheme == MAXBLOCKS:
        return score_max_blocks(ext)
    if scheme == MINMAXLEN:
        return score_min_max_length(ext.pairs_by_f(), ext.n)
    raise ValueError(f"unknown scheme {scheme!r}")


def traceback(table: ScoreTable, ext: ExtensionTable) -> Segmentation:
    """Recover an optimal segmentation from the witness predecessors."""
    best = table.score()
    if best is None:
        raise UnsegmentableError("no semi-repeat-free segmentation exists")
    blocks: list[tuple[int, int]] = []
    j = table.n
    while j > 0:
        x = int(table.pred[j])
        if x < 0 or x >= j or ext.f[x] > j:
            raise AssertionError(f"invalid traceback witness {x} at column {j}")
        blocks.append((x + 1, j))
        j = x
    blocks.reverse()
    return Segmentation(blocks=blocks, score=best, scheme=table.scheme)
