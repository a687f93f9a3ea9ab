"""Suffix array by prefix doubling and LCP array by rank lifting, in numpy.

Input is an integer array of positive symbol codes. A suffix that is a proper
prefix of another sorts first, as if a unique smallest sentinel ended the
text.

Both start from the packed prefix of every suffix: its first h symbols
packed into one int64, b bits each, with b the bit width of the largest code
and h = 63 // b. Code 0 past the end of the text keeps shorter prefixes
first, so packed prefixes compare like the prefixes themselves.

``suffix_array`` is Manber-Myers prefix doubling (Manber & Myers 1993): one
``np.argsort`` of the packed prefixes orders every suffix by its first h
symbols, and each further round doubles that length k by sorting one int64
key, rank * (n + 1) + rank[i + k]. As in Larsson & Sadakane (2007), a rank is
the first slot of the suffix's group of equal k-prefixes, and a round sorts
only the suffixes still tied with a neighbour. Each round is O(U log U) for
U tied suffixes, over O(log(L / h)) rounds, L the longest repeat.

``lcp_array`` rebuilds the prefix ranks of lengths h, 2h, 4h, ... along the
finished suffix array without sorting. It lifts every adjacent pair from the
top level down, which finds the longest common prefix whose length is a
multiple of h, then reads the last fewer-than-h common symbols off the
pair's packed prefixes.
"""

from __future__ import annotations

import numpy as np

# The suffix array, its inverse, the LCP array and all ranks are int32, so
# N must stay below 2^31.
RANK_LIMIT = 1 << 31

# Elements gathered at once; bounds the temporaries of the LCP passes.
_CHUNK = 1 << 14


def _check_length(n: int):
    if n >= RANK_LIMIT:
        raise ValueError(f"text of length {n} does not fit int32 ranks (limit {RANK_LIMIT - 1})")


def _packed_prefixes(data: np.ndarray) -> tuple[np.ndarray, int, int]:
    """(packed, h, b): packed[i] holds data[i:i + h], b bits per symbol, first
    symbol highest; packed[n] = 0 is the empty suffix."""
    n = len(data)
    b = max(1, int(data.max()).bit_length())
    h = 63 // b
    packed = np.zeros(n + 1, np.int64)
    for t in range(h):
        packed <<= b
        packed[: max(n - t, 0)] |= data[t:]
    return packed, h, b


def _codes(data) -> np.ndarray:
    data = np.ascontiguousarray(data)
    return data if data.dtype.kind in "iu" else data.astype(np.int64)


def suffix_array(data: np.ndarray, alphabet_size: int) -> np.ndarray:
    """Suffix array of data (values in [1..alphabet_size-1]), length len(data)."""
    data = _codes(data)
    n = len(data)
    if n == 0:
        return np.empty(0, np.int32)
    _check_length(n)
    if data.min() < 1 or data.max() >= min(alphabet_size, RANK_LIMIT):
        raise ValueError(f"symbol codes must lie in [1..{alphabet_size - 1}]")
    packed, k, _ = _packed_prefixes(data)
    sa = np.argsort(packed[:n]).astype(np.int32)
    key = packed[sa]
    del packed
    # rank[p] = 1 + the first slot of sa whose suffix shares suffix p's first
    # k symbols, so a rank never exceeds n (Larsson & Sadakane 2007); rank[n]
    # = 0 is the empty suffix
    rank = np.zeros(n + 1, np.int32)
    slots = np.arange(n, dtype=np.int32)  # ascending slots of sa not yet final
    pos = sa  # the suffixes at those slots
    while True:
        # key[i] sorts suffix pos[i]; equal neighbours are tied
        first = np.empty(len(key), np.bool_)
        first[0] = True
        np.not_equal(key[1:], key[:-1], out=first[1:])
        head = np.where(first, slots, 0)
        np.maximum.accumulate(head, out=head)
        head += 1
        rank[pos] = head
        tied = np.empty_like(first)  # a suffix alone in its group is final
        np.logical_and(first[:-1], first[1:], out=tied[:-1])
        tied[-1] = first[-1]
        np.logical_not(tied, out=tied)
        slots = slots[tied]
        if len(slots) == 0:
            return sa
        # ties break on the rank of the k symbols that follow
        pos = pos[tied]
        key = head[tied].astype(np.int64)
        key *= n + 1
        after = pos.astype(np.int64)
        after += k
        key += rank[np.minimum(after, n, out=after)]
        del first, head, tied, after
        order = np.argsort(key)
        pos = pos[order]
        sa[slots] = pos
        key = key[order]
        k *= 2


def _mark_changes(changed: np.ndarray, key: np.ndarray, sa: np.ndarray, step: int):
    """changed[r] |= key at sa[r] + step differs from key at sa[r - 1] + step.

    Offsets past the end read key[n]. Gathers run in chunks, so the
    temporaries stay small.
    """
    n = len(sa)
    for lo in range(1, n, _CHUNK):
        hi = min(n, lo + _CHUNK)
        idx = sa[lo - 1 : hi].astype(np.int64)
        idx += step
        tail = key[np.minimum(idx, n, out=idx)]
        changed[lo:hi] |= tail[1:] != tail[:-1]


def _prefix_rank_levels(packed: np.ndarray, h: int, sa: np.ndarray) -> list[np.ndarray]:
    """levels[j][p] is equal for two suffixes p iff their (h * 2^j)-prefixes are.

    Level 0 is ``packed`` itself; the others hold dense ranks as int32. Entry
    n stands for the empty suffix and is below every other. Along ``sa`` the
    prefixes are non-decreasing, so the next level's ranks are a cumsum of
    the positions where the (rank, rank h * 2^j further) pair changes. The
    first level on which every prefix is distinct is not built: no adjacent
    pair matches on it.
    """
    n = len(sa)
    levels = [packed]
    changed = np.zeros(n, np.bool_)  # along sa: does the prefix differ from the one before?
    changed[0] = True
    _mark_changes(changed, packed, sa, 0)
    step = h
    while not changed.all():
        _mark_changes(changed, levels[-1], sa, step)
        if changed.all():
            break
        level = np.zeros(n + 1, np.int32)
        level[sa] = np.cumsum(changed, dtype=np.int32)
        levels.append(level)
        step *= 2
    return levels


def _leading_common(diff: np.ndarray, h: int, b: int) -> np.ndarray:
    """Leading symbols two packed prefixes share, from their nonzero xor."""
    # the highest set bit is the float exponent, one less where rounding carried
    top = (diff.astype(np.float64).view(np.int64) >> 52) - 1023
    top -= (diff >> top) == 0
    return h - 1 - top // b


def lcp_array(data: np.ndarray, sa: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """LCP array (lcp[r] = LCP of suffixes at ranks r-1 and r) plus inverse SA."""
    data = _codes(data)
    sa = np.ascontiguousarray(sa)
    n = len(sa)
    _check_length(n)
    isa = np.empty(n, np.int32)
    for lo in range(0, n, _CHUNK):
        isa[sa[lo : lo + _CHUNK]] = np.arange(lo, min(n, lo + _CHUNK), dtype=np.int32)
    lcp = np.zeros(n, np.int32)
    if n < 2:
        return lcp, isa
    packed, h, b = _packed_prefixes(data)
    levels = _prefix_rank_levels(packed, h, sa)
    for lo in range(1, n, _CHUNK):
        hi = min(n, lo + _CHUNK)
        a = sa[lo - 1 : hi - 1].copy()
        c = sa[lo:hi].copy()
        for j in range(len(levels) - 1, -1, -1):
            # equal prefixes are never cut short by the end of the text,
            # because distinct suffixes have distinct lengths
            lv = levels[j]
            step = (lv[a] == lv[c]) * (h << j)
            a += step
            c += step
        # the next h symbols differ
        lcp[lo:hi] = c - sa[lo:hi] + _leading_common(packed[a] ^ packed[c], h, b)
    return lcp, isa
