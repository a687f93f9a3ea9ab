"""Suffix array, LCP array and inverse suffix array by one prefix doubling, in numpy.

Input is an integer array of positive symbol codes. A suffix that is a proper
prefix of another sorts first, as if a unique smallest sentinel ended the
text.

The doubling starts from the packed prefix of every suffix: its first h
symbols packed into one int64, b bits each, with b the bit width of the
largest code and h = 63 // b. Code 0 past the end of the text keeps shorter
prefixes first, so packed prefixes compare like the prefixes themselves.

It is Manber-Myers prefix doubling (Manber & Myers 1993): one ``np.argsort``
of the packed prefixes orders every suffix by its first k = h symbols, and
each further round doubles k by sorting one int64 key, rank * (n + 1) +
rank[i + k]. As in Larsson & Sadakane (2007), a rank is 1 + the first slot
of the suffix's group of equal k-prefixes, and a round sorts only the
suffixes still tied with a neighbour. Each round is O(U log U) for U tied
suffixes, over O(log(L / h)) rounds, L the longest repeat. The tied
suffixes are taken in slot order, so a round's keys arrive grouped by their
head rank, already sorted between groups; a stable sort (numpy's timsort)
merges such runs cheaply. The first sort keeps the default kind, because
the packed prefixes arrive in text order, and there the stable sort is
slower.

After each round's grouping, two suffixes have equal ranks iff their
k-prefixes are equal: a tied suffix holds its group's head and a suffix
alone in its group holds its own final slot + 1. So the ranks of a round
that leaves ties are the LCP lifting level for its length k = 2h, 4h, ...;
the doubling keeps a copy of each, and the packed prefixes are the level
for k = h. Lifting a pair of suffixes walks the levels from the top down,
which finds the longest common prefix whose length is a multiple of h, then
reads the last fewer-than-h common symbols off the pair's packed prefixes.
The packed prefixes are freed after the first sort and packed again for the
lift, so they do not stay alive through the rounds.

Only the irreducible pairs are lifted. Slot r is irreducible when the
suffixes at slots r-1 and r are preceded by different symbols (the
Burrows-Wheeler transform changes between them), and the slot of suffix 0
and the slot after it count as irreducible. At every other slot the permuted
LCP array, PLCP[i] = the LCP of suffix i and its predecessor in the suffix
array, satisfies PLCP[i] = PLCP[i-1] - 1 (Kärkkäinen, Manzini & Puglisi,
"Permuted Longest-Common-Prefix Array", CPM 2009). So PLCP is filled in text
order from the irreducible positions by one running maximum of PLCP[i] + i,
which never decreases and never exceeds n, so it stays int32. The levels and
the packed prefixes are freed before the fill. The lift is then O(N) plus
O(r log(L / h)) for r irreducible pairs; near-identical rows leave few of
them. When the doubling left no level (no repeat of 2h symbols), each lifted
pair is one compare of packed prefixes.

The inverse comes free: at the end every suffix is alone in its group, so
isa = rank - 1.

``suffix_array`` is the first array of ``enhanced_suffix_array``.
``lcp_array(data, sa)`` runs the whole construction again and raises
ValueError when ``sa`` is not its suffix array.
"""

from __future__ import annotations

import numpy as np

# The suffix array, its inverse, the LCP array and all ranks are int32, so
# N must stay below 2^31.
RANK_LIMIT = 1 << 31

# Elements gathered at once; bounds the temporaries of the LCP lift.
_CHUNK = 1 << 14


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


def _codes(data, alphabet_size: int) -> np.ndarray:
    """data as a contiguous array, checked to hold integer codes in
    [1..alphabet_size-1] and to fit int32 ranks."""
    data = np.ascontiguousarray(data)
    if data.dtype.kind not in "iu":
        raise ValueError(f"symbol codes must be integers, not {data.dtype}")
    n = len(data)
    if n >= RANK_LIMIT:
        raise ValueError(f"text of length {n} does not fit int32 ranks (limit {RANK_LIMIT - 1})")
    if n and (data.min() < 1 or data.max() >= min(alphabet_size, RANK_LIMIT)):
        raise ValueError(f"symbol codes must lie in [1..{alphabet_size - 1}]")
    return data


def _doubling(data: np.ndarray, levels: list) -> tuple[np.ndarray, np.ndarray]:
    """(sa, rank) of a non-empty text, with rank[p] = 1 + the slot of suffix
    p in sa and rank[n] = 0 for the empty suffix.

    Appends to ``levels`` a copy of the ranks after each round that leaves
    ties, from the second round on: equal ranks in the j-th copy (j = 1, 2,
    ...) mean equal first h * 2^j symbols.
    """
    n = len(data)
    packed, h, _ = _packed_prefixes(data)
    k = h
    sa = np.argsort(packed[:n]).astype(np.int32)
    # the keys in sa order, sorted in place rather than gathered into a
    # second int64 array: one large temporary fewer to page-fault in
    key = packed[:n]
    key.sort()
    del packed
    # rank[p] = 1 + the first slot of sa whose suffix shares suffix p's first
    # k symbols, so a rank never exceeds n (Larsson & Sadakane 2007)
    rank = np.zeros(n + 1, np.int32)
    slots = np.arange(n, dtype=np.int32)  # ascending slots of sa not yet final
    pos = sa  # the suffixes at those slots
    while True:
        # key[i] sorts suffix pos[i]; equal neighbours are tied
        first = np.empty(len(key), np.bool_)
        first[0] = True
        np.not_equal(key[1:], key[:-1], out=first[1:])
        del key
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
            return sa, rank
        pos = pos[tied]
        key = head[tied].astype(np.int64)
        del first, head, tied
        if k > h:
            levels.append(rank.copy())
        # ties break on the rank of the k symbols that follow; a suffix that
        # ends within k symbols differs there from all others, so pos + k <= n
        key *= n + 1
        key += rank[pos + k]
        order = np.argsort(key, kind="stable")
        pos = pos[order]
        sa[slots] = pos
        key = key[order]
        del order
        k *= 2


def _leading_common(diff: np.ndarray, h: int, b: int) -> np.ndarray:
    """Leading symbols two packed prefixes share, from their nonzero xor."""
    # the highest set bit is the float exponent, one less where rounding carried
    top = (diff.astype(np.float64).view(np.int64) >> 52) - 1023
    top -= (diff >> top) == 0
    return h - 1 - top // b


def _lift_pairs(
    data: np.ndarray, left: np.ndarray, right: np.ndarray, levels: list[np.ndarray]
) -> np.ndarray:
    """LCP of the suffixes left[t] and right[t], two distinct suffixes of
    data, from the doubling's levels, with the packed prefixes as the level
    below them."""
    packed, h, b = _packed_prefixes(data)
    levels = [packed, *levels]  # equal at level j: equal first h * 2^j symbols
    lcp = np.empty(len(left), np.int32)
    for lo in range(0, len(left), _CHUNK):
        hi = min(len(left), lo + _CHUNK)
        a = left[lo:hi].copy()
        c = right[lo:hi].copy()
        for j in range(len(levels) - 1, -1, -1):
            # equal prefixes are never cut short by the end of the text,
            # because distinct suffixes have distinct lengths
            lv = levels[j]
            step = (lv[a] == lv[c]) * (h << j)
            a += step
            c += step
        # the next h symbols differ
        lcp[lo:hi] = c - right[lo:hi] + _leading_common(packed[a] ^ packed[c], h, b)
    return lcp


def _lift(
    data: np.ndarray, sa: np.ndarray, rank: np.ndarray, levels: list[np.ndarray]
) -> np.ndarray:
    """LCP array of sa from the doubling's final ``rank`` and its levels:
    lcp[r] = LCP of the suffixes at slots r-1 and r, lcp[0] = 0. Empties
    ``levels``.

    Only the irreducible slots r are lifted: those whose suffixes are
    preceded by different symbols, plus the slot of suffix 0 and the slot
    after it, where the preceding symbol is unknown. At any other slot r,
    suffix i = sa[r] and its predecessor extend suffix i-1 and its
    predecessor by the same symbol, so PLCP[i] = PLCP[i-1] - 1 (Kärkkäinen,
    Manzini & Puglisi, CPM 2009), with PLCP[i] the LCP of suffix i and its
    predecessor in sa. PLCP[i] + i then equals its value at the last
    irreducible position j <= i, and as it never decreases, one running
    maximum over text order fills it in. It never exceeds n, so int32 holds
    it. With no level, each lifted pair is one compare of packed prefixes.
    """
    n = len(sa)
    bwt = data[sa - 1]
    irreducible = np.empty(n, np.bool_)
    np.not_equal(bwt[1:], bwt[:-1], out=irreducible[1:])
    del bwt
    head = int(rank[0]) - 1  # the slot of suffix 0
    irreducible[head] = irreducible[min(head + 1, n - 1)] = True
    irreducible[0] = False  # slot 0 has no pair; suffix sa[0] is set below
    slots = np.flatnonzero(irreducible)
    del irreducible
    right = sa[slots]
    plcp_end = _lift_pairs(data, sa[slots - 1], right, levels)
    levels.clear()  # free the levels before the fill allocates
    plcp_end += right
    plcp = np.zeros(n, np.int32)
    plcp[right] = plcp_end
    plcp[sa[0]] = sa[0]
    np.maximum.accumulate(plcp, out=plcp)
    plcp -= np.arange(n, dtype=np.int32)
    return plcp[sa]


def enhanced_suffix_array(
    data: np.ndarray, alphabet_size: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(sa, lcp, isa) of data (values in [1..alphabet_size-1]), each int32 of
    length len(data); lcp[r] is the LCP of the suffixes at slots r-1 and r."""
    data = _codes(data, alphabet_size)
    n = len(data)
    if n == 0:
        return np.empty(0, np.int32), np.empty(0, np.int32), np.empty(0, np.int32)
    levels: list[np.ndarray] = []
    sa, rank = _doubling(data, levels)
    lcp = _lift(data, sa, rank, levels)
    isa = rank[:n]
    isa -= 1
    return sa, lcp, isa


def suffix_array(data: np.ndarray, alphabet_size: int) -> np.ndarray:
    """Suffix array of data (values in [1..alphabet_size-1]), length len(data)."""
    return enhanced_suffix_array(data, alphabet_size)[0]


def lcp_array(data: np.ndarray, sa: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """LCP array (lcp[r] = LCP of suffixes at ranks r-1 and r) plus inverse SA.

    Runs the doubling of ``enhanced_suffix_array`` on data (positive codes)
    and raises ValueError when sa is not its suffix array.
    """
    own_sa, lcp, isa = enhanced_suffix_array(data, RANK_LIMIT)
    if not np.array_equal(own_sa, sa):
        raise ValueError("sa is not the suffix array of data")
    return lcp, isa
