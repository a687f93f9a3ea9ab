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
each further round doubles k. As in Larsson & Sadakane (2007), a rank is 1 +
the first slot of the suffix's group of equal k-prefixes, so ranks lie in
[0..N], and a round sorts only the suffixes still tied with a neighbour.
Each round is O(U log U) for U tied suffixes, over O(log(L / h)) rounds, L
the longest repeat. Only the final ranks are kept; the inverse comes free
from them, as at the end every suffix is alone in its group and isa =
rank - 1.

A round sorts one int64 word per tied suffix in place (``ndarray.sort``).
From the top it packs the head of the suffix's tie group, the rank of the k
symbols that follow the suffix, and the suffix's index among the tied
suffixes; the sorted words are decoded with shifts and masks, and the
suffixes come back through the index. The tied suffixes are taken in slot
order, so the groups arrive sorted between themselves, and the index makes
every word distinct: the sort orders them as a stable sort of (group, rank)
would, and the suffix array comes out the same whichever sort runs. The
words live in the int64 array of the packed prefixes, which the first sort
no longer needs, so no round page-faults in a fresh one.

The word layout follows from N, on one path, and fits by construction. The
rank takes r = bits(N) bits of the 63 below the sign bit, and r <= 31 as
``_codes`` rejects N >= ``RANK_LIMIT``. Each round cuts its tied suffixes
into ranges of whole groups and sorts each range alone. A range of several
groups spans fewer than 2^B slots, B = (63 - r) // 2, so its head relative
to the range's first head and its index each fit B bits, and 2B + r <= 63.
A group that spans more slots is a range of its own: its relative head is
0 and takes no bit, and its index takes at most r bits, and 2r <= 62. So
no range needs a check, and below N = 2^21 a round is one range.

The LCP of a pair of distinct suffixes comes from comparing their packed
prefixes directly, h symbols per word; the first word that differs gives
the last fewer-than-h common symbols. A chunk of pairs is compared together:
the pairs still equal have all matched the same number of symbols, each
step compares the next w words of each of them, w doubling from 1 while the
step stays within ``_CHUNK`` words, and drops the pairs that differ. So
once few pairs are left, a pair with an LCP of L takes O(log(L / h)) steps.
The packed prefixes are packed again for the lift.

Only the irreducible pairs are compared. Slot r is irreducible when the
suffixes at slots r-1 and r are preceded by different symbols (the
Burrows-Wheeler transform changes between them), and the slot of suffix 0
and the slot after it count as irreducible. At every other slot the permuted
LCP array, PLCP[i] = the LCP of suffix i and its predecessor in the suffix
array, satisfies PLCP[i] = PLCP[i-1] - 1 (Kärkkäinen, Manzini & Puglisi,
"Permuted Longest-Common-Prefix Array", CPM 2009). So PLCP is filled in text
order from the irreducible positions by one running maximum of PLCP[i] + i,
which never decreases and never exceeds n, so it stays int32. The LCPs of
the irreducible pairs sum to O(N log N) (same paper), so the compares cost
O(N log N / h) words in all; near-identical rows leave few such pairs.

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

# Bits of the int64 word that each round of the doubling sorts per tied
# suffix; 63 keeps the words non-negative. Twice the rank bits of any N below
# RANK_LIMIT fit it, so a group alone in its range always fits.
_WORD_BITS = 63


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


def _batches(slots: np.ndarray, heads: np.ndarray, cap: int):
    """Consecutive [s, e) ranges of the tied suffixes at ascending ``slots``,
    ``heads`` the (non-decreasing) head of each one's tie group: a range
    holds whole groups spanning fewer than ``cap`` slots, or one group."""
    u = len(slots)
    if slots[-1] - slots[0] < cap:
        yield 0, u
        return
    starts = np.flatnonzero(heads[1:] != heads[:-1])
    starts += 1
    starts = np.concatenate(([0], starts, [u]))  # every group start, and u
    s = 0
    while s < u:
        # the last group start whose groups before it span fewer than cap
        # slots from s, or else the end of s's own group
        end = np.searchsorted(slots, int(slots[s]) + cap)
        e = int(starts[np.searchsorted(starts, end, side="right") - 1])
        if e == s:
            e = int(starts[np.searchsorted(starts, s, side="right")])
        yield s, e
        s = e


def _doubling(data: np.ndarray) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """(sa, rank, tied) of a non-empty text, with rank[p] = 1 + the slot of
    suffix p in sa, rank[n] = 0 for the empty suffix, and tied[j] the number
    of suffixes still tied after round j (round 0 is the first sort)."""
    n = len(data)
    packed, h, _ = _packed_prefixes(data)
    k = h
    sa = np.argsort(packed[:n]).astype(np.int32)
    # the keys in sa order, sorted in place rather than gathered into a
    # second int64 array: one large temporary fewer to page-fault in
    key = packed[:n]
    key.sort()
    first = np.empty(n, np.bool_)  # first[i]: the suffix at slots[i] starts a group
    first[0] = True
    np.not_equal(key[1:], key[:-1], out=first[1:])
    # the same int64 array then holds every round's heads and sort words, so
    # that the rounds do not page-fault in a fresh one each
    buf = key
    del key, packed
    # rank[p] = 1 + the first slot of sa whose suffix shares suffix p's first
    # k symbols, so a rank never exceeds n (Larsson & Sadakane 2007)
    rank = np.zeros(n + 1, np.int32)
    rank_bits = n.bit_length()
    # a range of several groups spans fewer than cap slots, so its relative
    # heads and its indices take at most half of the bits the ranks leave
    cap = 1 << ((_WORD_BITS - rank_bits) // 2)
    slots = np.arange(n, dtype=np.int32)  # ascending slots of sa not yet final
    pos = sa  # the suffixes at those slots
    tied_counts = []
    while True:
        head = buf[: len(slots)]
        np.multiply(first, slots, out=head)
        np.maximum.accumulate(head, out=head)
        head += 1
        rank[pos] = head
        tied = np.empty_like(first)  # a suffix alone in its group is final
        np.logical_and(first[:-1], first[1:], out=tied[:-1])
        tied[-1] = first[-1]
        np.logical_not(tied, out=tied)
        slots = slots[tied]
        tied_counts.append(len(slots))
        if len(slots) == 0:
            return sa, rank, tied_counts
        pos = pos[tied]
        first = first[tied]
        del tied
        word = buf[: len(slots)]  # the first slot of each tied suffix's group
        np.multiply(first, slots, out=word)
        np.maximum.accumulate(word, out=word)
        for s, e in _batches(slots, word, cap):
            # ties break on the rank of the k symbols that follow; a suffix
            # that ends within k symbols differs there from all others, so
            # pos + k <= n. One int64 word per suffix packs (head relative to
            # the range, that rank, index in the range), so one sort orders
            # the range as a stable sort of (head, rank) would.
            p = pos[s:e]
            w = word[s:e]
            w -= w[0]
            index_bits = (e - s - 1).bit_length()
            w <<= rank_bits
            w |= rank[p + k]
            w <<= index_bits
            w |= np.arange(e - s, dtype=np.int32)
            w.sort()
            order = np.empty(e - s, np.int32)
            np.bitwise_and(w, (1 << index_bits) - 1, out=order, casting="unsafe")
            p[:] = p[order]
            del order
            sa[slots[s:e]] = p
            # a suffix starts a group when its (head, rank) differs from its
            # predecessor's; a range starts with a group already
            w >>= index_bits
            np.not_equal(w[1:], w[:-1], out=first[s + 1 : e])
        del head, word, w, p
        k *= 2


def _leading_common(diff: np.ndarray, h: int, b: int) -> np.ndarray:
    """Leading symbols two packed prefixes share, from their nonzero xor."""
    # the highest set bit is the float exponent, one less where rounding carried
    top = diff.astype(np.float64).view(np.int64)
    top >>= 52
    top -= 1023
    top -= (diff >> top) == 0
    top //= b
    np.subtract(h - 1, top, out=top)
    return top


def _lift_pairs(data: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """LCP of the suffixes left[t] and right[t], two distinct suffixes of
    data, by comparing their packed prefixes h symbols per word.

    The pairs of a chunk that are still equal have all matched the same d
    symbols, so each step compares the next w words of every such pair and
    drops the pairs that differ. w doubles from 1 each step, as far as keeps
    a step within ``_CHUNK`` words.
    """
    packed, h, b = _packed_prefixes(data)
    n = len(data)
    lcp = np.empty(len(left), np.int32)
    for lo in range(0, len(left), _CHUNK):
        a = left[lo : lo + _CHUNK]
        c = right[lo : lo + _CHUNK]
        at = np.arange(lo, lo + len(a))  # where each LCP goes
        d = 0
        w = 1
        while len(at):
            w = min(w, max(1, _CHUNK // len(at)))
            offsets = np.arange(d, d + w * h, h)
            # equal words are never cut short by the end of the text, because
            # distinct suffixes have distinct lengths; so a pair's index
            # passes n only past its first word that differs
            index = np.add.outer(a, offsets)
            if w > 1:
                np.minimum(index, n, out=index)
            diff = packed[index]
            np.add.outer(c, offsets, out=index)
            if w > 1:
                np.minimum(index, n, out=index)
            diff ^= packed[index]
            del index
            diff = diff.ravel()
            nz = np.flatnonzero(diff)
            row = nz
            if w > 1:
                # row-major, so each pair's first nonzero word comes first
                row = nz // w
                first = np.empty(len(nz), np.bool_)
                first[:1] = True
                np.not_equal(row[1:], row[:-1], out=first[1:])
                nz = nz[first]
                row = row[first]
                del first
            lc = _leading_common(diff[nz], h, b)
            del diff
            if w > 1:
                nz -= row * w  # the word within the step
                nz *= h
                lc += nz
            lc += d
            lcp[at[row]] = lc
            more = np.ones(len(at), np.bool_)
            more[row] = False
            del nz, row, lc
            a = a[more]
            c = c[more]
            at = at[more]
            d += w * h
            w *= 2
    return lcp


def _lift(data: np.ndarray, sa: np.ndarray, rank: np.ndarray) -> np.ndarray:
    """LCP array of sa from the doubling's final ``rank``: lcp[r] = LCP of
    the suffixes at slots r-1 and r, lcp[0] = 0.

    Only the irreducible slots r are lifted: those whose suffixes are
    preceded by different symbols, plus the slot of suffix 0 and the slot
    after it, where the preceding symbol is unknown. At any other slot r,
    suffix i = sa[r] and its predecessor extend suffix i-1 and its
    predecessor by the same symbol, so PLCP[i] = PLCP[i-1] - 1 (Kärkkäinen,
    Manzini & Puglisi, CPM 2009), with PLCP[i] the LCP of suffix i and its
    predecessor in sa. PLCP[i] + i then equals its value at the last
    irreducible position j <= i, and as it never decreases, one running
    maximum over text order fills it in. It never exceeds n, so int32 holds
    it.
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
    slots -= 1
    left = sa[slots]
    del slots
    plcp_end = _lift_pairs(data, left, right)
    del left
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
    sa, rank, _ = _doubling(data)
    lcp = _lift(data, sa, rank)
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
