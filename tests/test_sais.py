import random
import tracemalloc

import numpy as np
import pytest

import efgseg as E
from efgseg import oracle as O
from efgseg import sais
from efgseg.sais import (
    _CHUNK,
    _doubling,
    _leading_common,
    _packed_prefixes,
    enhanced_suffix_array,
    lcp_array,
    suffix_array,
)
from tests.conftest import near_identical_msa


def naive_sa(data):
    return sorted(range(len(data)), key=lambda i: data[i:].tolist())


def naive_lcp_pair(data, a, b):
    h = 0
    while a + h < len(data) and b + h < len(data) and data[a + h] == data[b + h]:
        h += 1
    return h


def encode(text):
    # map chars to codes >= 1
    return np.array([ord(c) - ord("a") + 1 for c in text], dtype=np.int64)


# Periodic texts keep every suffix tied with its shifted copies for the most
# doubling rounds, and give the deepest LCP lifting.
REPETITIVE = [unit * reps for unit in ("a", "ab", "aab") for reps in (2, 3, 5, 8, 17, 33, 64)]
# The packed prefixes of the adjacent suffixes "acc...c" and "b" xor to 62
# one bits, which a float conversion rounds up to the next power of two.
ROUNDING = ["a" + "c" * 30 + "b"]
# Suffix 0 has no preceding symbol, so the LCP lift always takes its slot
# and the slot after it. Here suffix 0 sorts last, then first, and each text
# repeats enough symbols for that pair to take several compare steps.
SUFFIX_ZERO = ["z" + "a" * 40, "a" * 40 + "z"]


KNOWN = ["banana", "abracadabra", "mississippi", "a", "aa", "ab", "ba", "zzzzzz"]


def test_known_strings():
    for text in KNOWN + REPETITIVE + ROUNDING + SUFFIX_ZERO:
        data = encode(text)
        sa = suffix_array(data, 27)
        assert sa.tolist() == naive_sa(data), text
        lcp, _ = lcp_array(data, sa)
        assert lcp.tolist() == [0] + [
            naive_lcp_pair(data, sa[r - 1], sa[r]) for r in range(1, len(data))
        ], text


def test_empty():
    assert suffix_array(np.empty(0, np.int64), 2).tolist() == []


def test_one_symbol_text():
    for dtype in (np.int32, np.int64, np.uint8):
        sa, lcp, isa = enhanced_suffix_array(np.array([3], dtype), 4)
        assert sa.tolist() == lcp.tolist() == isa.tolist() == [0]


def test_codes_must_be_integers():
    # truncating 1.9, 1.2, 2.5 to 1, 1, 2 would sort another text
    for data in (np.array([1.9, 1.2, 2.5]), np.array([True, True])):
        with pytest.raises(ValueError, match="must be integers"):
            enhanced_suffix_array(data, 3)


def test_codes_length_limit(monkeypatch):
    monkeypatch.setattr(sais, "RANK_LIMIT", 4)
    enhanced_suffix_array(np.array([1, 2, 1]), 3)
    with pytest.raises(ValueError, match="length 4 does not fit int32 ranks"):
        enhanced_suffix_array(np.array([1, 2, 1, 2]), 3)


def large_code_text(rng, n):
    """Random codes whose largest value k exceeds the length n.

    The first round packs several symbols into one key. Its bits per symbol
    must come from the largest symbol code, not from the text length, or
    such texts mis-sort.
    """
    k = rng.randint(n + 1, 50 * n)
    data = np.array([rng.randint(1, k) for _ in range(n)], dtype=np.int64)
    data[rng.randrange(n)] = k
    return data, k


def test_random_vs_naive():
    for seed in range(400):
        rng = random.Random(seed)
        n = rng.randint(1, 80)
        if seed < 200:
            k = rng.choice([2, 3, 4, 8, 16])
            data = np.array([rng.randint(1, k) for _ in range(n)], dtype=np.int64)
        else:
            data, k = large_code_text(rng, n)
        sa = suffix_array(data, k + 1)
        assert sa.tolist() == naive_sa(data), (seed, data.tolist())


def test_lcp_vs_naive():
    for seed in range(120):
        rng = random.Random(seed + 500)
        n = rng.randint(2, 60)
        if seed < 60:
            k = 3
            data = np.array([rng.randint(1, k) for _ in range(n)], dtype=np.int64)
        else:
            data, k = large_code_text(rng, n)
        sa = suffix_array(data, k + 1)
        lcp, isa = lcp_array(data, sa)
        assert lcp[0] == 0
        for r in range(1, n):
            assert lcp[r] == naive_lcp_pair(data, sa[r - 1], sa[r])
        assert all(isa[sa[r]] == r for r in range(n))


# -- the level-rebuild LCP of the earlier engine, as a loop reference -----------


def _mark_changes(changed, key, sa, step):
    """changed[r] |= key at sa[r] + step differs from key at sa[r - 1] + step.

    Offsets past the end read key[n].
    """
    n = len(sa)
    for lo in range(1, n, _CHUNK):
        hi = min(n, lo + _CHUNK)
        idx = sa[lo - 1 : hi].astype(np.int64)
        idx += step
        tail = key[np.minimum(idx, n, out=idx)]
        changed[lo:hi] |= tail[1:] != tail[:-1]


def _prefix_rank_levels(packed, h, sa):
    """levels[j][p] is equal for two suffixes p iff their (h * 2^j)-prefixes are.

    Level 0 is ``packed`` itself; the others are dense ranks rebuilt along
    ``sa`` as a cumsum of the positions where the (rank, rank h * 2^j
    further) pair changes.
    """
    n = len(sa)
    levels = [packed]
    changed = np.zeros(n, np.bool_)
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


def reference_lcp_array(data, sa):
    """(lcp, isa) of a given suffix array, with the levels rebuilt along it."""
    n = len(sa)
    isa = np.empty(n, np.int32)
    isa[sa] = np.arange(n, dtype=np.int32)
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
            lv = levels[j]
            step = (lv[a] == lv[c]) * (h << j)
            a += step
            c += step
        lcp[lo:hi] = c - sa[lo:hi] + _leading_common(packed[a] ^ packed[c], h, b)
    return lcp, isa


def reference_texts():
    for text in KNOWN + REPETITIVE + ROUNDING + SUFFIX_ZERO:
        yield text, encode(text)
    for seed in range(20):
        rng = random.Random(seed + 900)
        data, _ = large_code_text(rng, rng.randint(1, 80))
        yield f"large codes {seed}", data
    msas = {
        "16 x 2000 random": O.generate_msa(O.RandomMsaSpec(seed=41, m=16, n=2000)),
        "16 x 2000 near-identical": near_identical_msa(42, 16, 2000, snp_rate=0.005, gap_rate=0.01),
        # more terminators: wider symbol codes, a smaller h and more rounds
        "200 x 500 near-identical": near_identical_msa(43, 200, 500, snp_rate=0.005, gap_rate=0.01),
        # almost every adjacent pair is preceded by equal symbols
        "16 x 500 identical": near_identical_msa(44, 16, 500, snp_rate=0, gap_rate=0),
    }
    for name, msa in msas.items():
        yield name, E.build_gst(msa).text


def test_enhanced_suffix_array_matches_reference():
    for name, data in reference_texts():
        alphabet_size = int(data.max()) + 1
        sa, lcp, isa = enhanced_suffix_array(data, alphabet_size)
        assert sa.dtype == lcp.dtype == isa.dtype == np.int32, name
        want_lcp, want_isa = reference_lcp_array(data, sa)
        assert np.array_equal(sa, suffix_array(data, alphabet_size)), name
        own_lcp, own_isa = lcp_array(data, sa)
        for got_lcp, got_isa in ((lcp, isa), (own_lcp, own_isa)):
            assert np.array_equal(got_lcp, want_lcp), name
            assert np.array_equal(got_isa, want_isa), name


def test_reference_texts_take_both_lifts():
    # the lift must hold both on a text whose first sort leaves no tie, so
    # that every pair differs within its first packed word, and on long
    # repeats, which take several rounds and several compare steps
    rounds = [len(_doubling(data)[2]) for _, data in reference_texts()]
    assert min(rounds) == 1
    assert max(rounds) >= 5


def repetitive_text(rng):
    """A periodic text with a few substitutions, or copies of one row with
    private substitutions, row i ended by terminator code i as in a Gst."""
    if rng.random() < 0.5:
        unit = [rng.randint(1, 3) for _ in range(rng.randint(1, 5))]
        data = unit * rng.randint(2, 80)
        for _ in range(rng.randint(0, 3)):
            data[rng.randrange(len(data))] = rng.randint(1, 4)
    else:
        m = rng.randint(2, 8)
        base = [rng.randint(m + 1, m + 4) for _ in range(rng.randint(10, 80))]
        data = []
        for row in range(1, m + 1):
            data += [rng.randint(m + 1, m + 4) if rng.random() < 0.02 else c for c in base]
            data.append(row)
    return np.array(data, np.int64)


# A chunk of 5 makes every round span many chunks, so that the in-place
# compaction and the chunked gathers meet chunk boundaries inside groups.
@pytest.mark.parametrize("chunk", [_CHUNK, 5])
def test_repetitive_texts_match_reference(monkeypatch, chunk):
    monkeypatch.setattr(sais, "_CHUNK", chunk)
    filled = 0
    for seed in range(300):
        data = repetitive_text(random.Random(seed + 1300))
        # ties after the second round: some pair shares 2h symbols
        filled += len(_doubling(data)[2]) >= 3
        sa, lcp, isa = enhanced_suffix_array(data, int(data.max()) + 1)
        assert sa.tolist() == naive_sa(data), seed
        want_lcp, want_isa = reference_lcp_array(data, sa)
        assert np.array_equal(lcp, want_lcp), (seed, data.tolist())
        assert np.array_equal(isa, want_isa), seed
    assert filled >= 100  # most texts take a lift of several compare steps


def batch_texts():
    yield "ab" * 300
    yield "aab" * 200
    yield "a" * 400
    for m in (4, 12):
        msa = near_identical_msa(45 + m, m, 60, snp_rate=0, gap_rate=0)
        yield E.build_gst(msa).text


def record_batches(monkeypatch):
    """Lists filled as the doubling runs: each round's [s, e) ranges, checked
    to cover the round with whole groups, and for each range whether it
    holds more than cap suffixes."""
    ranges = []
    wide = []
    batches = sais._batches

    def recorded(slots, heads, cap):
        got = list(batches(slots, heads, cap))
        ends = [e for _, e in got]
        assert [s for s, _ in got] == [0] + ends[:-1] and ends[-1] == len(slots)
        for s, e in got:
            assert s == 0 or heads[s] != heads[s - 1]  # whole groups only
            assert slots[e - 1] - slots[s] < cap or heads[s] == heads[e - 1]
            wide.append(e - s > cap)
        ranges.append(got)
        return got

    monkeypatch.setattr(sais, "_batches", recorded)
    return ranges, wide


def test_rounds_split_into_batches_match_reference(monkeypatch):
    # A narrow sort word leaves room for few slots per range, so each round
    # sorts several ranges: runs of small groups, and large groups alone.
    ranges, wide = record_batches(monkeypatch)
    monkeypatch.setattr(sais, "_WORD_BITS", 24)
    for data in batch_texts():
        if isinstance(data, str):
            data = encode(data)
        sa, lcp, isa = enhanced_suffix_array(data, int(data.max()) + 1)
        assert sa.tolist() == naive_sa(data)
        want_lcp, want_isa = reference_lcp_array(data, sa)
        assert np.array_equal(lcp, want_lcp)
        assert np.array_equal(isa, want_isa)
    assert max(len(got) for got in ranges) >= 4
    assert any(wide)  # one group alone past cap


def test_rounds_split_into_batches_at_full_word_width(monkeypatch):
    # 1024 copies of one 2048-symbol row, row c ended by terminator code
    # c + 1 as in a Gst: N = 2,098,176 > 2^21 needs 22-bit ranks, so the
    # default 63-bit word caps a range at 2^20 slots and every round sorts
    # several ranges. The arrays follow from the single row.
    copies, width = 1024, 2048
    row = np.random.default_rng(61).integers(copies + 1, copies + 5, width)
    data = np.empty((copies, width + 1), np.int64)
    data[:, :width] = row
    data[:, width] = np.arange(1, copies + 1)
    data = data.ravel()
    ranges, _ = record_batches(monkeypatch)
    sa, lcp, isa = enhanced_suffix_array(data, copies + 5)
    assert len(ranges) >= 2 and min(len(got) for got in ranges) >= 2
    # the terminators first, in row order; then each suffix of the row, in
    # the row's own order with a shorter prefix first, once per copy
    starts = np.arange(copies) * (width + 1)
    order = np.array(sorted(range(width), key=lambda p: row[p:].tolist()))
    want_sa = np.concatenate((starts + width, (order[:, None] + starts).ravel()))
    assert np.array_equal(sa, want_sa)
    # copies of suffix p share its width - p symbols; adjacent offsets share
    # the row's own LCP; a terminator shares nothing
    want_lcp = np.zeros((width + 1, copies), np.int64)
    want_lcp[1:, 1:] = width - order[:, None]
    want_lcp[2:, 0] = [naive_lcp_pair(row, p, q) for p, q in zip(order, order[1:])]
    assert np.array_equal(lcp, want_lcp.ravel())
    assert np.array_equal(isa[sa], np.arange(len(data)))


def test_sort_word_fits_every_rank_limit():
    # The doubling sorts its ranges unchecked. A range of several groups
    # fits by the choice of cap; a group alone takes r rank bits, at most r
    # index bits and no head bits, so it fits for every N that _codes accepts.
    assert 2 * (sais.RANK_LIMIT - 1).bit_length() <= sais._WORD_BITS


def test_peak_memory_per_character():
    # The doubling keeps no suffix array and no copy of the ranks through
    # its rounds, and no temporary larger than a chunk; the lift reads no
    # stored level. So the traced peak stays flat on long repeats, which
    # take the most rounds. On the ~50k texts a chunk's temporaries still
    # add a few B/char; the 32-row text is long enough that they do not.
    # The text itself is allocated before tracing.
    texts = {
        "8 identical rows": (E.build_gst(near_identical_msa(51, 8, 6250, 0, 0)).text, 29),
        "ab repeated": (encode("ab" * 25_000), 29),
        "16 near-identical rows": (
            E.build_gst(near_identical_msa(52, 16, 3200, snp_rate=0.005, gap_rate=0.01)).text,
            29,
        ),
        "32 near-identical rows": (
            E.build_gst(near_identical_msa(53, 32, 10_000, snp_rate=0.002, gap_rate=0.001)).text,
            25,
        ),
    }
    for name, (data, bound) in texts.items():
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            enhanced_suffix_array(data, int(data.max()) + 1)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= bound * len(data), (name, peak / len(data))


def test_lcp_array_rejects_wrong_input():
    data = encode("mississippi")
    sa = suffix_array(data, 27)
    swapped = sa.copy()
    swapped[[3, 4]] = swapped[[4, 3]]
    with pytest.raises(ValueError, match="not the suffix array"):
        lcp_array(data, swapped)
    with pytest.raises(ValueError, match="not the suffix array"):
        lcp_array(data, sa[:-1])
    bad = data.copy()
    bad[5] = 0
    with pytest.raises(ValueError, match="symbol codes"):
        lcp_array(bad, sa)
    with pytest.raises(ValueError, match="symbol codes"):
        enhanced_suffix_array(data, 19)  # 's' is code 19
