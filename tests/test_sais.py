import random

import numpy as np

from efgseg.sais import lcp_array, suffix_array


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


KNOWN = ["banana", "abracadabra", "mississippi", "a", "aa", "ab", "ba", "zzzzzz"]


def test_known_strings():
    for text in KNOWN + REPETITIVE + ROUNDING:
        data = encode(text)
        sa = suffix_array(data, 27)
        assert sa.tolist() == naive_sa(data), text
        lcp, _ = lcp_array(data, sa)
        assert lcp.tolist() == [0] + [
            naive_lcp_pair(data, sa[r - 1], sa[r]) for r in range(1, len(data))
        ], text


def test_empty():
    assert suffix_array(np.empty(0, np.int64), 2).tolist() == []


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
