import random

import numpy as np
import pytest

from efgseg import dp as D
from efgseg import oracle as O
from efgseg.dp import (
    INF,
    MAXBLOCKS,
    MINMAXLEN,
    UnsegmentableError,
    score,
    score_min_max_length,
    traceback,
)
from efgseg.msa import Msa
from efgseg.pipeline import run_pipeline
from tests.conftest import near_identical_msa

# The DP kernels as loops over numpy scalars: the statements of the list
# kernels in efgseg.dp over int32 arrays, kept to check the list versions.
# The minmaxlen loop keeps the leader side's best value S and its witness
# with the per-bucket scores, as the kernel did before it kept one leader
# index, so the kernel is checked against that formulation too.
_INF32 = np.int32(INF)


def reference_max_blocks(xs, fs, n):
    s = np.full(n + 1, -_INF32, np.int32)
    s[0] = 0
    pred = np.full(n + 1, -1, np.int32)
    best = -_INF32
    bx = -1
    ptr = 0
    ops = 0
    n_pairs = len(fs)
    for j in range(1, n + 1):
        while ptr < n_pairs and fs[ptr] <= j:
            x = xs[ptr]
            if s[x] > -_INF32 and s[x] + 1 > best:
                best = s[x] + 1
                bx = x
            ptr += 1
            ops += 1
        if best > -_INF32:
            s[j] = best
            pred[j] = bx
        ops += 1
    return s, pred, ops


def reference_min_max_len(xs, fs, n):
    s = np.full(n + 1, _INF32, np.int32)
    s[0] = 0
    pred = np.full(n + 1, -1, np.int32)
    C = np.zeros(n + 2, np.int32)
    # expiry buckets as linked lists threaded through the x values, with the
    # score stored alongside; maxx[v] = largest consumed non-leader x of
    # score v, which is always a live witness while C[v] > 0
    bucket_head = np.full(n + 2, -1, np.int32)
    bucket_next = np.full(n + 1, -1, np.int32)
    bucket_score = np.full(n + 1, -1, np.int32)
    maxx = np.full(n + 2, -1, np.int32)
    ptr = 0
    ops = 0
    n_pairs = len(fs)
    I = np.int32(1)
    S = _INF32
    s_wit = np.int32(-1)
    for j in range(1, n + 1):
        while ptr < n_pairs and fs[ptr] <= j:
            x = xs[ptr]
            ptr += 1
            ops += 1
            sx = s[x]
            if sx >= _INF32:
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
                    bucket_score[x] = sx
                    bucket_next[x] = bucket_head[e]
                    bucket_head[e] = x
            else:
                if j - x < S:
                    S = j - x
                    s_wit = x
        b = bucket_head[j]
        while b != -1:
            # [b+1..j] just became longer than s(b): move to the leader side
            C[bucket_score[b]] -= 1
            if j - b < S:
                S = j - b
                s_wit = b
            b = bucket_next[b]
            ops += 1
        if C[I] > 0:
            if I <= S:
                s[j] = I
                pred[j] = maxx[I]
            else:
                s[j] = S
                pred[j] = s_wit
        elif S < _INF32:
            s[j] = S
            pred[j] = s_wit
        S += 1
        if C[I] == 0:
            I += 1
        ops += 1
    return s, pred, ops


def scores(table):
    return [table.score(j) for j in range(table.n + 1)]


def test_fixture_e_max_blocks(msa_e):
    ext = run_pipeline(msa_e).ext
    table = score(ext, MAXBLOCKS)
    assert scores(table) == [0, 1, 1, 2, 3]
    seg = traceback(table, ext)
    assert seg.blocks == [(1, 1), (2, 3), (4, 4)]
    assert seg.score == 3 == O.oracle_optimal_score(msa_e, MAXBLOCKS)


def test_fixture_e_min_max_length(msa_e):
    ext = run_pipeline(msa_e).ext
    table = score(ext, MINMAXLEN)
    assert scores(table) == [0, 1, 2, 2, 2]
    seg = traceback(table, ext)
    assert seg.blocks == [(1, 1), (2, 3), (4, 4)]
    assert seg.max_block_length() == 2 == O.oracle_optimal_score(msa_e, MINMAXLEN)


def test_aaa_forced_single_block(msa_aaa):
    ext = run_pipeline(msa_aaa).ext
    t1 = score(ext, MAXBLOCKS)
    assert scores(t1) == [0, None, None, 1]
    assert traceback(t1, ext).blocks == [(1, 3)]
    t2 = score(ext, MINMAXLEN)
    assert t2.score() == 3
    assert traceback(t2, ext).blocks == [(1, 3)]


def test_all_singletons():
    # distinct symbols everywhere: every column is its own valid block
    msa = Msa.from_rows(["ABC"])
    ext = run_pipeline(msa).ext
    assert ext.f.tolist() == [1, 2, 3]
    t1 = score(ext, MAXBLOCKS)
    assert scores(t1) == [0, 1, 2, 3]
    t2 = score(ext, MINMAXLEN)
    assert scores(t2) == [0, 1, 1, 1]
    assert traceback(t2, ext).blocks == [(1, 1), (2, 2), (3, 3)]


def test_unsegmentable():
    msa = Msa.from_rows(["A-B-", "AABB"])
    ext = run_pipeline(msa).ext
    assert ext.f.tolist() == [5, 5, 5, 5]
    t1 = score(ext, MAXBLOCKS)
    t2 = score(ext, MINMAXLEN)
    assert t1.score() is None and t2.score() is None
    assert O.oracle_optimal_score(msa, MAXBLOCKS) is None
    with pytest.raises(UnsegmentableError):
        traceback(t1, ext)
    with pytest.raises(UnsegmentableError):
        traceback(t2, ext)


def test_matches_oracle_random():
    for seed in range(300):
        rng = random.Random(seed * 13 + 1)
        spec = O.RandomMsaSpec(
            seed=seed + 5000, m=rng.randint(1, 6), n=rng.randint(1, 24),
            sigma=rng.choice([2, 4]), gap_prob=0.2,
        )
        msa = O.generate_msa(spec)
        ext = run_pipeline(msa).ext
        t1 = score(ext, MAXBLOCKS)
        t2 = score(ext, MINMAXLEN)
        assert t1.score() == O.oracle_optimal_score(msa, MAXBLOCKS), seed
        assert t2.score() == O.oracle_optimal_score(msa, MINMAXLEN), seed
        checker = O.SegmentChecker(msa)
        for table in (t1, t2):
            if table.score() is None:
                continue
            seg = traceback(table, ext)
            achieved = O.oracle_segmentation_score(seg.blocks, table.scheme)
            assert achieved == table.score(), (seed, table.scheme)
            assert seg.blocks[0][0] == 1 and seg.blocks[-1][1] == msa.n
            for (_, e1), (s2, _) in zip(seg.blocks, seg.blocks[1:]):
                assert s2 == e1 + 1
            assert all(checker.is_valid(a, b) for a, b in seg.blocks), (seed, table.scheme)


def test_max_blocks_monotone_once_finite():
    for seed in range(40):
        msa = O.generate_msa(O.RandomMsaSpec(seed=seed + 900, m=4, n=20))
        ext = run_pipeline(msa).ext
        table = score(ext, MAXBLOCKS)
        vals = scores(table)
        finite = [v for v in vals[1:] if v is not None]
        assert all(a <= b for a, b in zip(finite, finite[1:]))


def test_min_max_internal_invariant():
    # replay the count/expiry bookkeeping in plain Python and assert the
    # running-minimum property the pruned update relies on
    for seed in range(60):
        rng = random.Random(seed)
        msa = O.generate_msa(O.RandomMsaSpec(seed=seed + 1300, m=rng.randint(1, 5), n=20))
        ext = run_pipeline(msa).ext
        table = score(ext, MINMAXLEN)
        n = msa.n
        s = [table.score(j) for j in range(n + 1)]
        xs, fs = ext.pairs_by_f()
        C = [0] * (n + 2)
        expiry = [[] for _ in range(n + 2)]
        ptr = 0
        I, S = 1, None
        for j in range(1, n + 1):
            while ptr < n and fs[ptr] <= j:
                x = int(xs[ptr])
                ptr += 1
                if s[x] is None:
                    continue
                if j <= x + s[x]:
                    C[s[x]] += 1
                    I = min(I, s[x])
                    if x + s[x] + 1 <= n:
                        expiry[x + s[x] + 1].append(x)
                else:
                    S = j - x if S is None else min(S, j - x)
            for x in expiry[j]:
                C[s[x]] -= 1
                S = j - x if S is None else min(S, j - x)
            assert all(C[v] == 0 for v in range(1, I)), (seed, j)
            if C[min(I, n + 1)] > 0:
                expect = I if S is None else min(I, S)
            else:
                expect = S
            assert s[j] == expect, (seed, j)
            if S is not None:
                S += 1
            if C[min(I, n + 1)] == 0:
                I += 1


def test_leader_boundary_pair_is_usable():
    # at j = f(x) = x + s(x) + 1 the pair arrives exactly on the leader
    # boundary; it must be taken as a leader segment at that very column.
    # here x=3 is the unique achiever of s(7) = 4 = 7 - 3.
    msa = Msa.from_rows(["-AA-CAC", "AACC--A"])
    ext = run_pipeline(msa).ext
    table = score(ext, MINMAXLEN)
    x = 3
    assert int(ext.f[x]) == 7 and table.score(x) == 3  # boundary: 7 == 3 + 3 + 1
    assert table.score(7) == 4 == O.oracle_optimal_score(msa, MINMAXLEN)
    seg = traceback(table, ext)
    assert seg.blocks[-1] == (4, 7)


def test_score_dispatches_on_scheme(msa_e):
    ext = run_pipeline(msa_e).ext
    assert scores(score(ext, MAXBLOCKS)) == scores(D.score_max_blocks(ext))
    assert scores(score(ext, MINMAXLEN)) == scores(score_min_max_length(ext.pairs_by_f(), 4))
    with pytest.raises(ValueError, match="unknown scheme 'bogus'"):
        score(ext, "bogus")


def test_score_table_n_is_its_length(msa_e):
    table = score(run_pipeline(msa_e).ext, MINMAXLEN)
    assert table.n == len(table.s) - 1 == 4
    with pytest.raises(AttributeError):
        table.n = 5


def test_min_max_input_validation(msa_e):
    ext = run_pipeline(msa_e).ext
    xs, fs = ext.pairs_by_f()
    with pytest.raises(ValueError, match="sorted"):
        score_min_max_length((xs[::-1].copy(), fs[::-1].copy()), msa_e.n)
    with pytest.raises(ValueError, match="pairs"):
        score_min_max_length((xs[:2], fs[:2]), msa_e.n)


@pytest.mark.parametrize("xs,fs", [
    ([0, 3], [1, 2]),  # x past n - 1
    ([0, -1], [1, 2]),  # negative x
    ([0, 1], [0, 2]),  # f below 1
    ([0, 1], [1, 4]),  # f past n + 1
])
def test_min_max_rejects_pair_values_out_of_range(xs, fs):
    with pytest.raises(ValueError, match="out of range"):
        score_min_max_length((np.array(xs, np.int64), np.array(fs, np.int64)), 2)


def test_traceback_rejects_a_tampered_witness(msa_e):
    run = run_pipeline(msa_e, MINMAXLEN)
    assert traceback(run.table, run.ext).blocks == [(1, 1), (2, 3), (4, 4)]
    for witness in (4, -1, 2):  # not before column 4, negative, f(2) = 5 > 4
        pred = run.table.pred.copy()
        pred[4] = witness
        tampered = D.ScoreTable(MINMAXLEN, run.table.s, pred, run.table.op_count)
        with pytest.raises(AssertionError, match=f"invalid traceback witness {witness} at column 4"):
            traceback(tampered, run.ext)


def test_work_counters_linear():
    for seed in range(20):
        msa = O.generate_msa(O.RandomMsaSpec(seed=seed + 1700, m=4, n=64))
        ext = run_pipeline(msa).ext
        t1 = score(ext, MAXBLOCKS)
        t2 = score(ext, MINMAXLEN)
        assert t1.op_count <= 8 * msa.n + 8
        assert t2.op_count <= 8 * msa.n + 8


def test_score_table_bounds():
    for seed in range(30):
        msa = O.generate_msa(O.RandomMsaSpec(seed=seed + 2100, m=3, n=18))
        ext = run_pipeline(msa).ext
        t1 = score(ext, MAXBLOCKS)
        t2 = score(ext, MINMAXLEN)
        for j in range(1, msa.n + 1):
            v1 = t1.score(j)
            assert v1 is None or 1 <= v1 <= j
            v2 = t2.score(j)
            assert v2 is None or 1 <= v2 <= j


def assert_kernels_match_reference(msa):
    ext = run_pipeline(msa).ext
    xs, fs = ext.pairs_by_f()
    for kernel, reference in ((D._max_blocks_kernel, reference_max_blocks),
                              (D._min_max_len_kernel, reference_min_max_len)):
        s, pred, ops = kernel(xs, fs, msa.n)
        ref_s, ref_pred, ref_ops = reference(xs, fs, msa.n)
        assert s.dtype == pred.dtype == np.int32
        assert s.tolist() == ref_s.tolist(), reference.__name__
        assert pred.tolist() == ref_pred.tolist(), reference.__name__
        assert ops == ref_ops, reference.__name__


def test_kernels_match_loop_reference_random():
    # sigma 1 and gap-heavy rows give many unsegmentable prefixes
    for seed in range(150):
        rng = random.Random(seed * 7 + 2)
        spec = O.RandomMsaSpec(
            seed=seed + 6000, m=rng.randint(1, 8), n=rng.randint(1, 60),
            sigma=rng.choice([1, 2, 4]), gap_prob=rng.choice([0.0, 0.2, 0.5]),
        )
        assert_kernels_match_reference(O.generate_msa(spec))


def test_kernels_match_loop_reference_near_identical():
    for seed in range(40):
        rng = random.Random(seed)
        msa = near_identical_msa(
            seed + 6200, rng.randint(2, 12), rng.randint(1, 300),
            snp_rate=rng.choice([0.0, 0.02, 0.1]), gap_rate=rng.choice([0.0, 0.05, 0.3]),
        )
        assert_kernels_match_reference(msa)


def test_kernels_match_loop_reference_large():
    assert_kernels_match_reference(O.generate_msa(O.RandomMsaSpec(seed=6300, m=16, n=2000)))
    assert_kernels_match_reference(
        near_identical_msa(6301, 16, 2000, snp_rate=0.005, gap_rate=0.01))
