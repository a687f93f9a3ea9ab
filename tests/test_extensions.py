import random

import numpy as np
import pytest

import efgseg as E
from efgseg import extensions as X
from efgseg import oracle as O
from efgseg.ancestors import _ascend_run
from efgseg.msa import Msa, MsaError, spell
from tests.conftest import build_pipeline, near_identical_msa


def reference_sweep(msa, gi, gst):
    """The column sweep as loops over the suffix tree (the tree view of gst).

    Per column it marks the m current leaves, climbs from each contiguous
    marked run to its exclusive ancestors, and reads g off the depth of each
    ancestor's parent. Returns f.
    """
    m, n = msa.m, msa.n
    parent, depth, leaf_row = gst.parent, gst.string_depth, gst.leaf_row
    f = np.zeros(n, np.int64)
    fi = np.zeros(m, np.int64)
    cur_leaf = np.array([gst.isa[gst.row_starts[i]] for i in range(m)], np.int64)
    cur_off = np.ones(m, np.int64)
    marked = np.zeros(gst.n_leaves, np.bool_)
    anc_node = np.empty(m, np.int64)
    anc_lo = np.empty(m, np.int64)
    anc_hi = np.empty(m, np.int64)
    for x in range(n):
        marked[cur_leaf] = True
        for i in range(m):
            lb = cur_leaf[i]
            if lb > 0 and marked[lb - 1]:
                continue  # interior of a run; handled from its left boundary
            rb = lb
            while rb + 1 < gst.n_leaves and marked[rb + 1]:
                rb += 1
            count, _ = _ascend_run(
                parent, gst.lml, gst.rml, gst.leaf_nodes, lb, rb, anc_node, anc_lo, anc_hi
            )
            for t in range(count):
                g = depth[parent[anc_node[t]]] + 1
                for q in range(anc_lo[t], anc_hi[t] + 1):
                    r = leaf_row[q]
                    k = gi.rank2d[r, x] + g
                    fi[r] = gi.sel2d[r, k] if k <= gi.spell_lens[r] else n + 1
        f[x] = fi.max()
        marked[cur_leaf] = False
        for i in range(m):
            if not gi.is_gap[i, x]:
                cur_off[i] += 1
                cur_leaf[i] = gst.isa[gst.row_starts[i] + cur_off[i] - 1]
    return f


def assert_matches_reference(msa):
    gi, gst, ext = build_pipeline(msa)
    assert ext.f.tolist() == reference_sweep(msa, gi, gst).tolist()


def test_two_distinct_singletons():
    _, _, ext = build_pipeline(Msa.from_rows(["A", "C"]))
    assert ext.f.tolist() == [1]


def test_aaa(msa_aaa):
    _, _, ext = build_pipeline(msa_aaa)
    assert ext.f.tolist() == [3, 4, 4]


def test_fixture_e(msa_e):
    _, _, ext = build_pipeline(msa_e)
    assert ext.f.tolist() == [1, 3, 5, 4]


def test_f_lower_bound_and_sentinel():
    for seed in range(30):
        msa = O.generate_msa(O.RandomMsaSpec(seed=seed, m=4, n=20))
        _, _, ext = build_pipeline(msa)
        for x in range(msa.n):
            assert x + 1 <= ext.f[x] <= msa.n + 1


def test_matches_oracle_random():
    for seed in range(300):
        rng = random.Random(seed * 17 + 3)
        spec = O.RandomMsaSpec(
            seed=seed, m=rng.randint(1, 8), n=rng.randint(1, 40),
            sigma=rng.choice([2, 4]), gap_prob=0.2,
        )
        msa = O.generate_msa(spec)
        _, _, ext = build_pipeline(msa)
        checker = O.SegmentChecker(msa)
        for x in range(msa.n):
            assert ext.f[x] == O.oracle_minimal_right_extension(msa, x, checker), (seed, x)


def test_matches_reference_sweep_random():
    # sigma 1 gives single-letter rows, high gap rates give gap-heavy rows
    for seed in range(120):
        rng = random.Random(seed * 31 + 7)
        spec = O.RandomMsaSpec(
            seed=seed + 4000, m=rng.randint(1, 8), n=rng.randint(1, 40),
            sigma=rng.choice([1, 2, 4]), gap_prob=rng.choice([0.0, 0.2, 0.5]),
        )
        assert_matches_reference(O.generate_msa(spec))


def test_matches_reference_sweep_near_identical():
    for seed in range(40):
        rng = random.Random(seed)
        msa = near_identical_msa(
            seed, rng.randint(2, 10), rng.randint(1, 60),
            snp_rate=rng.choice([0.0, 0.02, 0.1]), gap_rate=rng.choice([0.0, 0.05, 0.3]),
        )
        assert_matches_reference(msa)


def test_matches_reference_sweep_single_column():
    for rows in (["A"], ["A", "A"], ["A", "C", "A"], ["G", "G", "T", "G"]):
        assert_matches_reference(Msa.from_rows(rows))


def test_matches_reference_sweep_across_chunks(monkeypatch):
    # chunk widths of 1, 2, 3 and 7 columns with n on both sides of a multiple
    for cells in (1, 5, 11, 28):
        monkeypatch.setattr(X, "SWEEP_CHUNK_CELLS", cells)
        for m in (1, 4):
            width = max(1, cells // m)
            for n in (width - 1, width, width + 1, 3 * width - 1, 3 * width + 1):
                if n >= 1:
                    spec = O.RandomMsaSpec(seed=cells * 100 + m * 10 + n, m=m, n=n, sigma=2)
                    assert_matches_reference(O.generate_msa(spec))


def test_matches_reference_sweep_default_chunk_boundary():
    m = 16
    width = X.SWEEP_CHUNK_CELLS // m
    for n in (width - 1, width + 1):
        msa = near_identical_msa(n, m, n, snp_rate=0.01, gap_rate=0.01)
        assert_matches_reference(msa)


def test_matches_reference_sweep_large():
    # 16 x 2000 is too large for the oracle; the loop reference still runs
    assert_matches_reference(O.generate_msa(O.RandomMsaSpec(seed=2000, m=16, n=2000)))
    assert_matches_reference(near_identical_msa(2001, 16, 2000, snp_rate=0.005, gap_rate=0.01))


def test_monotone_extension_property():
    for seed in range(40):
        msa = O.generate_msa(O.RandomMsaSpec(seed=seed + 50, m=4, n=16))
        _, _, ext = build_pipeline(msa)
        checker = O.SegmentChecker(msa)
        for x in range(msa.n):
            for y in range(int(ext.f[x]), msa.n + 1):
                assert checker.is_valid(x + 1, y)


def locate_covered_leaves(gst, t):
    """Leaf ranks whose suffix starts with the code sequence of t (brute force)."""
    codes = tuple(gst.sym_code[c] for c in t)
    out = set()
    for leaf in range(gst.n_leaves):
        start = int(gst.sa[leaf])
        got = tuple(gst.text[start : start + len(codes)].tolist())
        if got == codes:
            out.add(leaf)
    return out


def test_minimal_extension_covers_exactly_m_leaves():
    # at y = f(x) the per-row segment strings pin down exactly one leaf per
    # row; any earlier y either spells an empty row string or covers more
    for seed in range(12):
        msa = O.generate_msa(O.RandomMsaSpec(seed=seed + 160, m=3, n=12, sigma=2))
        gi, gst, ext = build_pipeline(msa)
        for x in range(msa.n):
            fx = int(ext.f[x])
            if fx > msa.n:
                continue
            covered = set()
            for i in range(1, msa.m + 1):
                covered |= locate_covered_leaves(gst, spell(msa, i, x + 1, fx))
            assert len(covered) == msa.m, (seed, x)
            for y in range(x + 1, fx):
                spells = [spell(msa, i, x + 1, y) for i in range(1, msa.m + 1)]
                if any(not t for t in spells):
                    continue
                covered = set()
                for t in spells:
                    covered |= locate_covered_leaves(gst, t)
                assert len(covered) > msa.m, (seed, x, y)


def reference_pairs_by_f(f, n):
    """The pair sort as a loop: counting sort over the values 1..n+1."""
    counts = np.zeros(n + 2, np.int64)
    for x in range(n):
        counts[f[x]] += 1
    start = np.zeros(n + 2, np.int64)
    acc = 0
    for v in range(n + 2):
        start[v] = acc
        acc += counts[v]
    xs = np.empty(n, np.int64)
    fs = np.empty(n, np.int64)
    for x in range(n):
        p = start[f[x]]
        xs[p] = x
        fs[p] = f[x]
        start[f[x]] += 1
    return xs, fs


def assert_pairs_match_reference(ext):
    xs, fs = ext.pairs_by_f()
    ref_xs, ref_fs = reference_pairs_by_f(ext.f, ext.n)
    assert xs.dtype == fs.dtype == np.int64
    assert xs.tolist() == ref_xs.tolist() and fs.tolist() == ref_fs.tolist()


def test_pairs_by_f_sorted_and_stable(msa_e):
    _, _, ext = build_pipeline(msa_e)
    xs, fs = ext.pairs_by_f()
    assert fs.tolist() == sorted(ext.f.tolist())
    assert xs.tolist() == [0, 1, 3, 2]  # f values 1,3,4,5
    # stability: equal f keeps x ascending
    ties = X.ExtensionTable(f=np.array([4, 2, 2, 4, 2], np.int64), n=5, op_count=0)
    assert ties.pairs_by_f()[0].tolist() == [1, 2, 4, 0, 3]
    assert_pairs_match_reference(ties)


def test_pairs_by_f_matches_reference():
    for seed in range(60):
        rng = random.Random(seed * 13 + 5)
        spec = O.RandomMsaSpec(
            seed=seed + 5000, m=rng.randint(1, 8), n=rng.randint(1, 60),
            sigma=rng.choice([1, 2, 4]), gap_prob=rng.choice([0.0, 0.2, 0.5]),
        )
        assert_pairs_match_reference(build_pipeline(O.generate_msa(spec))[2])
    for seed in range(20):
        msa = near_identical_msa(seed + 5100, 8, 200, snp_rate=0.02, gap_rate=0.05)
        assert_pairs_match_reference(build_pipeline(msa)[2])
    assert_pairs_match_reference(build_pipeline(
        near_identical_msa(5200, 16, 2000, snp_rate=0.005, gap_rate=0.01))[2])


def test_work_counter_linear():
    for seed in range(20):
        rng = random.Random(seed)
        msa = O.generate_msa(
            O.RandomMsaSpec(seed=seed + 300, m=rng.randint(1, 8), n=rng.randint(1, 64))
        )
        _, _, ext = build_pipeline(msa)
        assert ext.op_count <= 64 * msa.m * msa.n + 64


def test_structure_mismatch_rejected(msa_e, msa_aaa):
    gi = E.GapIndex(msa_e)
    gst = E.build_gst(msa_e)
    with pytest.raises(MsaError):
        E.compute_minimal_right_extensions(msa_aaa, gi, gst)


def test_trailing_gap_rows_saturate():
    # once a row's suffix is all gaps no proper segment can start there
    msa = Msa.from_rows(["AC--", "ACGT"])
    _, _, ext = build_pipeline(msa)
    assert ext.f[2] == 5 and ext.f[3] == 5
