import math
import random
import tracemalloc

import numpy as np
import pytest

import efgseg as E
from efgseg import extensions as X
from efgseg import oracle as O
from efgseg.msa import GAP, Msa, MsaError
from efgseg.pipeline import run_pipeline
from tests.conftest import SuffixTree, kth_nongap_column, near_identical_msa, spell


def _ascend_run(parent, lml, rml, leaf_nodes, lb, rb):
    """Exclusive ancestors of the contiguous leaf run [lb..rb].

    Starts at the leftmost leaf and climbs while the parent's leaf interval
    stays inside the run; on failure the last safe node is emitted and the
    climb restarts at the first uncovered leaf. Returns the emitted
    ``[(node, (lo, hi))]`` list and the number of climb steps.
    """
    out = []
    ops = 0
    w = leaf_nodes[lb]
    lo = hi = lb
    while True:
        wp = parent[w]
        ops += 1
        if lml[wp] >= lb and rml[wp] <= rb:
            w = wp
            lo = lml[wp]
            hi = rml[wp]
        else:
            out.append((int(w), (int(lo), int(hi))))
            if hi + 1 > rb:
                break
            lo = hi + 1
            hi = lo
            w = leaf_nodes[lo]
    return out, ops


def reference_sweep(msa, gi, gst):
    """The column sweep as loops over the suffix tree of gst.

    Per column it marks the m current leaves, climbs from each contiguous
    marked run to its exclusive ancestors, and reads g off the depth of each
    ancestor's parent. Returns f.
    """
    m, n = msa.m, msa.n
    tree = SuffixTree(gst)
    parent, depth, leaf_row = tree.parent, tree.string_depth, tree.leaf_row
    f = np.zeros(n, np.int64)
    fi = np.zeros(m, np.int64)
    cur_leaf = np.array([gst.isa[gst.row_starts[i]] for i in range(m)], np.int64)
    cur_off = np.ones(m, np.int64)
    marked = np.zeros(tree.n_leaves, np.bool_)
    for x in range(n):
        marked[cur_leaf] = True
        for i in range(m):
            lb = cur_leaf[i]
            if lb > 0 and marked[lb - 1]:
                continue  # interior of a run; handled from its left boundary
            rb = lb
            while rb + 1 < tree.n_leaves and marked[rb + 1]:
                rb += 1
            run, _ = _ascend_run(parent, tree.lml, tree.rml, tree.leaf_nodes, lb, rb)
            for node, (lo, hi) in run:
                g = depth[parent[node]] + 1
                for q in range(lo, hi + 1):
                    r = leaf_row[q]
                    fi[r] = kth_nongap_column(msa, r, gi.rank2d[r, x] + g)
        f[x] = fi.max()
        marked[cur_leaf] = False
        for i in range(m):
            if msa.rows[i][x] != GAP:
                cur_off[i] += 1
                cur_leaf[i] = gst.isa[gst.row_starts[i] + cur_off[i] - 1]
    return f


def assert_matches_reference(msa):
    gi, gst = E.GapIndex(msa), E.build_gst(msa)
    ext = E.compute_minimal_right_extensions(msa, gi, gst)
    assert ext.f.tolist() == reference_sweep(msa, gi, gst).tolist()


def test_two_distinct_singletons():
    ext = run_pipeline(Msa.from_rows(["A", "C"])).ext
    assert ext.f.tolist() == [1]


def test_aaa(msa_aaa):
    ext = run_pipeline(msa_aaa).ext
    assert ext.f.tolist() == [3, 4, 4]


def test_fixture_e(msa_e):
    ext = run_pipeline(msa_e).ext
    assert ext.f.tolist() == [1, 3, 5, 4]


def test_f_lower_bound_and_sentinel():
    for seed in range(30):
        msa = O.generate_msa(O.RandomMsaSpec(seed=seed, m=4, n=20))
        ext = run_pipeline(msa).ext
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
        ext = run_pipeline(msa).ext
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
        ext = run_pipeline(msa).ext
        checker = O.SegmentChecker(msa)
        for x in range(msa.n):
            for y in range(int(ext.f[x]), msa.n + 1):
                assert checker.is_valid(x + 1, y)


def locate_covered_leaves(tree, t):
    """Leaf ranks whose suffix starts with the code sequence of t (brute force)."""
    codes = tuple(tree.sym_code[c] for c in t)
    out = set()
    for leaf in range(tree.n_leaves):
        start = int(tree.gst.sa[leaf])
        got = tuple(tree.gst.text[start : start + len(codes)].tolist())
        if got == codes:
            out.add(leaf)
    return out


def test_minimal_extension_covers_exactly_m_leaves():
    # at y = f(x) the per-row segment strings pin down exactly one leaf per
    # row; any earlier y either spells an empty row string or covers more
    for seed in range(12):
        msa = O.generate_msa(O.RandomMsaSpec(seed=seed + 160, m=3, n=12, sigma=2))
        gst = E.build_gst(msa)
        ext = E.compute_minimal_right_extensions(msa, E.GapIndex(msa), gst)
        tree = SuffixTree(gst)
        for x in range(msa.n):
            fx = int(ext.f[x])
            if fx > msa.n:
                continue
            covered = set()
            for i in range(1, msa.m + 1):
                covered |= locate_covered_leaves(tree, spell(msa, i, x + 1, fx))
            assert len(covered) == msa.m, (seed, x)
            for y in range(x + 1, fx):
                spells = [spell(msa, i, x + 1, y) for i in range(1, msa.m + 1)]
                if any(not t for t in spells):
                    continue
                covered = set()
                for t in spells:
                    covered |= locate_covered_leaves(tree, t)
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
    ext = run_pipeline(msa_e).ext
    xs, fs = ext.pairs_by_f()
    assert fs.tolist() == sorted(ext.f.tolist())
    assert xs.tolist() == [0, 1, 3, 2]  # f values 1,3,4,5
    # stability: equal f keeps x ascending
    ties = X.ExtensionTable(f=np.array([4, 2, 2, 4, 2], np.int64), op_count=0)
    assert ties.n == 5
    assert ties.pairs_by_f()[0].tolist() == [1, 2, 4, 0, 3]
    assert_pairs_match_reference(ties)


def test_pairs_by_f_matches_reference():
    for seed in range(60):
        rng = random.Random(seed * 13 + 5)
        spec = O.RandomMsaSpec(
            seed=seed + 5000, m=rng.randint(1, 8), n=rng.randint(1, 60),
            sigma=rng.choice([1, 2, 4]), gap_prob=rng.choice([0.0, 0.2, 0.5]),
        )
        assert_pairs_match_reference(run_pipeline(O.generate_msa(spec)).ext)
    for seed in range(20):
        msa = near_identical_msa(seed + 5100, 8, 200, snp_rate=0.02, gap_rate=0.05)
        assert_pairs_match_reference(run_pipeline(msa).ext)
    assert_pairs_match_reference(run_pipeline(
        near_identical_msa(5200, 16, 2000, snp_rate=0.005, gap_rate=0.01)).ext)


def test_work_counter_linear():
    for seed in range(20):
        rng = random.Random(seed)
        msa = O.generate_msa(
            O.RandomMsaSpec(seed=seed + 300, m=rng.randint(1, 8), n=rng.randint(1, 64))
        )
        ext = run_pipeline(msa).ext
        assert ext.op_count <= 64 * msa.m * msa.n + 64


def test_sweep_temporaries_do_not_grow_with_the_text():
    # The sweep reads the LCP array in place and works one chunk of columns
    # at a time, so beyond f it allocates a bounded amount per chunk cell,
    # whatever N: about 58 bytes on both of these shapes.
    for shape in ((5, 8, 40000, 0.002, 0.001), (3, 16, 4000, 0.5, 0.2)):
        msa = near_identical_msa(*shape)
        gi = E.GapIndex(msa)
        gst = E.build_gst(msa)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            ext = X.compute_minimal_right_extensions(msa, gi, gst)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        per_cell = (peak - ext.f.nbytes) / X.SWEEP_CHUNK_CELLS
        assert per_cell <= 96, (shape, len(gst.text), per_cell)


def test_op_count_is_the_shape_model():
    # the sweep's op count follows from (m, n) alone, gaps and repeats aside
    for m in (1, 2, 3, 4, 5, 17):
        for n in (1, 9, 40):
            want = n * m * (max(1, math.ceil(math.log2(m))) + 3)
            gapped = O.generate_msa(O.RandomMsaSpec(seed=m * 100 + n, m=m, n=n, gap_prob=0.5))
            close = near_identical_msa(m * 100 + n, m, n, snp_rate=0.02, gap_rate=0.1)
            for msa in (gapped, close):
                assert run_pipeline(msa).ext.op_count == want, (m, n)


def test_structure_mismatch_rejected(msa_e, msa_aaa):
    gi = E.GapIndex(msa_e)
    gst = E.build_gst(msa_e)
    with pytest.raises(MsaError):
        E.compute_minimal_right_extensions(msa_aaa, gi, gst)


def test_same_shape_alignment_mismatch_rejected():
    # same (m, n), different gaps: the gap index of one must not sweep the other
    msa = Msa.from_rows(["AC-GT", "ACG-T"])
    other = Msa.from_rows(["A-CGT", "ACGT-"])
    with pytest.raises(MsaError):
        E.compute_minimal_right_extensions(msa, E.GapIndex(other), E.build_gst(msa))
    with pytest.raises(MsaError):
        E.compute_minimal_right_extensions(msa, E.GapIndex(msa), E.build_gst(other))
    ext = run_pipeline(msa).ext
    assert ext.f.tolist() == [1, 2, 4, 6, 5]


def test_trailing_gap_rows_saturate():
    # once a row's suffix is all gaps no proper segment can start there
    msa = Msa.from_rows(["AC--", "ACGT"])
    ext = run_pipeline(msa).ext
    assert ext.f[2] == 5 and ext.f[3] == 5
