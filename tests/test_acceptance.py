"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``. All random inputs are
seeded, so every run checks the same cases.
"""

import pathlib
import random
import statistics
import time

import pytest

import efgseg as E
from efgseg import oracle as O
from efgseg.dp import MAXBLOCKS, MINMAXLEN, score, score_max_blocks, score_min_max_length, traceback
from efgseg.pipeline import run_pipeline
from tests.conftest import SuffixTree, kth_nongap_column, oracle_exclusive_ancestors, spell

GOLDEN = pathlib.Path(__file__).parent / "golden"


def warmup():
    msa = E.parse_aligned_fasta(">r1\nAG-C\n>r2\nA-GC\n")
    ext = run_pipeline(msa).ext
    score(ext, MAXBLOCKS)
    score(ext, MINMAXLEN)


def spec_stream(count, base_seed, max_m, max_n):
    """Deterministic stream of generator parameters."""
    for case in range(count):
        rng = random.Random(base_seed + case)
        yield O.RandomMsaSpec(
            seed=base_seed + case,
            m=rng.randint(1, max_m),
            n=rng.randint(1, max_n),
            sigma=rng.choice([2, 4]),
            gap_prob=0.2,
        )


def test_c1_extension_correctness():
    warmup()
    t0 = time.perf_counter()
    checked = 0
    for spec in spec_stream(1000, base_seed=100_000, max_m=8, max_n=40):
        msa = O.generate_msa(spec)
        ext = run_pipeline(msa).ext
        checker = O.SegmentChecker(msa)
        for x in range(msa.n):
            want = O.oracle_minimal_right_extension(msa, x, checker)
            assert int(ext.f[x]) == want, (spec, x, int(ext.f[x]), want)
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"criterion requires < 60 s, took {elapsed:.1f} s"
    print(
        f"\nACCEPTANCE C1 PASS: extensions match the oracle on 1000 MSAs "
        f"({checked} values, {elapsed:.1f} s)"
    )


def test_c2_exclusive_ancestor_correctness():
    # The sweep answers the exclusive-ancestor query on the enhanced suffix
    # array. Here the oracle answers it on the materialised suffix tree for
    # each column's m leaves, and f(x) is rebuilt from those ancestors: each
    # leaf under ancestor v must spell g = depth(parent(v)) + 1 symbols.
    t0 = time.perf_counter()
    columns = 0
    for spec in spec_stream(1000, base_seed=200_000, max_m=6, max_n=24):
        msa = O.generate_msa(spec)
        gi, gst = E.GapIndex(msa), E.build_gst(msa)
        ext = E.compute_minimal_right_extensions(msa, gi, gst)
        tree = SuffixTree(gst)
        for x in range(msa.n):
            leaves = gst.isa[gst.row_starts + gi.rank2d[:, x]].tolist()
            covered = []
            fx = 0
            for v in oracle_exclusive_ancestors(tree, leaves):
                g = int(tree.string_depth[tree.parent[v]]) + 1
                for q in range(int(tree.lml[v]), int(tree.rml[v]) + 1):
                    i = tree.leaf_row[q]
                    fx = max(fx, kth_nongap_column(msa, i, int(gi.rank2d[i, x]) + g))
                    covered.append(q)
            assert sorted(covered) == sorted(leaves), (spec, x)
            assert int(ext.f[x]) == fx, (spec, x, int(ext.f[x]), fx)
            columns += 1
    elapsed = time.perf_counter() - t0
    print(
        f"\nACCEPTANCE C2 PASS: the sweep's f matches the oracle's exclusive ancestors "
        f"on 1000 MSAs ({columns} columns, {elapsed:.1f} s)"
    )


def _c3_cases():
    for spec in spec_stream(1000, base_seed=300_000, max_m=6, max_n=24):
        yield spec, O.generate_msa(spec)


def test_c3_dp_correctness():
    unseg = 0
    for spec, msa in _c3_cases():
        ext = run_pipeline(msa).ext
        checker = O.SegmentChecker(msa)
        for scheme in (MAXBLOCKS, MINMAXLEN):
            table = score(ext, scheme)
            want = O.oracle_optimal_score(msa, scheme)
            assert table.score() == want, (spec, scheme, table.score(), want)
            if want is None:
                unseg += 1
                continue
            seg = traceback(table, ext)
            assert O.oracle_segmentation_score(seg.blocks, scheme) == want, (spec, scheme)
            assert all(checker.is_valid(a, b) for a, b in seg.blocks), (spec, scheme)
    print(
        f"\nACCEPTANCE C3 PASS: both DP schemes match the oracle on 1000 MSAs "
        f"({unseg} unsegmentable scheme-cases included)"
    )


def test_c4_fixture_e_regression():
    msa = E.parse_aligned_fasta(">r1\nAG-C\n>r2\nA-GC\n")
    ext = run_pipeline(msa).ext
    assert ext.f.tolist() == [1, 3, 5, 4]
    checker = O.SegmentChecker(msa)
    for x in range(msa.n):
        assert O.oracle_minimal_right_extension(msa, x, checker) == ext.f[x]

    t1 = score(ext, MAXBLOCKS)
    seg1 = traceback(t1, ext)
    assert t1.score() == 3 == O.oracle_optimal_score(msa, MAXBLOCKS)
    assert seg1.blocks == [(1, 1), (2, 3), (4, 4)]
    assert all(checker.is_valid(a, b) for a, b in seg1.blocks)

    t2 = score(ext, MINMAXLEN)
    assert t2.score() == 2 == O.oracle_optimal_score(msa, MINMAXLEN)
    print("\nACCEPTANCE C4 PASS: fixture {AG-C, A-GC} reproduces all derived values")


def _random_proper_segmentation(msa, rng):
    """Random proper segmentation (every block spells nonempty in every row)."""
    for _ in range(20):
        cuts = sorted(rng.sample(range(1, msa.n), rng.randint(0, min(3, msa.n - 1)))) if msa.n > 1 else []
        blocks = []
        prev = 1
        for c in cuts + [msa.n]:
            blocks.append((prev, c))
            prev = c + 1
        if all(spell(msa, i, a, b) for a, b in blocks for i in range(1, msa.m + 1)):
            return blocks
    return None


def test_c5_characterization_consistency():
    held = failed = 0
    for spec, msa in _c3_cases():
        ext = run_pipeline(msa).ext
        checker = O.SegmentChecker(msa)
        for scheme in (MAXBLOCKS, MINMAXLEN):
            table = score(ext, scheme)
            if table.score() is None:
                continue
            seg = traceback(table, ext)
            assert all(checker.is_valid(a, b) for a, b in seg.blocks)
            efg = E.build_efg(msa, seg)
            total = sum(len(nd.label) for block in efg.blocks for nd in block)
            assert O.oracle_efg_semi_repeat_free(efg, total), (spec, scheme)
            held += 1
        # converse: a proper segmentation with an invalid segment must fail
        rng = random.Random(spec.seed ^ 0x5EED)
        blocks = _random_proper_segmentation(msa, rng)
        if blocks and not all(checker.is_valid(a, b) for a, b in blocks):
            seg = E.Segmentation(blocks=blocks, score=0, scheme="random")
            efg = E.build_efg(msa, seg)
            total = sum(len(nd.label) for block in efg.blocks for nd in block)
            assert not O.oracle_efg_semi_repeat_free(efg, total), (spec, blocks)
            failed += 1
    assert held > 500 and failed > 100  # both directions exercised at scale
    print(
        f"\nACCEPTANCE C5 PASS: graph-level property holds for {held} valid "
        f"segmentations and fails for {failed} invalid ones"
    )


def test_c6_monotone_extension_property():
    for spec in spec_stream(200, base_seed=600_000, max_m=6, max_n=30):
        msa = O.generate_msa(spec)
        ext = run_pipeline(msa).ext
        checker = O.SegmentChecker(msa)
        for x in range(msa.n):
            for y in range(int(ext.f[x]), msa.n + 1):
                assert checker.is_valid(x + 1, y), (spec, x, y)
    print("\nACCEPTANCE C6 PASS: every y >= f(x) stays semi-repeat-free on 200 MSAs")


def test_c7_linear_scaling():
    # Each size is measured over several distinct random MSAs: repeating one
    # identical input lets the branch predictor memorize short inputs'
    # branch sequences, which deflates small-n timings by 2-3x and corrupts
    # the doubling ratios.
    warmup()
    m = 16
    sizes = [2048, 4096, 8192, 16384]
    variants = 6
    datasets = {}
    for n in sizes:
        per_size = []
        for k in range(variants):
            msa = O.generate_msa(
                O.RandomMsaSpec(seed=700_000 + 1000 * k + n, m=m, n=n, sigma=4, gap_prob=0.2)
            )
            per_size.append(msa)
        datasets[n] = per_size

    inputs = {}
    for n in sizes:
        run_pipeline(datasets[n][0])  # one untimed run at this size
        pairs_sets = []
        for msa in datasets[n]:
            ext = run_pipeline(msa).ext
            assert ext.op_count <= 64 * m * n + 64, (n, ext.op_count)
            pairs = ext.pairs_by_f()
            t1 = score_max_blocks(ext)
            t2 = score_min_max_length(pairs, n)
            assert t1.op_count <= 8 * n + 8 and t2.op_count <= 8 * n + 8
            pairs_sets.append((ext, pairs))
        inputs[n] = pairs_sets

    # each of the 5 rounds times every size back to back, and a doubling's
    # ratio is the median over rounds of its per-round ratio: a host
    # slowdown that lasts longer than one pair of sizes cancels out of it.
    # Inside a round, a size's sample is the fastest of 3 back-to-back
    # preprocessing passes, and the fastest per-rep time of 3 equal slices
    # of its DP reps: a slowdown shorter than that only lengthens the others
    pre_samples = {n: [] for n in sizes}
    dp_samples = {n: [] for n in sizes}
    for _ in range(5):
        for n in sizes:
            passes = []
            for _ in range(3):
                t0 = time.perf_counter()
                for msa in datasets[n]:
                    run_pipeline(msa)
                passes.append((time.perf_counter() - t0) / variants)
            pre_samples[n].append(min(passes))

            reps = max(64, 2_400_000 // n)
            per_slice = reps // 3
            slices = []
            for part in range(3):
                t0 = time.perf_counter()
                for r in range(part * per_slice, (part + 1) * per_slice):
                    ext, pairs = inputs[n][r % variants]
                    score_max_blocks(ext)
                    score_min_max_length(pairs, n)
                slices.append((time.perf_counter() - t0) / per_slice)
            dp_samples[n].append(min(slices))
    pre_times = {n: statistics.median(v) for n, v in pre_samples.items()}
    dp_times = {n: statistics.median(v) for n, v in dp_samples.items()}

    def ratio(samples, a, b):
        return statistics.median(tb / ta for ta, tb in zip(samples[a], samples[b]))

    # every sample, in run order, so a failing ratio shows whether one run or
    # the whole size moved
    samples = "; ".join(
        f"n={n}: pre ms [{', '.join(f'{t * 1e3:.2f}' for t in pre_samples[n])}]"
        f" dp us [{', '.join(f'{t * 1e6:.1f}' for t in dp_samples[n])}]"
        for n in sizes
    )
    for a, b in zip(sizes, sizes[1:]):
        pre_ratio = ratio(pre_samples, a, b)
        dp_ratio = ratio(dp_samples, a, b)
        assert pre_ratio <= 2.5, f"preprocessing {a}->{b}: x{pre_ratio:.2f} ({samples})"
        assert dp_ratio <= 2.5, f"dp {a}->{b}: x{dp_ratio:.2f} ({samples})"
    summary = ", ".join(
        f"n={n}: pre {pre_times[n] * 1e3:.1f} ms / dp {dp_times[n] * 1e6:.0f} us" for n in sizes
    )
    print(f"\nACCEPTANCE C7 PASS: per-doubling wall-time ratios <= 2.5 ({summary})")


def test_c8_export_stability():
    for name, scheme in (("e", MINMAXLEN), ("single", MAXBLOCKS), ("gappy", MINMAXLEN)):
        msa = E.parse_aligned_fasta((GOLDEN / f"{name}.fa").read_text())
        efg = E.build_efg(msa, run_pipeline(msa, scheme).segmentation())
        assert E.export_gfa(efg) == (GOLDEN / f"{name}.gfa").read_text(), name
        assert E.export_dot(efg) == (GOLDEN / f"{name}.dot").read_text(), name
        assert E.export_json(efg) == (GOLDEN / f"{name}.json").read_text(), name
    print("\nACCEPTANCE C8 PASS: GFA/DOT/JSON byte-identical on three fixtures")
