"""Tests for the benchmark itself: its checks must catch tampered outputs.

    python -m pytest perfbench

The oracle module appears here only to test the benchmark's own scan and DP;
the benchmark never calls it.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import workloads  # noqa: E402

import efgseg as E  # noqa: E402
from efgseg import oracle  # noqa: E402


def rows_of(msa) -> np.ndarray:
    return np.array([list(r.encode()) for r in msa.rows], np.uint8)


def extensions(msa):
    return E.compute_minimal_right_extensions(msa, E.GapIndex(msa), E.build_gst(msa))


def pipeline(msa, scheme="maxblocks"):
    ext = extensions(msa)
    table = E.score_max_blocks(ext) if scheme == "maxblocks" else E.score_min_max_length(
        ext.pairs_by_f(), msa.n)
    return ext, table, E.traceback(table, ext)


def small_msas(count, base_seed):
    rng = np.random.default_rng(base_seed)
    for case in range(count):
        spec = oracle.RandomMsaSpec(seed=base_seed + case, m=int(rng.integers(1, 6)),
                                    n=int(rng.integers(1, 30)), sigma=int(rng.choice([2, 4])))
        yield oracle.generate_msa(spec)


@pytest.fixture
def near_identical():
    w = workloads.Workload("smoke", "minmaxlen", m=6, n=200, snp_rate=0.02,
                           indel_rate=0.01, indel_max=4)
    rows = workloads.make_rows(w, 5, 0)
    msa = E.parse_aligned_fasta(workloads.to_fasta(w, 5, 0, rows))
    return msa, rows


@pytest.mark.parametrize("name", ["pangenome", "reexport"])
def test_near_identical_alignment_is_one_valid_block(name):
    # then both schemes find a segmentation, so no export fails on these inputs
    w = workloads.WORKLOADS[name]
    for seed in range(20):
        rows = workloads.make_rows(w, seed, 0)
        assert (rows[:, : workloads.LEAD] != workloads.GAP).all()
        text = checks.Text(rows)
        starts, lens = text.column_block(1, w.n)
        assert checks.semi_repeat_free(text, starts[None], lens[None])[0], seed


@pytest.mark.parametrize("k", [checks.K, 2])
def test_scan_matches_oracle(monkeypatch, k):
    monkeypatch.setattr(checks, "K", k)
    for msa in small_msas(150, 1000):
        text = checks.Text(rows_of(msa))
        segs = [(x, y) for x in range(1, msa.n + 1) for y in range(x, msa.n + 1)]
        pairs = [text.column_block(x, y) for x, y in segs]
        got = checks.semi_repeat_free(text, np.array([p[0] for p in pairs]),
                                      np.array([p[1] for p in pairs]))
        checker = oracle.SegmentChecker(msa)
        assert got.tolist() == [checker.is_valid(x, y) for x, y in segs]


def test_dp_matches_oracle():
    for msa in small_msas(150, 2000):
        got = checks.optimal_scores(extensions(msa).f, msa.n)
        for scheme in ("maxblocks", "minmaxlen"):
            assert got[scheme] == oracle.oracle_optimal_score(msa, scheme)


def test_program_output_passes(near_identical):
    msa, rows = near_identical
    text = checks.Text(rows)
    ext, table, seg = pipeline(msa, "minmaxlen")
    efg = E.build_efg(msa, seg)
    g = checks.read_gfa(E.export_gfa(efg))
    assert checks.check_graph(g, list(msa.names), text) == []
    assert checks.check_dot(E.export_dot(efg), g, seg.blocks) == []
    assert checks.check_json(E.export_json(efg), g, list(msa.names), seg.blocks) == []
    assert checks.check_segmentation(seg.blocks, text) == []
    assert checks.check_extensions(ext.f, text, list(range(msa.n))) == []
    optimum = checks.optimal_scores(ext.f, msa.n)["minmaxlen"]
    assert checks.check_segmentation_score(seg.blocks, "minmaxlen", seg.score, optimum) == []


def test_swapped_node_on_path_fails(near_identical):
    msa, rows = near_identical
    _, _, seg = pipeline(msa, "minmaxlen")
    g = checks.read_gfa(E.export_gfa(E.build_efg(msa, seg)))
    first = g.paths[0][1]
    k, other = next((k, ids[k]) for _, ids in g.paths[1:] for k in range(len(ids))
                    if ids[k] != first[k])
    first[k] = other
    problems = checks.check_graph(g, list(msa.names), checks.Text(rows))
    assert any("does not spell" in p for p in problems)


def test_extra_or_missing_link_fails(near_identical):
    msa, rows = near_identical
    _, _, seg = pipeline(msa, "minmaxlen")
    text = E.export_gfa(E.build_efg(msa, seg))
    lines = text.split("\n")
    link = next(i for i, line in enumerate(lines) if line.startswith("L\t"))
    for tampered in (lines[:link] + lines[link + 1:], lines[:link + 1] + lines[link:]):
        g = checks.read_gfa("\n".join(tampered))
        assert checks.check_graph(g, list(msa.names), checks.Text(rows)) == [
            "L lines are not exactly the consecutive pairs on the paths"]


def test_block_not_semi_repeat_free_fails():
    # efgseg export --segmentation accepts this segmentation without checking it
    msa = E.parse_aligned_fasta(">a\nACAC\n>b\nACAC\n")
    seg = E.Segmentation(blocks=[(1, 2), (3, 4)], score=2, scheme="maxblocks")
    text = checks.Text(rows_of(msa))
    g = checks.read_gfa(E.export_gfa(E.build_efg(msa, seg)))
    assert checks.check_graph(g, ["a", "b"], text) == ["block 1 is not semi-repeat-free"]
    assert checks.check_segmentation(seg.blocks, text) == [
        "segmentation block [1..2] is not semi-repeat-free"]


def test_non_minimal_extension_fails(near_identical):
    msa, rows = near_identical
    text = checks.Text(rows)
    ext, _, _ = pipeline(msa)
    xs = [x for x in range(msa.n) if ext.f[x] < msa.n][:5]
    for x in xs:
        for delta in (1, -1):
            f = ext.f.copy()
            f[x] += delta
            if f[x] <= x:
                continue
            assert checks.check_extensions(f, text, [x]), (x, delta)


def test_score_off_by_one_fails(near_identical):
    msa, rows = near_identical
    ext, _, seg = pipeline(msa, "maxblocks")
    optimum = checks.optimal_scores(ext.f, msa.n)["maxblocks"]
    assert checks.check_segmentation_score(seg.blocks, "maxblocks", seg.score, optimum) == []
    assert checks.check_segmentation_score(seg.blocks, "maxblocks", seg.score + 1, optimum)
    merged = [(seg.blocks[0][0], seg.blocks[1][1])] + seg.blocks[2:]
    assert checks.check_segmentation_score(merged, "maxblocks", seg.score, optimum)


def result_line(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_run(workload, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.2", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    res = result_line(proc)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_refuses_to_run_without_the_program():
    bare = ROOT / ".perfbench_runs" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "random", "--seed", "1",
         "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True, text=True, timeout=60)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and proc.stdout == ""
