#!/usr/bin/env python3
"""FASTA-to-GFA benchmark of efgseg: one named workload per run.

    python3 perfbench/run.py --workload random --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from its src
directory. The run generates its inputs from the seed, times the program
from outside through its public functions, checks every output with the
benchmark's own code (checks.py), and prints as its last line one JSON
object with the keys correct, attempted, failed and metrics. --trace 0 gives
the end-to-end metrics, --trace 1 the per-layer metrics of a traced run.
Inputs, outputs, the trace and the result are kept in .perfbench_runs/.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402

ROOT = Path.cwd()
BUDGET_S = 170  # a run ends within this, children included
PROBES = 7  # fresh interpreters timed for setup_s
SAMPLED_X = 8  # boundaries x at which f(x) is checked for minimality
TINY_FASTA = ">warm1\nAC-GTTA\n>warm2\nACCGT-A\n"

LAYER_TIMES = {
    "msa.parse_s": "msa.parse", "msa.gapindex_s": "msa.gapindex",
    "gst.build_s": "gst.build", "gst.sa_s": "gst.sa", "gst.lcp_s": "gst.lcp",
    "extensions.sweep_s": "extensions.sweep", "extensions.pairs_s": "extensions.pairs",
    "dp.maxblocks_s": "dp.maxblocks", "dp.minmaxlen_s": "dp.minmaxlen",
    "dp.traceback_s": "dp.traceback", "efg.build_s": "efg.build",
    "efg.gfa_s": "efg.gfa", "efg.dot_s": "efg.dot", "efg.json_s": "efg.json",
}


class BenchError(RuntimeError):
    """The benchmark itself could not run."""


class Run:
    def __init__(self, args):
        self.w = workloads.WORKLOADS[args.workload]
        if args.tiny:
            self.w = dataclasses.replace(self.w, m=min(self.w.m, 6), n=min(self.w.n, 300))
        self.seed, self.seconds = args.seed, args.seconds
        self.deadline = time.monotonic() + BUDGET_S
        self.dir = ROOT / ".perfbench_runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
        self.problems: list[str] = []
        self.record: dict = {}  # diagnostics kept in result.json
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))

    def path(self, name: str) -> str:
        return str(self.dir / name)

    def child(self, *argv: str, name: str) -> float:
        """Run a child to completion inside the run's time budget; its wall time."""
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError(f"no time left for {name}")
        with open(self.path(f"{name}.log"), "w") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], env=self.env, cwd=ROOT,
                                    stdout=log, stderr=subprocess.STDOUT)
            # a blocking wait, not the polling of wait(timeout), which rounds
            # short children up by up to 50 ms; the timer kills a child that overruns
            watchdog = threading.Timer(left, proc.kill)
            watchdog.start()
            try:
                proc.wait()
            finally:
                watchdog.cancel()
            elapsed = time.perf_counter() - t0
        if time.monotonic() >= self.deadline:
            raise BenchError(f"{name} did not finish within the run's budget")
        if proc.returncode != 0:
            tail = Path(self.path(f"{name}.log")).read_text(errors="replace")[-2000:]
            raise BenchError(f"{name} exited with {proc.returncode}:\n{tail}")
        return elapsed

    def child_json(self, mode: str, spec: dict) -> dict:
        spec["result"] = self.path(f"{mode}.result.json")
        Path(self.path(f"{mode}.spec.json")).write_text(json.dumps(spec))
        self.child(str(HERE / "child.py"), mode, self.path(f"{mode}.spec.json"), name=mode)
        return json.loads(Path(spec["result"]).read_text())

    # -- inputs ------------------------------------------------------------------

    def make_inputs(self):
        self.rows = workloads.make_rows(self.w, self.seed, 0)
        fasta = workloads.to_fasta(self.w, self.seed, 0, self.rows)
        self.names = [line[1:] for line in fasta.splitlines()[::2]]
        self.fasta = self.path("input.fa")
        Path(self.fasta).write_text(fasta)
        self.text = checks.Text(self.rows)
        small = dataclasses.replace(self.w, m=4, n=24)
        self.small = self.path("small.fa")
        Path(self.small).write_text(workloads.to_fasta(
            small, self.seed, 1, workloads.make_rows(small, self.seed, 1)))
        self.tiny = self.path("tiny.fa")
        Path(self.tiny).write_text(TINY_FASTA)
        self.warmup = ["export", self.tiny, "-o", self.path("warmup.gfa")]

    def reexport_segmentation(self) -> list[tuple[int, int]]:
        """Set-up: `efgseg segment` in its own process, checked before use."""
        self.segmentation = self.path("segmentation.json")
        self.child("-m", "efgseg", "segment", self.fasta, "--score", self.w.scheme,
                   "-o", self.segmentation, name="segment")
        return self.read_segmentation()

    def read_segmentation(self) -> list[tuple[int, int]]:
        doc = json.loads(Path(self.segmentation).read_text())
        blocks = [(b["start"], b["end"]) for b in doc["blocks"]]
        problems = checks.check_segmentation(blocks, self.text)
        if doc["score"] != len(blocks):
            problems.append(f"segmentation score {doc['score']} for {len(blocks)} blocks")
        if problems:
            raise BenchError(f"set-up segmentation fails its check: {problems[0]}")
        return blocks

    # -- output checks --------------------------------------------------------------

    def check_outputs(self, outputs: dict[str, str], intervals) -> checks.Graph | None:
        try:
            g = checks.read_gfa(Path(outputs["gfa"]).read_text())
        except (checks.CheckError, OSError, ValueError) as exc:
            self.problems.append(f"GFA unreadable: {exc}")
            return None
        self.problems += checks.check_graph(g, self.names, self.text)
        if intervals is not None and len(intervals) != len(g.paths[0][1]):
            self.problems.append("GFA block count differs from the segmentation")
        if "dot" in outputs:
            self.problems += checks.check_dot(Path(outputs["dot"]).read_text(), g, intervals)
        if "json" in outputs:
            self.problems += checks.check_json(Path(outputs["json"]).read_text(), g,
                                               self.names, intervals)
        return g

    def check_cross(self, result: dict):
        self.problems += [f"cross_check: {issue}" for issue in result["cross_check"]]
        if result["warmup"] != 0:
            self.problems.append(f"warm-up export returned {result['warmup']}")

    # -- runs ---------------------------------------------------------------------

    def setup_seconds(self) -> float:
        times = []
        for k in range(PROBES):
            out = self.path(f"probe{k}.gfa")
            times.append(self.child(str(HERE / "child.py"), "probe", self.tiny, out,
                                    name=f"probe{k}"))
        tiny_text = checks.Text(np.array([list(r.encode()) for r in TINY_FASTA.split()[1::2]],
                                         np.uint8))
        g = checks.read_gfa(Path(self.path("probe0.gfa")).read_text())
        self.problems += checks.check_graph(g, ["warm1", "warm2"], tiny_text)
        ref = Path(self.path("probe0.gfa")).read_bytes()
        if any(Path(self.path(f"probe{k}.gfa")).read_bytes() != ref for k in range(PROBES)):
            self.problems.append("probe exports differ between interpreters")
        self.record["probe_s"] = times
        return statistics.median(times)

    def untraced(self) -> tuple[int, int, dict]:
        setup_s = self.setup_seconds()
        intervals = None
        if self.w.name == "reexport":
            intervals = self.reexport_segmentation()
            formats = ("gfa", "dot", "json")
            calls = [["export", self.fasta, "--segmentation", self.segmentation,
                      "--format", fmt, "-o", self.path(f"out.{{round}}.{fmt}")] for fmt in formats]
        else:
            formats = ("gfa",)
            calls = [["export", self.fasta, "--score", self.w.scheme,
                      "-o", self.path("out.{round}.gfa")]]
        res = self.child_json("timed", {"warmup": self.warmup, "calls": calls,
                                        "seconds": self.seconds, "cross_check": self.small})
        self.numba = res["numba"]
        self.check_cross(res)
        outputs = {fmt: self.path(f"out.0.{fmt}") for fmt in formats}
        self.check_outputs(outputs, intervals)
        ops = res["ops"]
        self.record["op_s"] = [op["seconds"] for op in ops]
        failed = sum(any(c != 0 for c in op["codes"]) for op in ops)
        if any(op["digests"] != ops[0]["digests"] for op in ops):
            self.problems.append("an export differs from the checked output of the first round")
        # throughput over the run, not a median of per-op rates: the host's speed
        # switches between regimes up to 2x apart, and a median jumps with
        # whichever regime held most ops, where the total weighs them by time
        done = [op["seconds"] for op in ops if all(c == 0 for c in op["codes"])]
        metrics = {
            "cells_per_s": (self.w.m * self.w.n * len(done) / sum(done) if done else 0.0,
                            "cells/s"),
            "peak_rss_mib": (res["rss_kib"] / 1024, "MiB"),
            "setup_s": (setup_s, "s"),
        }
        return len(ops), failed, metrics

    def traced(self) -> tuple[int, int, dict]:
        outputs = {fmt: self.path(f"traced.{fmt}") for fmt in ("gfa", "dot", "json")}
        spec = {"warmup": self.warmup, "fasta": self.fasta, "scheme": self.w.scheme,
                "seconds": self.seconds, "cross_check": self.small, "outputs": outputs}
        if self.w.name == "reexport":
            self.segmentation = spec["segmentation"] = self.path("segmentation.json")
        res = self.child_json("traced", spec)
        Path(self.path("trace.json")).write_text(json.dumps({"spans": res["spans"]}))
        self.numba = res["numba"]
        self.check_cross(res)
        ops, found = res["ops"], res["found"]
        failed = sum(op["status"] != 0 for op in ops)
        if failed == len(ops):
            return len(ops), failed, {}
        if any(not op.get("same_outputs", True) for op in ops):
            self.problems.append("a traced export differs from the checked first round")
        n, chars = self.text.n, len(self.text.text)
        blocks = [tuple(b) for b in found["blocks"]]
        intervals = self.read_segmentation() if self.w.name == "reexport" else blocks
        g = self.check_outputs(outputs, intervals)
        f = np.array(found["f"], np.int64)
        xs = np.random.default_rng([self.seed, 99]).choice(n, size=min(n, SAMPLED_X),
                                                           replace=False)
        self.problems += checks.check_extensions(f, self.text, sorted(xs.tolist()))
        optimum = checks.optimal_scores(f, n)
        for scheme, score in found["scores"].items():
            if score != optimum[scheme]:
                self.problems.append(f"{scheme}: program score {score}, benchmark DP "
                                     f"{optimum[scheme]}")
        self.problems += checks.check_segmentation_score(
            blocks, found["scheme"], found["score"], optimum[found["scheme"]])
        if found["gst_chars"] != chars or not found["sa_matches"]:
            self.problems.append("suffix structures do not cover the gaps-removed rows")
        if g is not None:
            shape = (len(g.paths[0][1]), len(g.labels), len(g.edges),
                     sum(map(len, g.labels.values())),
                     len(Path(outputs["gfa"]).read_bytes()))
            if shape != tuple(found[k] for k in ("efg_blocks", "efg_nodes", "efg_edges",
                                                 "efg_label_chars", "efg_gfa_bytes")):
                self.problems.append("graph shape counts differ from the GFA read back")
        spans = res["spans"]
        metrics = {}
        for metric, name in LAYER_TIMES.items():
            durations = [s["end"] - s["start"] for s in spans if s["name"] == name]
            metrics[metric] = (statistics.median(durations), "s")
        cells = self.w.m * n
        metrics.update({
            "msa.gapindex_bytes_per_char": (found["gapindex_bytes"] / chars, "B/char"),
            "gst.chars": (chars, "count"),
            "gst.bytes_per_char": (found["gst_bytes"] / chars, "B/char"),
            "extensions.ops": (found["extension_ops"], "count"),
            "extensions.ops_per_cell": (found["extension_ops"] / cells, "ops/cell"),
            "dp.maxblocks_ops": (found["dp_ops"]["maxblocks"], "count"),
            "dp.minmaxlen_ops": (found["dp_ops"]["minmaxlen"], "count"),
            "efg.blocks": (found["efg_blocks"], "count"),
            "efg.nodes": (found["efg_nodes"], "count"),
            "efg.edges": (found["efg_edges"], "count"),
            "efg.label_chars": (found["efg_label_chars"], "count"),
            "efg.gfa_bytes": (found["efg_gfa_bytes"], "B"),
        })
        return len(ops), failed, metrics


def environment(numba) -> dict:
    return {"numba_enabled": numba, "python": platform.python_version(),
            "numpy": np.__version__, "nproc": len(os.sched_getaffinity(0))}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="shrink the alignment (smoke runs)")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "efgseg" / "__init__.py").is_file():
        print(f"perfbench: no src/efgseg under {ROOT}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    run = Run(args)
    shutil.rmtree(run.dir, ignore_errors=True)
    run.dir.mkdir(parents=True)
    try:
        run.make_inputs()
        attempted, failed, metrics = run.traced() if args.trace else run.untraced()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    result = {
        "correct": not run.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "tiny": args.tiny, "env": environment(run.numba),
              "problems": run.problems, **run.record, "result": result}
    Path(run.path("result.json")).write_text(json.dumps(record, indent=1) + "\n")
    for line in run.problems:
        print(f"perfbench: check failed: {line}", file=sys.stderr)
    print("env " + json.dumps(record["env"], sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
