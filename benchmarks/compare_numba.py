#!/usr/bin/env python3
"""Benchmark the compiled kernels against the pure-Python fallback.

Spawns one child process per mode (EFGSEG_NO_NUMBA toggles the fallback) so
each interpreter imports the package exactly once, and prints a comparison
table. Every size is timed over several distinct random alignments; see the
scaling test for why repeating a single input misleads.

Usage: python benchmarks/compare_numba.py [--rows M] [--sizes n1,n2,...]

Needs numba (the ``jit`` extra); without it the script says so and exits 1.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

VARIANTS = 4


def run_child(args) -> dict:
    import efgseg as E
    from efgseg import oracle as O

    results = {}
    for n in args.sizes:
        msas = [
            O.generate_msa(
                O.RandomMsaSpec(seed=4242 + 1000 * k + n, m=args.rows, n=n, sigma=4, gap_prob=0.2)
            )
            for k in range(VARIANTS)
        ]

        def pipeline(msa):
            gi = E.GapIndex(msa)
            gst = E.build_gst(msa)
            return E.compute_minimal_right_extensions(msa, gi, gst)

        exts = [pipeline(msa) for msa in msas]  # also warms the compiled path
        pairs = [ext.pairs_by_f() for ext in exts]

        pre_times = []
        dp_times = []
        for _ in range(args.runs):
            t0 = time.perf_counter()
            for msa in msas:
                pipeline(msa)
            pre_times.append((time.perf_counter() - t0) / VARIANTS)
            t0 = time.perf_counter()
            for ext, pr in zip(exts, pairs):
                E.score_max_blocks(ext)
                E.score_min_max_length(pr, n)
            dp_times.append((time.perf_counter() - t0) / VARIANTS)
        results[n] = {
            "pre": statistics.median(pre_times),
            "dp": statistics.median(dp_times),
        }
    return {"numba": E.NUMBA_ENABLED, "results": results}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", type=int, default=8)
    parser.add_argument("--sizes", default="256,1024,4096")
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    args.sizes = [int(s) for s in str(args.sizes).split(",")]

    if args.child:
        print(json.dumps(run_child(args)))
        return 0

    reports = {}
    for mode, flag in (("numba", "0"), ("numpy", "1")):
        env = dict(os.environ, EFGSEG_NO_NUMBA=flag)
        cmd = [
            sys.executable, os.path.abspath(__file__), "--child",
            "--rows", str(args.rows), "--sizes", ",".join(map(str, args.sizes)),
            "--runs", str(args.runs),
        ]
        out = subprocess.run(cmd, env=env, capture_output=True, text=True)
        if out.returncode != 0:
            sys.stderr.write(out.stderr)
            return 1
        reports[mode] = json.loads(out.stdout)
        if mode == "numba" and not reports[mode]["numba"]:
            print(
                "compare_numba.py compares the numba JIT with the plain-Python kernels, "
                "but numba did not import. Install the jit extra: "
                "pip install -e '.[jit]' --no-build-isolation",
                file=sys.stderr,
            )
            return 1
    print(f"m={args.rows}, median of {args.runs} runs, {VARIANTS} alignments per size\n")
    print(f"{'n':>8} {'stage':>6} {'numba':>12} {'numpy':>12} {'speedup':>9}")
    for n in args.sizes:
        for stage in ("pre", "dp"):
            a = reports["numba"]["results"][str(n)][stage]
            b = reports["numpy"]["results"][str(n)][stage]
            print(f"{n:>8} {stage:>6} {a * 1e3:>10.2f}ms {b * 1e3:>10.2f}ms {b / a:>8.1f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
