"""Command-line front end: FASTA in, extensions / segmentation / graph out.

Exit codes: 0 success, 1 usage or I/O error, 2 oracle cross-check mismatch,
3 unsegmentable input. EFGSEG_LOG sets the logging level (default WARNING);
the one record so far is validate's warning above 50,000 cells.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import os
import sys

from . import oracle
from .dp import MAXBLOCKS, MINMAXLEN, Segmentation, UnsegmentableError, score, traceback
from .efg import build_efg, export_dot, export_gfa, export_json
from .extensions import ExtensionTable
from .msa import Msa, check_size_limits, parse_aligned_fasta, to_fasta
from .pipeline import run_pipeline

log = logging.getLogger("efgseg")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MISMATCH = 2
EXIT_UNSEGMENTABLE = 3


class _Mismatch(Exception):
    """The oracles' report; not a ValueError, so that main exits 2, not 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="ascii") as fh:
        return fh.read()


def _write_output(path: str | None, text: str):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)


def _load_msa(path: str) -> Msa:
    return parse_aligned_fasta(_read_input(path))


def segmentation_to_json(seg: Segmentation) -> str:
    doc = {
        "scheme": seg.scheme,
        "score": seg.score,
        "blocks": [{"start": s, "end": e} for s, e in seg.blocks],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _json_int(obj: dict, key: str, where: str) -> int:
    value = obj.get(key)
    if isinstance(value, bool) or not isinstance(value, int):
        got = json.dumps(value)
        raise ValueError(f"segmentation: {where}{key!r} must be an integer, not {got}")
    return value


def segmentation_from_json(text: str) -> Segmentation:
    """Parse the JSON that ``segmentation_to_json`` writes.

    Raises ValueError unless the document is an object whose ``blocks`` is a
    list of objects and whose ``score`` and every block's ``start`` and
    ``end`` are integers (JSON ``true``/``false`` and fractions are not),
    and when the JSON nests too deeply for the parser.
    """
    try:
        doc = json.loads(text)
    except RecursionError:
        raise ValueError("segmentation: the JSON nests too deeply to parse") from None
    if not isinstance(doc, dict):
        raise ValueError("segmentation: the document must be a JSON object")
    if not isinstance(doc.get("blocks"), list):
        raise ValueError("segmentation: 'blocks' must be a list")
    blocks = []
    for k, b in enumerate(doc["blocks"], 1):
        if not isinstance(b, dict):
            raise ValueError(f"segmentation: block {k} must be a JSON object")
        blocks.append((_json_int(b, "start", f"block {k} "), _json_int(b, "end", f"block {k} ")))
    return Segmentation(
        blocks=blocks, score=_json_int(doc, "score", ""), scheme=doc.get("scheme", "")
    )


def cross_check(msa: Msa, ext: ExtensionTable | None = None) -> list[str]:
    """Compare the fast pipeline against the brute-force oracles.

    An ExtensionTable may be injected to check a precomputed (or tampered)
    table instead of a freshly computed one. Returns mismatch descriptions.
    """
    issues: list[str] = []
    if ext is None:
        ext = run_pipeline(msa).ext
    checker = oracle.SegmentChecker(msa)
    for x in range(msa.n):
        want = oracle.oracle_minimal_right_extension(msa, x, checker)
        if int(ext.f[x]) != want:
            issues.append(f"extensions: x={x} computed f(x)={int(ext.f[x])}, oracle={want}")
            break
    for scheme in (MAXBLOCKS, MINMAXLEN):
        table = score(ext, scheme)
        want = oracle.oracle_optimal_score(msa, scheme, checker)
        if table.score() != want:
            issues.append(f"{scheme}: computed score {table.score()}, oracle {want}")
            continue
        if table.score() is None:
            continue
        seg = traceback(table, ext)
        achieved = oracle.oracle_segmentation_score(seg.blocks, scheme)
        if achieved != table.score():
            issues.append(f"{scheme}: traceback achieves {achieved}, table says {table.score()}")
        bad = [(a, b) for a, b in seg.blocks if not checker.is_valid(a, b)]
        for a, b in bad:
            issues.append(f"{scheme}: traceback segment [{a}..{b}] is not semi-repeat-free")
        if bad:
            continue  # a row may spell nothing in a bad block, so no graph is built
        efg = build_efg(msa, seg)
        total = sum(sum(map(len, labels)) for labels in efg.labels)
        if not oracle.oracle_efg_semi_repeat_free(efg, total):
            issues.append(f"{scheme}: induced graph fails the graph-level check")
    return issues


# -- subcommands ----------------------------------------------------------------


def _cmd_gen(args) -> str:
    # generate_msa resamples all-gap rows, so it needs a column that can hold
    # a symbol: a gap threshold below 1000 per mille and at least one column
    if args.rows < 1 or args.cols < 1:
        raise ValueError("--rows and --cols must be at least 1")
    if not 1 <= args.sigma <= len(oracle._LETTERS):
        raise ValueError(f"--sigma must be in 1..{len(oracle._LETTERS)}")
    if not (0 <= args.gap_prob < 1 and round(args.gap_prob * 1000) < 1000):
        raise ValueError("--gap-prob must be at least 0 and round to below 1 in thousandths")
    # the pipeline's int32 limits, for n columns and at most m (n + 1) symbols
    # and terminators: no alignment past them is generated
    check_size_limits(args.cols, args.rows * (args.cols + 1))
    spec = oracle.RandomMsaSpec(
        seed=args.seed, m=args.rows, n=args.cols, sigma=args.sigma, gap_prob=args.gap_prob
    )
    return to_fasta(oracle.generate_msa(spec))


def _cmd_extensions(args) -> str:
    msa = _load_msa(args.input)
    ext = run_pipeline(msa).ext
    return "".join(f"{x}\t{int(ext.f[x])}\n" for x in range(msa.n))


def _cmd_segment(args) -> str:
    msa = _load_msa(args.input)
    seg = run_pipeline(msa, args.score).segmentation()
    text = segmentation_to_json(seg)
    if args.emit_graph:
        # the graph's JSON goes in one level deeper as key "graph", which
        # sorts between "blocks" and "scheme": the json.dumps(indent=2,
        # sort_keys=True) layout of the whole document, without a round trip
        graph = export_json(build_efg(msa, seg)).rstrip("\n").replace("\n", "\n  ")
        text = text.replace('\n  "scheme": ', f'\n  "graph": {graph},\n  "scheme": ', 1)
    return text


def _cmd_export(args) -> str:
    msa = _load_msa(args.input)
    if args.segmentation:
        seg = segmentation_from_json(_read_input(args.segmentation))
    else:
        seg = run_pipeline(msa, args.score).segmentation()
    efg = build_efg(msa, seg)
    return {"gfa": export_gfa, "dot": export_dot, "json": export_json}[args.format](efg)


def _cmd_validate(args) -> str:
    msa = _load_msa(args.input)
    if msa.m * msa.n > 50_000:
        log.warning("oracle cross-checks are quadratic; this may take a while")
    issues = cross_check(msa)
    if issues:
        raise _Mismatch("\n".join(issues))
    return f"ok: {msa.m}x{msa.n} alignment passes all oracle cross-checks\n"


def _cmd_stats(args) -> str:
    msa = _load_msa(args.input)
    seg = run_pipeline(msa, args.score).segmentation()
    efg = build_efg(msa, seg)
    doc = {
        "m": msa.m,
        "n": msa.n,
        "scheme": args.score,
        "score": seg.score,
        "blocks": seg.b,
        "max_block_length": seg.max_block_length(),
        "nodes": efg.n_nodes,
        "edges": len(efg.edges),
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


@functools.cache
def _make_parser() -> _Parser:
    """The argument parser, built once per process: parse_args keeps no
    state in it between calls."""
    p = _Parser(prog="efgseg", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def add_io(sp, input_help="aligned FASTA file, or - for stdin"):
        sp.add_argument("input", nargs="?", default="-", help=input_help)
        sp.add_argument("-o", "--output", default=None, help="output file (default stdout)")

    sp = sub.add_parser("gen", help="emit a seeded random aligned FASTA")
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--rows", type=int, required=True)
    sp.add_argument("--cols", type=int, required=True)
    sp.add_argument("--sigma", type=int, default=4)
    sp.add_argument("--gap-prob", type=float, default=0.2)
    sp.add_argument("-o", "--output", default=None)
    sp.set_defaults(func=_cmd_gen)

    sp = sub.add_parser("extensions", help="dump x<TAB>f(x) per prefix boundary")
    add_io(sp)
    sp.set_defaults(func=_cmd_extensions)

    sp = sub.add_parser("segment", help="optimal segmentation as JSON")
    add_io(sp)
    sp.add_argument("--score", choices=[MAXBLOCKS, MINMAXLEN], required=True)
    sp.add_argument("--emit-graph", action="store_true", help="embed the founder graph")
    sp.set_defaults(func=_cmd_segment)

    sp = sub.add_parser("export", help="founder graph as GFA/DOT/JSON")
    add_io(sp)
    sp.add_argument("--segmentation", default=None, help="segmentation JSON (from 'segment')")
    sp.add_argument("--score", choices=[MAXBLOCKS, MINMAXLEN], default=MINMAXLEN,
                    help="scheme when no segmentation file is given")
    sp.add_argument("--format", choices=["gfa", "dot", "json"], default="gfa")
    sp.set_defaults(func=_cmd_export)

    sp = sub.add_parser("validate", help="cross-check the fast path against the oracles")
    add_io(sp)
    sp.set_defaults(func=_cmd_validate)

    sp = sub.add_parser("stats", help="alignment and graph summary")
    add_io(sp)
    sp.add_argument("--score", choices=[MAXBLOCKS, MINMAXLEN], default=MINMAXLEN)
    sp.set_defaults(func=_cmd_stats)
    return p


def main(argv=None) -> int:
    level = os.environ.get("EFGSEG_LOG", "WARNING")
    if not isinstance(logging.getLevelName(level.upper()), int):
        print(f"efgseg: error: EFGSEG_LOG={level!r} is not a logging level", file=sys.stderr)
        return EXIT_USAGE
    logging.basicConfig()  # a stderr handler, unless the host has configured logging
    log.setLevel(level.upper())
    args = _make_parser().parse_args(argv)
    try:
        _write_output(args.output, args.func(args))
    except _Mismatch as exc:
        print(exc, file=sys.stderr)
        return EXIT_MISMATCH
    except UnsegmentableError as exc:
        print(f"efgseg: {exc}", file=sys.stderr)
        return EXIT_UNSEGMENTABLE
    except BrokenPipeError:
        # downstream consumer (e.g. `| head`) closed the pipe; not an error
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except (OSError, ValueError) as exc:
        print(f"efgseg: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
