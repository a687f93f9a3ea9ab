"""Processes that run the program for the benchmark.

    child.py probe  TINY.fa OUT.gfa   import efgseg, export one tiny alignment
    child.py timed  SPEC.json         timed `efgseg export` calls, tracing off
    child.py traced SPEC.json         the public calls of `efgseg export`, one span each

Only the program runs here: inputs are written and outputs are checked by
run.py in another process, so the peak RSS of the timed process is the cost
of importing the package, reading the inputs and running the timed calls.
The src directory of the checkout must be on PYTHONPATH.
"""

import contextlib
import sys
import time


def probe(tiny: str, out: str) -> int:
    from efgseg import cli

    return cli.main(["export", tiny, "-o", out])


def _digest(path: str) -> str:
    import hashlib

    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _cross_check(path: str) -> list[str]:
    from efgseg import cli, parse_aligned_fasta

    with open(path, encoding="ascii") as fh:
        return cli.cross_check(parse_aligned_fasta(fh.read()))


def _run_call(cli, argv: list[str]) -> int | str:
    """Exit code of one CLI call, or the error it raised past the CLI."""
    try:
        return cli.main(argv)
    except Exception as exc:  # a crash is a failed operation, not a benchmark error
        return f"{type(exc).__name__}: {exc}"


def timed(spec: dict) -> dict:
    """Closed loop of whole rounds: each round runs every call of the op once."""
    import resource

    import efgseg
    from efgseg import cli

    warm = _run_call(cli, spec["warmup"])
    ops = []
    start = time.perf_counter()
    rnd = 0
    while rnd == 0 or time.perf_counter() - start < spec["seconds"]:
        calls = [[a.replace("{round}", "0" if rnd == 0 else "r") for a in argv]
                 for argv in spec["calls"]]
        t0 = time.perf_counter()
        codes = [_run_call(cli, argv) for argv in calls]
        elapsed = time.perf_counter() - t0
        ops.append({"seconds": elapsed, "codes": codes,
                    "digests": [_digest(argv[argv.index("-o") + 1]) for argv in calls]})
        rnd += 1
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"numba": efgseg.NUMBA_ENABLED, "warmup": warm, "ops": ops, "rss_kib": rss_kib,
            "cross_check": _cross_check(spec["cross_check"])}


class Tracer:
    """Spans kept in memory: name, start, end, parent span and the op they belong to."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[dict] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        parent = self._open[-1] if self._open else None
        rec = {"id": len(self.spans), "name": name,
               "parent": parent["id"] if parent else None,
               "op": parent["op"] if parent else len(self.spans),
               "start": time.perf_counter(), "end": None, **attrs}
        self.spans.append(rec)
        self._open.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()


def _array_bytes(obj) -> int:
    import numpy as np

    return sum(v.nbytes for v in vars(obj).values() if isinstance(v, np.ndarray))


def _segment(tr: Tracer, msa, scheme: str, out: dict):
    """The layers of `efgseg export` without --segmentation, plus the other DP
    and a second suffix array and LCP on the built text."""
    import efgseg as E
    from efgseg import sais

    with tr.span("msa.gapindex"):
        gi = E.GapIndex(msa)
    with tr.span("gst.build"):
        gst = E.build_gst(msa)
    with tr.span("gst.sa"):
        sa = sais.suffix_array(gst.text, int(gst.text.max()) + 1)
    with tr.span("gst.lcp"):
        sais.lcp_array(gst.text, gst.sa)
    with tr.span("extensions.sweep"):
        ext = E.compute_minimal_right_extensions(msa, gi, gst)
    with tr.span("extensions.pairs"):
        pairs = ext.pairs_by_f()
    with tr.span("dp.maxblocks"):
        maxblocks = E.score_max_blocks(ext)
    with tr.span("dp.minmaxlen"):
        minmaxlen = E.score_min_max_length(pairs, msa.n)
    table = maxblocks if scheme == "maxblocks" else minmaxlen
    with tr.span("dp.traceback"):
        seg = E.traceback(table, ext)
    out.update(
        gst_chars=len(gst.text), gst_bytes=_array_bytes(gst), gapindex_bytes=_array_bytes(gi),
        sa_matches=bool((sa == gst.sa).all()), f=ext.f.tolist(), extension_ops=ext.op_count,
        scores={"maxblocks": maxblocks.score(), "minmaxlen": minmaxlen.score()},
        dp_ops={"maxblocks": maxblocks.op_count, "minmaxlen": minmaxlen.op_count},
        blocks=[list(b) for b in seg.blocks], scheme=scheme, score=seg.score,
    )
    return seg


def traced(spec: dict) -> dict:
    """Rounds of traced ops. With a segmentation file the op is `efgseg export
    --segmentation`; its segmenting layers then run once first, as set-up."""
    import efgseg as E
    from efgseg import cli

    tr = Tracer()
    warm = _run_call(cli, spec["warmup"])
    fasta, seg_path = spec["fasta"], spec.get("segmentation")
    found: dict = {}
    if seg_path:
        with tr.span("setup"):
            with tr.span("io.read"), open(fasta, encoding="ascii") as fh:
                data = fh.read()
            with tr.span("msa.parse"):
                msa = E.parse_aligned_fasta(data)
            seg = _segment(tr, msa, spec["scheme"], found)
        with open(seg_path, "w", encoding="ascii") as fh:
            fh.write(cli.segmentation_to_json(seg))
        del data, msa, seg
    ops = []
    start = time.perf_counter()
    rnd = 0
    while rnd == 0 or time.perf_counter() - start < spec["seconds"]:
        status: int | str = 0
        with tr.span("op", round=rnd) as op:
            try:
                with tr.span("io.read"), open(fasta, encoding="ascii") as fh:
                    data = fh.read()
                with tr.span("msa.parse"):
                    msa = E.parse_aligned_fasta(data)
                if seg_path:
                    with tr.span("io.segmentation"), open(seg_path, encoding="ascii") as fh:
                        seg = cli.segmentation_from_json(fh.read())
                else:
                    seg = _segment(tr, msa, spec["scheme"], found if rnd == 0 else {})
                with tr.span("efg.build"):
                    efg = E.build_efg(msa, seg)
                texts = {}
                for fmt, export in (("gfa", E.export_gfa), ("dot", E.export_dot),
                                    ("json", E.export_json)):
                    with tr.span(f"efg.{fmt}"):
                        texts[fmt] = export(efg)
            except Exception as exc:  # a crash is a failed operation
                status = f"{type(exc).__name__}: {exc}"
        ops.append({"span": op["id"], "status": status})
        if status != 0 and rnd == 0:
            break  # every round repeats the same calls
        if rnd == 0:
            for fmt, text in texts.items():
                with open(spec["outputs"][fmt], "w", encoding="ascii") as fh:
                    fh.write(text)
            found.update(efg_blocks=efg.b, efg_nodes=efg.n_nodes, efg_edges=len(efg.edges),
                         efg_label_chars=sum(len(nd.label) for bl in efg.blocks for nd in bl),
                         efg_gfa_bytes=len(texts["gfa"].encode("ascii")))
            first = texts
        elif status == 0:
            ops[-1]["same_outputs"] = texts == first
        rnd += 1
    return {"numba": E.NUMBA_ENABLED, "warmup": warm, "ops": ops, "found": found,
            "spans": tr.spans, "cross_check": _cross_check(spec["cross_check"])}


def main(argv: list[str]) -> int:
    if argv[0] == "probe":
        return probe(argv[1], argv[2])
    import json

    with open(argv[1], encoding="ascii") as fh:
        spec = json.load(fh)
    result = {"timed": timed, "traced": traced}[argv[0]](spec)
    with open(spec["result"], "w", encoding="ascii") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
