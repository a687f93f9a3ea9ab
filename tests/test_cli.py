import contextlib
import io
import json
import logging
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import efgseg.cli as cli
from efgseg.extensions import ExtensionTable
from efgseg.msa import DP_LIMIT, Msa, parse_aligned_fasta
from efgseg.sais import RANK_LIMIT

SRC = Path(cli.__file__).resolve().parents[1]
E_FASTA = ">r1\nAG-C\n>r2\nA-GC\n"
AAA_FASTA = ">r1\nAAA\n"
UNSEG_FASTA = ">r1\nA-B-\n>r2\nAABB\n"


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_extensions_output(tmp_path, capsys):
    path = write(tmp_path, "aaa.fa", AAA_FASTA)
    code, out, _ = run(capsys, "extensions", path)
    assert code == 0
    assert out == "0\t3\n1\t4\n2\t4\n"


def test_stdin_streaming(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(E_FASTA))
    code, out, _ = run(capsys, "extensions", "-")
    assert code == 0
    assert out == "0\t1\n1\t3\n2\t5\n3\t4\n"


def test_segment_json(tmp_path, capsys):
    path = write(tmp_path, "e.fa", E_FASTA)
    code, out, _ = run(capsys, "segment", path, "--score", "minmaxlen")
    assert code == 0
    doc = json.loads(out)
    assert doc["score"] == 2
    assert doc["blocks"] == [
        {"start": 1, "end": 1},
        {"start": 2, "end": 3},
        {"start": 4, "end": 4},
    ]


def test_segment_emit_graph(tmp_path, capsys):
    path = write(tmp_path, "e.fa", E_FASTA)
    code, out, _ = run(capsys, "segment", path, "--score", "maxblocks", "--emit-graph")
    assert code == 0
    doc = json.loads(out)
    assert doc["score"] == 3
    assert [n["label"] for b in doc["graph"]["blocks"] for n in b["nodes"]] == ["A", "G", "C"]


QUOTE_FASTA = '>r1\nA"C\\T\n>r2\nAGCTT\n'


@pytest.mark.parametrize("fasta", [E_FASTA, QUOTE_FASTA])
@pytest.mark.parametrize("scheme", ["maxblocks", "minmaxlen"])
def test_segment_emit_graph_layout(tmp_path, capsys, fasta, scheme):
    # the spliced document is byte for byte what json.dumps writes for it
    path = write(tmp_path, "in.fa", fasta)
    code, seg_json, _ = run(capsys, "segment", path, "--score", scheme)
    assert code == 0
    seg_path = write(tmp_path, "seg.json", seg_json)
    code, graph_json, _ = run(
        capsys, "export", path, "--segmentation", seg_path, "--format", "json"
    )
    assert code == 0
    doc = json.loads(seg_json)
    doc["graph"] = json.loads(graph_json)
    code, out, _ = run(capsys, "segment", path, "--score", scheme, "--emit-graph")
    assert code == 0
    assert out == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if fasta == QUOTE_FASTA:
        labels = [nd["label"] for b in doc["graph"]["blocks"] for nd in b["nodes"]]
        assert any('"' in label for label in labels) and any("\\" in label for label in labels)


def test_export_gfa_via_segmentation_file(tmp_path, capsys):
    msa_path = write(tmp_path, "e.fa", E_FASTA)
    code, seg_json, _ = run(capsys, "segment", msa_path, "--score", "minmaxlen")
    assert code == 0
    seg_path = write(tmp_path, "seg.json", seg_json)
    code, gfa, _ = run(capsys, "export", msa_path, "--segmentation", seg_path, "--format", "gfa")
    assert code == 0
    assert gfa.startswith("H\tVN:Z:1.0\n")
    assert gfa.count("\nS\t") == 3 and gfa.count("\nL\t") == 2 and gfa.count("\nP\t") == 2


@pytest.mark.parametrize(
    "doc",
    [
        "[]",
        '"x"',
        '{"score": 1}',
        '{"blocks": {"start": 1, "end": 4}, "score": 1}',
        '{"blocks": [1, 2], "score": 1}',
        '{"blocks": [{"start": null, "end": 4}], "score": 1}',
        '{"blocks": [{"start": 1.7, "end": 4}], "score": 1}',
        '{"blocks": [{"start": true, "end": 4}], "score": 1}',
        '{"blocks": [{"start": 1, "end": "4"}], "score": 1}',
        '{"blocks": [{"start": 1}], "score": 1}',
        '{"blocks": [{"start": 1, "end": 4}], "score": 1.0}',
        '{"blocks": [{"start": 1, "end": 4}], "score": false}',
        '{"blocks": [{"start": 1, "end": 4}]}',
    ],
)
def test_export_rejects_malformed_segmentation(tmp_path, capsys, doc):
    msa_path = write(tmp_path, "e.fa", E_FASTA)
    seg_path = write(tmp_path, "seg.json", doc)
    code, out, err = run(capsys, "export", msa_path, "--segmentation", seg_path)
    assert code == 1
    assert out == ""
    assert err.startswith("efgseg: error: segmentation: ")


def test_export_rejects_deeply_nested_segmentation(tmp_path, capsys):
    # json.loads raises RecursionError on this, which is not a ValueError
    msa_path = write(tmp_path, "e.fa", E_FASTA)
    depth = 200_000
    seg_path = write(tmp_path, "deep.json", '{"blocks": ' + "[" * depth + "]" * depth + "}")
    code, out, err = run(capsys, "export", msa_path, "--segmentation", seg_path)
    assert code == 1
    assert out == ""
    assert err == "efgseg: error: segmentation: the JSON nests too deeply to parse\n"


def test_export_default_pipeline(tmp_path, capsys):
    path = write(tmp_path, "e.fa", E_FASTA)
    code, dot, _ = run(capsys, "export", path, "--format", "dot")
    assert code == 0
    assert dot.startswith("digraph")


def test_export_gfa_rejects_duplicate_path_names(tmp_path, capsys):
    # both headers have the first token "a", which names the GFA path
    path = write(tmp_path, "dup.fa", ">a x\nACGT\n>a\nACGA\n")
    code, out, err = run(capsys, "export", path, "--format", "gfa")
    assert code == 1
    assert out == ""
    assert "'a'" in err and "rows 1 and 2" in err
    code, out, _ = run(capsys, "export", path, "--format", "json")
    assert code == 0
    assert [p["name"] for p in json.loads(out)["paths"]] == ["a x", "a"]


@pytest.mark.parametrize("fasta,row,token", [
    (">*r1\nACGT\n>r2\nACGA\n", 1, "'*r1'"),
    (">r1\nACGT\n>=r2 x\nACGA\n", 2, "'=r2'"),
    (">r1\nACGT\n>r\x012\nACGA\n", 2, "'r\\x012'"),
])
def test_export_gfa_rejects_names_gfa_forbids(tmp_path, capsys, fasta, row, token):
    # GFA 1 names match [!-)+-<>-~][!-~]*: no '*' or '=' first, no control byte
    path = write(tmp_path, "names.fa", fasta)
    code, out, err = run(capsys, "export", path, "--format", "gfa")
    assert code == 1
    assert out == ""
    assert err == f"efgseg: error: row {row} has the GFA path name {token}, which GFA 1 forbids\n"


def test_export_gfa_rejects_labels_gfa_cannot_hold(tmp_path, capsys):
    # GFA 1 reads a '*' sequence as "not stored" and allows only [A-Za-z=.]+
    path = write(tmp_path, "labels.fa", ">r1\nAC*T\n>r2\nAC1T\n")
    code, out, err = run(capsys, "export", path, "--format", "gfa")
    assert code == 1
    assert out == ""
    assert err == "efgseg: error: node b3_0 has the label '*', which GFA 1 cannot hold\n"
    for fmt in ("dot", "json"):
        code, out, _ = run(capsys, "export", path, "--format", fmt)
        assert code == 0 and "*" in out


def test_export_dot_escapes_labels(tmp_path, capsys):
    # node labels '"' and '\\T' must become the DOT strings "\\"" and "\\\\T"
    path = write(tmp_path, "quote.fa", QUOTE_FASTA)
    code, dot, _ = run(capsys, "export", path, "--format", "dot")
    assert code == 0
    assert '    "b2_0" [label="\\""];\n' in dot
    assert '    "b4_1" [label="\\\\T"];\n' in dot
    dot_string = re.compile(r'"(?:[^"\\]|\\.)*"')
    for line in dot.splitlines():
        if "[label=" in line:
            assert re.fullmatch(rf'    {dot_string.pattern} \[label={dot_string.pattern}\];', line)
    code, out, _ = run(capsys, "export", path, "--format", "json")
    assert code == 0
    labels = [nd["label"] for b in json.loads(out)["blocks"] for nd in b["nodes"]]
    assert '"' in labels and "\\T" in labels


def test_dot_in_rows_is_a_gap(tmp_path, capsys):
    dotted = write(tmp_path, "dotted.fa", ">r1\nA.cg.T\n>r2\nagcg-T\n>r3\n.GCGAT\n")
    dashed = write(tmp_path, "dashed.fa", ">r1\nA-CG-T\n>r2\nAGCG-T\n>r3\n-GCGAT\n")
    code, want, _ = run(capsys, "export", dashed, "--format", "gfa")
    assert code == 0
    code, got, _ = run(capsys, "export", dotted, "--format", "gfa")
    assert code == 0
    assert got == want
    assert not any("." in line.split("\t")[2] for line in got.splitlines() if line[0] == "S")


def test_gen_deterministic_and_parseable(capsys):
    code, out1, _ = run(capsys, "gen", "--seed", "7", "--rows", "3", "--cols", "20")
    assert code == 0
    code, out2, _ = run(capsys, "gen", "--seed", "7", "--rows", "3", "--cols", "20")
    assert out1 == out2
    msa = parse_aligned_fasta(out1)
    assert msa.m == 3 and msa.n == 20


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--rows", "0"),
        ("--cols", "0"),
        ("--cols", "-3"),
        ("--sigma", "0"),
        ("--sigma", "25"),
        ("--sigma", "30"),
        ("--gap-prob", "1.0"),
        ("--gap-prob", "0.9995"),
        ("--gap-prob", "-0.1"),
        ("--gap-prob", "nan"),
    ],
)
def test_gen_rejects_unusable_arguments(capsys, flag, value):
    # --cols 0 and --gap-prob 1.0 used to hang: every row is all gaps and is
    # resampled without end
    argv = {"--seed": "1", "--rows": "2", "--cols": "5", flag: value}
    code, out, err = run(capsys, "gen", *[t for kv in argv.items() for t in kv])
    assert code == 1
    assert out == ""
    assert err.startswith("efgseg: error: ") and flag in err


class _Generated(Exception):
    pass


def test_gen_checks_size_limits_before_generating(capsys, monkeypatch):
    # generate_msa raises at once, so no size here builds a row
    def generated(spec):
        raise _Generated((spec.m, spec.n))

    monkeypatch.setattr(cli.oracle, "generate_msa", generated)
    text_rows = RANK_LIMIT // (1 << 20)  # rows of 2^20 - 1 columns, plus terminators
    for rows, cols, limit in [
        (100_000_000_000, 1_000_000_000_000, "columns"),
        (1, DP_LIMIT - 1, "columns"),
        (text_rows, (1 << 20) - 1, "gaps-removed"),
    ]:
        code, out, err = run(capsys, "gen", "--seed", "1", "--rows", str(rows), "--cols", str(cols))
        assert code == 1
        assert out == ""
        assert err.startswith("efgseg: error: ") and limit in err
    # one below each limit passes the check and reaches the generator
    for rows, cols in [(1, DP_LIMIT - 2), (text_rows, (1 << 20) - 2)]:
        with pytest.raises(_Generated):
            cli.main(["gen", "--seed", "1", "--rows", str(rows), "--cols", str(cols)])


@pytest.mark.parametrize(
    "argv",
    [
        ["--rows", "1", "--cols", "1", "--sigma", "1"],
        ["--rows", "2", "--cols", "5", "--sigma", "24"],
        ["--rows", "2", "--cols", "1", "--gap-prob", "0.9994"],
        ["--rows", "2", "--cols", "5", "--gap-prob", "0"],
    ],
)
def test_gen_accepts_boundary_arguments(capsys, argv):
    code, out, _ = run(capsys, "gen", "--seed", "1", *argv)
    assert code == 0
    msa = parse_aligned_fasta(out)
    assert (msa.m, msa.n) == (int(argv[1]), int(argv[3]))


def test_validate_ok(tmp_path, capsys):
    path = write(tmp_path, "e.fa", E_FASTA)
    code, out, _ = run(capsys, "validate", path)
    assert code == 0
    assert "ok" in out


@st.composite
def small_msas(draw):
    """Alignments of 1-5 rows by 1-14 columns over 1-3 symbols, with a gap
    probability up to 0.5 and no all-gap row."""
    m = draw(st.integers(1, 5))
    n = draw(st.integers(1, 14))
    symbols = "ACG"[: draw(st.sampled_from([1, 2, 3]))]
    gap_prob = draw(st.floats(0, 0.5))
    symbol = st.sampled_from(symbols)
    rows = []
    for _ in range(m):
        row = ["-" if draw(st.floats(0, 1)) < gap_prob else draw(symbol) for _ in range(n)]
        if "".join(row).strip("-") == "":
            row[draw(st.integers(0, n - 1))] = draw(symbol)
        rows.append("".join(row))
    return Msa.from_rows(rows)


@settings(deadline=None, max_examples=150)
@given(small_msas())
def test_pipeline_agrees_with_oracles(msa):
    assert cli.cross_check(msa) == []


def test_cross_check_reports_injected_mismatch():
    msa = parse_aligned_fasta(E_FASTA)
    tampered = ExtensionTable(
        f=np.array([1, 2, 5, 4], dtype=np.int64),  # f(1) off by one
        op_count=0,
    )
    issues = cli.cross_check(msa, ext=tampered)
    assert issues
    assert "x=1" in issues[0]


def test_cross_check_reports_block_where_a_row_spells_nothing():
    # f(2) = 3 lets traceback cut [3..3], where row 1 is a gap: the check
    # reports the block instead of building its graph
    msa = parse_aligned_fasta(E_FASTA)
    tampered = ExtensionTable(f=np.array([1, 3, 3, 4], dtype=np.int64), op_count=0)
    issues = cli.cross_check(msa, ext=tampered)
    assert any("x=2" in line for line in issues), issues
    assert any("[3..3]" in line for line in issues), issues


def test_validate_exit_code_on_mismatch(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, "e.fa", E_FASTA)
    monkeypatch.setattr(cli, "cross_check", lambda msa: ["extensions: x=0 synthetic"])
    code, _, err = run(capsys, "validate", path)
    assert code == 2
    assert "x=0" in err


def test_cross_check_builds_one_segment_checker(monkeypatch):
    built = []

    class Counting(cli.oracle.SegmentChecker):
        def __init__(self, msa):
            built.append(msa)
            super().__init__(msa)

    monkeypatch.setattr(cli.oracle, "SegmentChecker", Counting)
    assert cli.cross_check(parse_aligned_fasta(E_FASTA)) == []
    assert len(built) == 1


@pytest.mark.parametrize("name,value,report", [
    ("oracle_optimal_score", 99, "maxblocks: computed score 3, oracle 99"),
    ("oracle_segmentation_score", -1, "minmaxlen: traceback achieves -1, table says 2"),
    ("oracle_efg_semi_repeat_free", False, "maxblocks: induced graph fails the graph-level check"),
])
def test_validate_reports_each_oracle_mismatch(tmp_path, capsys, monkeypatch, name, value, report):
    path = write(tmp_path, "e.fa", E_FASTA)
    out_path = tmp_path / "report.txt"
    monkeypatch.setattr(cli.oracle, name, lambda *args: value)
    code, out, err = run(capsys, "validate", path, "-o", str(out_path))
    assert code == 2
    assert out == ""
    assert report in err.splitlines()
    assert not out_path.exists()


def test_validate_writes_output_file(tmp_path, capsys):
    path = write(tmp_path, "e.fa", E_FASTA)
    out_path = tmp_path / "report.txt"
    code, out, err = run(capsys, "validate", path, "-o", str(out_path))
    assert (code, out, err) == (0, "", "")
    assert out_path.read_text() == "ok: 2x4 alignment passes all oracle cross-checks\n"


def test_key_error_in_a_subcommand_is_not_an_input_error(tmp_path, capsys, monkeypatch):
    # no input reaches a KeyError, so one is a bug and keeps its traceback
    path = write(tmp_path, "e.fa", E_FASTA)

    def broken(msa, seg):
        raise KeyError("bug")

    monkeypatch.setattr(cli, "build_efg", broken)
    with pytest.raises(KeyError, match="bug"):
        cli.main(["export", path])


def test_validate_warns_above_50000_cells(tmp_path, capsys, monkeypatch, caplog):
    checked = []
    monkeypatch.setattr(cli, "cross_check", lambda msa: checked.append(msa) or [])
    small = write(tmp_path, "small.fa", ">r1\n" + "A" * 50_000 + "\n")
    large = write(tmp_path, "large.fa", ">r1\n" + "A" * 50_001 + "\n")
    with caplog.at_level(logging.WARNING, logger="efgseg"):
        assert run(capsys, "validate", small)[0] == 0
        assert "quadratic" not in caplog.text
        code, out, _ = run(capsys, "validate", large)
    assert code == 0
    assert out == "ok: 1x50001 alignment passes all oracle cross-checks\n"
    assert "oracle cross-checks are quadratic" in caplog.text
    assert [msa.n for msa in checked] == [50_000, 50_001]


def _child_env():
    return dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))


def test_closed_pipe_exits_0_without_stderr(tmp_path):
    # `efgseg export - | head -c 0`: the reader has closed its end before the
    # export writes anything, so every write to stdout fails with EPIPE
    path = tmp_path / "big.fa"
    assert cli.main(["gen", "--seed", "3", "--rows", "40", "--cols", "3000", "-o", str(path)]) == 0
    with subprocess.Popen([sys.executable, "-m", "efgseg", "export", "-", "--format", "dot"],
                          stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=_child_env()) as proc:
        proc.stdout.close()
        proc.stdin.write(path.read_bytes())
        proc.stdin.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 0
    assert err == b""


# The test above reaches the BrokenPipeError handler through a closed pipe;
# this stdout, with no pipe, fails every write the way such a write does.
_CLOSED_STDOUT = """
import io, sys
from efgseg import cli

class ClosedPipe(io.TextIOWrapper):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

sys.stdout = ClosedPipe(open(1, "wb", closefd=False))
sys.exit(cli.main(sys.argv[1:]))
"""


def test_broken_pipe_error_exits_0_without_stderr(tmp_path):
    path = write(tmp_path, "e.fa", E_FASTA)
    proc = subprocess.run([sys.executable, "-c", _CLOSED_STDOUT, "export", path],
                          capture_output=True, env=_child_env(), timeout=120)
    assert proc.returncode == 0
    assert proc.stdout == b""
    assert proc.stderr == b""


def test_unsegmentable_exit_code(tmp_path, capsys):
    path = write(tmp_path, "u.fa", UNSEG_FASTA)
    code, _, err = run(capsys, "segment", path, "--score", "minmaxlen")
    assert code == 3
    assert "no semi-repeat-free segmentation" in err


def test_parse_error_exit_code(tmp_path, capsys):
    path = write(tmp_path, "bad.fa", ">r1\nAGC\n>r2\nAG\n")
    code, _, err = run(capsys, "segment", path, "--score", "minmaxlen")
    assert code == 1
    assert "error" in err


def test_missing_file_exit_code(capsys):
    code, _, err = run(capsys, "extensions", "/nonexistent/path.fa")
    assert code == 1


def test_usage_error_exit_code(tmp_path, capsys):
    path = write(tmp_path, "e.fa", E_FASTA)
    with pytest.raises(SystemExit) as exc:
        cli.main(["segment", path])  # --score is required
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        cli.main(["bogus-subcommand"])
    assert exc.value.code == 1


def test_bad_log_level_is_a_usage_error(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, "e.fa", E_FASTA)
    monkeypatch.setenv("EFGSEG_LOG", "bogus")
    code, out, err = run(capsys, "stats", path)
    assert code == 1
    assert out == ""
    assert err == "efgseg: error: EFGSEG_LOG='bogus' is not a logging level\n"


def test_log_level_set_when_host_configured_logging(tmp_path, capsys, monkeypatch):
    # a host that already gave the root logger a handler, as pytest or an
    # embedding program does, makes logging.basicConfig a no-op
    path = write(tmp_path, "e.fa", E_FASTA)
    logger, root, handler = logging.getLogger("efgseg"), logging.getLogger(), logging.NullHandler()
    old_level, root_level = logger.level, root.level
    monkeypatch.setenv("EFGSEG_LOG", "DEBUG")
    root.addHandler(handler)
    try:
        code, _, _ = run(capsys, "stats", path, "--score", "maxblocks")
        assert code == 0
        assert logger.level == logging.DEBUG
        assert root.level == root_level
    finally:
        root.removeHandler(handler)
        logger.setLevel(old_level)


def test_stats(tmp_path, capsys):
    path = write(tmp_path, "e.fa", E_FASTA)
    code, out, _ = run(capsys, "stats", path, "--score", "maxblocks")
    assert code == 0
    doc = json.loads(out)
    assert doc == {
        "m": 2,
        "n": 4,
        "scheme": "maxblocks",
        "score": 3,
        "blocks": 3,
        "max_block_length": 2,
        "nodes": 3,
        "edges": 2,
    }


def test_output_file(tmp_path, capsys):
    path = write(tmp_path, "e.fa", E_FASTA)
    out_path = tmp_path / "out.tsv"
    code, out, _ = run(capsys, "extensions", path, "-o", str(out_path))
    assert code == 0 and out == ""
    assert out_path.read_text() == "0\t1\n1\t3\n2\t5\n3\t4\n"


def test_segment_output_passes_validate(tmp_path, capsys):
    # end-to-end determinism + self-consistency on a generated input
    code, fasta, _ = run(capsys, "gen", "--seed", "123", "--rows", "4", "--cols", "18")
    assert code == 0
    path = write(tmp_path, "g.fa", fasta)
    code1, out1, _ = run(capsys, "segment", path, "--score", "minmaxlen")
    code2, out2, _ = run(capsys, "segment", path, "--score", "minmaxlen")
    assert out1 == out2
    if code1 == 0:
        code, out, _ = run(capsys, "validate", path)
        assert code == 0


def test_one_process_runs_commands_in_turn(tmp_path, capsys):
    # main builds its parser once per process; no call leaves a value behind
    # for the next, so each output is the one a fresh process writes
    path = write(tmp_path, "e.fa", E_FASTA)
    seg_path = str(tmp_path / "seg.json")
    calls = [
        ["segment", path, "--score", "maxblocks", "--emit-graph", "-o", seg_path],
        ["segment", path, "--score", "minmaxlen"],
        ["export", path, "--score", "maxblocks", "--format", "json"],
        ["export", path],
        ["stats", path, "--score", "maxblocks"],
        ["stats", path],
        ["export", path, "--segmentation", seg_path, "--format", "dot"],
        ["segment", path, "--score", "maxblocks"],
    ]
    outs = [run(capsys, *argv) for argv in calls]
    assert all(code == 0 for code, _, _ in outs)
    assert cli._make_parser() is cli._make_parser()
    assert "graph" in json.loads((tmp_path / "seg.json").read_text())
    assert "graph" not in json.loads(outs[1][1]) and "graph" not in json.loads(outs[7][1])
    assert json.loads(outs[2][1])["paths"] and outs[3][1].startswith("H\tVN:Z:1.0\n")
    assert json.loads(outs[4][1])["scheme"] == "maxblocks"
    assert json.loads(outs[5][1])["scheme"] == "minmaxlen"
    assert outs[6][1].startswith("digraph")
    fresh = cli._make_parser.__wrapped__()
    for argv in calls:
        assert vars(cli._make_parser().parse_args(argv)) == vars(fresh.parse_args(argv))


# -- the CLI never prints a traceback -------------------------------------------

# Bytes a FASTA file may hold by mistake: a BOM, CR line ends, NUL, non-ASCII
# (UTF-8 and Latin-1), a header with no sequence, and symbols rows may not hold.
_FASTA_JUNK = [b"\xef\xbb\xbf", b"\r\n", b"\r", b"\x00", b"\xc3\x9f", b"\xff", b">", b">h\n",
               b"\n", b" ", b"\t", b".", b"-", b"*", b"a", b"1"]

# JSON values for the integers of a segmentation file: in range and not, huge
# (5000 digits is past Python's int-to-string limit), fractional, NaN,
# infinite, and not numbers at all.
_JSON_INTS = ["1", "2", "3", "4", "0", "-1", "5", "99999999999999999999999", "9" * 5000,
              "1.0", "1.5", "1e400", "-1e400", "NaN", "Infinity", "-Infinity", "true", "null",
              '"4"', "[]", "{}"]


@st.composite
def fuzz_fasta(draw):
    """A tiny alignment of 1-3 rows by 1-5 columns, with up to 3 junk pieces
    spliced in."""
    n = draw(st.integers(1, 5))
    rows = draw(st.lists(st.text("ACG-", min_size=n, max_size=n), min_size=1, max_size=3))
    data = bytearray("".join(f">r{i}\n{r}\n" for i, r in enumerate(rows, 1)).encode())
    for _ in range(draw(st.integers(0, 3))):
        data[draw(st.integers(0, len(data))):0] = draw(st.sampled_from(_FASTA_JUNK))
    return bytes(data)


@st.composite
def fuzz_segmentation(draw):
    """Segmentation JSON: blocks drawn from _JSON_INTS, or one nested deeper
    than the JSON parser recurses."""
    depth = draw(st.sampled_from([0, 0, 0, 1, 5000, 200_000]))
    if depth:
        return '{"blocks": ' + "[" * depth + "]" * depth + ', "score": 1}'
    ints = st.sampled_from(_JSON_INTS)
    blocks = draw(st.lists(st.tuples(ints, ints), max_size=4))
    body = ", ".join(f'{{"start": {a}, "end": {b}}}' for a, b in blocks)
    return f'{{"blocks": [{body}], "score": {draw(ints)}, "scheme": "maxblocks"}}'


_FUZZ_COMMANDS = [
    ["extensions"],
    ["segment", "--score", "maxblocks"],
    ["segment", "--score", "minmaxlen", "--emit-graph"],
    ["export", "--format", "gfa"],
    ["export", "--score", "maxblocks", "--format", "dot"],
    ["stats"],
    ["validate"],
]

# gen arguments that are rejected before any row is generated
_GEN_REJECTED = [
    ["--rows", "0", "--cols", "5"],
    ["--rows", "2", "--cols", "-1"],
    ["--rows", "2", "--cols", "5", "--sigma", "25"],
    ["--rows", "2", "--cols", "5", "--gap-prob", "nan"],
    ["--rows", "2", "--cols", "5", "--gap-prob", "1"],
    ["--rows", "100000000000", "--cols", "1000000000000"],
    ["--rows", "2", "--cols", "five"],
]


def _main_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, err.getvalue()


@settings(deadline=None, max_examples=300)
@given(data=st.data())
def test_cli_never_prints_a_traceback(tmp_path_factory, data):
    tmp = tmp_path_factory.mktemp("fuzz")
    fasta_path, seg_path = tmp / "in.fa", tmp / "seg.json"
    fasta_path.write_bytes(data.draw(fuzz_fasta()))
    kind = data.draw(st.sampled_from(["command", "segmentation", "gen"]))
    if kind == "command":
        argv = [*data.draw(st.sampled_from(_FUZZ_COMMANDS)), str(fasta_path)]
    elif kind == "segmentation":
        seg_path.write_text(data.draw(fuzz_segmentation()))
        export_format = data.draw(st.sampled_from(["gfa", "dot", "json"]))
        argv = ["export", str(fasta_path), "--segmentation", str(seg_path), "--format", export_format]
    else:
        argv = ["gen", "--seed", "1", *data.draw(st.sampled_from(_GEN_REJECTED))]
    # a gen that got past its checks would raise here, not run on and on
    with mock.patch.object(cli.oracle, "generate_msa", side_effect=_Generated):
        code, err = _main_in_process(argv)
    assert code in {0, 1, 2, 3}, (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    if kind == "gen":
        assert code == 1, (argv, err)


# -- ... for any argv of the subcommand grammar -----------------------------------

# (valid, invalid) values as they reach argparse. "{fasta}" is a small
# alignment file, "-" reads junk from stdin, "{missing}" names no file and
# "{dir}" a directory. The huge ints are past the pipeline's int32 limits (or
# past Python's int-to-string limit), so no accepted gen exceeds 64 x 64 cells.
_HUGE = [str(1 << 31), str(10**30), "9" * 5000]
_INPUT = (["{fasta}"], ["-", "{missing}", "{dir}"])
_SIZE = (["1", "2", "7", "64"], ["0", "-1", "x", "1.5", "", *_HUGE])
_OUTPUT = (["-", "{dir}/out"], ["{dir}", "{missing}/out"])
_SCORE = (["maxblocks", "minmaxlen"], ["bogus", ""])

# per subcommand: flag spellings -> values (None: a flag without a value)
_GRAMMAR = {
    "gen": {
        ("--seed",): (["0", "7", "-5", str(10**30)], ["x", "1.5", "9" * 5000]),
        ("--rows",): _SIZE,
        ("--cols",): _SIZE,
        ("--sigma",): (["1", "4", "24"], ["0", "25", "-3", "x", *_HUGE]),
        ("--gap-prob",): (["0", "0.2", "0.5"], ["1", "-0.1", "nan", "inf", "1e400", "x"]),
        ("-o", "--output"): _OUTPUT,
    },
    "extensions": {("-o", "--output"): _OUTPUT},
    "segment": {("--score",): _SCORE, ("--emit-graph",): None, ("-o", "--output"): _OUTPUT},
    "export": {
        ("--segmentation",): (["{seg}"], ["{missing}", "{dir}"]),
        ("--score",): _SCORE,
        ("--format",): (["gfa", "dot", "json"], ["svg", ""]),
        ("-o", "--output"): _OUTPUT,
    },
    "validate": {("-o", "--output"): _OUTPUT},
    "stats": {("--score",): _SCORE, ("-o", "--output"): _OUTPUT},
    "bogus": {},
}
_GOOD_SEGMENTATION = json.dumps({"blocks": [{"start": 1, "end": 1}, {"start": 2, "end": 3},
                                            {"start": 4, "end": 4}], "score": 2})


@st.composite
def fuzz_argv(draw):
    """argv of any subcommand: each flag present or not (required ones too),
    spelt either way, with a valid or an invalid value, in any order, with
    an input or not, and maybe an extra positional or an unknown flag.
    Mostly present and valid, so that many argvs run a command."""
    mostly = st.sampled_from([True] * 7 + [False])

    def value(pair):
        return draw(st.sampled_from(pair[0] if draw(mostly) else pair[1]))

    command = draw(st.sampled_from(list(_GRAMMAR)))
    groups = []
    for spellings, values in _GRAMMAR[command].items():
        if draw(mostly):
            flag = [draw(st.sampled_from(spellings))]
            groups.append(flag if values is None else [*flag, value(values)])
    if command != "gen" and draw(mostly):
        groups.append([value(_INPUT)])
    groups.append(draw(st.sampled_from([[]] * 5 + [["extra.fa"], ["--bogus"], ["-o"]])))
    return [command, *(token for group in draw(st.permutations(groups)) for token in group)]


@settings(deadline=None, max_examples=400)
@given(data=st.data())
def test_cli_argv_grammar_never_prints_a_traceback(tmp_path_factory, data):
    tmp = tmp_path_factory.mktemp("argv")
    fasta, seg = tmp / "in.fa", tmp / "seg.json"
    fasta.write_text(data.draw(st.sampled_from([E_FASTA, E_FASTA, AAA_FASTA, UNSEG_FASTA])))
    good = data.draw(st.sampled_from([True, True, False]))
    seg.write_text(_GOOD_SEGMENTATION if good else data.draw(fuzz_segmentation()))
    places = {"fasta": fasta, "seg": seg, "missing": tmp / "missing", "dir": tmp}
    argv = [token.format(**places) for token in data.draw(fuzz_argv())]
    stdin = io.TextIOWrapper(io.BytesIO(data.draw(fuzz_fasta())), encoding="utf-8")
    with mock.patch.object(cli.sys, "stdin", stdin):
        code, err = _main_in_process(argv)
    assert code in {0, 1, 2, 3}, (argv, code, err)
    assert "Traceback" not in err, (argv, err)
