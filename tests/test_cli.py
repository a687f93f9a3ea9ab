import io
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import efgseg.cli as cli
from efgseg.extensions import ExtensionTable
from efgseg.msa import Msa, parse_aligned_fasta

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
        n=4,
        op_count=0,
    )
    issues = cli.cross_check(msa, ext=tampered)
    assert issues
    assert "x=1" in issues[0]


def test_validate_exit_code_on_mismatch(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, "e.fa", E_FASTA)
    monkeypatch.setattr(cli, "cross_check", lambda msa: ["extensions: x=0 synthetic"])
    code, _, err = run(capsys, "validate", path)
    assert code == 2
    assert "x=0" in err


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
