import json
import random
import re
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import efgseg as E
from efgseg import efg as efg_module
from efgseg import oracle as O
from efgseg.dp import Segmentation
from efgseg.efg import (
    Efg,
    EfgError,
    EfgNode,
    build_efg,
    export_dot,
    export_gfa,
    export_json,
)
from efgseg.msa import Msa
from tests import loop_reference
from tests.conftest import near_identical_msa, spell


def parse_gfa(text: str):
    """Node, edge, and path sets from GFA text (round-trip checks)."""
    nodes: dict[str, str] = {}
    edges: set[tuple[str, str]] = set()
    paths: dict[str, list[str]] = {}
    for line in text.splitlines():
        fields = line.split("\t")
        if fields[0] == "S":
            nodes[fields[1]] = fields[2]
        elif fields[0] == "L":
            edges.add((fields[1], fields[3]))
        elif fields[0] == "P":
            paths[fields[1]] = [s.rstrip("+-") for s in fields[2].split(",")]
    return nodes, edges, paths


def efg_paths(efg):
    """(row name, node ids) per row, from ``Efg.row_steps``."""
    return list(zip(efg.names, efg.row_steps([v for ids in efg.ids for v in ids])))


def seg_of(blocks, scheme="minmaxlen"):
    return Segmentation(blocks=blocks, score=max(e - s + 1 for s, e in blocks), scheme=scheme)


def test_fixture_e_graph(msa_e):
    efg = build_efg(msa_e, seg_of([(1, 1), (2, 3), (4, 4)]))
    labels = [[nd.label for nd in block] for block in efg.blocks]
    assert labels == [["A"], ["G"], ["C"]]
    assert efg.edges == [("b1_0", "b2_0"), ("b2_0", "b3_0")]
    assert efg_paths(efg) == [("r1", ["b1_0", "b2_0", "b3_0"]), ("r2", ["b1_0", "b2_0", "b3_0"])]
    node = efg.blocks[1][0]
    assert node.id == "b2_0" and node.rows == (1, 2)


def test_single_row_path_graph():
    msa = Msa.from_rows(["ACGT"])
    efg = assert_graph_matches_reference(msa, [(1, 2), (3, 4)])
    assert [len(b) for b in efg.blocks] == [1, 1]
    assert "".join(block[0].label for block in efg.blocks) == "ACGT"
    assert len(efg.edges) == 1
    msa = Msa.from_rows(["AC-GT"])
    for blocks in ([(1, 5)], [(1, 1), (2, 4), (5, 5)]):
        assert assert_graph_matches_reference(msa, blocks).ranks.tolist() == [[0]] * len(blocks)
    assert assert_graph_matches_reference(msa, [(1, 2), (3, 3), (4, 5)]) is None


def test_identical_rows_collapse():
    msa = Msa.from_rows(["ACA", "ACA", "ACA"])
    efg = build_efg(msa, seg_of([(1, 3)]))
    assert efg.n_nodes == 1 and efg.edges == []
    assert efg.blocks[0][0].rows == (1, 2, 3)


def test_variable_length_labels_within_block():
    msa = Msa.from_rows(["AG-C", "AGGC"])
    efg = build_efg(msa, seg_of([(1, 4)]))
    assert sorted(len(nd.label) for nd in efg.blocks[0]) == [3, 4]


def test_improper_segmentation_rejected(msa_e):
    with pytest.raises(EfgError, match="cover"):
        build_efg(msa_e, seg_of([(1, 3)]))
    with pytest.raises(EfgError, match="consecutive"):
        build_efg(msa_e, Segmentation(blocks=[(1, 2), (4, 4)], score=1, scheme="x"))


def test_empty_spell_rejected(msa_e):
    with pytest.raises(EfgError, match="row 1"):
        build_efg(msa_e, seg_of([(1, 2), (3, 3), (4, 4)]))  # row 1 is "-" in [3..3]


def test_every_row_spelled_by_its_path():
    for seed in range(25):
        rng = random.Random(seed)
        msa = O.generate_msa(O.RandomMsaSpec(seed=seed + 30, m=4, n=16))
        run = E.run_pipeline(msa, "minmaxlen")
        if run.table.score() is None:
            continue
        seg = run.segmentation()
        efg = build_efg(msa, seg)
        nodes = {nd.id: nd for block in efg.blocks for nd in block}
        for name, ids in efg_paths(efg):
            i = msa.names.index(name) + 1
            assert "".join(nodes[v].label for v in ids) == spell(msa, i, 1, msa.n)


def test_gfa_export_shape(msa_e):
    efg = build_efg(msa_e, seg_of([(1, 1), (2, 3), (4, 4)]))
    gfa = export_gfa(efg)
    lines = gfa.strip().split("\n")
    assert lines[0] == "H\tVN:Z:1.0"
    assert sum(l.startswith("S\t") for l in lines) == 3
    assert sum(l.startswith("L\t") for l in lines) == 2
    assert sum(l.startswith("P\t") for l in lines) == 2


def test_gfa_single_block_has_no_links():
    msa = Msa.from_rows(["ACA", "ACA"])
    gfa = export_gfa(build_efg(msa, seg_of([(1, 3)])))
    assert "L\t" not in gfa and "S\t" in gfa


def test_gfa_roundtrip(msa_e):
    efg = build_efg(msa_e, seg_of([(1, 1), (2, 3), (4, 4)]))
    nodes, edges, paths = parse_gfa(export_gfa(efg))
    assert nodes == {nd.id: nd.label for block in efg.blocks for nd in block}
    assert edges == set(efg.edges)
    assert paths == {name.split()[0]: ids for name, ids in efg_paths(efg)}


def test_gfa_path_name_uses_first_header_token():
    msa = E.parse_aligned_fasta(">seq one extra words\nAC\n>seq_two\nAC\n")
    gfa = export_gfa(build_efg(msa, seg_of([(1, 2)])))
    assert "P\tseq\t" in gfa and "P\tseq_two\t" in gfa
    assert "extra words" not in gfa


def test_export_determinism(msa_e):
    seg = seg_of([(1, 1), (2, 3), (4, 4)])
    a, b = build_efg(msa_e, seg), build_efg(msa_e, seg)
    assert export_gfa(a) == export_gfa(b)
    assert export_dot(a) == export_dot(b)
    assert export_json(a) == export_json(b)


def test_dot_and_json_shape(msa_e):
    efg = build_efg(msa_e, seg_of([(1, 1), (2, 3), (4, 4)]))
    dot = export_dot(efg)
    assert dot.count("subgraph cluster_") == 3
    assert '"b1_0" -> "b2_0";' in dot
    doc = json.loads(export_json(efg))
    assert [b["index"] for b in doc["blocks"]] == [1, 2, 3]
    assert doc["edges"] == [["b1_0", "b2_0"], ["b2_0", "b3_0"]]


# -- loop references --------------------------------------------------------------
# The graph build with two validating spell() calls per (row, block), the
# exporters as they were written before escaping and direct JSON output, and
# the JSON export through json.dumps. The production versions must match them.


@dataclass
class ReferenceGraph:
    blocks: list
    edges: list
    paths: list
    intervals: list


def reference_build_efg(msa, seg):
    if not seg.blocks or seg.blocks[0][0] != 1 or seg.blocks[-1][1] != msa.n:
        raise EfgError(f"segmentation does not cover [1..{msa.n}]")
    for (s1, e1), (s2, _) in zip(seg.blocks, seg.blocks[1:]):
        if s2 != e1 + 1:
            raise EfgError("segmentation intervals are not consecutive")
    blocks = []
    row_node_ids = [[] for _ in msa.rows]
    for k, (x, y) in enumerate(seg.blocks, start=1):
        by_label = {}
        for i in range(1, msa.m + 1):
            t = spell(msa, i, x, y)
            if not t:
                raise EfgError(f"row {i} spells the empty string in segment [{x}..{y}]")
            by_label.setdefault(t, []).append(i)
        nodes = [
            EfgNode(id=f"b{k}_{r}", block=k, rank=r, label=label, rows=tuple(by_label[label]))
            for r, label in enumerate(sorted(by_label))
        ]
        blocks.append(nodes)
        id_of = {nd.label: nd.id for nd in nodes}
        for i in range(1, msa.m + 1):
            row_node_ids[i - 1].append(id_of[spell(msa, i, x, y)])
    edges = sorted(
        {(path[k], path[k + 1]) for path in row_node_ids for k in range(len(path) - 1)}
    )
    paths = [(name, ids) for name, ids in zip(msa.names, row_node_ids)]
    return ReferenceGraph(blocks=blocks, edges=edges, paths=paths, intervals=list(seg.blocks))


def reference_export_gfa(efg):
    lines = ["H\tVN:Z:1.0"]
    for block in efg.blocks:
        for nd in block:
            lines.append(f"S\t{nd.id}\t{nd.label}\tbl:i:{nd.block}")
    for a, b in efg.edges:
        lines.append(f"L\t{a}\t+\t{b}\t+\t0M")
    for name, ids in efg.paths:
        name = name.split()[0] if name.split() else name
        lines.append(f"P\t{name}\t{','.join(i + '+' for i in ids)}\t*")
    return "\n".join(lines) + "\n"


def reference_export_dot(efg):
    lines = ["digraph efg {", "  rankdir=LR;", "  node [shape=box];"]
    for k, block in enumerate(efg.blocks, start=1):
        x, y = efg.intervals[k - 1]
        lines.append(f"  subgraph cluster_{k} {{")
        lines.append(f'    label="block {k} [{x}..{y}]";')
        for nd in block:
            lines.append(f'    "{nd.id}" [label="{nd.label}"];')
        lines.append("  }")
    for a, b in efg.edges:
        lines.append(f'  "{a}" -> "{b}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def reference_export_json(efg):
    doc = {
        "blocks": [
            {
                "index": k,
                "start": efg.intervals[k - 1][0],
                "end": efg.intervals[k - 1][1],
                "nodes": [
                    {"id": nd.id, "label": nd.label, "rows": list(nd.rows)}
                    for nd in block
                ],
            }
            for k, block in enumerate(efg.blocks, start=1)
        ],
        "edges": [list(e) for e in efg.edges],
        "paths": [{"name": name, "nodes": ids} for name, ids in efg.paths],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def assert_graph_matches_reference(msa, blocks):
    seg = seg_of(blocks)
    try:
        want = reference_build_efg(msa, seg)
    except EfgError as exc:
        with pytest.raises(EfgError) as got:
            build_efg(msa, seg)
        assert str(got.value) == str(exc)
        return None
    efg = build_efg(msa, seg)
    assert efg.blocks == want.blocks
    assert efg.edges == want.edges
    assert efg_paths(efg) == want.paths
    assert efg.intervals == want.intervals
    assert export_gfa(efg) == reference_export_gfa(want)
    assert export_dot(efg) == reference_export_dot(want)
    assert export_json(efg) == reference_export_json(want)
    return efg


def segmentations(msa, rng):
    """One block, both DP optima (maxblocks has the most blocks) and random cuts."""
    yield [(1, msa.n)]
    ext = E.run_pipeline(msa).ext
    for table in (E.score(ext, "maxblocks"), E.score(ext, "minmaxlen")):
        if table.score() is not None:
            yield E.traceback(table, ext).blocks
    cuts = sorted(rng.sample(range(1, msa.n), min(msa.n - 1, rng.randint(0, 6))))
    yield [(a + 1, b) for a, b in zip([0] + cuts, cuts + [msa.n])]


def test_build_and_export_match_reference_random():
    for seed in range(120):
        rng = random.Random(seed * 11 + 4)
        spec = O.RandomMsaSpec(
            seed=seed + 7000, m=rng.randint(1, 8), n=rng.randint(1, 50),
            sigma=rng.choice([1, 2, 4]), gap_prob=rng.choice([0.0, 0.2, 0.5]),
        )
        msa = O.generate_msa(spec)
        for blocks in segmentations(msa, rng):
            assert_graph_matches_reference(msa, blocks)


def test_build_and_export_match_reference_near_identical():
    for seed in range(40):
        rng = random.Random(seed)
        msa = near_identical_msa(
            seed + 7200, rng.randint(2, 12), rng.randint(1, 200),
            snp_rate=rng.choice([0.0, 0.02, 0.1]), gap_rate=rng.choice([0.0, 0.05, 0.3]),
        )
        for blocks in segmentations(msa, rng):
            assert_graph_matches_reference(msa, blocks)


def test_build_and_export_match_reference_single_block():
    msa = Msa.from_rows(["AC-GT", "ACCGT", "A-CGT"])
    efg = assert_graph_matches_reference(msa, [(1, 5)])
    assert efg.edges == [] and '"edges": [],' in export_json(efg)


def test_build_and_export_match_reference_large():
    rng = random.Random(7300)
    for msa in (O.generate_msa(O.RandomMsaSpec(seed=7300, m=16, n=2000)),
                near_identical_msa(7301, 16, 2000, snp_rate=0.005, gap_rate=0.01)):
        for blocks in segmentations(msa, rng):
            assert_graph_matches_reference(msa, blocks)


def test_edges_sorted_by_id_string():
    # the first column holds 11 distinct symbols and every column is its own
    # block, so there are blocks b10 and b11 and a node of rank 10 in block 1
    rng = random.Random(7400)
    rows = [a + "".join(rng.choice("ACGT") for _ in range(10)) for a in "ABCDEFGHIJK"]
    msa = Msa.from_rows(rows)
    efg = assert_graph_matches_reference(msa, [(x, x) for x in range(1, 12)])
    assert "b1_10" in efg.ids[0] and efg.b == 11
    links = [tuple(line.split("\t")[1:4:2]) for line in export_gfa(efg).splitlines()
             if line.startswith("L\t")]
    assert links == sorted(links) == efg.edges
    # the b10 -> b11 links come first: "b10_" sorts before "b1_" ("0" < "_")
    sources = list(dict.fromkeys(a.split("_")[0] for a, _ in links))
    assert sources == ["b10"] + [f"b{k}" for k in range(1, 10)]
    assert all(b.startswith("b11_") for a, b in links if a.startswith("b10_"))


def test_differing_gapped_slices_one_label():
    # every row's gapped slice differs from row 1's, yet all spell "AC"
    efg = assert_graph_matches_reference(Msa.from_rows(["A-C", "AC-", "-AC"]), [(1, 3)])
    assert efg.labels == [["AC"]] and efg.blocks[0][0].rows == (1, 2, 3)


def test_empty_spell_names_first_listed_row():
    # row 1 spells "C" in [2..2], rows 2 and 3 spell ""
    msa = Msa.from_rows(["AC", "A-", "A-"])
    assert assert_graph_matches_reference(msa, [(1, 1), (2, 2)]) is None
    with pytest.raises(EfgError, match=r"^row 2 spells the empty string in segment \[2\.\.2\]$"):
        build_efg(msa, seg_of([(1, 1), (2, 2)]))


def test_row_1_empty_in_a_later_block():
    msa = Msa.from_rows(["AC-G", "ACTG", "A-TG"])
    assert assert_graph_matches_reference(msa, [(1, 2), (3, 3), (4, 4)]) is None
    with pytest.raises(EfgError, match=r"^row 1 spells the empty string in segment \[3\.\.3\]$"):
        build_efg(msa, seg_of([(1, 2), (3, 3), (4, 4)]))


@pytest.mark.parametrize("middle", ["G-", "C-"])
def test_row_1_alone_differs_in_middle_block(middle):
    # rows 2..6 hold "-G" in [3..4]; row 1 holds a different gapped slice
    # there, spelling the same label ("G-") or another one ("C-")
    rows = ["AA" + middle + "TT"] + ["AA-GTT"] * 5
    efg = assert_graph_matches_reference(Msa.from_rows(rows), [(1, 2), (3, 4), (5, 6)])
    assert efg.labels[0] == ["AA"] and efg.labels[2] == ["TT"]
    if middle == "G-":
        assert efg.labels[1] == ["G"] and efg.ranks[1].tolist() == [0] * 6
    else:
        assert efg.labels[1] == ["C", "G"] and efg.ranks[1].tolist() == [0] + [1] * 5
    assert efg.ranks[0].tolist() == efg.ranks[2].tolist() == [0] * 6


def test_edge_code_limit_checked(monkeypatch, msa_e, tmp_path, capsys):
    from efgseg import cli

    seg = seg_of([(1, 1), (2, 3), (4, 4)])  # b = 3 blocks of one node: b * w^2 = 3
    monkeypatch.setattr(efg_module, "EDGE_CODE_LIMIT", 3)
    with pytest.raises(EfgError, match="edge codes need b \\* w\\^2 below 3"):
        build_efg(msa_e, seg)
    path = tmp_path / "e.fa"
    path.write_text(">r1\nAG-C\n>r2\nA-GC\n")
    assert cli.main(["export", str(path)]) == 1
    assert "edge codes" in capsys.readouterr().err
    monkeypatch.setattr(efg_module, "EDGE_CODE_LIMIT", 4)
    assert build_efg(msa_e, seg).edges == [("b1_0", "b2_0"), ("b2_0", "b3_0")]


def test_gfa_and_dot_build_no_node_records(msa_e):
    efg = build_efg(msa_e, seg_of([(1, 1), (2, 3), (4, 4)]))
    export_gfa(efg)
    export_dot(efg)
    assert "blocks" not in vars(efg)
    assert efg.blocks[1][0].id == "b2_0"
    assert "blocks" in vars(efg)


def test_empty_interval_rejected(msa_e):
    with pytest.raises(EfgError, match="empty interval"):
        build_efg(msa_e, Segmentation(blocks=[(1, 2), (3, 1), (2, 4)], score=1, scheme="x"))


# -- properties ---------------------------------------------------------------------

JSON_TEXT = st.text(
    st.one_of(st.sampled_from(list('"\\\t\n\r\x00\x1f\x7fé\u2028/')), st.characters()),
    max_size=6,
)
# labels GFA 1 can hold, so that GFA export gets past its label check
GFA_TEXT = st.from_regex(r"[A-Za-z=.]{1,6}", fullmatch=True)


@st.composite
def graphs(draw):
    """Efg values of any shape, with arbitrary label, id and name strings.
    The labels of a graph are either all GFA sequences or a mix of those and
    arbitrary text. Each column holds a node rank for every one of the m
    rows, so node rows are always within 1..m."""
    m = draw(st.integers(0, 3))
    names = draw(st.lists(JSON_TEXT, min_size=m, max_size=m))
    label_text = draw(st.sampled_from([GFA_TEXT, st.one_of(GFA_TEXT, JSON_TEXT)]))
    labels, ids, columns = [], [], []
    for _ in range(draw(st.integers(0, 3))):
        size = draw(st.integers(1 if m else 0, 3))
        labels.append(draw(st.lists(label_text, min_size=size, max_size=size)))
        ids.append(draw(st.lists(JSON_TEXT, min_size=size, max_size=size)))
        ranks = st.integers(0, size - 1) if size else st.nothing()
        columns.append(draw(st.lists(ranks, min_size=m, max_size=m)))
    edges = draw(st.lists(st.tuples(JSON_TEXT, JSON_TEXT), max_size=3))
    ends = st.tuples(st.integers(-5, 10**9), st.integers(-5, 10**9))
    intervals = draw(st.lists(ends, min_size=len(labels), max_size=len(labels)))
    ranks = np.array(columns, np.int64).reshape(len(labels), m)
    return Efg(labels=labels, ids=ids, ranks=ranks, names=names, edges=edges,
               intervals=intervals)


@settings(deadline=None)
@given(graphs())
def test_export_json_matches_json_dumps(efg):
    want = ReferenceGraph(efg.blocks, efg.edges, efg_paths(efg), efg.intervals)
    assert export_json(efg) == reference_export_json(want)


@settings(deadline=None)
@given(graphs())
def test_blocks_and_paths_follow_columns(efg):
    for k, (labels, ids, col) in enumerate(zip(efg.labels, efg.ids, efg.ranks.tolist()), start=1):
        assert [(nd.id, nd.block, nd.rank, nd.label) for nd in efg.blocks[k - 1]] == [
            (v, k, r, t) for r, (v, t) in enumerate(zip(ids, labels))
        ]
        for nd in efg.blocks[k - 1]:
            assert nd.rows == tuple(i for i, r in enumerate(col, start=1) if r == nd.rank)
    assert efg_paths(efg) == [
        (name, [ids[col[i]] for ids, col in zip(efg.ids, efg.ranks.tolist())])
        for i, name in enumerate(efg.names)
    ]
    assert efg.b == len(efg.blocks) and efg.n_nodes == sum(map(len, efg.blocks))


@settings(deadline=None)
@given(st.data())
def test_gfa_roundtrip_property(data):
    m = data.draw(st.integers(1, 5))
    n = data.draw(st.integers(1, 12))
    row = st.text("ACGT-", min_size=n, max_size=n).filter(lambda r: r.strip("-"))
    rows = data.draw(st.lists(row, min_size=m, max_size=m))
    token = st.text(st.characters(min_codepoint=33, max_codepoint=126), min_size=1, max_size=4)
    tokens = data.draw(st.lists(token, min_size=m, max_size=m, unique=True))
    tails = data.draw(st.lists(st.sampled_from(["", " x", "\tlong header"]), min_size=m, max_size=m))
    msa = E.parse_aligned_fasta("".join(f">{t}{tail}\n{r}\n" for t, tail, r in zip(tokens, tails, rows)))
    run = E.run_pipeline(msa, "minmaxlen")
    segs = [[(1, n)]] + ([run.segmentation().blocks] if run.table.score() is not None else [])
    # GFA 1 names do not start with '*' or '='
    forbidden = next((i for i, t in enumerate(tokens, start=1) if t[0] in "*="), None)
    for blocks in segs:
        efg = build_efg(msa, seg_of(blocks))
        if forbidden:
            with pytest.raises(EfgError, match=f"^row {forbidden} has the GFA path name"):
                export_gfa(efg)
            continue
        nodes, edges, paths = parse_gfa(export_gfa(efg))
        assert nodes == {nd.id: nd.label for block in efg.blocks for nd in block}
        assert edges == set(efg.edges)
        assert paths == {name.split()[0]: ids for name, ids in efg_paths(efg)}
        for t, r in zip(tokens, rows):
            assert "".join(nodes[v] for v in paths[t]) == r.replace("-", "")


# -- the loop references of the rank-matrix build and writers ------------------


def gfa_name_fault(names):
    """The row (1-based) of the first path name that GFA 1 forbids or an
    earlier row already took, by a per-character rule, or None."""
    seen = set()
    for row, name in enumerate(names, start=1):
        token = name.split()[0] if name.split() else name
        allowed = token and token[0] not in "*=" and all(33 <= ord(c) <= 126 for c in token)
        if not allowed or token in seen:
            return row
        seen.add(token)
    return None


def assert_writers_match_loop_reference(efg, want):
    assert export_json(efg) == loop_reference.export_json(want)
    row = gfa_name_fault(efg.names)
    if row is not None:
        with pytest.raises(EfgError, match=f"(^row {row} has)|( and {row} share)"):
            export_gfa(efg)
        return
    try:
        text = loop_reference.export_gfa(want)
    except EfgError as exc:  # a label that GFA 1 cannot hold
        with pytest.raises(EfgError) as got:
            export_gfa(efg)
        assert str(got.value) == str(exc)
        return
    assert export_gfa(efg) == text


@st.composite
def segmented_msas(draw):
    m = draw(st.integers(1, 5))
    n = draw(st.integers(1, 10))
    row = st.text("AC-", min_size=n, max_size=n).filter(lambda r: r.strip("-"))
    msa = Msa.from_rows(draw(st.lists(row, min_size=m, max_size=m)))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=n - 1)) if n > 1 else [])
    return msa, [(a + 1, b) for a, b in zip([0, *cuts], [*cuts, n])]


@settings(deadline=None, max_examples=300)
@given(segmented_msas())
def test_build_and_writers_match_loop_reference(case):
    msa, blocks = case
    seg = seg_of(blocks)
    try:
        want = loop_reference.build_efg(msa, seg)
    except EfgError as exc:
        with pytest.raises(EfgError) as got:
            build_efg(msa, seg)
        assert str(got.value) == str(exc)
        return
    efg = build_efg(msa, seg)
    assert (efg.labels, efg.ids, efg.ranks.tolist(), efg.names, efg.edges, efg.intervals) == (
        want.labels, want.ids, want.columns, want.names, want.edges, want.intervals
    )
    assert efg.ranks.shape == (efg.b, msa.m)
    assert_writers_match_loop_reference(efg, want)


def as_list_efg(efg):
    return loop_reference.ListEfg(labels=efg.labels, ids=efg.ids, columns=efg.ranks.tolist(),
                                  names=efg.names, edges=efg.edges, intervals=efg.intervals)


@settings(deadline=None)
@given(graphs())
def test_writers_match_loop_reference_on_any_graph(efg):
    assert_writers_match_loop_reference(efg, as_list_efg(efg))


@pytest.mark.parametrize("labels,ranks,names", [
    ([["A"]], [[0]], ["r1"]),  # m = 1, b = 1: one block of one node, no edges
    ([["A", "C"]], [[1, 0, 1]], ["r1", "r2", "r3"]),  # b = 1, no edges
    ([[]], np.zeros((1, 0)), []),  # no rows: an empty node list and no paths
    ([[], []], np.zeros((2, 0)), []),
    ([], np.zeros((0, 2)), ["r1", "r2"]),  # no blocks: empty paths
    ([], np.zeros((0, 0)), []),
    ([["A=c.T"]], [[0]], ["r1"]),  # GFA 1 sequences hold letters, '=' and '.'
    # labels GFA 1 cannot hold: empty (build_efg never makes one), not
    # ASCII, or with another symbol
    ([["A", "C"], [""]], [[1], [0]], ["r1"]),
    ([["A"], ["C\u00e9"]], [[0], [0]], ["r1"]),
    ([["A", "C", "G?"]], [[2]], ["r1"]),
])
def test_writers_match_loop_reference_on_small_graphs(labels, ranks, names):
    ids = [[f"b{k}_{r}" for r in range(len(block))] for k, block in enumerate(labels, start=1)]
    efg = Efg(labels=labels, ids=ids, ranks=np.array(ranks, np.int64), names=names, edges=[],
              intervals=[(k, k) for k in range(1, len(labels) + 1)])
    want = as_list_efg(efg)
    assert_writers_match_loop_reference(efg, want)
    assert efg_paths(efg) == [(name, list(steps)) for name, steps in zip(names, want.row_steps(ids))]
    assert [[nd.rows for nd in block] for block in efg.blocks] == [
        [tuple(rows) for rows in block] for block in want.node_rows(range(1, len(names) + 1))
    ]


def test_build_efg_leaves_blocks_unbuilt(msa_e):
    efg = build_efg(msa_e, seg_of([(1, 1), (2, 3), (4, 4)]))
    assert "blocks" not in vars(efg)


@pytest.mark.parametrize("header", ["*r1", "=r2 x", "a\x01b", "\x7f"])
def test_export_gfa_rejects_names_gfa_forbids(header):
    msa = Msa.from_rows(["AC", "AG"], names=["ok", header])
    efg = build_efg(msa, seg_of([(1, 2)]))
    token = header.split()[0]
    with pytest.raises(EfgError, match=f"^row 2 has the GFA path name {re.escape(repr(token))}"):
        export_gfa(efg)
    assert json.loads(export_json(efg))["paths"][1]["name"] == header


@pytest.mark.parametrize("rows,blocks,node,label", [
    (["AC*T", "AC1T"], [(1, 2), (3, 3), (4, 4)], "b2_0", "*"),  # '*' means "not stored"
    (["AC*T", "AC1T"], [(1, 4)], "b1_0", "AC*T"),
    (["ACGT", "AC1T"], [(1, 2), (3, 4)], "b2_0", "1T"),
    (["A~C", "AGC"], [(1, 3)], "b1_1", "A~C"),
])
def test_export_gfa_rejects_labels_gfa_cannot_hold(rows, blocks, node, label):
    # GFA 1 sequences match [A-Za-z=.]+; DOT and JSON keep any label
    efg = build_efg(Msa.from_rows(rows), seg_of(blocks))
    with pytest.raises(EfgError, match=f"^node {node} has the label {re.escape(repr(label))}, "):
        export_gfa(efg)
    assert label in [nd["label"] for b in json.loads(export_json(efg))["blocks"] for nd in b["nodes"]]
    assert f'"{node}" [label="{label}"];' in export_dot(efg)
