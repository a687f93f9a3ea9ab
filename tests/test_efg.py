import json
import random
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import efgseg as E
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
    parse_gfa,
    validate_semi_repeat_free,
)
from efgseg.msa import Msa, spell
from tests.conftest import build_pipeline, near_identical_msa


def seg_of(blocks, scheme="minmaxlen"):
    return Segmentation(blocks=blocks, score=max(e - s + 1 for s, e in blocks), scheme=scheme)


def test_fixture_e_graph(msa_e):
    efg = build_efg(msa_e, seg_of([(1, 1), (2, 3), (4, 4)]))
    labels = [[nd.label for nd in block] for block in efg.blocks]
    assert labels == [["A"], ["G"], ["C"]]
    assert efg.edges == [("b1_0", "b2_0"), ("b2_0", "b3_0")]
    assert efg.paths == [("r1", ["b1_0", "b2_0", "b3_0"]), ("r2", ["b1_0", "b2_0", "b3_0"])]
    node = efg.blocks[1][0]
    assert node.id == "b2_0" and node.rows == (1, 2)


def test_single_row_path_graph():
    msa = Msa.from_rows(["ACGT"])
    efg = build_efg(msa, seg_of([(1, 2), (3, 4)]))
    assert [len(b) for b in efg.blocks] == [1, 1]
    assert "".join(block[0].label for block in efg.blocks) == "ACGT"
    assert len(efg.edges) == 1


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
        _, _, ext = build_pipeline(msa)
        table = E.score_min_max_length(ext.pairs_by_f(), msa.n)
        if table.score() is None:
            continue
        seg = E.traceback(table, ext)
        efg = build_efg(msa, seg)
        nodes = {nd.id: nd for block in efg.blocks for nd in block}
        for name, ids in efg.paths:
            i = msa.names.index(name) + 1
            assert "".join(nodes[v].label for v in ids) == spell(msa, i, 1, msa.n)


def test_validator_fixture_e(msa_e):
    report = validate_semi_repeat_free(msa_e, seg_of([(1, 1), (2, 3), (4, 4)]))
    assert report.ok


def test_validator_flags_periodic_columns(msa_aaa):
    report = validate_semi_repeat_free(msa_aaa, seg_of([(1, 1), (2, 2), (3, 3)]))
    assert not report.ok
    first = report.violations[0]
    assert first.segment == (1, 1)
    assert first.position in (2, 3)


def test_validator_distinct_blocks_single_row():
    msa = Msa.from_rows(["ABCDEF"])
    report = validate_semi_repeat_free(msa, seg_of([(1, 2), (3, 4), (5, 6)]))
    assert report.ok


def test_validator_agrees_with_graph_oracle():
    # segment-level verdicts and the bounded graph-level check must agree
    for seed in range(40):
        rng = random.Random(seed * 7)
        msa = O.generate_msa(O.RandomMsaSpec(seed=seed + 400, m=3, n=10, sigma=2))
        cuts = sorted(rng.sample(range(1, msa.n), rng.randint(0, 3)))
        blocks = []
        prev = 1
        for c in cuts + [msa.n]:
            blocks.append((prev, c))
            prev = c + 1
        if any(not spell(msa, i, a, b) for a, b in blocks for i in range(1, msa.m + 1)):
            continue
        seg = seg_of(blocks)
        efg = build_efg(msa, seg)
        total = sum(len(nd.label) for block in efg.blocks for nd in block)
        assert validate_semi_repeat_free(msa, seg).ok == O.oracle_efg_semi_repeat_free(efg, total)


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
    assert paths == {name.split()[0]: ids for name, ids in efg.paths}


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
    assert efg.paths == want.paths
    assert efg.intervals == want.intervals
    assert export_gfa(efg) == reference_export_gfa(want)
    assert export_dot(efg) == reference_export_dot(want)
    assert export_json(efg) == reference_export_json(want)
    return efg


def segmentations(msa, rng):
    """One block, both DP optima (maxblocks has the most blocks) and random cuts."""
    yield [(1, msa.n)]
    _, _, ext = build_pipeline(msa)
    for table in (E.score_max_blocks(ext), E.score_min_max_length(ext.pairs_by_f(), msa.n)):
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


@st.composite
def graphs(draw):
    """Efg values of any shape, with arbitrary label, id and name strings.
    Each column holds a node rank for every one of the m rows, so node rows
    are always within 1..m."""
    m = draw(st.integers(0, 3))
    names = draw(st.lists(JSON_TEXT, min_size=m, max_size=m))
    labels, ids, columns = [], [], []
    for _ in range(draw(st.integers(0, 3))):
        size = draw(st.integers(1 if m else 0, 3))
        labels.append(draw(st.lists(JSON_TEXT, min_size=size, max_size=size)))
        ids.append(draw(st.lists(JSON_TEXT, min_size=size, max_size=size)))
        ranks = st.integers(0, size - 1) if size else st.nothing()
        columns.append(draw(st.lists(ranks, min_size=m, max_size=m)))
    edges = draw(st.lists(st.tuples(JSON_TEXT, JSON_TEXT), max_size=3))
    ends = st.tuples(st.integers(-5, 10**9), st.integers(-5, 10**9))
    intervals = draw(st.lists(ends, min_size=len(labels), max_size=len(labels)))
    return Efg(labels=labels, ids=ids, columns=columns, names=names, edges=edges,
               intervals=intervals)


@settings(deadline=None)
@given(graphs())
def test_export_json_matches_json_dumps(efg):
    assert export_json(efg) == reference_export_json(efg)


@settings(deadline=None)
@given(graphs())
def test_blocks_and_paths_follow_columns(efg):
    for k, (labels, ids, col) in enumerate(zip(efg.labels, efg.ids, efg.columns), start=1):
        assert [(nd.id, nd.block, nd.rank, nd.label) for nd in efg.blocks[k - 1]] == [
            (v, k, r, t) for r, (v, t) in enumerate(zip(ids, labels))
        ]
        for nd in efg.blocks[k - 1]:
            assert nd.rows == tuple(i for i, r in enumerate(col, start=1) if r == nd.rank)
    assert efg.paths == [
        (name, [ids[col[i]] for ids, col in zip(efg.ids, efg.columns)])
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
    _, _, ext = build_pipeline(msa)
    table = E.score_min_max_length(ext.pairs_by_f(), msa.n)
    segs = [[(1, n)]] + ([E.traceback(table, ext).blocks] if table.score() is not None else [])
    for blocks in segs:
        efg = build_efg(msa, seg_of(blocks))
        nodes, edges, paths = parse_gfa(export_gfa(efg))
        assert nodes == {nd.id: nd.label for block in efg.blocks for nd in block}
        assert edges == set(efg.edges)
        assert paths == {name.split()[0]: ids for name, ids in efg.paths}
        for t, r in zip(tokens, rows):
            assert "".join(nodes[v] for v in paths[t]) == r.replace("-", "")
