"""Elastic founder graph induced by a segmentation: build, validate, export.

Nodes are the distinct gaps-removed row strings per segment, identified by
(block, label-lexicographic rank); edges are row-witnessed pairs between
consecutive blocks. Exports (GFA 1, DOT, JSON) are byte-deterministic for
identical inputs; GFA is the stability contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

from .dp import Segmentation
from .msa import GAP, GapIndex, Msa, spell


class EfgError(ValueError):
    """Raised for improper segmentations or malformed graph inputs."""


@dataclass(frozen=True)
class EfgNode:
    block: int  # 1-based block index
    rank: int  # 0-based label-lexicographic rank within the block
    label: str
    rows: tuple[int, ...]  # 1-based source rows

    @property
    def id(self) -> str:
        return f"b{self.block}_{self.rank}"


@dataclass
class Efg:
    blocks: list[list[EfgNode]]
    edges: list[tuple[str, str]]
    paths: list[tuple[str, list[str]]]  # (row name, node ids)
    intervals: list[tuple[int, int]]  # column interval per block

    @property
    def b(self) -> int:
        return len(self.blocks)

    @property
    def n_nodes(self) -> int:
        return sum(len(block) for block in self.blocks)


def build_efg(msa: Msa, seg: Segmentation) -> Efg:
    """Founder graph induced by the segmentation (must spell every row)."""
    if not seg.blocks or seg.blocks[0][0] != 1 or seg.blocks[-1][1] != msa.n:
        raise EfgError(f"segmentation does not cover [1..{msa.n}]")
    for (s1, e1), (s2, _) in zip(seg.blocks, seg.blocks[1:]):
        if s2 != e1 + 1:
            raise EfgError("segmentation intervals are not consecutive")
    if any(x > y for x, y in seg.blocks):
        raise EfgError("segmentation has an empty interval")
    blocks: list[list[EfgNode]] = []
    columns: list[list[str]] = []  # per block, the node id of each row
    for k, (x, y) in enumerate(seg.blocks, start=1):
        # the blocks cover [1..n] in order, so the slices need no range check
        labels = [row[x - 1 : y].replace(GAP, "") for row in msa.rows]
        by_label: dict[str, list[int]] = {}
        for i, t in enumerate(labels, start=1):
            by_label.setdefault(t, []).append(i)
        if "" in by_label:
            raise EfgError(
                f"row {by_label[''][0]} spells the empty string in segment [{x}..{y}]"
            )
        nodes = [
            EfgNode(block=k, rank=r, label=label, rows=tuple(by_label[label]))
            for r, label in enumerate(sorted(by_label))
        ]
        blocks.append(nodes)
        id_of = {nd.label: nd.id for nd in nodes}
        columns.append([id_of[t] for t in labels])
    edges = sorted({e for a, b in zip(columns, columns[1:]) for e in zip(a, b)})
    paths = [(name, list(ids)) for name, ids in zip(msa.names, zip(*columns))]
    return Efg(blocks=blocks, edges=edges, paths=paths, intervals=list(seg.blocks))


# -- validation ---------------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    segment: tuple[int, int]
    row: int  # row whose segment string reoccurs
    in_row: int  # row containing the stray occurrence
    position: int  # 1-based gaps-removed position of that occurrence


@dataclass
class ValidationReport:
    violations: list[Violation]

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_semi_repeat_free(msa: Msa, seg: Segmentation) -> ValidationReport:
    """Per-segment check: each row's segment string may occur in any
    gaps-removed row only at that row's segment start position."""
    gi = GapIndex(msa)
    full = [spell(msa, i, 1, msa.n) for i in range(1, msa.m + 1)]
    violations: list[Violation] = []
    for x, y in seg.blocks:
        for i in range(1, msa.m + 1):
            t = spell(msa, i, x, y)
            if not t:
                violations.append(Violation(segment=(x, y), row=i, in_row=i, position=0))
                continue
            for ip in range(1, msa.m + 1):
                req = gi.segment_start_pos(ip, x)
                hay = full[ip - 1]
                start = 0
                while True:
                    p = hay.find(t, start)
                    if p == -1:
                        break
                    if p + 1 != req:
                        violations.append(
                            Violation(segment=(x, y), row=i, in_row=ip, position=p + 1)
                        )
                    start = p + 1
    return ValidationReport(violations=violations)


# -- exports ------------------------------------------------------------------


def _path_name(name: str) -> str:
    # GFA fields are tab-separated; use the first whitespace token of the header
    return name.split()[0] if name.split() else name


def export_gfa(efg: Efg) -> str:
    """GFA 1 text; rows whose headers share a first token are rejected,
    because their paths would share one name."""
    seen: dict[str, int] = {}
    for row, (name, _) in enumerate(efg.paths, start=1):
        token = _path_name(name)
        if token in seen:
            raise EfgError(f"rows {seen[token]} and {row} share the GFA path name {token!r}")
        seen[token] = row
    lines = ["H\tVN:Z:1.0"]
    for block in efg.blocks:
        for nd in block:
            lines.append(f"S\t{nd.id}\t{nd.label}\tbl:i:{nd.block}")
    for a, b in efg.edges:
        lines.append(f"L\t{a}\t+\t{b}\t+\t0M")
    for name, ids in efg.paths:
        steps = "+,".join(ids) + "+" if ids else ""
        lines.append(f"P\t{_path_name(name)}\t{steps}\t*")
    return "\n".join(lines) + "\n"


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def export_dot(efg: Efg) -> str:
    """DOT text; node labels escape backslash and double quote."""
    lines = ["digraph efg {", "  rankdir=LR;", "  node [shape=box];"]
    for k, block in enumerate(efg.blocks, start=1):
        x, y = efg.intervals[k - 1]
        lines.append(f"  subgraph cluster_{k} {{")
        lines.append(f'    label="block {k} [{x}..{y}]";')
        for nd in block:
            lines.append(f'    "{nd.id}" [label="{_dot_escape(nd.label)}"];')
        lines.append("  }")
    for a, b in efg.edges:
        lines.append(f'  "{a}" -> "{b}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _json_array(items: list[str], indent: str) -> str:
    """JSON array of already encoded items, laid out as json.dumps(indent=2)
    lays out an array whose opening line is indented by ``indent``."""
    if not items:
        return "[]"
    inner = indent + "  "
    return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"


def export_json(efg: Efg) -> str:
    """JSON text of the graph, byte-identical to json.dumps(doc, indent=2,
    sort_keys=True) + "\n" for the document

        {"blocks": [{"index", "start", "end",
                     "nodes": [{"id", "label", "rows"}]}],
         "edges": [[from, to]], "paths": [{"name", "nodes"}]}

    It is written directly: json.dumps with indent runs the pure-Python
    encoder. Strings go through the same C escaper json.dumps uses."""
    enc = encode_basestring_ascii
    blocks = []
    for k, block in enumerate(efg.blocks, start=1):
        x, y = efg.intervals[k - 1]
        nodes = [
            f'{{\n          "id": {enc(nd.id)},\n          "label": {enc(nd.label)},'
            f'\n          "rows": {_json_array(list(map(str, nd.rows)), " " * 10)}\n        }}'
            for nd in block
        ]
        blocks.append(
            f'{{\n      "end": {y},\n      "index": {k},'
            f'\n      "nodes": {_json_array(nodes, " " * 6)},\n      "start": {x}\n    }}'
        )
    edges = [_json_array(list(map(enc, e)), "    ") for e in efg.edges]
    paths = [
        f'{{\n      "name": {enc(name)},'
        f'\n      "nodes": {_json_array(list(map(enc, ids)), " " * 6)}\n    }}'
        for name, ids in efg.paths
    ]
    return (
        f'{{\n  "blocks": {_json_array(blocks, "  ")},\n  "edges": {_json_array(edges, "  ")},'
        f'\n  "paths": {_json_array(paths, "  ")}\n}}\n'
    )


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
