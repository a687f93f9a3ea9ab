"""Elastic founder graph induced by a segmentation: build, validate, export.

Nodes are the distinct gaps-removed row strings per segment, identified by
(block, label-lexicographic rank); edges are row-witnessed pairs between
consecutive blocks. Exports (GFA 1, DOT, JSON) are byte-deterministic for
identical inputs; GFA is the stability contract.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import cached_property
from json.encoder import encode_basestring_ascii

from .dp import Segmentation
from .msa import GAP, GapIndex, Msa, spell


class EfgError(ValueError):
    """Raised for improper segmentations or malformed graph inputs."""


@dataclass(frozen=True)
class EfgNode:
    id: str
    block: int  # 1-based block index
    rank: int  # 0-based label-lexicographic rank within the block
    label: str
    rows: tuple[int, ...]  # 1-based source rows


@dataclass
class Efg:
    """The graph as per-block columns.

    Node r of block k (1-based) has label ``labels[k - 1][r]`` and id
    ``ids[k - 1][r]``; row i passes through the node of rank
    ``columns[k - 1][i - 1]``. ``blocks`` builds one ``EfgNode`` per node on
    first access; no export asks for it.
    """

    labels: list[list[str]]  # per block, its distinct labels in sorted order
    ids: list[list[str]]  # per block, the id of each node, by rank
    columns: list[list[int]]  # per block, the node rank of each row
    names: list[str]  # row names
    edges: list[tuple[str, str]]
    intervals: list[tuple[int, int]]  # column interval per block

    @property
    def b(self) -> int:
        return len(self.labels)

    @property
    def n_nodes(self) -> int:
        return sum(map(len, self.labels))

    @property
    def paths(self) -> list[tuple[str, list[str]]]:
        """(row name, node ids) per row."""
        return [(name, list(steps)) for name, steps in zip(self.names, self.row_steps(self.ids))]

    def row_steps(self, node_values: list[list]) -> Iterable[tuple]:
        """Per row, one tuple holding node_values[k - 1][r] for the node r the
        row passes in each block k."""
        if not self.columns:
            return [()] * len(self.names)
        return zip(*[list(map(v.__getitem__, col)) for v, col in zip(node_values, self.columns)])

    def node_rows(self, row_values: Sequence) -> list[list[list]]:
        """Per block and node, row_values[i - 1] for each row i through the
        node, in row order."""
        out = []
        for labels, col in zip(self.labels, self.columns):
            rows: list[list] = [[] for _ in labels]
            for v, r in zip(row_values, col):
                rows[r].append(v)
            out.append(rows)
        return out

    @cached_property
    def blocks(self) -> list[list[EfgNode]]:
        node_rows = self.node_rows(range(1, len(self.names) + 1))
        blocks = []
        for k, (ids, labels, rows) in enumerate(zip(self.ids, self.labels, node_rows), start=1):
            blocks.append([EfgNode(id=v, block=k, rank=r, label=t, rows=tuple(rs))
                           for r, (v, t, rs) in enumerate(zip(ids, labels, rows))])
        return blocks


def build_efg(msa: Msa, seg: Segmentation) -> Efg:
    """Founder graph induced by the segmentation (must spell every row)."""
    if not seg.blocks or seg.blocks[0][0] != 1 or seg.blocks[-1][1] != msa.n:
        raise EfgError(f"segmentation does not cover [1..{msa.n}]")
    for (s1, e1), (s2, _) in zip(seg.blocks, seg.blocks[1:]):
        if s2 != e1 + 1:
            raise EfgError("segmentation intervals are not consecutive")
    if any(x > y for x, y in seg.blocks):
        raise EfgError("segmentation has an empty interval")
    labels, ids, columns = [], [], []
    for k, (x, y) in enumerate(seg.blocks, start=1):
        # the blocks cover [1..n] in order, so the slices need no range check
        spelled = [row[x - 1 : y].replace(GAP, "") for row in msa.rows]
        distinct = sorted(set(spelled))
        if not distinct[0]:  # "" sorts first
            raise EfgError(
                f"row {spelled.index('') + 1} spells the empty string in segment [{x}..{y}]"
            )
        rank = {t: r for r, t in enumerate(distinct)}
        labels.append(distinct)
        ids.append([f"b{k}_{r}" for r in range(len(distinct))])
        columns.append(list(map(rank.__getitem__, spelled)))
    # sorted as strings, so b10_0 comes before b1_0
    edges = sorted(
        (ids_a[a], ids_b[b])
        for ids_a, ids_b, col_a, col_b in zip(ids, ids[1:], columns, columns[1:])
        for a, b in set(zip(col_a, col_b))
    )
    return Efg(labels=labels, ids=ids, columns=columns, names=list(msa.names),
               edges=edges, intervals=list(seg.blocks))


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
    for row, name in enumerate(efg.names, start=1):
        token = _path_name(name)
        if token in seen:
            raise EfgError(f"rows {seen[token]} and {row} share the GFA path name {token!r}")
        seen[token] = row
    lines = ["H\tVN:Z:1.0"]
    for k, (ids, labels) in enumerate(zip(efg.ids, efg.labels), start=1):
        lines.extend(f"S\t{v}\t{t}\tbl:i:{k}" for v, t in zip(ids, labels))
    lines.extend(f"L\t{a}\t+\t{b}\t+\t0M" for a, b in efg.edges)
    for name, ids in zip(efg.names, efg.row_steps(efg.ids)):
        steps = "+,".join(ids) + "+" if ids else ""
        lines.append(f"P\t{_path_name(name)}\t{steps}\t*")
    return "\n".join(lines) + "\n"


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def export_dot(efg: Efg) -> str:
    """DOT text; node labels escape backslash and double quote."""
    lines = ["digraph efg {", "  rankdir=LR;", "  node [shape=box];"]
    for k, (ids, labels, (x, y)) in enumerate(zip(efg.ids, efg.labels, efg.intervals), start=1):
        lines.append(f"  subgraph cluster_{k} {{")
        lines.append(f'    label="block {k} [{x}..{y}]";')
        lines.extend(f'    "{v}" [label="{_dot_escape(t)}"];' for v, t in zip(ids, labels))
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
    encoded_ids = [list(map(enc, ids)) for ids in efg.ids]
    row_texts = [str(i) for i in range(1, len(efg.names) + 1)]
    blocks = []
    for k, (ids, labels, node_rows, (x, y)) in enumerate(
        zip(encoded_ids, efg.labels, efg.node_rows(row_texts), efg.intervals), start=1
    ):
        nodes = [
            f'{{\n          "id": {v},\n          "label": {enc(t)},'
            f'\n          "rows": {_json_array(rows, " " * 10)}\n        }}'
            for v, t, rows in zip(ids, labels, node_rows)
        ]
        blocks.append(
            f'{{\n      "end": {y},\n      "index": {k},'
            f'\n      "nodes": {_json_array(nodes, " " * 6)},\n      "start": {x}\n    }}'
        )
    edges = [_json_array(list(map(enc, e)), "    ") for e in efg.edges]
    paths = [
        f'{{\n      "name": {enc(name)},'
        f'\n      "nodes": {_json_array(steps, " " * 6)}\n    }}'
        for name, steps in zip(efg.names, efg.row_steps(encoded_ids))
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
