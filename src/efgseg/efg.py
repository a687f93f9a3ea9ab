"""Elastic founder graph induced by a segmentation: build and export.

Nodes are the distinct gaps-removed row strings per segment, identified by
(block, label-lexicographic rank); edges are row-witnessed pairs between
consecutive blocks. Exports (GFA 1, DOT, JSON) are byte-deterministic for
identical inputs; GFA is the stability contract.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from json.encoder import encode_basestring_ascii

import numpy as np

from .dp import Segmentation
from .msa import GAP, Msa


class EfgError(ValueError):
    """Raised for improper segmentations or malformed graph inputs."""


# build_efg packs each edge as an int64 code below b * w^2 (b blocks, w the
# most nodes in one block).
EDGE_CODE_LIMIT = 1 << 63


@dataclass(frozen=True)
class EfgNode:
    id: str
    block: int  # 1-based block index
    rank: int  # 0-based label-lexicographic rank within the block
    label: str
    rows: tuple[int, ...]  # 1-based source rows


@dataclass(eq=False)
class Efg:
    """The graph as per-block node lists and one rank matrix.

    Node r of block k (1-based) has label ``labels[k - 1][r]`` and id
    ``ids[k - 1][r]`` (``b<k>_<r>``); row i passes through the node of rank
    ``ranks[k - 1, i - 1]``. Counting the nodes of earlier blocks first,
    that node is node number ``sum(widths[:k - 1]) + r`` of the graph: the
    exporters render one string per node and index it with these numbers.
    ``blocks`` (one ``EfgNode`` per node) is built on first access; the
    benchmark in ``perfbench`` is its last program reader.
    """

    labels: list[list[str]]  # per block, its distinct labels in sorted order
    ids: list[list[str]]  # per block, the id of each node, by rank
    ranks: np.ndarray  # (b, m) int64: per block, the node rank of each row
    names: list[str]  # row names
    edges: list[tuple[str, str]]
    intervals: list[tuple[int, int]]  # column interval per block

    @property
    def b(self) -> int:
        return len(self.labels)

    @property
    def n_nodes(self) -> int:
        return sum(map(len, self.labels))

    def node_numbers(self) -> np.ndarray:
        """The (b, m) matrix of the node number of each row in each block."""
        offsets = np.cumsum([0, *map(len, self.labels)], dtype=np.int64)[:-1]
        return self.ranks + offsets[:, None]

    def row_steps(self, node_values: list) -> list[list]:
        """Per row, node_values[g] for the number g of each node on its path."""
        b, m = self.ranks.shape
        flat = _take(node_values, self.node_numbers().T.ravel())
        return [flat[i * b : (i + 1) * b] for i in range(m)]

    def node_rows(self) -> tuple[np.ndarray, list[int]]:
        """(rows, bounds): node number g holds the 0-based rows
        ``rows[bounds[g]:bounds[g + 1]]``, ascending."""
        numbers = self.node_numbers().ravel()
        # numbers[k * m + i] is row i's node in block k, and each block has
        # its own numbers, so a stable sort keeps each node's rows ascending
        rows = np.argsort(numbers, kind="stable") % self.ranks.shape[1]
        counts = np.bincount(numbers, minlength=self.n_nodes)
        return rows, [0, *np.cumsum(counts).tolist()]

    @cached_property
    def blocks(self) -> list[list[EfgNode]]:
        rows, bounds = self.node_rows()
        rows = (rows + 1).tolist()
        blocks, g = [], 0
        for k, (ids, labels) in enumerate(zip(self.ids, self.labels), start=1):
            blocks.append([EfgNode(id=v, block=k, rank=r, label=t,
                                   rows=tuple(rows[bounds[g + r] : bounds[g + r + 1]]))
                           for r, (v, t) in enumerate(zip(ids, labels))])
            g += len(ids)
        return blocks


def _take(values: list, index: np.ndarray) -> list:
    """[values[i] for i in index], gathered by numpy as object pointers."""
    array = np.empty(len(values), object)
    array[:] = values
    return array[index].tolist()


def build_efg(msa: Msa, seg: Segmentation) -> Efg:
    """Founder graph induced by the segmentation (must spell every row).

    In each block, row 1 and the rows whose gapped slice differs from row
    1's are listed and spelled: equal gapped slices spell equal labels, so
    every unlisted row takes row 1's rank, the first listed rank of its
    block. Edges are the distinct (block, tail rank, head rank) codes of
    consecutive columns, found with one sort; see ``_edges``. An empty label
    raises ``EfgError`` naming the first row that spells it.
    """
    if not seg.blocks or seg.blocks[0][0] != 1 or seg.blocks[-1][1] != msa.n:
        raise EfgError(f"segmentation does not cover [1..{msa.n}]")
    for (s1, e1), (s2, _) in zip(seg.blocks, seg.blocks[1:]):
        if s2 != e1 + 1:
            raise EfgError("segmentation intervals are not consecutive")
    if any(x > y for x, y in seg.blocks):
        raise EfgError("segmentation has an empty interval")
    rows, m, b, cells = msa.rows, msa.m, len(seg.blocks), msa.cells
    starts = [x - 1 for x, _ in seg.blocks]
    # differs[k, i]: in block k + 1, row i + 1's gapped slice is not row 1's.
    # Reduced over the column axis of the transposed view: each block's
    # columns are then long runs of m flags, not m runs of its width.
    differs = np.logical_or.reduceat((cells != cells[0]).T, starts, axis=0)
    differs[:, 0] = True  # row 1 is listed first in every block
    listed_blocks, listed_rows = np.nonzero(differs)  # by block, rows ascending
    ends = np.cumsum(differs.sum(axis=1)).tolist()
    listed = listed_rows.tolist()
    labels, listed_ranks = [], []
    lo = 0
    for (x, y), hi in zip(seg.blocks, ends):
        block_rows = listed[lo:hi]
        spelled = [rows[i][x - 1 : y].replace(GAP, "") for i in block_rows]
        distinct = sorted(set(spelled))
        if not distinct[0]:  # "" sorts first
            row = block_rows[spelled.index("")] + 1
            raise EfgError(f"row {row} spells the empty string in segment [{x}..{y}]")
        rank = {t: r for r, t in enumerate(distinct)}
        labels.append(distinct)
        listed_ranks.extend(map(rank.__getitem__, spelled))
        lo = hi
    listed_ranks = np.array(listed_ranks, np.int64)
    ranks = np.empty((b, m), np.int64)
    ranks[:] = listed_ranks[[0, *ends[:-1]], None]  # row 1's rank
    ranks[listed_blocks, listed_rows] = listed_ranks
    widths = list(map(len, labels))
    rank_texts = list(map(str, range(max(widths))))
    ids = [list(map(f"b{k}_".__add__, rank_texts[:size]))
           for k, size in enumerate(widths, start=1)]
    return Efg(labels=labels, ids=ids, ranks=ranks, names=list(msa.names),
               edges=_edges(ranks, ids, widths), intervals=list(seg.blocks))


def _edges(ranks: np.ndarray, ids: list[list[str]], widths: list[int]):
    """Distinct (tail id, head id) pairs of consecutive columns, sorted as id
    strings, so b10_0 comes before b1_0.

    No id prefix ``b<k>_`` is a prefix of another, so ids compare as their
    (``b<k>_``, rank text) pairs, and a head's block is its tail's plus one.
    Each pair is packed as the int64 (tail block position * w + tail rank
    position) * w + head rank position, below b * w^2 (w the widest block),
    with positions in string order: the codes sort as the id pairs do, so
    one sort finds the distinct pairs in order."""
    b, w = len(ids), max(widths)
    if b * w * w >= EDGE_CODE_LIMIT:
        raise EfgError(
            f"{b} blocks of up to {w} nodes; edge codes need b * w^2 below {EDGE_CODE_LIMIT}"
        )
    # "b<k>_0" sorts as "b<k>_" does
    block_of = np.array(sorted(range(b - 1), key=[v[0] for v in ids].__getitem__), np.int64)
    rank_of = np.array(sorted(range(w), key=str), np.int64)
    block_pos = np.empty(b - 1, np.int64)
    block_pos[block_of] = np.arange(b - 1)
    rank_pos = np.empty(w, np.int64)
    rank_pos[rank_of] = np.arange(w)
    pos = rank_pos[ranks]
    codes = ((block_pos[:, None] * w + pos[:-1]) * w + pos[1:]).ravel()
    codes.sort()
    first = np.ones(codes.size, np.bool_)
    first[1:] = codes[1:] != codes[:-1]
    tail_block, rest = np.divmod(codes[first], w * w)
    # node ids in one list, block k's ranks starting at offset[k - 1]
    flat = [v for block_ids in ids for v in block_ids]
    offset = np.cumsum([0] + widths, dtype=np.int64)
    block = block_of[tail_block]
    tail = offset[block] + rank_of[rest // w]
    head = offset[block + 1] + rank_of[rest % w]
    return list(zip(map(flat.__getitem__, tail.tolist()), map(flat.__getitem__, head.tolist())))


# -- exports ------------------------------------------------------------------


# GFA 1's name grammar: printable ASCII, not starting with '*' or '='
_GFA_NAME = re.compile(r"[!-)+-<>-~][!-~]*")
# GFA 1's sequence symbols; a stored sequence is a non-empty run of them (a
# lone '*' means "not stored")
_GFA_SEQUENCE = re.compile(r"[A-Za-z=.]*")


def _path_name(name: str) -> str:
    # GFA fields are tab-separated; use the first whitespace token of the header
    tokens = name.split()
    return tokens[0] if tokens else name


def export_gfa(efg: Efg) -> str:
    """GFA 1 text. A row whose path name (the first token of its header) is
    not a GFA 1 name, or is the name of an earlier row, is rejected; then
    the first node whose label is not a GFA 1 sequence. The P lines join the
    node ids that ``Efg.row_steps`` lists for each row."""
    tokens = list(map(_path_name, efg.names))
    seen: dict[str, int] = {}
    for row, token in enumerate(tokens, start=1):
        if token in seen:
            raise EfgError(f"rows {seen[token]} and {row} share the GFA path name {token!r}")
        if not _GFA_NAME.fullmatch(token):
            raise EfgError(f"row {row} has the GFA path name {token!r}, which GFA 1 forbids")
        seen[token] = row
    node_ids = [v for ids in efg.ids for v in ids]
    node_labels = [t for labels in efg.labels for t in labels]
    # one scan of all labels at once; an empty label adds nothing to the text
    if "" in node_labels or not _GFA_SEQUENCE.fullmatch("".join(node_labels)):
        g = next(g for g, t in enumerate(node_labels) if not (t and _GFA_SEQUENCE.fullmatch(t)))
        raise EfgError(
            f"node {node_ids[g]} has the label {node_labels[g]!r}, which GFA 1 cannot hold"
        )
    lines = ["H\tVN:Z:1.0"]
    for k, (ids, labels) in enumerate(zip(efg.ids, efg.labels), start=1):
        lines.extend(f"S\t{v}\t{t}\tbl:i:{k}" for v, t in zip(ids, labels))
    lines.extend(f"L\t{a}\t+\t{b}\t+\t0M" for a, b in efg.edges)
    steps = efg.row_steps(node_ids)
    lines.extend(f"P\t{token}\t{'+,'.join(row)}+\t*" if row else f"P\t{token}\t\t*"
                 for token, row in zip(tokens, steps))
    lines.append("")  # the final newline, without copying the joined text
    return "\n".join(lines)


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
    sep = ",\n" + inner
    return f"[\n{inner}{sep.join(items)}\n{indent}]"


def export_json(efg: Efg) -> str:
    """JSON text of the graph, byte-identical to json.dumps(doc, indent=2,
    sort_keys=True) + "\n" for the document

        {"blocks": [{"index", "start", "end",
                     "nodes": [{"id", "label", "rows"}]}],
         "edges": [[from, to]], "paths": [{"name", "nodes"}]}

    It is written directly: json.dumps with indent runs the pure-Python
    encoder. Strings go through the same C escaper json.dumps uses, once per
    node id and row number; the node rows and paths index those strings with
    ``Efg.node_rows`` and ``Efg.row_steps``."""
    enc = encode_basestring_ascii
    encoded_ids = [enc(v) for ids in efg.ids for v in ids]
    rows, bounds = efg.node_rows()
    rows = _take(list(map(str, range(1, len(efg.names) + 1))), rows)
    blocks, g = [], 0
    for k, (labels, (x, y)) in enumerate(zip(efg.labels, efg.intervals), start=1):
        nodes = [
            f'{{\n          "id": {encoded_ids[g + r]},\n          "label": {enc(t)},'
            f'\n          "rows": {_json_array(rows[bounds[g + r] : bounds[g + r + 1]], " " * 10)}'
            '\n        }'
            for r, t in enumerate(labels)
        ]
        g += len(labels)
        blocks.append(
            f'{{\n      "end": {y},\n      "index": {k},'
            f'\n      "nodes": {_json_array(nodes, " " * 6)},\n      "start": {x}\n    }}'
        )
    edges = [f"[\n      {enc(a)},\n      {enc(b)}\n    ]" for a, b in efg.edges]
    paths = [
        f'{{\n      "name": {enc(name)},'
        f'\n      "nodes": {_json_array(steps, " " * 6)}\n    }}'
        for name, steps in zip(efg.names, efg.row_steps(encoded_ids))
    ]
    return (
        f'{{\n  "blocks": {_json_array(blocks, "  ")},\n  "edges": {_json_array(edges, "  ")},'
        f'\n  "paths": {_json_array(paths, "  ")}\n}}\n'
    )
