"""Loop versions of the FASTA parser with its row checks, the graph build and
the GFA and JSON writers, as they were before the whole-text checks and the
writers that read the rank matrix. The tests require the production code to
give the same rows, graphs, bytes and error messages.

The parser upper-cases with str.upper, which rewrites some non-ASCII letters
into ASCII ("ß" into "SS"), so compare it on ASCII input only.
"""

from __future__ import annotations

from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from string import ascii_letters

import numpy as np

from efgseg.efg import EfgError
from efgseg.msa import _VALID, GAP, MsaError


def check_rows(rows, names):
    """The Msa checks, one row at a time."""
    if not rows:
        raise MsaError("alignment has no rows")
    if len(names) != len(rows):
        raise MsaError(f"{len(names)} names for {len(rows)} rows")
    n = len(rows[0])
    if n == 0:
        raise MsaError(f"row '{names[0]}' is empty")
    for name, row in zip(names, rows):
        if len(row) != n:
            raise MsaError(f"row '{name}' has length {len(row)}, expected {n}")
        if not row.isascii() or row.encode("ascii").translate(None, _VALID):
            bad = next(c for c in row if not c.isascii() or ord(c) not in _VALID)
            raise MsaError(f"row '{name}' contains invalid symbol {bad!r}")
        if row.count(GAP) == n:
            raise MsaError(f"row '{name}' consists only of gap symbols")


def parse_aligned_fasta(data):
    """(rows, names) of aligned FASTA text, parsed one line at a time."""
    if isinstance(data, bytes):
        data = data.decode("ascii")
    names: list[str] = []
    chunks: list[list[str]] = []
    for lineno, raw in enumerate(data.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith(">"):
            names.append(line[1:].strip() or f"r{len(names) + 1}")
            chunks.append([])
        else:
            if not names:
                raise MsaError(f"line {lineno}: sequence data before first header")
            chunks[-1].append(line)
    if not names:
        raise MsaError("empty input: no FASTA records found")
    rows = tuple("".join(parts).upper().replace(".", GAP) for parts in chunks)
    check_rows(rows, names)
    return rows, tuple(names)


@dataclass
class ListEfg:
    """The graph with per-block lists of row ranks."""

    labels: list[list[str]]
    ids: list[list[str]]
    columns: list[list[int]]
    names: list[str]
    edges: list[tuple[str, str]]
    intervals: list[tuple[int, int]]

    def row_steps(self, node_values):
        if not self.columns:
            return [()] * len(self.names)
        return zip(*[list(map(v.__getitem__, col)) for v, col in zip(node_values, self.columns)])

    def node_rows(self, row_values):
        out = []
        for labels, col in zip(self.labels, self.columns):
            rows: list[list] = [[] for _ in labels]
            for v, r in zip(row_values, col):
                rows[r].append(v)
            out.append(rows)
        return out


def build_efg(msa, seg) -> ListEfg:
    """The graph build that spells only the rows that differ from row 1,
    with edges sorted as string tuples."""
    if not seg.blocks or seg.blocks[0][0] != 1 or seg.blocks[-1][1] != msa.n:
        raise EfgError(f"segmentation does not cover [1..{msa.n}]")
    for (s1, e1), (s2, _) in zip(seg.blocks, seg.blocks[1:]):
        if s2 != e1 + 1:
            raise EfgError("segmentation intervals are not consecutive")
    if any(x > y for x, y in seg.blocks):
        raise EfgError("segmentation has an empty interval")
    rows, m, b, cells = msa.rows, msa.m, len(seg.blocks), msa.cells
    starts = [x - 1 for x, _ in seg.blocks]
    differs = ~np.logical_and.reduceat(cells == cells[0], starts, axis=1).T
    listed_blocks, listed_rows = np.nonzero(differs)
    ends = np.cumsum(differs.sum(axis=1)).tolist()
    listed = listed_rows.tolist()
    labels, ref_ranks, listed_ranks = [], [], []
    lo = 0
    for (x, y), hi in zip(seg.blocks, ends):
        ref = rows[0][x - 1 : y].replace(GAP, "")
        block_rows = listed[lo:hi]
        spelled = [rows[i][x - 1 : y].replace(GAP, "") for i in block_rows]
        distinct = sorted({ref, *spelled})
        if not distinct[0]:
            row = 1 if not ref else block_rows[spelled.index("")] + 1
            raise EfgError(f"row {row} spells the empty string in segment [{x}..{y}]")
        rank = {t: r for r, t in enumerate(distinct)}
        labels.append(distinct)
        ref_ranks.append(rank[ref])
        listed_ranks.extend(map(rank.__getitem__, spelled))
        lo = hi
    cols = np.empty((b, m), np.int64)
    cols[:] = np.array(ref_ranks, np.int64)[:, None]
    cols[listed_blocks, listed_rows] = listed_ranks
    widths = list(map(len, labels))
    w = max(widths)
    ids = [[f"b{k}_{r}" for r in range(size)] for k, size in enumerate(widths, start=1)]
    codes = ((np.arange(b - 1, dtype=np.int64)[:, None] * w + cols[:-1]) * w + cols[1:]).ravel()
    codes.sort()
    first = np.ones(codes.size, np.bool_)
    first[1:] = codes[1:] != codes[:-1]
    codes = codes[first]
    flat = [v for block_ids in ids for v in block_ids]
    offset = np.cumsum([0] + widths, dtype=np.int64)
    block, rest = np.divmod(codes, w * w)
    tail = offset[block] + rest // w
    head = offset[block + 1] + rest % w
    edges = sorted(zip(map(flat.__getitem__, tail.tolist()), map(flat.__getitem__, head.tolist())))
    return ListEfg(labels=labels, ids=ids, columns=cols.tolist(), names=list(msa.names),
                   edges=edges, intervals=list(seg.blocks))


def _path_name(name):
    return name.split()[0] if name.split() else name


def export_gfa(efg: ListEfg) -> str:
    """GFA text with the duplicate-name check and a per-node label check,
    but no check of the path-name grammar."""
    seen: dict[str, int] = {}
    for row, name in enumerate(efg.names, start=1):
        token = _path_name(name)
        if token in seen:
            raise EfgError(f"rows {seen[token]} and {row} share the GFA path name {token!r}")
        seen[token] = row
    for ids, labels in zip(efg.ids, efg.labels):
        for v, t in zip(ids, labels):
            if not t or any(c not in ascii_letters + "=." for c in t):
                raise EfgError(f"node {v} has the label {t!r}, which GFA 1 cannot hold")
    lines = ["H\tVN:Z:1.0"]
    for k, (ids, labels) in enumerate(zip(efg.ids, efg.labels), start=1):
        lines.extend(f"S\t{v}\t{t}\tbl:i:{k}" for v, t in zip(ids, labels))
    lines.extend(f"L\t{a}\t+\t{b}\t+\t0M" for a, b in efg.edges)
    for name, ids in zip(efg.names, efg.row_steps(efg.ids)):
        steps = "+,".join(ids) + "+" if ids else ""
        lines.append(f"P\t{_path_name(name)}\t{steps}\t*")
    return "\n".join(lines) + "\n"


def _json_array(items, indent):
    if not items:
        return "[]"
    inner = indent + "  "
    return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"


def export_json(efg: ListEfg) -> str:
    """JSON text, written directly with per-node row lists."""
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
