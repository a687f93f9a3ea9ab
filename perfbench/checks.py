"""Output checks that do not trust the program.

Nothing here imports efgseg. The GFA, DOT and JSON readers are the
benchmark's own, and semi-repeat-freeness is decided by a substring scan
over the gaps-removed rows: numpy window hashes find candidate occurrences,
and a byte compare confirms every candidate that is not at an allowed
position before it counts as a violation.

Coordinates follow the program: columns are 1-based and inclusive; a block
[x..y] is semi-repeat-free iff every row spells a non-empty string there,
and each such string occurs in any gaps-removed row only at that row's start
of the block.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

import numpy as np

GAP = ord("-")
SEP = 0  # row separator in the concatenated text; never part of a label
K = 12  # labels at least this long are found by their K-prefix, then confirmed

_B = np.uint64(0x9E3779B97F4A7C15)  # odd, so invertible modulo 2**64
_B_INV = np.uint64(pow(int(_B), -1, 1 << 64))


class Text:
    """The gaps-removed rows of an alignment, concatenated with separators."""

    def __init__(self, rows: np.ndarray):
        m, n = rows.shape
        nongap = rows != GAP
        self.m, self.n = m, n
        self.lengths = nongap.sum(axis=1).astype(np.int64)
        self.offsets = np.zeros(m, np.int64)
        self.offsets[1:] = np.cumsum(self.lengths + 1)[:-1]
        # rank[i, x] = non-gaps of row i in columns [1..x]
        self.rank = np.zeros((m, n + 1), np.int64)
        np.cumsum(nongap, axis=1, out=self.rank[:, 1:])
        text = np.full(int(self.lengths.sum()) + m, SEP, np.uint8)
        for i in range(m):
            o = self.offsets[i]
            text[o : o + self.lengths[i]] = rows[i][nongap[i]]
        self.text = text
        self.bytes = text.tobytes()
        self._prefix = None

    def row(self, i: int) -> bytes:
        """Gaps-removed row i (0-based)."""
        o = int(self.offsets[i])
        return self.bytes[o : o + int(self.lengths[i])]

    def column_block(self, x: int, y: int) -> tuple[np.ndarray, np.ndarray]:
        """Absolute start and length per row of the column block [x..y]."""
        starts = self.offsets + self.rank[:, x - 1]
        return starts, self.rank[:, y] - self.rank[:, x - 1]

    def windows(self, w: int) -> np.ndarray:
        """Hash of every length-w window; entry p covers text[p : p + w]."""
        if self._prefix is None:
            size = len(self.text)
            pw = np.ones(size, np.uint64)
            ipw = np.ones(size, np.uint64)
            if size > 1:
                pw[1:] = np.cumprod(np.full(size - 1, _B, np.uint64))
                ipw[1:] = np.cumprod(np.full(size - 1, _B_INV, np.uint64))
            prefix = np.zeros(size + 1, np.uint64)
            np.cumsum((self.text.astype(np.uint64) + np.uint64(1)) * pw, out=prefix[1:])
            self._prefix = (prefix, ipw)
        prefix, ipw = self._prefix
        count = len(self.text) - w + 1
        return (prefix[w : w + count] - prefix[:count]) * ipw[:count]


def semi_repeat_free(text: Text, starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Validity of each block, given as (blocks, m) absolute starts and lengths."""
    starts = np.asarray(starts, np.int64)
    lens = np.asarray(lens, np.int64)
    nb = starts.shape[0]
    ok = (lens > 0).all(axis=1)
    stride = len(text.text) + 1
    block_ids = np.repeat(np.arange(nb, dtype=np.int64), text.m)
    allowed = np.unique(block_ids * stride + starts.ravel())
    flat_s, flat_l = starts.ravel(), lens.ravel()
    live = ok[block_ids] & (flat_l > 0)
    width = np.minimum(flat_l, K)
    for w in np.unique(width[live]):
        sel = live & (width == w)
        hashes = text.windows(int(w))
        q = hashes[flat_s[sel]]
        # labels grouped by (block, hash of their first w symbols)
        labels: dict[tuple[int, int], set[bytes]] = {}
        for b, h, s, length in zip(block_ids[sel].tolist(), q.tolist(),
                                   flat_s[sel].tolist(), flat_l[sel].tolist()):
            labels.setdefault((b, h), set()).add(text.bytes[s : s + length])
        keys = np.array(list(labels), dtype=np.uint64).reshape(-1, 2)
        ub, uq = keys[:, 0].astype(np.int64), keys[:, 1]
        order = np.argsort(hashes, kind="stable")
        sorted_h = hashes[order]
        lo = np.searchsorted(sorted_h, uq, "left")
        cnt = np.searchsorted(sorted_h, uq, "right") - lo
        first = np.repeat(lo - np.concatenate(([0], np.cumsum(cnt)[:-1])), cnt)
        pos = order[first + np.arange(int(cnt.sum()))].astype(np.int64)
        cb, cq = np.repeat(ub, cnt), np.repeat(uq, cnt)
        ck = cb * stride + pos
        at = np.minimum(np.searchsorted(allowed, ck), len(allowed) - 1)
        stray = allowed[at] != ck
        for b, h, p in zip(cb[stray].tolist(), cq[stray].tolist(), pos[stray].tolist()):
            if not ok[b]:
                continue
            if any(text.bytes[p : p + len(lab)] == lab for lab in labels[(b, h)]):
                ok[b] = False
    return ok


# -- graph readers -------------------------------------------------------------


class CheckError(ValueError):
    """A program output that is malformed or wrong."""


@dataclass
class Graph:
    labels: dict[str, str]  # node id -> label
    block_of: dict[str, int]  # node id -> block index (1-based)
    edges: list[tuple[str, str]]
    paths: list[tuple[str, list[str]]]


def read_gfa(data: str) -> Graph:
    lines = data.split("\n")
    if lines[-1] != "" or lines[0] != "H\tVN:Z:1.0":
        raise CheckError("GFA must start with 'H\\tVN:Z:1.0' and end with a newline")
    g = Graph({}, {}, [], [])
    for line in lines[1:-1]:
        f = line.split("\t")
        if f[0] == "S" and len(f) == 4 and f[3].startswith("bl:i:"):
            if f[1] in g.labels:
                raise CheckError(f"segment {f[1]} defined twice")
            g.labels[f[1]] = f[2]
            g.block_of[f[1]] = int(f[3][5:])
        elif f[0] == "L" and len(f) == 6 and f[2] == f[4] == "+" and f[5] == "0M":
            g.edges.append((f[1], f[3]))
        elif f[0] == "P" and len(f) == 4 and f[3] == "*":
            steps = f[2].split(",")
            if not all(s.endswith("+") for s in steps):
                raise CheckError(f"path {f[1]} has a step not in + orientation")
            g.paths.append((f[1], [s[:-1] for s in steps]))
        else:
            raise CheckError(f"unexpected GFA line {line[:60]!r}")
    return g


_DOT_NODE = re.compile(r'^    "([^"]+)" \[label="([^"]*)"\];$')
_DOT_EDGE = re.compile(r'^  "([^"]+)" -> "([^"]+)";$')
_DOT_BLOCK = re.compile(r'^    label="block (\d+) \[(\d+)\.\.(\d+)\]";$')


def read_dot(data: str) -> tuple[dict[str, str], list[tuple[str, str]], list[tuple[int, int]]]:
    """(node labels, edges, block intervals) from the DOT export."""
    nodes: dict[str, str] = {}
    edges: list[tuple[str, str]] = []
    intervals: list[tuple[int, int]] = []
    for line in data.splitlines():
        if mt := _DOT_NODE.match(line):
            nodes[mt[1]] = mt[2]
        elif mt := _DOT_EDGE.match(line):
            edges.append((mt[1], mt[2]))
        elif mt := _DOT_BLOCK.match(line):
            if int(mt[1]) != len(intervals) + 1:
                raise CheckError(f"DOT block {mt[1]} out of order")
            intervals.append((int(mt[2]), int(mt[3])))
    return nodes, edges, intervals


# -- output checks ---------------------------------------------------------------


def graph_blocks(g: Graph, text: Text) -> tuple[np.ndarray, np.ndarray]:
    """(blocks, m) starts and lengths of each row's path node per block."""
    b = len(g.paths[0][1])
    starts = np.empty((b, text.m), np.int64)
    lens = np.empty((b, text.m), np.int64)
    for i, (_, ids) in enumerate(g.paths):
        ls = np.array([len(g.labels[v]) for v in ids], np.int64)
        lens[:, i] = ls
        starts[:, i] = text.offsets[i] + np.concatenate(([0], np.cumsum(ls)[:-1]))
    return starts, lens


def check_graph(g: Graph, names: list[str], text: Text) -> list[str]:
    """Problems with a founder graph read from the program's GFA."""
    problems: list[str] = []
    want_names = [name.split()[0] for name in names]
    if [p for p, _ in g.paths] != want_names:
        return [f"P lines name {len(g.paths)} paths, not the {len(names)} rows in order"]
    b = len(g.paths[0][1])
    used: set[str] = set()
    for i, (name, ids) in enumerate(g.paths):
        if any(v not in g.labels for v in ids):
            return [f"path {name} visits an undefined segment"]
        if [g.block_of[v] for v in ids] != list(range(1, b + 1)):
            return [f"path {name} does not visit blocks 1..{b} in order"]
        if "".join(g.labels[v] for v in ids).encode("ascii") != text.row(i):
            problems.append(f"path {name} does not spell its gaps-removed row")
        used.update(ids)
    if used != set(g.labels):
        problems.append(f"{len(set(g.labels) - used)} segments lie on no path")
    seen: set[tuple[int, str]] = set()
    for v, label in g.labels.items():
        if (g.block_of[v], label) in seen:
            problems.append(f"label {label[:20]!r} repeats in block {g.block_of[v]}")
        seen.add((g.block_of[v], label))
    steps = {(ids[k], ids[k + 1]) for _, ids in g.paths for k in range(len(ids) - 1)}
    if len(set(g.edges)) != len(g.edges) or set(g.edges) != steps:
        problems.append("L lines are not exactly the consecutive pairs on the paths")
    if problems:
        return problems
    valid = semi_repeat_free(text, *graph_blocks(g, text))
    if not valid.all():
        problems.append(f"block {int(np.flatnonzero(~valid)[0]) + 1} is not semi-repeat-free")
    return problems


def check_dot(data: str, g: Graph, intervals: list[tuple[int, int]]) -> list[str]:
    nodes, edges, got = read_dot(data)
    problems = []
    if nodes != g.labels or sorted(edges) != sorted(g.edges):
        problems.append("DOT nodes or edges differ from the GFA graph")
    if got != intervals:
        problems.append("DOT block intervals differ from the segmentation")
    return problems


def check_json(data: str, g: Graph, names: list[str], intervals: list[tuple[int, int]]) -> list[str]:
    try:
        doc = json.loads(data)
        blocks = doc["blocks"]
        nodes = {nd["id"]: nd["label"] for bl in blocks for nd in bl["nodes"]}
        got = [(bl["start"], bl["end"]) for bl in blocks]
        rows = {nd["id"]: nd["rows"] for bl in blocks for nd in bl["nodes"]}
        paths = [(p["name"], p["nodes"]) for p in doc["paths"]]
        edges = [tuple(e) for e in doc["edges"]]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"JSON export unreadable: {exc}"]
    problems = []
    if nodes != g.labels or sorted(edges) != sorted(g.edges):
        problems.append("JSON nodes or edges differ from the GFA graph")
    if got != intervals:
        problems.append("JSON block intervals differ from the segmentation")
    if paths != [(name, ids) for name, (_, ids) in zip(names, g.paths)]:
        problems.append("JSON paths differ from the GFA paths")
    witnesses: dict[str, list[int]] = {}
    for i, (_, ids) in enumerate(g.paths, start=1):
        for v in ids:
            witnesses.setdefault(v, []).append(i)
    if rows != witnesses:
        problems.append("JSON node rows differ from the rows whose paths visit them")
    return problems


def check_segmentation(blocks: list[tuple[int, int]], text: Text) -> list[str]:
    """A segmentation must cover [1..n] with consecutive semi-repeat-free blocks."""
    if not blocks or blocks[0][0] != 1 or blocks[-1][1] != text.n:
        return [f"segmentation does not cover [1..{text.n}]"]
    if any(s2 != e1 + 1 or s1 > e1 for (s1, e1), (s2, _) in zip(blocks, blocks[1:])):
        return ["segmentation blocks are not consecutive"]
    pairs = [text.column_block(x, y) for x, y in blocks]
    valid = semi_repeat_free(text, np.array([p[0] for p in pairs]), np.array([p[1] for p in pairs]))
    if not valid.all():
        x, y = blocks[int(np.flatnonzero(~valid)[0])]
        return [f"segmentation block [{x}..{y}] is not semi-repeat-free"]
    return []


# -- extensions and scores -------------------------------------------------------------


def optimal_scores(f: np.ndarray, n: int) -> dict[str, int | None]:
    """Per-column DP over the prefix boundaries, using [x+1..j] valid iff f(x) <= j.

    maxblocks: s(j) = max s(x) + 1; minmaxlen: s(j) = min max(s(x), j - x);
    both over x < j with f(x) <= j and s(x) defined.
    """
    f = np.asarray(f, np.int64)
    out: dict[str, int | None] = {}
    for scheme in ("maxblocks", "minmaxlen"):
        s = np.full(n + 1, -1, np.int64)  # -1: prefix has no segmentation
        s[0] = 0
        for j in range(1, n + 1):
            x = np.arange(j)
            usable = (f[:j] <= j) & (s[:j] >= 0)
            if not usable.any():
                continue
            if scheme == "maxblocks":
                s[j] = s[:j][usable].max() + 1
            else:
                s[j] = np.maximum(s[:j], j - x)[usable].min()
        out[scheme] = int(s[n]) if s[n] >= 0 else None
    return out


def check_extensions(f: np.ndarray, text: Text, xs: list[int]) -> list[str]:
    """f(x) is minimal at each sampled boundary x."""
    n = text.n
    if len(f) != n or f.min() < 1 or f.max() > n + 1 or (f <= np.arange(n)).any():
        return ["f is not an array of n values in [x+1..n+1]"]
    segments, expect = [], []
    for x in xs:
        y = int(f[x])
        if y <= n:
            segments.append((x + 1, y))
            expect.append(True)
        if y - 1 >= x + 1:
            segments.append((x + 1, y - 1))
            expect.append(False)
    pairs = [text.column_block(a, b) for a, b in segments]
    got = semi_repeat_free(text, np.array([p[0] for p in pairs]), np.array([p[1] for p in pairs]))
    for (a, b), want, have in zip(segments, expect, got.tolist()):
        if want != have:
            state = "is not" if want else "is already"
            return [f"f is not minimal: [{a}..{b}] {state} semi-repeat-free"]
    return []


def check_segmentation_score(blocks: list[tuple[int, int]], scheme: str, score: int,
                             optimum: int | None) -> list[str]:
    achieved = len(blocks) if scheme == "maxblocks" else max(e - s + 1 for s, e in blocks)
    problems = []
    if score != optimum:
        problems.append(f"{scheme}: program score {score}, benchmark DP {optimum}")
    if achieved != optimum:
        problems.append(f"{scheme}: segmentation achieves {achieved}, benchmark DP {optimum}")
    return problems
