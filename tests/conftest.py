import functools
import random

import numpy as np
import pytest

import efgseg as E
from efgseg.msa import GAP, MsaError


@pytest.fixture
def msa_e():
    """Two-row gapped alignment whose derived values are known exactly."""
    return E.parse_aligned_fasta(">r1\nAG-C\n>r2\nA-GC\n")


@pytest.fixture
def msa_aaa():
    return E.Msa.from_rows(["AAA"])


@functools.lru_cache(maxsize=256)
def _nongap_columns(row):
    return tuple(x for x, c in enumerate(row, start=1) if c != "-")


def kth_nongap_column(msa, i, k):
    """Column (1-based) of the k-th non-gap of row i (0-based), read off
    ``msa.rows``, or n + 1 when the row has fewer than k non-gaps."""
    cols = _nongap_columns(msa.rows[i])
    return cols[k - 1] if k <= len(cols) else msa.n + 1


def spell(msa, i, x, y):
    """Row i restricted to columns [x..y] with gaps removed.

    x = y + 1 yields the empty string.
    """
    if not 1 <= i <= msa.m:
        raise MsaError(f"row index {i} out of range [1..{msa.m}]")
    if not (1 <= x <= y + 1 and y <= msa.n):
        raise MsaError(f"column range [{x}..{y}] out of range for n={msa.n}")
    return msa.rows[i - 1][x - 1 : y].replace(GAP, "")


def _lcp_interval_tree(lcp, n_leaves):
    cap = 2 * n_leaves + 1
    parent = np.full(cap, -1, np.int64)
    depth = np.zeros(cap, np.int64)
    lml = np.zeros(cap, np.int64)
    rml = np.zeros(cap, np.int64)
    root = n_leaves
    nxt = root + 1
    stack = np.empty(n_leaves + 2, np.int64)
    stack[0] = root
    top = 0
    for i in range(n_leaves):
        h = lcp[i] if i > 0 else 0
        if i > 0 and depth[stack[top]] > h:
            # the previous leaf's parent is the deepest interval now closing
            parent[i - 1] = stack[top]
        while depth[stack[top]] > h:
            v = stack[top]
            top -= 1
            rml[v] = i - 1
            t = stack[top]
            if depth[t] >= h:
                parent[v] = t
            else:
                u = nxt
                nxt += 1
                depth[u] = h
                lml[u] = lml[v]
                parent[v] = u
                top += 1
                stack[top] = u
                break
        if depth[stack[top]] < h:
            u = nxt
            nxt += 1
            depth[u] = h
            lml[u] = i - 1
            top += 1
            stack[top] = u
        if i > 0 and parent[i - 1] == -1:
            parent[i - 1] = stack[top]
        lml[i] = i
        rml[i] = i
    parent[n_leaves - 1] = stack[top]
    while top > 0:
        v = stack[top]
        top -= 1
        rml[v] = n_leaves - 1
        parent[v] = stack[top]
    rml[root] = n_leaves - 1
    return parent[:nxt], depth[:nxt], lml[:nxt], rml[:nxt], root


class SuffixTree:
    """The generalized suffix tree of a Gst, built from ``gst.lcp`` and ``gst.sa``.

    The package answers its tree queries on the enhanced suffix array; this
    materialised view is what the tests check that array against. Node ids:
    leaves are 0..n_leaves-1 in suffix-array order, internal nodes (the root
    included) follow, with flat ``parent``, ``string_depth``, ``lml`` and
    ``rml`` arrays, and ``leaf_nodes`` the leaf node ids. Leaf origins are
    (row, offset) with offset the 1-based position in the gaps-removed row
    plus terminator; leaf suffix links reduce to ``leaf_for(i, p + 1)``.
    ``row_lens[i - 1]`` is the length of row i's string plus terminator.
    """

    def __init__(self, gst):
        self.gst = gst
        m = gst.msa.m
        self.n_leaves = len(gst.sa)
        # codes of Gst.text: terminators 1..m, then the sorted symbols
        symbols = sorted(set("".join(gst.msa.rows)) - {GAP})
        self.sym_code = {c: m + 1 + idx for idx, c in enumerate(symbols)}
        self.row_lens = np.diff(gst.row_starts, append=len(gst.text))
        self.leaf_row = np.repeat(np.arange(m, dtype=np.int32), self.row_lens)[gst.sa]
        self.leaf_off = gst.sa - gst.row_starts[self.leaf_row] + 1
        parent, depth, lml, rml, root = _lcp_interval_tree(gst.lcp, self.n_leaves)
        # leaf string depths: suffix length truncated at the row terminator
        depth[: self.n_leaves] = self.row_lens[self.leaf_row] - self.leaf_off + 1
        self.parent, self.string_depth, self.lml, self.rml, self.root = parent, depth, lml, rml, root
        self.n_nodes = len(parent)
        self.leaf_nodes = np.arange(self.n_leaves, dtype=np.int64)
        # one pass in leaf order lists each node's children left to right
        self._children = [[] for _ in range(self.n_nodes)]
        for v in np.argsort(lml, kind="stable").tolist():
            if v != root:
                self._children[parent[v]].append(v)

    def children(self, node: int) -> list[int]:
        """Children of a node in leaf order."""
        return list(self._children[node])

    def leaf_for(self, i: int, p: int) -> int:
        """Leaf whose origin is (row i, gaps-removed offset p), both 1-based."""
        gst = self.gst
        if not 1 <= i <= gst.msa.m:
            raise MsaError(f"row index {i} out of range [1..{gst.msa.m}]")
        if not 1 <= p <= self.row_lens[i - 1]:
            raise MsaError(f"offset {p} out of range [1..{self.row_lens[i - 1]}] for row {i}")
        return int(gst.isa[gst.row_starts[i - 1] + p - 1])

    def leaf_origin(self, leaf: int) -> tuple[int, int]:
        """(row, offset) of a leaf rank, both 1-based."""
        return int(self.leaf_row[leaf]) + 1, int(self.leaf_off[leaf])

    def path_label(self, node: int) -> str:
        """Decoded root-to-node label (terminators shown as $<row>)."""
        start = int(self.gst.sa[int(self.lml[node])])
        codes = self.gst.text[start : start + int(self.string_depth[node])]
        inv = {v: k for k, v in self.sym_code.items()}
        return "".join(inv[c] if c in inv else f"${c}" for c in codes.tolist())


def oracle_exclusive_ancestors(tree, leaf_ranks) -> set[int]:
    """All nodes covering only query leaves whose parent covers a non-query leaf.

    Recomputes leaf order and coverage by its own traversal of the children
    lists; quadratic and independent of the tree's preprocessed intervals.
    """
    L = set(int(r) for r in leaf_ranks)
    if not L:
        raise ValueError("query leaf set is empty")
    order: list[int] = []
    stack = [int(tree.root)]
    parent: dict[int, int] = {int(tree.root): -1}
    while stack:
        v = stack.pop()
        order.append(v)
        kids = tree.children(v)
        for c in reversed(kids):
            parent[int(c)] = v
            stack.append(int(c))
    ranks: dict[int, int] = {}
    under: dict[int, set[int]] = {}
    for v in order:
        if not tree.children(v):
            ranks[v] = len(ranks)
    for v in reversed(order):
        kids = tree.children(v)
        if not kids:
            under[v] = {ranks[v]}
        else:
            under[v] = set().union(*(under[int(c)] for c in kids))
    result = set()
    for v in order:
        if under[v] <= L and (parent[v] == -1 or not under[parent[v]] <= L):
            result.add(v)
    return result


def near_identical_msa(seed, m, n, snp_rate, gap_rate):
    """Copies of one random row with private substitutions and gaps."""
    rng = random.Random(seed)
    base = [rng.choice("ACGT") for _ in range(n)]
    rows = []
    for _ in range(m):
        row = [rng.choice("ACGT") if rng.random() < snp_rate else c for c in base]
        row = ["-" if rng.random() < gap_rate else c for c in row]
        if all(c == "-" for c in row):
            row[0] = base[0]
        rows.append("".join(row))
    return E.Msa.from_rows(rows)
