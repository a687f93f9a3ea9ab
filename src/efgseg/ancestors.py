"""Exclusive ancestor sets on rooted ordered trees.

Given a tree whose leaves are ranked left to right and a subset L of leaves,
find the minimal node set covering exactly L. Works on any tree exposing
flat parent / leaf-interval arrays and the node id of each leaf (random test
trees use :class:`ArrayTree`). Queries cost O(|L| log |L|) for sorting the
ranks plus O(|L|) for the climbs, after the O(|tree|) array construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _ascend_run(parent, lml, rml, leaf_nodes, lb, rb):
    """Exclusive ancestors of the contiguous leaf run [lb..rb].

    Starts at the leftmost leaf and climbs while the parent's leaf interval
    stays inside the run; on failure the last safe node is emitted and the
    climb restarts at the first uncovered leaf. Returns the emitted
    ``[(node, (lo, hi))]`` list and the number of climb steps.
    """
    out = []
    ops = 0
    w = leaf_nodes[lb]
    lo = hi = lb
    while True:
        wp = parent[w]
        ops += 1
        if lml[wp] >= lb and rml[wp] <= rb:
            w = wp
            lo = lml[wp]
            hi = rml[wp]
        else:
            out.append((int(w), (int(lo), int(hi))))
            if hi + 1 > rb:
                break
            lo = hi + 1
            hi = lo
            w = leaf_nodes[lo]
    return out, ops


@dataclass
class ExclusiveAncestorResult:
    """Solver output: per contiguous run, the covering nodes and leaf intervals."""

    runs: list[list[tuple[int, tuple[int, int]]]]
    op_count: int

    def nodes(self) -> list[int]:
        return [node for run in self.runs for node, _ in run]

    def intervals(self) -> list[tuple[int, int]]:
        return [iv for run in self.runs for _, iv in run]


class ArrayTree:
    """Rooted ordered tree over flat arrays, for generic ancestor queries.

    Internal nodes must have at least two children (compacted unary paths).
    Leaf ranks follow the left-to-right order induced by the children lists.
    """

    def __init__(self, children: dict[int, list[int]], root: int = 0):
        ids = sorted(set(children) | {c for kids in children.values() for c in kids} | {root})
        n = len(ids)
        if ids != list(range(n)):
            raise ValueError("node ids must be dense integers starting at 0")
        for node, kids in children.items():
            if len(kids) == 1:
                raise ValueError(f"internal node {node} has a single child (not compacted)")
        self.root = root
        self._children = {v: list(children.get(v, [])) for v in ids}
        self.parent = np.full(n, -1, np.int64)
        self.lml = np.zeros(n, np.int64)
        self.rml = np.zeros(n, np.int64)
        self.leaf_rank = np.full(n, -1, np.int64)
        leaves: list[int] = []
        # iterative DFS keeping child order
        order: list[int] = []
        stack = [root]
        while stack:
            v = stack.pop()
            order.append(v)
            for c in reversed(self._children[v]):
                self.parent[c] = v
                stack.append(c)
        for v in order:
            if not self._children[v]:
                self.leaf_rank[v] = len(leaves)
                leaves.append(v)
        self.leaf_nodes = np.array(leaves, dtype=np.int64)
        self.n_leaves = len(leaves)
        for v in reversed(order):
            if not self._children[v]:
                self.lml[v] = self.rml[v] = self.leaf_rank[v]
            else:
                self.lml[v] = self.lml[self._children[v][0]]
                self.rml[v] = self.rml[self._children[v][-1]]

    def children(self, node: int) -> list[int]:
        return list(self._children[node])


def solve(tree, leaf_ranks) -> ExclusiveAncestorResult:
    """Minimal node set covering exactly the query leaves.

    ``leaf_ranks`` are leaf positions in left-to-right order. Once sorted,
    consecutive ranks form the contiguous runs, and each run is climbed
    once. Querying all leaves returns the root.
    """
    ranks = sorted(set(int(r) for r in leaf_ranks))
    if not ranks:
        raise ValueError("query leaf set is empty")
    if ranks[0] < 0 or ranks[-1] >= tree.n_leaves:
        raise ValueError("leaf rank out of range")
    if len(ranks) == tree.n_leaves:
        return ExclusiveAncestorResult(
            runs=[[(int(tree.root), (0, tree.n_leaves - 1))]], op_count=len(ranks)
        )
    runs = []
    ops = 0
    lb = ranks[0]
    for r, nxt in zip(ranks, ranks[1:] + [None]):
        ops += 1
        if nxt == r + 1:
            ops += 1  # the run goes on
            continue
        run, o = _ascend_run(tree.parent, tree.lml, tree.rml, tree.leaf_nodes, lb, r)
        runs.append(run)
        ops += o
        lb = nxt
    return ExclusiveAncestorResult(runs=runs, op_count=ops)
