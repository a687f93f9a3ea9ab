"""Generalized suffix tree over the gaps-removed MSA rows.

Each row contributes its gaps-removed string followed by a distinct
terminator; terminators sort below every sequence symbol and in row order,
so leaf order is deterministic. The structure is an enhanced suffix array
(suffix array, inverse and LCP array of the row concatenation; Abouelhoda,
Kurtz & Ohlebusch 2004). The column sweep runs on it directly. The tree as
flat parent / string-depth / leaf-interval arrays (leaves are node ids
0..N-1 in lexicographic order, internal nodes follow) is built from the LCP
array only when something asks for it.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from ._accel import njit
from .msa import GAP, Msa, MsaError, check_size_limits
from .sais import enhanced_suffix_array


@njit(cache=True)
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


class Gst:
    """Enhanced suffix array of the gaps-removed rows, with a lazy tree view.

    The sweep needs only ``isa``, ``lcp`` and ``row_starts``.
    Everything else is built on first access: the leaf origins
    ``leaf_row`` and ``leaf_off``, and the tree view from the LCP array.
    Node ids of the tree view: leaves are 0..n_leaves-1 in lexicographic
    suffix order, internal nodes (including the root) follow, with
    ``parent``, ``string_depth``, ``lml``, ``rml``, ``root`` and
    ``n_nodes``. Leaf origins are (row, offset) with offset the 1-based
    position in the gaps-removed row plus terminator; leaf suffix links
    reduce to ``leaf_for(i, p + 1)``.
    """

    def __init__(self, msa: Msa):
        m = msa.m
        cells = np.frombuffer("".join(msa.rows).encode("ascii"), np.uint8).reshape(m, msa.n)
        nongap = cells != ord(GAP)
        spell_lens = np.count_nonzero(nongap, axis=1)
        check_size_limits(msa.n, int(spell_lens.sum()) + m)
        sigma = sorted(msa.alphabet)
        # codes: 0 reserved, terminators 1..m (row order), symbols after
        self.sym_code = {c: m + 1 + idx for idx, c in enumerate(sigma)}
        alphabet_size = m + 1 + len(sigma)
        code_of = np.zeros(256, np.int32)
        for c, code in self.sym_code.items():
            code_of[ord(c)] = code

        row_alpha_lens = spell_lens.astype(np.int64) + 1
        row_starts = np.zeros(m, np.int64)
        np.cumsum(row_alpha_lens[:-1], out=row_starts[1:])
        terminators = row_starts + row_alpha_lens - 1
        text = np.empty(int(row_alpha_lens.sum()), np.int32)
        is_symbol = np.ones(len(text), np.bool_)
        is_symbol[terminators] = False
        text[is_symbol] = code_of[cells[nongap]]
        text[terminators] = np.arange(1, m + 1)  # terminator of row i+1
        del cells, nongap, is_symbol

        sa, lcp, isa = enhanced_suffix_array(text, alphabet_size)

        self.msa = msa
        self.text = text
        self.sa = sa
        self.isa = isa
        self.lcp = lcp
        self.row_starts = row_starts
        self.row_alpha_lens = row_alpha_lens
        self.n_leaves = len(sa)

    # -- lazy leaf origins and tree view -------------------------------------

    @cached_property
    def leaf_row(self) -> np.ndarray:
        """0-based row of each leaf rank."""
        return np.repeat(np.arange(self.msa.m, dtype=np.int32), self.row_alpha_lens)[self.sa]

    @cached_property
    def leaf_off(self) -> np.ndarray:
        """1-based offset of each leaf rank within its row string."""
        return self.sa - self.row_starts[self.leaf_row] + 1

    @cached_property
    def _tree(self):
        parent, depth, lml, rml, root = _lcp_interval_tree(self.lcp, self.n_leaves)
        # leaf string depths: suffix length truncated at the row terminator
        depth[: self.n_leaves] = self.row_alpha_lens[self.leaf_row] - self.leaf_off + 1
        return parent, depth, lml, rml, root

    @property
    def parent(self) -> np.ndarray:
        return self._tree[0]

    @property
    def string_depth(self) -> np.ndarray:
        return self._tree[1]

    @property
    def lml(self) -> np.ndarray:
        return self._tree[2]

    @property
    def rml(self) -> np.ndarray:
        return self._tree[3]

    @property
    def root(self) -> int:
        return self._tree[4]

    @property
    def n_nodes(self) -> int:
        return len(self._tree[0])

    # -- navigation -------------------------------------------------------

    def leaf_for(self, i: int, p: int) -> int:
        """Leaf whose origin is (row i, gaps-removed offset p), both 1-based."""
        if not 1 <= i <= self.msa.m:
            raise MsaError(f"row index {i} out of range [1..{self.msa.m}]")
        if not 1 <= p <= self.row_alpha_lens[i - 1]:
            raise MsaError(
                f"offset {p} out of range [1..{self.row_alpha_lens[i - 1]}] for row {i}"
            )
        return int(self.isa[self.row_starts[i - 1] + p - 1])

    def leaf_origin(self, leaf: int) -> tuple[int, int]:
        """(row, offset) of a leaf rank, both 1-based."""
        return int(self.leaf_row[leaf]) + 1, int(self.leaf_off[leaf])

    def children(self, node: int) -> list[int]:
        """Children of a node in leaf order (computed on demand)."""
        kids = [v for v in range(self.n_nodes) if v != self.root and self.parent[v] == node]
        kids.sort(key=lambda v: int(self.lml[v]))
        return kids

    def path_label(self, node: int) -> str:
        """Decoded root-to-node label (terminators shown as $<row>)."""
        leaf = int(self.lml[node])
        start = int(self.sa[leaf])
        codes = self.text[start : start + int(self.string_depth[node])]
        inv = {v: k for k, v in self.sym_code.items()}
        return "".join(inv[c] if c in inv else f"${c}" for c in codes.tolist())


def build_gst(msa: Msa) -> Gst:
    """Build the generalized suffix tree of the gaps-removed rows."""
    return Gst(msa)
