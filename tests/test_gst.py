import numpy as np
import pytest

import efgseg as E
from efgseg import oracle as O
from efgseg.ancestors import solve
from efgseg.msa import Msa, MsaError
from tests.conftest import leaf_tree


def suffix_codes(gst, leaf):
    """Leaf suffix as the code tuple up to and including the terminator."""
    start = int(gst.sa[leaf])
    return tuple(gst.text[start : start + int(gst.string_depth[leaf])].tolist())


def internal_labels(gst):
    return {
        gst.path_label(v)
        for v in range(gst.n_leaves, gst.n_nodes)
        if v != gst.root
    }


def test_two_distinct_singletons():
    gst = E.build_gst(Msa.from_rows(["A", "C"]))
    assert gst.n_leaves == 4
    assert gst.n_nodes == 5  # root plus four leaf children
    assert all(int(gst.parent[leaf]) == gst.root for leaf in range(4))


def test_fixture_e_structure(msa_e):
    gst = E.build_gst(msa_e)
    assert gst.n_leaves == 8
    assert internal_labels(gst) == {"AGC", "C", "GC"}


def test_aaa_structure(msa_aaa):
    gst = E.build_gst(msa_aaa)
    assert gst.n_leaves == 4
    assert internal_labels(gst) == {"A", "AA"}
    labels = {gst.path_label(leaf) for leaf in range(4)}
    assert labels == {"$1", "A$1", "AA$1", "AAA$1"}


def test_leaf_count_invariant():
    for seed in range(20):
        msa = O.generate_msa(O.RandomMsaSpec(seed=seed, m=4, n=18))
        gst = E.build_gst(msa)
        expected = sum(len(row.replace("-", "")) + 1 for row in msa.rows)
        assert gst.n_leaves == expected


def test_leaf_order_is_lexicographic():
    for seed in range(20):
        msa = O.generate_msa(O.RandomMsaSpec(seed=seed + 40, m=3, n=15, sigma=2))
        gst = E.build_gst(msa)
        suffixes = [suffix_codes(gst, leaf) for leaf in range(gst.n_leaves)]
        assert suffixes == sorted(suffixes)
        assert len(set(suffixes)) == len(suffixes)


def test_tree_shape_invariants():
    for seed in range(15):
        msa = O.generate_msa(O.RandomMsaSpec(seed=seed + 80, m=4, n=12, sigma=2))
        gst = E.build_gst(msa)
        assert int(gst.string_depth[gst.root]) == 0
        assert int(gst.lml[gst.root]) == 0 and int(gst.rml[gst.root]) == gst.n_leaves - 1
        for v in range(gst.n_nodes):
            if v == gst.root:
                continue
            p = int(gst.parent[v])
            assert gst.string_depth[p] < gst.string_depth[v]
            assert gst.lml[p] <= gst.lml[v] and gst.rml[v] <= gst.rml[p]
        for v in range(gst.n_leaves, gst.n_nodes):
            kids = gst.children(v)
            assert len(kids) >= 2
            # child intervals tile the parent interval, in order
            cur = int(gst.lml[v])
            for c in kids:
                assert int(gst.lml[c]) == cur
                cur = int(gst.rml[c]) + 1
            assert cur == int(gst.rml[v]) + 1


def test_internal_label_is_lcp_of_interval():
    msa = O.generate_msa(O.RandomMsaSpec(seed=5, m=3, n=14, sigma=2))
    gst = E.build_gst(msa)
    for v in range(gst.n_leaves, gst.n_nodes):
        d = int(gst.string_depth[v])
        left = suffix_codes(gst, int(gst.lml[v]))
        right = suffix_codes(gst, int(gst.rml[v]))
        h = 0
        while h < min(len(left), len(right)) and left[h] == right[h]:
            h += 1
        assert h == d


def test_leaf_for_and_origin(msa_e):
    gst = E.build_gst(msa_e)
    leaf = gst.leaf_for(1, 1)
    assert gst.path_label(leaf) == "AGC$1"
    assert gst.leaf_origin(leaf) == (1, 1)
    assert gst.path_label(gst.leaf_for(1, 4)) == "$1"
    with pytest.raises(MsaError):
        gst.leaf_for(1, 5)
    with pytest.raises(MsaError):
        gst.leaf_for(3, 1)


def test_leaf_suffix_link_property():
    for seed in range(10):
        msa = O.generate_msa(O.RandomMsaSpec(seed=seed + 200, m=3, n=12))
        gst = E.build_gst(msa)
        for i in range(1, msa.m + 1):
            alen = int(gst.row_alpha_lens[i - 1])
            for p in range(1, alen):
                cur = suffix_codes(gst, gst.leaf_for(i, p))
                nxt = suffix_codes(gst, gst.leaf_for(i, p + 1))
                assert cur[1:] == nxt


def test_leaf_for_terminator_twins_adjacent(msa_e):
    # both rows spell AGC, so their full suffixes differ only in the
    # terminator, which sorts in row order
    gst = E.build_gst(msa_e)
    a = gst.leaf_for(1, 1)
    b = gst.leaf_for(2, 1)
    assert b == a + 1 and gst.path_label(a).startswith("AGC")


def test_marks(msa_e):
    # ancestors.solve reads and writes the leaf marks of the suffix tree;
    # premarked ones belong to the caller and stay set
    gst = E.build_gst(msa_e)
    tree = leaf_tree(gst)
    c1 = gst.leaf_for(1, 3)  # "C$1"
    gc2 = gst.leaf_for(2, 2)  # "GC$2"
    tree.marked[[c1, gc2]] = True
    res = solve(tree, [c1, gc2], premarked=True)
    assert set(res.nodes()) == {c1, gc2}
    assert np.flatnonzero(tree.marked).tolist() == sorted([c1, gc2])
    tree.marked[:] = False
    solve(tree, [c1, gc2])
    assert not tree.marked.any()
