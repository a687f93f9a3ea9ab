import random

import pytest

import efgseg as E
from efgseg import oracle as O
from efgseg.ancestors import ArrayTree, solve
from tests.conftest import SuffixTree


def star(n_leaves=3):
    return ArrayTree({0: list(range(1, n_leaves + 1))})


def test_single_leaf_query():
    tree = star(3)
    res = solve(tree, [1])
    assert res.nodes() == [tree.leaf_nodes[1]]
    assert res.intervals() == [(1, 1)]


def test_subtree_is_single_ancestor():
    # root -> {v, leaf}, v -> {3 leaves}: querying v's leaves returns v
    tree = ArrayTree({0: [1, 2], 1: [3, 4, 5]})
    res = solve(tree, [0, 1, 2])  # ranks of leaves 3,4,5
    assert res.nodes() == [1]
    assert res.intervals() == [(0, 2)]


def test_full_leaf_set_returns_root():
    tree = ArrayTree({0: [1, 2], 1: [3, 4], 2: [5, 6]})
    res = solve(tree, range(tree.n_leaves))
    assert res.nodes() == [0]


def test_gst_examples(msa_e):
    tree = SuffixTree(E.build_gst(msa_e))
    # the two "C"/"GC" leaves have terminator twins outside L, so they are
    # their own exclusive ancestors
    c1 = tree.leaf_for(1, 3)  # "C$1"
    gc2 = tree.leaf_for(2, 2)  # "GC$2"
    res = solve(tree, [c1, gc2])
    assert set(res.nodes()) == {c1, gc2}
    # both full-depth twins collapse to the internal "AGC" node
    res = solve(tree, [tree.leaf_for(1, 1), tree.leaf_for(2, 1)])
    nodes = res.nodes()
    assert len(nodes) == 1
    assert tree.path_label(nodes[0]) == "AGC"


def test_empty_query_rejected():
    with pytest.raises(ValueError):
        solve(star(), [])
    with pytest.raises(ValueError):
        solve(star(), [99])


def test_array_tree_validation():
    with pytest.raises(ValueError, match="single child"):
        ArrayTree({0: [1], 1: []})
    with pytest.raises(ValueError, match="dense"):
        ArrayTree({0: [2, 3]})


def test_random_trees_match_oracle():
    for seed in range(300):
        rng = random.Random(seed * 31 + 5)
        children = O.generate_tree_children(seed, max_nodes=rng.choice([8, 40, 200]))
        tree = ArrayTree(children)
        size = rng.randint(1, tree.n_leaves)
        query = rng.sample(range(tree.n_leaves), size)
        res = solve(tree, query)
        assert set(res.nodes()) == O.oracle_exclusive_ancestors(tree, query), seed
        covered = set()
        for lo, hi in res.intervals():
            leaves = set(range(lo, hi + 1))
            assert not (covered & leaves)  # disjoint
            covered |= leaves
        assert covered == set(query)


def test_minimality_random():
    # parent of each reported node covers a leaf outside the query
    for seed in range(50):
        rng = random.Random(seed + 1000)
        tree = ArrayTree(O.generate_tree_children(seed + 77, max_nodes=60))
        query = set(rng.sample(range(tree.n_leaves), rng.randint(1, tree.n_leaves - 1)))
        res = solve(tree, query)
        for node in res.nodes():
            p = int(tree.parent[node])
            parent_leaves = set(range(int(tree.lml[p]), int(tree.rml[p]) + 1))
            assert not parent_leaves <= query


def test_work_bound():
    for seed in range(100):
        rng = random.Random(seed + 2000)
        tree = ArrayTree(O.generate_tree_children(seed, max_nodes=200))
        size = rng.randint(1, tree.n_leaves)
        query = rng.sample(range(tree.n_leaves), size)
        res = solve(tree, query)
        assert res.op_count <= 16 * size + 16, (seed, res.op_count, size)
