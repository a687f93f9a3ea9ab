"""The exclusive-ancestor problem on the generalized suffix tree.

The column sweep answers it on the enhanced suffix array; its loop
reference climbs the materialised suffix tree with ``_ascend_run``. These
tests hold that climb to the oracle's exclusive ancestors.
"""

import random

import efgseg as E
from efgseg import oracle as O
from tests.conftest import SuffixTree, oracle_exclusive_ancestors
from tests.test_extensions import _ascend_run


def climb(tree, leaf_ranks):
    """Exclusive ancestors of a leaf set, one climb per run of consecutive ranks.

    Returns the ``[(node, (lo, hi))]`` list and the number of climb steps.
    The full leaf set is the root's, which has no parent to climb to.
    """
    ranks = sorted(set(int(r) for r in leaf_ranks))
    if len(ranks) == tree.n_leaves:
        return [(int(tree.root), (0, tree.n_leaves - 1))], 0
    out = []
    ops = 0
    start = 0
    for k in range(1, len(ranks) + 1):
        if k == len(ranks) or ranks[k] != ranks[k - 1] + 1:
            run, steps = _ascend_run(
                tree.parent, tree.lml, tree.rml, tree.leaf_nodes, ranks[start], ranks[k - 1]
            )
            out.extend(run)
            ops += steps
            start = k
    return out, ops


def random_trees(count, base_seed):
    for seed in range(count):
        rng = random.Random(base_seed + seed)
        spec = O.RandomMsaSpec(
            seed=base_seed + seed, m=rng.randint(1, 6), n=rng.randint(1, 24), sigma=rng.choice([2, 4])
        )
        yield rng, SuffixTree(E.build_gst(O.generate_msa(spec)))


def test_single_leaf_query(msa_e):
    tree = SuffixTree(E.build_gst(msa_e))
    for leaf in range(tree.n_leaves):
        out, _ = climb(tree, [leaf])
        assert out == [(leaf, (leaf, leaf))]
        assert oracle_exclusive_ancestors(tree, [leaf]) == {leaf}


def test_subtree_is_single_ancestor(msa_e):
    # querying exactly the leaves under v returns v
    tree = SuffixTree(E.build_gst(msa_e))
    for v in range(tree.n_leaves, tree.n_nodes):
        lo, hi = int(tree.lml[v]), int(tree.rml[v])
        out, _ = climb(tree, range(lo, hi + 1))
        assert out == [(v, (lo, hi))]
        assert oracle_exclusive_ancestors(tree, range(lo, hi + 1)) == {v}


def test_full_leaf_set_returns_root(msa_e):
    tree = SuffixTree(E.build_gst(msa_e))
    out, _ = climb(tree, range(tree.n_leaves))
    assert [node for node, _ in out] == [tree.root]
    assert oracle_exclusive_ancestors(tree, range(tree.n_leaves)) == {tree.root}


def test_gst_examples(msa_e):
    tree = SuffixTree(E.build_gst(msa_e))
    # the two "C"/"GC" leaves have terminator twins outside L, so they are
    # their own exclusive ancestors
    c1 = tree.leaf_for(1, 3)  # "C$1"
    gc2 = tree.leaf_for(2, 2)  # "GC$2"
    out, _ = climb(tree, [c1, gc2])
    assert {node for node, _ in out} == {c1, gc2}
    # both full-depth twins collapse to the internal "AGC" node
    out, _ = climb(tree, [tree.leaf_for(1, 1), tree.leaf_for(2, 1)])
    assert len(out) == 1
    assert tree.path_label(out[0][0]) == "AGC"


def test_random_trees_match_oracle():
    for seed, (rng, tree) in enumerate(random_trees(300, base_seed=5_000)):
        size = rng.randint(1, tree.n_leaves)
        query = rng.sample(range(tree.n_leaves), size)
        out, _ = climb(tree, query)
        assert {node for node, _ in out} == oracle_exclusive_ancestors(tree, query), seed
        covered = set()
        for node, (lo, hi) in out:
            assert (lo, hi) == (int(tree.lml[node]), int(tree.rml[node]))
            leaves = set(range(lo, hi + 1))
            assert not (covered & leaves)  # disjoint
            covered |= leaves
        assert covered == set(query)


def test_minimality_random():
    # parent of each reported node covers a leaf outside the query
    for rng, tree in random_trees(50, base_seed=6_000):
        if tree.n_leaves < 2:
            continue
        query = set(rng.sample(range(tree.n_leaves), rng.randint(1, tree.n_leaves - 1)))
        out, _ = climb(tree, query)
        for node, _ in out:
            p = int(tree.parent[node])
            parent_leaves = set(range(int(tree.lml[p]), int(tree.rml[p]) + 1))
            assert not parent_leaves <= query


def test_work_bound():
    # every internal node has at least two children, so each successful step
    # adds a leaf to the climb and each failed one emits an ancestor
    for rng, tree in random_trees(100, base_seed=7_000):
        size = rng.randint(1, tree.n_leaves)
        query = rng.sample(range(tree.n_leaves), size)
        _, ops = climb(tree, query)
        assert ops <= 2 * size, (ops, size)
