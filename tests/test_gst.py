import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import efgseg as E
from efgseg import oracle as O
from efgseg.msa import _VALID, GAP, Msa, MsaError
from tests.conftest import SuffixTree, near_identical_msa


def suffix_codes(tree, leaf):
    """Leaf suffix as the code tuple up to and including the terminator."""
    start = int(tree.gst.sa[leaf])
    return tuple(tree.gst.text[start : start + int(tree.string_depth[leaf])].tolist())


def internal_labels(tree):
    return {
        tree.path_label(v)
        for v in range(tree.n_leaves, tree.n_nodes)
        if v != tree.root
    }


def test_two_distinct_singletons():
    tree = SuffixTree(E.build_gst(Msa.from_rows(["A", "C"])))
    assert tree.n_leaves == 4
    assert tree.n_nodes == 5  # root plus four leaf children
    assert all(int(tree.parent[leaf]) == tree.root for leaf in range(4))


def test_fixture_e_structure(msa_e):
    tree = SuffixTree(E.build_gst(msa_e))
    assert tree.n_leaves == 8
    assert internal_labels(tree) == {"AGC", "C", "GC"}


def test_aaa_structure(msa_aaa):
    tree = SuffixTree(E.build_gst(msa_aaa))
    assert tree.n_leaves == 4
    assert internal_labels(tree) == {"A", "AA"}
    labels = {tree.path_label(leaf) for leaf in range(4)}
    assert labels == {"$1", "A$1", "AA$1", "AAA$1"}


def test_leaf_count_invariant():
    for seed in range(20):
        msa = O.generate_msa(O.RandomMsaSpec(seed=seed, m=4, n=18))
        tree = SuffixTree(E.build_gst(msa))
        expected = sum(len(row.replace("-", "")) + 1 for row in msa.rows)
        assert tree.n_leaves == expected


def test_leaf_order_is_lexicographic():
    for seed in range(20):
        msa = O.generate_msa(O.RandomMsaSpec(seed=seed + 40, m=3, n=15, sigma=2))
        tree = SuffixTree(E.build_gst(msa))
        suffixes = [suffix_codes(tree, leaf) for leaf in range(tree.n_leaves)]
        assert suffixes == sorted(suffixes)
        assert len(set(suffixes)) == len(suffixes)


def test_tree_shape_invariants():
    for seed in range(15):
        msa = O.generate_msa(O.RandomMsaSpec(seed=seed + 80, m=4, n=12, sigma=2))
        tree = SuffixTree(E.build_gst(msa))
        assert int(tree.string_depth[tree.root]) == 0
        assert int(tree.lml[tree.root]) == 0 and int(tree.rml[tree.root]) == tree.n_leaves - 1
        for v in range(tree.n_nodes):
            if v == tree.root:
                continue
            p = int(tree.parent[v])
            assert tree.string_depth[p] < tree.string_depth[v]
            assert tree.lml[p] <= tree.lml[v] and tree.rml[v] <= tree.rml[p]
        for v in range(tree.n_leaves, tree.n_nodes):
            kids = tree.children(v)
            assert len(kids) >= 2
            # child intervals tile the parent interval, in order
            cur = int(tree.lml[v])
            for c in kids:
                assert int(tree.lml[c]) == cur
                cur = int(tree.rml[c]) + 1
            assert cur == int(tree.rml[v]) + 1


def test_internal_label_is_lcp_of_interval():
    msa = O.generate_msa(O.RandomMsaSpec(seed=5, m=3, n=14, sigma=2))
    tree = SuffixTree(E.build_gst(msa))
    for v in range(tree.n_leaves, tree.n_nodes):
        d = int(tree.string_depth[v])
        left = suffix_codes(tree, int(tree.lml[v]))
        right = suffix_codes(tree, int(tree.rml[v]))
        h = 0
        while h < min(len(left), len(right)) and left[h] == right[h]:
            h += 1
        assert h == d


def test_leaf_for_and_origin(msa_e):
    tree = SuffixTree(E.build_gst(msa_e))
    leaf = tree.leaf_for(1, 1)
    assert tree.path_label(leaf) == "AGC$1"
    assert tree.leaf_origin(leaf) == (1, 1)
    assert tree.path_label(tree.leaf_for(1, 4)) == "$1"
    with pytest.raises(MsaError):
        tree.leaf_for(1, 5)
    with pytest.raises(MsaError):
        tree.leaf_for(3, 1)


def test_leaf_suffix_link_property():
    for seed in range(10):
        msa = O.generate_msa(O.RandomMsaSpec(seed=seed + 200, m=3, n=12))
        tree = SuffixTree(E.build_gst(msa))
        for i in range(1, msa.m + 1):
            alen = int(tree.row_lens[i - 1])
            for p in range(1, alen):
                cur = suffix_codes(tree, tree.leaf_for(i, p))
                nxt = suffix_codes(tree, tree.leaf_for(i, p + 1))
                assert cur[1:] == nxt


def test_leaf_for_terminator_twins_adjacent(msa_e):
    # both rows spell AGC, so their full suffixes differ only in the
    # terminator, which sorts in row order
    tree = SuffixTree(E.build_gst(msa_e))
    a = tree.leaf_for(1, 1)
    b = tree.leaf_for(2, 1)
    assert b == a + 1 and tree.path_label(a).startswith("AGC")



def lcp_bound_inputs():
    for seed in range(300):
        rng = random.Random(seed + 700)
        yield O.generate_msa(O.RandomMsaSpec(
            seed=seed + 700, m=rng.randint(1, 8), n=rng.randint(1, 40),
            sigma=rng.choice([1, 2, 4]), gap_prob=rng.choice([0.0, 0.2, 0.5]),
        ))
    for seed in range(40):
        rng = random.Random(seed)
        yield near_identical_msa(
            seed + 800, rng.randint(2, 12), rng.randint(1, 80),
            snp_rate=rng.choice([0.0, 0.02, 0.1]), gap_rate=rng.choice([0.0, 0.05, 0.3]),
        )


def test_lcp_never_crosses_a_terminator():
    # the column sweep reads columns[sa[q] + D] and relies on D staying at
    # most the symbols left before the row's terminator, which holds because
    # every row has its own terminator code
    for msa in lcp_bound_inputs():
        gst = E.build_gst(msa)
        left = []  # per text position: symbols before the row's terminator
        for row in msa.rows:
            spelled = len(row.replace("-", ""))
            left += list(range(spelled, -1, -1))
        assert len(left) == len(gst.sa)
        sa, lcp = gst.sa.tolist(), gst.lcp.tolist()
        for r in range(1, len(sa)):
            assert lcp[r] <= min(left[sa[r - 1]], left[sa[r]]), (msa.rows, r)


@st.composite
def symbol_msas(draw):
    """Rows over every byte a row may hold, each with a non-gap: digits,
    punctuation and GAP, and lower case, which Msa.from_rows would fold."""
    n = draw(st.integers(1, 8))
    row = st.text(st.sampled_from(_VALID.decode("ascii")), min_size=n, max_size=n)
    rows = draw(st.lists(row.filter(lambda r: r.count(GAP) < n), min_size=1, max_size=5))
    return Msa(rows=tuple(rows), names=tuple(f"r{i}" for i in range(1, len(rows) + 1)))


@settings(deadline=None, max_examples=300)
@given(symbol_msas())
def test_layout_codes_symbols_in_sorted_order(msa):
    m, n = msa.m, msa.n
    symbols = sorted(set("".join(msa.rows)) - {GAP})
    code = {c: m + 1 + k for k, c in enumerate(symbols)}
    text, columns, row_starts = [], [], []
    for i, row in enumerate(msa.rows, start=1):
        row_starts.append(len(text))
        for x, c in enumerate(row, start=1):
            if c != GAP:
                text.append(code[c])
                columns.append(x)
        text.append(i)  # terminator of row i, in the virtual column n + 1
        columns.append(n + 1)
    gst = E.build_gst(msa)
    assert gst.text.tolist() == text
    assert gst.columns.tolist() == columns
    assert gst.row_starts.tolist() == row_starts
