import pytest

import efgseg as E
from efgseg import oracle as O
from efgseg.dp import Segmentation
from efgseg.msa import Msa
from tests.conftest import SuffixTree, oracle_exclusive_ancestors


def test_segment_examples(msa_e, msa_aaa):
    assert O.SegmentChecker(msa_e).is_valid(2, 3)
    assert not O.SegmentChecker(msa_e).is_valid(3, 4)
    assert not O.SegmentChecker(msa_aaa).is_valid(1, 1)


def test_segment_empty_spell_is_invalid(msa_e):
    assert not O.SegmentChecker(msa_e).is_valid(3, 3)  # row 1 spells ""


def test_segment_range_errors(msa_e):
    with pytest.raises(ValueError):
        O.SegmentChecker(msa_e).is_valid(0, 2)
    with pytest.raises(ValueError):
        O.SegmentChecker(msa_e).is_valid(3, 5)


def test_minimal_extension_examples(msa_e):
    assert O.oracle_minimal_right_extension(msa_e, 1) == 3
    assert O.oracle_minimal_right_extension(msa_e, 2) == 5
    assert O.oracle_minimal_right_extension(Msa.from_rows(["A", "C"]), 0) == 1
    with pytest.raises(ValueError):
        O.oracle_minimal_right_extension(msa_e, 4)


def test_optimal_score_examples(msa_e, msa_aaa):
    assert O.oracle_optimal_score(msa_e, O.MAXBLOCKS) == 3
    assert O.oracle_optimal_score(msa_e, O.MINMAXLEN) == 2
    assert O.oracle_optimal_score(msa_aaa, O.MAXBLOCKS) == 1
    with pytest.raises(ValueError):
        O.oracle_optimal_score(msa_e, "bogus")
    # no segment of this alignment is valid, so the DP never scores one
    unsegmentable = Msa.from_rows(["A-B-", "AABB"])
    assert O.oracle_optimal_score(unsegmentable, O.MINMAXLEN) is None
    with pytest.raises(ValueError, match="unknown scheme 'bogus'"):
        O.oracle_optimal_score(unsegmentable, "bogus")


def test_segmentation_score_rejects_unknown_scheme():
    blocks = [(1, 2), (3, 3)]
    assert O.oracle_segmentation_score(blocks, O.MAXBLOCKS) == 2
    assert O.oracle_segmentation_score(blocks, O.MINMAXLEN) == 2
    with pytest.raises(ValueError, match="unknown scheme 'bogus'"):
        O.oracle_segmentation_score(blocks, "bogus")


def test_exclusive_ancestors_examples(msa_e):
    tree = SuffixTree(E.build_gst(msa_e))
    assert oracle_exclusive_ancestors(tree, range(tree.n_leaves)) == {tree.root}
    leaf = tree.leaf_for(1, 2)
    assert oracle_exclusive_ancestors(tree, [leaf]) == {leaf}
    # the "C" and "GC" leaves have terminator twins outside the query, so
    # they are their own exclusive ancestors
    c1, gc2 = tree.leaf_for(1, 3), tree.leaf_for(2, 2)
    assert oracle_exclusive_ancestors(tree, [c1, gc2]) == {c1, gc2}
    # both full-depth twins collapse to the internal "AGC" node
    got = oracle_exclusive_ancestors(tree, [tree.leaf_for(1, 1), tree.leaf_for(2, 1)])
    assert len(got) == 1
    assert tree.path_label(got.pop()) == "AGC"


def test_efg_oracle_examples(msa_e, msa_aaa):
    seg = Segmentation(blocks=[(1, 1), (2, 3), (4, 4)], score=2, scheme="minmaxlen")
    efg = E.build_efg(msa_e, seg)
    assert O.oracle_efg_semi_repeat_free(efg, 3)
    bad = E.build_efg(msa_aaa, Segmentation(blocks=[(1, 1), (2, 2), (3, 3)], score=1, scheme="x"))
    assert not O.oracle_efg_semi_repeat_free(bad, 3)
    single = E.build_efg(Msa.from_rows(["AC"]), Segmentation(blocks=[(1, 2)], score=2, scheme="x"))
    assert O.oracle_efg_semi_repeat_free(single, 2)


def test_generator_determinism():
    spec = O.RandomMsaSpec(seed=42, m=5, n=30, sigma=4, gap_prob=0.2)
    assert O.generate_msa(spec) == O.generate_msa(spec)
    other = O.generate_msa(O.RandomMsaSpec(seed=43, m=5, n=30))
    assert other != O.generate_msa(spec)


def test_generator_respects_spec():
    spec = O.RandomMsaSpec(seed=9, m=6, n=40, sigma=2, gap_prob=0.5)
    msa = O.generate_msa(spec)
    assert msa.m == 6 and msa.n == 40
    assert set("".join(msa.rows)) - {"-"} <= {"A", "C"}
    assert all(row.count("-") < msa.n for row in msa.rows)
