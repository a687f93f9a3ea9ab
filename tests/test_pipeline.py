import pytest

import efgseg as E
from efgseg import pipeline as P
from efgseg.dp import MAXBLOCKS, MINMAXLEN, UnsegmentableError
from efgseg.msa import Msa


def test_stages_by_hand_agree(msa_e):
    gst = E.build_gst(msa_e)
    ext = E.compute_minimal_right_extensions(msa_e, E.GapIndex(msa_e), gst)
    for scheme in (MAXBLOCKS, MINMAXLEN):
        run = E.run_pipeline(msa_e, scheme)
        assert run.ext.f.tolist() == ext.f.tolist() == [1, 3, 5, 4]
        assert run.table.scheme == scheme
        assert run.table.s.tolist() == E.score(ext, scheme).s.tolist()
        assert run.segmentation() == E.traceback(E.score(ext, scheme), ext)


def test_no_scheme_no_table(msa_e):
    run = E.run_pipeline(msa_e)
    assert run.table is None
    with pytest.raises(ValueError, match="without a scheme"):
        run.segmentation()


def test_unknown_scheme_rejected(msa_e):
    with pytest.raises(ValueError, match="unknown scheme 'bogus'"):
        E.run_pipeline(msa_e, "bogus")


def test_unsegmentable_raises_on_segmentation():
    run = E.run_pipeline(Msa.from_rows(["A-B-", "AABB"]), MINMAXLEN)
    assert run.table.score() is None
    with pytest.raises(UnsegmentableError):
        run.segmentation()


def test_suffix_array_first_and_nothing_kept(msa_e, monkeypatch):
    # the gap index's rank matrix is not alive through the suffix array's
    # peak, and neither structure outlives the sweep
    built = []
    monkeypatch.setattr(P, "build_gst", lambda msa: built.append("gst") or E.build_gst(msa))
    monkeypatch.setattr(P, "GapIndex", lambda msa: built.append("gi") or E.GapIndex(msa))
    run = P.run_pipeline(msa_e, MAXBLOCKS)
    assert built == ["gst", "gi"]
    assert set(vars(run)) == {"ext", "table"}
