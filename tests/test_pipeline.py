import tracemalloc

import pytest

import efgseg as E
from efgseg import gst as G
from efgseg import pipeline as P
from efgseg.dp import MAXBLOCKS, MINMAXLEN, UnsegmentableError
from efgseg.msa import Msa
from tests.conftest import near_identical_msa


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


@pytest.mark.parametrize("shape", [(3, 32, 4000, 0.002, 0.001), (3, 16, 4000, 0.5, 0.2)])
def test_only_text_and_layout_mask_alive_at_suffix_array(shape, monkeypatch):
    # nothing of the text's size but the text itself is alive through the
    # suffix array's peak: only the (m, n + 1) bool layout mask joins it
    msa = near_identical_msa(*shape)
    seen, build = [], G.enhanced_suffix_array

    def traced(text, alphabet_size):
        seen.append((tracemalloc.get_traced_memory()[0], text.nbytes))
        return build(text, alphabet_size)

    monkeypatch.setattr(G, "enhanced_suffix_array", traced)
    tracemalloc.start()
    try:
        P.run_pipeline(msa)
    finally:
        tracemalloc.stop()
    [(live, text_bytes)] = seen
    besides = live - text_bytes
    assert besides <= msa.m * (msa.n + 1) + 16 * 1024, f"{besides} B alive besides the text"
