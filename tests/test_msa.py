import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from efgseg import msa as msa_module
from efgseg import oracle as O
from efgseg.gst import build_gst
from efgseg.msa import (
    DP_LIMIT,
    GAP,
    RANK_LIMIT,
    GapIndex,
    Msa,
    MsaError,
    check_size_limits,
    parse_aligned_fasta,
    to_fasta,
)
from tests import loop_reference
from tests.conftest import spell


def test_parse_basic():
    msa = parse_aligned_fasta(">r1\nAG-C\n>r2\nA-GC\n")
    assert msa.m == 2 and msa.n == 4
    assert msa.rows == ("AG-C", "A-GC")
    assert msa.names == ("r1", "r2")


def test_parse_multiline_and_case():
    msa = parse_aligned_fasta(">x\nag\n-c\n>y\nACGT\n")
    assert msa.rows == ("AG-C", "ACGT")


def test_parse_bytes():
    msa = parse_aligned_fasta(b">r1\nAC\n")
    assert msa.rows == ("AC",)


def test_parse_unequal_lengths():
    with pytest.raises(MsaError, match="r2"):
        parse_aligned_fasta(">r1\nAGC\n>r2\nAG\n")


def test_parse_all_gap_row():
    with pytest.raises(MsaError, match="gap"):
        parse_aligned_fasta(">r1\n----\n")


def test_parse_empty_input():
    with pytest.raises(MsaError):
        parse_aligned_fasta("")
    with pytest.raises(MsaError):
        parse_aligned_fasta("\n\n")


def test_parse_rejects_bad_symbols():
    with pytest.raises(MsaError):
        parse_aligned_fasta(">r1\nA C\n>r2\nAGC\n")
    with pytest.raises(MsaError):
        Msa.from_rows(["A>C"])


def test_raw_dot_rejected_and_read_as_gap_by_from_rows():
    with pytest.raises(MsaError, match="invalid symbol '.'"):
        Msa(rows=("A.C",), names=("r1",))
    assert Msa.from_rows(["a.c", "AGC"]).rows == ("A-C", "AGC")
    assert parse_aligned_fasta(">r1\nA.C\n>r2\nAGC\n").rows == ("A-C", "AGC")
    with pytest.raises(MsaError, match="gap"):
        parse_aligned_fasta(">r1\n..-\n")


def per_character_check(rows, names):
    """The row checks of Msa as one loop per character: the MsaError text
    for the first failing row, or None. A symbol is valid when it is the gap
    or printable ASCII other than '>' and '.'."""
    n = len(rows[0])
    if n == 0:
        return f"row '{names[0]}' is empty"
    for name, row in zip(names, rows):
        if len(row) != n:
            return f"row '{name}' has length {len(row)}, expected {n}"
        for c in row:
            if c != GAP and not (33 <= ord(c) <= 126 and c not in ">."):
                return f"row '{name}' contains invalid symbol {c!r}"
        if row.count(GAP) == n:
            return f"row '{name}' consists only of gap symbols"
    return None


VALID_SYMBOLS = "ACGTNacgtn-~!*"
ODD_SYMBOLS = st.one_of(
    st.sampled_from(list(VALID_SYMBOLS + ".>\r\n\t \x7f\x00\x1f\"\\é\u00a0\u2028")),
    st.characters(),
)


@st.composite
def row_sets(draw):
    n = draw(st.integers(0, 8))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        symbols = draw(st.sampled_from([st.sampled_from(VALID_SYMBOLS), ODD_SYMBOLS]))
        size = n + draw(st.sampled_from([0, 0, 0, 1]))
        rows.append(draw(st.text(symbols, min_size=size, max_size=size)))
    return rows


@settings(deadline=None)
@given(row_sets())
def test_symbol_check_matches_per_character_rule(rows):
    names = tuple(f"r{i}" for i in range(1, len(rows) + 1))
    want = per_character_check(rows, names)
    if want is None:
        msa = Msa(rows=tuple(rows), names=names)
        assert msa.cells.tobytes() == "".join(rows).encode("ascii")
    else:
        with pytest.raises(MsaError) as exc:
            Msa(rows=tuple(rows), names=names)
        assert str(exc.value) == want


@settings(deadline=None)
@given(st.data())
def test_parse_line_endings_case_and_blank_lines(data):
    n = data.draw(st.integers(1, 10))
    rows = data.draw(st.lists(st.text("ACGTacgt-.", min_size=n, max_size=n), min_size=1, max_size=4))
    headers = data.draw(st.lists(st.text("ab1 \t", max_size=5), min_size=len(rows), max_size=len(rows)))
    eol = data.draw(st.sampled_from(["\n", "\r\n"]))
    width = data.draw(st.integers(1, n))
    blank = data.draw(st.sampled_from(["", eol, " " + eol]))
    def fasta(rows):
        lines = []
        for header, row in zip(headers, rows):
            lines.append(">" + header)
            lines.extend(row[k : k + width] for k in range(0, n, width))
            lines.append(blank)
        return eol.join(lines)

    text = fasta(rows)
    want_rows = tuple(row.upper().replace(".", GAP) for row in rows)
    names = tuple(h.strip() or f"r{k}" for k, h in enumerate(headers, start=1))
    if any(row.count(GAP) == n for row in want_rows):
        with pytest.raises(MsaError, match="gap"):
            parse_aligned_fasta(text)
        return
    for data_in in (text, text.encode("ascii")):
        msa = parse_aligned_fasta(data_in)
        assert msa.rows == want_rows and msa.names == names
    # a non-ASCII symbol fails as text (MsaError) and as bytes (decode error)
    bad = fasta(["€" + rows[0][1:]] + rows[1:])
    with pytest.raises(MsaError, match="invalid symbol '€'"):
        parse_aligned_fasta(bad)
    with pytest.raises(UnicodeDecodeError):
        parse_aligned_fasta(bad.encode("utf-8"))


def test_non_ascii_rejected_before_upper_casing():
    # str.upper rewrites these letters into ASCII: "ß" into "SS", "ﬁ" into "FI"
    with pytest.raises(MsaError, match="^row 'r1' contains invalid symbol 'ß'$"):
        Msa.from_rows(["ß", "AA"])
    with pytest.raises(MsaError, match="^row 'a' contains invalid symbol 'ﬁ'$"):
        parse_aligned_fasta(">a\nAﬁ\n>b\nACG\n")
    # the first bad row is still named first, whatever its fault
    with pytest.raises(MsaError, match="^row 'r2' contains invalid symbol 'é'$"):
        Msa.from_rows(["ac", "aé", "A"])
    with pytest.raises(MsaError, match="^row 'r2' has length 1, expected 2$"):
        Msa.from_rows(["ac", "a", "ß"])
    assert Msa.from_rows(["ac.", "Tg-"]).rows == ("AC-", "TG-")


# every line break str.splitlines knows, ASCII and not
LINE_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028"]
PAD = st.sampled_from(["", "", " ", "\t", " \t "])


@st.composite
def fasta_texts(draw):
    """Aligned FASTA of short rows, now and then of another length, with an
    invalid symbol or only gaps, written with any line breaks, wrapped,
    blank and padded lines, and now and then a line before the first header
    or no header at all."""
    lines = []
    if draw(st.integers(0, 9)) == 0:
        lines.append(draw(st.sampled_from(["AC", " ", "", "a-"])))
    n = draw(st.integers(1, 6))
    for _ in range(draw(st.integers(0 if draw(st.integers(0, 9)) == 0 else 1, 4))):
        lines.append(">" + draw(st.text("ab1 \t>*", max_size=4)))
        size = n if draw(st.integers(0, 5)) else draw(st.integers(0, n + 1))
        symbols = draw(st.sampled_from(["ACGTacgt-.", "ACGTacgt-.", "A-", "AC- \t>!~\x7f\x00"]))
        row = draw(st.text(symbols, min_size=size, max_size=size))
        cuts = sorted(draw(st.lists(st.integers(0, size), max_size=2)))
        lines.extend(row[a:b] for a, b in zip([0, *cuts], [*cuts, size]))
        if draw(st.booleans()):
            lines.append(draw(st.sampled_from(["", " ", "\t"])))
    breaks = st.sampled_from(LINE_BREAKS)
    return "".join(draw(PAD) + line + draw(PAD) + draw(breaks) for line in lines)


@settings(deadline=None, max_examples=400)
@given(fasta_texts())
def test_parse_matches_loop_reference(text):
    try:
        want = loop_reference.parse_aligned_fasta(text)
    except MsaError as exc:
        with pytest.raises(MsaError) as got:
            parse_aligned_fasta(text)
        assert str(got.value) == str(exc)
        return
    msa = parse_aligned_fasta(text)
    assert (msa.rows, msa.names) == want
    if text.isascii():
        assert parse_aligned_fasta(text.encode("ascii")) == msa


def test_parse_sequence_before_header():
    with pytest.raises(MsaError):
        parse_aligned_fasta("AGC\n>r1\nAGC\n")


def test_names_rows_length_mismatch():
    with pytest.raises(MsaError, match="names"):
        Msa(rows=("AC", "AC"), names=("only-one",))


def test_alignment_without_rows_is_rejected():
    with pytest.raises(MsaError, match="^alignment has no rows$"):
        Msa(rows=(), names=())


def test_roundtrip_identity():
    text = ">r1\nAG-C\n>r2\nA-GC\n"
    assert to_fasta(parse_aligned_fasta(text)) == text


def test_spell_examples(msa_e):
    assert spell(msa_e, 2, 2, 3) == "G"
    assert spell(msa_e, 1, 3, 3) == ""
    assert spell(msa_e, 1, 1, 4) == "AGC"
    assert spell(msa_e, 1, 2, 1) == ""  # x = y + 1


def test_spell_range_errors(msa_e):
    with pytest.raises(MsaError):
        spell(msa_e, 3, 1, 1)
    with pytest.raises(MsaError):
        spell(msa_e, 1, 0, 2)
    with pytest.raises(MsaError):
        spell(msa_e, 1, 1, 5)


def expected_columns(msa):
    """Gst.columns from a loop over the rows: each non-gap's column, then
    n + 1 for the row's terminator."""
    cols = []
    for row in msa.rows:
        cols += [x for x in range(1, msa.n + 1) if row[x - 1] != GAP] + [msa.n + 1]
    return cols


def test_gap_index_arrays_fixture_e(msa_e):
    gi = GapIndex(msa_e)  # rows "AG-C" and "A-GC"
    assert msa_e.cells.tolist() == [list(b"AG-C"), list(b"A-GC")]
    assert not msa_e.cells.flags.writeable
    assert gi.rank2d.dtype == np.int32
    assert gi.rank2d.tolist() == [[0, 1, 2, 2, 3], [0, 1, 1, 2, 3]]
    gst = build_gst(msa_e)
    assert gst.columns.dtype == np.int32
    assert gst.columns.tolist() == expected_columns(msa_e) == [1, 2, 4, 5, 1, 3, 4, 5]


def test_rank_select_consistency_random():
    for seed in range(40):
        rng = random.Random(seed)
        msa = O.generate_msa(O.RandomMsaSpec(seed=seed, m=rng.randint(1, 5), n=rng.randint(1, 30)))
        gi = GapIndex(msa)
        n = msa.n
        assert gi.rank2d.shape == (msa.m, n + 1)
        for i, row in enumerate(msa.rows):
            rank = gi.rank2d[i].tolist()
            assert rank[0] == 0
            assert rank[n] == len(row.replace(GAP, ""))
            for x in range(1, n + 1):
                assert rank[x] == rank[x - 1] + (row[x - 1] != GAP)  # one step per non-gap
        gst = build_gst(msa)
        assert gst.columns.tolist() == expected_columns(msa)
        # the k-th symbol of row i sits at text position row_starts[i] + k - 1
        for i, row in enumerate(msa.rows):
            start, rank = int(gst.row_starts[i]), gi.rank2d[i].tolist()
            for x in range(1, n + 1):
                if row[x - 1] != GAP:
                    assert gst.columns[start + rank[x] - 1] == x


def test_segment_start_monotone_random():
    # the spelling of a segment [x, y] of row i starts at position rank2d[i, x - 1] + 1
    for seed in range(20):
        msa = O.generate_msa(O.RandomMsaSpec(seed=seed + 100, m=3, n=25))
        gi = GapIndex(msa)
        for i in range(1, msa.m + 1):
            row = msa.rows[i - 1]
            prev = int(gi.rank2d[i - 1, 0]) + 1
            assert prev == 1
            for x in range(2, msa.n + 2):
                cur = int(gi.rank2d[i - 1, x - 1]) + 1
                step = 1 if row[x - 2] != GAP else 0
                assert cur == prev + step
                prev = cur


def test_spell_concatenation_random():
    msa = O.generate_msa(O.RandomMsaSpec(seed=7, m=4, n=20))
    for i in range(1, msa.m + 1):
        for x in range(1, msa.n):
            for y in range(x, msa.n):
                for z in range(y + 1, msa.n + 1):
                    assert spell(msa, i, x, y) + spell(msa, i, y + 1, z) == spell(msa, i, x, z)
        break  # one row is enough for the cubic loop


def test_generated_roundtrip():
    msa = O.generate_msa(O.RandomMsaSpec(seed=3, m=4, n=15))
    assert parse_aligned_fasta(to_fasta(msa)) == msa


def test_size_limits():
    # called with sizes only: no alignment of that size is ever allocated
    check_size_limits(DP_LIMIT - 2, RANK_LIMIT - 1)  # the largest accepted sizes
    with pytest.raises(MsaError, match="columns"):
        check_size_limits(DP_LIMIT - 1, 100)
    with pytest.raises(MsaError, match="gaps-removed"):
        check_size_limits(100, RANK_LIMIT)


def test_size_limits_checked_by_pipeline(monkeypatch, tmp_path, capsys):
    from efgseg import cli

    path = tmp_path / "e.fa"
    path.write_text(">r1\nAG-C\n>r2\nA-GC\n")
    msa = parse_aligned_fasta(path.read_text())
    # n = 4 columns and N = 8 symbols, each one past a lowered limit
    monkeypatch.setattr(msa_module, "DP_LIMIT", 5)
    with pytest.raises(MsaError, match="columns"):
        GapIndex(msa)
    with pytest.raises(MsaError, match="columns"):
        build_gst(msa)
    assert cli.main(["export", str(path)]) == 1
    assert "columns" in capsys.readouterr().err
    monkeypatch.setattr(msa_module, "DP_LIMIT", 6)
    monkeypatch.setattr(msa_module, "RANK_LIMIT", 8)
    with pytest.raises(MsaError, match="gaps-removed"):
        GapIndex(msa)
    with pytest.raises(MsaError, match="gaps-removed"):
        build_gst(msa)
