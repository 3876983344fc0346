"""Text formats: parsing with line-numbered errors, canonical writing, round trips."""

import warnings

import pytest
from hypothesis import given
from hypothesis import strategies as st

from plotkit.codefile import (
    ParseError,
    format_basis_file,
    format_code_file,
    parse_code_file,
    parse_gen_file,
)
from plotkit.core import Word, code_from_words
from plotkit.families import parity, random_code, reed_muller, universe
from plotkit.gf2 import Gf2Basis, rref, span_enumerate


def w(s):
    return Word.from_string(s)


def code(*strings):
    return code_from_words([w(s) for s in strings])


class TestParseCodeFile:
    def test_plain_words(self):
        assert parse_code_file("00\n11\n") == code("00", "11")

    def test_comments_and_blank_lines(self):
        assert parse_code_file("# header\n\n01\n# mid\n10\n") == code("01", "10")

    def test_duplicates_warn_and_collapse(self):
        with pytest.warns(UserWarning, match="line 3"):
            parsed = parse_code_file("# c\n01\n01\n")
        assert parsed == code("01")

    def test_ragged_rows(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_code_file("01\n011\n")

    def test_illegal_characters(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_code_file("0x\n")

    def test_empty_body(self):
        for text in ("", "# only comments\n"):
            with pytest.raises(ParseError, match="no codeword"):
                parse_code_file(text)


def parse_recording(parse, text):
    """Parse `text`, returning the result and every warning message in order."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        parsed = parse(text)
    return parsed, [str(x.message) for x in caught]


@st.composite
def written_codes(draw):
    """A code, the lines of a file that lists it with comments, blank lines,
    padding and repeated words, and the (line, word) of each repeat."""
    n = draw(st.integers(1, 8))
    words = draw(
        st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=20, unique=True)
    )
    body = draw(st.permutations(words + draw(st.lists(st.sampled_from(words)))))
    padding = st.sampled_from(["", " ", "  ", "\t"])
    filler = st.lists(st.sampled_from(["", "  ", "# note", " #01"]), max_size=2)
    lines, seen, repeats = [], set(), []
    for bits in body:
        lines += draw(filler)
        lines.append(draw(padding) + format(bits, f"0{n}b") + draw(padding))
        if bits in seen:
            repeats.append((len(lines), bits))
        seen.add(bits)
    return code_from_words([Word(n, b) for b in words]), lines, repeats


class TestOnePassReading:
    def test_an_illegal_line_after_a_repeat_raises_and_warns_nothing(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ParseError, match="^line 4: illegal characters"):
                parse_code_file("01\n01\n10\n0x\n")
        assert caught == []

    def test_each_later_occurrence_warns_once_in_file_order(self):
        parsed, messages = parse_recording(parse_code_file, "11\n00\n11\n00\n# c\n11\n")
        assert parsed == code("00", "11")
        assert messages == [
            "duplicate codeword 11 at line 3",
            "duplicate codeword 00 at line 4",
            "duplicate codeword 11 at line 6",
        ]

    def test_the_warning_points_at_the_caller(self):
        with pytest.warns(UserWarning) as record:
            parse_code_file("1\n1\n")
        assert record[0].filename == __file__

    def test_a_generator_file_with_repeated_rows_warns_nothing(self):
        parsed, messages = parse_recording(parse_gen_file, "110\n011\n110\n011\n")
        assert parsed == code("000", "011", "101", "110")
        assert messages == []

    @given(written_codes(), st.sampled_from(["\n", "\r\n"]), st.booleans())
    def test_round_trip_warns_at_exactly_the_repeated_lines(
        self, written, newline, trailing
    ):
        expected, lines, repeats = written
        text = newline.join(lines) + (newline if trailing else "")
        parsed, messages = parse_recording(parse_code_file, text)
        assert parsed == expected
        n = expected.n
        assert messages == [
            f"duplicate codeword {bits:0{n}b} at line {line}" for line, bits in repeats
        ]


class TestParseGenFile:
    def test_row_space_materialized(self):
        assert parse_gen_file("11\n01\n") == code("00", "01", "10", "11")

    def test_zero_rows_allowed(self):
        assert parse_gen_file("0000\n") == code_from_words([Word.zero(4)])

    def test_dimension_cap(self, monkeypatch):
        monkeypatch.setenv("PLOTKIN_MAX_ENUM", "4")
        with pytest.raises(ValueError, match="cap of 4"):
            parse_gen_file("100\n010\n001\n")


class TestCanonicalOutput:
    def test_header_then_sorted_lines(self):
        text = format_code_file(code("10", "01", "11"))
        assert text == "# code n=2 M=3\n01\n10\n11\n"

    def test_round_trip_on_mixed_corpus(self):
        corpus = [
            parity(5),
            reed_muller(1, 3),
            universe(3),
            code_from_words([Word.zero(6)]),
        ]
        corpus += [
            random_code(6, 1 + s % 20, seed=s, include_zero=s % 2 == 0)
            for s in range(30)
        ]
        for c in corpus:
            assert parse_code_file(format_code_file(c)) == c

    def test_basis_file_round_trips_through_gen_parser(self):
        basis = rref([w("1100"), w("0110"), w("0011")])
        assert parse_gen_file(format_basis_file(basis)) == span_enumerate(basis)

    def test_zero_dimensional_basis_file(self):
        text = format_basis_file(Gf2Basis(3, ()))
        assert "dim=0" in text
        assert parse_gen_file(text) == code_from_words([Word.zero(3)])
