"""Text formats: parsing with line-numbered errors, canonical writing, round trips."""

import warnings
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from strategies import code, w

from plotkit.codefile import (
    ParseError,
    format_basis_file,
    format_code_file,
    parse_code_file,
    parse_gen_file,
)
from plotkit.core import MAX_LENGTH, Code, Word
from plotkit.families import parity, random_code, reed_muller, universe
from plotkit.gf2 import Gf2Basis, code_basis, rref, span_enumerate
from plotkit.plotkin import plotkin_construct


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
    return Code([Word(n, b) for b in words]), lines, repeats


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


def reference_read(text):
    """A naive per-line reader: (code, row space, warnings), or the error.

    Each line is split, stripped and checked on its own, character by
    character, in file order; the first failed check raises.
    """
    rows, seen, messages = [], set(), []
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line == "" or line.startswith("#"):
            continue
        if any(ch not in "01" for ch in line):
            raise ParseError(f"illegal characters in {line!r}", line=number)
        if not rows and len(line) > MAX_LENGTH:
            raise ValueError(f"word length must be in 1..{MAX_LENGTH}, got {len(line)}")
        if rows and len(line) != len(rows[0]):
            raise ParseError(
                f"row of length {len(line)} in a file of length-{len(rows[0])} rows",
                line=number,
            )
        if line in seen:
            messages.append(f"duplicate codeword {line} at line {number}")
        seen.add(line)
        rows.append(line)
    if not rows:
        raise ParseError("no codeword lines found")
    n = len(rows[0])
    space = {0}
    for row in rows:
        space |= {x ^ int(row, 2) for x in space}
    return (
        Code(Word.from_string(row) for row in rows),
        Code(Word(n, x) for x in space),
        messages,
    )


def outcome(read, text):
    """What a reader gives on `text`: its result or its error, and its warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = read(text)
        except ValueError as exc:
            result = (type(exc), str(exc), getattr(exc, "line", None))
    return result, [str(x.message) for x in caught]


# Rows the reader refuses. int(row, 2) reads the first five: "\u0661" is
# ARABIC-INDIC DIGIT ONE. A lone surrogate has no UTF-8 form.
BAD_ROWS = ["0_1", "+01", "0b01", "1\u0661", "\u06610", "0 1", "0\ud800", "0x"]
LINE_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\u2028"]


# Word lengths on both sides of a byte and of a 64-bit limb.
WIDTHS = [1, 7, 8, 9, 63, 64, 65, 128, 129]


@st.composite
def code_files(draw):
    """Text of a code file: valid rows, repeats, comments, blank lines and
    padding, with at times a bad, ragged or over-length row among them.

    Half the files have the layout that the writer uses, leading '#' lines
    then bare rows ended by '\\n', which is read without splitting lines.
    """
    n = draw(st.sampled_from(WIDTHS))
    word = st.text("01", min_size=n, max_size=n)
    rows = draw(st.lists(word, max_size=10))
    if rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=4))
    rows = list(draw(st.permutations(rows)))
    faults = st.one_of(
        st.sampled_from(BAD_ROWS),
        st.text("01", min_size=1, max_size=8).filter(lambda row: len(row) != n),
        st.just("1" * (MAX_LENGTH + 1)),
    )
    for fault in draw(st.lists(faults, max_size=2)):
        rows.insert(draw(st.integers(0, len(rows))), fault)
    if draw(st.booleans()):
        # "#\r1" is a comment line and the row "1" to splitlines
        comments = st.sampled_from(["#", "# note", "#0_1", "#\r1"])
        lines = draw(st.lists(comments, max_size=2)) + rows
        newline = "\n"
    else:
        padding = st.sampled_from(["", " ", "\t", "\xa0"])
        filler = st.lists(
            st.sampled_from(["", "  ", "#", "# note", " #01", "#0_1"]), max_size=2
        )
        lines = []
        for row in rows:
            lines += draw(filler)
            lines.append(draw(padding) + row + draw(padding))
        newline = draw(st.sampled_from(LINE_BREAKS))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


class TestWholeFileReading:
    @settings(max_examples=300, deadline=None)
    @given(code_files())
    @example("1" * (MAX_LENGTH + 1) + "\n" + "0" * (MAX_LENGTH + 1) + "\n")
    @example("1" * (MAX_LENGTH + 1) + "\n0x\n")
    @example("1\u0661\n" + "1" * (MAX_LENGTH + 1) + "\n")
    @example("01\n10\n01\n011\n")
    @example("01\u2028# c\u2028\u2028 10\u2028\u2028 01 \u2028")
    @example("# c\u202801\n10\n")
    @example("01\n1\n011\n")
    def test_reader_agrees_with_a_naive_per_line_reference(self, text):
        try:
            code, space, messages = reference_read(text)
        except ValueError as exc:
            error = (type(exc), str(exc), getattr(exc, "line", None))
            assert outcome(parse_code_file, text) == (error, [])
            assert outcome(parse_gen_file, text) == (error, [])
            return
        assert outcome(parse_code_file, text) == (code, messages)
        assert outcome(parse_gen_file, text) == (space, [])

    def test_cli_files_construction_round_trips_byte_for_byte(self):
        # The benchmark's cli-files shape: two seeded 256-word length-11
        # codes and their 65,536-word construction.
        rng = Random(1)
        a, b = (random_code(11, 256, rng.getrandbits(64), include_zero=True) for _ in "ab")
        built = plotkin_construct(a, b)
        text = format_code_file(built)
        parsed = parse_code_file(text)
        assert parsed.bit_patterns == built.bit_patterns
        assert format_code_file(parsed) == text

    def test_a_construction_file_read_as_generators_gives_its_span(self):
        # Both codes lie in a 9-dimensional subspace, so the span of their
        # 65,536-word construction (2^18 words) is under the enumeration
        # cap; a full-rank pair spans 2^22 words, over it.
        rng = Random(2)
        a, b = (Code._from_bits(11, rng.sample(range(1 << 9), 256)) for _ in "ab")
        built = plotkin_construct(a, b)
        assert parse_gen_file(format_code_file(built)) == span_enumerate(code_basis(built))


def reference_format(code):
    """The per-word writer: bin(b | top) is "0b1" then the word, zeros kept."""
    top = 1 << code.n
    lines = [f"# code n={code.n} M={len(code)}"]
    lines.extend(bin(b | top)[3:] for b in code.bit_patterns)
    return "\n".join(lines) + "\n"


@st.composite
def codes_of_every_width(draw):
    n = draw(st.sampled_from(WIDTHS))
    words = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=40))
    return Code._from_bits(n, words)


class TestPlaneWriter:
    @settings(max_examples=200, deadline=None)
    @given(codes_of_every_width())
    @example(Code._from_bits(129, [(1 << 129) - 1]))
    @example(Code._from_bits(64, [1 << 63]))
    @example(Code._from_bits(65, [1]))
    def test_writer_matches_the_per_word_formula(self, c):
        text = format_code_file(c)
        assert text == reference_format(c)
        assert parse_code_file(text) == c


class TestParseGenFile:
    def test_row_space_materialized(self):
        assert parse_gen_file("11\n01\n") == code("00", "01", "10", "11")

    def test_zero_rows_allowed(self):
        assert parse_gen_file("0000\n") == Code([Word.zero(4)])

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
            Code([Word.zero(6)]),
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
        assert parse_gen_file(text) == Code([Word.zero(3)])
