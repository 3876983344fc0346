"""Row reduction and span machinery: canonical form, membership, enumeration."""

from itertools import combinations, permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from plotkit.core import Word, code_from_words, word_xor
from plotkit.families import _splitmix64
from plotkit.gf2 import (
    Gf2Basis,
    _reduce_bits,
    _span,
    code_basis,
    enumeration_cap,
    in_span,
    rref,
    span_enumerate,
)


def w(s):
    return Word.from_string(s)


def brute_span(words):
    """All xor combinations of the given words, by subset enumeration."""
    out = set()
    for mask in range(1 << len(words)):
        v = 0
        for i, word in enumerate(words):
            if (mask >> i) & 1:
                v ^= word.bits
        out.add(v)
    return out


def random_words(seed, count, n):
    stream = _splitmix64(seed)
    return [Word(n, next(stream) & ((1 << n) - 1)) for _ in range(count)]


class TestRref:
    def test_two_generators(self):
        basis = rref([w("11"), w("01")])
        assert [str(r) for r in basis.rows] == ["10", "01"]
        assert basis.dim == 2
        # independent check: the reduced basis spans exactly the input span
        assert brute_span(basis.rows) == brute_span([w("11"), w("01")])

    def test_zero_vector_spans_nothing(self):
        basis = rref([Word.zero(3)])
        assert basis.dim == 0
        assert basis.rows == ()
        assert basis.n == 3

    def test_duplicates_collapse(self):
        assert rref([w("101"), w("101")]).dim == 1

    def test_mixed_lengths_rejected(self):
        with pytest.raises(ValueError):
            rref([w("01"), w("011")])

    def test_empty_input_needs_explicit_length(self):
        with pytest.raises(ValueError):
            rref([])
        assert rref([], n=4).dim == 0

    def test_idempotent(self):
        for seed in range(10):
            words = random_words(seed, count=6, n=9)
            basis = rref(words)
            assert rref(basis.rows, n=9) == basis

    def test_order_independent(self):
        words = [w("1100"), w("0110"), w("1010"), w("0001")]
        expected = rref(words)
        for perm in permutations(words):
            assert rref(list(perm)) == expected

    def test_every_input_in_span(self):
        for seed in range(10):
            words = random_words(seed + 50, count=7, n=8)
            basis = rref(words)
            assert all(in_span(basis, word) for word in words)

    def test_span_preserved(self):
        for seed in range(8):
            words = random_words(seed + 90, count=5, n=7)
            assert brute_span(rref(words).rows) == brute_span(words)


def reduce_bits_by_row_scan(patterns):
    """The earlier reduction loop, kept as the reference for _reduce_bits."""
    rows = []
    for v in patterns:
        for r in rows:
            if (v >> (r.bit_length() - 1)) & 1:
                v ^= r
        if v:
            top = v.bit_length() - 1
            rows = [r ^ v if (r >> top) & 1 else r for r in rows]
            rows.append(v)
    rows.sort(reverse=True)
    return rows


@st.composite
def rows_reaching_full_rank(draw):
    """Rows of length n whose rank reaches n strictly before the last row."""
    n = draw(st.integers(1, 12))
    word = st.integers(0, (1 << n) - 1)
    prefix = draw(st.lists(word, max_size=6))
    units = draw(st.permutations([1 << i for i in range(n)]))
    suffix = draw(st.lists(word, min_size=1, max_size=6))
    return n, prefix + units + suffix


class TestReduceBits:
    @given(st.integers(1, 12).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(st.integers(0, (1 << n) - 1), max_size=20))
    ))
    def test_matches_row_scan(self, case):
        n, rows = case
        assert _reduce_bits(rows, n) == reduce_bits_by_row_scan(rows)

    @given(rows_reaching_full_rank())
    def test_matches_row_scan_past_full_rank(self, case):
        n, rows = case
        assert _reduce_bits(rows, n) == reduce_bits_by_row_scan(rows)
        assert len(_reduce_bits(rows, n)) == n

    def test_stops_at_full_rank(self):
        def rows():
            yield from (0b100, 0b110, 0b111)
            raise AssertionError("read a row after the rank reached n")

        assert _reduce_bits(rows(), 3) == [0b100, 0b010, 0b001]


class TestCodeBasis:
    def test_matches_rref_of_words(self):
        for seed in range(10):
            c = code_from_words(random_words(seed + 300, count=9, n=7))
            assert code_basis(c) == rref(c.words)


class TestBasisValidation:
    def test_zero_row_rejected(self):
        with pytest.raises(ValueError):
            Gf2Basis(2, (Word.zero(2),))

    def test_unordered_pivots_rejected(self):
        with pytest.raises(ValueError):
            Gf2Basis(2, (w("01"), w("10")))

    def test_unreduced_rows_rejected(self):
        with pytest.raises(ValueError):
            Gf2Basis(2, (w("11"), w("01")))

    def test_row_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Gf2Basis(3, (w("10"),))


class TestInSpan:
    def test_full_plane(self):
        assert in_span(rref([w("10"), w("01")]), w("11"))

    def test_zero_in_empty_span(self):
        assert in_span(Gf2Basis(3, ()), Word.zero(3))

    def test_outside_one_dimensional_span(self):
        # span of 11 is {00, 11}, enumerated by hand
        assert not in_span(rref([w("11")]), w("01"))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            in_span(rref([w("11")]), w("011"))


@st.composite
def packed_words(draw):
    """A length n and up to six packed words of that length."""
    n = draw(st.integers(1, 12))
    return n, draw(st.lists(st.integers(0, (1 << n) - 1), max_size=6))


class TestSpanList:
    @given(packed_words())
    def test_index_bits_select_rows(self, case):
        n, patterns = case
        rows = _reduce_bits(patterns, n)
        span = _span(rows)
        assert len(span) == 1 << len(rows)
        assert len(set(span)) == len(span)
        for i, row in enumerate(rows):
            assert span[1 << i] == row
        for i in range(len(span)):
            for j in range(len(span)):
                assert span[i ^ j] == span[i] ^ span[j]

    def test_no_rows_span_zero(self):
        assert _span([]) == [0]


class TestSpanEnumerate:
    def test_zero_dimensional(self):
        c = span_enumerate(Gf2Basis(3, ()))
        assert c == code_from_words([Word.zero(3)])

    def test_one_generator(self):
        assert span_enumerate(rref([w("11")])) == code_from_words([w("00"), w("11")])

    def test_two_generators(self):
        c = span_enumerate(rref([w("11"), w("01")]))
        assert {str(x) for x in c} == {"00", "01", "10", "11"}

    def test_size_and_closure(self):
        for seed in range(6):
            basis = rref(random_words(seed + 200, count=7, n=10))
            span = span_enumerate(basis)
            assert len(span) == 1 << basis.dim
            assert span.contains_zero()
            members = set(span.bit_patterns)
            for a, b in combinations(span.bit_patterns, 2):
                assert a ^ b in members
            for word in span:
                assert word_xor(word, word) in span

    def test_matches_subset_enumeration(self):
        words = [w("1010"), w("0110"), w("0001")]
        assert set(span_enumerate(rref(words)).bit_patterns) == brute_span(words)

    def test_cap_named_in_error(self):
        rows = tuple(Word(25, 1 << (24 - i)) for i in range(21))
        with pytest.raises(ValueError, match=str(enumeration_cap())):
            span_enumerate(Gf2Basis(25, rows))

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("PLOTKIN_MAX_ENUM", "8")
        basis = rref([w("1000"), w("0100"), w("0010"), w("0001")])
        with pytest.raises(ValueError, match="cap of 8"):
            span_enumerate(basis)
        monkeypatch.setenv("PLOTKIN_MAX_ENUM", "16")
        assert len(span_enumerate(basis)) == 16
