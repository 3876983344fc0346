"""Word and Code basics: xor, distance, concatenation, set semantics."""

import pytest
from hypothesis import given
from hypothesis import strategies as st
from strategies import code, w

from plotkit.core import (
    MAX_LENGTH,
    Code,
    Word,
    _from_little_endian,
    _little_endian,
    _word_bytes,
    concat,
    hamming_distance,
    translate,
    word_xor,
)
from plotkit.families import parity, random_code, repetition, universe
from plotkit.gf2 import rref, span_enumerate
from plotkit.invariants import kernel
from plotkit.oracle import kernel_bruteforce, span_bruteforce
from plotkit.plotkin import plotkin_construct


@st.composite
def equal_length_words(draw, count, max_length=64):
    n = draw(st.integers(1, max_length))
    return [Word(n, draw(st.integers(0, (1 << n) - 1))) for _ in range(count)]


class TestWord:
    def test_string_round_trip(self):
        assert str(w("0101")) == "0101"
        assert w("0101") == Word(4, 0b0101)
        assert repr(w("0101")) == "Word('0101')"

    def test_rejects_bad_strings(self):
        for text in ("", "012", "ab"):
            with pytest.raises(ValueError):
                Word.from_string(text)

    def test_rejects_bad_lengths_and_bits(self):
        with pytest.raises(ValueError):
            Word(0, 0)
        with pytest.raises(ValueError):
            Word(4999, 0)
        with pytest.raises(ValueError):
            Word(2, 4)
        with pytest.raises(ValueError):
            Word(2, -1)

    def test_sorting_is_lexicographic(self):
        words = [w("10"), w("01"), w("11"), w("00")]
        assert [str(x) for x in sorted(words)] == ["00", "01", "10", "11"]

    def test_coordinate_zero_is_leftmost(self):
        word = w("0110")
        assert [word[i] for i in range(4)] == [0, 1, 1, 0]
        with pytest.raises(IndexError):
            word[4]

    def test_weight(self):
        assert w("0110").weight() == 2
        assert Word.zero(5).weight() == 0
        assert Word.ones(5).weight() == 5

    def test_length_cap_is_configurable(self, monkeypatch):
        from plotkit import core as core_module

        monkeypatch.setattr(core_module, "MAX_LENGTH", 8)
        with pytest.raises(ValueError):
            Word(9, 0)
        assert Word(8, 0) == Word.zero(8)


class TestWordXor:
    def test_example(self):
        assert word_xor(w("0101"), w("0011")) == w("0110")

    def test_self_inverse(self):
        assert word_xor(w("1011"), w("1011")) == Word.zero(4)

    def test_identity(self):
        assert word_xor(w("1011"), Word.zero(4)) == w("1011")

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            word_xor(w("01"), w("011"))

    def test_operator_alias(self):
        assert w("0101") ^ w("0011") == w("0110")


class TestHammingDistance:
    def test_example(self):
        assert hamming_distance(w("0101"), w("0011")) == 2

    def test_identical_words(self):
        assert hamming_distance(w("1010"), w("1010")) == 0

    def test_complement(self):
        for n in (1, 3, 8):
            assert hamming_distance(Word.zero(n), Word.ones(n)) == n

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            hamming_distance(w("01"), w("011"))

    @given(equal_length_words(count=2))
    def test_symmetric_and_zero_iff_equal(self, pair):
        a, b = pair
        assert hamming_distance(a, b) == hamming_distance(b, a)
        assert (hamming_distance(a, b) == 0) == (a == b)
        assert hamming_distance(a, b) == word_xor(a, b).weight()

    @given(equal_length_words(count=3))
    def test_triangle_inequality(self, triple):
        a, b, c = triple
        assert hamming_distance(a, c) <= (
            hamming_distance(a, b) + hamming_distance(b, c)
        )


class TestConcat:
    def test_example(self):
        assert concat(w("01"), w("11")) == w("0111")

    def test_zero_halves(self):
        assert concat(Word.zero(3), Word.zero(3)) == Word.zero(6)

    def test_left_then_modified_left(self):
        u, v = w("10"), w("11")
        assert concat(u, word_xor(u, v)) == w("1001")

    @given(equal_length_words(count=1), equal_length_words(count=1))
    def test_length_additivity(self, left, right):
        (a,), (b,) = left, right
        joined = concat(a, b)
        assert joined.length == a.length + b.length
        assert str(joined) == str(a) + str(b)


class TestCode:
    def test_deduplication(self):
        c = code("00", "11", "11")
        assert len(c) == 2
        assert c.n == 2

    def test_repeated_patterns_give_one_sorted_tuple(self):
        c = Code._from_bits(3, [5, 1, 5, 0, 1, 5])
        assert c.bit_patterns == (0, 1, 5)
        assert len(c) == 3
        assert code("11", "00", "11").bit_patterns == (0, 3)

    def test_singleton(self):
        c = Code([Word.zero(4)])
        assert len(c) == 1
        assert c.contains_zero()

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Code([])

    def test_mixed_lengths_rejected(self):
        with pytest.raises(ValueError):
            Code([w("00"), w("000")])

    def test_membership_and_iteration_order(self):
        c = code("10", "01", "11")
        assert w("01") in c
        assert w("00") not in c
        assert Word.zero(3) not in c
        assert [str(x) for x in c] == ["01", "10", "11"]
        assert c.bit_patterns == (1, 2, 3)

    def test_equality_is_set_equality(self):
        assert code("01", "10") == code("10", "01")
        assert code("01") != code("10")
        assert hash(code("01", "10")) == hash(code("10", "01"))
        assert code("01").__eq__({w("01")}) is NotImplemented
        assert code("01") != {w("01")}

    def test_length_checked_on_the_packed_path(self, monkeypatch):
        from plotkit import core as core_module

        for n in (0, MAX_LENGTH + 1):
            with pytest.raises(ValueError, match=f"1..{MAX_LENGTH}, got {n}"):
                Code._from_bits(n, [0])
        monkeypatch.setattr(core_module, "MAX_LENGTH", 8)
        with pytest.raises(ValueError):
            Code._from_bits(9, [0])
        assert Code._from_bits(8, [0]) == Code([Word.zero(8)])

    def test_same_patterns_different_length_differ(self):
        a = Code([Word.zero(2)])
        b = Code([Word.zero(3)])
        assert a != b


class TestPackedLayout:
    def test_a_word_takes_the_least_struct_width_that_holds_it(self):
        for n in range(1, 65):
            size = _word_bytes(n)
            assert size in {1, 2, 4, 8} and 8 * size >= n
            assert size == 1 or 4 * size < n
        # past 64 bits, the fewest whole bytes
        assert [_word_bytes(n) for n in (65, 72, 73, 4096)] == [9, 9, 10, 512]

    @given(st.integers(1, 130).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(st.integers(0, (1 << n) - 1)))
    ))
    def test_unpacking_inverts_packing(self, case):
        n, words = case
        raw = _little_endian(n, words)
        assert len(raw) == _word_bytes(n) * len(words)
        assert list(_from_little_endian(n, raw)) == words


class TestLazyMembers:
    """A code of distinct words keeps its sorted tuple and builds no set until asked."""

    @given(equal_length_words(count=24, max_length=10))
    def test_a_code_of_distinct_words_matches_a_deduplicated_one(self, words):
        n, eager = words[0].length, Code(words)
        lazy = Code._from_distinct(n, list({w.bits for w in words}))
        assert len(lazy) == len(eager)
        assert lazy == eager and hash(lazy) == hash(eager)
        assert lazy.contains_zero() == eager.contains_zero()
        assert lazy._bits is None
        # every pattern of the length, and one past it: bisection finds
        # exactly the members, as the set does
        for x in range((1 << n) + 1):
            assert lazy._has(x) == (x in eager._members())
        assert lazy._bits is None
        assert all((Word(n, x) in lazy) == (Word(n, x) in eager) for x in range(1 << n))
        assert lazy._bits is None

    @given(
        st.integers(1, 10).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=30),
                st.sampled_from([list, sorted, lambda ws: sorted(set(ws))]),
            )
        )
    )
    def test_every_constructor_gives_the_deduplicated_code_without_a_set(self, case):
        # drawn in any order with repeats, sorted with repeats, or ascending
        n, drawn, order = case
        ws = order(drawn)
        expected = Code._from_distinct(n, sorted(set(ws)))
        t = tuple(ws)
        from_tuple = Code._from_bits(n, t)
        for c in (
            Code._from_bits(n, ws),
            from_tuple,
            Code._from_bits(n, iter(ws)),
            Code([Word(n, b) for b in ws]),
        ):
            assert c == expected and c.bit_patterns == expected.bit_patterns
            assert c._bits is None
        # an ascending tuple is kept as it is, not copied
        assert (from_tuple.bit_patterns is t) == (t == expected.bit_patterns)

    def test_distinct_word_callers_build_no_set(self):
        a, b = (random_code(6, 20, s, include_zero=True) for s in (1, 2))
        # random_code keeps its draws distinct as it draws them, so the code
        # need not deduplicate them again
        assert a._bits is None
        built = (
            plotkin_construct(a, b),
            translate(a, Word(6, 5)),
            span_enumerate(rref(a.words)),
            kernel(plotkin_construct(a, b)),
            repetition(6),
            universe(6),
            parity(6),
            kernel_bruteforce(a),
            span_bruteforce(a),
        )
        for c in built:
            assert c._bits is None
            assert len(c) == len(frozenset(c.bit_patterns))


class TestTranslate:
    def test_zero_translation(self):
        c = code("00", "01", "10")
        assert translate(c, Word.zero(2)) == c

    def test_kernel_member_fixes_code(self):
        c = code("00", "11")
        assert translate(c, w("11")) == c

    def test_enumerated_translation(self):
        # oracle: xor 01 into each of 00, 01, 10 by hand
        assert translate(code("00", "01", "10"), w("01")) == code("01", "00", "11")

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            translate(code("00", "11"), w("011"))

    @given(st.data())
    def test_involution_and_cardinality(self, data):
        words = data.draw(equal_length_words(count=5, max_length=12))
        x = data.draw(st.integers(0, (1 << words[0].length) - 1))
        c = Code(words)
        x_word = Word(words[0].length, x)
        shifted = translate(c, x_word)
        assert len(shifted) == len(c)
        assert translate(shifted, x_word) == c
