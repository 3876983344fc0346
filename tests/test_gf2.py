"""Row reduction and span machinery: canonical form, membership, enumeration."""

import time
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import coset_unions, w

import plotkit.gf2 as gf2
from plotkit.core import Code, Word, word_xor
from plotkit.families import _splitmix64, from_generator, reed_muller
from plotkit.gf2 import (
    Gf2Basis,
    _back_substitute,
    _code_rows,
    _reduce_bits,
    _span,
    code_basis,
    enumeration_cap,
    in_span,
    rref,
    span_enumerate,
)


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


@st.composite
def rank_deficient_rows(draw, lengths=(8, 9, 16, 17, 64, 65)):
    """Sums of k random rows of length n, and 1 to 6 other rows past 2n.

    n crosses byte boundaries, drawn from `lengths` or from 1..70, and
    there are 2n to 6n sums: the prefix of 2n rows and one or two batches
    after it. The other rows, all placed after the prefix, often raise
    the rank inside a batch.
    """
    n = draw(st.one_of(st.sampled_from(lengths), st.integers(1, 70)))
    rng = draw(st.randoms(use_true_random=False))
    k = draw(st.integers(0, n))
    basis = [rng.getrandbits(n) for _ in range(k)]
    rows = []
    for _ in range(draw(st.integers(2 * n, 6 * n))):
        v = 0
        for b in basis:
            if rng.getrandbits(1):
                v ^= b
        rows.append(v)
    for _ in range(draw(st.integers(1, 6))):
        rows.insert(rng.randint(2 * n, len(rows)), rng.getrandbits(n))
    return n, rows


@pytest.fixture
def no_packing(monkeypatch):
    """Make _reduce_bits fail the test if it packs a batch."""

    def packed(batch, n, pivots):
        raise AssertionError("packed a batch")

    monkeypatch.setattr(gf2, "_eliminate", packed)


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

    @settings(deadline=None)
    @given(rank_deficient_rows())
    def test_bulk_matches_row_scan(self, case):
        n, rows = case
        assert _reduce_bits(rows, n) == reduce_bits_by_row_scan(rows)

    @given(coset_unions())
    def test_coset_unions_match_row_scan(self, drawn):
        code, _ = drawn
        rows = list(code.bit_patterns)
        assert _reduce_bits(rows, code.n) == reduce_bits_by_row_scan(rows)

    def test_last_pivot_found_in_bulk(self, monkeypatch):
        # An [18,11] code in sorted order, then the all-ones word, which is
        # outside it: after the 36-row prefix, batches of 36 to 1,152 rows
        # reach rank 11, and only the last one holds the 12th pivot.
        parity = random_words(7, count=11, n=7)
        code = from_generator(
            [Word(18, 1 << (17 - i) | p.bits) for i, p in enumerate(parity)]
        )
        ones = (1 << 18) - 1
        assert ones not in code.bit_patterns
        rows = [*code.bit_patterns, ones]
        ranks = []
        eliminate = gf2._eliminate

        # The pivots dict grows in place, so its size is read after each call.
        def ranked(batch, n, pivots):
            eliminate(batch, n, pivots)
            ranks.append(len(pivots))

        monkeypatch.setattr(gf2, "_eliminate", ranked)
        assert _reduce_bits(rows, 18) == reduce_bits_by_row_scan(rows)
        assert ranks[-2:] == [11, 12]

    def test_reed_muller_2_5_across_full_batches(self, record):
        # 65,536 rows of length 32 and rank 16: a 64-row prefix, then
        # batches that double from 64 rows and stop growing at 4,096.
        batches = record(gf2, "_eliminate")
        rows = list(reed_muller(2, 5).bit_patterns)
        assert _reduce_bits(rows, 32) == reduce_bits_by_row_scan(rows)
        sizes = [len(call.args[0]) for call in batches]
        assert sizes[:7] == [64, 128, 256, 512, 1024, 2048, 4096]
        assert max(sizes) == 4096 and sum(sizes) == len(rows) - 64

    @pytest.mark.parametrize(
        "n, bad, at",
        [
            pytest.param(8, 1 << 8, 0, id="0"),
            pytest.param(8, 1 << 8, 40, id="40"),
            pytest.param(60, 1 << 63, 130, id="60-bits-below-2^64"),
            pytest.param(60, 1 << 64, 130, id="60-bits-from-2^64"),
        ],
    )
    def test_row_out_of_range_is_refused(self, n, bad, at):
        # Rows of length n and rank 1. A bad row in the prefix is refused
        # when the first batch is packed, and one in that batch as well.
        # At n = 60 the batch is packed by struct into 8-byte slots: a row
        # below 2^64 would fit its slot and one above would make struct
        # raise struct.error, which is not a ValueError, so the range is
        # checked before packing.
        rows = [0b11] * (2 * n + 44)
        rows[at] = bad
        with pytest.raises(ValueError, match=f"longer than {n} bits"):
            _reduce_bits(rows, n)

    def test_full_rank_within_the_prefix_packs_nothing(self, no_packing):
        rows = [1 << i for i in range(9)] + [0b101] * 100
        assert _reduce_bits(rows, 9) == [1 << i for i in reversed(range(9))]

    def test_long_rows_are_never_packed(self, no_packing):
        # Past _BULK_MAX_N bits every row takes the per-row loop.
        n = gf2._BULK_MAX_N + 1
        rows = [w.bits for w in random_words(11, count=5, n=n)] * 60
        assert _reduce_bits(rows, n) == reduce_bits_by_row_scan(rows)


def back_substitute_by_row_test(pivots):
    """The earlier back-substitution, kept as the reference for
    _back_substitute: each row is tested against every row kept so far."""
    rows = []
    for top in sorted(pivots):
        v = pivots[top]
        for r in rows:
            if (v >> (r.bit_length() - 1)) & 1:
                v ^= r
        rows.append(v)
    rows.reverse()
    return rows


def echelon(rows):
    """Rows keyed by distinct top bits, as the per-row loop of _reduce_bits
    leaves them: each spans what the rows before it add."""
    pivots = {}
    for v in rows:
        while v and (row := pivots.get(v.bit_length() - 1)) is not None:
            v ^= row
        if v:
            pivots[v.bit_length() - 1] = v
    return pivots


class RowOps(int):
    """An int that counts each shift, and and xor it takes part in."""

    count = 0

    def _counted(op):
        def counted(self, other):
            RowOps.count += 1
            return op(self, other)

        return counted

    __rshift__ = _counted(int.__rshift__)
    __and__ = __rand__ = _counted(int.__and__)
    __xor__ = __rxor__ = _counted(int.__xor__)
    del _counted


class TestBackSubstitution:
    @given(st.one_of(
        rank_deficient_rows(),
        st.integers(1, 80).flatmap(lambda n: st.tuples(
            st.just(n), st.lists(st.integers(0, (1 << n) - 1), max_size=3 * n)
        )),
    ))
    def test_matches_the_row_by_row_test(self, case):
        _, rows = case
        pivots = echelon(rows)
        assert _back_substitute(pivots) == back_substitute_by_row_test(pivots)

    def test_unit_rows_take_one_step_each(self):
        # 512 unit rows of length 512, each its own pivot: the row-by-row
        # test shifts each row for every row kept before it, 130,816
        # shifts, where the needed pivots of each row are none.
        r = 512
        rows = [RowOps(1 << i) for i in range(r)]
        RowOps.count = 0
        assert back_substitute_by_row_test(echelon(rows)) == rows[::-1]
        assert RowOps.count == r * (r - 1) // 2
        RowOps.count = 0
        assert _reduce_bits(rows, r) == rows[::-1]
        assert RowOps.count <= r


class TestCodeRows:
    @settings(deadline=None)
    @given(st.one_of(
        coset_unions().map(lambda drawn: drawn[0]),
        rank_deficient_rows(
            lengths=(8, 9, 16, 17, 24, 25, 32, 33, 40, 56, 57, 64, 65)
        ).map(lambda case: Code._from_bits(*case)),
    ))
    def test_matches_row_scan(self, code):
        # Up to n = 64 struct packs slots of 1, 2, 4 or 8 bytes, and above
        # 64 each word is packed on its own.
        rows = list(code.bit_patterns)
        assert list(_code_rows(code)) == reduce_bits_by_row_scan(rows)

    @pytest.mark.parametrize("n", [17, 32, 33, 56, 57, 64, 65])
    def test_each_slot_width_reaches_a_batch(self, n, record):
        # The span of 12 random words and one more word, 4,097 words of
        # rank 13 < n: at the first 4-byte slot width, on both sides of
        # the 8-byte one, inside it, and on both sides of packing per word.
        batches = record(gf2, "_eliminate")
        rows = [w.bits for w in random_words(n, count=13, n=n)]
        code = Code._from_bits(n, [*_span(rows[:12]), rows[12]])
        expected = reduce_bits_by_row_scan(list(code.bit_patterns))
        assert list(_code_rows(code)) == expected and len(expected) == 13
        assert sum(len(call.args[0]) for call in batches) == len(code)

    def test_reed_muller_2_5_feeds_its_sorted_words_to_the_batches(
        self, monkeypatch, record
    ):
        # 65,536 words of length 32 and rank 16: the per-row prefix reads
        # 64 words in stride order, and the batches then read every word
        # of the sorted tuple once, in 64, 128, ... 4,096 rows.
        batches, fed = record(gf2, "_eliminate"), []
        reduce_bits = gf2._reduce_bits

        # The rows come as an iterator, which is drained to keep its words.
        def recorded(patterns, n):
            fed.extend(patterns)
            return reduce_bits(fed, n)

        monkeypatch.setattr(gf2, "_reduce_bits", recorded)
        p = reed_muller(2, 5).bit_patterns
        code = Code._from_distinct(32, list(p))  # a copy with no rows cached
        assert list(gf2._code_rows(code)) == reduce_bits_by_row_scan(list(p))
        assert fed[:64] == [p[i * gf2._STRIDE % len(p)] for i in range(64)]
        assert fed[64:] == list(p)
        sizes = [len(call.args[0]) for call in batches]
        assert sizes[:7] == [64, 128, 256, 512, 1024, 2048, 4096]
        assert max(sizes) == 4096
        assert [v for call in batches for v in call.args[0]] == list(p)


class TestCodeBasis:
    def test_matches_rref_of_words(self):
        for seed in range(10):
            c = Code(random_words(seed + 300, count=9, n=7))
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

    def test_a_basis_of_4096_rows_is_checked_in_linear_time(self):
        # the 4,096 unit rows of length 4,096, pivots in order, checked
        # within test_refusals' budget: a pair-by-pair check takes seconds
        rows = tuple(Word(4096, 1 << (4095 - i)) for i in range(4096))
        start = time.perf_counter()
        basis = Gf2Basis(4096, rows)
        assert time.perf_counter() - start < 0.5
        assert basis.dim == 4096


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
        assert c == Code([Word.zero(3)])

    def test_one_generator(self):
        assert span_enumerate(rref([w("11")])) == Code([w("00"), w("11")])

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


class TestEnumerationCap:
    @pytest.mark.parametrize("raw", ["abc", "0", "-3", "", "1.5"])
    def test_not_a_positive_integer_is_named(self, raw, monkeypatch):
        monkeypatch.setenv("PLOTKIN_MAX_ENUM", raw)
        message = f"PLOTKIN_MAX_ENUM must be a positive integer, got {raw!r}"
        with pytest.raises(ValueError) as info:
            enumeration_cap()
        assert str(info.value) == message

    @pytest.mark.parametrize("raw", ["7", " 7 ", "+7", "0_7"])
    def test_what_int_reads_is_accepted(self, raw, monkeypatch):
        monkeypatch.setenv("PLOTKIN_MAX_ENUM", raw)
        assert enumeration_cap() == 7

    def test_unset_is_the_default(self, monkeypatch):
        monkeypatch.delenv("PLOTKIN_MAX_ENUM", raising=False)
        assert enumeration_cap() == 1 << 20
