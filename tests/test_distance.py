"""Minimum distance from the span or by coordinate blocks: exact on drawn
codes, far from quadratic on its known worst cases.

The block search splits the coordinates into t blocks, groups the words by
their value on each block, and scans each group pair by pair; a group
distance under t lowers t, and the blocks are made again. Pairs compared are
counted from the recorded calls of the two private helpers that compare
pairs: the bound pass (the first word against every other, then sorted
neighbours) and the pair scan that runs inside each group of words and as
the fallback. So the gate is a count, not a time.
"""

import tracemalloc
from functools import reduce
from itertools import combinations
from math import comb
from operator import xor
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import (
    CountingCode,
    Recorded,
    bucketed_coset_unions,
    counting_copy,
    coset_unions,
    nordstrom_robinson,
    record_calls,
)

import plotkit.invariants as invariants
from plotkit.core import Code, Word
from plotkit.families import from_generator, random_code, reed_muller, repetition
from plotkit.gf2 import _span
from plotkit.invariants import is_linear, kernel, kernel_dim, min_distance, rank
from plotkit.oracle import distance_bruteforce
from plotkit.plotkin import CodeParams, plotkin_construct, verify_plotkin


def naive_min(code: Code) -> int:
    """Distance oracle: every unordered pair, no shortcuts."""
    return min((a ^ b).bit_count() for a, b in combinations(code.bit_patterns, 2))


def all_pairs(code: Code) -> int:
    return len(code) * (len(code) - 1) // 2


@pytest.fixture
def compared(record):
    """The pairs compared so far, read by calling it.

    Each call is charged every pair it could compare, though both helpers
    stop early at distance 1.
    """
    scans = record(invariants, "_scan_pairs")
    passes = record(invariants, "_upper_bound")
    return lambda: sum(comb(len(c.args[0]), 2) for c in scans) + sum(
        2 * (len(c.args[0]) - 1) for c in passes
    )


def bounds(calls) -> list[int]:
    """The bound t handed to each recorded _groups, _least or _span_search call."""
    return [call.args[2] for call in calls]


def plus(code: Code, *extra: int) -> Code:
    return Code._from_bits(code.n, code.bit_patterns + extra)


def low_extra_word(rng: Random, linear: Code) -> int:
    """A seeded word at distance >= 2 from `linear`, below its least nonzero word."""
    patterns = linear.bit_patterns
    while True:
        w = rng.randrange(1, patterns[1])
        if all((w ^ c).bit_count() >= 2 for c in patterns):
            return w


def near_linear_pair(seed: int) -> tuple[Code, Code]:
    """RM(1,4) + 1 word and a seeded [16,7] code + 1 word.

    The [16,7] generator is [I_7 | P] with no zero parity row, so neither
    linear part has a weight-1 word, and each extra word is at distance
    >= 2 from its linear part: the construction has d >= 2, and no pair at
    distance 1 ends the search early.
    """
    rng = Random(seed)
    rows = []
    for i in range(7):
        parity = 0
        while not parity:
            parity = rng.getrandbits(9)
        rows.append(Word(16, (1 << (15 - i)) | parity))
    rm, lin = reed_muller(1, 4), from_generator(rows)
    return plus(rm, low_extra_word(rng, rm)), plus(lin, low_extra_word(rng, lin))


# The extended Hamming [16,11,4] code shortened to its first 12 positions:
# the even weight words whose set positions xor to 0. A [12,7,4] code.
HAMMING_12 = [
    w
    for w in range(1 << 12)
    if w.bit_count() % 2 == 0
    and reduce(xor, (i for i in range(12) if w >> i & 1), 0) == 0
]


class Xors(int):
    """An int that counts each xor it takes part in, on either side."""

    count = 0

    def __xor__(self, other):
        Xors.count += 1
        return int.__xor__(self, other)

    __rxor__ = __xor__


def test_a_first_pair_at_distance_1_ends_the_search():
    # Random dense codes have d = 1, found within the first few pairs; the
    # search must stop there and not finish its bound pass.
    c = Code._from_bits(10, [Xors(w) for w in range(1023)])
    assert not is_linear(c)  # caches the rank, which xors too
    Xors.count = 0
    assert min_distance(c) == 1
    assert Xors.count == 1


def routes(record) -> list:
    """The calls of the pair scan, the span search and the block search."""
    calls = record(invariants, "_scan_pairs")
    record(invariants, "_span_search", calls)
    record(invariants, "_least", calls)
    return calls


class TestAllPairs:
    """A code with 4tM >= M(M-1)/2 at the prefix bound t has every pair
    compared: putting its M words in t groups would cost as much."""

    def test_a_two_word_code_compares_its_one_pair(self, record):
        # t = 8 and 4tM = 64 >= 1: one scan over the 2 words, with no rows,
        # no span search and no block search.
        calls = routes(record)
        assert min_distance(repetition(8)) == 8
        assert [(call.name, len(call.args[0])) for call in calls] == [("_scan_pairs", 2)]

    @pytest.mark.parametrize(("m", "route"), [(17, "_scan_pairs"), (18, "_span_search")])
    def test_the_rule_holds_up_to_8t_plus_1_words(self, record, m, route):
        # The first m even weight words of length 8 have t = 2 on their
        # first 16 words. 17 words give 4tM = 136 = M(M-1)/2 and are
        # scanned; 18 words give 144 < 153, and the span search reads them.
        c = Code._from_bits(8, [w for w in range(256) if w.bit_count() % 2 == 0][:m])
        assert invariants._upper_bound(c.bit_patterns[:16]) == 2
        calls = routes(record)
        assert min_distance(c) == naive_min(c) == 2
        assert [call.name for call in calls] == [route]


class TestWorstCases:
    def test_reed_muller_2_4_plus_a_weight_two_word(self, compared):
        # d(RM(2,4)) = 4, and 0b11 is at distance 2 from zero and at least
        # 4 - 2 from every other codeword.
        c = plus(reed_muller(2, 4), 0b11)
        assert len(c) == 2049
        assert min_distance(c) == 2
        assert compared() <= all_pairs(c) // 16  # M(M - 1) / 32

    def test_reed_muller_1_5_plus_a_weight_three_word(self, compared):
        # RM(1,5) has weights 0, 16 and 32, so 0b111 is at distance 3 from
        # zero and at least 13 from every other codeword.
        c = plus(reed_muller(1, 5), 0b111)
        assert min_distance(c) == 3
        assert compared() <= all_pairs(c) // 4

    def test_bound_lowered_twice(self, record):
        # The bound pass finds only Hamming pairs at distance 4. 119 is at
        # distance 2 and 2303 at distance 1 from their nearest codewords.
        # The first group of the 4 blocks, the words that are 0 on
        # coordinates 0 to 2, holds 119 but not 2303: it gives 2, and only
        # the 2 blocks made after that find the pair at distance 1.
        # min_distance reads this code from its span, so the block search
        # is called directly.
        c = plus(Code._from_bits(12, HAMMING_12), 119, 2303)
        assert invariants._upper_bound(c.bit_patterns) == 4
        assert min_distance(c) == naive_min(c) == 1
        made = record(invariants, "_groups")
        assert invariants._least(c.bit_patterns, c.n, 4) == 1
        assert bounds(made) == [4, 2]

    def test_min_distance_picks_the_block_search(self, compared, record):
        # 1,024 random words of length 40 and rank 40, with t = 7: the
        # S = 4,598,479 sums of fewer than 7 rows outnumber the 523,776
        # pairs, so min_distance itself runs the block search. Its groups
        # hold 73,839 pairs, and the bound pass compares 2,046.
        c = random_code(40, 1024, seed=1, include_zero=True)
        assert invariants.rank(c) == 40
        assert invariants._upper_bound(c.bit_patterns) == 7
        searched = record(invariants, "_least")
        assert min_distance(c) == naive_min(c) == 7
        assert bounds(searched) == [7]
        assert compared() <= all_pairs(c) // 5

    def test_groups_holding_every_pair_fall_back_to_the_scan(self, monkeypatch, record):
        # 30 even weight words of length 6 in the low half of length 12:
        # rank 5 and t = 2, so the span path would list S = 1 + 5 = 6 sums;
        # a cap of 5 keeps them off it. t = 2 splits the 12 coordinates
        # into two blocks. The high block is zero on every word, so its one
        # group holds all 435 pairs, and they are scanned.
        even = [w for w in range(64) if w.bit_count() % 2 == 0][2:]
        c = Code._from_bits(12, even)
        assert invariants.rank(c) == 5
        assert invariants._upper_bound(c.bit_patterns) == 2
        monkeypatch.setenv("PLOTKIN_MAX_ENUM", "5")
        scanned = record(invariants, "_scan_pairs")
        assert min_distance(c) == naive_min(c) == 2
        assert [len(call.args[0]) for call in scanned] == [30]

    # The seeds give d = 2, 3 and 4; d = 4 lists the most row sums.
    @pytest.mark.parametrize("seed", [1, 3, 30])
    def test_near_linear_construction(self, compared, seed):
        c = plotkin_construct(*near_linear_pair(seed))
        assert len(c) == 33 * 129 and not is_linear(c)
        d = min_distance(c)
        assert compared() <= all_pairs(c) // 4
        assert d == naive_min(c)


@st.composite
def random_subsets(draw, max_n=12):
    """Random codes, half of them of even weight words only.

    A large random code of length 12 or less almost always holds a pair at
    distance 1, which the bound pass finds at once. Even weight words are
    at distance 2 or more, so large codes of them are split into blocks.
    The size is drawn first, so large codes come up as often as small ones.
    """
    n = draw(st.integers(1, max_n))
    words = st.integers(0, (1 << n) - 1)
    space = 1 << n
    if n > 1 and draw(st.booleans()):
        # the last bit makes the weight even
        words = words.map(lambda w: (w & ~1) | ((w >> 1).bit_count() & 1))
        space >>= 1
    m = draw(st.integers(2, min(80, space)))
    return Code._from_bits(n, draw(st.sets(words, min_size=m, max_size=m)))


@st.composite
def linear_plus_words(draw):
    """A linear code of at most 64 words with d >= 2, plus 1 to 3 words.

    The linear part is either a random [I_k | P] code with no zero parity
    row, as in the near-linear benchmark, or a subcode of HAMMING_12. Its
    distance of 2 or more keeps the bound pass from ending at once, and an
    added word close to a Hamming codeword but not next to it in sorted
    order makes a bound above d, which only the blocks can lower.
    """
    extra = st.lists(st.integers(0, (1 << 12) - 1), min_size=1, max_size=3)
    if draw(st.booleans()):
        k = draw(st.integers(1, 6))
        rows = draw(st.lists(st.sampled_from(HAMMING_12[1:]), min_size=k, max_size=k))
        linear = from_generator([Word(12, r) for r in rows])
        return Code._from_bits(12, linear.bit_patterns + tuple(draw(extra)))
    n = draw(st.integers(2, 12))
    k = draw(st.integers(1, min(n - 1, 6)))
    parity = st.integers(1, (1 << (n - k)) - 1)
    rows = [Word(n, (1 << (n - 1 - i)) | draw(parity)) for i in range(k)]
    extra = [w >> (12 - n) for w in draw(extra)]
    return Code._from_bits(n, from_generator(rows).bit_patterns + tuple(extra))


@st.composite
def far_apart(draw):
    """Codes with a large d: many blocks, and often the fallback scan.

    Subsets of RM(1, m), repetition codes, and random codes whose every
    bit is repeated r times, which multiplies their distance by r.
    """
    kind = draw(st.sampled_from(["reed_muller", "repetition", "repeated"]))
    if kind == "reed_muller":
        rm = reed_muller(1, draw(st.integers(1, 3)))
        subset = draw(st.sets(st.sampled_from(rm.bit_patterns), min_size=2))
        return Code._from_bits(rm.n, subset)
    if kind == "repetition":
        return repetition(draw(st.integers(1, 12)))
    r = draw(st.integers(2, 4))
    base = draw(random_subsets(max_n=12 // r))
    spread = [
        int("".join(bit * r for bit in format(b, f"0{base.n}b")), 2)
        for b in base.bit_patterns
    ]
    return Code._from_bits(base.n * r, spread)


@st.composite
def constructions(draw):
    n = draw(st.integers(1, 6))
    m1 = draw(st.integers(1, min(16, 1 << n)))
    m2 = draw(st.integers(1 if m1 > 1 else 2, min(80 // m1, 1 << n)))
    zero = draw(st.booleans())
    seeds = draw(st.tuples(st.integers(0, 1 << 32), st.integers(0, 1 << 32)))
    return plotkin_construct(
        random_code(n, m1, seeds[0], include_zero=zero or m1 == 1 << n),
        random_code(n, m2, seeds[1], include_zero=zero or m2 == 1 << n),
    )


@st.composite
def planted_pairs(draw):
    """40 to 128 HAMMING_12 words and a word planted 1 apart from one of them.

    d(HAMMING_12) = 4, so the planted word sets d = 1. It differs from its
    codeword on coordinate 0, 1 or 2, which lies in the first block for
    every bound t <= 4, so only a later block groups the pair. Half the
    time a second word is planted 2 apart from another codeword, on
    coordinates 3 to 11, so that it shares the first block with it: there
    the first group distance under t is 2, still above d.
    """
    rng = draw(st.randoms(use_true_random=False))
    words = rng.sample(HAMMING_12, draw(st.integers(40, 128)))
    planted = [rng.choice(words) ^ 1 << (11 - rng.randrange(3))]
    if draw(st.booleans()):
        first, second = rng.sample(range(9), 2)
        planted.append(rng.choice(words) ^ 1 << first ^ 1 << second)
    return Code._from_bits(12, words + planted)


@settings(max_examples=400, deadline=None)
@given(
    st.one_of(
        random_subsets(),
        linear_plus_words(),
        far_apart(),
        constructions(),
        coset_unions().map(lambda drawn: drawn[0]),
    )
)
def test_min_distance_matches_naive(c):
    assert 2 <= len(c) <= 80 and c.n <= 12
    assert min_distance(c) == naive_min(c)


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        random_subsets(),
        linear_plus_words(),
        far_apart(),
        constructions(),
        coset_unions().map(lambda drawn: drawn[0]),
        planted_pairs(),
    )
)
def test_block_search_matches_naive(c):
    # Called directly: most of these codes are dense in their span, and
    # min_distance reads them from it.
    t = invariants._upper_bound(c.bit_patterns)
    assert invariants._least(c.bit_patterns, c.n, t) == naive_min(c)


def counting_probes(c: Code) -> Recorded:
    c._bits = Recorded(c._members())
    return c._bits


@pytest.fixture
def sums(monkeypatch):
    """The row sums listed so far, read by calling it.

    The code's RREF rows are handed out as `Xors`, and every sum costs one
    xor s ^ row with a plain int s, which Python sends to `Xors.__rxor__`.
    """
    real = invariants._code_rows
    monkeypatch.setattr(invariants, "_code_rows", lambda c: tuple(map(Xors, real(c))))
    Xors.count = 0
    return lambda: Xors.count


def even_weight(n: int) -> Code:
    """Every even weight word of length n but zero: rank n - 1, d = 2."""
    words = [w << 1 | (w.bit_count() & 1) for w in range(1, 1 << (n - 1))]
    return Code._from_bits(n, words)


def even_weight_17() -> Code:
    """Rank 16, 65,535 words."""
    return even_weight(17)


class TestSpanPath:
    # The three constructions have one shape, 4,257 words of length 32 and
    # rank 14, and d = 2, 3 and 4 (TestWorstCases checks d against the
    # naive minimum). The bound on the first 2n = 64 words, 126 pairs,
    # finds d itself, and no span word is lighter, so the sums of fewer
    # than d of the 14 rows are listed, 14, 105 and 469 of them, no
    # difference is probed, and the bound over all 4,257 words never runs.
    @pytest.mark.parametrize(("seed", "d"), [(1, 2), (3, 3), (30, 4)])
    def test_near_linear_construction_takes_the_same_work_for_every_d(
        self, compared, sums, seed, d
    ):
        c = plotkin_construct(*near_linear_pair(seed))
        members = counting_probes(c)
        assert min_distance(c) == d
        assert sums() == {2: 14, 3: 105, 4: 469}[d]
        assert members.tests == []
        assert compared() == 2 * (2 * c.n - 1) == 126

    def test_a_dense_random_construction_ends_in_the_prefix(self, compared, sums):
        # 65,536 words of length 20 from two random 256-word codes: the
        # bound on the first 40 words meets a pair at distance 1, so no
        # other pair is compared, no row sum is listed and no member set
        # is built.
        c = plotkin_construct(
            random_code(10, 256, seed=1, include_zero=True),
            random_code(10, 256, seed=2, include_zero=True),
        )
        assert len(c) == 65_536 and c._bits is None
        assert min_distance(c) == 1
        assert compared() == 2 * (2 * c.n - 1) and sums() == 0
        assert c._bits is None

    def test_a_sparse_code_goes_to_the_block_search_unprobed(self, record, sums):
        # 1,000 random words of length 22 and rank 22, with t = 2 over all
        # of them: M^2 < 2^22, so a span word is expected to be the
        # difference of no pair, and the span search never runs. The full
        # bound hands t = 2 to the block search, with no row sum listed and
        # no probe made.
        c = random_code(22, 1000, seed=4, include_zero=True)
        assert invariants.rank(c) == 22
        assert invariants._upper_bound(c.bit_patterns) == 2
        searched = record(invariants, "_least")
        members = counting_probes(c)
        assert min_distance(c) == naive_min(c) == 2
        assert bounds(searched) == [2]
        assert members.tests == []
        assert sums() == 0

    def test_a_search_that_gives_up_hands_its_bound_to_the_block_search(self, record):
        # 256 words of length 16, rank 16 and d = 2, with M^2 = 2^16: dense,
        # so the span search runs once, at the prefix bound t = 2, with the
        # block search's cost 4tM = 2,048 as its budget. Its
        # weight-1 rows take more tests of 256 probes than that, so it gives
        # up, and the block search gets t = 2 with no second span search.
        c = plotkin_construct(
            random_code(8, 16, seed=4, include_zero=True),
            random_code(8, 16, seed=104, include_zero=True),
        )
        assert len(c) == 256 and invariants.rank(c) == 16
        calls = record(invariants, "_span_search")
        record(invariants, "_least", calls)
        assert min_distance(c) == naive_min(c) == 2
        assert [(call.name, *call.args[2:]) for call in calls] == [
            ("_span_search", 2, 2048),
            ("_least", 2),
        ]

    def test_a_rank_16_code(self, sums):
        # t = 2, so only the 16 rows are listed; none has weight 1.
        c = even_weight_17()
        members = counting_probes(c)
        assert min_distance(c) == 2
        assert sums() == 16
        assert members.tests == []

    def test_a_difference_under_the_bound_is_found_by_a_probe(self, sums):
        # RM(2,4) plus two words 2 apart: rank 13, and the bound on the
        # first 32 words finds only t = 4. Level 1 lists the 13 rows, none
        # of weight 1, and level 2 the 78 sums of two rows. The span holds
        # 24 words of weight 2, and the first of them tested is a difference
        # of two codewords, so d = 2 with one probe and no level 3.
        c = plus(reed_muller(2, 4), 0x75A8, 0x37A8)
        assert invariants._upper_bound(c.bit_patterns[:32]) == 4
        assert invariants._upper_bound(c.bit_patterns) == 4
        members = counting_probes(c)
        assert min_distance(c) == naive_min(c) == 2
        assert sums() == 91
        assert len(members.tests) == 1

    def test_the_first_test_builds_the_member_set_and_walks_the_leaders(self):
        # A copy of NR with no member set, given NR's measured kernel, of
        # dimension 5: its 8 leaders are the codewords zero on the 5 pivots
        # of the kernel's rows. The prefix bound is d = 6, so each of the
        # 140 span words lighter than 6 is tested, and none hits. The first
        # test builds the member set, once, no probe bisects, and each test
        # probes x + c for the 8 leaders c alone.
        nr = nordstrom_robinson()
        c = counting_copy(nr)
        c._kernel = kernel(nr)
        rows = invariants._code_rows(c._kernel)
        pivots = sum(1 << (k.bit_length() - 1) for k in rows)
        leaders = [w for w in c.bit_patterns if not w & pivots]
        assert len(leaders) == 8
        assert min_distance(c) == 6
        assert CountingCode.built_at == CountingCode.bisections == 0
        assert len(c._bits.tests) == 140
        # Zero is a leader, so each tested span word x is itself probed.
        for probed in c._bits.tests:
            assert any(
                x.bit_count() < 6 and sorted(w ^ x for w in probed) == leaders
                for x in probed
            )

    def test_the_search_is_charged_its_sums_and_one_probe_per_leader(self):
        # NR has rank 11 and t = 6: the S = 1 + 11 + 55 + 165 + 330 + 462 =
        # 1,024 sums of fewer than 6 rows, and 140 tests of |C| / |K| = 8
        # leaders each. The rank-16 code above, with t = 2, lists S = 17
        # sums and tests no word, so S alone decides.
        nr = nordstrom_robinson()
        rows = invariants._code_rows(nr)
        assert invariants._span_search(nr, rows, 6, 1024 + 140 * 8) == 6
        assert invariants._span_search(nr, rows, 6, 1024 + 140 * 8 - 1) is None
        c = even_weight_17()
        rows = invariants._code_rows(c)
        assert invariants._span_search(c, rows, 2, 17) == 2
        assert invariants._span_search(c, rows, 2, 16) is None

    def test_a_rank_18_code_read_directly(self, record, sums):
        # 19 words of rank 18 and t = 8: 8,359 span words are lighter than
        # t, and the S = 63,004 sums of fewer than 8 rows alone outnumber the
        # 171 pairs. So the span search, called directly with that budget,
        # gives up before it lists a sum. min_distance never lists one:
        # 4tM = 608 >= 171, so it compares the 171 pairs at once.
        c = random_code(24, 19, seed=3, include_zero=True)
        assert invariants.rank(c) == 18
        t = invariants._upper_bound(c.bit_patterns)
        assert t == 8
        rows = invariants._code_rows(c)
        light = [x for x in _span(map(int, rows)) if 0 < x.bit_count() < t]
        assert len(light) == 8359 and len(light) * 19 > all_pairs(c) == 171
        searched = record(invariants, "_least")
        members = counting_probes(c)
        assert invariants._span_search(c, rows, t, all_pairs(c)) is None
        scanned = record(invariants, "_scan_pairs")
        assert min_distance(c) == naive_min(c) == 7
        assert searched == []
        assert [len(call.args[0]) for call in scanned] == [19]
        assert members.tests == []
        assert sums() == 0

    def test_the_span_path_obeys_the_enumeration_cap(self, monkeypatch, record, sums):
        # The rank-16 code above has t = 2, so the span path lists S = 17
        # sums: zero and the 16 rows, one xor each. A cap of 16 sends it to
        # the block search; a cap of 17 lists them, and no block is made.
        searched = record(invariants, "_least")
        monkeypatch.setenv("PLOTKIN_MAX_ENUM", "16")
        assert min_distance(even_weight_17()) == 2
        assert sums() == 0 and bounds(searched)[0] == 2
        searched.clear()
        monkeypatch.setenv("PLOTKIN_MAX_ENUM", "17")
        assert min_distance(even_weight_17()) == 2
        assert sums() == 16 and searched == []

    def test_the_cap_stops_the_span_search_at_level_2(self, monkeypatch, record, sums):
        # RM(2,4) plus two words 2 apart, rank 13 and t = 4: level 1 takes
        # the sums listed to 1 + 13 = 14, and level 2 to 92. A cap of 91
        # stops the search before level 2, so the block search finds d;
        # a cap of 92 lists it, and d = 2 is read from the span.
        c = plus(reed_muller(2, 4), 0x75A8, 0x37A8)
        rows = invariants._code_rows(c)
        monkeypatch.setenv("PLOTKIN_MAX_ENUM", "91")
        assert invariants._span_search(c, rows, 4) is None
        assert sums() == 13
        searched = record(invariants, "_least")
        assert min_distance(c) == 2 and bounds(searched) == [4]
        monkeypatch.setenv("PLOTKIN_MAX_ENUM", "92")
        Xors.count = 0
        assert invariants._span_search(c, rows, 4) == 2
        assert sums() == 91

    def test_a_rank_17_code_takes_the_span_path(self, monkeypatch, sums):
        # No rank bound beside the cap: 131,071 words of rank 17 are read
        # from their 17 rows, and the block search never runs.
        c = even_weight(18)
        monkeypatch.setattr(invariants, "_least", None)
        assert min_distance(c) == 2
        assert sums() == 17

    def test_a_sparse_rank_20_code_never_lists_its_span(self, monkeypatch):
        # 13,000 of the 2^20 even weight words of length 21, with t = 2.
        # Their span's 2^20 words would take tens of MB; only the 21 sums of
        # fewer than 2 rows are listed. About 17,000 of their pairs are 2
        # apart, so d = 2.
        words = Random(1).sample(range(1, 1 << 20), 13_000)
        c = Code._from_bits(21, [w << 1 | (w.bit_count() & 1) for w in words])
        assert invariants.rank(c) == 20
        monkeypatch.setattr(invariants, "_least", None)
        tracemalloc.start()
        try:
            assert min_distance(c) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20


@settings(max_examples=300, deadline=None)
@given(st.one_of(random_subsets(max_n=10), linear_plus_words(), constructions()))
def test_span_distance_matches_naive(c):
    # Called directly with no budget, so every drawn code is read from its
    # span alone: n <= 12 keeps every listing under the enumeration cap.
    # The copy has no member set and no kernel: the first test measures the
    # kernel, and builds the set if the scan did not.
    c = Code._from_distinct(c.n, list(c.bit_patterns))
    t = invariants._upper_bound(c.bit_patterns)
    assert invariants._span_search(c, invariants._code_rows(c), t) == naive_min(c)


@st.composite
def linear_codes(draw):
    """The span of 1 to 6 random nonzero rows of length up to 10.

    A linear code is its own kernel, so the span search tests each light
    span word with one probe, at its one leader, zero.
    """
    n = draw(st.integers(1, 10))
    rows = draw(st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=6))
    return Code._from_bits(n, _span(rows))


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        coset_unions().map(lambda drawn: drawn[0]),
        bucketed_coset_unions().map(lambda drawn: drawn[0]),
        linear_plus_words(),
        linear_codes(),
    )
)
def test_min_distance_matches_distance_bruteforce(c):
    assert min_distance(c) == distance_bruteforce(c)


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        coset_unions().map(lambda drawn: drawn[0]),
        bucketed_coset_unions().map(lambda drawn: drawn[0]),
        linear_plus_words(),
        random_subsets(),
        linear_codes(),
    )
)
def test_one_span_search_and_only_on_dense_codes(c):
    # The span search runs at most once, and never on a code with
    # M^2 < 2^r, where a span word is expected to be the difference of no
    # pair. Each call records the rank r of the rows it is given. Neither
    # search runs on a code whose pairs are all compared at the prefix
    # bound t, where 4tM >= M(M-1)/2.
    with pytest.MonkeyPatch.context() as mp:
        searches = record_calls(mp, invariants, "_span_search")
        blocks = record_calls(mp, invariants, "_least")
        assert min_distance(c) == distance_bruteforce(c)
    ranks = [len(call.args[1]) for call in searches]
    assert len(ranks) <= 1
    assert all(len(c) ** 2 >= 1 << r for r in ranks)
    m, t = len(c), invariants._upper_bound(c.bit_patterns[: 2 * c.n])
    if t > 1 and 4 * t * m >= m * (m - 1) // 2:
        assert searches == blocks == []


class TestNordstromRobinson:
    """NR has d = 6 and a kernel of dimension 5, so its constructions have
    large kernels: 64 leaders for NR with NR and 8 for RM(2,4) with NR. The
    span search once charged each test all M codewords, gave up, and left
    the block search with about 3.4 * 10^8 and 2 * 10^10 group pairs."""

    def test_parameters(self):
        nr = nordstrom_robinson()
        assert (nr.n, len(nr), rank(nr), kernel_dim(nr)) == (16, 256, 11, 5)
        assert min_distance(nr) == distance_bruteforce(nr) == 6

    @pytest.mark.parametrize(
        ("first", "leaders", "tests"), [("nr", 64, 280), ("rm24", 8, 152)]
    )
    def test_large_kernel_constructions_are_read_from_the_span(
        self, monkeypatch, record, first, leaders, tests
    ):
        # The prefix bound is d = 6, so every span word lighter than 6 is
        # tested, each with one probe per leader, and none hits.
        nr = nordstrom_robinson()
        c = plotkin_construct(nr if first == "nr" else reed_muller(2, 4), nr)
        searched = record(invariants, "_span_search")

        def refused(patterns, n, t):
            raise AssertionError("the block search ran")

        monkeypatch.setattr(invariants, "_least", refused)
        c._bits = Recorded(c.bit_patterns)
        assert min_distance(c) == 6
        assert bounds(searched) == [6]
        assert [len(probed) for probed in c._bits.tests] == [leaders] * tests

    @pytest.mark.parametrize(
        ("first", "second", "observed"),
        [
            ("nr", "nr", (32, 65536, 6, 22, 10)),
            ("nr", "rm14", (32, 8192, 8, 16, 10)),
            ("rm24", "nr", (32, 524288, 6, 22, 16)),
        ],
    )
    def test_verify_holds_with_no_block_search(
        self, monkeypatch, first, second, observed
    ):
        codes = {
            "nr": nordstrom_robinson(),
            "rm14": reed_muller(1, 4),
            "rm24": reed_muller(2, 4),
        }
        monkeypatch.setattr(invariants, "_least", None)
        report = verify_plotkin(codes[first], codes[second])
        assert report.all_checks_hold
        assert report.observed == report.predicted == CodeParams(*observed)
