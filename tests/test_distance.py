"""Minimum distance by coordinate blocks: exact on drawn codes, far from
quadratic on its known worst cases.

Pairs compared are counted by wrapping the two private helpers that compare
pairs: the bound pass (the first word against every other, then sorted
neighbours) and the pair scan that runs inside each group of words and as
the fallback. So the gate is a count, not a time.
"""

from functools import reduce
from itertools import combinations
from operator import xor
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import plotkit.invariants as invariants
from plotkit.core import Code, Word
from plotkit.families import from_generator, random_code, reed_muller, repetition
from plotkit.invariants import is_linear, min_distance
from plotkit.plotkin import plotkin_construct


def naive_min(code: Code) -> int:
    """Distance oracle: every unordered pair, no shortcuts."""
    return min((a ^ b).bit_count() for a, b in combinations(code.bit_patterns, 2))


def all_pairs(code: Code) -> int:
    return len(code) * (len(code) - 1) // 2


@pytest.fixture
def compared(monkeypatch):
    """A one-item list holding the pairs compared so far.

    Each call is charged every pair it could compare, though both helpers
    stop early at distance 1.
    """
    count = [0]
    scan, bound = invariants._scan_pairs, invariants._upper_bound

    def counted_scan(patterns):
        count[0] += len(patterns) * (len(patterns) - 1) // 2
        return scan(patterns)

    def counted_bound(patterns):
        count[0] += 2 * (len(patterns) - 1)
        return bound(patterns)

    monkeypatch.setattr(invariants, "_scan_pairs", counted_scan)
    monkeypatch.setattr(invariants, "_upper_bound", counted_bound)
    return count


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


class CountingInt(int):
    xors = 0

    def __xor__(self, other):
        CountingInt.xors += 1
        return int.__xor__(self, other)


def test_a_first_pair_at_distance_1_ends_the_search():
    # Random dense codes have d = 1, found within the first few pairs; the
    # search must stop there and not finish its bound pass.
    c = Code._from_bits(10, [CountingInt(w) for w in range(1023)])
    assert not is_linear(c)  # caches the rank, which xors too
    CountingInt.xors = 0
    assert min_distance(c) == 1
    assert CountingInt.xors == 1


class TestWorstCases:
    def test_reed_muller_2_4_plus_a_weight_two_word(self, compared):
        # d(RM(2,4)) = 4, and 0b11 is at distance 2 from zero and at least
        # 4 - 2 from every other codeword.
        c = plus(reed_muller(2, 4), 0b11)
        assert len(c) == 2049
        assert min_distance(c) == 2
        assert compared[0] <= all_pairs(c) // 16  # M(M - 1) / 32

    def test_reed_muller_1_5_plus_a_weight_three_word(self, compared):
        # RM(1,5) has weights 0, 16 and 32, so 0b111 is at distance 3 from
        # zero and at least 13 from every other codeword.
        c = plus(reed_muller(1, 5), 0b111)
        assert min_distance(c) == 3
        assert compared[0] <= all_pairs(c) // 4

    def test_bound_lowered_twice(self):
        # The bound pass finds only Hamming pairs at distance 4. 119 is at
        # distance 2 and 2303 at distance 1 from their nearest codewords:
        # the 4 blocks find a pair at distance 2 first, and only the 2
        # blocks made after that find the pair at distance 1.
        c = plus(Code._from_bits(12, HAMMING_12), 119, 2303)
        assert invariants._upper_bound(c.bit_patterns) == 4
        assert min_distance(c) == naive_min(c) == 1

    # The seeds give d = 2, 3 and 4; d = 4 takes the most blocks.
    @pytest.mark.parametrize("seed", [1, 3, 30])
    def test_near_linear_construction(self, compared, seed):
        c = plotkin_construct(*near_linear_pair(seed))
        assert len(c) == 33 * 129 and not is_linear(c)
        d = min_distance(c)
        assert compared[0] <= all_pairs(c) // 4
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


@settings(max_examples=400, deadline=None)
@given(st.one_of(random_subsets(), linear_plus_words(), far_apart(), constructions()))
def test_min_distance_matches_naive(c):
    assert 2 <= len(c) <= 80 and c.n <= 12
    assert min_distance(c) == naive_min(c)


@pytest.fixture
def transforms(monkeypatch):
    """The rank of each span transformed so far."""
    ranks = []
    real = invariants._xor_transform

    def counted(v):
        ranks.append(len(v).bit_length() - 1)
        return real(v)

    monkeypatch.setattr(invariants, "_xor_transform", counted)
    return ranks


class TestSpanPath:
    # The three constructions have one shape, 4,257 words of rank 14, and
    # d = 2, 3 and 4 (TestWorstCases checks d against the naive minimum).
    # The bound pass stops early only at distance 1, and the span path
    # transforms the same 2^14 counts twice, so the work does not depend
    # on d.
    @pytest.mark.parametrize(("seed", "d"), [(1, 2), (3, 3), (30, 4)])
    def test_near_linear_construction_takes_the_same_work_for_every_d(
        self, compared, transforms, seed, d
    ):
        c = plotkin_construct(*near_linear_pair(seed))
        assert min_distance(c) == d
        assert transforms == [14, 14]
        assert compared[0] == 2 * (len(c) - 1)

    def test_a_rank_16_code(self, transforms):
        # Every even weight word of length 17 but zero: rank 16, the
        # largest span the path takes, with 65,535 words and d = 2.
        words = [w << 1 | (w.bit_count() & 1) for w in range(1, 1 << 16)]
        c = Code._from_bits(17, words)
        assert min_distance(c) == 2
        assert transforms == [16, 16]

    def test_a_rank_18_code_read_directly(self, transforms):
        # 19 words of rank 18, past the path's bound, so _span_distance is
        # called directly. Each span word is its own sum of the 18 rows, so
        # the two words at distance 7 are found; folding the top two
        # coefficient bits away would report 5.
        c = random_code(24, 19, seed=3, include_zero=True)
        assert invariants.rank(c) == 18
        assert invariants._span_distance(c, invariants._code_rows(c)) == 7
        assert naive_min(c) == 7
        assert transforms == [18, 18]

    def test_the_span_path_obeys_the_enumeration_cap(self, transforms, monkeypatch):
        # The rank-16 code above, with a cap of 1,000 words: its 65,536-entry
        # span lists are not built, and the block search finds d.
        words = [w << 1 | (w.bit_count() & 1) for w in range(1, 1 << 16)]
        c = Code._from_bits(17, words)
        monkeypatch.setenv("PLOTKIN_MAX_ENUM", "1000")
        assert min_distance(c) == 2
        assert transforms == []

    def test_the_span_path_stops_at_rank_16(self):
        # Above rank 16 the span's list is not built, whatever the code's size.
        assert invariants._spans_small(16, (1 << 16) - 1)
        assert not invariants._spans_small(17, (1 << 17) - 1)


@settings(max_examples=300, deadline=None)
@given(st.one_of(random_subsets(max_n=10), linear_plus_words(), constructions()))
def test_span_distance_matches_naive(c):
    # Called directly, so every drawn code takes the span path.
    assert invariants._span_distance(c, invariants._code_rows(c)) == naive_min(c)
