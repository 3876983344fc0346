"""The kernel scan: exact on drawn codes, linear in |C| on its known worst cases.

Near-linear codes (a linear code plus one word outside it) made the old
per-candidate scan quadratic: every candidate survived every probe until
the extra word. So did a linear code minus one word joined with a small
coset of a subcode, until each refuted candidate also filtered the
survivors by a non-codeword. That code shifted by a word outside its
span, or joined with one, fills only a quarter of its span; its scan
stays linear in |C| because the second filter runs on every code, however
sparse. A random construction refuted its first candidate by filtering
all |C| words one at a time, until the scan started only from the top-bit
buckets whose sizes a translation can preserve. A large kernel made each
of its dim(K) full probes walk all of C, until the scan kept one codeword
per coset of the kernel K' found so far: each walks |C| / |K'| words, and
a linear code minus a few words is scanned itself. Membership probes are
counted on a fresh copy of the code built without its member set: each
bisection of its sorted words counts, and so does each probe of the set
once the scan builds it. The size of each code handed to the scan is
recorded too, so the gates are counts, not times.

A code of odd size above 1 is never scanned: the cosets of its kernel
partition it, so the kernel is {0}, read off with no probe and no row
reduction. Odd worst cases are gated by calling the scan directly, and
even twins, a linear code minus two words, gate the scan of the code.
"""

from random import Random

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st
from strategies import (
    CountingCode,
    bucketed_coset_unions,
    counting_copy,
    coset_unions,
    record_calls,
)

import plotkit.cli as cli
import plotkit.gf2 as gf2
import plotkit.invariants as invariants
from plotkit.cli import cli_main
from plotkit.codefile import format_code_file
from plotkit.core import Code, Word
from plotkit.families import from_generator, random_code, reed_muller
from plotkit.gf2 import _reduce_bits, _span
from plotkit.invariants import dim, is_linear, kernel, rank
from plotkit.oracle import BRUTE_KERNEL_MAX_N, kernel_bruteforce
from plotkit.plotkin import _verify, plotkin_construct


def kernel_probes(code: Code) -> tuple[Code, int]:
    """Kernel of a fresh copy of `code` and the membership probes it took."""
    copy = counting_copy(code)
    return kernel(copy), copy.probes


def scan_probes(code: Code) -> tuple[Code, int]:
    """The scan's kernel of a fresh copy of `code`, and the probes it took.

    kernel() reads {0} off a code of odd size without scanning it, so the
    scan's own gates on odd shapes call it directly.
    """
    copy = counting_copy(code)
    return invariants._kernel_scan(copy), copy.probes


def plus_largest_outside(code: Code) -> Code:
    """The code plus the largest pattern outside its span, if there is one."""
    span = set(_span(_reduce_bits(code.bit_patterns, code.n)))
    extra = next((x for x in range((1 << code.n) - 1, -1, -1) if x not in span), None)
    if extra is None:
        return code
    return Code._from_bits(code.n, code.bit_patterns + (extra,))


def systematic_code(n: int, k: int, seed: int) -> Code:
    """A seeded [n, k] code with generator [I_k | P]."""
    rng = Random(seed)
    return from_generator(
        [Word(n, (1 << (n - 1 - i)) | rng.getrandbits(n - k)) for i in range(k)]
    )


@pytest.fixture
def scanned(record):
    """The calls of the kernel scan so far."""
    return record(invariants, "_kernel_scan")


def sizes(calls) -> list[int]:
    """The size of the code handed to each recorded call."""
    return [len(call.args[0]) for call in calls]


def minus_largest(linear: Code, count: int = 1) -> Code:
    """The code without its `count` largest words."""
    return Code._from_bits(linear.n, linear.bit_patterns[:-count])


def shifted(code: Code, x: int) -> Code:
    return Code._from_bits(code.n, [b ^ x for b in code.bit_patterns])


def minus_one_plus_coset(n: int, k: int, j: int, seed: int) -> Code:
    """(L - {u}) | (L' + a): a linear code less one word, and a small coset.

    L is a seeded random [n, k] code with k < n, L' the span of j of the
    k rows drawn for it, u a nonzero word of L and a a word outside L. For
    each nonzero x in L', u + x is the only codeword that x maps out of
    the code.
    """
    rng = Random(seed)
    rows: list[int] = []
    while len(rows) < k:
        row = rng.getrandbits(n)
        if len(_reduce_bits([*rows, row], n)) > len(rows):
            rows.append(row)
    linear = _span(rows)
    members = set(linear)
    u = rng.choice(linear[1:])
    a = next(x for x in iter(lambda: rng.getrandbits(n), None) if x not in members)
    coset = [s ^ a for s in _span(rows[:j])]
    return Code._from_bits(n, [b for b in linear if b != u] + coset)


class TestWorstCases:
    def test_reed_muller_plus_one_word(self):
        c = plus_largest_outside(reed_muller(2, 4))
        assert len(c) == 2049
        k, probes = scan_probes(c)
        assert k == kernel(c) == kernel_bruteforce(c)
        assert probes <= 3 * len(c)

    def test_systematic_18_11_plus_one_word(self):
        for seed in (1, 2, 3):
            c = plus_largest_outside(systematic_code(18, 11, seed))
            assert c.n > BRUTE_KERNEL_MAX_N
            k, probes = scan_probes(c)
            # |C| = 2^11 + 1 is odd and the kernel's cosets partition C
            assert k == kernel(c) == Code._from_bits(18, [0])
            assert probes <= 3 * len(c)

    def test_large_kernel_probes_only_its_basis_in_full(self):
        # L, L + s and L + t: a translation by s swaps the first two and
        # sends L + t outside, so the kernel is L, of dimension 8
        linear = systematic_code(14, 8, 4)
        s, t = 1 << 5, 1 << 4
        c = Code._from_bits(
            14, [b ^ shift for shift in (0, s, t) for b in linear.bit_patterns]
        )
        k, probes = kernel_probes(c)
        assert k == linear == kernel_bruteforce(c)
        # 2^8 kernel words, but only the 8 that double the span are probed
        # in full, each on one codeword per coset of the kernel found so far
        assert probes <= 4 * len(c)
        # (u|u+v) of RM(2,4) and a random code: 131,072 words whose kernel,
        # by Theorem I, is the construction of the two kernels, dim 11. A
        # scan that walked all of C for each of the 11 would take 12|C|.
        c1, c2 = reed_muller(2, 4), random_code(16, 64, 1, include_zero=True)
        c = plotkin_construct(c1, c2)
        k, probes = kernel_probes(c)
        assert k == plotkin_construct(kernel(c1), kernel(c2)) and dim(k) == 11
        assert probes <= 4 * len(c)

    def test_linear_code_minus_one_word_plus_a_small_coset(self):
        # Its span has 2^13 words, twice the code. Each nonzero x in L' is
        # refuted only by u + x, which filters out almost no other
        # candidate: with that filter alone the scan made about
        # |L'| |C| / 2 = 133,088 probes, and 135,947 on this code. The
        # non-codeword u + x + x = u maps every other word of L' into the
        # code, and drops them all at once.
        c = minus_one_plus_coset(16, 12, 6, seed=1)
        assert len(c) == 4159 and rank(c) == 13
        k, probes = scan_probes(c)
        # |C| is odd and the kernel's cosets partition C
        assert k == kernel(c) == kernel_bruteforce(c) == Code._from_bits(16, [0])
        assert probes <= 3 * len(c)

    def test_the_same_code_shifted_outside_its_span(self):
        # The shift raises the rank from 13 to 14, and 4,159 words fill only
        # a quarter of 2^14. The non-codeword filter runs on every code, so
        # the shift costs nothing; a density test on rank(C) skipped it
        # here and left the scan one probe per survivor: 135,947 probes.
        c = minus_one_plus_coset(16, 12, 6, seed=1)
        span = set(_span(_reduce_bits(c.bit_patterns, 16)))
        c = shifted(c, next(x for x in range(1 << 16) if x not in span))
        assert len(c) == 4159 and rank(c) == 14 and not c.contains_zero()
        k, probes = scan_probes(c)
        assert k == kernel(c) == kernel_bruteforce(c)
        assert probes <= 3 * len(c)

    def test_the_same_code_plus_a_word_outside_its_span(self):
        # One word outside the span leaves 4,160 words in a span of 2^14,
        # a quarter full, yet each nonzero x in L' still has the one
        # witness u + x. A density test skipped the non-codeword filter
        # on this code, and the scan took 135,948 probes.
        c = plus_largest_outside(minus_one_plus_coset(16, 12, 6, seed=1))
        assert len(c) == 4160 and rank(c) == 14 and c.contains_zero()
        k, probes = kernel_probes(c)
        assert k == kernel_bruteforce(c)
        assert probes <= 3 * len(c)


class TestTopBitBuckets:
    def test_a_random_construction_is_refuted_by_bucket_sizes(self):
        # 65,536 words in 128 buckets by their top 7 bits, of uneven sizes:
        # a translation preserves the sizes only when it keeps every
        # bucket in place, so the scan starts from c0's bucket alone. The
        # first refutation filtered all |C| candidates one word at a time,
        # about 1.6|C| probes in all.
        for seeds in ((1, 2), (3, 4)):
            c = plotkin_construct(
                *(random_code(10, 256, s, include_zero=True) for s in seeds)
            )
            k, probes = kernel_probes(c)
            assert k == Code._from_bits(20, [0])
            assert probes <= len(c) // 16


class TestBisectionBudget:
    """The scan bisects until its probes would pay for the member set."""

    def test_a_random_construction_never_builds_its_member_set(self):
        # The dense-random shape: about 1,300 probes against a budget of
        # |C|/16 = 4,096, so every probe bisects. Nothing else in verify
        # probes the construction's members.
        for s in (1, 3, 5):
            c1, c2 = (random_code(10, 256, t, include_zero=True) for t in (s, s + 1))
            c = counting_copy(plotkin_construct(c1, c2))
            assert kernel(c) == Code._from_bits(20, [0])
            assert c.probes == CountingCode.bisections <= len(c) // 16
            assert c._bits is None
            code = plotkin_construct(c1, c2)
            assert _verify(c1, c2, code).all_checks_hold
            assert code._bits is None

    @pytest.mark.parametrize(
        ("index", "built_at"), [(511, None), (512, 513), (1024, 1024)]
    )
    def test_the_budget_boundaries(self, index, built_at):
        # A [16, 14] code puts 256 words in each bucket by the top 6 bits,
        # and one word e outside it, at sorted position `index`, leaves only
        # bucket 0 as candidates. The first, x, is refuted only by e, after
        # index + 1 bisections of the 1,024 allowed. At index 511 the filter
        # pass's at most 512 probes fit in the 512 left, and it bisects; at
        # 512 they do not, and it builds the set. At index 1,024 the witness
        # search bisects the whole budget and finds e first in the set.
        linear = systematic_code(16, 14, 1).bit_patterns
        c = Code._from_bits(16, linear + (linear[index - 1] + 1,))
        assert c.bit_patterns[index] == linear[index - 1] + 1
        copy = counting_copy(c)
        k = invariants._kernel_scan(copy)
        # |C| = 2^14 + 1 is odd and the kernel's cosets partition C
        assert k == kernel(c) == Code._from_bits(16, [0])
        assert CountingCode.built_at == built_at
        if built_at is None:
            # 512 for the witness search, 256 first and 1 second filter probes
            assert CountingCode.bisections == copy.probes == 769
        else:
            assert CountingCode.bisections == built_at


@pytest.fixture
def reductions(record):
    """The row reductions made so far."""
    return record(gf2, "_reduce_bits")


class TestLinearMinusWords:
    """A linear code minus a few words, or a coset of one, is scanned itself.

    A linear code minus one word has odd size, so kernel() reads {0} off
    it with no scan and no probe. Minus two words it has even size, and
    the scan is handed the code, within 3|C| probes.
    """

    def test_reed_muller_minus_its_largest_word(self, scanned):
        c = minus_largest(reed_muller(2, 4))
        k, probes = kernel_probes(c)
        assert k == kernel_bruteforce(c) == Code._from_bits(16, [0])
        assert scanned == [] and probes == 0

    def test_reed_muller_minus_its_two_largest_words(self, scanned):
        c = minus_largest(reed_muller(2, 4), 2)
        k, probes = kernel_probes(c)
        # the two missing words a, b leave the kernel {0, a + b}
        assert k == kernel_bruteforce(c) and dim(k) == 1
        assert sizes(scanned) == [len(c)]
        assert probes <= 3 * len(c)

    def test_systematic_16_11_minus_one_word(self, scanned):
        for seed in (1, 2, 3):
            c = minus_largest(systematic_code(16, 11, seed))
            k, probes = kernel_probes(c)
            # |C| = 2^11 - 1 is odd and the kernel's cosets partition C
            assert k == kernel_bruteforce(c) == Code._from_bits(16, [0])
            assert probes == 0
        assert scanned == []

    def test_systematic_16_11_minus_two_words(self, scanned):
        for seed in (1, 2, 3):
            c = minus_largest(systematic_code(16, 11, seed), 2)
            k, probes = kernel_probes(c)
            assert k == kernel_bruteforce(c)
            assert probes <= 3 * len(c)
        assert sizes(scanned) == [len(c)] * 3

    def test_cosets_of_a_linear_code_minus_four_words(self, scanned):
        linear = systematic_code(12, 9, 7)
        c = minus_largest(linear, 4)
        # a dropped word of the linear code moves zero out of the code, and
        # so does any word outside it
        inside = linear.bit_patterns[-1]
        outside = next(x for x in range(1 << 12) if x not in linear._members())
        for x in (0, inside, outside):
            k, probes = kernel_probes(shifted(c, x))
            assert k == kernel_bruteforce(c)
            assert probes <= 3 * len(c)
        assert sizes(scanned) == [len(c)] * 3

    def test_a_linear_code_minus_22_to_24_words(self, scanned):
        # 106 and 104 words are scanned themselves. The 105 words between
        # them have odd size and are not scanned.
        linear = systematic_code(10, 7, 8)
        for count in (22, 23, 24):
            c = minus_largest(linear, count)
            k, probes = kernel_probes(c)
            assert k == kernel_bruteforce(c)
            if count == 23:
                assert k == Code._from_bits(10, [0]) and probes == 0
        assert sizes(scanned) == [106, 104]

    def test_reed_muller_2_5_minus_300_random_words(self, scanned, tmp_path, capsys):
        # 65,236 words miss 300 of their span. RM(2,5) has d = 8, so the
        # shift by a weight-1 word lies outside its span and leaves the zero
        # word out of the code.
        rm = reed_muller(2, 5)
        dropped = set(Random(5).sample(rm.bit_patterns, 300))
        c = Code._from_bits(32, [b for b in rm.bit_patterns if b not in dropped])
        for x in (0, 1):
            k, probes = kernel_probes(shifted(c, x))
            assert k == Code._from_bits(32, [0])
            assert probes <= 3 * len(c)
        assert sizes(scanned) == [len(c)] * 2
        path = tmp_path / "rm25-300.code"
        path.write_text(format_code_file(c))
        assert cli_main(["kernel", str(path)]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "# kernel n=32 dim=0 M=1"

    def test_a_span_over_the_cap_scans_the_code(self, scanned, monkeypatch):
        # 126 words miss 2 of their 128-word span, which is over a cap of
        # 127: the scan lists no span, so the cap changes nothing. The 127
        # words of the linear code minus one have odd size and are not
        # scanned.
        linear = systematic_code(10, 7, 8)
        monkeypatch.setenv("PLOTKIN_MAX_ENUM", "127")
        for count in (1, 2):
            c = minus_largest(linear, count)
            k, probes = kernel_probes(c)
            assert k == kernel_bruteforce(c)
            if count == 1:
                assert k == Code._from_bits(10, [0]) and probes == 0
        assert sizes(scanned) == [126]

    def test_cli_kernel_of_reed_muller_2_5_minus_its_largest_word(
        self, scanned, reductions, tmp_path, capsys
    ):
        # 65,535 words: the whole-code scan needed about |C|^2 probes here,
        # and the odd size needs neither a scan nor a row reduction
        c = minus_largest(reed_muller(2, 5))
        path = tmp_path / "rm25.code"
        path.write_text(format_code_file(c))
        assert cli_main(["kernel", str(path)]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "# kernel n=32 dim=0 M=1"
        assert scanned == [] and reductions == []

    def test_cli_kernel_of_reed_muller_2_5_minus_its_two_largest_words(
        self, scanned, tmp_path, capsys
    ):
        c = minus_largest(reed_muller(2, 5), 2)
        path = tmp_path / "rm25-2.code"
        path.write_text(format_code_file(c))
        assert cli_main(["kernel", str(path)]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "# kernel n=32 dim=1 M=2"
        assert sizes(scanned) == [len(c)]


@st.composite
def linear_minus_words(draw):
    """A linear code of length <= 12 minus some of its words, maybe shifted.

    At most `top` words are dropped, the most with top^3 <= M^2 for
    M = 2^k - top, so the code stays dense in its span. The shift is zero,
    a word of the linear code, or any word, which is mostly outside it and
    then leaves the zero word out of the code.
    """
    n = draw(st.integers(2, 12))
    k, seed = draw(st.integers(2, min(n, 8))), draw(st.integers(0, 1 << 32))
    patterns = systematic_code(n, k, seed).bit_patterns
    size = len(patterns)
    top = max(m for m in range(1, size) if m**3 <= (size - m) ** 2)
    dropped = draw(st.sets(st.sampled_from(patterns), min_size=1, max_size=top))
    shift = draw(
        st.one_of(st.just(0), st.sampled_from(patterns), st.integers(0, (1 << n) - 1))
    )
    return Code._from_bits(n, [b ^ shift for b in patterns if b not in dropped])


@settings(max_examples=150, deadline=None)
@given(linear_minus_words())
def test_kernel_matches_bruteforce_on_linear_codes_minus_words(c):
    assert kernel(c) == kernel_bruteforce(c)


@st.composite
def linear_minus_one_plus_cosets(draw):
    """minus_one_plus_coset at n <= 12, maybe extended, widened or shifted.

    The largest word outside the span may be added, when the rank is below
    n: the code stays dense in L but fills only a quarter of its new span,
    as does a shift outside the span. The shape alone mostly has the
    kernel {0}, which a scan that drops too many survivors still finds.
    So a free first coordinate may be added, which fills the span as
    densely and puts 10...0 in the kernel: the largest candidate, probed
    after every other.
    """
    n = draw(st.integers(2, 12))
    k = draw(st.integers(1, n - 1))
    j, seed = draw(st.integers(0, k)), draw(st.integers(0, 1 << 32))
    c = minus_one_plus_coset(n, k, j, seed)
    if draw(st.booleans()):
        c = plus_largest_outside(c)
    if draw(st.booleans()):
        c = Code._from_bits(n + 1, [b | e << n for b in c.bit_patterns for e in (0, 1)])
    return shifted(c, draw(st.one_of(st.just(0), st.integers(0, (1 << c.n) - 1))))


@settings(max_examples=100, deadline=None)
@given(linear_minus_one_plus_cosets())
def test_kernel_matches_bruteforce_on_linear_codes_minus_one_word_plus_a_coset(c):
    assert kernel(c) == kernel_bruteforce(c)


@settings(max_examples=100, deadline=None)
@given(bucketed_coset_unions())
def test_kernel_matches_bruteforce_on_bucketed_coset_unions(drawn):
    c, k = drawn
    assert dim(kernel(c)) >= k
    assert kernel(c) == kernel_bruteforce(c)


@st.composite
def small_codes(draw):
    """Codes of length <= 10, with or without the zero word."""
    n = draw(st.integers(1, 10))
    patterns = draw(
        st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=40, unique=True)
    )
    return Code._from_bits(n, patterns)


@st.composite
def large_kernel_codes(draw):
    """(u|u+v) of RM(1, 3) and a random code, possibly shifted off zero.

    The kernel contains the construction of RM(1, 3) with the random
    code's kernel, so it has dimension at least 4, and a shift keeps the
    kernel while the zero word leaves the code.
    """
    m, seed = draw(st.integers(1, 24)), draw(st.integers(0, 1 << 32))
    c = plotkin_construct(reed_muller(1, 3), random_code(8, m, seed, include_zero=True))
    shift = draw(st.integers(0, (1 << c.n) - 1))
    return Code._from_bits(c.n, [b ^ shift for b in c.bit_patterns])


@settings(max_examples=150, deadline=None)
@given(st.one_of(small_codes().map(lambda c: (c, 0)), coset_unions()))
def test_kernel_matches_bruteforce(drawn):
    # A union of cosets of a k-dimensional space has it in its kernel.
    c, k = drawn
    assert dim(kernel(c)) >= k
    assert kernel(c) == kernel_bruteforce(c)


@settings(max_examples=20, deadline=None)
@given(large_kernel_codes())
def test_kernel_matches_bruteforce_on_large_kernels(c):
    k = kernel(c)
    # dim >= 4: the span-closure branch ran at least four times
    assert dim(k) >= 4
    assert k == kernel_bruteforce(c)


@st.composite
def top_gapped_unions(draw):
    """16,384 words: the union of 8,192 cosets of {0, h}, h = 1111110000000000.

    The scan splits the code into 64 buckets by the top 6 bits, which h
    maps onto one another in pairs of equal size. So two buckets survive,
    about 500 words, few enough for a filter pass to bisect. Every leader has
    its low 10 bits under 768, so each bucket ends short of its range, and
    a probe of the top bucket may lie above the largest word.
    """
    rng = Random(draw(st.integers(0, 1 << 32)))
    leaders = rng.sample([a for a in range(1 << 15) if a & 1023 < 768], 8192)
    return Code._from_bits(16, [a ^ s for a in leaders for s in (0, 63 << 10)])


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(
        small_codes(),
        coset_unions().map(lambda drawn: drawn[0]),
        bucketed_coset_unions().map(lambda drawn: drawn[0]),
        linear_minus_one_plus_cosets(),
        large_kernel_codes(),
        top_gapped_unions(),
    )
)
def test_kernel_by_bisection_matches_bruteforce(c):
    # The codes above are built with their member sets, so their scans
    # probe the set; a copy built without one bisects first. It bisects
    # within the budget, builds the set at most once and bisects no more.
    # kernel() reads {0} off an odd size unscanned, so there the scan is
    # called directly.
    copy = counting_copy(c)
    scan = invariants._kernel_scan if len(c) % 2 else kernel
    assert scan(copy) == kernel_bruteforce(c)
    budget = len(c) // invariants._BISECT_SHARE
    assert CountingCode.bisections <= budget
    if CountingCode.built_at is None:
        assert copy.probes == CountingCode.bisections
        event("no member set")
    else:
        assert CountingCode.built_at == CountingCode.bisections
        assert copy.probes > CountingCode.bisections
        if budget:
            spent = CountingCode.built_at == budget
            event("set built at the budget" if spent else "set built below it")


@st.composite
def odd_sized_codes(draw):
    """A code of odd size above 1: a coset union or a seeded random code.

    A coset union of even size gains or loses one drawn word, which leaves
    all but at most one of its cosets whole.
    """
    if draw(st.booleans()):
        c, _ = draw(coset_unions())
        if len(c) % 2 == 0:
            x = draw(st.integers(0, (1 << c.n) - 1))
            c = Code._from_bits(c.n, set(c.bit_patterns) ^ {x})
        assume(len(c) > 1)
        return c
    n = draw(st.integers(2, 10))
    m = 2 * draw(st.integers(1, min(20, (1 << (n - 1)) - 1))) + 1
    seed, zero = draw(st.integers(0, 1 << 32)), draw(st.booleans())
    return random_code(n, m, seed, include_zero=zero)


@settings(max_examples=150, deadline=None)
@given(odd_sized_codes())
def test_an_odd_sized_code_has_the_kernel_zero_unscanned(c):
    # The kernel's cosets partition the code, so |K| divides an odd |C|.
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gf2, "_reduce_bits", lambda *args: calls.append("reduce"))
        mp.setattr(invariants, "_kernel_scan", lambda code: calls.append("scan"))
        k = kernel(c)
        assert calls == [] and c._rref is None
        assert kernel(c) is k is c._kernel
    assert k == kernel_bruteforce(c) == Code._from_bits(c.n, [0])


def test_a_one_word_code_keeps_the_linear_test():
    # {0} is linear and its own kernel, never stored in its own slot
    zero = Code._from_bits(10, [0])
    assert kernel(zero) is zero and zero._kernel is None
    word = Code._from_bits(10, [5])
    assert kernel(word) == kernel_bruteforce(word) == zero


@settings(max_examples=100, deadline=None)
@given(st.one_of(small_codes(), coset_unions().map(lambda drawn: drawn[0])))
def test_an_even_sized_code_is_scanned(c):
    assume(len(c) % 2 == 0 and not is_linear(c))
    with pytest.MonkeyPatch.context() as mp:
        scans = record_calls(mp, invariants, "_kernel_scan")
        k = kernel(c)
    assert len(scans) == 1 and k == kernel_bruteforce(c)


@settings(max_examples=100, deadline=None)
@given(
    st.one_of(
        odd_sized_codes(),
        linear_minus_words(),
        linear_minus_one_plus_cosets(),
    ).filter(lambda c: len(c) > 1 and len(c) % 2)
)
def test_the_scan_agrees_with_the_certificate_on_odd_sizes(c):
    # kernel() no longer scans these, so the scan is checked on them here.
    assert invariants._kernel_scan(c) == kernel(c) == kernel_bruteforce(c)


def test_the_oracle_brute_forces_an_odd_sized_pair(tmp_path, record, capsys):
    # The certificate gives all three kernels; the oracle still scans all
    # 2^n translations of each code and must agree.
    found = record(cli, "kernel_bruteforce")
    paths = []
    for name, m, seed in (("a.code", 9, 1), ("b.code", 5, 2)):
        paths.append(tmp_path / name)
        paths[-1].write_text(format_code_file(random_code(6, m, seed, include_zero=True)))
    assert cli_main(["verify", "--oracle", *map(str, paths)]) == 0
    assert "oracle cross-check          pass" in capsys.readouterr().out
    assert sizes(found) == [9, 5, 45]
    assert all(call.result == Code._from_bits(call.result.n, [0]) for call in found)
