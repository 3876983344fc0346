"""The kernel scan: exact on drawn codes, linear in |C| on its known worst cases.

Near-linear codes (a linear code plus one word outside it) made the old
per-candidate scan quadratic: every candidate survived every probe until
the extra word. A linear code minus a few words did too, until the scan
moved to the few words its translate leaves out of its span. Membership
probes are counted by swapping a fresh code's member set for a counting
frozenset, and the size of each code handed to the scan is recorded, so
the gates are counts, not times.
"""

from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import plotkit.invariants as invariants
from plotkit.cli import cli_main
from plotkit.codefile import format_code_file
from plotkit.core import Code, Word
from plotkit.families import from_generator, random_code, reed_muller
from plotkit.invariants import dim, kernel
from plotkit.oracle import BRUTE_KERNEL_MAX_N, kernel_bruteforce
from plotkit.plotkin import plotkin_construct


class CountingSet(frozenset):
    probes = 0

    def __contains__(self, item):
        CountingSet.probes += 1
        return frozenset.__contains__(self, item)


def kernel_probes(code: Code) -> tuple[Code, int]:
    """Kernel of a fresh copy of `code` and the membership probes it took."""
    fresh = Code._from_bits(code.n, code.bit_patterns)
    fresh._bits = CountingSet(fresh._bits)
    CountingSet.probes = 0
    k = kernel(fresh)
    return k, CountingSet.probes


def plus_largest_outside(linear: Code) -> Code:
    """The code plus the largest pattern outside it, which sorts last."""
    extra = next(
        x for x in range((1 << linear.n) - 1, -1, -1) if x not in linear._bits
    )
    return Code._from_bits(linear.n, linear.bit_patterns + (extra,))


def systematic_code(n: int, k: int, seed: int) -> Code:
    """A seeded [n, k] code with generator [I_k | P]."""
    rng = Random(seed)
    return from_generator(
        [Word(n, (1 << (n - 1 - i)) | rng.getrandbits(n - k)) for i in range(k)]
    )


@pytest.fixture
def scanned(monkeypatch):
    """The size of each code handed to the kernel scan so far."""
    sizes = []
    scan = invariants._kernel_scan

    def counted(code):
        sizes.append(len(code))
        return scan(code)

    monkeypatch.setattr(invariants, "_kernel_scan", counted)
    return sizes


def minus_largest(linear: Code, count: int = 1) -> Code:
    """The code without its `count` largest words."""
    return Code._from_bits(linear.n, linear.bit_patterns[:-count])


def shifted(code: Code, x: int) -> Code:
    return Code._from_bits(code.n, [b ^ x for b in code.bit_patterns])


class TestWorstCases:
    def test_reed_muller_plus_one_word(self):
        c = plus_largest_outside(reed_muller(2, 4))
        assert len(c) == 2049
        k, probes = kernel_probes(c)
        assert k == kernel_bruteforce(c)
        assert probes <= 3 * len(c)

    def test_systematic_18_11_plus_one_word(self):
        for seed in (1, 2, 3):
            c = plus_largest_outside(systematic_code(18, 11, seed))
            assert c.n > BRUTE_KERNEL_MAX_N
            k, probes = kernel_probes(c)
            # |C| = 2^11 + 1 is odd and the kernel's cosets partition C
            assert k == Code._from_bits(18, [0])
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
        # in full
        assert probes <= (dim(k) + 3) * len(c)


class TestLinearMinusWords:
    """The scan runs on S - C0, the few span words the translate leaves out."""

    def test_reed_muller_minus_its_largest_word(self, scanned):
        c = minus_largest(reed_muller(2, 4))
        k, probes = kernel_probes(c)
        assert k == kernel_bruteforce(c) == Code._from_bits(16, [0])
        assert scanned == [1]
        # one probe per span word, to find the missing one
        assert probes <= 3 * len(c)

    def test_systematic_16_11_minus_one_word(self, scanned):
        for seed in (1, 2, 3):
            c = minus_largest(systematic_code(16, 11, seed))
            k, probes = kernel_probes(c)
            # |C| = 2^11 - 1 is odd and the kernel's cosets partition C
            assert k == Code._from_bits(16, [0])
            assert probes <= 3 * len(c)
        assert scanned == [1, 1, 1]

    def test_cosets_of_a_linear_code_minus_four_words(self, scanned, monkeypatch):
        translates = []
        reduce_bits = invariants._reduce_bits

        def counted(patterns, n):
            translates.append(n)
            return reduce_bits(patterns, n)

        monkeypatch.setattr(invariants, "_reduce_bits", counted)
        linear = systematic_code(12, 9, 7)
        c = minus_largest(linear, 4)
        # a dropped word of the linear code moves zero out of the code, and
        # so does any word outside it
        inside = linear.bit_patterns[-1]
        outside = next(x for x in range(1 << 12) if x not in linear._bits)
        for x in (0, inside, outside):
            k, probes = kernel_probes(shifted(c, x))
            assert k == kernel_bruteforce(c)
            assert probes <= 3 * len(c)
        assert scanned == [4, 4, 4]
        # only the shift outside the span reduces its translate, whose span
        # is one dimension smaller than the code's
        assert translates == [12]

    def test_too_many_missing_words_scan_the_code(self, scanned):
        # 128 - 22 = 106 words miss k = 22 of their span, 22^3 <= 106^2;
        # 105 words miss 23, and 23^3 > 105^2
        linear = systematic_code(10, 7, 8)
        for count in (22, 23):
            c = minus_largest(linear, count)
            assert kernel(c) == kernel_bruteforce(c)
        assert scanned == [22, 105]

    def test_reed_muller_2_5_minus_300_random_words(self, scanned, tmp_path, capsys):
        # 65,236 words miss k = 300 of their span: past sqrt(M) = 255, where
        # the whole code was scanned at about M^2 / 2k probes, and within
        # k^3 <= M^2. RM(2,5) has d = 8, so the shift by a weight-1 word
        # lies outside its span and leaves the zero word out of the code.
        rm = reed_muller(2, 5)
        dropped = set(Random(5).sample(rm.bit_patterns, 300))
        c = Code._from_bits(32, [b for b in rm.bit_patterns if b not in dropped])
        for x in (0, 1):
            k, probes = kernel_probes(shifted(c, x))
            assert k == Code._from_bits(32, [0])
            assert probes <= 3 * len(c)
        assert scanned == [300, 300]
        path = tmp_path / "rm25-300.code"
        path.write_text(format_code_file(c))
        assert cli_main(["kernel", str(path)]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "# kernel n=32 dim=0 M=1"

    def test_a_span_over_the_cap_scans_the_code(self, scanned, monkeypatch):
        c = minus_largest(systematic_code(10, 7, 8))
        monkeypatch.setenv("PLOTKIN_MAX_ENUM", "127")
        assert kernel(c) == kernel_bruteforce(c)
        assert scanned == [127]

    def test_cli_kernel_of_reed_muller_2_5_minus_its_largest_word(
        self, scanned, tmp_path, capsys
    ):
        # 65,535 words: the whole-code scan needed about |C|^2 probes here
        c = minus_largest(reed_muller(2, 5))
        path = tmp_path / "rm25.code"
        path.write_text(format_code_file(c))
        assert cli_main(["kernel", str(path)]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "# kernel n=32 dim=0 M=1"
        assert scanned == [1]


@st.composite
def linear_minus_words(draw):
    """A linear code of length <= 12 minus some of its words, maybe shifted.

    At most `top` words are dropped: the most that M = 2^k - top words can
    miss with top^3 <= M^2, the complement rule's bound. The shift is zero,
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
@given(small_codes())
def test_kernel_matches_bruteforce(c):
    assert kernel(c) == kernel_bruteforce(c)


@settings(max_examples=20, deadline=None)
@given(large_kernel_codes())
def test_kernel_matches_bruteforce_on_large_kernels(c):
    k = kernel(c)
    # dim >= 4: the span-closure branch ran at least four times
    assert dim(k) >= 4
    assert k == kernel_bruteforce(c)
