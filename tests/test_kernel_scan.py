"""The kernel scan: exact on drawn codes, linear in |C| on its known worst cases.

Near-linear codes (a linear code plus one word outside it) made the old
per-candidate scan quadratic: every candidate survived every probe until
the extra word. Membership probes are counted by swapping a fresh code's
member set for a counting frozenset, so the gate is a count, not a time.
"""

from random import Random

from hypothesis import given, settings
from hypothesis import strategies as st

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
