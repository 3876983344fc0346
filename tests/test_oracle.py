"""Brute-force oracles and their agreement with the fast paths."""

import tracemalloc

import pytest
from strategies import code, w

from plotkit.core import Code, Word
from plotkit.families import _splitmix64, random_code
from plotkit.gf2 import rref, span_enumerate
from plotkit.invariants import kernel, min_distance, rank
from plotkit.oracle import (
    BRUTE_DISTANCE_MAX_PAIRS,
    distance_bruteforce,
    kernel_bruteforce,
    span_bruteforce,
)
from plotkit.plotkin import plotkin_construct


def seeded_codes(base_seed, count, max_n=8, size_cap=14):
    stream = _splitmix64(base_seed)
    for i in range(count):
        n = 2 + next(stream) % (max_n - 1)
        include_zero = i % 2 == 0
        bound = min((1 << n) - (not include_zero), size_cap)
        m = 1 + next(stream) % bound
        yield random_code(n, m, seed=next(stream), include_zero=include_zero)


class TestKernelBruteforce:
    def test_linear_code(self):
        c = code("00", "11")
        assert kernel_bruteforce(c) == c

    def test_three_word_code(self):
        assert kernel_bruteforce(code("00", "01", "10")) == code("00")

    def test_width_cap(self):
        c = Code([Word.zero(17)])
        with pytest.raises(ValueError, match="16"):
            kernel_bruteforce(c)

    def test_agrees_with_fast_kernel(self):
        for c in seeded_codes(0xC1, 120):
            brute = kernel_bruteforce(c)
            assert c._bits is None  # the oracle probes a set of its own
            assert brute == kernel(c)


class TestDistanceBruteforce:
    def test_three_word_code(self):
        assert distance_bruteforce(code("000", "011", "111")) == 1

    def test_pair_cap(self):
        # 2897 words make just over 2^22 pairs; one word makes none.
        with pytest.raises(ValueError, match=str(BRUTE_DISTANCE_MAX_PAIRS)):
            distance_bruteforce(random_code(12, 2897, seed=1))
        with pytest.raises(ValueError, match="0 pairs"):
            distance_bruteforce(code("01"))

    def test_agrees_with_fast_distance(self):
        for c in seeded_codes(0xC4, 120):
            if len(c) > 1:
                assert distance_bruteforce(c) == min_distance(c)


class TestSpanBruteforce:
    def test_single_generator(self):
        assert span_bruteforce(code("11")) == code("00", "11")

    def test_one_closure_round(self):
        assert span_bruteforce(code("00", "01", "10")) == code(
            "00", "01", "10", "11"
        )

    def test_contains_input(self):
        for c in seeded_codes(0xC2, 30, max_n=7, size_cap=8):
            closed = span_bruteforce(c)
            assert all(word in closed for word in c)
            assert closed.contains_zero()

    def test_agrees_with_rref_enumeration(self):
        for c in seeded_codes(0xC3, 120, max_n=8, size_cap=10):
            assert span_bruteforce(c) == span_enumerate(rref(c.words))

    def test_closure_cap(self, monkeypatch):
        monkeypatch.setenv("PLOTKIN_MAX_ENUM", "4")
        with pytest.raises(ValueError, match="cap of 4"):
            span_bruteforce(code("1000", "0100", "0010", "0001"))

    def test_closure_refuses_before_it_allocates(self, monkeypatch):
        # 4,096 words of length 24 and rank 24: the first round alone would
        # pair every word with every other.
        c = plotkin_construct(
            random_code(12, 64, 1, include_zero=True),
            random_code(12, 64, 2, include_zero=True),
        )
        assert len(c) == 4096 and rank(c) == 24
        monkeypatch.setenv("PLOTKIN_MAX_ENUM", "8192")
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="cap of 8192"):
                span_bruteforce(c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20
