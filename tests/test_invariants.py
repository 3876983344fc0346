"""Minimum distance, rank, kernel, linearity: examples and structural laws."""

from itertools import combinations

import pytest
from strategies import code, w

from plotkit.core import Code, Word, translate
from plotkit.families import _splitmix64, parity, random_code, repetition
from plotkit.gf2 import rref, span_enumerate
import plotkit.invariants as invariants
from plotkit.invariants import (
    CodeSummary,
    dim,
    is_linear,
    kernel,
    kernel_dim,
    min_distance,
    rank,
    summarize,
)


def pairwise_min(c):
    """Distance oracle: scan every unordered pair, no shortcuts."""
    return min(
        (a ^ b).bit_count() for a, b in combinations(c.bit_patterns, 2)
    )


def kernel_fullscan(c):
    """Kernel oracle: try every x in GF(2)^n directly from the definition."""
    kept = [
        x
        for x in range(1 << c.n)
        if translate(c, Word(c.n, x)) == c
    ]
    return Code([Word(c.n, x) for x in kept])


class TestMinDistance:
    def test_repetition_pair(self):
        assert min_distance(code("00", "11")) == 2

    def test_three_word_code(self):
        assert min_distance(code("00", "01", "10")) == 1

    def test_even_weight_code(self):
        assert min_distance(parity(4)) == 2

    def test_singleton_undefined(self):
        with pytest.raises(ValueError, match="undefined"):
            min_distance(code("0110"))

    def test_weight_shortcut_agrees_with_pairwise(self):
        linear_codes = [
            repetition(5),
            parity(6),
            span_enumerate(rref([w("110100"), w("011010"), w("000111")])),
        ]
        for c in linear_codes:
            assert is_linear(c)
            assert min_distance(c) == pairwise_min(c)

    def test_pairwise_path_agrees_with_oracle(self):
        for seed in range(20):
            c = random_code(6, 2 + seed % 10, seed=seed)
            assert min_distance(c) == pairwise_min(c)


class TestRank:
    def test_zero_code(self):
        assert rank(Code([Word.zero(5)])) == 0

    def test_spanning_triple(self):
        assert rank(code("00", "01", "10")) == 2

    def test_linear_code_rank_is_dimension(self):
        c = span_enumerate(rref([w("1100"), w("0011")]))
        assert rank(c) == 2
        assert kernel_dim(c) == 2


class TestKernel:
    def test_linear_code_is_its_own_kernel(self):
        c = code("00", "11")
        assert kernel(c) == c

    def test_three_word_code_has_trivial_kernel(self):
        assert kernel(code("00", "01", "10")) == code("00")

    def test_six_word_construction_kernel(self):
        c = code("0000", "0011", "0101", "0110", "1010", "1001")
        assert kernel(c) == kernel_fullscan(c)
        assert kernel(c) == code("0000", "0011")

    def test_contains_zero_and_closed_under_xor(self):
        for seed in range(25):
            c = random_code(5, 1 + seed % 12, seed=seed + 1000, include_zero=bool(seed % 2))
            k = kernel(c)
            assert k.contains_zero()
            members = set(k.bit_patterns)
            for a, b in combinations(k.bit_patterns, 2):
                assert a ^ b in members

    def test_subcode_when_zero_present(self):
        for seed in range(25):
            c = random_code(6, 1 + seed % 16, seed=seed + 2000, include_zero=True)
            assert all(x in c for x in kernel(c))

    def test_coset_kernel_not_a_subcode(self):
        # {01, 10} is {00, 11} shifted by 01; kernel stays {00, 11}
        c = code("01", "10")
        assert not c.contains_zero()
        assert kernel(c) == code("00", "11")

    def test_candidate_restriction_matches_full_scan(self):
        for seed in range(40):
            n = 2 + seed % 7
            include_zero = bool(seed % 3)
            m = 1 + seed % min((1 << n) - (not include_zero), 14)
            c = random_code(n, m, seed=seed + 3000, include_zero=include_zero)
            assert kernel(c) == kernel_fullscan(c)

    def test_full_scan_agreement_at_width_twelve(self):
        c = random_code(12, 20, seed=77, include_zero=True)
        assert kernel(c) == kernel_fullscan(c)


class TestDim:
    def test_powers_of_two(self):
        assert dim(code("000")) == 0
        assert dim(code("000", "011")) == 1
        assert dim(parity(4)) == 3

    def test_non_subspace_size_raises(self):
        with pytest.raises(ValueError, match="not a subspace"):
            dim(code("00", "01", "10"))

    def test_kernel_dim_raises_on_a_broken_kernel(self, monkeypatch):
        # no real kernel has 3 words; the check must not rely on assert,
        # which python -O strips
        monkeypatch.setattr(invariants, "kernel", lambda c: code("00", "01", "10"))
        with pytest.raises(ValueError, match="3 words is not a subspace"):
            kernel_dim(code("00", "11"))


class TestIsLinear:
    def test_examples(self):
        assert is_linear(code("00", "11"))
        assert not is_linear(code("00", "01", "10"))
        assert is_linear(Code([Word.zero(3)]))
        assert not is_linear(code("0110"))


class TestSummarize:
    def test_repetition_pair(self):
        assert summarize(code("00", "11")) == CodeSummary(
            n=2, M=2, d=2, rank=1, ker_dim=1, is_linear=True
        )

    def test_nonlinear_triple(self):
        assert summarize(code("00", "01", "10")) == CodeSummary(
            n=2, M=3, d=1, rank=2, ker_dim=0, is_linear=False
        )

    def test_degenerate_zero_code(self):
        assert summarize(Code([Word.zero(3)])) == CodeSummary(
            n=3, M=1, d=None, rank=0, ker_dim=0, is_linear=True
        )

    def test_internal_consistency_on_random_codes(self):
        stream = _splitmix64(0xFEED)
        for _ in range(60):
            n = 2 + next(stream) % 7
            include_zero = bool(next(stream) % 2)
            m = 1 + next(stream) % min((1 << n) - (not include_zero), 20)
            c = random_code(n, m, seed=next(stream), include_zero=include_zero)
            s = summarize(c)
            assert s.ker_dim <= s.rank <= s.n
            assert s.M <= 1 << s.rank
            assert s.is_linear == (s.M == 1 << s.rank)
            assert s.is_linear == (s.rank == s.ker_dim and c.contains_zero())
