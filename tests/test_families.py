"""Family generators: classical codes, the recursive family, seeded randomness."""

from itertools import islice

import pytest
from strategies import w

from plotkit.core import Code, Word
from plotkit.families import (
    _GAMMA,
    _splitmix64,
    build_family,
    from_generator,
    parity,
    random_code,
    reed_muller,
    repetition,
    universe,
)
from plotkit.invariants import is_linear, min_distance, rank, summarize


class TestClassicalFamilies:
    def test_repetition(self):
        assert repetition(2) == Code([w("00"), w("11")])
        s = summarize(repetition(5))
        assert (s.n, s.rank, s.d, s.is_linear) == (5, 1, 5, True)

    def test_universe(self):
        assert universe(2) == Code([w("00"), w("01"), w("10"), w("11")])
        s = summarize(universe(4))
        assert (s.n, s.rank, s.d, s.is_linear) == (4, 4, 1, True)

    def test_parity(self):
        assert parity(3) == Code([w("000"), w("011"), w("101"), w("110")])
        s = summarize(parity(3))
        assert (s.n, s.rank, s.d, s.is_linear) == (3, 2, 2, True)
        assert all(word.weight() % 2 == 0 for word in parity(6))

    def test_parity_of_one_bit_is_trivial(self):
        assert parity(1) == Code([Word.zero(1)])

    def test_bad_lengths(self):
        for family in (repetition, universe, parity):
            with pytest.raises(ValueError):
                family(0)


class TestReedMuller:
    def test_first_order_length_four(self):
        rm = reed_muller(1, 2)
        assert rm == parity(4)
        s = summarize(rm)
        assert (s.n, s.rank, s.d, s.is_linear) == (4, 3, 2, True)

    def test_order_zero_is_repetition(self):
        assert reed_muller(0, 3) == Code([Word.zero(8), Word.ones(8)])

    def test_first_order_length_eight(self):
        s = summarize(reed_muller(1, 3))
        assert (s.n, s.rank, s.d, s.is_linear) == (8, 4, 4, True)

    def test_top_order_is_universe(self):
        assert reed_muller(2, 2) == universe(4)

    def test_nesting(self):
        for m in range(1, 5):
            for r in range(1, m + 1):
                larger = reed_muller(r, m)
                assert all(word in larger for word in reed_muller(r - 1, m))

    def test_bad_orders(self):
        with pytest.raises(ValueError):
            reed_muller(3, 2)
        with pytest.raises(ValueError):
            reed_muller(-1, 2)
        with pytest.raises(ValueError):
            reed_muller(0, 0)


class TestRandomCode:
    def test_deterministic_per_seed(self):
        a = random_code(6, 10, seed=42, include_zero=True)
        b = random_code(6, 10, seed=42, include_zero=True)
        assert a == b
        assert len(a) == 10
        assert a.contains_zero()
        assert a != random_code(6, 10, seed=43, include_zero=True)

    def test_zero_membership_iff_requested(self):
        for seed in range(20):
            with_zero = random_code(5, 6, seed=seed, include_zero=True)
            without = random_code(5, 6, seed=seed, include_zero=False)
            assert with_zero.contains_zero()
            assert not without.contains_zero()

    def test_saturation_gives_universe(self):
        for seed in (0, 7, 123456789):
            assert random_code(4, 16, seed=seed, include_zero=True) == universe(4)

    def test_single_word_with_zero(self):
        assert random_code(5, 1, seed=9, include_zero=True) == Code([Word.zero(5)])

    def test_dense_without_zero(self):
        c = random_code(4, 15, seed=3, include_zero=False)
        assert len(c) == 15
        assert not c.contains_zero()

    def test_cardinality_bounds(self):
        with pytest.raises(ValueError):
            random_code(3, 0, seed=1)
        with pytest.raises(ValueError):
            random_code(3, 9, seed=1, include_zero=True)
        with pytest.raises(ValueError):
            random_code(3, 8, seed=1, include_zero=False)
        with pytest.raises(ValueError):
            random_code(0, 1, seed=1)


class TestSplitMix64:
    @pytest.mark.parametrize("seed", [0, 7, -3, (1 << 64) - 2, (1 << 64) - 1])
    @pytest.mark.parametrize("k", [1, 5, 1000])
    def test_jump_ahead(self, seed, k):
        # The state after k draws is seed + k*gamma mod 2^64, so a stream
        # seeded there goes on where the first one is after k draws.
        ahead = list(islice(_splitmix64(seed + k * _GAMMA), 10))
        assert list(islice(_splitmix64(seed), k, k + 10)) == ahead


class TestFamilySpec:
    def test_numeric_kinds(self):
        assert build_family("repetition", ("3",)) == repetition(3)
        assert build_family("reed_muller", ("1", "3")) == reed_muller(1, 3)
        assert build_family("random", ("5", "6", "11")) == random_code(5, 6, seed=11)
        assert build_family("random", ("5", "6", "11", "1")) == random_code(
            5, 6, seed=11, include_zero=True
        )
        assert build_family("random", ("5", "6", "11", "0")) == random_code(
            5, 6, seed=11
        )

    def test_from_generator(self):
        built = build_family("from_generator", ("11", "01"))
        assert built == universe(2)
        assert from_generator([w("11"), w("01")]) == universe(2)

    def test_rejects_bad_specs(self):
        with pytest.raises(ValueError):
            build_family("golay", ("23",))
        with pytest.raises(ValueError):
            build_family("repetition", ("2", "3"))
        with pytest.raises(ValueError):
            build_family("reed_muller", ("x", "3"))
        with pytest.raises(ValueError):
            build_family("random", ("5",))
        for flag in ("7", "-1", "2"):
            with pytest.raises(ValueError, match=f"must be 0 or 1, got {flag}$"):
                build_family("random", ("5", "6", "11", flag))
        with pytest.raises(ValueError):
            build_family("from_generator", ())


class TestGeneratedParameters:
    def test_reed_muller_is_linear_with_classical_parameters(self):
        from math import comb

        for m in range(1, 4):
            for r in range(0, m + 1):
                rm = reed_muller(r, m)
                assert is_linear(rm)
                assert rank(rm) == sum(comb(m, i) for i in range(r + 1))
                assert min_distance(rm) == 1 << (m - r)
