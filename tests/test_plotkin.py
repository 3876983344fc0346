"""Construction behavior: direct kernel/span assembly vs. independent measurement."""

import tracemalloc
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import code, coset_unions, w

import plotkit.plotkin as plotkin
from plotkit.core import MAX_LENGTH, Code, Word, translate
from plotkit.families import _splitmix64, random_code, reed_muller, repetition, universe
from plotkit.gf2 import Gf2Basis, _code_rows, code_basis, rref, span_enumerate
from plotkit.invariants import is_linear, kernel, min_distance, rank, summarize
from plotkit.plotkin import (
    CHECKS,
    CodeParams,
    _verify,
    plotkin_construct,
    predict_params,
    span_direct,
    verify_plotkin,
)


def halves(word):
    n = word.length // 2
    return Word(n, word.bits >> n), Word(n, word.bits & ((1 << n) - 1))


def seeded_pairs(base_seed, count, max_n=6, size_cap=16, force_zero=True):
    stream = _splitmix64(base_seed)
    for _ in range(count):
        n = 2 + next(stream) % (max_n - 1)
        bound = min((1 << n) - (not force_zero), size_cap)
        m1 = 1 + next(stream) % bound
        m2 = 1 + next(stream) % bound
        yield (
            random_code(n, m1, seed=next(stream), include_zero=force_zero),
            random_code(n, m2, seed=next(stream), include_zero=force_zero),
        )


class TestConstruct:
    def test_repetition_squared(self):
        c = plotkin_construct(code("00", "11"), code("00", "11"))
        assert c == code("0000", "0011", "1111", "1100")

    def test_running_example(self):
        c = plotkin_construct(code("00", "01", "10"), code("00", "11"))
        assert c == code("0000", "0011", "0101", "0110", "1010", "1001")
        assert len(c) == 6

    def test_zero_singletons(self):
        c = plotkin_construct(Code([Word.zero(3)]), Code([Word.zero(3)]))
        assert c == Code([Word.zero(6)])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            plotkin_construct(code("00"), code("000"))

    def test_cardinality_multiplies_even_without_zero(self):
        for c1, c2 in seeded_pairs(0xA0, 30, force_zero=False):
            assert len(plotkin_construct(c1, c2)) == len(c1) * len(c2)

    def test_refuses_over_the_cap_before_building(self, monkeypatch):
        monkeypatch.setenv("PLOTKIN_MAX_ENUM", "100")
        c1 = random_code(6, 11, seed=1, include_zero=True)
        c2 = random_code(6, 10, seed=2, include_zero=True)
        with pytest.raises(ValueError, match="110 words, over the enumeration cap of 100"):
            plotkin_construct(c1, c2)
        assert len(plotkin_construct(c1, random_code(6, 9, seed=2))) == 99

    def test_refuses_a_length_over_the_word_limit(self):
        half = Code._from_bits(MAX_LENGTH // 2 + 1, [0])
        with pytest.raises(ValueError, match=f"word length must be in 1..{MAX_LENGTH}"):
            plotkin_construct(half, half)

    def test_refuses_a_long_construction_before_building(self):
        # 40,000 words of length 4,200 would take over 20 MB to build.
        c1, c2 = (random_code(2100, 200, seed=s) for s in (1, 2))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"must be in 1..{MAX_LENGTH}, got 4200"):
                plotkin_construct(c1, c2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestKernelDirect:
    """The construction map applied to the input kernels: {(x|x+y)}."""

    def test_running_example(self):
        c1, c2 = code("00", "01", "10"), code("00", "11")
        built = plotkin_construct(kernel(c1), kernel(c2))
        assert built == code("0000", "0011")
        assert built == kernel(plotkin_construct(c1, c2))

    def test_zero_singletons(self):
        zero = Code([Word.zero(2)])
        assert plotkin_construct(kernel(zero), kernel(zero)) == Code([Word.zero(4)])

    def test_full_kernels_give_full_kernel(self):
        u = universe(2)
        assert plotkin_construct(kernel(u), kernel(u)) == universe(4)


class TestSpanDirect:
    def test_plane_and_line(self):
        basis = span_direct(rref([w("10"), w("01")]), rref([w("11")]))
        assert basis.dim == 3
        assert len(span_enumerate(basis)) == 8
        assert basis == rref([w("1010"), w("0101"), w("0011")])

    def test_empty_inputs(self):
        assert span_direct(Gf2Basis(2, ()), Gf2Basis(2, ())).dim == 0

    def test_empty_right_leaves_diagonal(self):
        b = rref([w("110"), w("011")])
        built = span_direct(b, Gf2Basis(3, ()))
        assert built.dim == b.dim
        diagonal = [Word(6, (r.bits << 3) | r.bits) for r in b.rows]
        assert built == rref(diagonal)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            span_direct(rref([w("10")]), rref([w("100")]))


class TestPredictParams:
    def test_linear_pair(self):
        s1 = summarize(universe(2))
        s2 = summarize(repetition(2))
        assert predict_params(s1, s2) == CodeParams(
            length=4, size=8, distance=2, rank=3, kernel_dim=3
        )

    def test_running_example(self):
        s1 = summarize(code("00", "01", "10"))
        s2 = summarize(code("00", "11"))
        assert predict_params(s1, s2) == CodeParams(
            length=4, size=6, distance=2, rank=3, kernel_dim=1
        )

    def test_min_rule_with_self(self):
        s = summarize(code("0000", "1111"))  # d = 4
        assert predict_params(s, s).distance == min(2 * 4, 4)

    def test_distance_absent_propagates(self):
        s1 = summarize(Code([Word.zero(2)]))
        s2 = summarize(universe(2))
        assert predict_params(s1, s2).distance is None
        assert predict_params(s2, s1).distance is None

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            predict_params(summarize(universe(2)), summarize(universe(3)))


class TestFactorizationLaws:
    def test_kernel_inclusion_forward(self):
        # every assembled (x|x+y) really does fix the constructed code
        for c1, c2 in seeded_pairs(0xB1, 25):
            constructed = plotkin_construct(c1, c2)
            for x in kernel(c1):
                for y in kernel(c2):
                    word = Word(
                        constructed.n,
                        (x.bits << c1.n) | (x.bits ^ y.bits),
                    )
                    assert translate(constructed, word) == constructed

    def test_kernel_inclusion_backward(self):
        # every member of the measured kernel splits through the inputs
        for c1, c2 in seeded_pairs(0xB2, 25):
            constructed = plotkin_construct(c1, c2)
            k1, k2 = kernel(c1), kernel(c2)
            for member in kernel(constructed):
                x, right = halves(member)
                assert x in k1
                assert x ^ right in k2

    def test_span_factorization(self):
        for c1, c2 in seeded_pairs(0xB3, 25):
            constructed = plotkin_construct(c1, c2)
            assert rref(constructed.words) == span_direct(
                rref(c1.words), rref(c2.words)
            )

    def test_dimension_additivity(self):
        for c1, c2 in seeded_pairs(0xB4, 25):
            constructed = plotkin_construct(c1, c2)
            assert rank(constructed) == rank(c1) + rank(c2)
            k = kernel(constructed)
            k1, k2 = kernel(c1), kernel(c2)
            assert len(k) == len(k1) * len(k2)

    def test_distance_min_rule(self):
        for c1, c2 in seeded_pairs(0xB5, 25, size_cap=12):
            if len(c1) < 2 or len(c2) < 2:
                continue
            constructed = plotkin_construct(c1, c2)
            assert min_distance(constructed) == min(
                2 * min_distance(c1), min_distance(c2)
            )

    def test_linearity_transport(self):
        stream = _splitmix64(0xB6)
        for _ in range(15):
            n = 3 + next(stream) % 4
            rows1 = [Word(n, 1 + next(stream) % ((1 << n) - 1)) for _ in range(3)]
            rows2 = [Word(n, 1 + next(stream) % ((1 << n) - 1)) for _ in range(2)]
            c1 = span_enumerate(rref(rows1))
            c2 = span_enumerate(rref(rows2))
            assert is_linear(plotkin_construct(c1, c2))


class TestVerify:
    def test_running_example_all_flags(self):
        report = verify_plotkin(code("00", "01", "10"), code("00", "11"))
        assert report.hypothesis_ok
        assert report.all_checks_hold
        assert report.ok
        assert report.observed == CodeParams(
            length=4, size=6, distance=2, rank=3, kernel_dim=1
        )
        assert report.predicted == report.observed

    def test_each_check_is_listed_once_and_decides_all_checks_hold(self):
        report = verify_plotkin(code("00", "01", "10"), code("00", "11"))
        flags = [f.name for f in fields(report) if type(getattr(report, f.name)) is bool]
        listed = [field for field, _ in CHECKS]
        assert sorted(listed) == sorted(f for f in flags if f != "hypothesis_ok")
        assert report.all_checks_hold
        for field in listed:
            failing = replace(report, **{field: False})
            assert not failing.all_checks_hold and not failing.ok

    def test_degenerate_zero_pair(self):
        zero = Code([Word.zero(4)])
        report = verify_plotkin(zero, zero)
        assert report.all_checks_hold
        assert report.observed.distance is None
        assert report.predicted.distance is None

    def test_corpus_pairs_all_pass(self):
        for c1, c2 in seeded_pairs(0xB7, 40):
            report = verify_plotkin(c1, c2)
            assert report.hypothesis_ok
            assert report.all_checks_hold, (c1.words, c2.words)

    def test_distance_slot_is_order_sensitive(self):
        rep2 = code("00", "11")  # d = 2
        uni2 = universe(2)  # d = 1
        first = verify_plotkin(uni2, rep2)
        second = verify_plotkin(rep2, uni2)
        assert first.observed.distance == min(2 * 1, 2) == 2
        assert second.observed.distance == min(2 * 2, 1) == 1
        assert first.all_checks_hold and second.all_checks_hold
        assert first.observed.rank == second.observed.rank == 3
        assert first.observed.kernel_dim == second.observed.kernel_dim == 3

    def test_out_of_hypothesis_is_informational(self):
        c1 = code("01", "10")  # no zero word
        c2 = code("00", "11")
        report = verify_plotkin(c1, c2)
        assert not report.hypothesis_ok
        assert report.ok

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            verify_plotkin(code("00"), code("000"))

    def test_builds_the_construction_once(self, record):
        calls = record(plotkin, "plotkin_construct")
        c1, c2 = reed_muller(1, 3), random_code(8, 20, seed=7, include_zero=True)
        assert verify_plotkin(c1, c2).all_checks_hold
        assert [call.args for call in calls] == [(c1, c2)]

    def test_a_kernel_missing_one_word_fails_theorem_i(self, monkeypatch):
        c1, c2 = reed_muller(1, 3), random_code(8, 20, seed=7, include_zero=True)
        code = plotkin_construct(c1, c2)
        assert _verify(c1, c2, code).theorem_i_holds
        full = kernel(code)
        # drop the largest word, which is nonzero; at dimension 4 or more the
        # rest still spans the kernel, so its rows alone would match
        short = Code._from_bits(code.n, full.bit_patterns[:-1])
        assert _code_rows(short) == _code_rows(full)
        monkeypatch.setattr(
            plotkin, "kernel", lambda c: short if c is code else kernel(c)
        )
        report = _verify(c1, c2, code)
        assert not report.theorem_i_holds
        assert report.theorem_ii_holds and not report.ok


@st.composite
def input_pairs(draw):
    """Two seeded random codes of one length, each with or without zero."""
    n = draw(st.integers(1, 6))
    codes = []
    for _ in range(2):
        zero = draw(st.booleans())
        m = draw(st.integers(1, (1 << n) - (not zero)))
        codes.append(random_code(n, m, draw(st.integers(0, 1 << 32)), include_zero=zero))
    return codes


@settings(max_examples=200, deadline=None)
@given(input_pairs())
def test_span_flag_matches_the_basis_comparison(pair):
    c1, c2 = pair
    # the comparison of Gf2Basis values that the packed rows replace
    reference = code_basis(plotkin_construct(c1, c2)) == span_direct(
        code_basis(c1), code_basis(c2)
    )
    assert verify_plotkin(c1, c2).theorem_ii_holds == reference
    if c1.contains_zero() and c2.contains_zero():
        assert reference


@st.composite
def kernel_pairs(draw):
    """input_pairs; two coset unions of one length, whose kernels hold their
    subspaces; or RM(1,3), a 4-dimensional kernel, beside a random code."""
    kind = draw(st.sampled_from(["random", "coset_unions", "reed_muller"]))
    if kind == "random":
        return draw(input_pairs())
    if kind == "coset_unions":
        n = draw(st.integers(1, 8))
        return [draw(coset_unions(n))[0] for _ in range(2)]
    zero = draw(st.booleans())
    m = draw(st.integers(1, 255))
    other = random_code(8, m, draw(st.integers(0, 1 << 32)), include_zero=zero)
    return draw(st.permutations([reed_muller(1, 3), other]))


@settings(max_examples=200, deadline=None)
@given(kernel_pairs())
def test_kernel_flag_matches_the_set_comparison(pair):
    c1, c2 = pair
    # the comparison of sets that the canonical rows replace
    reference = kernel(plotkin_construct(c1, c2)) == plotkin_construct(
        kernel(c1), kernel(c2)
    )
    assert verify_plotkin(c1, c2).theorem_i_holds == reference
    # (u, v) -> (u|u+v) is a bijection of GF(2)^2n, so Theorem I needs no
    # zero word: the kernels factor on every pair
    assert reference
