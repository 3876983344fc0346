"""Each code is analysed once: row reductions, kernel scans and distance
searches are counted.

The calls of the reduction helper, the kernel scan and the distance search
are recorded in every plotkit module that binds them, so the counts cover
every call site.
"""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import plotkit.gf2 as gf2
import plotkit.invariants as invariants
from plotkit.cli import cli_main
from plotkit.codefile import format_code_file
from plotkit.core import Code, Word
from plotkit.gf2 import Gf2Basis, code_basis
from plotkit.families import parity, random_code, universe
from plotkit.invariants import (
    is_linear,
    kernel,
    kernel_dim,
    min_distance,
    rank,
    summarize,
)
from plotkit.plotkin import plotkin_construct, verify_plotkin


@pytest.fixture
def work(record):
    """The calls made so far, by the kind of work."""
    calls = {}
    for module, attr, key in (
        (gf2, "_reduce_bits", "reductions"),
        (invariants, "_kernel_scan", "kernel scans"),
        (invariants, "_distance", "distance searches"),
    ):
        original, calls[key] = getattr(module, attr), []
        for name, mod in list(sys.modules.items()):
            if name.startswith("plotkit") and vars(mod).get(attr) is original:
                record(mod, attr, calls[key])
    return calls


def counts(calls: dict) -> dict:
    """The number of calls under each key that has any."""
    return {key: len(made) for key, made in calls.items() if made}


def nonlinear_pair():
    # 40 and 24 words are not powers of two, so neither input nor the
    # 960-word construction is linear: each has a kernel to scan.
    return (
        random_code(9, 40, seed=101, include_zero=True),
        random_code(9, 24, seed=102, include_zero=True),
    )


def small_files(tmp_path):
    """Two code files small enough for the closure oracle; 12 * 6 = 72
    words in the construction, nonlinear."""
    paths = []
    for name, m, seed in (("a.code", 12, 103), ("b.code", 6, 104)):
        path = tmp_path / name
        path.write_text(format_code_file(random_code(5, m, seed, include_zero=True)))
        paths.append(str(path))
    return paths


def test_verify_reduces_eight_times_and_scans_three_kernels(work):
    c1, c2 = nonlinear_pair()
    assert verify_plotkin(c1, c2).all_checks_hold
    # c1, c2, the constructed code, the direct span's generators, the
    # three kernels and the direct kernel's generators: eight distinct
    # codes or row lists, each reduced once
    assert len(work["reductions"]) == 8
    # c1, c2 and the constructed code
    assert len(work["kernel scans"]) == 3
    assert len(work["distance searches"]) == 3
    # each code is reduced at most once: reading them again does no work
    for c in (c1, c2, kernel(c1), kernel(c2)):
        rank(c)
    assert len(work["reductions"]) == 8


@pytest.fixture
def built(record):
    """The Word and Gf2Basis values constructed so far, by class name."""
    return {cls.__name__: record(cls, "__post_init__") for cls in (Word, Gf2Basis)}


def test_verify_builds_no_word_or_basis(built, tmp_path):
    c1, c2 = nonlinear_pair()
    assert verify_plotkin(c1, c2).all_checks_hold
    # out of the hypothesis too: one word (u|u+v) spans less than the
    # direct rows (u|u) and (0|v)
    lone = Code._from_bits(9, [3]), Code._from_bits(9, [5])
    assert not verify_plotkin(*lone).theorem_ii_holds
    # nor does the command line, with its oracles
    assert cli_main(["verify", "--oracle", *small_files(tmp_path)]) == 0
    assert counts(built) == {}
    # the counters see a basis that is built
    code_basis(c1)
    assert len(built["Gf2Basis"]) == 1


@pytest.mark.parametrize("flags", [[], ["--oracle"]])
def test_cli_verify_analyses_the_constructed_code_once(work, tmp_path, flags):
    assert cli_main(["verify", *flags, *small_files(tmp_path)]) == 0
    # the three codes and their three kernels, and the direct generators
    # of the span and of the kernel
    assert counts(work) == {"reductions": 8, "kernel scans": 3, "distance searches": 3}


def test_summaries_after_verify_do_no_new_work(work):
    c1, c2 = nonlinear_pair()
    verify_plotkin(c1, c2)
    before = counts(work)
    summarize(c1)
    summarize(c2)
    assert counts(work) == before


def test_repeated_analyses_of_one_code_reduce_and_scan_once(work):
    c = plotkin_construct(*nonlinear_pair())
    for _ in range(3):
        rank(c), is_linear(c), kernel(c), kernel_dim(c), min_distance(c), summarize(c)
    assert counts(work) == {"reductions": 1, "kernel scans": 1, "distance searches": 1}


def test_linear_code_is_reduced_once_and_never_scanned(work):
    c = plotkin_construct(universe(6), parity(6))
    for _ in range(3):
        assert kernel(c) is c
        summarize(c)
    assert counts(work) == {"reductions": 1, "distance searches": 1}
    # the kernel of a linear code is the code itself, never a stored cycle
    assert c._kernel is None


@st.composite
def codes(draw):
    n = draw(st.integers(1, 7))
    patterns = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=24))
    return n, patterns


def analyses(code: Code):
    return rank(code), kernel(code), summarize(code)


@settings(max_examples=60, deadline=None)
@given(codes())
def test_cached_and_fresh_analyses_agree(case):
    n, patterns = case
    fresh = Code(Word(n, b) for b in patterns)
    first = analyses(fresh)
    # the same object, caches now filled
    assert analyses(fresh) == first
    # an equal code built separately, from the words in another order
    assert analyses(Code(Word(n, b) for b in reversed(patterns))) == first
