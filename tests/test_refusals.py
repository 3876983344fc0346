"""Every public constructor refuses an over-long length or an over-cap size.

Each refusal is provoked by the smallest input past the limit, never by a
huge argument or by allocating, and must come back within a fixed budget:
the limit is checked before anything is computed.
"""

import time

import pytest

from plotkit.core import MAX_LENGTH, Code, Word
from plotkit.families import (
    from_generator,
    parity,
    random_code,
    reed_muller,
    repetition,
    universe,
)
from plotkit.gf2 import Gf2Basis, rref, span_enumerate
from plotkit.plotkin import plotkin_construct

BUDGET_S = 0.5
LENGTH_MESSAGE = f"word length must be in 1..{MAX_LENGTH}, got"


@pytest.fixture(autouse=True)
def fresh_reed_muller():
    # reed_muller is memoized; a code cached under a higher cap would
    # be returned without a check.
    reed_muller.cache_clear()
    yield
    reed_muller.cache_clear()


def refusal_time(call, match):
    start = time.perf_counter()
    with pytest.raises(ValueError, match=match):
        call()
    return time.perf_counter() - start


def unit_rows(n, k):
    return [Word(n, 1 << i) for i in range(k)]


def half_length_pair():
    # (u|u+v) doubles the length, so the smallest output over the limit
    # comes from inputs one past half of it.
    half = Code._from_bits(MAX_LENGTH // 2 + 1, [0])
    return half, half


TOO_LONG = {
    "repetition": lambda: repetition(MAX_LENGTH + 1),
    "universe": lambda: universe(MAX_LENGTH + 1),
    "parity": lambda: parity(MAX_LENGTH + 1),
    "random_code": lambda: random_code(MAX_LENGTH + 1, 1, seed=0),
    # 2^13 = 8192 is the first Reed-Muller length over 4096
    "reed_muller": lambda: reed_muller(1, MAX_LENGTH.bit_length()),
    "plotkin_construct": lambda: plotkin_construct(*half_length_pair()),
    # no basis of that length can be built to pass in
    "span_enumerate": lambda: span_enumerate(Gf2Basis(MAX_LENGTH + 1, ())),
    # no generator row of that length can be built to pass in
    "from_generator": lambda: from_generator([Word(MAX_LENGTH + 1, 1)]),
}


@pytest.mark.parametrize("name", sorted(TOO_LONG))
def test_refuses_a_length_over_the_limit(name):
    assert refusal_time(TOO_LONG[name], LENGTH_MESSAGE) < BUDGET_S


@pytest.mark.parametrize("n", [0, MAX_LENGTH + 1])
def test_basis_refuses_a_length_outside_the_limit(n):
    assert refusal_time(lambda: Gf2Basis(n, ()), LENGTH_MESSAGE) < BUDGET_S


def test_empty_basis_of_a_valid_length_builds():
    assert rref([], n=4) == Gf2Basis(4, ())


# Each call with the number of words it materializes. The cap is set one
# word below that; the powers of two cannot land on 101, the rest do.
# repetition is absent: it always has exactly two words.
OVER_THE_CAP = {
    "universe": (lambda: universe(7), 128),
    "parity": (lambda: parity(8), 128),
    "random_code": (lambda: random_code(8, 101, seed=0), 101),
    # RM(1,6) has 128 words; the top-level construction doubles it
    "reed_muller": (lambda: reed_muller(1, 7), 256),
    # _from_bits checks no cap, so the 101-word input builds under it
    "plotkin_construct": (
        lambda: plotkin_construct(
            Code._from_bits(7, range(101)), Code._from_bits(7, [0])
        ),
        101,
    ),
    "span_enumerate": (lambda: span_enumerate(rref(unit_rows(9, 7))), 128),
    "from_generator": (lambda: from_generator(unit_rows(9, 7)), 128),
}


@pytest.mark.parametrize("name", sorted(OVER_THE_CAP))
def test_refuses_one_word_over_the_cap(name, monkeypatch):
    call, words = OVER_THE_CAP[name]
    monkeypatch.setenv("PLOTKIN_MAX_ENUM", str(words - 1))
    match = f"has {words} words, over the enumeration cap of {words - 1}"
    assert refusal_time(call, match) < BUDGET_S
    monkeypatch.setenv("PLOTKIN_MAX_ENUM", str(words))
    assert len(call()) == words
