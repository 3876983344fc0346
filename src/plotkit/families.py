"""Deterministic code generators: classical families and seeded random codes."""

from __future__ import annotations

from typing import Iterator

from . import core
from .core import Code, Word
from .gf2 import check_enumeration, rref, span_enumerate
from .plotkin import plotkin_construct

KINDS = ("repetition", "universe", "parity", "reed_muller", "from_generator", "random")

_MASK64 = (1 << 64) - 1


def _splitmix64(seed: int) -> Iterator[int]:
    """SplitMix64 stream: add the golden-gamma constant, then mix.

    state += 0x9E3779B97F4A7C15
    z = state; z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
    z = (z ^ z>>27) * 0x94D049BB133111EB; output z ^ z>>31

    Small, stateless apart from the counter, and identical on every run
    for the same seed, which is all the corpus machinery needs.
    """
    state = seed & _MASK64
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        yield z ^ (z >> 31)


def _draw_bits(stream: Iterator[int], n: int) -> int:
    v = 0
    for _ in range((n + 63) // 64):
        v = (v << 64) | next(stream)
    return v & ((1 << n) - 1)


def repetition(n: int) -> Code:
    """{0^n, 1^n}: the [n, 1, n] repetition code."""
    core._check_length(n)
    return Code._from_distinct(n, [0, (1 << n) - 1])


def universe(n: int) -> Code:
    """All 2^n words: the [n, n, 1] full space."""
    core._check_length(n)
    check_enumeration(1 << n, f"universe({n})")
    return Code._from_distinct(n, list(range(1 << n)))


def parity(n: int) -> Code:
    """Even-weight words: the [n, n-1, 2] code; {0} for n = 1."""
    core._check_length(n)
    if n == 1:
        return Code._from_distinct(1, [0])
    check_enumeration(1 << (n - 1), f"parity({n})")
    return Code._from_distinct(
        n, [(p << 1) | (p.bit_count() & 1) for p in range(1 << (n - 1))]
    )


def reed_muller(r: int, m: int) -> Code:
    """RM(r, m) by iterating the (u|u+v) construction.

    RM(r, m) = plotkin(RM(r, m-1), RM(r-1, m-1)), bottoming out at the
    repetition code for r = 0 and the full space for r = m. Length 2^m,
    dimension sum(C(m, i) for i <= r), distance 2^(m-r).
    """
    if m < 1:
        raise ValueError(f"m must be at least 1, got {m}")
    if m >= core.MAX_LENGTH.bit_length():  # 2^m > MAX_LENGTH, without 1 << m
        raise ValueError(f"word length must be in 1..{core.MAX_LENGTH}, got 2^{m}")
    if not 0 <= r <= m:
        raise ValueError(f"order r must satisfy 0 <= r <= m, got r={r}, m={m}")
    if r == 0:
        return repetition(1 << m)
    if r == m:
        return universe(1 << m)
    return plotkin_construct(reed_muller(r, m - 1), reed_muller(r - 1, m - 1))


# Nothing is cached: a code built under a higher PLOTKIN_MAX_ENUM would skip
# the cap check under a lower one, and caching saved no measurable time. The
# benchmark harness (bench/workloads.py) still binds this at import and calls
# it before each set-up and timed call, so it stays as a no-op.
reed_muller.cache_clear = lambda: None


def from_generator(rows: list[Word]) -> Code:
    """Row space of a generator matrix, materialized."""
    return span_enumerate(rref(rows))


def random_code(n: int, M: int, seed: int, include_zero: bool = False) -> Code:
    """M distinct seeded-random words of length n, without replacement.

    The zero word is a member iff include_zero is set, so M can reach 2^n
    only with it and 2^n - 1 without. Same (n, M, seed, include_zero),
    same code. M is checked against the enumeration cap before drawing.
    """
    core._check_length(n)
    space = 1 << n
    limit = space if include_zero else space - 1
    if not 1 <= M <= limit:
        raise ValueError(
            f"cardinality must be in 1..2^{n}{'' if include_zero else ' - 1'}"
            f" for n={n}{'' if include_zero else ' without the zero word'}, got {M}"
        )
    check_enumeration(M, f"random code of length {n}")
    stream = _splitmix64(seed)
    chosen: set[int] = {0} if include_zero else set()
    want = M if include_zero else M + 1  # count the excluded zero once
    if 2 * want > space:
        # Dense request: seeded partial Fisher-Yates instead of rejection.
        pool = list(range(space))
        i = space - 1
        while len(chosen) < M:
            j = next(stream) % (i + 1)
            pool[i], pool[j] = pool[j], pool[i]
            v = pool[i]
            i -= 1
            if v == 0 and not include_zero:
                continue
            chosen.add(v)
    else:
        while len(chosen) < M:
            v = _draw_bits(stream, n)
            if v == 0 and not include_zero:
                continue
            chosen.add(v)
    return Code._from_distinct(n, list(chosen))


def build_family(kind: str, args: tuple[str, ...]) -> Code:
    """Materialize a family from its kind and raw CLI arguments.

    Numeric kinds take integers: repetition/universe/parity (n),
    reed_muller (r, m), random (n, M, seed[, include_zero as 0/1]).
    from_generator takes bit-row strings. Argument errors raise ValueError.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown family kind {kind!r}; expected one of {KINDS}")
    if kind == "from_generator":
        if not args:
            raise ValueError("from_generator needs at least one generator row")
        return from_generator([Word.from_string(row) for row in args])
    try:
        nums = [int(a) for a in args]
    except ValueError:
        raise ValueError(f"{kind} takes integer arguments, got {args!r}") from None
    if kind in ("repetition", "universe", "parity"):
        if len(nums) != 1:
            raise ValueError(f"{kind} takes one argument (n), got {len(nums)}")
        return {"repetition": repetition, "universe": universe, "parity": parity}[
            kind
        ](nums[0])
    if kind == "reed_muller":
        if len(nums) != 2:
            raise ValueError(f"reed_muller takes two arguments (r, m), got {len(nums)}")
        return reed_muller(nums[0], nums[1])
    # random
    if len(nums) not in (3, 4):
        raise ValueError(
            f"random takes (n, M, seed[, include_zero]), got {len(nums)} arguments"
        )
    n, M, seed, zero = [*nums, 0][:4]
    if zero not in (0, 1):
        raise ValueError(f"random's include_zero must be 0 or 1, got {zero}")
    return random_code(n, M, seed, include_zero=zero == 1)
