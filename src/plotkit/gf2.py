"""GF(2) linear algebra on bit-packed words: RREF, span membership, enumeration."""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterable

from .core import Code, Word, _check_length

# Ceiling on materialized span sizes (number of words). Override with the
# PLOTKIN_MAX_ENUM environment variable.
DEFAULT_MAX_ENUM = 1 << 20
ENUM_CAP_ENV = "PLOTKIN_MAX_ENUM"


def enumeration_cap() -> int:
    """Current span-enumeration cap in words."""
    raw = os.environ.get(ENUM_CAP_ENV)
    if raw is None:
        return DEFAULT_MAX_ENUM
    cap = int(raw)
    if cap < 1:
        raise ValueError(f"{ENUM_CAP_ENV} must be positive, got {raw!r}")
    return cap


def check_enumeration(words: int, what: str) -> None:
    """Refuse, before allocating, to materialize more than the cap in words.

    `words` is the predicted size of what is about to be built and `what`
    names it in the error.
    """
    cap = enumeration_cap()
    if words > cap:
        raise ValueError(
            f"{what} has {words} words, over the enumeration cap "
            f"of {cap} (set {ENUM_CAP_ENV} to raise it)"
        )


@dataclass(frozen=True)
class Gf2Basis:
    """Canonical RREF basis of a subspace of GF(2)^n.

    Rows are stored with pivot columns strictly increasing (equivalently,
    decreasing as integers since column 0 is the most significant bit).
    Two bases are equal iff they span the same subspace.
    """

    n: int
    rows: tuple[Word, ...]

    def __post_init__(self) -> None:
        _check_length(self.n)
        pivots = []
        for w in self.rows:
            if w.length != self.n:
                raise ValueError(f"row length {w.length} != basis length {self.n}")
            if w.bits == 0:
                raise ValueError("zero row in basis")
            pivots.append(self.n - w.bits.bit_length())
        if pivots != sorted(set(pivots)):
            raise ValueError("pivot columns must be strictly increasing")
        for i, w in enumerate(self.rows):
            for j, p in enumerate(pivots):
                if i != j and (w.bits >> (self.n - 1 - p)) & 1:
                    raise ValueError("basis not reduced: pivot column reused")

    @property
    def dim(self) -> int:
        return len(self.rows)


def _reduce_bits(patterns: Iterable[int], n: int) -> list[int]:
    """RREF of packed length-n rows; returns rows sorted by decreasing value.

    Each row is reduced against a pivot dict keyed by top bit, and the scan
    stops once the rank reaches n: every later row is then in the span.
    Back-substitution clears each pivot column from the rows above it,
    which gives the canonical RREF of the span.
    """
    pivots: dict[int, int] = {}
    for v in patterns:
        while v:
            top = v.bit_length() - 1
            row = pivots.get(top)
            if row is None:
                pivots[top] = v
                break
            v ^= row
        if len(pivots) == n:
            break
    rows: list[int] = []
    for top in sorted(pivots):
        v = pivots[top]
        for r in rows:
            if (v >> (r.bit_length() - 1)) & 1:
                v ^= r
        rows.append(v)
    rows.reverse()
    return rows


def rref(words: Iterable[Word], n: int | None = None) -> Gf2Basis:
    """Canonical RREF basis of the span of the given words.

    `n` is inferred from the words when omitted; it is required for an
    empty input.
    """
    words = list(words)
    if n is None:
        if not words:
            raise ValueError("cannot infer word length from an empty list")
        n = words[0].length
    for w in words:
        if w.length != n:
            raise ValueError(f"mixed word lengths: {n} and {w.length}")
    return _basis(n, _reduce_bits((w.bits for w in words), n))


def _basis(n: int, rows: Iterable[int]) -> Gf2Basis:
    """Wrap RREF rows, packed as ints, into a Gf2Basis of length-n words."""
    return Gf2Basis(n, tuple(Word(n, r) for r in rows))


# A prime above any feasible code size, so i -> i * _STRIDE mod M permutes
# the indices of an M-word code.
_STRIDE = 2654435761


def _code_rows(code: Code) -> tuple[int, ...]:
    """RREF rows of the code's span as packed ints, reduced once per code.

    Any order of the words gives the same RREF. In sorted order the words
    with high pivots come late, so a full-rank code would not reach rank n
    before about half of its words; the words are visited in stride order
    instead, which reached it within a few dozen words on random codes.
    """
    if code._rref is None:
        p, m = code.bit_patterns, len(code)
        spread = (p[i * _STRIDE % m] for i in range(m))
        code._rref = tuple(_reduce_bits(spread, code.n))
    return code._rref


def code_basis(code: Code) -> Gf2Basis:
    """Canonical RREF basis of the span of a code; same as rref(code.words)."""
    return _basis(code.n, _code_rows(code))


def in_span(basis: Gf2Basis, w: Word) -> bool:
    """True iff w is a GF(2) combination of the basis rows."""
    if w.length != basis.n:
        raise ValueError(f"length mismatch: {w.length} != {basis.n}")
    v = w.bits
    for row in basis.rows:
        if (v >> (row.bits.bit_length() - 1)) & 1:
            v ^= row.bits
    return v == 0


def _span(rows) -> list[int]:
    """All 2^r sums of the packed rows; bit i of the index selects row i."""
    span = [0]
    for row in rows:
        span += [s ^ row for s in span]
    return span


def _span_code(n: int, rows) -> Code:
    """The span of packed length-n rows as a Code, refused over the cap."""
    check_enumeration(1 << len(rows), f"span of dimension {len(rows)}")
    return Code._from_bits(n, _span(rows))


def span_enumerate(basis: Gf2Basis) -> Code:
    """Materialize the subspace spanned by the basis as a Code.

    The result has exactly 2^dim words, always including zero. Refuses
    spans larger than enumeration_cap().
    """
    return _span_code(basis.n, [row.bits for row in basis.rows])
