"""GF(2) linear algebra on bit-packed words: RREF, span membership, enumeration."""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import chain, islice
from typing import Iterable

from .core import Code, Word, _check_length, _little_endian, _word_bytes

# Ceiling on materialized span sizes (number of words). Override with the
# PLOTKIN_MAX_ENUM environment variable.
DEFAULT_MAX_ENUM = 1 << 20
ENUM_CAP_ENV = "PLOTKIN_MAX_ENUM"


def enumeration_cap() -> int:
    """Current span-enumeration cap in words."""
    raw = os.environ.get(ENUM_CAP_ENV, str(DEFAULT_MAX_ENUM))
    try:
        cap = int(raw)
    except ValueError:
        cap = 0  # refused below with the same message as "0"
    if cap < 1:
        raise ValueError(f"{ENUM_CAP_ENV} must be a positive integer, got {raw!r}")
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
        # The pivots are distinct, so a row is reduced iff the only pivot
        # bit it holds is its own top bit.
        mask = sum(1 << (self.n - 1 - p) for p in pivots)
        for w in self.rows:
            if w.bits & mask != 1 << (w.bits.bit_length() - 1):
                raise ValueError("basis not reduced: pivot column reused")

    @property
    def dim(self) -> int:
        return len(self.rows)


# The bulk phase of _reduce_bits packs at most _BATCH_ROWS rows into one
# int, and runs only on rows of at most _BULK_MAX_N bits. Per row and
# pivot, a packed step multiplies an n-bit slot by an n-bit row, which
# grows as n^2, while the per-row loop takes about half a Python step.
# Past n = 128 the loop was faster on random and Reed-Muller codes of
# rank 12 to 20.
_BATCH_ROWS = 4096
_BULK_MAX_N = 128


def _eliminate(batch: list[int], n: int, pivots: dict[int, int]) -> None:
    """Reduce a batch of packed length-n rows into `pivots`, all rows at once.

    Row i sits in byte-aligned slot i of one int b, `core._word_bytes(n)`
    bytes wide, and `ones` holds a 1 at the low bit of every slot, so
    sel = (b >> p) & ones marks the rows with bit p. With row < 2^n, the
    step b ^= sel * row adds row to every marked row at once: the slots
    are at least n bits apart, so the partial products of sel * row never
    overlap and no carry crosses a slot. Each step clears bit p from every
    marked row, as row's top bit is p, and leaves the bits above p alone.

    The batch's bytes come from `core._little_endian` as they are: one
    `struct.pack` into slots of 1, 2, 4 or 8 bytes up to n = 64, and one
    `int.to_bytes` per row above. The range check comes first, so a row
    too long for its slot raises ValueError here and never a packing error.

    - The known pivot columns are cleared from high to low, one step each,
      which leaves b zero when every row is in their span: about r steps
      per batch, not n.
    - Then, while b is not zero, the lowest nonzero slot holds a row whose
      top bit p is a new pivot column, clear in every row so far; it
      becomes pivots[p] and one step clears p. This stops early when the
      rank reaches n.
    """
    if max(batch) >> n or max(pivots, default=0) >= n:
        raise ValueError(f"a row is longer than {n} bits")
    size = _word_bytes(n)
    mask, slot = (1 << n) - 1, 8 * size
    b = int.from_bytes(_little_endian(n, batch), "little")
    ones = int.from_bytes((b"\x01" + bytes(size - 1)) * len(batch), "little")
    for p in sorted(pivots, reverse=True):
        if sel := (b >> p) & ones:
            b ^= sel * pivots[p]
    while b:
        low = (b & -b).bit_length() - 1
        row = (b >> (low - low % slot)) & mask
        p = row.bit_length() - 1
        pivots[p] = row
        if len(pivots) == n:
            return
        b ^= ((b >> p) & ones) * row


def _reduce_bits(patterns: Iterable[int], n: int) -> list[int]:
    """RREF of packed length-n rows; returns rows sorted by decreasing value.

    Both phases fill one pivot dict keyed by top bit, and each stops once
    the rank reaches n: every later row is then in the span.

    - Prefix: the first 2n rows, or every row when n > _BULK_MAX_N, are
      reduced one at a time. A full-rank code mostly ends here, and so do
      the many tiny reductions of a corpus, which took about half again
      as long when every row was packed.
    - Bulk: the rest is eliminated in batches of 2n, 4n, ... rows, at
      most _BATCH_ROWS, each packed into one int by _eliminate. A code of
      rank r < n thus costs a few big-int steps per pivot and batch, not
      about r/2 Python steps per row, and one that reaches rank n late
      stops within twice the rows it needed.

    Back-substitution clears each pivot column from the rows above it,
    which gives the canonical RREF of the span whichever phase found each
    pivot. A row of n bits or more would lose its high bits in a packed
    slot, so it is refused with ValueError once rows are packed.
    """
    pivots: dict[int, int] = {}
    rest = iter(patterns)
    for v in islice(rest, 2 * n if n <= _BULK_MAX_N else None):
        while v:
            top = v.bit_length() - 1
            row = pivots.get(top)
            if row is None:
                pivots[top] = v
                break
            v ^= row
        if len(pivots) == n:
            break
    size = 2 * n
    while len(pivots) < n and (first := next(rest, None)) is not None:
        _eliminate([first, *islice(rest, size - 1)], n, pivots)
        size = min(2 * size, _BATCH_ROWS)
    return _back_substitute(pivots)


def _back_substitute(pivots: dict[int, int]) -> list[int]:
    """The RREF rows, by decreasing value, of echelon rows keyed by top bit.

    The rows are reduced from the lowest pivot up. A reduced row holds no
    pivot bit but its own, so xoring it into v changes no other pivot bit
    of v: v needs exactly the rows whose pivots are set in v & mask, one
    xor each, and no test against the other rows.
    """
    reduced: dict[int, int] = {}
    mask = 0
    for top in sorted(pivots):
        v = pivots[top]
        m = v & mask
        while m:
            t = m.bit_length() - 1
            v ^= reduced[t]
            m ^= 1 << t
        reduced[top] = v
        mask |= 1 << top
    return list(reversed(reduced.values()))


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

    Any order of the words gives the same RREF, and a word read twice adds
    nothing to it. In sorted order the words with high pivots come late,
    so a full-rank code would not reach rank n before about half of its
    words. The per-row prefix of _reduce_bits is fed the first 2n words in
    stride order instead, which reached rank n within a few dozen words
    on random codes; a strided slice of the sorted words would not, as its
    words share their low bits. A code that is still short of rank n, such
    as a linear code plus a few words or a Reed-Muller code, then has the
    sorted tuple itself read in packed batches, with no Python step per
    word. A code of at most 2n words, or of rows too long to pack, is
    read in stride order alone, which adds no batch.
    """
    if code._rref is None:
        p, m, n = code.bit_patterns, len(code), code.n
        head = 2 * n if 2 * n < m and n <= _BULK_MAX_N else m
        rows = (p[i * _STRIDE % m] for i in range(head))
        if head < m:
            rows = chain(rows, p)
        code._rref = tuple(_reduce_bits(rows, n))
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
    """The span of independent packed length-n rows as a Code, refused over the cap."""
    check_enumeration(1 << len(rows), f"span of dimension {len(rows)}")
    return Code._from_distinct(n, _span(rows))


def span_enumerate(basis: Gf2Basis) -> Code:
    """Materialize the subspace spanned by the basis as a Code.

    The result has exactly 2^dim words, always including zero. Refuses
    spans larger than enumeration_cap().
    """
    return _span_code(basis.n, [row.bits for row in basis.rows])
