"""Bit-packed binary words and finite block codes over GF(2)."""

from __future__ import annotations

import struct
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

# Guard against accidental huge allocations; rebind if you really need more.
MAX_LENGTH = 4096


def _check_length(n: int) -> None:
    if not 1 <= n <= MAX_LENGTH:
        raise ValueError(f"word length must be in 1..{MAX_LENGTH}, got {n}")


def _word_bytes(n: int) -> int:
    """Bytes per word in `_little_endian`: one 64-bit limb, which `struct`
    converts in bulk, up to n = 64; the fewest whole bytes above that."""
    return 8 if n <= 64 else (n + 7) // 8


def _little_endian(n: int, words: Sequence[int]) -> bytes:
    """The length-n words' little-endian bytes, `_word_bytes(n)` per word.

    Up to n = 64 this is one `struct.pack` of all the words; above, one
    `int.to_bytes` per word. A word of more bits than its slot holds is
    an error: `struct.error` in the first case, `OverflowError` in the
    second, so callers check the range first.
    """
    size = _word_bytes(n)
    if size == 8:
        return struct.pack(f"<{len(words)}Q", *words)
    return b"".join([w.to_bytes(size, "little") for w in words])


@dataclass(frozen=True, order=True, repr=False)
class Word:
    """Fixed-length bit vector over GF(2).

    Coordinate 0 is the leftmost printed bit, so the packed integer reads
    like the bit string in MSB-first order and sorting words of equal
    length is lexicographic. Bits above `length` are zero by construction,
    which keeps equality and hashing canonical.
    """

    length: int
    bits: int

    def __post_init__(self) -> None:
        _check_length(self.length)
        if not 0 <= self.bits < (1 << self.length):
            raise ValueError(
                f"bit pattern {self.bits:#x} does not fit in {self.length} bits"
            )

    @classmethod
    def from_string(cls, text: str) -> Word:
        """Build a word from a string over {0,1}, e.g. '0101'."""
        if not text or set(text) - {"0", "1"}:
            raise ValueError(f"not a bit string: {text!r}")
        return cls(len(text), int(text, 2))

    @classmethod
    def zero(cls, length: int) -> Word:
        return cls(length, 0)

    @classmethod
    def ones(cls, length: int) -> Word:
        return cls(length, (1 << length) - 1)

    def weight(self) -> int:
        """Hamming weight (number of 1 coordinates)."""
        return self.bits.bit_count()

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.length:
            raise IndexError(f"coordinate {i} out of range for length {self.length}")
        return (self.bits >> (self.length - 1 - i)) & 1

    def __xor__(self, other: Word) -> Word:
        return word_xor(self, other)

    def __str__(self) -> str:
        return format(self.bits, f"0{self.length}b")

    def __repr__(self) -> str:
        return f"Word({str(self)!r})"


def _check_same_length(a: Word, b: Word) -> None:
    if a.length != b.length:
        raise ValueError(f"length mismatch: {a.length} != {b.length}")


def word_xor(a: Word, b: Word) -> Word:
    """Coordinatewise GF(2) sum of two equal-length words."""
    _check_same_length(a, b)
    return Word(a.length, a.bits ^ b.bits)


def hamming_distance(a: Word, b: Word) -> int:
    """Number of coordinates in which a and b differ."""
    _check_same_length(a, b)
    return (a.bits ^ b.bits).bit_count()


def concat(a: Word, b: Word) -> Word:
    """Concatenation (a|b); the left half comes first."""
    return Word(a.length + b.length, (a.bits << b.length) | b.bits)


class Code:
    """Immutable set of distinct equal-length words.

    The sorted tuple of packed bit patterns is the only structure built
    up front. Iteration, length, equality and hashing read it, and so does
    the `words` tuple, which is built on each call: all are deterministic,
    in ascending bit patterns, i.e. lexicographic in the printed form.

    Membership has two routes. `_has` bisects the sorted tuple. `_members`
    returns the frozenset of the patterns: it is built at most once, on
    first need, and kept in `_bits`. The kernel scan bisects until its
    probes reach |C|/16, about what building the set costs, and only then
    builds it (see `invariants._kernel_scan`).

    Each constructor has one contract:
    - `Code(words)`, the public one, takes words that may repeat. It
      deduplicates them through the set and keeps it.
    - `_from_bits` does the same for packed patterns; `parse_code_file`,
      whose lines may repeat, is its one caller.
    - `_from_distinct` takes a list of patterns known to be distinct and
      builds no set: the families, the oracles, spans, kernels, translates
      and the construction build through it.

    `_rref`, `_kernel` and `_d` cache the code's analyses: its RREF rows as
    packed ints, the kernel of a nonlinear code and the minimum distance.
    `gf2` and `invariants` fill them on first use; a filled slot never
    changes, so each analysis runs at most once per code.
    """

    __slots__ = ("n", "_bits", "_patterns", "_rref", "_kernel", "_d")

    def __init__(self, words: Iterable[Word]):
        words = list(words)
        n = words[0].length if words else 0  # _fill refuses an empty code
        for w in words[1:]:
            if w.length != n:
                raise ValueError(f"mixed word lengths: {n} and {w.length}")
        self._init(n, (w.bits for w in words))

    @classmethod
    def _from_bits(cls, n: int, bits: Iterable[int]) -> Code:
        # Internal fast path: patterns assumed already in 0..2^n-1; only the
        # length is checked, as Word checks it.
        _check_length(n)
        self = object.__new__(cls)
        self._init(n, bits)
        return self

    @classmethod
    def _from_distinct(cls, n: int, bits: list[int]) -> Code:
        """_from_bits for a list of distinct patterns: sorted in place, no set built."""
        _check_length(n)
        bits.sort()
        self = object.__new__(cls)
        self._fill(n, bits, None)
        return self

    def _init(self, n: int, bits: Iterable[int]) -> None:
        patterns = sorted(bits)  # a list, not a set in hash order
        members = frozenset(patterns)
        if len(patterns) > len(members):
            patterns = sorted(members)
        self._fill(n, patterns, members)

    def _fill(
        self, n: int, patterns: list[int], members: frozenset[int] | None
    ) -> None:
        if not patterns:
            raise ValueError("a code needs at least one word")
        self.n = n
        self._patterns = tuple(patterns)
        self._bits = members
        self._rref: tuple[int, ...] | None = None
        self._kernel: Code | None = None
        self._d: int | None = None

    def _members(self) -> frozenset[int]:
        """The set of member patterns, built on first need and kept."""
        if self._bits is None:
            self._bits = frozenset(self._patterns)
        return self._bits

    def _has(self, x: int) -> bool:
        """Whether pattern x is a member, by bisection of the sorted patterns."""
        patterns = self._patterns
        i = bisect_left(patterns, x)
        return i < len(patterns) and patterns[i] == x

    @property
    def words(self) -> tuple[Word, ...]:
        return tuple(Word(self.n, b) for b in self._patterns)

    @property
    def bit_patterns(self) -> tuple[int, ...]:
        """Sorted packed bit patterns of the member words."""
        return self._patterns

    def contains_zero(self) -> bool:
        return self._patterns[0] == 0

    def __len__(self) -> int:
        return len(self._patterns)

    def __iter__(self) -> Iterator[Word]:
        return iter(self.words)

    def __contains__(self, w: Word) -> bool:
        return w.length == self.n and w.bits in self._members()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Code):
            return NotImplemented
        return self.n == other.n and self._patterns == other._patterns

    def __hash__(self) -> int:
        return hash((self.n, self._patterns))

    def __repr__(self) -> str:
        return f"Code(n={self.n}, M={len(self)})"


def translate(code: Code, x: Word) -> Code:
    """The set code + x = { c + x : c in code }; same cardinality as code."""
    if x.length != code.n:
        raise ValueError(f"length mismatch: {x.length} != {code.n}")
    return Code._from_distinct(code.n, [b ^ x.bits for b in code.bit_patterns])
