"""The three structural measures of a binary code: minimum distance, rank, kernel."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .core import Code
from .gf2 import _code_rows


@dataclass(frozen=True)
class CodeSummary:
    """Report record: length, cardinality, distance, rank, kernel dimension.

    `d` is None for a one-word code, where no pair of distinct codewords
    exists.
    """

    n: int
    M: int
    d: int | None
    rank: int
    ker_dim: int
    is_linear: bool


def rank(code: Code) -> int:
    """Dimension of the linear span of the code."""
    return len(_code_rows(code))


def is_linear(code: Code) -> bool:
    """True iff the code is a subspace, i.e. |C| = 2^rank(C)."""
    return len(code) == 1 << rank(code)


def _min_pairwise(patterns) -> int:
    best = None
    for a, b in combinations(patterns, 2):
        d = (a ^ b).bit_count()
        if best is None or d < best:
            best = d
            if best == 1:
                break
    return best


def _min_weight(patterns) -> int:
    return min(b.bit_count() for b in patterns if b)


def min_distance(code: Code) -> int:
    """Minimum Hamming distance over pairs of distinct codewords.

    Needs at least two codewords. Linear codes take the minimum-nonzero-
    weight shortcut; everything else is the pairwise scan.
    """
    if len(code) < 2:
        raise ValueError("distance undefined for a one-word code")
    if is_linear(code):
        return _min_weight(code.bit_patterns)
    return _min_pairwise(code.bit_patterns)


def _kernel_scan(code: Code) -> Code:
    patterns = code.bit_patterns
    members = code._bits
    c0 = patterns[0]
    # Candidate x = b ^ c0 is kept as its codeword b: the survivors are
    # existing patterns, never a second full-size set. Every pass keeps
    # c0 (x = 0) first and the order ascending, so survivors[1] is the
    # smallest candidate left: on a linear code plus one high word, a
    # linear word, whose witness (the extra word) filters out the rest.
    survivors = patterns
    span = [0]
    while len(survivors) > 1:
        x = survivors[1] ^ c0
        witness = next((c for c in patterns if c ^ x not in members), None)
        if witness is None:
            new = [s ^ x for s in span]
            span += new
            found = set(new)
            survivors = [b for b in survivors if b ^ c0 not in found]
        else:
            z = c0 ^ witness
            survivors = [b for b in survivors if b ^ z in members]
    return Code._from_bits(code.n, span)


def kernel(code: Code) -> Code:
    """All x with code + x = code; a subspace of GF(2)^n, never empty.

    Any such x satisfies x = (c0 + x) + c0 with c0 + x a codeword, so the
    candidates are code + c0 for a fixed codeword c0, and the kernel is
    their intersection with every other translate code + c. One surviving
    candidate is probed against the codewords at a time:

    - a codeword w with w + x outside the code refutes x, and every
      survivor x' is then filtered against that same witness in one pass
      (x' + w must be a codeword);
    - a candidate with no witness is in the kernel, so the span of the
      kernel words found so far doubles with it and its new members leave
      the survivors unprobed: the kernel is closed under addition.

    Only dim(kernel) candidates are probed in full. Every word reported is
    a fully probed word or a sum of them, and every word left out has an
    explicit witness, so the result is exact and measured from the code
    alone. A code that is itself linear is its own kernel, which skips the
    scan entirely; any other code is scanned once and its kernel cached on
    it. A linear code is not stored in its own slot, which would be a
    reference cycle.
    """
    if is_linear(code):
        return code
    if code._kernel is None:
        code._kernel = _kernel_scan(code)
    return code._kernel


def dim(space: Code) -> int:
    """log2 of the size of a subspace, such as a kernel."""
    d = len(space).bit_length() - 1
    if 1 << d != len(space):
        raise ValueError(f"a set of {len(space)} words is not a subspace")
    return d


def kernel_dim(code: Code) -> int:
    """log2 of the kernel size (the kernel is a subspace)."""
    return dim(kernel(code))


def summarize(code: Code) -> CodeSummary:
    """Compute all CodeSummary fields for a code."""
    r = rank(code)
    return CodeSummary(
        n=code.n,
        M=len(code),
        d=min_distance(code) if len(code) >= 2 else None,
        rank=r,
        ker_dim=kernel_dim(code),
        is_linear=len(code) == 1 << r,
    )
