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
    kept = []
    for b in patterns:
        x = b ^ c0
        if all((c ^ x) in members for c in patterns):
            kept.append(x)
    return Code._from_bits(code.n, kept)


def kernel(code: Code) -> Code:
    """All x with code + x = code; a subspace of GF(2)^n, never empty.

    Any such x satisfies x = (c0 + x) + c0 with c0 + x a codeword, so
    candidates are restricted to code + c0 for a fixed codeword c0 instead
    of scanning all of GF(2)^n. Each candidate is checked by membership
    queries with early exit. A code that is itself linear is its own
    kernel, which skips the scan entirely; any other code is scanned once
    and its kernel cached on it. A linear code is not stored in its own
    slot, which would be a reference cycle.
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
