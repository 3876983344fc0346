"""Deliberately naive reference implementations used as ground truth.

These scan the whole space (kernel) or every pair of words (distance), or
run the closure to a fixpoint (span), straight from the definitions, with
no candidate restriction, no elimination, and no shortcuts. They ship in
the library so CLI users can reproduce any cross-check themselves.
"""

from __future__ import annotations

from itertools import combinations

from .core import Code
from .gf2 import check_enumeration

BRUTE_KERNEL_MAX_N = 16
# About half a second of pair comparisons.
BRUTE_DISTANCE_MAX_PAIRS = 1 << 22
# Closing a span of 2^11 words pairs at most (2^11)^2 = 2^22 sums.
BRUTE_SPAN_MAX_WORDS = 1 << 11


def pair_count(code: Code) -> int:
    """The number of unordered pairs of distinct codewords."""
    return len(code) * (len(code) - 1) // 2


def kernel_bruteforce(code: Code) -> Code:
    """Keep every x in GF(2)^n with code + x = code, by trying all 2^n."""
    if code.n > BRUTE_KERNEL_MAX_N:
        raise ValueError(
            f"brute-force kernel scans 2^n translations; n={code.n} is over "
            f"the cap of {BRUTE_KERNEL_MAX_N}"
        )
    patterns = code.bit_patterns
    members = set(patterns)
    kept = []
    for x in range(1 << code.n):
        if all((c ^ x) in members for c in patterns):
            kept.append(x)
    return Code._from_distinct(code.n, kept)


def distance_bruteforce(code: Code) -> int:
    """Least Hamming distance over every unordered pair of codewords."""
    if not 1 <= pair_count(code) <= BRUTE_DISTANCE_MAX_PAIRS:
        raise ValueError(
            f"brute-force distance compares every pair; {pair_count(code)} "
            f"pairs is outside 1..{BRUTE_DISTANCE_MAX_PAIRS}"
        )
    return min((a ^ b).bit_count() for a, b in combinations(code.bit_patterns, 2))


def span_bruteforce(code: Code) -> Code:
    """Close the code under pairwise sums until nothing new appears.

    Each round only pairs the previous round's new elements against the
    accumulated set; every unordered pair is still covered by the round
    in which its later member appeared. The cap is checked as each new
    element's sums join the round, so the sets outgrow it by one sum row
    at most before the closure is refused.
    """
    closed = set(code.bit_patterns)
    frontier = set(closed)
    while frontier:
        new = set()
        for a in frontier:
            new |= {a ^ b for b in closed} - closed
            check_enumeration(len(closed) + len(new), "span closure")
        closed |= new
        frontier = new
    return Code._from_distinct(code.n, list(closed))
