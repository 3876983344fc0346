"""The three structural measures of a binary code: minimum distance, rank, kernel."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, compress, islice, pairwise
from operator import add, mul, sub

from .core import Code
from .gf2 import _code_rows, _reduce_bits, _span, enumeration_cap


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


def _closest(pairs) -> int:
    """Least distance over pairs of words; a distance of 1 ends the scan."""
    best = None
    for a, b in pairs:
        d = (a ^ b).bit_count()
        if best is None or d < best:
            best = d
            if best == 1:
                break
    return best


def _scan_pairs(patterns) -> int:
    """Least distance over all pairs of two or more words."""
    return _closest(combinations(patterns, 2))


def _upper_bound(patterns) -> int:
    """A distance that occurs among two or more sorted words.

    The first word is compared with every other, then each word with the
    next.
    """
    best = _closest(islice(combinations(patterns, 2), len(patterns) - 1))
    return best if best == 1 else min(best, _closest(pairwise(patterns)))


def _blocks(patterns, n: int, t: int) -> list[tuple[int, int, list[list[int]]]]:
    """The n coordinates split into t contiguous blocks [lo, hi).

    Each block comes with the groups of two or more words that agree on it.
    """
    blocks = []
    for lo, hi in pairwise(n * i // t for i in range(t + 1)):
        mask = ((1 << (hi - lo)) - 1) << lo
        groups: dict[int, list[int]] = {}
        for w in patterns:
            groups.setdefault(w & mask, []).append(w)
        blocks.append((lo, hi, [g for g in groups.values() if len(g) > 1]))
    return blocks


def _pairs(block) -> int:
    return sum(len(g) * (len(g) - 1) // 2 for g in block[2])


def _least(patterns, n: int, t: int) -> int:
    """min(t, least distance between two of the distinct length-n patterns)."""
    while t > 1:
        all_pairs = len(patterns) * (len(patterns) - 1) // 2
        # Putting a word in a group costs about as much as four pair
        # comparisons, and t blocks put every word in t groups.
        if 4 * t * len(patterns) >= all_pairs:
            return min(t, _scan_pairs(patterns))
        blocks = _blocks(patterns, n, t)
        # Inside a group t can exceed n; an empty block then puts every
        # word in one group, and the scan runs.
        if sum(map(_pairs, blocks)) >= all_pairs:
            return min(t, _scan_pairs(patterns))
        below = _below(blocks, n, t)
        if below == t:
            return t
        t = below
    return t


def _below(blocks, n: int, t: int) -> int:
    """The first distance under t within a group, cheapest block first; else t."""
    for lo, hi, groups in sorted(blocks, key=_pairs):
        low = (1 << lo) - 1
        for g in groups:
            # The group agrees on [lo, hi): dropping those coordinates
            # keeps its words distinct, in order and as far apart.
            d = _least([((w >> hi) << lo) | (w & low) for w in g], n - (hi - lo), t)
            if d < t:
                return d
    return t


# The highest rank at which the span path was measured faster: at ranks 17
# and 18 with d = 2 the block search beat the transforms 1.4-3.4x (118
# against 402 ms, 222 against 309 ms). The path's lists of 2^r ints are
# bounded by the enumeration cap, which `_spans_small` reads.
_SPAN_MAX_RANK = 16


def _xor_transform(v: list[int]) -> list[int]:
    """Walsh-Hadamard transform of a list of 2^r ints, in place.

    Level h (a power of two) adds and subtracts each entry whose index has
    the bit h clear and the entry h above it. The pairs are taken as h
    strided slices while h is small and as the halves of each 2h block
    after, so that a level makes about sqrt(2^r) slices at most and the
    additions run in `map`.
    """
    n, h = len(v), 1
    while h < n:
        step = 2 * h
        if h <= n // step:
            for o in range(h):
                a, b = v[o::step], v[o + h :: step]
                v[o::step], v[o + h :: step] = map(add, a, b), map(sub, a, b)
        else:
            for i in range(0, n, step):
                a, b = v[i : i + h], v[i + h : i + step]
                v[i : i + h], v[i + h : i + step] = map(add, a, b), map(sub, a, b)
        h = step
    return v


def _span_distance(code: Code, rows) -> int:
    """Least distance between two of the codewords, read from their span.

    Span word i is the sum of the rows that the bits of i select, and the
    code is the 0/1 vector f over GF(2)^r of its members among them. Its
    xor autocorrelation, f*f(x) = |C & (C + x)|, is nonzero exactly where
    x is a difference of two codewords, and is found as the inverse
    transform of the squared transform of f. The work is set by the rank
    and the size of the code, whatever its distance.
    """
    span = _span(rows)
    spectrum = _xor_transform(list(map(code._bits.__contains__, span)))
    found = _xor_transform(list(map(mul, spectrum, spectrum)))
    # Index 0 is the zero difference of each word with itself.
    return min(map(int.bit_count, compress(span[1:], found[1:])))


def min_distance(code: Code) -> int:
    """Minimum Hamming distance over pairs of distinct codewords.

    Needs at least two codewords. A linear code takes the minimum-nonzero-
    weight shortcut. Any other code is searched exactly:

    - Bound: comparing the first codeword with every other, then each
      codeword with the next in sorted order, gives a distance t that
      occurs. A pair at distance 1 ends the search there.
    - Span: a code of rank r <= 16 with 4r * 2^r <= M(M-1)/2 is dense in
      its span, and d is read from the span: the least weight of a nonzero
      span word x with C & (C + x) nonempty, found for all x at once by
      two Walsh-Hadamard transforms. Its cost is set by r and M alone, so
      codes of one shape take one time whatever their d.

    Any other code is searched by blocks of coordinates, comparing only
    the pairs that can beat the bound:

    - Pigeonhole: two words at distance under t differ in at most t - 1
      coordinates, so they agree on at least one of t disjoint blocks. The
      n coordinates are split into t contiguous blocks, the words are
      grouped by their value on each block, and only words in one group
      are compared, the block with the fewest such pairs first. A large
      group drops its shared block and is searched the same way.
    - Re-block: a pair under t found in a group lowers the bound, and the
      blocks are made again for it. A full pass over the t blocks that
      finds no pair under t proves that d = t.
    - Fallback: every pair is compared when putting each of the M words in
      t groups would cost about as much, 4tM >= M(M-1)/2 (a placement
      costs about four comparisons), or when the groups hold M(M-1)/2
      pairs or more.

    The result is exact, read from the code alone and cached on it; no
    structure is assumed.
    """
    if len(code) < 2:
        raise ValueError("distance undefined for a one-word code")
    if code._d is None:
        code._d = _distance(code)
    return code._d


def _distance(code: Code) -> int:
    """The search behind min_distance, on a code of two or more words."""
    patterns = code.bit_patterns
    if is_linear(code):
        return min(b.bit_count() for b in patterns if b)
    t = _upper_bound(patterns)
    if t == 1:
        return 1
    if _spans_small(rank(code), len(patterns)):
        return _span_distance(code, _code_rows(code))
    return _least(patterns, code.n, t)


def _spans_small(r: int, m: int) -> bool:
    """True when transforming the 2^r-word span costs a quarter of a pair scan or less.

    A level of the transform costs about as much as one comparison per
    word of the span. The block search often costs a small part of the
    scan, so the span takes over only well below it, and never when its
    2^r-entry lists would pass the enumeration cap.
    """
    cheap = r <= _SPAN_MAX_RANK and 4 * (r << r) <= m * (m - 1) // 2
    return cheap and 1 << r <= enumeration_cap()


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


def _near_full(r: int, m: int) -> bool:
    """m words leave k >= 1 words of a 2^r-word span out, k^3 <= m^2, within the cap.

    Scanning the k left-out words costs at most about 2k^2 probes (at most
    k passes of at most 2k); scanning the m words costs about m^2 / 2k.
    The two meet, up to a constant factor, where k^3 = m^2.
    """
    k = (1 << r) - m
    return k >= 1 and k**3 <= m * m and 1 << r <= enumeration_cap()


def _complement(code: Code) -> Code | None:
    """S - C0, the few words of a span S that C0 = C + c0 leaves out, or None.

    C0 holds zero, so its kernel lies in S, and x in S fixes C0 exactly
    when it fixes S - C0: the two have the kernel of C.
    """
    patterns, m = code.bit_patterns, len(code)
    c0 = patterns[0]
    rows = _code_rows(code)
    # Without the zero word, C0 may span one dimension less than C.
    if c0 and not _near_full(len(rows), m) and _near_full(len(rows) - 1, m):
        rows = _reduce_bits([b ^ c0 for b in patterns], code.n)
    if not _near_full(len(rows), m):
        return None
    members = {b ^ c0 for b in patterns} if c0 else code._bits
    return Code._from_bits(code.n, [s for s in _span(rows) if s not in members])


def kernel(code: Code) -> Code:
    """All x with code + x = code; a subspace of GF(2)^n, never empty.

    Any such x is (c0 + x) + c0 with c0 + x a codeword, so the candidates
    are code + c0 for one codeword c0, and the kernel is their
    intersection with every translate code + c. One survivor x is
    probed at a time: a codeword w with w + x outside the code refutes x
    and filters every survivor x' (x' + w must be a codeword) in one
    pass; a candidate with no witness doubles the span of the kernel
    words found, whose new members leave the survivors unprobed. So only
    dim(kernel) candidates are probed in full, every word kept is probed
    or a sum of probed words, and every word dropped has a witness: the
    result is exact and measured from the code alone.

    A linear code minus a few words, or a coset of one, would make each
    candidate its own witness, so the scan runs instead on the k span
    words that C + c0 misses, when k^3 <= |C|^2: scanning those k words
    costs at most about 2k^2 probes and scanning the code about
    |C|^2 / 2k, and the two meet there up to a constant factor. A
    linear code is its own kernel and is not scanned, nor stored in its
    own slot, which would be a reference cycle; any other code is
    scanned once and its kernel cached on it.
    """
    if is_linear(code):
        return code
    if code._kernel is None:
        code._kernel = _kernel_scan(_complement(code) or code)
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
