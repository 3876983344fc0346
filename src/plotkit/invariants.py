"""The three structural measures of a binary code: minimum distance, rank, kernel."""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain, combinations, islice, pairwise
from math import comb, inf

from .core import Code
from .gf2 import _code_rows, enumeration_cap


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

    One scan compares the first word with every other, then each word with
    the next, and ends at the first pair at distance 1.
    """
    first = islice(combinations(patterns, 2), len(patterns) - 1)
    return _closest(chain(first, pairwise(patterns)))


def _groups(patterns, n: int, t: int) -> list[list[int]]:
    """The groups of two or more words that agree on one of t blocks.

    The n coordinates are split into t contiguous blocks [a, b), in
    coordinate order; coordinate 0 is the highest bit.
    """
    groups = []
    for a, b in pairwise(n * i // t for i in range(t + 1)):
        mask = (1 << (n - a)) - (1 << (n - b))
        block: dict[int, list[int]] = {}
        for w in patterns:
            block.setdefault(w & mask, []).append(w)
        groups += [g for g in block.values() if len(g) > 1]
    return groups


def _least(patterns, n: int, t: int) -> int:
    """min(t, least distance between two of the distinct length-n patterns)."""
    all_pairs = len(patterns) * (len(patterns) - 1) // 2
    while t > 1:
        groups = _groups(patterns, n, t)
        if sum(len(g) * (len(g) - 1) // 2 for g in groups) >= all_pairs:
            return min(t, _scan_pairs(patterns))
        below = next((d for g in groups if (d := _scan_pairs(g)) < t), t)
        if below == t:
            return t
        t = below
    return t


def _next_level(rows, level: list[list[int]]) -> list[list[int]]:
    """The sums of j + 1 rows, from `level`, the sums of j rows.

    Both are grouped by their last row: level[i] holds the sums whose last
    row is rows[i - 1], and level[0] the empty sum 0 alone. A sum takes
    each row after its last one, with one xor.
    """
    below, out = [], [[]]
    for row, ending in zip(rows, level):
        below += ending
        out.append([s ^ row for s in below])
    return out


def _span_search(code: Code, rows, t: int, budget: float = inf) -> int | None:
    """Least distance between two of the codewords, read from their span.

    `rows` are the code's RREF rows, and a distance t occurs. Every
    difference of two codewords lies in the span, so d is the least weight
    of a nonzero span word x with C & (C + x) nonempty, or t if no span
    word lighter than t has one. Each RREF row holds a pivot that no other
    row has, so a sum of j rows weighs at least j: once the sums of j rows
    are listed, level j, every span word of weight j is listed, and those
    are tested before level j + 1 is listed. The first that hits is d.

    A test walks only the leaders of the code's kernel K: the codewords
    zero on every pivot of K's RREF rows, one per coset of K. They are
    taken at the first test, with K measured then if it is not cached.
    That is exact: if c + x is a codeword, so is (c + k) + x for every k
    in K, so some leader c' has c' + x in the code. A linear code is its
    own kernel and has one leader, zero; a code with K = {0} has every
    codeword as a leader.

    None means the search gave up. It lists no level that would take the
    sums listed, zero included, past the enumeration cap. It starts only
    when all S = sum over j < t of C(r, j) sums fit in `budget`, and each
    test is charged one probe per leader, |C| / |K|, and runs only when
    they fit. The first test builds the member set, once.
    """
    r = len(rows)
    spent = sum(comb(r, j) for j in range(t))
    if spent > budget:
        return None
    cap, listed, leaders = enumeration_cap(), 1, None
    light: list[list[int]] = [[] for _ in range(t)]
    level = [[0]] + [[]] * r
    for j in range(1, t):
        listed += comb(r, j)
        if listed > cap:
            return None
        level = _next_level(rows, level)
        for x in chain.from_iterable(level):
            if (w := x.bit_count()) < t:
                light[w].append(x)
        for x in light[j]:
            if leaders is None:
                ker = _code_rows(kernel(code))
                pivots = sum(1 << (k.bit_length() - 1) for k in ker)
                leaders = [c for c in code.bit_patterns if not c & pivots]
            spent += len(leaders)
            if spent > budget:
                return None
            if not code._members().isdisjoint(map(x.__xor__, leaders)):
                return j
    return t


def min_distance(code: Code) -> int:
    """Minimum Hamming distance over pairs of distinct codewords.

    Needs at least two codewords. The code is searched exactly, each route
    charged for its work in pairs compared, row sums listed and membership
    probes. The routes are tried in this order:

    - Prefix bound: comparing the first of the first 2n sorted codewords
      with each of the others, then each with the next, gives a distance t
      that occurs, for 2(2n - 1) pairs. A pair at distance 1 ends the
      search there.
    - All pairs, when the block search would compare every pair: putting
      each of the M words in t groups costs about as much as 4tM pair
      comparisons (a placement costs about four), and a code with
      4tM >= M(M-1)/2 has its M(M-1)/2 pairs compared, with no rows, no
      span search and no block search. t only falls from here on, so the
      rule is tested once, at the prefix bound.
    - Span search, on a code with M^2 >= 2^r, where each light span word
      is expected to be a difference: d is the least weight of a nonzero
      span word x with C & (C + x) nonempty. Each span word of weight j is
      a sum of at most j of the code's r RREF rows, so the sums are listed
      by the number of rows, and after level j the span words of weight j
      are tested; the first that hits is d, and if none lighter than t
      does, d = t. A test probes c + x only for the leaders c of the
      code's kernel K, one codeword per coset of K, as c + x is a
      codeword exactly when (c + k) + x is, for k in K. The kernel is
      measured at the first test if it is not cached; a linear code is its
      own kernel and has one leader. The search gives up once its sums and
      probes, |C| / |K| per test, would pass the block search's cost at
      this t, 4tM.
    - Full bound and block search, when the span search gives up or the
      code is sparse in its span: the same comparison over all M words
      lowers t, unless the code has at most 2n words, and the block search
      reads d from it.

    The block search compares only the pairs that can beat the bound:

    - Pigeonhole: two words at distance under t differ in at most t - 1
      coordinates, so they agree on at least one of t disjoint blocks. The
      n coordinates are split into t contiguous blocks, the words are
      grouped by their value on each block, and every group of two or
      more words is scanned pair by pair.
    - Re-block: the first group distance under t lowers the bound, and the
      blocks are made again for it. A full pass over the t blocks that
      finds no pair under t proves that d = t.
    - Fallback: every pair is compared when the groups of a pass, counted
      before any of their pairs is compared, hold M(M-1)/2 pairs or more.

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
    patterns, m, n = code.bit_patterns, len(code), code.n
    t = _upper_bound(patterns[: 2 * n])
    if t == 1:
        return 1
    # Putting a word in a group costs about as much as four pair
    # comparisons, and t blocks put every word in t groups.
    if 4 * t * m >= m * (m - 1) // 2:
        return _scan_pairs(patterns)
    rows = _code_rows(code)
    if m * m >= 1 << len(rows):
        d = _span_search(code, rows, t, 4 * t * m)
        if d is not None:
            return d
    if m > 2 * n:
        t = _upper_bound(patterns)
    return _least(patterns, n, t)


def _translations(counts: list[int]) -> list[int]:
    """The shifts t with counts[b ^ t] == counts[b] for every b: a group.

    The t are taken in ascending order. One that holds the leading bit of
    a shift found before it lies in a coset of the group found so far
    whose least word was decided first, and is not tested. So each coset
    is tested once: a test that passes doubles the group, and one that
    fails stops at its first mismatch.
    """
    found, leads = [0], 0
    for t in range(1, len(counts)):
        if not t & leads and all(counts[b ^ t] == c for b, c in enumerate(counts)):
            found += [s ^ t for s in found]
            leads |= 1 << (t.bit_length() - 1)
    return found


def _candidates(patterns: tuple[int, ...], n: int) -> tuple[int, ...] | list[int]:
    """The codewords b whose shift x = b + c0 keeps the size of every bucket.

    The sorted patterns fall into 2^k buckets C_a by their top k bits, each
    a slice found by bisection. A kernel word x maps the code onto itself,
    and so maps each C_a onto C_(a + top(x)), of the same size. So only the
    buckets a with a + top(c0) in the group of size-keeping shifts are kept,
    in ascending order, which keeps c0 first and the words sorted.
    """
    # About sqrt(|C|)/2 buckets. Measured against twice and four times as
    # many, and half and a quarter as many: more buckets cost the corpus's
    # small codes, and codes whose buckets all have one size, more
    # bisections and shift tests than they save; fewer left two to four
    # times the probes on random constructions.
    k = (len(patterns).bit_length() - 3) // 2
    if k < 1:
        return patterns
    shift = n - k
    edges = [bisect_left(patterns, a << shift) for a in range(1 << k)]
    edges.append(len(patterns))
    top0 = patterns[0] >> shift
    kept = sorted(t ^ top0 for t in _translations([j - i for i, j in pairwise(edges)]))
    if len(kept) == 1 << k:
        return patterns  # every bucket kept: no copy of the whole code
    return list(chain.from_iterable(patterns[edges[a] : edges[a + 1]] for a in kept))


# The kernel scan bisects at most |C| // _BISECT_SHARE times before it
# builds the code's member set. On constructions of 1,024 to 1,048,576
# words, a bisection probe took 0.45-2.4 us, a set probe 0.06-0.4 us, and
# building the set 24-76 ns per word, so the set pays for itself after
# |C|/9 to |C|/29 probes. Bisecting |C|/16 times costs 0.6 to 1.8 set
# builds: a code pays at most about one set build more than it would
# with the cheaper route chosen in advance (ski rental).
_BISECT_SHARE = 16


def _kernel_scan(code: Code) -> Code:
    """The kernel of a code, measured by membership probes alone.

    A candidate x is dropped with one of three certificates. Before any
    probe, its shift of the top-bit buckets may fail to keep their sizes
    (see _candidates). Then a candidate is refuted by a codeword w with
    w + x outside the code. A kernel word maps the code onto itself, and
    so maps every word outside the code to a word outside it. So the
    refutation drops each survivor x' with x' + w outside the code, and
    each x' with x' + h a codeword, where h = w + x is outside.

    The code is a union of cosets of the kernel K' found so far, and x
    maps one word of a coset out of the code exactly when it maps every
    word of it out. So the witness search walks only `reps`, the
    codewords zero on the leading bit of every word of a basis of K': one
    per coset. The candidates are cut the same way, as x' + K' holds a
    kernel word only when x' is one. c0 is zero on those bits, or c0 + x
    would be a smaller codeword, so a candidate b + c0 is zero on them
    when b is.

    A code without its member set is probed by bisection until the probes
    made reach |C| // _BISECT_SHARE; then the set is built, once, for the
    rest of the scan. A filter pass, which needs at most two probes per
    survivor, bisects only when all of them fit in what is left. A witness
    search bisects as many codewords as are left, and probes the rest in
    the set.
    """
    patterns, has, members = code.bit_patterns, code._has, code._bits
    left = 0 if members is not None else len(patterns) // _BISECT_SHARE
    c0 = patterns[0]
    # Candidate x = b ^ c0 is kept as its codeword b: the survivors are
    # existing patterns, never a second full-size set. Every pass keeps
    # c0 (x = 0) first and the order ascending, so survivors[1] is the
    # smallest candidate left: on a linear code plus one high word, a
    # linear word, whose witness (the extra word) filters out the rest.
    survivors = _candidates(patterns, code.n)
    reps, span = patterns, [0]
    while len(survivors) > 1:
        x = survivors[1] ^ c0
        witness, start = None, 0  # reps before start were bisected
        if left:
            witness = next((c for c in islice(reps, left) if not has(c ^ x)), None)
            if witness is None:
                start = min(left, len(reps))
                left -= start
            else:
                left -= bisect_left(reps, witness) + 1
        if witness is None and start < len(reps):
            members, left = code._members(), 0
            rest = islice(reps, start, None) if start else reps
            witness = next((c for c in rest if c ^ x not in members), None)
        if witness is None:
            span += [s ^ x for s in span]
            bit = 1 << (x.bit_length() - 1)
            survivors = [b for b in survivors if not b & bit]
            reps = [c for c in reps if not c & bit]
        elif 2 * len(survivors) <= left:
            z = c0 ^ witness
            kept = [b for b in survivors if has(b ^ z)]
            left -= len(survivors) + len(kept)
            survivors = [b for b in kept if not has(b ^ z ^ x)]
        else:
            z, members, left = c0 ^ witness, code._members(), 0
            survivors = [
                b for b in survivors if b ^ z in members and b ^ z ^ x not in members
            ]
    return Code._from_distinct(code.n, span)


def kernel(code: Code) -> Code:
    """All x with code + x = code; a subspace of GF(2)^n, never empty.

    Any such x is (c0 + x) + c0 with c0 + x a codeword, so the candidates
    are code + c0 for one codeword c0, and the kernel is their
    intersection with every translate code + c. A kernel word maps each
    bucket of codewords with one value of the top k bits onto another of
    the same size, so the survivors start from the buckets whose shift
    by top(c0) keeps every bucket size; on random codes that is c0's
    bucket alone. One survivor x is then probed at a time: a codeword w
    with w + x outside the code refutes x and filters every survivor x'
    (x' + w must be a codeword) in one pass. A kernel word keeps every
    non-codeword outside the code, so the same pass also drops each x'
    that maps the non-codeword h = w + x into the code. A candidate with
    no witness doubles the kernel K' found so far, and from then on the
    witness search and the survivors hold one word per coset of K'. So
    only dim(kernel) candidates are probed in full, each on |C| / |K'|
    codewords, every word kept is probed or a sum of probed words, and
    every word dropped has a certificate, a bucket size or a witness of
    one kind or the other: the result is exact and measured from the
    code alone.

    A code of odd size above 1 gets the kernel {0}, cached with no row
    reduction and no scan: it is a union of cosets of its kernel, so the
    kernel's size, a power of two, divides |C|. A linear code is its own
    kernel and is not scanned, nor stored in its own slot, which would be
    a reference cycle; any other code is scanned once and its kernel
    cached on it.
    """
    if code._kernel is None:
        if len(code) > 1 and len(code) % 2:
            code._kernel = Code._from_distinct(code.n, [0])
        elif is_linear(code):
            return code
        else:
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
    return CodeSummary(
        n=code.n,
        M=len(code),
        d=min_distance(code) if len(code) >= 2 else None,
        rank=rank(code),
        ker_dim=kernel_dim(code),
        is_linear=is_linear(code),
    )
