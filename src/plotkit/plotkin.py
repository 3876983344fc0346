"""The (u|u+v) construction and mechanical verification of its structure.

The length-2n code built from two length-n codes is
C = {(u|u+v) : u in C1, v in C2}. Its kernel and span factor through the
inputs by the same map, which makes kernel dimension and rank exactly
additive; verify_plotkin measures both sides of each of those equalities
independently and reports the comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .core import Code, _check_length
from .gf2 import Gf2Basis, _basis, _code_rows, _reduce_bits, check_enumeration
from .invariants import CodeSummary, is_linear, kernel, summarize


@dataclass(frozen=True)
class CodeParams:
    """Parameter vector (length, size, distance, rank, kernel dimension)."""

    length: int
    size: int
    distance: int | None
    rank: int
    kernel_dim: int


# The structural checks of a PlotkinReport: each boolean field but
# hypothesis_ok, with the label that reports name it by.
CHECKS = (
    ("theorem_i_holds", "kernel factorization"),
    ("theorem_ii_holds", "span factorization"),
    ("corollary_i_holds", "kernel dimension additivity"),
    ("corollary_ii_holds", "rank additivity"),
    ("params_hold", "parameter prediction"),
)


@dataclass(frozen=True)
class PlotkinReport:
    """Predicted vs. observed parameters plus the structural check flags.

    hypothesis_ok records whether both inputs contain the zero word; the
    factorization results are guaranteed only under that hypothesis, so a
    false flag with hypothesis_ok set is a genuine violation while a false
    flag without it is merely exploratory.
    """

    n_in: int
    predicted: CodeParams
    observed: CodeParams
    theorem_i_holds: bool
    theorem_ii_holds: bool
    corollary_i_holds: bool
    corollary_ii_holds: bool
    params_hold: bool
    hypothesis_ok: bool

    @property
    def all_checks_hold(self) -> bool:
        return all(getattr(self, field) for field, _ in CHECKS)

    @property
    def ok(self) -> bool:
        """False only when the hypothesis held and a check still failed."""
        return self.all_checks_hold or not self.hypothesis_ok


def plotkin_construct(c1: Code, c2: Code) -> Code:
    """Build {(u|u+v) : u in c1, v in c2}; length doubles, sizes multiply.

    The map (u, v) -> (u|u+v) is injective (the left half recovers u, the
    right half then recovers v), so the result has exactly |c1|*|c2| words
    and needs no member set to deduplicate them. That count is checked
    against the enumeration cap, and the length 2n against the word length
    limit, before any is built.
    """
    if c1.n != c2.n:
        raise ValueError(f"length mismatch: {c1.n} != {c2.n}")
    _check_length(2 * c1.n)
    check_enumeration(
        len(c1) * len(c2), f"(u|u+v) of {len(c1)}- and {len(c2)}-word codes"
    )
    n, p2 = c1.n, c2.bit_patterns
    out = []
    for u in c1.bit_patterns:
        x = (u << n) | u  # (u|u), and v < 2^n: x ^ v is (u|u+v)
        out += [x ^ v for v in p2]
    return Code._from_distinct(2 * n, out)


def span_direct(b1: Gf2Basis, b2: Gf2Basis) -> Gf2Basis:
    """Span of the constructed code assembled from the input span bases.

    {(x|x+y)} is generated by {(b|b) : b in b1} together with
    {(0|b) : b in b2}; the canonical basis of that span has dimension
    b1.dim + b2.dim.
    """
    if b1.n != b2.n:
        raise ValueError(f"length mismatch: {b1.n} != {b2.n}")
    rows1, rows2 = ([r.bits for r in b.rows] for b in (b1, b2))
    return _basis(2 * b1.n, _direct_rows(rows1, rows2, b1.n))


def _direct_rows(rows1, rows2, n: int) -> tuple[int, ...]:
    """span_direct on packed length-n rows."""
    return tuple(_reduce_bits([(r << n) | r for r in rows1] + list(rows2), 2 * n))


def _factors(code: Code, c1: Code, c2: Code) -> bool:
    """True iff code spans what {(x|x+y) : x in c1, y in c2} spans."""
    return _code_rows(code) == _direct_rows(_code_rows(c1), _code_rows(c2), c1.n)


def predict_params(s1: CodeSummary, s2: CodeSummary) -> CodeParams:
    """Parameters the construction should produce, from input summaries.

    (2n, M1*M2, min{2*d1, d2}, rank1+rank2, ker1+ker2); the distance slot
    is None when either input distance is undefined.
    """
    if s1.n != s2.n:
        raise ValueError(f"length mismatch: {s1.n} != {s2.n}")
    if s1.d is None or s2.d is None:
        d = None
    else:
        d = min(2 * s1.d, s2.d)
    return CodeParams(
        length=2 * s1.n,
        size=s1.M * s2.M,
        distance=d,
        rank=s1.rank + s2.rank,
        kernel_dim=s1.ker_dim + s2.ker_dim,
    )


def verify_plotkin(c1: Code, c2: Code) -> PlotkinReport:
    """Construct the code and compare direct vs. measured kernel and span.

    The left side of every comparison is computed on the constructed code
    alone (kernel scan, row reduction, pairwise distance); the right side
    is assembled from the inputs. Nothing is assumed. Each code's basis
    and kernel are computed once and cached on it, so the summaries of the
    inputs reuse what the comparisons measured.
    """
    return _verify(c1, c2, plotkin_construct(c1, c2))


def _verify(c1: Code, c2: Code, code: Code) -> PlotkinReport:
    """verify_plotkin on a constructed code the caller already built.

    `code` must be plotkin_construct(c1, c2); a caller that needs the code
    too passes it in, so it is built and analysed only once. Every number
    compared is read from the summaries of the three codes. Both
    factorization equalities compare canonical RREF rows: the span of
    `code` against that of {(x|x+y)} over the inputs, and its kernel
    against the same map over the input kernels. Each kernel is first
    checked to be its own span, |K| = 2^rank(K), so equal rows mean equal
    sets and a kernel that is not a subspace fails Theorem I.
    """
    kernels = kernel(code), kernel(c1), kernel(c2)
    theorem_i = all(map(is_linear, kernels)) and _factors(*kernels)
    theorem_ii = _factors(code, c1, c2)

    s1, s2, s = summarize(c1), summarize(c2), summarize(code)
    corollary_i = s.ker_dim == s1.ker_dim + s2.ker_dim
    corollary_ii = s.rank == s1.rank + s2.rank

    predicted = predict_params(s1, s2)
    observed = CodeParams(s.n, s.M, s.d, s.rank, s.ker_dim)
    d = s.d if predicted.distance is None else predicted.distance  # None: slot skipped
    params_hold = observed == replace(predicted, distance=d)

    return PlotkinReport(
        n_in=c1.n,
        predicted=predicted,
        observed=observed,
        theorem_i_holds=theorem_i,
        theorem_ii_holds=theorem_ii,
        corollary_i_holds=corollary_i,
        corollary_ii_holds=corollary_ii,
        params_hold=params_hold,
        hypothesis_ok=c1.contains_zero() and c2.contains_zero(),
    )
