"""Binary block codes under the (u|u+v) construction.

Build codes, measure their minimum distance, rank, and kernel, and verify
mechanically that kernel and span of a constructed code factor exactly
through the inputs (so both invariants are additive).
"""

from .codefile import (
    ParseError,
    format_basis_file,
    format_code_file,
    parse_code_file,
    parse_gen_file,
)
from .core import (
    Code,
    Word,
    concat,
    hamming_distance,
    translate,
    word_xor,
)
from .families import (
    build_family,
    from_generator,
    parity,
    random_code,
    reed_muller,
    repetition,
    universe,
)
from .gf2 import Gf2Basis, code_basis, enumeration_cap, in_span, rref, span_enumerate
from .invariants import (
    CodeSummary,
    is_linear,
    kernel,
    kernel_dim,
    min_distance,
    rank,
    summarize,
)
from .oracle import distance_bruteforce, kernel_bruteforce, span_bruteforce
from .plotkin import (
    CodeParams,
    PlotkinReport,
    plotkin_construct,
    predict_params,
    span_direct,
    verify_plotkin,
)

__version__ = "0.1.0"

__all__ = [
    "Code",
    "CodeParams",
    "CodeSummary",
    "Gf2Basis",
    "ParseError",
    "PlotkinReport",
    "Word",
    "build_family",
    "code_basis",
    "concat",
    "distance_bruteforce",
    "enumeration_cap",
    "format_basis_file",
    "format_code_file",
    "from_generator",
    "hamming_distance",
    "in_span",
    "is_linear",
    "kernel",
    "kernel_bruteforce",
    "kernel_dim",
    "min_distance",
    "parity",
    "parse_code_file",
    "parse_gen_file",
    "plotkin_construct",
    "predict_params",
    "random_code",
    "rank",
    "reed_muller",
    "repetition",
    "rref",
    "span_bruteforce",
    "span_direct",
    "span_enumerate",
    "summarize",
    "translate",
    "universe",
    "verify_plotkin",
    "word_xor",
]
