"""Plain-text file formats for codes and generator matrices.

A code file is comment lines ('#') plus one codeword per line as a string
over {0,1}, all the same length. A generator file looks the same but each
line is a generator-matrix row and the file denotes the row space. Output
is canonical: a generated header, then lexicographically sorted lines.
"""

from __future__ import annotations

import warnings

from .core import Code, _check_length
from .gf2 import Gf2Basis, _reduce_bits, _span_code


class ParseError(ValueError):
    """Malformed code/generator file; the message names the line."""

    def __init__(self, message: str, *, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


def _parse_rows(text: str) -> tuple[int, list[tuple[int, int]]]:
    """Word length and (line number, bit pattern) of each codeword line."""
    rows: list[tuple[int, int]] = []
    length: int | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line[0] == "#":
            continue
        # int(line, 2) alone would also take "_", "+", "0b" and inner spaces.
        if line.strip("01"):
            raise ParseError(f"illegal characters in {line!r}", line=lineno)
        if length is None:
            length = len(line)
            _check_length(length)
        elif len(line) != length:
            raise ParseError(
                f"row of length {len(line)} in a file of length-{length} rows",
                line=lineno,
            )
        rows.append((lineno, int(line, 2)))
    if length is None:
        raise ParseError("no codeword lines found")
    return length, rows


def parse_code_file(text: str) -> Code:
    """Parse a code file; duplicates are dropped with a warning."""
    n, rows = _parse_rows(text)
    seen: set[int] = set()
    for lineno, bits in rows:
        if bits in seen:
            warnings.warn(
                f"duplicate codeword {bits:0{n}b} at line {lineno}", stacklevel=2
            )
        seen.add(bits)
    return Code._from_bits(n, seen)


def parse_gen_file(text: str) -> Code:
    """Parse a generator file and materialize its row space."""
    n, rows = _parse_rows(text)
    return _span_code(n, _reduce_bits((b for _, b in rows), n))


def code_lines(code: Code) -> list[str]:
    """The codewords as bit strings, in the code's sorted order."""
    fmt = f"0{code.n}b"
    return [format(b, fmt) for b in code.bit_patterns]


def format_code_file(code: Code) -> str:
    """Canonical text form of a code: header plus sorted codeword lines."""
    lines = [f"# code n={code.n} M={len(code)}"]
    lines.extend(code_lines(code))
    return "\n".join(lines) + "\n"


def format_basis_file(basis: Gf2Basis) -> str:
    """Canonical text form of a basis: header plus its RREF rows.

    Parsing the result as a generator file recovers the spanned subspace.
    Dimension-zero bases have no rows, so a zero row is emitted to keep
    the file well-formed; its row space is still the zero subspace.
    """
    lines = [f"# generator n={basis.n} dim={basis.dim}"]
    if basis.rows:
        lines.extend(str(w) for w in basis.rows)
    else:
        lines.append("0" * basis.n)
    return "\n".join(lines) + "\n"
