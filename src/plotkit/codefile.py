"""Plain-text file formats for codes and generator matrices.

A code file is comment lines ('#') plus one codeword per line as a string
over {0,1}, all the same length. A generator file looks the same but each
line is a generator-matrix row and the file denotes the row space. Output
is canonical: a generated header, then lexicographically sorted lines.
"""

from __future__ import annotations

import warnings
from itertools import repeat

from .core import Code, _check_length
from .gf2 import Gf2Basis, _reduce_bits, _span_code


class ParseError(ValueError):
    """Malformed code/generator file; the message names the line."""

    def __init__(self, message: str, *, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


def _walk(text: str) -> list[tuple[int, str]]:
    """The per-line reading: (line, row) of each repeat, in file order.

    It raises the error of the first line that fails a check, so
    `_parse_rows` calls it only to name that line once a whole-body check
    has failed, and `parse_code_file` only once the file is known to have
    repeats. It converts nothing.
    """
    length: int | None = None
    seen: set[str] = set()
    repeats: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line[0] == "#":
            continue
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
        if line in seen:
            repeats.append((lineno, line))
        seen.add(line)
    return repeats


def _parse_rows(text: str) -> tuple[int, list[int]]:
    """Word length and the bit pattern of each codeword line, in file order.

    A valid file costs one character check, one length check and one
    conversion, each over the whole body. The file is walked line by line
    only when a check fails, to name the first bad line.
    """
    rows = [s for s in map(str.strip, text.splitlines()) if s and s[0] != "#"]
    if not rows:
        raise ParseError("no codeword lines found")
    lengths = set(map(len, rows))
    # int(s, 2) alone would take "_", "+", "0b" and non-ASCII digits. Each
    # survives this byte filter: a non-ASCII character, a lone surrogate
    # too, is encoded as "?".
    illegal = "".join(rows).encode("ascii", "replace").translate(None, b"01")
    if illegal or len(lengths) > 1:
        _walk(text)  # raises: it names the first bad line
    n = lengths.pop()
    _check_length(n)
    return n, list(map(int, rows, repeat(2)))


def parse_code_file(text: str) -> Code:
    """Parse a code file; each repeated line is dropped with a warning.

    The warnings come after the whole file has been checked, so a file that
    also has a bad line raises its ParseError and warns nothing.
    """
    n, words = _parse_rows(text)
    code = Code._from_bits(n, words)
    if len(code) < len(words):
        for lineno, line in _walk(text):
            warnings.warn(f"duplicate codeword {line} at line {lineno}", stacklevel=2)
    return code


def parse_gen_file(text: str) -> Code:
    """Parse a generator file and materialize its row space."""
    n, words = _parse_rows(text)
    return _span_code(n, _reduce_bits(words, n))


def code_lines(code: Code) -> list[str]:
    """The codewords as bit strings, in the code's sorted order."""
    top = 1 << code.n  # bin(b | top) is "0b1" then the word, leading zeros kept
    return [bin(b | top)[3:] for b in code.bit_patterns]


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
