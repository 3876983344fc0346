"""Plain-text file formats for codes and generator matrices.

A code file is comment lines ('#') plus one codeword per line as a string
over {0,1}, all the same length. A generator file looks the same but each
line is a generator-matrix row and the file denotes the row space. Output
is canonical: a generated header, then lexicographically sorted lines.

Text and packed ints are converted a column at a time, never a line at a
time: `_unpack` reads the words of a body of equal lines, and `_pack` writes
one. Both work on byte planes, the bytes at one position of every word's
big-endian form, which are bulk int and bytes operations over all lines.
"""

from __future__ import annotations

import struct
import warnings
from typing import Sequence

from .core import Code, _check_length, _little_endian, _word_bytes
from .gf2 import Gf2Basis, _reduce_bits, _span_code

# _DIGITS[b] maps a byte to the character of its bit b, counted from the top:
# that bit is 0 and 1 in alternate runs of r = 2^(7-b) byte values. Built by
# repetition, not by a generator of 256 ints: building 8 tables from a
# generator raised the peak RSS of `import plotkit.cli` by about 128 KB.
_DIGITS = [(b"0" * r + b"1" * r) * (128 // r) for r in (128, 64, 32, 16, 8, 4, 2, 1)]


def _planes(n: int):
    """(p, first) for each byte plane p of a length-n word, counted from the
    top byte: its top bit is column `first`, negative in the zero padding."""
    size = _word_bytes(n)
    for p in range(size):
        yield p, 8 * p - (8 * size - n)


def _unpack(body: bytes, n: int) -> Sequence[int]:
    """The words of a body of lines of n characters '0' or '1', each ended by '\\n'.

    Column k is the strided slice body[k::n+1]. Read as one int and masked
    to the low bit of each character ('0' is 0x30, '1' is 0x31), it gives
    bit k of every word at once; eight columns OR into one byte plane.
    The planes fill little-endian words of `_word_bytes(n)` bytes, which
    are read in one `struct.unpack` for n <= 64, and one at a time above.
    """
    stride, size = n + 1, _word_bytes(n)
    m = len(body) // stride
    ones = int.from_bytes(b"\x01" * m, "big")
    raw = bytearray(size * m)
    for p, first in _planes(n):
        plane = 0
        for k in range(max(first, 0), first + 8):
            column = int.from_bytes(body[k::stride], "big")
            plane |= (column & ones) << (first + 7 - k)
        if plane:
            raw[size - 1 - p :: size] = plane.to_bytes(m, "big")
    if size == 8:
        return struct.unpack(f"<{m}Q", raw)
    view, starts = memoryview(raw), range(0, len(raw), size)
    return [int.from_bytes(view[i : i + size], "little") for i in starts]


def _pack(n: int, words: Sequence[int]) -> str:
    """The inverse of `_unpack`: one line of n characters per word, in order.

    Each byte plane of the words' little-endian bytes is translated to the
    characters of its eight columns, each written into a strided slice of
    one buffer whose newline column is set when it is made.
    """
    stride, size, m = n + 1, _word_bytes(n), len(words)
    raw = _little_endian(n, words)
    out = bytearray(b"\n" * (stride * m))
    for p, first in _planes(n):
        plane = raw[size - 1 - p :: size]
        for k in range(max(first, 0), first + 8):
            out[k::stride] = plane.translate(_DIGITS[k - first])
    return out.decode("ascii")


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


def _canonical_body(text: str) -> tuple[int, bytes] | None:
    """Word length and body of a file in the layout that `_pack` writes.

    That is leading '#' lines, then only equal lines of '0' and '1', each
    ended by '\\n' (the last may lack it). Any other file gives None.
    """
    start = 0
    while text.startswith("#", start):
        start = text.find("\n", start) + 1
        if not start:
            return None
    header = text[:start]
    if len(header.splitlines()) != header.count("\n"):
        return None  # another line break inside a comment
    body = text[start:].encode("ascii", "replace")
    if body[-1:] != b"\n":
        body += b"\n"
    n = body.find(b"\n")
    m, rest = divmod(len(body), n + 1)
    newlines = b"\n" * m
    # m newlines in all, one at the end of each (n + 1)-byte line
    if n < 1 or rest or body[n :: n + 1] != newlines:
        return None
    if body.translate(None, b"01") != newlines:
        return None
    return n, body


def _parse_rows(text: str) -> tuple[int, Sequence[int]]:
    """Word length and the bit pattern of each codeword line, in file order.

    A canonical file goes to `_unpack` as it is. Any other is normalized:
    its lines are split, stripped and filtered, then checked with one
    character check and one length check over all rows, and joined into
    the canonical layout. The file is walked line by line only when a
    check fails, to name the first bad line.
    """
    canonical = _canonical_body(text)
    if canonical is None:
        rows = [s for s in map(str.strip, text.splitlines()) if s and s[0] != "#"]
        if not rows:
            raise ParseError("no codeword lines found")
        lengths = set(map(len, rows))
        # _unpack reads only the low bit of each byte, so every character
        # must pass this byte filter first: a non-ASCII one, a lone
        # surrogate too, is encoded as "?".
        body = ("\n".join(rows) + "\n").encode("ascii", "replace")
        if body.translate(None, b"01\n") or len(lengths) > 1:
            _walk(text)  # raises: it names the first bad line
        canonical = lengths.pop(), body
    n, body = canonical
    _check_length(n)
    return n, _unpack(body, n)


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


def format_code_file(code: Code) -> str:
    """Canonical text form of a code: header plus sorted codeword lines."""
    return f"# code n={code.n} M={len(code)}\n" + _pack(code.n, code.bit_patterns)


def format_basis_file(basis: Gf2Basis) -> str:
    """Canonical text form of a basis: header plus its RREF rows.

    Parsing the result as a generator file recovers the spanned subspace.
    Dimension-zero bases have no rows, so a zero row is emitted to keep
    the file well-formed; its row space is still the zero subspace.
    """
    rows = [w.bits for w in basis.rows] or [0]
    return f"# generator n={basis.n} dim={basis.dim}\n" + _pack(basis.n, rows)
