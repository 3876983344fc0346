"""Word and code builders, hypothesis strategies, fixed codes, and the call
and probe recorders shared by the tests."""

from typing import Any, NamedTuple

from hypothesis import strategies as st

from plotkit.core import Code, Word


def w(s):
    return Word.from_string(s)


def code(*strings):
    return Code([w(s) for s in strings])


class Call(NamedTuple):
    """One call made through a recorded binding."""

    name: str
    args: tuple
    kwargs: dict
    result: Any


def record_calls(monkeypatch, owner, name: str, calls: list | None = None) -> list:
    """Patch `owner.name` to forward each call unchanged, and record it.

    Returns the list that gains a `Call` as each call returns; pass `calls`
    to record several bindings into one list, in the order their calls
    return. Only this binding is patched, as by `monkeypatch.setattr`: a
    module that imported the function under its own name still calls the
    original. Tests take this as the `record` fixture; a hypothesis test
    passes its own `pytest.MonkeyPatch.context()`.
    """
    calls = [] if calls is None else calls
    real = getattr(owner, name)

    def recorded(*args, **kwargs):
        result = real(*args, **kwargs)
        calls.append(Call(name, args, kwargs, result))
        return result

    monkeypatch.setattr(owner, name, recorded)
    return calls


class Recorded(frozenset):
    """A code's member set that records the probes made on it.

    `tests` holds the words probed by each difference test (`isdisjoint`),
    sorted, and `lookups` counts the words looked up one at a time (`in`).
    """

    def __init__(self, patterns):
        self.tests, self.lookups = [], 0

    def isdisjoint(self, other):
        self.tests.append(sorted(other))
        return frozenset.isdisjoint(self, self.tests[-1])

    def __contains__(self, item):
        self.lookups += 1
        return frozenset.__contains__(self, item)


class CountingCode(Code):
    """A code whose membership probes, by bisection or in its set, are counted.

    `built_at` is the number of bisections made when its `Recorded` set was
    built, or None while it is not.
    """

    __slots__ = ()
    bisections = 0
    built_at = None

    def _has(self, x):
        CountingCode.bisections += 1
        return Code._has(self, x)

    def _members(self):
        if self._bits is None:
            CountingCode.built_at = CountingCode.bisections
            self._bits = Recorded(self.bit_patterns)
        return self._bits

    @property
    def probes(self) -> int:
        """The bisections and the lookups in the set made so far."""
        return CountingCode.bisections + (self._bits.lookups if self._bits else 0)


def counting_copy(code: Code) -> CountingCode:
    """A fresh copy of `code`, without its member set, with the counts reset."""
    CountingCode.bisections = 0
    CountingCode.built_at = None
    return CountingCode._from_distinct(code.n, list(code.bit_patterns))


@st.composite
def coset_unions(draw, n=None):
    """A union of 1 to 5 cosets of a random k-dimensional subspace K, and k.

    The length is n, or drawn up to 8, and k <= 4, so the code has at most
    80 words. Each leader is drawn outside the cosets taken so far, so the
    leaders are distinct mod K. Every x in K maps each coset K + l to
    itself, so the kernel of the union contains K. A code of one word is
    not drawn.
    """
    if n is None:
        n = draw(st.integers(1, 8))
    k = draw(st.integers(0, min(4, n)))
    words = set()
    kernel = {0}
    for _ in range(k):
        x = draw(st.sampled_from(sorted(set(range(1 << n)) - kernel)))
        kernel |= {s ^ x for s in kernel}
    cosets = draw(st.integers(1 if k else 2, min(5, 1 << (n - k))))
    for _ in range(cosets):
        leader = draw(st.sampled_from(sorted(set(range(1 << n)) - words)))
        words |= {s ^ leader for s in kernel}
    return Code._from_bits(n, words), k


@st.composite
def bucketed_coset_unions(draw):
    """A union of cosets of a random subspace K, of 64 to 511 words, and dim K.

    At n <= 10, 64 words or more make the kernel scan split the code into at
    least 4 buckets by its top bits. Each row of K is a random word,
    or one cut to the low n - 3 bits, so some kernels move words between
    buckets and some keep every word in its bucket, which leaves buckets
    of uneven sizes, some empty. A shift may move the zero word out of the
    code and its empty buckets to the bottom, so c0 need not lie in the
    first bucket.
    """
    n = draw(st.integers(8, 10))
    k = draw(st.integers(1, 5))
    space = [0]
    while len(space) < 1 << k:
        row = draw(st.integers(1, (1 << n) - 1)) >> draw(st.sampled_from([0, 3]))
        if row not in space:
            space += [s ^ row for s in space]
    size = draw(st.integers(64, min(512, 1 << (n - 1)) - len(space)))
    words: set[int] = set()
    while len(words) < size:
        leader = draw(st.integers(0, (1 << n) - 1).filter(lambda w: w not in words))
        words |= {s ^ leader for s in space}
    shift = draw(st.one_of(st.just(0), st.integers(0, (1 << n) - 1)))
    return Code._from_bits(n, [w ^ shift for w in words]), k


def nordstrom_robinson() -> Code:
    """The Nordstrom-Robinson code: 256 words of length 16, d = 6.

    The shifts of g(x) = x^11 + x^10 + x^6 + x^5 + x^4 + x^2 + 1 generate
    the cyclic Golay code of length 23, and a parity bit extends it to the
    [24, 12, 8] code. One octad, a word of weight 8, is moved to the first
    8 coordinates. The words that are 0, or e_i + e_8 for some i <= 7, on
    those coordinates are kept, and the 8 coordinates deleted.
    """
    golay = [0]
    for i in range(12):
        row = 0b110001110101 << i
        row = row << 1 | (row.bit_count() & 1)
        golay += [w ^ row for w in golay]
    octad = next(w for w in golay if w.bit_count() == 8)
    order = sorted(range(24), key=lambda i: not octad >> (23 - i) & 1)
    heads = {"0" * 8} | {"0" * i + "1" + "0" * (6 - i) + "1" for i in range(7)}
    words = []
    for w in golay:
        bits = format(w, "024b")
        moved = "".join(bits[i] for i in order)
        if moved[:8] in heads:
            words.append(int(moved[8:], 2))
    return Code._from_bits(16, words)
