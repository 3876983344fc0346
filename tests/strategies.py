"""Hypothesis strategies shared by the property tests."""

from hypothesis import strategies as st

from plotkit.core import Code


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
