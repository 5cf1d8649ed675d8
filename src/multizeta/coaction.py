"""Weight-graded derivation cuts on packed words and signed term accumulation.

`pack` puts symbol k of a word (see `words`) at bit k of one integer,
under a leading 1 at bit len(w).  Cutting the window [start, end) out of w
gives (subword, quotient): the subword is w[start:end], boundary symbols
included, and the quotient is w with the window's interior removed.  `cut`
is the only place that knows this slicing, as shifts and masks.

The degree-r derivation of a full word w with interior length n is a sum of
tensor terms, one per window of length r + 2 starting at p in 0..n-r, each
the cut of that window.  A term vanishes when the two boundary symbols of
its window agree, as the subword then represents a zero integral;
`surviving_windows` gives the other windows' starts as the bits of one
integer, and `dr_terms` cuts them.

Accumulation reduces a list of terms modulo the reversal identity
I(w) = (-1)^(interior length) I(reverse(w)) applied to left factors, into a
dict from (canonical left, right) to a nonzero coefficient, so a collection
of terms sums to zero exactly when the dict is empty.  The canonical left
factor is the smaller tuple, which is the larger integer: symbol 0 is the
lowest bit, so integer order is not tuple order.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from .words import Word

__all__ = [
    "pack",
    "unpack",
    "reverse",
    "cut",
    "surviving_windows",
    "dr_terms",
    "reversal_canonical",
    "accumulate",
]

Term = Tuple[int, int]


def pack(w: Word) -> int:
    """The word as one integer: symbol k at bit k, under a 1 at bit len(w)."""
    return int("1" + bytes(w[::-1]).hex()[1::2], 2)  # each symbol's byte is "00" or "01"


def unpack(w: int) -> Word:
    """The tuple of a packed word; `pack` inverted."""
    return tuple(map(int, bin(w)[:2:-1]))


def reverse(w: int) -> int:
    """The packed word with its symbols in reverse order."""
    return int("1" + bin(w)[:2:-1], 2)


def cut(w: int, start: int, end: int) -> Term:
    """(subword, quotient) of the window [start, end) of w, both keeping its boundaries."""
    sub = (w >> start) & (top := 1 << end - start) - 1 | top
    return sub, w & (2 << start) - 1 | (w >> end - 1) << start + 1


def surviving_windows(w: int, r: int) -> int:
    """The starts of the degree-r windows [start, start + r + 2) that survive, as bits.

    Of the n - r + 1 windows, those whose two boundary symbols agree are
    dropped; bit start of the result is set for each of the others.
    """
    n = w.bit_length() - 3
    if r < 1 or r > n:
        raise ValueError(f"cut degree must satisfy 1 <= r <= interior length {n}, got {r}")
    return (w ^ w >> r + 1) & ((1 << n - r + 1) - 1)


def dr_terms(w: int, r: int) -> List[Term]:
    """(left, right) terms of the degree-r derivation of w, one per surviving window."""
    starts = bin(surviving_windows(w, r))[:1:-1]  # bit x of the mask is character x
    return [cut(w, x, x + r + 2) for x, bit in enumerate(starts) if bit == "1"]


def reversal_canonical(w: int) -> Tuple[int, int]:
    """Lexicographically smaller tuple of w and its reverse, with the relating sign.

    Returns (canonical, s) such that I(w) = s * I(canonical).  A palindrome
    with odd interior length satisfies I(w) = -I(w), so it is zero; the
    returned sign is then 0.  The tuple-smaller form packs to the larger integer.
    """
    rev = reverse(w)
    odd_interior = w.bit_length() % 2 == 0  # an odd length, one below the bit length
    if rev == w and odd_interior:
        return w, 0
    if rev <= w:
        return w, 1
    return rev, -1 if odd_interior else 1


def accumulate(terms: Iterable[Term]) -> Dict[Term, int]:
    """Sum terms modulo left-factor reversal; zero coefficients are dropped.

    A left factor recurs across the words of a collection, so each distinct
    one is canonicalized once per call; the memo lives only as long as the
    call.  A key is popped and put back only while its sum is nonzero, so
    a cancelling pair costs two lookups, and the keys' order in the result
    carries no meaning.
    """
    acc: Dict[Term, int] = {}
    canonical_of: Dict[int, Tuple[int, int]] = {}
    for left, right in terms:
        known = canonical_of.get(left)
        if known is None:
            known = canonical_of[left] = reversal_canonical(left)
        canonical, sign = known
        if sign:
            key = (canonical, right)
            value = acc.pop(key, 0) + sign
            if value:
                acc[key] = value
    return acc
