"""Weight-graded derivation cuts on full words and signed term accumulation.

A word is a plain tuple of symbols (see `words`).  Cutting the window
[start, end) out of a word w gives the pair (subword, quotient): the
subword is w[start:end], boundary symbols of the window included, and the
quotient is w with the window's interior removed.  `cut` is the only place
that knows this slicing.

The degree-r derivation of a full word w with interior length n is a sum of
tensor terms, one per window of length r + 2 starting at p in 0..n-r, each
the cut of that window.  A term vanishes when the two boundary symbols of
its window agree, as the subword then represents a zero integral;
`surviving_windows` gives the other windows' starts, and `dr_terms` cuts them.

Accumulation reduces a list of terms modulo the reversal identity
I(w) = (-1)^(interior length) I(reverse(w)) applied to left factors, into a
dict from (canonical left, right) to a nonzero coefficient, so a collection
of terms sums to zero exactly when the dict is empty.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from .words import Word

__all__ = [
    "cut",
    "surviving_windows",
    "dr_terms",
    "reversal_canonical",
    "accumulate",
]

Term = Tuple[Word, Word]


def cut(w: Word, start: int, end: int) -> Term:
    """(subword, quotient) of the window [start, end) of w, both keeping its boundaries."""
    return w[start:end], w[: start + 1] + w[end - 1 :]


def surviving_windows(w: Word, r: int) -> List[int]:
    """Ascending starts of the degree-r windows [start, start + r + 2) that survive.

    Of the n - r + 1 windows, those whose two boundary symbols agree are dropped.
    """
    n = len(w) - 2
    if r < 1 or r > n:
        raise ValueError(f"cut degree must satisfy 1 <= r <= interior length {n}, got {r}")
    return [p for p in range(n - r + 1) if w[p] != w[p + r + 1]]


def dr_terms(w: Word, r: int) -> List[Term]:
    """(left, right) terms of the degree-r derivation of w, one per surviving window."""
    return [cut(w, start, start + r + 2) for start in surviving_windows(w, r)]


def reversal_canonical(w: Word) -> Tuple[Word, int]:
    """Lexicographically smaller of w and its reverse, with the relating sign.

    Returns (canonical, s) such that I(w) = s * I(canonical).  A palindrome
    with odd interior length satisfies I(w) = -I(w), so it is zero; the
    returned sign is then 0.
    """
    rev = w[::-1]
    odd_interior = len(w) % 2 == 1
    if rev == w and odd_interior:
        return w, 0
    if w <= rev:
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
    canonical_of: Dict[Word, Tuple[Word, int]] = {}
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
