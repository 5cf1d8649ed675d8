"""Weight-graded derivation cuts on full words and signed term accumulation.

The degree-r derivation of a full word w with interior length n is a sum of
tensor terms, one per window position p in 0..n-r: the left factor is the
cut-out subword w[p : p+r+2] (boundaries of the window included) and the
right factor is the quotient word with the window's interior removed.  A
term vanishes when the two boundary symbols of its window agree, because the
left factor then represents a zero integral.  A term is a plain
(left, right) pair of words.

Accumulation reduces a list of terms modulo the reversal identity
I(w) = (-1)^(interior length) I(reverse(w)) applied to left factors, into a
dict from (canonical left, right) to a nonzero coefficient, so a collection
of terms sums to zero exactly when the dict is empty.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from .words import BinaryWord

__all__ = [
    "surviving_windows",
    "dr_terms",
    "reversal_canonical",
    "accumulate",
]

Term = Tuple[BinaryWord, BinaryWord]


def surviving_windows(w: BinaryWord, r: int) -> List[Tuple[int, int]]:
    """Half-open ranges [start, end) of the degree-r windows that survive.

    Of the n - r + 1 windows of length r + 2, those whose two boundary
    symbols agree are dropped.
    """
    n = w.interior_length
    if r < 1 or r > n:
        raise ValueError(f"cut degree must satisfy 1 <= r <= interior length {n}, got {r}")
    s = w.symbols
    return [(p, p + r + 2) for p in range(n - r + 1) if s[p] != s[p + r + 1]]


def dr_terms(w: BinaryWord, r: int) -> List[Term]:
    """(left, right) terms of the degree-r derivation of w, one per surviving window."""
    s = w.symbols
    return [
        (BinaryWord(s[start:end]), BinaryWord(s[: start + 1] + s[end - 1 :]))
        for start, end in surviving_windows(w, r)
    ]


def reversal_canonical(w: BinaryWord) -> Tuple[BinaryWord, int]:
    """Lexicographically smaller of w and its reverse, with the relating sign.

    Returns (canonical, s) such that I(w) = s * I(canonical).  A palindrome
    with odd interior length satisfies I(w) = -I(w), so it is zero; the
    returned sign is then 0.
    """
    rev = tuple(reversed(w.symbols))
    if rev == w.symbols and w.interior_length % 2 == 1:
        return w, 0
    if w.symbols <= rev:
        return w, 1
    sign = -1 if w.interior_length % 2 == 1 else 1
    return BinaryWord(rev), sign


def accumulate(terms: Iterable[Term]) -> Dict[Term, int]:
    """Sum terms modulo left-factor reversal; zero coefficients are dropped."""
    acc: Dict[Term, int] = {}
    for left, right in terms:
        canonical, sign = reversal_canonical(left)
        if sign == 0:
            continue
        key = (canonical, right)
        value = acc.get(key, 0) + sign
        if value:
            acc[key] = value
        else:
            del acc[key]
    return acc
