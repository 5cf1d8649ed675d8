"""Odd window encodings over block words and the reversal involution.

The word of a block vector b = (b_0, ..., b_{2n}) is the concatenation of
2-symbol blocks, block i contributing 2*(b_i + 1) symbols.  An odd-length
window of that word is recorded positionally as (b; s, l; t, m):

* s and t are the indices of the blocks containing the window's first and
  last symbol,
* l counts the symbols of block s omitted to the left of the window,
* m counts the symbols of block t omitted to the right of it.

The window length is then sum(2*(b_i + 1) for s <= i <= t) - l - m, and it
is odd exactly when l and m have different parities, which forces t - s to
be odd as well.  Windows lying inside a single block, and even-length
windows generally, never participate in a degree-r cut with odd r.  An
encoding is a plain named tuple (b, s, l, t, m), b the block vector tuple
itself, whose native order is positional order; it checks nothing itself,
and b was checked once by `words.block_vector` where it entered the
package.  The two producers of encodings, `enumerate_odd_encodings` and
`phi`, keep 0 <= s < t < len(b), t - s odd, 0 <= l < 2*(b_s + 1),
0 <= m < 2*(b_t + 1) and l - m odd by construction, and the tests check
those rules on both.  The enumerator returns each encoding with its window
[start, end); `window_of` computes the same window from the encoding
alone, and `encoding_at` the encoding from its window.  An encoding's
notation "(b; s,l; t,m)" is `str(e)`.

The involution phi reverses the slice (b_s, ..., b_t) in place and swaps
the two offsets.  It preserves window length, has no fixed points, reverses
the cut-out subword, and leaves the quotient word unchanged; those four
facts drive the pairwise cancellation proof in the verifier.  An orbit is
a plain (e, phi(e)) pair, smaller encoding first; the subword and the
quotient of an encoding are `coaction.cut` of its packed word at its
window.

`phi` is the reference; the verifier finds each partner by its window, from
one table per word, `block_pairs`: for each block pair (s, t), blocks s..t
span [p, q) of the word, and e = (b; s, l; t, m) has the window
[p + l, q - m).  Reversing (b_s, ..., b_t) moves no block outside [p, q),
so phi(e)'s window is [p + m, q - l) = [p + q - end, p + q - start): the
reflection of e's window in [p, q).  So a row sends all its windows of one
length onto one vector, the start x going to p + q - length - x.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import accumulate
from typing import List, NamedTuple, Tuple

from .coaction import cut, pack, unpack
from .words import BlockVector, Word, blockvector_to_word, format_vector, weight_of

__all__ = [
    "OddEncoding",
    "enumerate_odd_encodings",
    "phi",
    "subsequence_of",
    "quotient_of",
    "window_of",
    "encoding_at",
    "block_pairs",
]


class OddEncoding(NamedTuple):
    """Positional record (b; s, l; t, m) of an odd-length window."""

    vector: BlockVector
    start_block: int
    start_offset: int
    end_block: int
    end_offset: int

    def __str__(self) -> str:
        b, s, l, t, m = self
        return f"({format_vector(b)}; {s},{l}; {t},{m})"


def block_pairs(b: BlockVector) -> List[Tuple[int, int, int, int, int, int, BlockVector]]:
    """One row (s, t, p, q, a, c, image) per block pair s < t, t - s odd, in (s, t) order.

    Blocks s..t span [p, q), blocks s and t hold a and c symbols, and image
    is phi's vector.  The windows of a length in blocks s..t start at
    max(p, q - c - length + 1) <= x < min(p + a, q - length + 1).
    """
    offs = [0, *accumulate(2 * (count + 1) for count in b)]  # where each block starts
    return [
        (s, t, offs[s], offs[t + 1], offs[s + 1] - offs[s], offs[t + 1] - offs[t],
         b[:s] + b[s : t + 1][::-1] + b[t + 1 :])
        for s in range(len(b))
        for t in range(s + 1, len(b), 2)
    ]


def enumerate_odd_encodings(
    b: BlockVector, length: int
) -> List[Tuple[OddEncoding, int, int]]:
    """All odd encodings of windows of the given length, in positional order.

    Each comes with its window [start, end) in the expanded word, read off
    the row of `block_pairs` that holds it; it equals `window_of(e)`.  The
    length must be odd and satisfy 3 <= length <= weight + 1 (a longer
    window could not leave a nonempty quotient).
    """
    if length % 2 == 0:
        raise ValueError(f"window length must be odd, got {length}")
    if not (3 <= length <= weight_of(b) + 1):
        raise ValueError(
            f"window length must lie in [3, {weight_of(b) + 1}], got {length}"
        )
    found = []
    for s, t, p, q, a, c, _ in block_pairs(b):
        for start in range(max(p, q - c - length + 1), min(p + a, q - length + 1)):
            end = start + length
            found.append((OddEncoding(b, s, start - p, t, q - end), start, end))
    return found


def phi(e: OddEncoding) -> OddEncoding:
    """Reverse the block slice [s..t] and swap the two offsets."""
    b, s, l, t, m = e
    return OddEncoding(b[:s] + b[s : t + 1][::-1] + b[t + 1 :], s, m, t, l)


def window_of(e: OddEncoding) -> Tuple[int, int]:
    """Half-open symbol range [start, end) of the window in the expanded word."""
    b, s, l, t, m = e
    # the blocks before block i hold 2*i + 2*sum(b[:i]) symbols
    return 2 * (s + sum(b[:s])) + l, 2 * (t + 1 + sum(b[: t + 1])) - m


def encoding_at(b: BlockVector, start: int, end: int) -> OddEncoding:
    """The encoding of the odd window [start, end) of b's word; `window_of` inverted."""
    offs = [0, *accumulate(2 * (count + 1) for count in b)]
    s = bisect_right(offs, start) - 1  # the block holding the first symbol ...
    t = bisect_left(offs, end) - 1  # ... and the one holding the last
    return OddEncoding(b, s, start - offs[s], t, offs[t + 1] - end)


def subsequence_of(e: OddEncoding) -> Word:
    """The cut-out left factor: the window's symbols."""
    return unpack(cut(pack(blockvector_to_word(e.vector)), *window_of(e))[0])


def quotient_of(e: OddEncoding) -> Word:
    """The right factor: the word with the window's interior removed."""
    return unpack(cut(pack(blockvector_to_word(e.vector)), *window_of(e))[1])

