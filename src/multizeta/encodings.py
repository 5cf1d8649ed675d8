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
package.  The two producers of encodings,
`enumerate_odd_encodings` and `phi`, keep 0 <= s < t < len(b), t - s odd,
0 <= l < 2*(b_s + 1), 0 <= m < 2*(b_t + 1) and l - m odd by construction,
and the tests check those rules on both.  The enumerator returns each
encoding with its window [start, end), read off the run of the scan that
holds it; `window_of` computes the same window from the encoding alone,
and `encoding_at` the encoding from its window.

An encoding's notation "(b; s,l; t,m)" is `str(e)`.  The verifier writes
the same lines straight from the runs below, formatting each vector once
and building no encoding.

The involution phi reverses the slice (b_s, ..., b_t) in place and swaps
the two offsets.  It preserves window length, has no fixed points, reverses
the cut-out subword, and leaves the quotient word unchanged; those four
facts drive the pairwise cancellation proof in the verifier.  An orbit is
a plain (e, phi(e)) pair, smaller encoding first; the subword and the
quotient of an encoding are `coaction.cut` of its word at its window.

`phi` is the reference; the verifier finds each partner by its window
instead, from one scan.  `window_runs` gives the windows of one length
run by run, one run per block pair (s, t): blocks s..t span [p, q) of the
word, p = offs[s] and q = offs[t+1] for the block offsets offs, and
e = (b; s, l; t, m) has the window [p + l, q - m).  Reversing
(b_s, ..., b_t) permutes the blocks inside [p, q) and moves none outside
it, so [p, q) is also the span of blocks s..t in phi(e)'s word, and
phi(e)'s window is [p + m, q - l) = [p + q - end, p + q - start): the
reflection of e's window in [p, q).  So phi maps a whole run onto windows
of one vector, sending the start x to p + q - length - x; `reflected_runs`
gives each run with that vector and that mirror p + q - length.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import accumulate
from typing import Iterator, List, NamedTuple, Tuple

from .coaction import cut
from .words import BlockVector, Word, blockvector_to_word, format_vector, weight_of

__all__ = [
    "OddEncoding",
    "window_runs",
    "enumerate_odd_encodings",
    "phi",
    "subsequence_of",
    "quotient_of",
    "window_of",
    "encoding_at",
    "reflected_runs",
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


def window_runs(b: BlockVector, length: int) -> Iterator[Tuple[int, int, int, int, range]]:
    """The windows of an odd length, run by run, in positional order.

    Each run is (s, t, p, q, starts) for a block pair s < t that holds a
    window: blocks s..t span [p, q) of the expanded word, and starts is the
    range of x, ascending, whose window [x, x + length) starts in block s
    and ends in block t.  For fixed s the window ends move into later
    blocks as the start grows, so t begins at the block where the first
    window from block s ends, and the scan visits no (s, t) pair that holds
    no window; each encoding lies in one run.  The length must be odd and
    satisfy 3 <= length <= weight + 1 (a longer window could not leave a
    nonempty quotient).
    """
    if length % 2 == 0:
        raise ValueError(f"window length must be odd, got {length}")
    if not (3 <= length <= weight_of(b) + 1):
        raise ValueError(
            f"window length must lie in [3, {weight_of(b) + 1}], got {length}"
        )
    offs = [0, *accumulate(2 * (count + 1) for count in b)]  # where each block starts
    k = len(b)
    for s in range(k):
        first, after = offs[s], offs[s + 1]  # the window starts in block s
        # ... and ends in block t: offs[t] < start + length <= offs[t + 1], so
        # t starts at the block where a window starting at `first` ends
        t = bisect_left(offs, first + length) - 1
        t += 1 - (t - s) % 2  # of the other parity than s, past s
        while t < k:
            lo = offs[t] - length + 1
            if lo >= after:
                break  # lo only grows with t
            q = offs[t + 1]
            hi = q - length + 1
            yield s, t, first, q, range(lo if lo > first else first, hi if hi < after else after)
            t += 2


def enumerate_odd_encodings(
    b: BlockVector, length: int
) -> List[Tuple[OddEncoding, int, int]]:
    """All odd encodings of windows of the given length, in positional order.

    Each comes with its window [start, end) in the expanded word, read off
    the run of `window_runs` that holds it; it equals `window_of(e)`.
    """
    found = []
    for s, t, p, q, starts in window_runs(b, length):
        for start in starts:
            end = start + length
            found.append((OddEncoding(b, s, start - p, t, q - end), start, end))
    return found


def phi(e: OddEncoding) -> OddEncoding:
    """Reverse the block slice [s..t] and swap the two offsets."""
    b, s, l, t, m = e
    return OddEncoding(b[:s] + b[s : t + 1][::-1] + b[t + 1 :], s, m, t, l)


def reflected_runs(
    b: BlockVector, length: int
) -> Iterator[Tuple[int, int, int, int, range, BlockVector, int]]:
    """`window_runs` with the image of each run under phi.

    Each run (s, t, p, q, starts) comes with phi's vector, which reverses
    (b_s, ..., b_t), and the mirror p + q - length: phi sends the window
    starting at x to the window of that vector starting at mirror - x.
    """
    for s, t, p, q, starts in window_runs(b, length):
        yield s, t, p, q, starts, b[:s] + b[s : t + 1][::-1] + b[t + 1 :], p + q - length


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
    return cut(blockvector_to_word(e.vector), *window_of(e))[0]


def quotient_of(e: OddEncoding) -> Word:
    """The right factor: the word with the window's interior removed."""
    return cut(blockvector_to_word(e.vector), *window_of(e))[1]

