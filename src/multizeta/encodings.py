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
windows generally, never participate in a degree-r cut with odd r, so the
encoding type enforces oddness outright.

The involution phi reverses the slice (b_s, ..., b_t) in place and swaps
the two offsets.  It preserves window length, has no fixed points, reverses
the cut-out subword, and leaves the quotient word unchanged; those four
facts drive the pairwise cancellation proof in the verifier.  An orbit is
a plain (e, phi(e)) pair, smaller `sort_key` first; the subword and the
quotient of an encoding are `coaction.cut` of its word at its window.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from .coaction import cut
from .words import BlockVector, Word, blockvector_to_word, weight_of

__all__ = [
    "OddEncoding",
    "enumerate_odd_encodings",
    "phi",
    "subsequence_of",
    "quotient_of",
    "window_of",
    "pair_up",
]


def _block_offsets(b: BlockVector) -> List[int]:
    """Start index of each block inside the expanded word."""
    offs = [0]
    for count in b.entries:
        offs.append(offs[-1] + 2 * (count + 1))
    return offs


@dataclass(frozen=True)
class OddEncoding:
    """Positional record (b; s, l; t, m) of an odd-length window."""

    vector: BlockVector
    start_block: int
    start_offset: int
    end_block: int
    end_offset: int

    def __post_init__(self) -> None:
        b, s, t = self.vector, self.start_block, self.end_block
        l, m = self.start_offset, self.end_offset
        if not (0 <= s < t < len(b)):
            raise ValueError(f"need 0 <= s < t < {len(b)}, got s={s}, t={t}")
        if (t - s) % 2 == 0:
            raise ValueError(f"start and end blocks must differ in parity, got s={s}, t={t}")
        if not (0 <= l < 2 * (b[s] + 1)):
            raise ValueError(f"start offset {l} out of range for block of size {2 * (b[s] + 1)}")
        if not (0 <= m < 2 * (b[t] + 1)):
            raise ValueError(f"end offset {m} out of range for block of size {2 * (b[t] + 1)}")
        if (l - m) % 2 == 0:
            raise ValueError(f"offsets must differ in parity, got l={l}, m={m}")

    @property
    def length(self) -> int:
        """Window length: total size of the spanned blocks minus both offsets."""
        start, end = window_of(self)
        return end - start

    def sort_key(self) -> Tuple:
        return (
            self.vector.entries,
            self.start_block,
            self.start_offset,
            self.end_block,
            self.end_offset,
        )

    def __str__(self) -> str:
        return (
            f"({self.vector}; {self.start_block},{self.start_offset};"
            f" {self.end_block},{self.end_offset})"
        )


def enumerate_odd_encodings(b: BlockVector, length: int) -> List[OddEncoding]:
    """All odd encodings of windows of the given length, in positional order.

    For fixed blocks s < t of different parity the end offset is determined
    by the start offset, so the scan is linear in the number of (s, t, l)
    triples.  The length must be odd and satisfy 3 <= length <= weight + 1
    (a longer window could not leave a nonempty quotient).
    """
    if length % 2 == 0:
        raise ValueError(f"window length must be odd, got {length}")
    if not (3 <= length <= weight_of(b) + 1):
        raise ValueError(
            f"window length must lie in [3, {weight_of(b) + 1}], got {length}"
        )
    found = []
    offs = _block_offsets(b)
    k = len(b)
    for s in range(k):
        for t in range(s + 1, k, 2):
            span = offs[t + 1] - offs[s]
            for l in range(offs[s + 1] - offs[s]):
                m = span - l - length
                if 0 <= m < offs[t + 1] - offs[t]:
                    found.append(OddEncoding(b, s, l, t, m))
    return found


def phi(e: OddEncoding) -> OddEncoding:
    """Reverse the block slice [s..t] and swap the two offsets."""
    b = e.vector.entries
    s, t = e.start_block, e.end_block
    reversed_slice = b[:s] + tuple(reversed(b[s : t + 1])) + b[t + 1 :]
    return OddEncoding(
        vector=BlockVector(reversed_slice),
        start_block=s,
        start_offset=e.end_offset,
        end_block=t,
        end_offset=e.start_offset,
    )


def window_of(e: OddEncoding) -> Tuple[int, int]:
    """Half-open symbol range [start, end) of the window in the expanded word."""
    offs = _block_offsets(e.vector)
    start = offs[e.start_block] + e.start_offset
    end = offs[e.end_block + 1] - e.end_offset
    return start, end


def subsequence_of(e: OddEncoding) -> Word:
    """The cut-out left factor: the window's symbols."""
    return cut(blockvector_to_word(e.vector), *window_of(e))[0]


def quotient_of(e: OddEncoding) -> Word:
    """The right factor: the word with the window's interior removed."""
    return cut(blockvector_to_word(e.vector), *window_of(e))[1]


def pair_up(
    encodings: List[OddEncoding],
) -> Tuple[List[Tuple[OddEncoding, OddEncoding]], List[str]]:
    """Greedy phi-pairing into (e, phi(e)) orbits, smaller `sort_key` first.

    Returns the orbits plus a description of any failures; the cancellation
    argument needs none.
    """
    pool = {e.sort_key(): e for e in encodings}
    if len(pool) != len(encodings):
        return [], ["duplicate encodings in input"]
    orbits = []
    failures = []
    seen = set()
    for key in sorted(pool):
        if key in seen:
            continue
        e = pool[key]
        f = phi(e)
        fkey = f.sort_key()
        if fkey == key:
            failures.append(f"fixed point of phi: {e}")
            seen.add(key)
            continue
        if fkey not in pool:
            failures.append(f"phi image missing from the collection: {e} -> {f}")
            seen.add(key)
            continue
        seen.add(key)
        seen.add(fkey)
        orbits.append((e, f) if key < fkey else (f, e))
    return orbits, failures
