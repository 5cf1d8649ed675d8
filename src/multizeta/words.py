"""Compositions, binary words, and block vectors.

Conventions used throughout the package:

* A multiple zeta value is indexed by a composition (n_1, ..., n_r) and sums
  over 0 < k_1 < k_2 < ... < k_r, so convergence requires the *last* part to
  be at least 2.
* A word is a plain tuple of 0s and 1s, derived only from a validated
  composition or block vector.  The word of a composition is the full
  integration word, boundary symbols included: 0, then 1 0^(n_1 - 1) ...
  1 0^(n_r - 1), then 1.  Its length is weight + 2; it starts with 01, and
  ends with 01 exactly when the composition is admissible.
* A block vector (b_0, ..., b_{2n}) with an odd number of entries encodes the
  interleaved composition ({2}^b_0, 1, {2}^b_1, 3, ..., 3, {2}^b_{2n}); its
  word is a concatenation of alternating two-symbol blocks, (01)^(b_i + 1)
  for even i and (10)^(b_i + 1) for odd i.  It is a plain tuple of entries:
  `block_vector` checks one where it enters the package, and every vector
  derived from a checked one (a permutation, a rotation, a weak composition)
  keeps the rules by construction and is not checked again.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Tuple

__all__ = [
    "Word",
    "Composition",
    "BlockVector",
    "block_vector",
    "composition_to_word",
    "blockvector_to_composition",
    "blockvector_to_word",
    "format_word",
    "format_vector",
    "weight_of",
    "sign_of",
]

Word = Tuple[int, ...]
BlockVector = Tuple[int, ...]


class Composition(NamedTuple("Composition", [("parts", Tuple[int, ...])])):
    """A finite sequence of positive integer parts indexing a zeta value."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so that `_replace` checks too

    def __new__(cls, parts: Iterable[int]) -> Composition:
        parts = tuple(parts)
        for p in parts:
            if not isinstance(p, int) or isinstance(p, bool) or p < 1:
                raise ValueError(f"composition parts must be positive integers, got {p!r}")
        return super().__new__(cls, parts)

    @property
    def weight(self) -> int:
        return sum(self.parts)

    @property
    def depth(self) -> int:
        return len(self.parts)

    def is_admissible(self) -> bool:
        """True when the associated series converges (last part >= 2).

        The empty composition is admissible by convention; it evaluates to 1.
        """
        if not self.parts:
            return True
        return self.parts[-1] >= 2

    def __str__(self) -> str:
        return "(" + ",".join(str(p) for p in self.parts) + ")"


def composition_to_word(c: Composition) -> Word:
    """Full integration word of an admissible composition.

    Raises ValueError when the composition is non-admissible, since the
    integral representation only exists for convergent values.
    """
    if not c.is_admissible():
        raise ValueError(f"composition {c} is not admissible (last part must be >= 2)")
    symbols = [0]
    for p in c.parts:
        symbols.append(1)
        symbols.extend([0] * (p - 1))
    symbols.append(1)
    return tuple(symbols)


def block_vector(a: Iterable[int]) -> BlockVector:
    """Check a block vector from outside the package and return it as a tuple."""
    b = tuple(a)
    if len(b) % 2 == 0:
        raise ValueError(f"a block vector has an odd number of entries, got {len(b)}")
    for count in b:
        if not isinstance(count, int) or isinstance(count, bool) or count < 0:
            raise ValueError(f"block vector entries must be >= 0, got {count!r}")
    return b


def blockvector_to_composition(b: BlockVector) -> Composition:
    """Interleave runs of 2s with the alternating 1, 3, 1, 3, ..., 3 spine."""
    parts = []
    separators = [1, 3] * (len(b) // 2)
    for i, count in enumerate(b):
        parts.extend([2] * count)
        if i < len(separators):
            parts.append(separators[i])
    return Composition(tuple(parts))


def blockvector_to_word(b: BlockVector) -> Word:
    """Concatenate the alternating blocks (01)^(b_i+1), (10)^(b_i+1)."""
    symbols = []
    for i, count in enumerate(b):
        block = (0, 1) if i % 2 == 0 else (1, 0)
        symbols.extend(block * (count + 1))
    return tuple(symbols)


def format_word(w: Word) -> str:
    """The symbols of a word as a string, e.g. "011001"."""
    return "".join(map(str, w))


def format_vector(b: BlockVector) -> str:
    """The entries of a block vector as a string, e.g. "[1,0,0]"."""
    return "[" + ",".join(map(str, b)) + "]"


def weight_of(b: BlockVector) -> int:
    """Weight of the encoded zeta value: 4n + 2 * sum(b_i), with 2n + 1 entries."""
    return 4 * (len(b) // 2) + 2 * sum(b)


def sign_of(c: Composition) -> int:
    """Depth sign (-1)^depth relating the series to its word integral."""
    return -1 if c.depth % 2 else 1
