"""Tour of the notation: compositions, integration words, block vectors.

Run as: python3 demos/01_words_and_blocks.py
"""

from multizeta import (
    Composition,
    block_vector,
    blockvector_to_composition,
    blockvector_to_word,
    composition_to_word,
    format_vector,
    format_word,
    sign_of,
    weight_of,
)

# A multiple zeta value is indexed by a composition; it converges when the
# last part is at least 2.
c = Composition((1, 3))
print(f"composition {c}: weight {c.weight}, depth {c.depth}, "
      f"admissible: {c.is_admissible()}")

# Its integration word, a plain tuple of symbols, keeps both boundary
# symbols, so the length is weight + 2.  Admissibility is visible at the
# word level: the word starts with 01 and ends with 01.
word = composition_to_word(c)
print(f"word of {c}: {format_word(word)} (interior length {len(word) - 2})")

# Interleaving runs of 2s with the alternating 1,3 spine is recorded by a
# block vector: a plain tuple with an odd number of entries, 2n + 1.
b = block_vector((1, 1, 1))
print(f"\nblock vector {format_vector(b)}: n = {len(b) // 2}, weight {weight_of(b)}, "
      f"depth {blockvector_to_composition(b).depth}")
print(f"encoded composition: {blockvector_to_composition(b)}")

# The word of a block vector is a chain of two-symbol blocks, alternating
# 01 and 10; entry b_i contributes b_i + 1 copies of its block.
print(f"block word: {format_word(blockvector_to_word(b))}")
print(f"same word from the composition: "
      f"{format_word(composition_to_word(blockvector_to_composition(b)))}")

# The series and its word integral differ by the depth sign.
for vec in [(0, 0, 0), (1, 0, 0), (1, 1, 1)]:
    comp = blockvector_to_composition(vec)
    print(f"{format_vector(vec)} -> {comp}, sign {sign_of(comp):+d}")

# Non-admissible compositions have no integral representation and are
# rejected up front.
try:
    composition_to_word(Composition((3, 1)))
except ValueError as exc:
    print(f"\nrejected as expected: {exc}")
