"""Walk through one symbolic cancellation proof, then break it on purpose.

The claim being checked: for the instance built from a block vector, every
odd-degree derivation operator D_r kills the signed sum of the words.  The
verifier shows this two ways for each r:

  1. pairing: the surviving cut windows of each word are matched with odd
     encodings, and the parity-swap involution groups the encodings into
     orbits whose members agree outside the window, so their terms cancel;
  2. expansion: the multiset of all D_r terms, with reversal-canonical
     left factors, literally sums to zero.

Run as: python3 demos/02_cancellation_proof.py
"""

from multizeta import (
    InsertionInstance,
    blockvector_to_word,
    build_instance,
    dr_terms,
    enumerate_odd_encodings,
    expansion_residual,
    format_vector,
    format_word,
    pack,
    phi,
    quotient_of,
    subsequence_of,
    verify_instance,
)

# Build the instance for a = (1, 0, 0): all distinct arrangements of the
# entries, each taken with the same multiplicity.
inst = build_instance((1, 0, 0))
print(f"base {format_vector(inst.base)}: weight {inst.weight}, "
      f"{len(inst.words)} words, multiplicity {inst.multiplicity}, "
      f"sign {inst.sign:+d}")
for b in inst.words:
    print(f"  {format_vector(b)} -> {format_word(blockvector_to_word(b))}")

# Look at one word under D_3.  A degree-r cut reads a window of r + 2
# symbols (the r removed symbols plus the boundary symbol on each side)
# and dies when the two boundary symbols agree.  The surviving windows
# are exactly the windows of the odd encodings of length r + 2, which the
# enumeration returns with each encoding.
r = 3
b = inst.words[0]
word = blockvector_to_word(b)
terms = dr_terms(pack(word), r)  # the derivations run on packed words
found = enumerate_odd_encodings(b, r + 2)
print(f"\nD_{r} on {format_word(word)}: {len(terms)} surviving terms, "
      f"{len(found)} odd encodings of length {r + 2}")
for e, start, end in found:
    print(f"  {e} covers window {(start, end)}")

# The involution phi reverses the touched block range and swaps the two
# offsets.  Its orbit partner has the reversed subsequence and the same
# quotient word, which is why the paired terms cancel.
e = found[0][0]
partner = phi(e)
print(f"\nphi{e} = {partner}")
print(f"  subsequences: {format_word(subsequence_of(e))} / "
      f"{format_word(subsequence_of(partner))}")
print(f"  quotients:    {format_word(quotient_of(e))} == "
      f"{format_word(quotient_of(partner))}")

# phi can land on a rearranged block vector, i.e. on a different word of
# the family.  That is the whole point of symmetrizing: only the union of
# encodings over all words closes up into orbits.
all_encodings = [
    e for w in inst.words for e, _, _ in enumerate_odd_encodings(w, r + 2)
]
for e in all_encodings:
    if phi(e).vector != e.vector:
        print(f"phi{e} = {phi(e)}  <- lands on a different word")
        break
# The verifier pairs them all, each encoding with its phi partner.
cert = verify_instance(inst)
record = cert.checks[0]  # D_3
print(f"encodings across the family: {record.encodings}, "
      f"orbits: {record.orbits}, pairing failures: {len(record.failures)}")

# Full verification across every odd degree, with the machine-checkable
# certificate.
print(f"\nverdict for {format_vector(inst.base)}: {cert.verdict}")
for rec in cert.checks:
    print(f"  D_{rec.r}: {rec.windows} windows, "
          f"{rec.encodings} encodings, {rec.orbits} orbits, "
          f"residual {rec.residual}")

# Negative control: drop one word from the symmetrized family and the
# cancellation genuinely fails, so the residual is nonempty.
broken = InsertionInstance(inst.base, inst.words[:-1])
residual = expansion_residual([pack(blockvector_to_word(w)) for w in broken.words], 3)
bad = verify_instance(broken)
print(f"\nwithout {format_vector(inst.words[-1])}: residual size {len(residual)}, "
      f"verdict {bad.verdict}")
