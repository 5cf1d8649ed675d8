"""Cancellation certificates for symmetrized insertion sums.

An instance is built from a block vector a, which `build_instance` checks
once (`words.block_vector`): its word set C consists of the distinct
permutations of a's entries, plain tuples each standing for one zeta value
of the symmetrized sum, together with the multiplicity lambda = (2n+1)! / |C|
carried by every word.  Because lambda and the common depth sign factor out
of every degree-r derivation, the verifier works with unweighted, unsigned
term lists and records both constants in the certificate.

`verify_instance` is the one entry: it expands each word of C once and
checks every odd degree 3 <= r < weight against those expansions, along two
independent routes:

1. Orbit route: all odd encodings of length r + 2 over C are enumerated and
   paired under the offset-swapping involution phi.  The windows come run
   by run, one run per block pair (s, t) of a word, and phi reflects a
   whole run onto one vector (`encodings.reflected_runs`).  Each window
   is keyed by one integer, its place: the number of its word, by first
   occurrence, times a stride, plus its start.  The partners' places of a
   run follow from its vector and mirror, looked up once per run, and the
   notation lines are written straight from the run; an encoding is built
   only to write a failure line, and the encodings are never sorted.  The
   partner must exist, differ from the encoding and map back to it.  Each
   orbit is checked to consist of mutually reversed cut subwords (odd
   interior, so their integrals are opposite) sitting over equal quotient
   words, cut from the two actual words at their windows (`coaction.cut`),
   which makes the paired terms cancel.  The same windows are checked to
   match, word by word, the windows of the degree-r cut that survive the
   boundary filter.  Failure lines name encodings; each kind is reported
   in ascending encoding order.
2. Expansion route: `expansion_residual` of the words of C, in order and
   with repeats: the degree-r terms of every word, the cuts of its
   surviving windows, accumulated modulo left-factor reversal; no term may
   be left over.  It takes words alone, so it checks any multiset.

A certificate collects one record per degree, whose fields are the
`cert-v1` check keys, together with a verdict.  Serialization is
deterministic: fixed key order, no timestamps, and a digest of the sorted
encoding notations per check.  Each word's vector is formatted once, next
to its expansion, and every notation line of that word reuses it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from math import factorial
from operator import itemgetter
from typing import Dict, Iterable, Iterator, List, NamedTuple, Tuple

from .coaction import Term, accumulate, cut, dr_terms, surviving_windows
from .encodings import OddEncoding, encoding_at, phi, reflected_runs
from .words import (
    BlockVector,
    Word,
    block_vector,
    blockvector_to_composition,
    blockvector_to_word,
    format_vector,
    format_word,
    sign_of,
    weight_of,
)

__all__ = [
    "InsertionInstance",
    "CheckRecord",
    "CancellationCertificate",
    "build_instance",
    "expansion_residual",
    "verify_instance",
]

@dataclass(frozen=True)
class InsertionInstance:
    """A symmetrized insertion sum: word set, multiplicity, and global sign."""

    base: BlockVector
    words: Tuple[BlockVector, ...]
    multiplicity: int
    weight: int
    sign: int

    @property
    def n(self) -> int:
        return len(self.base) // 2


class CheckRecord(NamedTuple):
    """Outcome of one degree-r check; the fields are the `cert-v1` check keys, in order."""

    r: int
    windows: int
    encodings: int
    orbits: int
    residual: int
    encodings_sha256: str
    failures: Tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return self.residual == 0 and not self.failures


@dataclass(frozen=True)
class CancellationCertificate:
    instance: InsertionInstance
    checks: Tuple[CheckRecord, ...]

    @property
    def verdict(self) -> str:
        return "verified" if all(c.ok for c in self.checks) else "failed"

    def to_json_dict(self) -> dict:
        checks = []
        for c in self.checks:
            entry = c._asdict()
            if not c.failures:
                del entry["failures"]
            checks.append(entry)
        inst = self.instance
        return {
            "version": "cert-v1",
            "a": list(inst.base),
            "n": inst.n,
            "weight": inst.weight,
            "lambda": inst.multiplicity,
            "word_count": len(inst.words),
            "sign": inst.sign,
            "checks": checks,
            "verdict": self.verdict,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"


def _distinct_permutations(entries: Tuple[int, ...]) -> Iterator[Tuple[int, ...]]:
    """Each distinct ordering of the entries once, in lexicographic order.

    The next-permutation walk from the sorted entries visits only distinct
    orderings, so the cost follows the word count and not (2n+1)!.
    """
    p = sorted(entries)
    while True:
        yield tuple(p)
        i = len(p) - 2
        while i >= 0 and p[i] >= p[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(p) - 1
        while p[j] <= p[i]:
            j -= 1
        p[i], p[j] = p[j], p[i]
        p[i + 1 :] = reversed(p[i + 1 :])


def build_instance(a: Iterable[int]) -> InsertionInstance:
    """Check a block vector and expand it into its full permutation instance.

    The distinct permutations of the 2n+1 entries number the multinomial
    (2n+1)! / prod k_i!, k_i the multiplicity of each distinct entry, so
    lambda = (2n+1)! / |C| = prod k_i! exactly.  Every permutation has the
    base's length and entry sum, so its composition has the base's depth,
    and the instance carries the base's sign.
    """
    base = block_vector(a)
    words = tuple(_distinct_permutations(base))
    return InsertionInstance(
        base=base,
        words=words,
        multiplicity=factorial(len(base)) // len(words),
        weight=weight_of(base),
        sign=sign_of(blockvector_to_composition(base)),
    )


def expansion_residual(words: Iterable[Word], r: int) -> Dict[Term, int]:
    """Accumulated degree-r terms of a word collection; empty means they sum to zero."""
    return accumulate(t for w in words for t in dr_terms(w, r))


def _check_degree(expanded: List[Tuple[BlockVector, Word, str]], r: int) -> CheckRecord:
    """Run both proof routes for one odd degree over the expanded words."""
    length = r + 2
    failures: List[str] = []
    window_count = encoding_count = 0
    lines: List[str] = []
    # each distinct vector is numbered by its first occurrence, and the window
    # starting at x in the word of the vector numbered i has the place i * stride + x
    word_of = {w: word for w, word, _ in expanded}
    vectors, words = list(word_of), list(word_of.values())
    number = {w: i for i, w in enumerate(vectors)}
    stride = max(map(len, words), default=0)

    def encoding(place: int) -> OddEncoding:
        i, start = divmod(place, stride)
        return encoding_at(vectors[i], start, start + length)

    # each encoding's place -> its partner's place, negative when phi's vector is no word
    partner: Dict[int, int] = {}
    for w, word, text in expanded:
        window_count += len(word) - length + 1
        here = number[w] * stride
        encoded: List[int] = []
        for s, t, p, q, starts, vector, mirror in reflected_runs(w, length):
            j = number.get(vector)
            there = -1 if j is None else j * stride + mirror
            head, middle, tail = f"({text}; {s},", f"; {t},", q - length
            for x in starts:
                lines.append(f"{head}{x - p}{middle}{tail - x})")
                partner[here + x] = there - x
            encoded += starts
        encoding_count += len(encoded)
        surviving = surviving_windows(word, r)
        # equal lists are equal sets; only unequal lists are compared as sets
        if encoded != surviving and set(encoded) != set(surviving):
            failures.append(
                f"window sets disagree on {text} at r={r}: "
                f"encoded {sorted({(x, x + length) for x in encoded})} "
                f"vs surviving {[(x, x + length) for x in surviving]}"
            )

    orbits = 0
    if len(partner) != encoding_count:
        failures.append("duplicate encodings in input")
    else:
        # (encoding, line) pairs; each list is put in ascending encoding order
        unpaired: List[Tuple[OddEncoding, str]] = []
        unmatched: List[Tuple[OddEncoding, str]] = []
        for here, there in partner.items():
            back = partner.get(there)
            if back == here and there != here:
                if here < there:  # each orbit once, from its smaller place
                    orbits += 1
                    i, x = divmod(here, stride)
                    j, y = divmod(there, stride)
                    sub_e, quo_e = cut(words[i], x, x + length)
                    sub_f, quo_f = cut(words[j], y, y + length)
                    if sub_e != sub_f[::-1] or quo_e != quo_f:
                        e, f = sorted((encoding(here), encoding(there)))
                        if sub_e != sub_f[::-1]:
                            unmatched.append((e, f"orbit subwords are not mutual reversals: {e} / {f}"))
                        if quo_e != quo_f:
                            unmatched.append((e, f"orbit quotients differ: {e} / {f}"))
                continue
            e = encoding(here)
            if back is None:  # the missing place is phi(e)'s window
                line = f"phi image missing from the collection: {e} -> {phi(e)}"
            elif there == here:
                line = f"fixed point of phi: {e}"
            else:
                line = f"phi is not an involution: {e} -> {encoding(there)}"
            unpaired.append((e, line))
        for tagged in (unpaired, unmatched):
            failures += [line for _, line in sorted(tagged, key=itemgetter(0))]

    residual = expansion_residual((word for _, word, _ in expanded), r)
    for (left, right), coeff in sorted(residual.items()):
        left, right = format_word(left), format_word(right)
        failures.append(f"residual term left={left} right={right} coefficient={coeff}")

    digest = hashlib.sha256("\n".join(sorted(lines)).encode("ascii")).hexdigest()
    return CheckRecord(
        r=r,
        windows=window_count,
        encodings=encoding_count,
        orbits=orbits,
        residual=len(residual),
        encodings_sha256=digest,
        failures=tuple(failures),
    )


def verify_instance(instance: InsertionInstance) -> CancellationCertificate:
    """Check every odd degree 3 <= r < weight and assemble the certificate."""
    # each word expanded and formatted once; the triples keep instance order and repeats
    expanded = [(w, blockvector_to_word(w), format_vector(w)) for w in instance.words]
    checks = tuple(_check_degree(expanded, r) for r in range(3, instance.weight, 2))
    return CancellationCertificate(instance=instance, checks=checks)
