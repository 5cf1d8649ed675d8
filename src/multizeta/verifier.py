"""Cancellation certificates for symmetrized insertion sums.

An instance is a base block vector a and its words C, arrangements of
a's entries each standing for one zeta value.  a alone fixes the weight, the
common depth sign and the multiplicity lambda = prod k_i! of every word (k_i
counts each distinct entry).  An instance checks a (`words.block_vector`)
and its words; `build_instance` takes C to be all a's distinct
arrangements, so lambda = (2n+1)! / |C|.  As lambda and the sign factor
out of every degree-r derivation, the verifier works with unweighted,
unsigned term lists and records both constants in the certificate.

`verify_instance` is the one entry.  It packs (`coaction.pack`) and
formats each distinct word of C once, with its block-pair table
(`encodings.block_pairs`), and checks one odd degree 3 <= r < weight at a
time, so that only one degree's lines and partner map are live, along two
independent routes:

1. Orbit route: the odd encodings of length r + 2 over C are paired under
   the offset-swapping involution phi.  Each table row gives the starts of
   its windows by arithmetic, a range, and phi reflects them onto one word,
   looked up once per instance.  A window is keyed by its place, its
   word's number (by first occurrence) times a stride plus its start; the
   notation lines are written straight from the rows, and an encoding is
   built only to write a failure line.  The partner must exist, differ
   from the encoding and map back to it, and the two must cut mutually
   reversed subwords (odd interior, so opposite integrals) over equal
   quotients (`coaction.cut`), so that the paired terms cancel.  A word's
   window starts, as bits, must equal its surviving starts
   (`coaction.surviving_windows`).  Failure lines name encodings; each
   kind comes in ascending encoding order.
2. Expansion route: `expansion_residual` of the packed words of C, in
   order and with repeats, must leave no term.  It takes words alone, so
   it checks any multiset; its keys are unpacked only for residual lines.

A certificate collects one record per degree, whose fields are the
`cert-v1` check keys, together with a verdict.  Serialization is
deterministic: fixed key order, no timestamps, and a digest of the sorted
encoding notations per check.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from itertools import chain
from math import factorial, prod
from operator import itemgetter
from typing import Dict, Iterable, Iterator, List, NamedTuple, Sequence, Tuple

from .coaction import Term, accumulate, cut, dr_terms, pack, reverse, surviving_windows, unpack
from .encodings import OddEncoding, block_pairs, encoding_at, phi
from .words import BlockVector, block_vector, blockvector_to_composition, blockvector_to_word
from .words import format_vector, format_word, sign_of, weight_of

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
    """An insertion sum: a base block vector and the arrangements of it summed."""

    base: BlockVector
    words: Tuple[BlockVector, ...]

    def __post_init__(self) -> None:
        block_vector(self.base)
        if not self.words:
            raise ValueError(f"an instance of {format_vector(self.base)} needs at least one word")
        entries = sorted(self.base)
        for w in self.words:
            if sorted(w) != entries:
                raise ValueError(f"word {format_vector(w)} is not an arrangement of {format_vector(self.base)}")

    @property
    def n(self) -> int:
        return len(self.base) // 2

    @property
    def weight(self) -> int:
        return weight_of(self.base)

    @property
    def multiplicity(self) -> int:
        return prod(factorial(self.base.count(e)) for e in set(self.base))

    @property
    def sign(self) -> int:
        return sign_of(blockvector_to_composition(self.base))


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
        """`verified` only with one ok record for every odd 3 <= r < weight, in order."""
        every = tuple(c.r for c in self.checks) == tuple(range(3, self.instance.weight, 2))
        return "verified" if every and all(c.ok for c in self.checks) else "failed"

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
    (2n+1)! / prod k_i!, so the instance's lambda = prod k_i! equals
    (2n+1)! / |C|.  Every permutation has the base's length and entry sum,
    so its composition has the base's weight and depth, and the instance's
    sign is every word's.
    """
    base = block_vector(a)
    return InsertionInstance(base, tuple(_distinct_permutations(base)))


def expansion_residual(words: Iterable[int], r: int) -> Dict[Term, int]:
    """Accumulated degree-r terms of packed words; empty means they sum to zero."""
    return accumulate(chain.from_iterable(dr_terms(w, r) for w in words))


def _expand(vectors: Sequence[BlockVector]) -> tuple:
    """(numbers, vectors, texts, words, listed, tables, stride) for `_check_degree`.

    An instance's vectors share one word length, the stride, and are numbered
    by first occurrence; numbers and the packed words listed keep the
    instance's order and repeats.  Per `block_pairs` row, a table row, widest
    first, is (q - p, p, q, p + a, q - c + 1, there, "(b; s,", "; t,"),
    there = j * stride + p + q for image's number j, or -1.
    """
    distinct = list(dict.fromkeys(vectors))
    number = {w: i for i, w in enumerate(distinct)}
    words = [pack(blockvector_to_word(w)) for w in distinct]
    stride = words[0].bit_length() - 1
    middles = [f"; {t}," for t in range(stride)]
    texts = [format_vector(w) for w in distinct]
    tables = []
    for w, text in zip(distinct, texts):
        heads = [f"({text}; {s}," for s in range(len(w))]
        rows = [
            (q - p, p, q, p + a, q - c + 1, -1 if j is None else j * stride + p + q, heads[s], middles[t])
            for s, t, p, q, a, c, image in block_pairs(w)
            for j in (number.get(image),)
        ]
        rows.sort(reverse=True)
        tables.append(rows)
    numbers = [number[w] for w in vectors]
    return numbers, distinct, texts, words, [words[i] for i in numbers], tables, stride


def _check_degree(expansion: tuple, r: int) -> CheckRecord:
    """Run both proof routes for one odd degree over the expanded words."""
    numbers, vectors, texts, words, listed, tables, stride = expansion
    length = r + 2
    failures: List[str] = []
    window_count = len(numbers) * (stride + 1 - length)
    encoding_count = 0
    lines: List[str] = []
    offsets = [str(x) for x in range(stride)]  # formatted once for every notation line

    def encoding(place: int) -> OddEncoding:
        i, start = divmod(place, stride)
        return encoding_at(vectors[i], start, start + length)

    # each window is keyed by its place, i * stride + x for the window starting at x
    # in the word numbered i; place -> its partner's place, negative when phi's vector is no word
    partner: Dict[int, int] = {}
    for i in numbers:
        here = i * stride
        encoded = 0  # the windows' starts as bits
        for span, p, q, first_end, last_start, there, head, middle in tables[i]:
            if span < length:
                break  # every later row spans less
            lo = last_start - length
            if lo < p:
                lo = p
            hi = q - length + 1
            if hi > first_end:
                hi = first_end
            if lo >= hi:
                continue
            encoded |= (1 << hi) - (1 << lo)
            encoding_count += hi - lo
            there -= length  # phi's window of the one at x starts at there - x
            tail = q - length
            for x in range(lo, hi):
                lines.append(f"{head}{offsets[x - p]}{middle}{offsets[tail - x]})")
                partner[here + x] = there - x
        surviving = surviving_windows(words[i], r)
        if encoded != surviving:
            encoded, surviving = ([(x, x + length) for x in range(stride) if m >> x & 1] for m in (encoded, surviving))
            failures.append(f"window sets disagree on {texts[i]} at r={r}: encoded {encoded} vs surviving {surviving}")

    orbits = 0
    if len(partner) != encoding_count:
        failures.append("duplicate encodings in input")
    else:
        unpaired, unmatched = [], []  # (encoding, line) pairs, each put in ascending encoding order
        reversed_of: Dict[int, int] = {}
        for here, there in partner.items():
            back = partner.get(there)
            if back == here and there != here:
                if here < there:  # each orbit once, from its smaller place
                    orbits += 1
                    i, x = divmod(here, stride)
                    j, y = divmod(there, stride)
                    sub_e, quo_e = cut(words[i], x, x + length)
                    sub_f, quo_f = cut(words[j], y, y + length)
                    rev = reversed_of.get(sub_f)
                    if rev is None:
                        rev = reversed_of[sub_f] = reverse(sub_f)
                    if sub_e != rev or quo_e != quo_f:
                        e, f = sorted((encoding(here), encoding(there)))
                        if sub_e != rev:
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

    residual = expansion_residual(listed, r)
    for left, right, coeff in sorted((unpack(u), unpack(v), c) for (u, v), c in residual.items()):
        failures.append(f"residual term left={format_word(left)} right={format_word(right)} coefficient={coeff}")

    digest = hashlib.sha256("\n".join(sorted(lines)).encode("ascii")).hexdigest()
    return CheckRecord(r, window_count, encoding_count, orbits, len(residual), digest, tuple(failures))


def verify_instance(instance: InsertionInstance) -> CancellationCertificate:
    """Check every odd degree 3 <= r < weight and assemble the certificate."""
    expansion = _expand(instance.words)
    checks = tuple(_check_degree(expansion, r) for r in range(3, instance.weight, 2))
    return CancellationCertificate(instance=instance, checks=checks)
