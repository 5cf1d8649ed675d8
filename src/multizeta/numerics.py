"""High-precision evaluation of multiple zeta values and rational readback.

Two independent evaluation engines are provided.  Both work in Python
integers alone and enclose a value in [low, high] / 2^e, which they
return as the exact triple (low, high, e); the readback reads such an
interval, so the package needs no floating-point library.

* `eval_mzv_series` sums the defining nested series directly up to a cutoff
  N, in fixed point: one running sum per depth level, each a Python
  integer scaled by a power of two, the first a sum of powers, and equal
  parts sharing one stream of them.  Its error bound is derived: the
  truncation tail, from the elementary estimate f_j(k) <= k^(-n_j)
  H_{k-1}^(j-1) / (j-1)! on the inner partial sums (H is the harmonic
  number, bounded by 1 + log), an exact fraction whose logarithms are
  bounded from above, plus the floors of the sweep, which enough guard
  bits keep below the working precision.  The tail shrinks only like a
  power of N, so it gives a few digits; it is the independent oracle,
  sharing no code with the other engine.
* `eval_mzv_fast` evaluates the word integral by splitting every
  integration path at 1/2 and convolving prefix values of the word with
  prefix values of its reversed-complemented dual.  The prefix values come
  from a power-series sweep in fixed point that keeps each series as its
  terms at 1/2, Python integers scaled by a power of two, so a value is
  their sum; the convolution is one exact integer sum, and sixty digits
  cost a millisecond or two.  Its error bound is derived: the tail after
  degree M, which the geometric factor 2^(-M) makes small, plus at most
  one unit per floor division, carried through the sweep and summed over
  a value's M terms, which bitlength(M) more bits pay for.  A family check
  sums a row of words, all of one weight, in exact integers (`_split_sum`):
  the sum lies in an interval over one power of two, k times one word's
  tail and rounding wide.  Rows of one weight share M and the bit width, so
  a sweep evaluates them from one depth-first walk over their sorted words
  and duals (`_prefix_walk`), which sweeps every distinct prefix of the
  group once: `check_group` runs one weight's rows in order, the first
  check runs the walk, and each takes its row's share by position.
  `eval_mzv_fast` is the one-word case.

Rational readback is exact and has one rule (`reconstruct_rational`): the
fraction nearest a certified interval's midpoint with denominator up to
the Q its width derives, or a lower cap, if it lies in the interval.  A
check reads the row's interval over pi^weight, rounded outward, if it
lies above 0.  None is the normal outcome for a value that is not a
small-denominator rational.  The family checks combine the engines with
the symbolic verifier; `FAMILIES` holds all that tells one family from
another.

Every width of the fast engine and the readback comes from `_widths`,
derived from one word's tail; the oracle sizes its bits from its own tail.
pi at P bits rounded either way is an integer port of mpmath's (`_pi_below`,
Machin's formula), and a printed value is the exact half-up rounding of an
interval's end or midpoint to the requested digits (`format_decimal`).
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from itertools import accumulate, chain, combinations, repeat, tee
from math import comb, factorial, isqrt
from operator import floordiv, lshift, mul, rshift
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .verifier import build_instance, verify_instance
from .words import (
    BlockVector,
    Composition,
    Word,
    block_vector,
    blockvector_to_composition,
    blockvector_to_word,
    composition_to_word,
    weight_of,
)

__all__ = [
    "DEFAULT_DIGITS",
    "DEFAULT_WEIGHT_CAP",
    "MAX_EVAL_DIGITS",
    "MAX_EVAL_WEIGHT",
    "eval_mzv_series",
    "eval_mzv_fast",
    "reconstruct_rational",
    "format_decimal",
    "zero_places",
    "check_symmetric_sum",
    "check_bowman_bradley",
    "check_bbbl_family",
    "check_cyclic_insertion",
    "check_group",
    "Family",
    "FAMILIES",
]

DEFAULT_DIGITS = 60
DEFAULT_WEIGHT_CAP = 14
MAX_EVAL_DIGITS = 200
# `eval` refuses heavier compositions: at weight 100 the deepest, 98 ones and a 2,
# takes about 1.4 s, and the oracle's cost grows about 4x per doubling of depth
MAX_EVAL_WEIGHT = 100


def zero_places(x: Fraction) -> int:
    """max(0, floor(-log10 x)) for x > 0: how many decimal places of x are 0."""
    return len(str(x.denominator // x.numerator)) - 1


# the fractional bits of every logarithm bound in `_series_tail_bound`
_LOG_BITS = 128


def _atanh_above(a: int, b: int, bits: int) -> int:
    """An integer at least 2^bits atanh(a/b), for 0 <= a/b <= 1/3.

    Sums z^(2j+1) / (2j+1), z = a/b, with every power and quotient rounded
    up, while the power exceeds one unit; the rest of the series is at most
    z^(2k+1) / ((2k+1) (1 - z^2)), which is added rounded up too.
    """
    a2, b2 = a * a, b * b
    power = -(-(a << bits) // b)
    total, j = 0, 0
    while power > 1:
        total += -(-power // (2 * j + 1))
        power = -(-power * a2 // b2)
        j += 1
    return total + -(-power * b2 // ((2 * j + 1) * (b2 - a2)))


def _log_above(x: int) -> int:
    """An integer at least 2^_LOG_BITS ln x, for an integer x >= 1.

    With 2^k <= x < 2^(k+1), ln x = 2 k atanh(1/3) + 2 atanh((x - 2^k) / (x + 2^k)),
    both arguments at most 1/3.
    """
    k = x.bit_length() - 1
    ln2 = _atanh_above(1, 3, _LOG_BITS)
    return 2 * (k * ln2 + _atanh_above(x - (1 << k), x + (1 << k), _LOG_BITS))


def _series_tail_bound(parts: Tuple[int, ...], terms: int) -> Fraction:
    """Upper bound on the discarded tail of the nested series after `terms` terms.

    With p = depth - 1 and s the final exponent, the inner sums satisfy
    f_p(k) <= (1 + log k)^p / p!, so the tail is at most the remaining sum of
    k^(-s) (1 + log k)^p / p!, which integration by parts bounds by

        ((1 + log(N+1))^p (N+1)^(-s)
         + N^(1-s) sum_i p!/(p-i)! (1 + log N)^(p-i) / (s-1)^(i+1)) / p!.

    Every term grows with the logarithms, which `_log_above` bounds from
    above; the rest is exact, so the bound is too.
    """
    p, s, n = len(parts) - 1, parts[-1], terms
    one = 1 << _LOG_BITS
    inner, outer = one + _log_above(n), one + _log_above(n + 1)
    # the sum over i, as an integer over one^p (s-1)^(p+1)
    series = sum(
        factorial(p) // factorial(p - i) * inner ** (p - i) * one**i * (s - 1) ** (p - i)
        for i in range(p + 1)
    )
    head = Fraction(outer**p, one**p * (n + 1) ** s)
    rest = Fraction(series, one**p * (s - 1) ** (p + 1) * n ** (s - 1))
    return (head + rest) / factorial(p)


def _series_rounding_units(depth: int, terms: int) -> int:
    """How many units of 2^(-S) `_truncated_series` may fall short by.

    Runs the recurrence u_j = N (1 + ceil(h^(j-1) / (j-1)!) + u_(j-1)),
    u_0 = 0, with N = `terms` and h = bitlength(N); `eval_mzv_series`
    derives it.
    """
    h = terms.bit_length()
    units = 0
    for j in range(depth):
        units = terms * (1 + -(-(h**j) // factorial(j)) + units)
    return units


def _truncated_series(parts: Tuple[int, ...], terms: int, bits: int) -> int:
    """The nested sum over 0 < k_1 < ... < k_r <= terms, as an integer over 2^bits.

    Level j is the running sum over k of level j-1 at k - 1 times
    floor(2^bits k^(-n_j)), shifted down by `bits`.  Level 0 is 2^bits, so
    that product and shift give the power back exactly, and level 1 is the
    running sum of the powers.  The levels are lazy iterators chained into
    one another, and equal parts draw on one stream of powers through
    `tee`, which buffers only the few powers between its readers, so only
    O(depth) integers are live.
    """
    one = 1 << bits
    ks = range(1, terms + 1)
    streams = {
        e: iter(tee(map(floordiv, repeat(one), map(pow, ks, repeat(e))), parts.count(e)))
        for e in set(parts)
    }
    level = accumulate(next(streams[parts[0]]))
    for e in parts[1:]:
        # level j-1 at k - 1 feeds level j at k: the strict k_(j-1) < k_j
        products = map(mul, chain((0,), level), next(streams[e]))
        level = accumulate(map(rshift, products, repeat(bits)))
    return deque(level, maxlen=1)[0]


def eval_mzv_series(c: Composition, terms: int) -> Tuple[int, int, int]:
    """Direct nested summation: (low, high, S) with zeta(c) in [low, high] / 2^S.

    Sums over 0 < k_1 < ... < k_r <= N, N = `terms`, in fixed point: every
    level is a Python integer scaled by 2^S.  Accuracy is limited by the
    tail T, roughly N^(1 - last part) up to logarithms.  S = bitlength(d_r)
    + bitlength(floor(1/T)) + 34, the oracle's own, so the width exceeds T
    by less than (d_r + 1) 2^(-S) < 2^-34 T, as 1/T < 2^bitlength(floor(1/T)).

    low is the computed sum, and high adds two parts:

    * Rounding.  Each power floor(2^S k^(-e)) is low by less than one unit
      of 2^(-S), and each update floor(l_(j-1) power / 2^S) loses less
      than one more.  Every floor lowers the result, so the error d_j of
      level j, in units of 2^(-S), is never negative, and step k adds to it
      at most d_(j-1) k^(-e) + L_(j-1) + 1 <= d_(j-1) + L_(j-1) + 1.
      Summed over N steps, d_j <= N (1 + L_(j-1)(N) + d_(j-1)), with
      d_0 = 0 and L_0 = 1.  `_series_rounding_units` runs this with
      L_(j-1)(N) <= h^(j-1) / (j-1)!, h = bitlength(N) >= 1 + ln N
      (true for N >= 8).
    * Truncation.  `_series_tail_bound`: every inner sum L_j(k) of the
      first j parts is at most H_k^j / j! <= (1 + ln k)^j / j!, H the
      harmonic number, and the tail beyond N is bounded by integration;
      it is rounded up to a unit of 2^(-S).

    The empty composition is exactly 1, (1, 1, 0).
    """
    if terms < 10:
        raise ValueError(f"need terms >= 10, got {terms}")
    if not c.is_admissible():
        raise ValueError(f"composition {c} diverges (last part must be >= 2)")
    if c.depth == 0:
        return 1, 1, 0

    parts = c.parts
    tail = _series_tail_bound(parts, terms)
    units = _series_rounding_units(len(parts), terms)
    bits = units.bit_length() + (tail.denominator // tail.numerator).bit_length() + 34
    low = _truncated_series(parts, terms, bits)
    tail_units = -(-(tail.numerator << bits) // tail.denominator)
    return low, low + units + tail_units, bits


def _prefix_walk(sequences: Iterable[Word], m_max: int, bits: int) -> Dict[Word, List[int]]:
    """Values at 1/2 of the iterated integrals of every prefix of every sequence.

    The current integrand is carried as its power series up to degree
    `m_max`, in fixed point, scaled to its terms at 1/2: coefficient c_m is
    kept as t_m, an integer just below c_m 2^(bits - m), so the value at
    1/2 of the truncated series is sum(t) over 2^bits.  Symbol 0 divides
    c_m by m, so t_m becomes t_m // m; symbol 1 makes c_(m+1) the mean of
    c_0 .. c_m, so t_(m+1) becomes ((t_0 + 2 t_1 + ... + 2^m t_m) >> (m+1))
    // (m+1), the shift and the division flooring as one.  Both make the
    constant term 0.  Each symbol's floor lowers a term by less than one
    unit of 2^(-bits), after dividing the earlier errors, each below k
    units: symbol 0 divides one of them by m, and symbol 1 their sum
    weighted by 2^i, below k 2^(m+1), by (m+1) 2^(m+1).  So after k symbols
    every term is low by less than k units, the constant term not at all,
    and the value, the exact sum of the terms, by less than k `m_max`
    units.  A sequence maps to the values of its prefixes of length 0, 1,
    ..., len.

    The distinct sequences, all of one length, are sorted and walked depth
    first, so every distinct prefix is extended by one symbol exactly once.
    A run of sorted sequences sharing the current prefix splits where the
    next symbol turns from 0 to 1: the 1-side is set aside with the current
    series, and only those series are kept, one per branch depth on the
    current path.
    """
    order = sorted(set(sequences))
    degrees = range(1, m_max + 1)
    found: Dict[Word, List[int]] = {}
    pending = [(0, len(order), [1 << bits] + [0] * m_max, [1 << bits])]
    while pending:
        lo, hi, terms, values = pending.pop()
        word = order[lo]
        for depth in range(len(values) - 1, len(word)):
            if word[depth] != order[hi - 1][depth]:
                mid = bisect_left(order, word[:depth] + (1,), lo, hi)
                pending.append((mid, hi, terms, values.copy()))
                hi = mid
            if word[depth] == 1:
                weighted = accumulate(map(lshift, terms[:m_max], range(m_max)))
                terms = [0, *map(floordiv, map(rshift, weighted, degrees), degrees)]
            else:
                terms = [0, *map(floordiv, terms[1:], degrees)]
            values.append(sum(terms))
        found[word] = values
    return found


def _widths(n: int, digits: int) -> Tuple[int, int, int]:
    """(M, B, P) for words of weight w = n + 2, n interior symbols, at `digits` digits.

    All follow from one word's tail, 2 (n+1) 2^(-M) (`_split_sum`).  M is
    the least 2 (n+1) + 8i whose tail is at most 10^-(digits+8), which backs
    `eval_mzv_fast`'s stated width.  B = M + bitlength(n) + 10 keeps the
    rounding part n (n+1) 2^(-B) below 2^-11 of the tail.  Over pi^w <
    2^(2w), a row of k words times lambda is wider than lambda k 2 (n+1)
    2^(12-P) with `_check`'s P = M + 2w + 12, and `_over_pi_power` widens it
    by at most 2 + 4w q units of 2^(-P), q < 2 lambda k / pi^w the quotient
    (zeta values are below 2): less than 2^-11 of that width.
    """
    m_max = 2 * (n + 1)
    scaled_tail = 2 * (n + 1) * 10 ** (digits + 8)
    while scaled_tail > 1 << m_max:
        m_max += 8
    return m_max, m_max + n.bit_length() + 10, m_max + 2 * n + 16


def _split_sum(rows: Sequence[Sequence[Word]], digits: int) -> List[Tuple[int, int, int]]:
    """Each row's sum of the zeta values of its full words, via the 1/2 split.

    The word integral over the simplex splits at 1/2 into the convolution
    zeta = sum_j P_j Q_(n-j) over the n + 1 cuts of the interior word (the
    word without its boundary symbols, n = weight - 2), where P_j is the value
    at 1/2 of the iterated integral of its first j symbols and Q_j the same
    for its reverse-complement dual.  Its callers pass words of one weight,
    so all share M and the bit width B (`_widths`), and one `_prefix_walk`
    computes both runs of every word in fixed point, sweeping each distinct
    prefix of all the rows' words and duals once.  A prefix's value depends
    on nothing but the prefix, M and B, so a row's integers are the same
    whichever rows share its walk.  The walk runs at B' = B + g bits,
    g = bitlength(M), so 2^g > M.  Each row's convolutions are added
    exactly in integers, and the row comes back as (low, high, e) with
    e = 2 B': its sum S lies in [low, high] / 2^e, whose width is derived
    from two parts per word:

    * Truncation.  Every power series in the sweep has coefficients in
      [0, 1]: it starts as the constant 1, symbol 0 divides c_m by m and
      symbol 1 makes c_(m+1) the mean of c_0 .. c_m.  The constant term is
      0 after the first symbol, so every P_j and Q_j lies in [0, 1], and
      dropping the degrees above M costs each at most 2^(-M) and one
      convolution at most 2 (n+1) 2^(-M).
    * Rounding.  The walk keeps each series as its terms at 1/2, each
      below c_m 2^(B' - m) by less than k units of 2^(-B') after k symbols
      (`_prefix_walk` derives this), so P_j is low by less than j M units
      of 2^(-B'), below j 2^(-B) as M < 2^g, and Q_(n-j) by less than
      (n-j) 2^(-B); with all factors in [0, 1] one convolution is low by
      less than n (n+1) 2^(-B).

    Both parts only lower a convolution, and the integer sum adds no error,
    so low is the sum and a row of k words falls short by less than k times
    (tail + rounding).  The empty interior word, n = 0, has the one exact
    convolution 1 * 1; its rounding term is 0 and its tail is kept.
    """
    interiors = [[word[1:-1] for word in words] for words in rows]
    duals = [[tuple(1 - s for s in reversed(word)) for word in row] for row in interiors]
    n = len(interiors[0][0])
    m_max, bits, _ = _widths(n, digits)
    scale = bits + m_max.bit_length()
    prefix = _prefix_walk(chain.from_iterable(interiors + duals), m_max, scale)
    exponent = 2 * scale
    per_word = (2 * (n + 1) << (exponent - m_max)) + (n * (n + 1) << (exponent - bits))
    totals = (
        sum(sum(map(mul, prefix[w], reversed(prefix[d]))) for w, d in zip(row, row_duals))
        for row, row_duals in zip(interiors, duals)
    )
    return [(total, total + len(row) * per_word, exponent) for row, total in zip(rows, totals)]


def eval_mzv_fast(c: Composition, digits: int = DEFAULT_DIGITS) -> Tuple[int, int, int]:
    """(low, high, e) with zeta(c) in [low, high] / 2^e: the one-word row of `_split_sum`.

    The width is below 10^-(digits+7) times 2^e.  Any precision is
    accepted; `eval` refuses requests above `MAX_EVAL_DIGITS`.  The empty
    composition comes out with low exactly 2^e and a positive width.
    """
    if digits < 1:
        raise ValueError(f"need digits >= 1, got {digits}")
    if not c.is_admissible():
        raise ValueError(f"composition {c} diverges (last part must be >= 2)")
    [interval] = _split_sum([[composition_to_word(c)]], digits)
    return interval


def reconstruct_rational(
    low: int, high: int, scale: int, max_denominator: Optional[int] = None
) -> Optional[Fraction]:
    """The only fraction with denominator up to Q in [low, high] / scale, if any.

    The one readback rule.  Q = floor((width 10^10)^(-1/2)), lowered by
    `max_denominator`.  Fractions with denominators up to Q lie at least
    1/Q^2 = 10^10 widths apart, so at most one is in the interval, within
    half a width of the midpoint and 10^10 widths from the others: it is
    the nearest, which `limit_denominator` returns, and the least
    denominator there.  If none is, the nearest is outside and is refused:
    None means no small rational explains the value, as expected of an
    irrational.  An empty or one-point interval, a scale below 1 and a cap
    below 1 raise.
    """
    if high <= low:
        raise ValueError(f"need low < high, got low={low}, high={high}")
    if scale < 1:
        raise ValueError(f"need scale >= 1, got {scale}")
    if max_denominator is not None and max_denominator < 1:
        raise ValueError(f"need max_denominator >= 1, got {max_denominator}")
    limit = isqrt(scale // ((high - low) * 10**10))
    limit = limit if max_denominator is None else min(limit, max_denominator)
    nearest = Fraction(low + high, 2 * scale).limit_denominator(max(limit, 1))
    return nearest if nearest.denominator <= limit and low <= nearest * scale <= high else None


# ---------------------------------------------------------------------------
# family checks


def _fraction_obj(q: Optional[Fraction]) -> Optional[dict]:
    if q is None:
        return None
    return {"num": q.numerator, "den": q.denominator}


@dataclass
class _WeightGroup:
    family: str
    parsed: List[Tuple[dict, int]]
    digits: int
    at: int = 0
    evaluated: Optional[List[tuple]] = None


_open_group: Optional[_WeightGroup] = None


def _arctan_inverse(x: int, bits: int) -> Tuple[int, int]:
    """(t, e): 2^bits atan(1/x) lies within e of t, for an integer x >= 2.

    t sums the terms of atan(1/x) = sum_j (-1)^j / ((2j+1) x^(2j+1)) as
    floor(2^bits / ((2j+1) x^(2j+1))), exactly, since floor divisions by
    integers nest; each is low by less than 1.  The sum stops at the first
    j = k whose floor(2^bits / x^(2k+1)) is 0: the alternating rest is
    smaller than its first term, below 1/(2k+1).  So e = k + 1.
    """
    power, square = (1 << bits) // x, x * x
    total = k = 0
    while power:
        term = power // (2 * k + 1)
        total += -term if k & 1 else term
        power //= square
        k += 1
    return total, k + 1


@cache
def _pi_below(bits: int) -> int:
    """floor(pi 2^(bits - 2)): pi rounded down to `bits` significant bits; + 1 rounds up.

    Machin's formula pi = 16 atan(1/5) - 4 atan(1/239) at g guard bits gives
    2^(bits - 2 + g) pi within e = 16 e_5 + 4 e_239 of t.  Where t - e and
    t + e agree above the guard bits, that is the floor.  The atan(1/5) sum
    takes at most p/4 + 1 terms at p bits and the other fewer, so e stays
    below 5 (bits + g) + 40, which is below 5 bits + 200 while g <= 32.  g
    starts at bitlength(5 bits + 200) + 10, so t +- e straddles a multiple
    of 2^g, and g doubles, at odds below 2^-9.  Each width is computed
    once, as mpmath caches its pi.
    """
    guard = (5 * bits + 200).bit_length() + 10
    while True:
        five, e_five = _arctan_inverse(5, bits - 2 + guard)
        big, e_big = _arctan_inverse(239, bits - 2 + guard)
        t, e = 16 * five - 4 * big, 16 * e_five + 4 * e_big
        if (t - e) >> guard == (t + e) >> guard:
            return (t - e) >> guard
        guard *= 2


def _over_pi_power(value: int, exponent: int, weight: int, bits: int, up: bool) -> int:
    """value / 2^exponent / pi^weight as an integer over 2^bits, rounded up if `up`, else down.

    pi is P / 2^(bits - 2) at `bits` significant bits, rounded down for
    the upper end and up for the lower one.
    """
    pi = _pi_below(bits) + (not up)
    shift = bits - exponent + weight * (bits - 2)
    numerator, denominator = value << max(shift, 0), pi**weight << max(-shift, 0)
    return -(-numerator // denominator) if up else numerator // denominator


def format_decimal(numerator: int, exponent: int, digits: int) -> str:
    """numerator / 2^exponent rounded half up to `digits` >= 1 significant digits, exactly.

    With 10^p <= |x| < 10^(p+1), the digits are floor(|x| 10^(digits-1-p)
    + 1/2), and a carry to 10^digits raises p by one.  They print in fixed
    point when p lies strictly between min(-(digits // 3), -5) and
    `digits`, else as d.ddd e+p or d.ddd e-p, trailing zeros stripped and
    the sign kept.  0 prints as 0.0.
    """
    if numerator == 0:
        return "0.0"
    sign, top = ("-", -numerator) if numerator < 0 else ("", numerator)
    top, bottom = top << max(-exponent, 0), 1 << max(exponent, 0)
    # 10^(p-1) < |x| < 10^(p+1) for this p, so the decimal exponent is p or p - 1
    power = len(str(top)) - len(str(bottom))
    power -= top * 10 ** max(-power, 0) < bottom * 10 ** max(power, 0)
    shift = digits - 1 - power
    scaled, unit = (top * 10**shift, bottom) if shift >= 0 else (top, bottom * 10**-shift)
    lead = (2 * scaled + unit) // (2 * unit)
    if lead == 10**digits:
        lead, power = lead // 10, power + 1
    text, split = str(lead), 1
    if min(-(digits // 3), -5) < power < digits:
        # zeros lead a value below 1 ("0" * -power is empty above); the point follows the units
        text, split, power = "0" * -power + text, max(power, 0) + 1, 0
    text = (text[:split] + "." + text[split:]).rstrip("0")
    if text.endswith("."):
        text += "0"
    return sign + text + (f"e{power:+d}" if power else "")


def _check(
    family: str, args: tuple, digits: int, max_denominator: Optional[int], weight_cap: int
) -> dict:
    """The body of every family check; `FAMILIES[family]` supplies the rest.

    The cap is enforced before any word is expanded, since the number of
    summed words can be factorial in the vector length.  `_split_sum`
    encloses the row's zeta sum S at digits + 10, with the other rows of
    a `check_group` if this is its running row's call (same digits, same
    argument objects), which takes that row's parse and share by position;
    lambda S / pi^weight is then enclosed in [low, high] / 2^P (`_widths`),
    and `value` shows its midpoint.  Every family sum is a positive combination
    of zeta values, so `reconstruct_rational` reads a fraction off the interval only
    when low > 0: an interval that reaches 0 has not resolved the value.
    """
    if digits < 1:
        raise ValueError(f"need digits >= 1, got {digits}")
    spec = FAMILIES[family]
    group = _open_group
    if not (group and (group.family, group.digits) == (family, digits)
            and all(a is group.parsed[group.at][0][p] for a, p in zip(args, spec.params))):
        group = _WeightGroup(family, [spec.parse(*args)], digits)
    params, weight = group.parsed[group.at]
    if weight > weight_cap:
        raise ValueError(f"weight {weight} exceeds the cap {weight_cap}")
    if group.evaluated is None:
        summed = [spec.summands(**row) for row, _ in group.parsed]
        words = [[blockvector_to_word(w) for w in row_words] for _, row_words, _ in summed]
        group.evaluated = list(zip(summed, _split_sum(words, digits + 10)))
    (multiplicity, _, details), (low, high, exponent) = group.evaluated[group.at]
    _, _, bits = _widths(weight - 2, digits + 10)
    low = _over_pi_power(multiplicity * low, exponent, weight, bits, up=False)
    high = _over_pi_power(multiplicity * high, exponent, weight, bits, up=True)
    target = spec.target(weight, **params)
    reconstructed = (
        reconstruct_rational(low, high, 1 << bits, max_denominator) if low > 0 else None
    )
    if reconstructed is None:
        status = "no-reconstruction"
    elif spec.conjectural_target and reconstructed == target:
        status = "conjectural-match"
    elif spec.proven_rational:
        status = "verified-rational"
    else:
        # unproven, and missing the only available prediction: unconfirmed
        status = "no-reconstruction"
    return {
        "version": "report-v1",
        "family": family,
        "params": params,
        "weight": weight,
        "digits": digits,
        "value": format_decimal(low + high, bits + 1, digits),
        "pi_power": weight,
        "reconstructed": _fraction_obj(reconstructed),
        "target": _fraction_obj(target),
        "matches_target": (reconstructed == target) if reconstructed is not None else None,
        "proven_rational": spec.proven_rational,
        "status": status,
        "details": details,
    }


def check_symmetric_sum(
    a: Iterable[int],
    digits: int = DEFAULT_DIGITS,
    max_denominator: Optional[int] = None,
    weight_cap: int = DEFAULT_WEIGHT_CAP,
) -> dict:
    """Certify and numerically confirm the full symmetrized insertion sum.

    Runs the symbolic verifier first, then evaluates
    lambda * sum over distinct permutations of a, divides by pi^weight, and
    reconstructs the rational.  The recorded target is the prediction
    (2n)! / (weight+1)! obtained by summing the cyclic conjecture over all
    cosets; rationality itself does not depend on it.
    """
    return _check("symmetric", (a,), digits, max_denominator, weight_cap)


def check_bowman_bradley(
    n: int,
    m: int,
    digits: int = DEFAULT_DIGITS,
    max_denominator: Optional[int] = None,
    weight_cap: int = DEFAULT_WEIGHT_CAP,
) -> dict:
    """Sum over all distributions of m twos around the 1,3 spine of length 2n+1.

    The closed form binom(m+2n, m) / ((2n+1) (weight+1)!) is a proved
    evaluation, so a matching reconstruction is a verified rational.
    """
    return _check("bowman-bradley", (n, m), digits, max_denominator, weight_cap)


def check_bbbl_family(
    n: int,
    m: int,
    digits: int = DEFAULT_DIGITS,
    max_denominator: Optional[int] = None,
    weight_cap: int = DEFAULT_WEIGHT_CAP,
) -> dict:
    """The single zeta value with a constant insertion vector (m, m, ..., m).

    Rationality of the pi-power ratio is proved; the specific value
    1 / ((2n+1) (weight+1)!) is a conjectured evaluation, so a match is
    reported as conjectural.
    """
    return _check("bbbl", (n, m), digits, max_denominator, weight_cap)


def check_cyclic_insertion(
    a: Iterable[int],
    digits: int = DEFAULT_DIGITS,
    max_denominator: Optional[int] = None,
    weight_cap: int = DEFAULT_WEIGHT_CAP,
) -> dict:
    """Sum over all cyclic rotations of a, kept with multiplicity.

    The prediction pi^weight / (weight+1)! is conjectural; no theorem backs
    rationality here, so only an exact match is reported as meaningful.
    """
    return _check("cyclic", (a,), digits, max_denominator, weight_cap)


def check_group(
    family: str,
    rows: Sequence[dict],
    digits: int = DEFAULT_DIGITS,
    max_denominator: Optional[int] = None,
    weight_cap: int = DEFAULT_WEIGHT_CAP,
) -> List[dict]:
    """The reports of `rows`, in order, from one prefix walk.

    `rows` are parameter objects of `family`, as its `sweep` lists them or
    with `a` as a tuple.  All are parsed first, so a wrong key (TypeError)
    or two weights (ValueError) raise before any row is expanded, and the
    first row's cap check covers all.  Each parsed row runs through the
    family's `check_*`, looked up by name at call time so that a rebinding
    reaches every row.  The first runs every row's `summands` and one
    `_split_sum` of all their words, and each takes its row's parse and
    share by position, bit-identical to checking that row alone.
    Nothing outlives the call, however it ends.
    """
    global _open_group
    spec = FAMILIES[family]
    check = globals()[spec.check]
    parsed = [spec.parse(**row) for row in rows]
    weights = sorted({weight for _, weight in parsed})
    if len(weights) > 1:
        raise ValueError(f"a weight group needs rows of one weight, got {weights}")
    _open_group = group = _WeightGroup(family, parsed, digits)
    try:
        return [check(*(params[p] for p in spec.params), digits, max_denominator, weight_cap)
                for group.at, (params, _) in enumerate(parsed)]
    finally:
        _open_group = None


# ---------------------------------------------------------------------------
# the family table


@dataclass(frozen=True)
class Family:
    """Everything that tells one symmetrized family from another.

    `params` names the parameters in report order.  `parse` validates raw
    arguments and returns the report's `params` object and the weight that
    every summed word has, found without expanding any, so the cap is
    checked before `summands` expands anything.  The other callables take
    the parsed parameters as keywords.  `summands` returns the multiplicity
    every word carries, the summed words and the report's `details`;
    `target(weight, ...)` is the closed-form prediction, and
    `sweep(weight_cap)` lists the parameters of every instance under the
    cap in row order.  `check` names the family's public entry point in
    this module; `check_group` looks it up at call time, so a rebinding of
    that attribute reaches every row, each taking its share by position.
    """

    check: str
    params: Tuple[str, ...]
    parse: Callable[..., Tuple[dict, int]]
    summands: Callable[..., Tuple[int, Sequence[BlockVector], dict]]
    target: Callable[..., Fraction]
    proven_rational: bool
    conjectural_target: bool
    sweep: Callable[[int], List[dict]]


def _weak_compositions(total: int, parts: int):
    """Every tuple of `parts` entries >= 0 summing to `total`, in lexicographic order.

    Stars and bars: the entries count the stars between parts - 1 bars, whose
    places `combinations` yields in that same order, which the sweep corpus
    and the Bowman-Bradley summands rely on."""
    places = total + parts - 1
    for bars in combinations(range(places), parts - 1):
        yield tuple(b - a - 1 for a, b in zip((-1,) + bars, bars + (places,)))


def _greatest_arrangements(total: int, slots: int) -> List[Tuple[int, ...]]:
    """The greatest arrangement of every multiset of entries, greatest first."""
    return sorted(
        (c for c in _weak_compositions(total, slots) if c == tuple(sorted(c, reverse=True))),
        reverse=True,
    )


def _least_rotations(total: int, slots: int):
    """The least rotation of every rotation class of weak compositions."""
    for comp in _weak_compositions(total, slots):
        if comp == min(comp[i:] + comp[:i] for i in range(slots)):
            yield comp


def _vector_sweep(vectors, weight_cap: int) -> List[dict]:
    """`{"a": v}` for each v that `vectors(total, 2n + 1)` yields, shortest
    vectors first, then by entry sum; a vector's weight is 4n + 2 total."""
    return [
        {"a": list(v)}
        for n in range(1, weight_cap // 4 + 1)
        for total in range((weight_cap - 4 * n) // 2 + 1)
        for v in vectors(total, 2 * n + 1)
    ]


def _spine_sweep(word, weight_cap: int) -> List[dict]:
    """Every (n, m) whose weight is within the cap, lightest first, then by n,
    the order the sweep corpus pins.  The spine alone weighs 4n and each of
    the m twos adds at least 2, which bounds the candidates."""
    rows = sorted(
        (weight, n, m)
        for n in range(1, weight_cap // 4 + 1)
        for m in range(weight_cap // 2 + 1)
        if (weight := weight_of(word(n, m))) <= weight_cap
    )
    return [{"n": n, "m": m} for _, n, m in rows]


def _parse_vector(a: Iterable[int]) -> Tuple[dict, int]:
    vector = block_vector(a)
    return {"a": list(vector)}, weight_of(vector)


def _parse_spine(word, n: int, m: int) -> Tuple[dict, int]:
    if isinstance(n, bool) or isinstance(m, bool) or n < 1 or m < 0:
        raise ValueError(f"need n >= 1 and m >= 0, got n={n}, m={m}")
    return {"n": n, "m": m}, weight_of(word(n, m))


def _spread_word(n: int, m: int) -> BlockVector:
    """All m insertions in the first of the 2n + 1 blocks."""
    return (m,) + (0,) * (2 * n)


def _constant_word(n: int, m: int) -> BlockVector:
    return (m,) * (2 * n + 1)


def _symmetric_summands(a: List[int]):
    instance = build_instance(a)
    certificate = verify_instance(instance)
    details = {
        "lambda": instance.multiplicity,
        "word_count": len(instance.words),
        "certificate": certificate.verdict,
    }
    return instance.multiplicity, instance.words, details


def _cyclic_summands(a: List[int]):
    rotations = [tuple(a[i:] + a[:i]) for i in range(len(a))]
    return 1, rotations, {"rotations": len(rotations)}


def _bowman_bradley_summands(n: int, m: int):
    words = list(_weak_compositions(m, 2 * n + 1))
    return 1, words, {"word_count": len(words)}


def _constant_summands(n: int, m: int):
    vector = _constant_word(n, m)
    return 1, [vector], {"composition": str(blockvector_to_composition(vector))}


FAMILIES: Dict[str, Family] = {
    "symmetric": Family(
        check=check_symmetric_sum.__name__,
        params=("a",),
        parse=_parse_vector,
        summands=_symmetric_summands,
        target=lambda weight, a: Fraction(factorial(len(a) - 1), factorial(weight + 1)),
        proven_rational=True,
        conjectural_target=False,
        # order inside the vector is irrelevant to the symmetrized sum
        sweep=partial(_vector_sweep, _greatest_arrangements),
    ),
    "cyclic": Family(
        check=check_cyclic_insertion.__name__,
        params=("a",),
        parse=_parse_vector,
        summands=_cyclic_summands,
        target=lambda weight, a: Fraction(1, factorial(weight + 1)),
        proven_rational=False,
        conjectural_target=True,
        # rotations give equal sums, keep one representative each
        sweep=partial(_vector_sweep, _least_rotations),
    ),
    "bowman-bradley": Family(
        check=check_bowman_bradley.__name__,
        params=("n", "m"),
        parse=partial(_parse_spine, _spread_word),
        summands=_bowman_bradley_summands,
        target=lambda weight, n, m: Fraction(
            comb(m + 2 * n, m), (2 * n + 1) * factorial(weight + 1)
        ),
        proven_rational=True,
        conjectural_target=False,
        sweep=partial(_spine_sweep, _spread_word),
    ),
    "bbbl": Family(
        check=check_bbbl_family.__name__,
        params=("n", "m"),
        parse=partial(_parse_spine, _constant_word),
        summands=_constant_summands,
        target=lambda weight, n, m: Fraction(1, (2 * n + 1) * factorial(weight + 1)),
        proven_rational=True,
        conjectural_target=True,
        sweep=partial(_spine_sweep, _constant_word),
    ),
}
