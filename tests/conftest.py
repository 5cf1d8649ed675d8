"""Shared pytest plumbing and the reference definitions the tests compare against.

The acceptance tests record one pass line per criterion; the terminal
summary hook replays them after the run, outside output capture, so they
are visible in plain `pytest` output and in teed logs.

`pair_up` is the greedy phi-pairing the verifier's orbit route replaced,
and `bernoulli_numbers`, `zeta_even_rational` and `euler_zeta_even` give
zeta(2k) from its Bernoulli closed form, independently of both engines.

The engines return exact intervals (low, high, e); `mpf_interval` reads
one as two mpfs for comparison with mpmath's values, and
`decimal_interval` turns an mpf x into the readback's x +- 10^-digits.
"""

from fractions import Fraction
from math import comb, factorial
from typing import List, Tuple

from mpmath import mp, mpf
from mpmath.libmp import to_rational

from multizeta.encodings import OddEncoding, phi, window_of
from multizeta.numerics import DEFAULT_DIGITS

_CRITERION_LINES = []


def record_criterion(line: str) -> None:
    print(line)
    _CRITERION_LINES.append(line)


def weak_compositions(total, parts):
    """Every weak composition of `total` into `parts`, lexicographically, by recursion.

    The brute-force reference for the package's stars-and-bars enumerator.
    """
    if parts == 1:
        return [(total,)]
    return [(first,) + rest for first in range(total + 1)
            for rest in weak_compositions(total - first, parts - 1)]


def window_length(e: OddEncoding) -> int:
    """The length of the span `window_of(e)` gives."""
    start, end = window_of(e)
    return end - start


def pair_up(
    encodings: List[OddEncoding],
) -> Tuple[List[Tuple[OddEncoding, OddEncoding]], List[str]]:
    """Greedy phi-pairing into (e, phi(e)) orbits, smaller encoding first.

    Sources are taken in ascending order and each pairs only with a larger
    image that no earlier source took, so no encoding lies in two orbits.
    Returns the orbits plus a description of any failures; the cancellation
    argument needs none.
    """
    pool = set(encodings)
    if len(pool) != len(encodings):
        return [], ["duplicate encodings in input"]
    orbits = []
    failures = []
    paired = set()  # images already taken; a sorted scan never revisits a source
    for e in sorted(pool):
        if e in paired:
            continue
        f = phi(e)
        if f == e:
            failures.append(f"fixed point of phi: {e}")
        elif f not in pool:
            failures.append(f"phi image missing from the collection: {e} -> {f}")
        elif f < e or f in paired:
            failures.append(f"phi is not an involution: {e} -> {f}")
        else:
            paired.add(f)
            orbits.append((e, f))
    return orbits, failures


def bernoulli_numbers(limit: int) -> List[Fraction]:
    """B_0 .. B_limit as exact fractions, with B_1 = -1/2."""
    if limit < 0:
        raise ValueError("limit must be >= 0")
    numbers = [Fraction(0)] * (limit + 1)
    numbers[0] = Fraction(1)
    for m in range(1, limit + 1):
        acc = Fraction(0)
        for j in range(m):
            acc += comb(m + 1, j) * numbers[j]
        numbers[m] = -acc / (m + 1)
    return numbers


def zeta_even_rational(k: int) -> Fraction:
    """The exact rational zeta(2k) / pi^(2k)."""
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    b = bernoulli_numbers(2 * k)[2 * k]
    return Fraction((-1) ** (k + 1)) * b * Fraction(4**k, 2 * factorial(2 * k))


def mpf_interval(interval: Tuple[int, int, int], dps: int) -> Tuple[mpf, mpf]:
    """[low, high] / 2^e as two mpfs at `dps` digits, rounded outward, so they enclose it."""
    low, high, exponent = interval
    with mp.workdps(dps):
        return (mp.ldexp(mpf(low, rounding="d"), -exponent),
                mp.ldexp(mpf(high, rounding="u"), -exponent))


def decimal_interval(x: mpf, digits: int) -> Tuple[int, int, int]:
    """x +- 10^-digits as `reconstruct_rational`'s (low, high, scale), x read exactly."""
    num, den = to_rational(x._mpf_)
    ten = 10**digits
    return num * ten - den, num * ten + den, den * ten


def euler_zeta_even(k: int, digits: int = DEFAULT_DIGITS) -> mpf:
    """zeta(2k) evaluated from its closed form: an exact rational times pi^(2k).

    Its error is below 10^-digits, which is derived.  At p = round((digits
    + 11) log2 10) bits, pi, its 2k-th power, the numerator, the product and
    the quotient are each rounded once, to 2^(1-p) relatively, and the power
    takes pi's error 2k-fold.  As zeta(2k) < 2, the error is under 1.03
    (2k + 4) 2^(2-p) < 6 (2k + 4) 10^(-digits-11), which is at most
    10^-digits for k < 8 10^9, digits >= 1.
    """
    ratio = zeta_even_rational(k)
    with mp.workdps(digits + 10):
        return mp.pi ** (2 * k) * mpf(ratio.numerator) / ratio.denominator


def pytest_terminal_summary(terminalreporter):
    if _CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _CRITERION_LINES:
            terminalreporter.write_line(line)
