"""Numerics: evaluate zeta values, recover exact rationals, check families.

Run as: python3 demos/04_numeric_rationality.py
"""

from fractions import Fraction

from mpmath import mp, mpf, pi

from multizeta import (
    Composition,
    check_bowman_bradley,
    check_symmetric_sum,
    eval_mzv_fast,
    eval_mzv_series,
    reconstruct_rational,
)


def lower_end(interval):
    """The lower end of an engine's exact interval [low, high] / 2^e, as an mpf."""
    low, _, exponent = interval
    return mp.ldexp(mpf(low), -exponent)


def width(interval):
    """The width of an engine's exact interval, as an mpf."""
    low, high, exponent = interval
    return mp.ldexp(mpf(high - low), -exponent)


def decimal_interval(text, digits):
    """The decimal string x, rounded to `digits` places, +- one unit there:
    the (low, high, scale) that `reconstruct_rational` reads."""
    centre = round(Fraction(text) * 10**digits)
    return centre - 1, centre + 1, 10**digits


# Two independent engines, both integer sweeps in fixed point, each giving
# an exact enclosure: the value lies in [low, high] / 2^e.  The series
# engine sums the defining nested sums up to a cutoff; its width is the
# derived tail plus the derived rounding of the sweep.  The fast engine
# splits the word integral at 1/2 and converges geometrically, so it is the
# default everywhere else.
c = Composition((1, 3))
slow = eval_mzv_series(c, terms=20000)
fast = eval_mzv_fast(c, digits=60)
mp.dps = 80
print(f"zeta(1,3) series: {mp.nstr(lower_end(slow), 20)}  "
      f"(error bound {mp.nstr(width(slow), 3)})")
print(f"zeta(1,3) fast:   {mp.nstr(lower_end(fast), 20)}  "
      f"(error bound {mp.nstr(width(fast), 3)})")

# zeta(1,3) is pi^4/360.  Divide out the pi power and reconstruct the
# rational from its decimal expansion alone, trusted to 55 places.
ratio = mp.nstr(lower_end(fast) / pi ** 4, 60)
frac = reconstruct_rational(*decimal_interval(ratio, 55))
print(f"zeta(1,3) / pi^4 = {frac}")
assert frac == Fraction(1, 360)

# Even single zetas are rational multiples of pi powers too, Euler's
# zeta(2k) = |B_2k| (2 pi)^(2k) / (2 (2k)!); the same readback finds it.
zeta8 = eval_mzv_fast(Composition((8,)), digits=60)
ratio = mp.nstr(lower_end(zeta8) / pi ** 8, 60)
frac = reconstruct_rational(*decimal_interval(ratio, 55))
print(f"zeta(8) = {frac} * pi^8")
assert frac == Fraction(1, 9450)
print(f"          {mp.nstr(lower_end(eval_mzv_fast(Composition((8,)), digits=30)), 25)}")

# Reconstruction refuses numbers that are not small rationals: no
# convergent of pi is accurate to 25 digits before its denominator blows
# past the bound.
result = reconstruct_rational(*decimal_interval(mp.nstr(pi, 40), 30),
                              max_denominator=10**6)
print(f"reconstruct(pi) -> {result}")

# Family checks tie the two halves together: the symbolic certificate
# proves the sum is a rational multiple of pi^weight, and the numeric side
# pins down which rational.
report = check_symmetric_sum([1, 0, 0], digits=60)
print(f"\nsymmetric family a=[1,0,0]: status {report['status']}, "
      f"value {report['reconstructed']['num']}/{report['reconstructed']['den']} "
      f"* pi^{report['pi_power']}")

report = check_bowman_bradley(1, 2, digits=60)
print(f"double-shuffle family n=1, m=2: status {report['status']}, "
      f"value {report['reconstructed']['num']}/{report['reconstructed']['den']} "
      f"* pi^{report['pi_power']}")

# The CLI equivalents:
#   multizeta eval --zeta 1,3 --digits 60
#   multizeta check --family symmetric --a 1,0,0
#   multizeta check --family bowman-bradley --n 1 --m 2
#   multizeta check --family cyclic --sweep --weight-cap 8 --format csv
