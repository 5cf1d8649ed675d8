"""Numerics: evaluate zeta values, recover exact rationals, check families.

Run as: python3 demos/04_numeric_rationality.py
"""

from fractions import Fraction

from mpmath import mp, pi

from multizeta import (
    Composition,
    check_bowman_bradley,
    check_symmetric_sum,
    eval_mzv_fast,
    eval_mzv_series,
    reconstruct_rational,
)

# Two independent engines, both integer sweeps in fixed point.  The series
# engine sums the defining nested sums up to a cutoff; its error bound is
# the derived tail plus the derived rounding of the sweep.  The fast engine
# splits the word integral at 1/2 and converges geometrically, so it is the
# default everywhere else.
c = Composition((1, 3))
slow = eval_mzv_series(c, terms=20000)
fast = eval_mzv_fast(c, digits=60)
print(f"zeta(1,3) series: {mp.nstr(slow.value, 20)}  "
      f"(error bound {mp.nstr(slow.error_bound, 3)})")
print(f"zeta(1,3) fast:   {mp.nstr(fast.value, 20)}  "
      f"(error bound {mp.nstr(fast.error_bound, 3)})")

# zeta(1,3) is pi^4/360.  Divide out the pi power and reconstruct the
# rational from its decimal expansion alone.
with mp.workdps(70):
    ratio = fast.value / pi ** 4
frac = reconstruct_rational(ratio, digits_trusted=fast.guaranteed_digits - 10)
print(f"zeta(1,3) / pi^4 = {frac}")
assert frac == Fraction(1, 360)

# Even single zetas are rational multiples of pi powers too, Euler's
# zeta(2k) = |B_2k| (2 pi)^(2k) / (2 (2k)!); the same readback finds it.
zeta8 = eval_mzv_fast(Composition((8,)), digits=60)
with mp.workdps(70):
    ratio = zeta8.value / pi ** 8
frac = reconstruct_rational(ratio, digits_trusted=zeta8.guaranteed_digits - 10)
print(f"zeta(8) = {frac} * pi^8")
assert frac == Fraction(1, 9450)
print(f"          {mp.nstr(eval_mzv_fast(Composition((8,)), digits=30).value, 25)}")

# Reconstruction refuses numbers that are not small rationals: no
# convergent of pi is accurate to 25 digits before its denominator blows
# past the bound.
with mp.workdps(40):
    pi_value = +pi
result = reconstruct_rational(pi_value, digits_trusted=30,
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
