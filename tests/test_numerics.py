import math
import random
import tracemalloc
from collections import deque
from fractions import Fraction
from functools import partial
from itertools import accumulate, chain, repeat
from operator import floordiv, mul, rshift

import pytest
from mpmath import mp, mpf
from mpmath.libmp import dps_to_prec, mpf_pi, round_ceiling, round_floor, to_rational

from multizeta import numerics
from multizeta.numerics import (
    DEFAULT_DIGITS,
    DEFAULT_WEIGHT_CAP,
    FAMILIES,
    _prefix_walk,
    _series_rounding_units,
    _series_tail_bound,
    _split_sum,
    _truncated_series,
    _widths,
    check_bbbl_family,
    check_bowman_bradley,
    check_cyclic_insertion,
    check_group,
    check_symmetric_sum,
    eval_mzv_fast,
    eval_mzv_series,
    reconstruct_rational,
)
from multizeta.verifier import build_instance
from multizeta.words import (
    Composition,
    block_vector,
    blockvector_to_composition,
    blockvector_to_word,
    composition_to_word,
    weight_of,
)

from conftest import (
    bernoulli_numbers,
    decimal_interval,
    euler_zeta_even,
    mpf_interval,
    weak_compositions,
    zeta_even_rational,
)
from test_golden import recorded_calls


def admissible_compositions(max_weight):
    """All admissible compositions of weight 2..max_weight, each once."""
    found = []

    def extend(prefix, remaining):
        if prefix and prefix[-1] >= 2:
            found.append(Composition(tuple(prefix)))
        for part in range(1, remaining + 1):
            extend(prefix + [part], remaining - part)

    extend([], max_weight)
    return found


def test_fast_engine_against_classical_values():
    with mp.workdps(80):
        pi = mp.pi
        cases = [
            ((2,), pi**2 / 6),
            ((1, 3), pi**4 / 360),
            ((2, 2), pi**4 / 120),
            ((1, 2), mp.zeta(3)),  # zeta(2,1) = zeta(3), an independent closed form
            ((4,), mp.zeta(4)),
        ]
        for parts, exact in cases:
            low, high = mpf_interval(eval_mzv_fast(Composition(parts), 60), 80)
            assert low <= exact <= high, parts
            assert high - low < mpf(10) ** -60, parts


def dual(c):
    """The composition of the reversed and complemented word of c."""
    symbols = [1 - s for s in reversed(composition_to_word(c)[1:-1])]
    parts = []
    for s in symbols:
        if s == 1:
            parts.append(1)
        else:
            parts[-1] += 1
    return Composition(tuple(parts))


def test_dual_of_known_pairs():
    assert dual(Composition((1, 1, 2))) == Composition((4,))
    assert dual(Composition((1, 3))) == Composition((1, 3))
    assert dual(Composition((2, 3))) == Composition((1, 2, 2))


DUALITY_PAIRS = sorted(
    {(c, dual(c)) for c in admissible_compositions(10) if c.parts < dual(c).parts},
    key=lambda pair: (pair[0].weight, pair[0].parts),
)


@pytest.mark.parametrize("digits", [60, 200])
@pytest.mark.parametrize("c, d", DUALITY_PAIRS, ids=lambda c: str(c))
def test_fast_engine_duality_pair(c, d, digits):
    # the 1/2 split sweeps a word and its dual from opposite ends
    a_low, a_high = mpf_interval(eval_mzv_fast(c, digits), digits + 20)
    b_low, b_high = mpf_interval(eval_mzv_fast(d, digits), digits + 20)
    assert a_low <= b_high and b_low <= a_high


def euler_zeta_one(n):
    """Euler's zeta(1, n) = n/2 zeta(n+1) - 1/2 sum_(j=1)^(n-2) zeta(n-j) zeta(j+1)."""
    return n * mp.zeta(n + 1) / 2 - mp.fsum(
        mp.zeta(n - j) * mp.zeta(j + 1) for j in range(1, n - 1)
    ) / 2


@pytest.mark.parametrize("digits", [60, 200])
def test_fast_error_bound_holds_against_closed_forms(digits):
    cases = [(Composition((2 * k,)), euler_zeta_even(k, digits + 30)) for k in range(2, 9)]
    with mp.workdps(digits + 40):
        cases += [(Composition((1, n)), euler_zeta_one(n)) for n in range(2, 16)]
    for comp, exact in cases:
        low, high, exponent = interval = eval_mzv_fast(comp, digits)
        assert (high - low) * 10**digits <= 2**exponent, comp
        enclosure = mpf_interval(interval, digits + 40)
        assert enclosure[0] <= exact <= enclosure[1], comp


def mpf_half_split(c, digits):
    """The 1/2 split as mpf loops at digits + 15, with the same truncation degree."""
    word = composition_to_word(c)[1:-1]
    n = len(word)

    def prefix_values(symbols, m_max):
        coeffs = [mpf(1)] + [mpf(0)] * m_max
        values = [mpf(1)]
        for sym in symbols:
            nxt = [mpf(0)] * (m_max + 1)
            running = mpf(0)
            for m in range(1, m_max + 1):
                running += coeffs[m - 1]
                nxt[m] = (running if sym == 1 else coeffs[m]) / m
            coeffs = nxt
            values.append(mp.polyval(coeffs[::-1], mpf(1) / 2))
        return values

    with mp.workdps(digits + 15):
        m_max, _, _ = _widths(n, digits)
        prefix = prefix_values(word, m_max)
        suffix = prefix_values(tuple(1 - s for s in reversed(word)), m_max)
        return mp.fsum(prefix[j] * suffix[n - j] for j in range(n + 1))


@pytest.mark.parametrize("digits", [60, 200])
def test_fixed_point_engine_matches_mpf_reference(digits):
    rng = random.Random(11)
    comps = rng.sample(sorted(set(admissible_compositions(9)), key=lambda c: c.parts), 12)
    for comp in comps:
        low, _ = mpf_interval(eval_mzv_fast(comp, digits), digits + 20)
        reference = mpf_half_split(comp, digits)
        # equal truncation, so only the rounding of the two sweeps differs
        with mp.workdps(digits + 20):
            assert abs(low - reference) <= mpf(10) ** -(digits + 12), comp


def dual_word(word):
    return tuple(1 - s for s in reversed(word))


def walk_convolutions(words, m_max, bits):
    """The 1/2-split integer of every interior word, from one shared prefix walk."""
    duals = [dual_word(w) for w in words]
    prefix = _prefix_walk(chain(words, duals), m_max, bits)
    return [sum(map(mul, prefix[w], reversed(prefix[d]))) for w, d in zip(words, duals)]


def split_precision(words, digits):
    """M and B of a row of full `words` at `digits` digits, from `_widths`, and the walk's scale.

    The scale is read off `_split_sum`: half its exponent.
    """
    m_max, bits, _ = _widths(len(words[0]) - 2, digits)
    [(_, _, exponent)] = _split_sum([words[:1]], digits)
    assert exponent % 2 == 0
    return m_max, bits, exponent // 2


@pytest.mark.parametrize("digits", [20, 200])
@pytest.mark.parametrize("parts", [(2,), (1, 3), (2, 1, 3), (2, 2, 1, 2, 3, 2), (1, 1, 1, 5, 2)])
def test_fixed_point_rounding_within_stated_bound(parts, digits):
    full = composition_to_word(Composition(parts))
    word, n = full[1:-1], len(full) - 2
    m_max, bits, scale = split_precision([full], digits)
    # m_max units of 2^-scale are less than the one unit of 2^-B per symbol
    # that the row's width counts
    assert m_max << bits < 1 << scale
    more = scale + 64
    coarse = _prefix_walk([word], m_max, scale)[word]
    fine = _prefix_walk([word], m_max, more)[word]
    # after j symbols every term is low by less than j units, so the value
    # at 1/2 is low by less than j m_max units of 2^-scale
    for j, (p, q) in enumerate(zip(coarse, fine)):
        gap = Fraction(q, 2**more) - Fraction(p, 2**scale)
        assert -Fraction(j * m_max, 2**more) <= gap <= Fraction(j * m_max, 2**scale), j
    low = Fraction(walk_convolutions([word], m_max, scale)[0], 2 ** (2 * scale))
    high = Fraction(walk_convolutions([word], m_max, more)[0], 2 ** (2 * more))
    assert abs(high - low) <= Fraction(n * (n + 1), 2**bits)
    assert high != low


def reference_prefix_values(symbols, m_max, bits):
    """One sequence's prefixes swept from scratch in scaled terms: the walk's reference."""
    terms = [1 << bits] + [0] * m_max
    values = [1 << bits]
    for sym in symbols:
        if sym == 1:
            weighted, nxt = 0, [0]
            for m in range(m_max):
                weighted += terms[m] << m
                nxt.append((weighted >> (m + 1)) // (m + 1))
        else:
            nxt = [0] + [terms[m] // m for m in range(1, m_max + 1)]
        terms = nxt
        values.append(sum(terms))
    return values


def reference_half_split(word, m_max, bits, sweep=reference_prefix_values):
    """Each interior word and its dual swept from scratch by `sweep`, then convolved."""
    prefix = sweep(word, m_max, bits)
    suffix = sweep(dual_word(word), m_max, bits)
    return sum(p * q for p, q in zip(prefix, reversed(suffix)))


def coefficient_prefix_values(symbols, m_max, bits):
    """The coefficient sweep the scaled walk replaced, kept as a cross-check.

    Coefficient c_m is an integer just below c_m 2^bits, and each value at
    1/2 is their shift-and-add, over 2^(bits + m_max), low by less than j
    units of 2^-bits after j symbols.
    """
    degrees = range(1, m_max + 1)
    coeffs = [1 << bits] + [0] * m_max
    values = [1 << (bits + m_max)]
    for sym in symbols:
        if sym == 1:
            coeffs = [0, *map(floordiv, accumulate(coeffs[:m_max]), degrees)]
        else:
            coeffs = [0, *map(floordiv, coeffs[1:], degrees)]
        acc = 0
        for coefficient in coeffs:
            acc = (acc << 1) + coefficient
        values.append(acc)
    return values


def coefficient_split_sum(words, digits):
    """A row's (low, high, e) from the coefficient sweep, with the same width."""
    n = len(words[0]) - 2
    m_max, bits, _ = split_precision(words, digits)
    exponent = 2 * (bits + m_max)
    low = sum(reference_half_split(w[1:-1], m_max, bits, coefficient_prefix_values) for w in words)
    per_word = (2 * (n + 1) << (exponent - m_max)) + (n * (n + 1) << (exponent - bits))
    return low, low + len(words) * per_word, exponent


def eval_workload_compositions(seed):
    """The benchmark's `eval` compositions: two per weight 4..16."""
    rng = random.Random(seed)
    comps = []
    for w in range(4, 17):
        comps.append((w,) if w % 2 == 0 else (1, w - 1))
        depth = 2 + w % 3
        while True:
            cuts = sorted(rng.sample(range(1, w - 1), depth - 1))
            parts = tuple(b - a for a, b in zip([0] + cuts, cuts + [w]))
            if parts not in comps:
                comps.append(parts)
                break
    return [Composition(c) for c in comps]


def family_rows():
    """(id, full words) for every row of the four sweeps at the default cap."""
    rows = []
    for name, spec in FAMILIES.items():
        for params in spec.sweep(14):
            _, vectors, _ = spec.summands(**params)
            rows.append((f"{name}-{params}", [blockvector_to_word(v) for v in vectors]))
    assert sum(len(words) for _, words in rows) == 378
    return rows


REPEATED_ROW = ("repeated", [blockvector_to_word((1, 0, 0))] * 4)


def split_rows():
    """(id, digits, full words) for every row the bit-identity test walks."""
    rows = [(row_id, 70, words) for row_id, words in family_rows()]
    rows += [
        (f"eval-{i}", 200, [composition_to_word(c)])
        for i, c in enumerate(eval_workload_compositions(1))
    ]
    self_dual = composition_to_word(Composition((1, 3)))
    assert dual_word(self_dual[1:-1]) == self_dual[1:-1]
    rows.append(("self-dual", 70, [self_dual]))
    rows.append((REPEATED_ROW[0], 70, REPEATED_ROW[1]))
    return rows


def test_row_walk_is_bit_identical_to_the_per_word_sweep():
    for row_id, digits, words in split_rows():
        interiors = [w[1:-1] for w in words]
        m_max, _, scale = split_precision(words, digits)
        expected = [reference_half_split(w, m_max, scale) for w in interiors]
        assert walk_convolutions(interiors, m_max, scale) == expected, row_id
        # a row's lower end is the sum of the reference integers, over the
        # power of two they share
        [(low, _, exponent)] = _split_sum([words], digits)
        assert (low, exponent) == (sum(expected), 2 * scale), row_id
        # and a word alone is its own reference integer
        for word, total in zip(words, expected):
            [(alone, _, _)] = _split_sum([[word]], digits)
            assert alone == total, row_id


def golden_eval_compositions():
    """Every composition the golden corpus evaluates, once."""
    found = {tuple(map(int, call[2].split(","))) for call in recorded_calls() if call[0] == "eval"}
    return [Composition(parts) for parts in sorted(found)]


def test_scaled_walk_agrees_with_the_coefficient_sweep():
    rows = [(row_id, 70, words) for row_id, _, words in split_rows()]
    rows += [(str(c), 200, [composition_to_word(c)]) for c in golden_eval_compositions()]
    for row_id, digits, words in rows:
        k, n = len(words), len(words[0]) - 2
        _, bits, _ = split_precision(words, digits)
        [(low, high, exponent)] = _split_sum([words], digits)
        old_low, old_high, old_exponent = coefficient_split_sum(words, digits)
        new_low, new_high = Fraction(low, 2**exponent), Fraction(high, 2**exponent)
        old_low, old_high = Fraction(old_low, 2**old_exponent), Fraction(old_high, 2**old_exponent)
        # both enclose the same sum; each lower end is below the truncated
        # sum by less than k n (n + 1) units of 2^-B, its rounding bound
        assert new_low <= old_high and old_low <= new_high, row_id
        assert abs(new_low - old_low) < 2 * k * Fraction(n * (n + 1), 2**bits), row_id
        # and both widths are the same real number
        assert new_high - new_low == old_high - old_low, row_id


# a light and a heavy row of each family, and their weights
TWO_WEIGHT_ROWS = {
    "symmetric": ({"a": (1, 0, 0)}, {"a": (0, 1, 2, 3, 4, 5, 6)}, "6, 54"),
    "cyclic": ({"a": (1, 0, 0)}, {"a": (0, 1, 2)}, "6, 10"),
    "bowman-bradley": ({"n": 1, "m": 1}, {"n": 1, "m": 2}, "6, 8"),
    "bbbl": ({"n": 1, "m": 0}, {"n": 1, "m": 1}, "4, 10"),
}


@pytest.mark.parametrize("family", list(TWO_WEIGHT_ROWS))
def test_check_group_refuses_two_weights_before_expanding_any(monkeypatch, family):
    # `_split_sum` takes M and B from the first word, so a heavier word would
    # get too few degrees and bits, and an interval its bound does not derive;
    # the weight-54 row alone would expand 5,040 words first
    def expanded(*args):
        raise AssertionError(f"expanded {args}")

    monkeypatch.setattr(numerics, "blockvector_to_word", expanded)
    monkeypatch.setattr(numerics, "build_instance", expanded)
    light, heavy, weights = TWO_WEIGHT_ROWS[family]
    with pytest.raises(ValueError, match=rf"needs rows of one weight, got \[{weights}\]"):
        check_group(family, [light, heavy], 30, weight_cap=14)
    assert numerics._open_group is None


@pytest.mark.parametrize("family", list(TWO_WEIGHT_ROWS))
def test_check_group_refuses_a_row_with_a_wrong_key_before_expanding_any(monkeypatch, family):
    def expanded(*args):
        raise AssertionError(f"expanded {args}")

    monkeypatch.setattr(numerics, "blockvector_to_word", expanded)
    monkeypatch.setattr(numerics, "build_instance", expanded)
    light, _, _ = TWO_WEIGHT_ROWS[family]
    key = next(iter(light))
    missing = {k: v for k, v in light.items() if k != key}
    for bad in ({**light, "digits": 30}, missing):
        with pytest.raises(TypeError):
            check_group(family, [light, bad], 30)
        assert numerics._open_group is None


def test_weight_group_walk_gives_each_row_its_own_sum_and_bound():
    groups = {}
    for row_id, words in family_rows():
        groups.setdefault((row_id.split("-{")[0], len(words[0])), []).append(words)
    assert len(groups) == 22
    for key, rows in groups.items():
        # both ends of each interval, bit for bit, as if each row were walked alone
        assert _split_sum(rows, 70) == [_split_sum([words], 70)[0] for words in rows], key


def exact(x):
    """A nonnegative mpf as the fraction it stores."""
    man, exp = x.man_exp
    return Fraction(man) * Fraction(2) ** exp


@pytest.mark.parametrize("vector", [(0, 0, 0), (1, 1, 1), (0,) * 5, (0,) * 7, (2, 0, 1, 0, 0)])
def test_one_word_row_is_eval_mzv_fast(vector):
    # the bbbl rows at the default cap, and one vector that is not constant
    for digits in (20, 70):
        [row] = _split_sum([[blockvector_to_word(vector)]], digits)
        assert eval_mzv_fast(blockvector_to_composition(vector), digits) == row, vector


@pytest.mark.parametrize("digits", [30, 70])
def test_row_error_bound_holds_and_is_derived_for_the_sum(digits):
    for row_id, words in family_rows() + [REPEATED_ROW]:
        k, n = len(words), len(words[0]) - 2
        [(low, high, exponent)] = _split_sum([words], digits)
        [(fine_low, fine_high, fine_exponent)] = _split_sum([words], digits + 40)
        low, high = Fraction(low, 2**exponent), Fraction(high, 2**exponent)
        fine_low, fine_high = (Fraction(end, 2**fine_exponent) for end in (fine_low, fine_high))
        # the finer sum falls short by far less, so it lies in the interval
        assert low <= fine_low <= high, row_id
        m_max, bits, _ = split_precision(words, digits)
        per_word = Fraction(2 * (n + 1), 2**m_max) + Fraction(n * (n + 1), 2**bits)
        # the width is every word's tail and rounding, exactly
        assert high - low == k * per_word, row_id


@pytest.mark.parametrize("digits", [1, 20, 60, 200])
def test_empty_composition_is_exactly_one_with_a_positive_bound(digits):
    low, high, exponent = eval_mzv_fast(Composition(()), digits)
    assert low == 2**exponent
    assert high > low
    assert (high - low) * 10**digits <= 2**exponent


@pytest.mark.parametrize("digits", [1, 20, 60, 200])
def test_fast_width_is_below_its_documented_bound(digits):
    # every admissible composition of weight 2 to 10
    compositions = admissible_compositions(10)
    assert len(compositions) == 511
    for c in compositions:
        low, high, exponent = eval_mzv_fast(c, digits)
        assert (high - low) * 10 ** (digits + 7) < 2**exponent, c


@pytest.mark.parametrize(
    "n, digits, degree", [(14, 70, 270), (16, 215, 746), (2, 20, 102), (0, 1, 34), (100, 410, 1402)]
)
def test_widths_are_the_least_admissible_degree_and_bound_rounding_and_pi(n, digits, degree):
    m_max, bits, pi_bits = _widths(n, digits)
    assert m_max == degree
    assert (m_max - 2 * (n + 1)) % 8 == 0
    tail = Fraction(2 * (n + 1), 2**m_max)
    assert tail <= Fraction(1, 10 ** (digits + 8))
    assert Fraction(2 * (n + 1), 2 ** (m_max - 8)) > Fraction(1, 10 ** (digits + 8))
    # a word's rounding part is below 2^-11 of its tail
    assert Fraction(n * (n + 1), 2**bits) < tail / 2**11
    # over pi^w < 4^w, w = n + 2, a row's ratio is at least tail / 4^w wide per
    # word and lambda; the division's 2 units and its 4 w q units, q below
    # 2 / pi^w < 2 / 3^w per word and lambda, add at most 2^-11 of that
    w = n + 2
    assert (2 + Fraction(8 * w, 3**w)) / 2**pi_bits <= tail / 4**w / 2**11


def exact_nested_sum(parts, terms):
    """The sum over 0 < k_1 < ... < k_r <= terms of prod k_i^(-n_i), exactly."""
    levels = [Fraction(1)] + [Fraction(0)] * len(parts)
    for k in range(1, terms + 1):
        for j in range(len(parts), 0, -1):
            levels[j] += levels[j - 1] / Fraction(k) ** parts[j - 1]
    return levels[-1]


SERIES_CASES = [(2,), (1, 2), (3, 2), (3, 1, 2), (1, 1, 1, 2), (2, 3, 1, 4), (1, 4, 1, 3)]


def test_harmonic_estimate_behind_the_rounding_units():
    # the rounding recurrence bounds 1 + ln N by bitlength(N)
    assert all(1 + math.log(n) <= n.bit_length() for n in range(8, 1 << 16))


@pytest.mark.parametrize("terms", [10, 23, 60])
@pytest.mark.parametrize("parts", SERIES_CASES, ids=str)
def test_fixed_point_series_is_low_by_at_most_the_rounding_units(parts, terms):
    exact = exact_nested_sum(parts, terms)
    units = _series_rounding_units(len(parts), terms)
    for bits in (12, 40, 120):
        gap = exact - Fraction(_truncated_series(parts, terms, bits), 2**bits)
        assert 0 <= gap <= Fraction(units, 2**bits), bits


@pytest.mark.parametrize("terms", [10, 60])
@pytest.mark.parametrize("parts", SERIES_CASES, ids=str)
def test_series_oracle_value_within_rounding(parts, terms):
    truncated = exact_nested_sum(parts, terms)
    low, high, exponent = eval_mzv_series(Composition(parts), terms)
    tail = _series_tail_bound(parts, terms)
    gap = truncated - Fraction(low, 2**exponent)
    # what is left of the width once the tail is taken out: the rounding and
    # the tail's rounding up to a unit of the sweep, together below 2^-34 of the tail
    rest = Fraction(high - low, 2**exponent) - tail
    assert 0 <= gap <= rest < tail / 2**34


@pytest.mark.parametrize("parts", [(2,), (1, 3), (2, 8, 3), (1, 5, 5, 3), (1, 2, 1, 2, 1, 2, 2)])
def test_series_rounding_agrees_with_64_more_bits(parts):
    terms = 5000
    units = _series_rounding_units(len(parts), terms)
    bits = 200 + units.bit_length()
    more = bits + 64
    low = Fraction(_truncated_series(parts, terms, bits), 2**bits)
    high = Fraction(_truncated_series(parts, terms, more), 2**more)
    assert -Fraction(units, 2**more) <= high - low <= Fraction(units, 2**bits)
    assert high != low


def reference_truncated_series(parts, terms, bits):
    """The oracle's nested sum before level 1 and equal parts shared their powers.

    Every level, the first too, multiplies the level before it by a fresh
    stream of powers and shifts down, starting from a constant 2^bits.
    """
    one = 1 << bits
    ks = range(1, terms + 1)
    previous = repeat(one)
    for e in parts:
        powers = map(floordiv, repeat(one), map(pow, ks, repeat(e)))
        level = accumulate(map(rshift, map(mul, previous, powers), repeat(bits)))
        previous = chain((0,), level)
    return deque(level, maxlen=1)[0]


ORACLE_CASES = [(parts, 100) for parts in sorted({c.parts for c in admissible_compositions(10)})]
ORACLE_CASES += [(parts, terms) for parts in [(2, 2, 2, 2), (1, 1, 1, 2), (3, 1, 3, 1, 2)]
                 for terms in (100, 5000)]


def test_truncated_series_is_bit_identical_to_the_reference():
    assert len(ORACLE_CASES) == 511 + 6
    for parts, terms in ORACLE_CASES:
        for bits in (12, 40, 200):
            expected = reference_truncated_series(parts, terms, bits)
            assert _truncated_series(parts, terms, bits) == expected, (parts, terms, bits)


def test_truncated_series_keeps_only_a_few_integers_live():
    # 5000 powers of 200 bits, held at once in a list, would take about 290 KiB
    tracemalloc.start()
    try:
        _truncated_series((2, 2, 2, 2), 5000, 200)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_series_engine_known_value():
    low, high, exponent = interval = eval_mzv_series(Composition((1, 3)), 10**4)
    enclosure = mpf_interval(interval, 40)
    with mp.workdps(40):
        assert enclosure[0] < mp.pi**4 / 360 < enclosure[1]
    assert (high - low) * 10**6 <= 2**exponent


def test_series_tail_bound_is_sound():
    cases = [
        (Composition((2,)), 100),
        (Composition((3,)), 50),
        (Composition((1, 2)), 200),
        (Composition((2, 2)), 100),
        (Composition((1, 1, 2)), 300),
    ]
    for comp, terms in cases:
        # the series interval holds the fast engine's, which is 10^-47 wide
        s_low, s_high = mpf_interval(eval_mzv_series(comp, terms), 50)
        f_low, f_high = mpf_interval(eval_mzv_fast(comp, 40), 50)
        assert s_low < f_low <= f_high < s_high, comp


def mpf_series_tail_bound(parts, terms):
    """The tail bound's closed form in mpf at the working precision, as it was computed before."""
    p, s = len(parts) - 1, parts[-1]
    n = mpf(terms)
    head = (1 + mp.log(n + 1)) ** p * (n + 1) ** (-s)
    series = mpf(0)
    for i in range(p + 1):
        series += (
            mpf(math.factorial(p) // math.factorial(p - i))
            * (1 + mp.log(n)) ** (p - i)
            / mpf(s - 1) ** (i + 1)
        )
    return (head + n ** (1 - s) * series) / math.factorial(p)


TAIL_SHAPES = sorted(
    {(c.depth - 1, c.parts[-1]) for c in admissible_compositions(12)}
    | {(p, s) for p in (20, 50, 98) for s in (2, 3)}
)


@pytest.mark.parametrize("terms", [10, 300, 5000])
def test_exact_tail_bound_is_above_and_near_the_closed_form(terms):
    # the 60-digit closed form is within relative 10^-58 of the exact one,
    # which the bound may equal (depth 1 takes no logarithm)
    for p, s in TAIL_SHAPES:
        parts = (1,) * p + (s,)
        bound = _series_tail_bound(parts, terms)
        with mp.workdps(60):
            reference = exact(mpf_series_tail_bound(parts, terms))
        assert reference * (1 - Fraction(1, 10**50)) <= bound, (p, s)
        assert bound <= reference * (1 + Fraction(1, 10**20)), (p, s)


@pytest.mark.parametrize("x", [1, 2, 3, 7, 8, 10, 5000, 5001, 2**40 - 1, 2**40, 10**30 + 7])
def test_log_bound_is_above_and_within_a_few_units(x):
    bound = Fraction(numerics._log_above(x), 2**numerics._LOG_BITS)
    with mp.workdps(80):
        excess = mpf(bound.numerator) / bound.denominator - mp.log(x)
        assert 0 <= excess < mpf(2) ** -100, x


def test_oracle_claims_the_same_digits_as_the_mpf_tail():
    # every admissible composition of weight up to 12 at the CLI's 5000 terms:
    # the tail's zero places, and its bits, which set the oracle's bit width
    for parts in sorted({c.parts for c in admissible_compositions(12)}):
        tail = _series_tail_bound(parts, 5000)
        with mp.workdps(30):
            reference = mpf_series_tail_bound(parts, 5000)
            before = max(1, int(mp.floor(-mp.log10(reference))))
            bits = int(mp.floor(-mp.log(reference, 2))) + 1
        claimed = max(1, numerics.zero_places(tail))
        assert claimed == before, parts
        assert (tail.denominator // tail.numerator).bit_length() == bits, parts


def test_engines_agree_within_bounds_weight_up_to_7():
    compositions = admissible_compositions(7)
    assert len(compositions) == 63
    for comp in compositions:
        s_low, s_high = mpf_interval(eval_mzv_series(comp, 300), 50)
        f_low, f_high = mpf_interval(eval_mzv_fast(comp, 40), 50)
        assert s_low <= f_high and f_low <= s_high, comp


def test_empty_composition_evaluates_to_one():
    # the oracle's interval is the exact 1, of width 0
    assert eval_mzv_series(Composition(()), 100) == (1, 1, 0)
    low, _, exponent = eval_mzv_fast(Composition(()), 40)
    assert low == 2**exponent


def test_engine_preconditions():
    with pytest.raises(ValueError):
        eval_mzv_series(Composition((2,)), 9)
    with pytest.raises(ValueError):
        eval_mzv_series(Composition((2, 1)), 100)
    with pytest.raises(ValueError):
        eval_mzv_fast(Composition((2, 1)), 40)
    with pytest.raises(ValueError):
        eval_mzv_fast(Composition((2,)), 0)


def test_precision_cap_is_adjustable():
    low, high = mpf_interval(eval_mzv_fast(Composition((2,)), 250), 270)
    with mp.workdps(270):
        assert low <= mp.pi**2 / 6 <= high
        assert high - low < mpf(10) ** -250


def test_guaranteed_digits_tracking():
    # the digits each width guarantees: at least 60, and at most 3
    low, high, exponent = eval_mzv_fast(Composition((1, 3)), 60)
    assert (high - low) * 10**60 <= 2**exponent
    low, high, exponent = eval_mzv_series(Composition((2,)), 100)
    assert (high - low) * 10**4 > 2**exponent


def test_bernoulli_numbers():
    b = bernoulli_numbers(12)
    assert b[0] == 1
    assert b[1] == Fraction(-1, 2)
    assert b[2] == Fraction(1, 6)
    assert b[3] == 0 and b[5] == 0 and b[11] == 0
    assert b[4] == Fraction(-1, 30)
    assert b[10] == Fraction(5, 66)
    assert b[12] == Fraction(-691, 2730)


def test_zeta_even_rational():
    assert zeta_even_rational(1) == Fraction(1, 6)
    assert zeta_even_rational(2) == Fraction(1, 90)
    assert zeta_even_rational(3) == Fraction(1, 945)
    assert zeta_even_rational(4) == Fraction(1, 9450)


def test_closed_form_preconditions():
    with pytest.raises(ValueError):
        bernoulli_numbers(-1)
    with pytest.raises(ValueError):
        zeta_even_rational(0)


def test_euler_zeta_even_matches_mpmath():
    for k in range(1, 7):
        out = euler_zeta_even(k, 50)
        with mp.workdps(60):
            assert abs(out - mp.zeta(2 * k)) < mpf(10) ** -48


@pytest.mark.parametrize("digits", [20, 60, 200])
def test_euler_zeta_even_error_bound_holds(digits):
    # the derived error is under 6 (2k + 4) 10^(-digits-11), 5 10^-9 of the bound at k = 40
    for k in range(1, 41):
        out = euler_zeta_even(k, digits)
        finer = euler_zeta_even(k, digits + 40)
        with mp.workdps(digits + 60):
            assert abs(out - finer) <= mpf(10) ** -digits, k


def test_reconstruct_recovers_planted_rationals():
    rng = random.Random(7)
    with mp.workdps(70):
        for _ in range(200):
            num = rng.randint(-10**6, 10**6)
            den = rng.randint(1, 10**6)
            noise = mpf(rng.randint(-100, 100)) * mpf(10) ** -55
            x = mpf(num) / den + noise
            assert reconstruct_rational(*decimal_interval(x, 45)) == Fraction(num, den)


@pytest.mark.parametrize("digits", [20, 50])
def test_reconstruct_declines_irrationals(digits):
    with mp.workdps(70):
        for x in (mp.sqrt(2), +mp.e, +mp.pi, mp.zeta(3)):
            assert reconstruct_rational(*decimal_interval(x, digits)) is None, x


def test_reconstruct_denominator_cap():
    with mp.workdps(70):
        x = decimal_interval(mpf(1) / 10**13, 50)
        assert reconstruct_rational(*x, max_denominator=10**12) is None
        assert reconstruct_rational(*x, max_denominator=10**14) == Fraction(1, 10**13)


def test_reconstruct_caps_at_q_by_default():
    # Q at 60 digits is about 10^25, above the denominator 15! = 1307674368000
    with mp.workdps(80):
        x = decimal_interval(mpf(1) / math.factorial(15), 60)
        assert reconstruct_rational(*x) == Fraction(1, math.factorial(15))
        assert reconstruct_rational(*x, max_denominator=None) == Fraction(1, math.factorial(15))


def test_reconstruct_trusts_x_to_exactly_its_digits():
    with mp.workdps(80):
        third, unit = mpf(1) / 3, mpf(10) ** -40
        assert reconstruct_rational(*decimal_interval(third + unit / 2, 40)) == Fraction(1, 3)
        assert reconstruct_rational(*decimal_interval(third + 2 * unit, 40)) is None


def test_reconstruct_preconditions():
    # an empty or one-point interval, and a scale below 1
    with pytest.raises(ValueError, match="^need low < high, got low=5, high=5$"):
        reconstruct_rational(5, 5, 10)
    with pytest.raises(ValueError, match="^need low < high, got low=6, high=5$"):
        reconstruct_rational(6, 5, 10)
    with pytest.raises(ValueError, match="^need scale >= 1, got 0$"):
        reconstruct_rational(3, 4, 0)
    # every readback refuses a cap below 1 with one message
    for readback in (
        partial(reconstruct_rational, 1, 2),
        partial(check_bbbl_family, 1, 0),
        partial(check_group, "bbbl", [{"n": 1, "m": 0}]),
    ):
        with pytest.raises(ValueError, match="need max_denominator >= 1, got 0"):
            readback(30, max_denominator=0)
    assert numerics._open_group is None


def test_reconstruct_handles_integers():
    assert reconstruct_rational(*decimal_interval(mpf(7), 40)) == Fraction(7)
    assert reconstruct_rational(*decimal_interval(mpf(0), 40)) == Fraction(0)


def least_denominator_fraction(low, high, scale, limit):
    """The fraction of least denominator up to `limit` in [low, high] / scale, by search."""
    for q in range(1, limit + 1):
        p = -(-low * q // scale)
        if p * scale <= high * q:
            return Fraction(p, q)
    return None


def test_readback_is_the_least_denominator_fraction_below_q():
    rng = random.Random(5)
    scale = 10**18
    for _ in range(300):
        width = rng.choice([10**3, 10**5, 10**6])
        # half the intervals hold a planted fraction, most of the others none below Q
        planted = Fraction(rng.randint(-200, 200), rng.randint(1, 40))
        centre = planted * scale if rng.random() < 0.5 else rng.randint(-3 * scale, 3 * scale)
        low = math.floor(centre) - rng.randint(0, width)
        high = low + width
        # Q from the width: 316, 31 or 10
        limit = math.isqrt(scale // (width * 10**10))
        found = reconstruct_rational(low, high, scale, 10**12)
        assert found == least_denominator_fraction(low, high, scale, limit), (low, high)
    # closed ends: an end that is itself the fraction, at any depth
    assert reconstruct_rational(3 * scale, 3 * scale + 1, scale, 10**12) == 3
    assert reconstruct_rational(scale // 4, scale // 4 + 1, scale, 10**12) == Fraction(1, 4)
    assert reconstruct_rational(scale // 4 - 1, scale // 4, scale, 10**12) == Fraction(1, 4)
    assert reconstruct_rational(-scale // 4, -scale // 4 + 1, scale, 10**12) == Fraction(-1, 4)
    assert reconstruct_rational(333, 334, 1000, 10**12) is None  # Q = 0
    # the cap applies below Q too: Q = 1000 here, and 1/3 needs a cap of 3
    third = (3333333333333333 * 10**4, 3333333333333334 * 10**4, 10**20)
    assert reconstruct_rational(*third, 2) is None
    assert reconstruct_rational(*third, 3) == Fraction(1, 3)


def continued_fraction_readback(low, high, scale, cap):
    """`reconstruct_rational` by a walk over the continued fractions of both ends.

    Both ends share the interval's continued-fraction terms until their
    integer parts differ; the least integer at that depth ends the walk, and
    its convergent is the interval's fraction of least denominator.  It is
    accepted only up to Q = floor((width 10^10)^(-1/2)), lowered by `cap`.
    """
    limit = math.isqrt(scale // ((high - low) * 10**10))
    limit = limit if cap is None else min(limit, cap)
    sign = 1 if low > 0 else -1
    (lo, hi), lo_den, hi_den = sorted((sign * low, sign * high)), scale, scale
    p0, q0, p1, q1 = 0, 1, 1, 0  # the last two convergents of the shared terms
    while q1 <= limit:
        term, rest = divmod(lo, lo_den)
        if not rest or term < hi // hi_den:
            term += rest > 0
            q = term * q1 + q0
            return Fraction(sign * (term * p1 + p0), q) if q <= limit else None
        # one more shared term: go on with the reciprocals of what is left
        p0, q0, p1, q1 = p1, q1, term * p1 + p0, term * q1 + q0
        lo, lo_den, hi, hi_den = hi_den, hi - term * hi_den, lo_den, rest
    return None


def readback_cases(rng, scale, width):
    """(low, high, scale, cap) for one width over `scale`: planted, at closed ends, around 0."""
    limit = math.isqrt(scale // (width * 10**10))
    cases = []
    # planted fractions with denominators Q - 1, Q and Q + 1, inside the interval
    for q in range(max(limit - 1, 1), limit + 2):
        p = rng.randint(-3 * q, 3 * q)
        low = p * scale // q - rng.randint(0, width - 1)
        cases += [(low, low + width, scale, cap) for cap in (None, 1, max(q - 1, 1), q)]
    # a fraction over a power of two that divides the scale, at either closed end
    q = 1 << rng.randint(0, max(limit, 1).bit_length() - 1)
    end = rng.randint(-3 * q, 3 * q) * (scale // q)
    for cap in (None, 1, max(q - 1, 1), q):
        cases += [(end, end + width, scale, cap), (end - width, end, scale, cap)]
    # around 0, and anywhere
    low = -rng.randint(0, width)
    anywhere = rng.randint(-3 * scale, 3 * scale)
    return cases + [(low, low + width, scale, None), (anywhere, anywhere + width, scale, None)]


def test_readback_is_the_continued_fraction_walk_at_the_package_scales():
    rng = random.Random(21)
    cases = []
    # a weight-14 check's interval over 2^P, from one unit to 10^-4 of the scale wide
    for digits in (20, 60, 200):
        scale = 1 << _widths(14 - 2, digits + 10)[2]
        for _ in range(60):
            width = rng.randint(1, 10 ** rng.randint(0, len(str(scale)) - 5))
            cases += readback_cases(rng, scale, width)
        # wider than 10^-10 around an integer: Q = 0, and no fraction reads back
        for _ in range(20):
            width = rng.randint(scale // 10**10 + 1, scale // 10**3)
            low = rng.randint(-5, 5) * scale - rng.randint(0, width)
            cases += [(low, low + width, scale, cap) for cap in (None, 1)]
    # x +- 10^-digits over den 10^digits, x near p/q with q about Q
    for digits in (20, 60, 200):
        limit = math.isqrt(10 ** (digits - 10) // 2)
        for _ in range(20):
            q = rng.randint(limit - 1, limit + 1)
            p = rng.randint(-3 * q, 3 * q)
            with mp.workdps(digits + 10):
                x = decimal_interval(mpf(p) / q + rng.choice([0, mp.pi]), digits)
            cases += [(*x, cap) for cap in (None, 1, q - 1, q)]
    found = 0
    for low, high, scale, cap in cases:
        expected = continued_fraction_readback(low, high, scale, cap)
        assert reconstruct_rational(low, high, scale, cap) == expected, (low, high, scale, cap)
        found += expected is not None
    # most planted fractions read back, and many intervals hold none below Q
    assert 0.3 * len(cases) < found < 0.7 * len(cases)
    assert reconstruct_rational(29999, 30001, 10**4, None) is None


# ---------------------------------------------------------------------------
# family checks


def test_symmetric_report_contents():
    rep = check_symmetric_sum((1, 0, 0), digits=40)
    assert rep["version"] == "report-v1"
    assert rep["family"] == "symmetric"
    assert rep["params"] == {"a": [1, 0, 0]}
    assert rep["weight"] == 6 and rep["pi_power"] == 6
    assert rep["reconstructed"] == {"num": 1, "den": 2520}
    assert rep["target"] == {"num": 1, "den": 2520}
    assert rep["matches_target"] is True
    assert rep["status"] == "verified-rational"
    assert rep["details"] == {"lambda": 2, "word_count": 3, "certificate": "verified"}


def test_symmetric_report_key_order():
    rep = check_symmetric_sum((0, 0, 0), digits=30)
    assert list(rep) == [
        "version", "family", "params", "weight", "digits", "value", "pi_power",
        "reconstructed", "target", "matches_target", "proven_rational",
        "status", "details",
    ]


def test_symmetric_frozen_values():
    assert check_symmetric_sum((0, 0, 0), digits=40)["reconstructed"] == {"num": 1, "den": 60}
    assert check_symmetric_sum((1, 1, 0), digits=40)["reconstructed"] == {"num": 1, "den": 181440}
    assert check_symmetric_sum((2, 0, 0), digits=40)["reconstructed"] == {"num": 1, "den": 181440}


def test_symmetric_weight_cap():
    with pytest.raises(ValueError):
        check_symmetric_sum((3, 3, 3), digits=40)


def test_bowman_bradley_reports():
    rep = check_bowman_bradley(1, 1, digits=40)
    assert rep["reconstructed"] == {"num": 1, "den": 5040}
    assert rep["status"] == "verified-rational"
    assert rep["details"]["word_count"] == 3
    rep = check_bowman_bradley(1, 0, digits=40)
    assert rep["reconstructed"] == {"num": 1, "den": 360}


def test_bbbl_reports():
    rep = check_bbbl_family(1, 1, digits=40)
    assert rep["reconstructed"] == {"num": 1, "den": 119750400}
    assert rep["status"] == "conjectural-match"
    assert rep["matches_target"] is True
    rep = check_bbbl_family(1, 0, digits=40)
    assert rep["reconstructed"] == {"num": 1, "den": 360}


def test_cyclic_reports():
    rep = check_cyclic_insertion((1, 0, 0), digits=40)
    assert rep["reconstructed"] == {"num": 1, "den": 5040}
    assert rep["status"] == "conjectural-match"
    assert rep["details"]["rotations"] == 3
    rep = check_cyclic_insertion((0, 0, 0), digits=40)
    assert rep["reconstructed"] == {"num": 1, "den": 120}


def test_off_target_reconstruction_without_proof_is_unconfirmed(monkeypatch):
    # status rule 4 of docs/schemas.md: no proof and the only prediction missed
    monkeypatch.setattr(numerics, "reconstruct_rational", lambda *interval: Fraction(1, 5041))
    rep = check_cyclic_insertion((1, 0, 0), digits=40)
    assert rep["target"] == {"num": 1, "den": 5040}
    assert rep["reconstructed"] == {"num": 1, "den": 5041}
    assert rep["matches_target"] is False
    assert rep["proven_rational"] is False
    assert rep["status"] == "no-reconstruction"


def readback_intervals(monkeypatch):
    """A list that gets each `reconstruct_rational` call's [low, high] / scale from now on."""
    intervals = []
    readback = numerics.reconstruct_rational

    def recorded(low, high, scale, cap):
        intervals.append((Fraction(low, scale), Fraction(high, scale)))
        return readback(low, high, scale, cap)

    monkeypatch.setattr(numerics, "reconstruct_rational", recorded)
    return intervals


@pytest.mark.parametrize("shift", [-30, 10])
@pytest.mark.parametrize("weight", [2, 14, 44])
def test_pi_power_division_rounds_outward(weight, shift):
    # a quotient near 2^(bits - 30) (4/pi)^weight, where only the rounding
    # of the division shows, and near 2^(bits + 10) (4/pi)^weight, where pi
    # rounded the wrong way moves an end by many units
    bits, exponent = 200, 90
    value = 4**weight << (exponent + shift)
    low = numerics._over_pi_power(value, exponent, weight, bits, up=False)
    high = numerics._over_pi_power(value, exponent, weight, bits, up=True)
    with mp.workdps(150):
        quotient = mp.ldexp(mpf(value) / mp.pi**weight, bits - exponent)
        assert low < quotient < high
        # pi is known to 2^(1 - bits) relatively, so its weight-th power to
        # about weight 2^(1 - bits), plus one unit for each division
        assert high - low <= 2 + 4 * weight * mp.ldexp(quotient, -bits)


# every P that `_check` takes for 1 to 400 digits at weights 4 to 100, and the narrow widths
PI_WIDTHS = [
    sorted({_widths(weight - 2, digits + 10)[2] for weight in range(4, 101) for digits in range(1, 401)}),
    range(2, 400),
]


@pytest.mark.parametrize("widths", PI_WIDTHS)
def test_pi_bounds_are_mpmaths(widths):
    assert len(set().union(*PI_WIDTHS)) >= 698
    for bits in widths:
        below = Fraction(numerics._pi_below(bits), 2 ** (bits - 2))
        assert below == Fraction(*to_rational(mpf_pi(bits, round_floor))), bits
        assert below + Fraction(1, 2 ** (bits - 2)) == Fraction(
            *to_rational(mpf_pi(bits, round_ceiling))), bits


def decimal_near(rng, digits):
    """A value within a rounding of a decimal at its `digits`-th digit's edge.

    The `digits` leading digits are random or all 9s, and the rest is 5,
    4999..., 5000...1 or 49: an exact half, or just either side of one.
    """
    lead = 10**digits - 1 if rng.random() < 0.3 else rng.randrange(10 ** (digits - 1), 10**digits)
    tail = rng.choice(["5", "4" + "9" * rng.randint(1, 12), "5" + "0" * rng.randint(1, 12) + "1", "49"])
    return Fraction(int(f"{lead}{tail}"), 10 ** (digits + len(tail) - 1)) * Fraction(10) ** rng.randint(-900, 900)


def formatter_inputs(count, seed):
    """(numerator, exponent, digits, dps) for the formatter, binary exponents within +-3500.

    dps is a working precision, as mpmath's `nstr` would first round the
    value to; the formatter itself reads the exact value.
    """
    rng = random.Random(seed)
    inputs = [(0, rng.randint(-50, 50), digits, digits + 20) for digits in (1, 2, 60)]
    while len(inputs) < count:
        digits, dps = rng.randint(1, 220), rng.randint(1, 240)
        kind = rng.random()
        if kind < 0.4:
            # near a decimal edge, at the working precision or past it
            value = decimal_near(rng, digits)
            exponent = max(dps_to_prec(dps), 60) + 20 - (value.numerator.bit_length()
                                                         - value.denominator.bit_length())
            numerator = round(value * Fraction(2) ** exponent)
        elif kind < 0.5:
            # a dyadic decimal half: N / 2^s = N 5^s / 10^s, its digit `digits` a 5 then zeros
            odd, exponent = 10 * rng.randrange(10 ** rng.randint(0, 40)) + 5, rng.randint(0, 60)
            numerator = odd * 10 ** rng.randint(0, 5)
            digits = max(1, len(str(odd * 5**exponent)) - 1)
            dps = rng.choice([dps, len(str(numerator)) + 5])
        else:
            numerator = rng.getrandbits(rng.randint(1, 1200))
            exponent = rng.randint(-200, 1500)
        inputs.append((numerator * rng.choice([1, 1, 1, -1]), exponent, digits, dps))
    return inputs


def decimal_power(x):
    """floor(log10 x) for a Fraction x > 0."""
    power = math.floor(math.log10(x.numerator) - math.log10(x.denominator))
    return power + (x >= Fraction(10) ** (power + 1)) - (x < Fraction(10) ** power)


def decimal_reference(value, digits):
    """`value` rounded half up to `digits` significant digits in Fractions, laid out
    as docs/schemas.md says: fixed point for a decimal exponent strictly between
    min(-(digits // 3), -5) and `digits`, else d.ddde+x; trailing zeros stripped."""
    if value == 0:
        return "0.0"
    sign, x = ("-", -value) if value < 0 else ("", value)
    power = decimal_power(x)
    lead = math.floor(x / Fraction(10) ** (power - digits + 1) + Fraction(1, 2))
    if lead == 10**digits:
        lead, power = lead // 10, power + 1
    mantissa = str(lead)
    if not min(-(digits // 3), -5) < power < digits:
        return f"{sign}{mantissa[0]}.{mantissa[1:].rstrip('0') or '0'}e{power:+d}"
    if power < 0:
        whole, fraction = "0", "0" * (-power - 1) + mantissa
    else:
        whole, fraction = mantissa[:power + 1], mantissa[power + 1:]
    return f"{sign}{whole}.{fraction.rstrip('0') or '0'}"


def distance_from_a_half(value, digits):
    """How far |value| in units of its `digits`-th significant digit lies from the nearest half."""
    x = abs(value)
    units = x / Fraction(10) ** (decimal_power(x) - digits + 1)
    return abs(units - math.floor(units) - Fraction(1, 2))


def test_formatter_rounds_exactly_half_up():
    agreed = 0
    for numerator, exponent, digits, dps in formatter_inputs(20000, seed=27):
        value = Fraction(numerator) / Fraction(2) ** exponent
        text = numerics.format_decimal(numerator, exponent, digits)
        assert text == decimal_reference(value, digits), (numerator, exponent, digits)
        # mpmath's nstr rounds twice, to dps digits and then to `digits`; with
        # ample dps it prints the same string unless the value is near a half
        if dps >= digits + 10 and (numerator == 0 or (
                Fraction(1, 2**3500) <= abs(value) < 2**3500
                and distance_from_a_half(value, digits) > Fraction(1, 10**4))):
            with mp.workdps(dps):
                assert text == mp.nstr(mp.ldexp(mpf(numerator), -exponent), digits), (
                    numerator, exponent, digits, dps)
            agreed += 1
    assert agreed == 6359


def test_formatter_rounds_half_up_below_two_to_the_minus_3500():
    rng = random.Random(3500)
    for _ in range(2000):
        digits, dps = rng.randint(1, 80), rng.randint(1, 100)
        if rng.random() < 0.5:
            value = decimal_near(rng, digits) * Fraction(10) ** -2000
            exponent = max(dps_to_prec(dps), 60) + 20 - (value.numerator.bit_length()
                                                         - value.denominator.bit_length())
            numerator = round(value * 2**exponent)
        else:
            numerator = rng.getrandbits(rng.randint(1, 400)) | 1
            exponent = numerator.bit_length() + rng.randint(3501, 9000)
        value = Fraction(numerator, 2**exponent)
        assert value < Fraction(1, 2**3500)
        text = decimal_reference(value, digits)
        assert "e-" in text
        assert numerics.format_decimal(numerator, exponent, digits) == text


def test_readback_declines_a_fraction_that_the_interval_does_not_single_out(monkeypatch):
    # weight 44: the target's denominator, about 2.7 10^57, is above Q, and
    # the value 3.6 10^-58 once read back as 0/1 under the 10^60 cap
    intervals = readback_intervals(monkeypatch)
    rep = check_bbbl_family(11, 0, max_denominator=10**60, weight_cap=44)
    assert rep["weight"] == 44
    assert rep["reconstructed"] is None
    assert rep["status"] == "no-reconstruction"
    # the interval certifies about 42 of the 60 digits shown, and `value` is
    # its midpoint, which the lower end differs from in the 43rd digit
    [(low, high)] = intervals
    assert rep["value"] == decimal_reference((low + high) / 2, 60)


def sweep_reports(family, weight_cap, digits):
    """The reports of a family's sweep, run one weight group at a time."""
    spec = FAMILIES[family]
    groups = {}
    for params in spec.sweep(weight_cap):
        _, weight = spec.parse(*(params[p] for p in spec.params))
        groups.setdefault(weight, []).append(params)
    reports = []
    for rows in groups.values():
        reports += check_group(family, rows, digits, weight_cap=weight_cap)
    assert len(reports) == len(spec.sweep(weight_cap))
    return reports


@pytest.mark.parametrize("digits", [20, 60])
@pytest.mark.parametrize("family", list(FAMILIES))
def test_every_cap20_target_lies_in_its_rows_certified_interval(monkeypatch, family, digits):
    intervals = readback_intervals(monkeypatch)
    reports = sweep_reports(family, 20, digits)
    assert len(reports) == len(intervals)
    for report, (low, high) in zip(reports, intervals):
        target = Fraction(report["target"]["num"], report["target"]["den"])
        assert low <= target <= high, report["params"]


@pytest.mark.parametrize("family", list(FAMILIES))
def test_every_default_value_is_certified(monkeypatch, family):
    # `value` prints `digits` significant digits of the interval's midpoint:
    # at the defaults the interval certifies all of them, 73.8 at the fewest
    intervals = readback_intervals(monkeypatch)
    reports = sweep_reports(family, DEFAULT_WEIGHT_CAP, DEFAULT_DIGITS)
    assert len(reports) == len(intervals)
    for report, (low, high) in zip(reports, intervals):
        # log10(|midpoint| / width) >= digits
        assert abs(low + high) / 2 >= (high - low) * 10**DEFAULT_DIGITS, report["params"]


def test_family_parameter_validation():
    with pytest.raises(ValueError):
        check_bowman_bradley(0, 1)
    with pytest.raises(ValueError):
        check_bbbl_family(1, -1)
    with pytest.raises(ValueError):
        check_bbbl_family(1, 2)  # weight 16 over the default cap
    with pytest.raises(ValueError, match="need digits >= 1, got 0"):
        check_bbbl_family(1, 0, 0)
    with pytest.raises(ValueError):
        check_cyclic_insertion((1, 0))


def test_symmetric_check_refuses_bool_entries():
    # it reported verified-rational with params {"a": [true, 0, 0]}
    with pytest.raises(ValueError, match="^block vector entries must be >= 0, got True$"):
        check_symmetric_sum([True, 0, 0])


@pytest.mark.parametrize("check", [check_bbbl_family, check_bowman_bradley])
@pytest.mark.parametrize("n,m", [(True, 0), (1, False), (True, True)])
def test_spine_checks_refuse_bool_params(check, n, m):
    # check_bbbl_family(True, 0) reported params {"n": true, "m": 0}
    with pytest.raises(ValueError, match=f"^need n >= 1 and m >= 0, got n={n}, m={m}$"):
        check(n, m)


@pytest.mark.parametrize("family", list(FAMILIES))
def test_family_vectors_keep_the_block_vector_rules(family):
    # a derived vector is not checked again, so every producer must keep the rules
    spec = FAMILIES[family]
    for params in spec.sweep(16):
        parsed, weight = spec.parse(*(params[p] for p in spec.params))
        _, words, _ = spec.summands(**parsed)
        for w in words:
            assert type(w) is tuple and block_vector(w) == w, (params, w)
            # the weight `check_group` groups by, and `_split_sum` relies on
            assert weight_of(w) == weight, (params, w)
        if "a" in parsed:
            instance = build_instance(parsed["a"])
            for w in (instance.base, *instance.words):
                assert type(w) is tuple and block_vector(w) == w, (params, w)


def _reference_sweep(family, cap):
    """`FAMILIES[family].sweep(cap)` by brute force, in the order the sweep promises."""
    if family in ("symmetric", "cyclic"):
        rows = []
        for n in range(1, cap // 4 + 1):
            for total in range((cap - 4 * n) // 2 + 1):
                comps = weak_compositions(total, 2 * n + 1)
                if family == "symmetric":  # non-increasing vectors, greatest first
                    vectors = sorted({tuple(sorted(c, reverse=True)) for c in comps}, reverse=True)
                else:  # the least rotation of each class, in ascending order
                    vectors = sorted({min(c[i:] + c[:i] for i in range(len(c))) for c in comps})
                rows.extend({"a": list(v)} for v in vectors)
        return rows
    per_two = {"bowman-bradley": lambda n: 2, "bbbl": lambda n: 2 * (2 * n + 1)}[family]
    spines = [(4 * n + per_two(n) * m, n, m) for n in range(1, cap + 1) for m in range(cap + 1)]
    return [{"n": n, "m": m} for weight, n, m in sorted(spines) if weight <= cap]


@pytest.mark.parametrize("family", list(FAMILIES))
def test_sweep_above_the_golden_caps_matches_brute_force(family):
    # tests/golden/sweep_params.jsonl pins the order up to cap 24; order counts here too
    for cap in range(25, 31):
        assert FAMILIES[family].sweep(cap) == _reference_sweep(family, cap), cap


def test_weak_compositions_are_lexicographic():
    for parts in range(1, 6):
        for total in range(6):
            assert list(numerics._weak_compositions(total, parts)) == weak_compositions(total, parts)
