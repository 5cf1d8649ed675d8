"""Acceptance gate: one test per primary criterion, each printing a verdict line.

The instance suites cover every block vector with n = 1 and entry sum at
most 4, plus every vector with n = 2 and entry sum at most 2.  Random
property sweeps use a fixed seed so failures are reproducible.
"""

import random
from fractions import Fraction
from math import factorial

from mpmath import mp, mpf

from multizeta.encodings import (
    OddEncoding,
    enumerate_odd_encodings,
    phi,
    quotient_of,
    subsequence_of,
    window_of,
)
from multizeta.numerics import (
    check_bbbl_family,
    check_bowman_bradley,
    check_cyclic_insertion,
    check_symmetric_sum,
    eval_mzv_fast,
    reconstruct_rational,
)
from multizeta.verifier import (
    CancellationCertificate,
    InsertionInstance,
    build_instance,
    verify_instance,
)
from multizeta.words import Composition, weight_of

from conftest import (
    decimal_interval,
    euler_zeta_even,
    mpf_interval,
    record_criterion,
    weak_compositions,
    window_length,
)


def _instance_suite():
    vectors = []
    for n, entry_cap in ((1, 4), (2, 2)):
        for total in range(entry_cap + 1):
            vectors.extend(weak_compositions(total, 2 * n + 1))
    return vectors


def test_criterion_1_symbolic_cancellation_suite():
    vectors = _instance_suite()
    assert len(vectors) == 35 + 21
    for vector in vectors:
        certificate = verify_instance(build_instance(vector))
        assert certificate.verdict == "verified", vector
        for check in certificate.checks:
            assert check.residual == 0, (vector, check.r)
            assert not check.failures, (vector, check.r)
    record_criterion(f"PASS criterion 1: {len(vectors)} instances verified, all residuals empty")


def _expand_word(entries):
    # independent expansion: alternate 01 / 10 blocks, b_i + 1 copies each
    symbols = []
    for i, count in enumerate(entries):
        block = [0, 1] if i % 2 == 0 else [1, 0]
        symbols.extend(block * (count + 1))
    return symbols


def test_criterion_2_oracle_equivalence():
    mismatches = 0
    pairs_checked = 0
    for vector in _instance_suite():
        symbols = _expand_word(vector)
        for length in range(3, weight_of(vector) + 2, 2):
            brute = {
                (p, p + length)
                for p in range(len(symbols) - length + 1)
                if symbols[p] != symbols[p + length - 1]
            }
            found = enumerate_odd_encodings(vector, length)
            encoded = {window_of(e) for e, _, _ in found}
            assert len(encoded) == len(found)  # windows determine encodings
            assert encoded == {(start, end) for _, start, end in found}
            if encoded != brute:
                mismatches += 1
            pairs_checked += 1
    assert mismatches == 0
    record_criterion(f"PASS criterion 2: encoding enumeration matches window scan on "
          f"{pairs_checked} (vector, length) pairs, 0 mismatches")


def test_criterion_3_involution_property_suite():
    rng = random.Random(20260815)
    runs = 10_000
    for _ in range(runs):
        n = rng.randint(1, 3)
        entries = tuple(rng.randint(0, 5) for _ in range(2 * n + 1))
        s = rng.randrange(0, 2 * n)
        t = rng.choice(range(s + 1, 2 * n + 1, 2))
        l = rng.randrange(0, 2 * (entries[s] + 1))
        m = rng.choice(
            [v for v in range(2 * (entries[t] + 1)) if (v - l) % 2 == 1]
        )
        e = OddEncoding(entries, s, l, t, m)
        f = phi(e)
        assert phi(f) == e
        assert window_length(f) == window_length(e)
        assert f != e
        assert subsequence_of(f) == subsequence_of(e)[::-1]
        assert quotient_of(f) == quotient_of(e)
    record_criterion(f"PASS criterion 3: {runs} random encodings, 0 involution violations")


def test_criterion_4_negative_control():
    instance = build_instance((1, 0, 0))
    assert len(instance.words) >= 3
    broken = InsertionInstance(instance.base, tuple(w for w in instance.words if w != (0, 0, 1)))
    record = verify_instance(broken).checks[0]
    assert record.residual > 0
    certificate = CancellationCertificate(instance=broken, checks=(record,))
    assert certificate.verdict == "failed"
    record_criterion(f"PASS criterion 4: dropping one word leaves residual size "
          f"{record.residual}, verdict failed")


def test_criterion_5_numeric_identities():
    low, _ = mpf_interval(eval_mzv_fast(Composition((1, 3)), 60), 75)
    with mp.workdps(75):
        ratio = low / mp.pi**4
        assert abs(ratio - mpf(1) / 360) < mpf(10) ** -35
    assert reconstruct_rational(*decimal_interval(ratio, 55)) == Fraction(1, 360)

    report = check_bowman_bradley(1, 1, digits=60)
    assert report["reconstructed"] == {"num": 1, "den": 5040}
    with mp.workdps(75):
        direct = sum(
            mpf_interval(eval_mzv_fast(Composition(parts), 60), 75)[0]
            for parts in [(2, 1, 3), (1, 2, 3), (1, 3, 2)]
        )
        assert abs(direct / mp.pi**6 - mpf(1) / 5040) < mpf(10) ** -35

    report = check_bowman_bradley(1, 2, digits=60)
    assert report["reconstructed"] == {"num": 1, "den": 181440}
    assert Fraction(1, 181440) == Fraction(2, factorial(9))

    for k in range(1, 6):
        euler = euler_zeta_even(k, 45)
        engine, _ = mpf_interval(eval_mzv_fast(Composition((2 * k,)), 45), 60)
        with mp.workdps(55):
            assert abs(euler - engine) < mpf(10) ** -40
    record_criterion("PASS criterion 5: zeta(1,3)/pi^4 = 1/360, Bowman-Bradley sums exact, "
          "even zeta closed form matches engine for k <= 5")


def test_criterion_6_conjectural_confirmations():
    report = check_bbbl_family(1, 1, digits=60)
    assert report["reconstructed"] == {"num": 1, "den": 3 * factorial(11)}
    assert report["status"] == "conjectural-match"

    report = check_bbbl_family(2, 0, digits=60)
    assert report["reconstructed"] == {"num": 1, "den": 5 * factorial(9)}
    assert report["status"] == "conjectural-match"

    report = check_cyclic_insertion((1, 0, 0), digits=60)
    assert report["reconstructed"] == {"num": 1, "den": factorial(7)}
    assert report["status"] == "conjectural-match"
    record_criterion("PASS criterion 6: conjectural targets 1/(3*11!), 1/(5*9!), 1/7! "
          "all reconstruct with status conjectural-match")


def test_criterion_7_symmetric_sum_rationality():
    expected = {
        (0, 0, 0): Fraction(1, 60),
        (1, 0, 0): Fraction(1, 2520),
        (1, 1, 0): Fraction(1, 181440),
    }
    for entries, value in expected.items():
        report = check_symmetric_sum(entries, digits=60)
        assert report["reconstructed"] == {
            "num": value.numerator,
            "den": value.denominator,
        }, entries
        assert value.denominator <= 10**12
        assert report["status"] == "verified-rational"
        assert report["details"]["certificate"] == "verified"
    record_criterion("PASS criterion 7: symmetric sums reconstruct to 1/60, 1/2520, "
          "1/181440 with verified certificates")
