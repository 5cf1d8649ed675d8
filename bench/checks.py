"""Correctness checks on the CLI's outputs, independent of the package.

Targets are recomputed here from the closed forms in docs/schemas.md with
`Fraction` and `factorial`; eval values are compared with mpmath's own
zeta, with Euler's formula for zeta(1, n), or with a nested series summed
here in floating point under its own tail bound.  No check compares
output bytes with a stored copy, so a change that fixes the known readback
defect needs no change here.

`check_output` raises `WrongAnswer` for an output that is wrong, and
returns the number of rows that were attempted and of those that did not
reach the expected result without being wrong (a `no-reconstruction` row
whose value still agrees with the target).
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from math import comb, factorial
from typing import List, Tuple

import mpmath

import workloads


class WrongAnswer(Exception):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise WrongAnswer(message)


# ---------------------------------------------------------------------------
# rationality reports (check --sweep)


def family_target(family: str, params: dict) -> Tuple[int, Fraction]:
    """(weight, closed-form target) of one family instance, as in docs/schemas.md."""
    if family in ("symmetric", "cyclic"):
        a = params["a"]
        n = (len(a) - 1) // 2
        weight = 4 * n + 2 * sum(a)
        if family == "symmetric":
            return weight, Fraction(factorial(2 * n), factorial(weight + 1))
        return weight, Fraction(1, factorial(weight + 1))
    n, m = params["n"], params["m"]
    if family == "bowman-bradley":
        weight = 4 * n + 2 * m
        return weight, Fraction(comb(m + 2 * n, m), (2 * n + 1) * factorial(weight + 1))
    weight = 4 * n + 2 * m * (2 * n + 1)
    return weight, Fraction(1, (2 * n + 1) * factorial(weight + 1))


PROVEN = {"symmetric": True, "bowman-bradley": True, "bbbl": True, "cyclic": False}
CONJECTURAL_TARGET = {"symmetric": False, "bowman-bradley": False, "bbbl": True, "cyclic": True}


def _fraction(obj) -> Fraction:
    require(isinstance(obj, dict) and set(obj) == {"num", "den"}, f"bad fraction {obj!r}")
    return Fraction(obj["num"], obj["den"])


def check_report(report: dict, family: str, digits: int) -> bool:
    """Check one report-v1 row; True when the expected rational was read back."""
    where = f"{family} {report.get('params')}"
    require(report.get("version") == "report-v1", f"{where}: version {report.get('version')!r}")
    require(report.get("family") == family, f"{where}: family {report.get('family')!r}")
    weight, target = family_target(family, report["params"])
    require(report["weight"] == weight, f"{where}: weight {report['weight']} != {weight}")
    require(report["pi_power"] == weight, f"{where}: pi_power {report['pi_power']}")
    require(report["digits"] == digits, f"{where}: digits {report['digits']} != {digits}")
    require(_fraction(report["target"]) == target, f"{where}: target {report['target']} != {target}")
    require(report["proven_rational"] == PROVEN[family], f"{where}: proven_rational")

    # The value is sum / pi^weight; it must agree with the target to the
    # five-digit guard that readback itself uses, whether or not a rational
    # was read back.
    value = Fraction(report["value"])
    require(
        abs(value - target) <= target * Fraction(1, 10 ** (digits - 5)),
        f"{where}: value {report['value']} disagrees with target {target}",
    )
    if family == "symmetric":
        require(report["details"].get("certificate") == "verified", f"{where}: certificate not verified")

    if report["reconstructed"] is None:
        require(report["status"] == "no-reconstruction", f"{where}: status {report['status']!r} without a rational")
        require(report["matches_target"] is None, f"{where}: matches_target without a rational")
        return False
    reconstructed = _fraction(report["reconstructed"])
    require(reconstructed == target, f"{where}: read back {reconstructed}, target {target}")
    require(report["matches_target"] is True, f"{where}: matches_target {report['matches_target']!r}")
    expected = "conjectural-match" if CONJECTURAL_TARGET[family] else "verified-rational"
    require(report["status"] == expected, f"{where}: status {report['status']!r} != {expected!r}")
    return True


def check_sweep(text: str, family: str) -> Tuple[int, int]:
    reports = json.loads(text)
    require(isinstance(reports, list), f"{family}: sweep output is not a list")
    got = sorted(json.dumps(r["params"], sort_keys=True) for r in reports)
    want = sorted(json.dumps(p, sort_keys=True) for p in workloads.expected_sweep_params(family))
    require(got == want, f"{family}: sweep covers {len(got)} instances, expected {len(want)}")
    failed = sum(not check_report(r, family, workloads.SWEEP_DIGITS) for r in reports)
    return len(reports), failed


# ---------------------------------------------------------------------------
# cancellation certificates (verify --a)


def check_certificate(cert: dict, a: Tuple[int, ...]) -> None:
    where = f"verify {list(a)}"
    require(cert.get("version") == "cert-v1", f"{where}: version {cert.get('version')!r}")
    require(tuple(cert["a"]) == tuple(a), f"{where}: a {cert['a']}")
    n = (len(a) - 1) // 2
    weight = 4 * n + 2 * sum(a)
    require(cert["n"] == n and cert["weight"] == weight, f"{where}: n or weight")
    word_count = factorial(len(a))
    for entry in set(a):
        word_count //= factorial(a.count(entry))
    require(cert["word_count"] == word_count, f"{where}: word_count {cert['word_count']} != {word_count}")
    require(cert["lambda"] * word_count == factorial(len(a)), f"{where}: lambda {cert['lambda']}")
    depth = sum(a) + 2 * n  # one part per 2, plus the 1,3 separators
    require(cert["sign"] == (-1 if depth % 2 else 1), f"{where}: sign {cert['sign']}")
    checks = cert["checks"]
    require([c["r"] for c in checks] == list(range(3, weight, 2)), f"{where}: degrees")
    for c in checks:
        at = f"{where} r={c['r']}"
        require(c["residual"] == 0, f"{at}: residual {c['residual']}")
        require(c["encodings"] == 2 * c["orbits"], f"{at}: {c['encodings']} encodings, {c['orbits']} orbits")
        # every word has weight - r + 1 candidate windows
        require(c["windows"] == word_count * (weight - c["r"] + 1), f"{at}: windows {c['windows']}")
        require(c["encodings"] <= c["windows"], f"{at}: more encodings than windows")
        require("failures" not in c, f"{at}: failures {c.get('failures')}")
    require(cert["verdict"] == "verified", f"{where}: verdict {cert['verdict']!r}")


# ---------------------------------------------------------------------------
# zeta values (eval --zeta)


def series_tail_bound(parts: Tuple[int, ...], terms: int) -> float:
    """Bound on sum over k > terms of k^-s (1 + log k)^p / p!, s the last part.

    The inner sums of a depth p+1 series are at most H_(k-1)^p / p! with
    H_(k-1) <= 1 + log k.  The summand decreases once s (1 + log k) > p, so
    the tail is at most its integral from `terms`, which is
    terms^(1-s) sum_i p!/(p-i)! (1 + log terms)^(p-i) / (s-1)^(i+1).
    """
    p, s = len(parts) - 1, parts[-1]
    log_n = 1 + math.log(terms)
    if s * log_n <= p:
        raise ValueError(f"tail bound needs more than {terms} terms for {parts}")
    total = sum(
        factorial(p) // factorial(p - i) * log_n ** (p - i) / (s - 1) ** (i + 1)
        for i in range(p + 1)
    )
    return terms ** (1 - s) * total / factorial(p)


def float_series(parts: Tuple[int, ...], terms: int) -> float:
    """Sum over 0 < k_1 < ... < k_r <= terms of prod k_j^-parts[j], in floats."""
    levels = [1.0] + [0.0] * len(parts)
    for k in range(1, terms + 1):
        for j in range(len(parts), 0, -1):
            levels[j] += levels[j - 1] * k ** -parts[j - 1]
    return levels[-1]


def closed_form(parts: Tuple[int, ...], dps: int):
    """zeta(w), or zeta(1, n) by Euler's formula; None for other compositions."""
    with mpmath.workdps(dps):
        if len(parts) == 1:
            return mpmath.zeta(parts[0])
        if len(parts) == 2 and parts[0] == 1:
            n = parts[1]
            # zeta(1, n) = sum_{k1 < k2} 1 / (k1 k2^n)
            #            = n/2 zeta(n+1) - 1/2 sum_{j=1}^{n-2} zeta(n-j) zeta(j+1)
            return n * mpmath.zeta(n + 1) / 2 - sum(
                mpmath.zeta(n - j) * mpmath.zeta(j + 1) for j in range(1, n - 1)
            ) / 2
    return None


FLOAT_TERMS = 5000


def check_eval(text: str, parts: Tuple[int, ...], digits: int) -> None:
    where = f"eval {list(parts)}"
    doc = json.loads(text)
    require(doc["composition"] == list(parts), f"{where}: composition {doc['composition']}")
    require(doc["digits"] == digits, f"{where}: digits {doc['digits']}")
    with mpmath.workdps(digits + 20):
        value = mpmath.mpf(doc["value"])
        exact = closed_form(parts, digits + 20)
        if exact is not None:
            # nstr rounding plus the engine's 10^-digits bound, with slack
            require(
                abs(value - exact) <= mpmath.mpf(10) ** (3 - digits),
                f"{where}: {mpmath.nstr(value, 30)} vs closed form {mpmath.nstr(exact, 30)}",
            )
            return
    # No closed form: the series oracle's own bound decides.  The CLI reports
    # how many digits its two engines share, and the oracle's bound says how
    # many it must share; an independent float series checks the leading ones.
    oracle_digits = int(-math.log10(series_tail_bound(parts, doc["oracle_terms"])))
    require(
        doc["engine_agreement_digits"] >= min(digits, oracle_digits) - 1,
        f"{where}: engines agree to {doc['engine_agreement_digits']} digits, "
        f"the oracle bound allows {oracle_digits}",
    )
    approx = float_series(parts, FLOAT_TERMS)
    slack = series_tail_bound(parts, FLOAT_TERMS) + 1e-11 * approx
    require(
        abs(float(value) - approx) <= slack,
        f"{where}: {float(value)!r} vs float series {approx!r} (slack {slack:.3g})",
    )


# ---------------------------------------------------------------------------


def check_output(argv: List[str], returncode: int, text: str) -> Tuple[int, int]:
    """Check one CLI call's output; returns (rows attempted, rows failed)."""
    require(returncode == 0, f"{' '.join(argv)}: exit code {returncode}")
    command = argv[0]
    if command == "check":
        return check_sweep(text, workloads.flag_value(argv, "--family"))
    if command == "verify":
        a = tuple(int(x) for x in workloads.flag_value(argv, "--a").split(","))
        check_certificate(json.loads(text), a)
        return 1, 0
    if command == "eval":
        parts = tuple(int(x) for x in workloads.flag_value(argv, "--zeta").split(","))
        check_eval(text, parts, int(workloads.flag_value(argv, "--digits")))
        return 1, 0
    raise WrongAnswer(f"unexpected command {command!r}")
