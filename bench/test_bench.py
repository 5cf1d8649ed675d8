"""Self-tests of the benchmark's checker, statistics and spans.

Run from the repository root with `python3 -m pytest bench -q`.  They need
mpmath but not the package: every document below is written by hand.
"""

from __future__ import annotations

import copy
import json
import time

import mpmath
import pytest

import checks
import spans
import stats
import workloads
from checks import WrongAnswer


def bbbl_report(**changes) -> dict:
    """A correct report for bbbl n=1 m=0, whose target is 1 / (3 * 5!) = 1/360."""
    with mpmath.workdps(80):
        value = mpmath.nstr(mpmath.mpf(1) / 360, 60)
    report = {
        "version": "report-v1",
        "family": "bbbl",
        "params": {"n": 1, "m": 0},
        "weight": 4,
        "digits": 60,
        "value": value,
        "pi_power": 4,
        "reconstructed": {"num": 1, "den": 360},
        "target": {"num": 1, "den": 360},
        "matches_target": True,
        "proven_rational": True,
        "status": "conjectural-match",
        "details": {"composition": "(1,3)"},
    }
    report.update(changes)
    return report


def test_correct_report_passes():
    assert checks.check_report(bbbl_report(), "bbbl", 60) is True


def test_no_reconstruction_is_counted_not_wrong():
    report = bbbl_report(reconstructed=None, matches_target=None, status="no-reconstruction")
    assert checks.check_report(report, "bbbl", 60) is False


@pytest.mark.parametrize("changes", [
    {"reconstructed": {"num": 1, "den": 361}},  # perturbed fraction
    {"target": {"num": 1, "den": 720}},  # target off the closed form
    {"value": "0.0027777777"},  # value agrees only to ten digits
    {"status": "verified-rational"},  # wrong status for a conjectural target
    {"reconstructed": None, "matches_target": None},  # missing rational but status kept
])
def test_negative_control_report(changes):
    with pytest.raises(WrongAnswer):
        checks.check_report(bbbl_report(**changes), "bbbl", 60)


def certificate() -> dict:
    """A consistent cert-v1 document for a = (0, 0, 0): one word of weight 4."""
    return {
        "version": "cert-v1",
        "a": [0, 0, 0],
        "n": 1,
        "weight": 4,
        "lambda": 6,
        "word_count": 1,
        "sign": 1,
        "checks": [{"r": 3, "windows": 2, "encodings": 2, "orbits": 1, "residual": 0,
                    "encodings_sha256": "0" * 64}],
        "verdict": "verified",
    }


def test_correct_certificate_passes():
    checks.check_certificate(certificate(), (0, 0, 0))


@pytest.mark.parametrize("path, value", [
    (("verdict",), "failed"),
    (("checks", 0, "residual"), 1),
    (("checks", 0, "orbits"), 2),  # encodings != 2 * orbits
    (("checks", 0, "windows"), 3),
    (("lambda",), 3),
])
def test_negative_control_certificate(path, value):
    cert = copy.deepcopy(certificate())
    target = cert
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    with pytest.raises(WrongAnswer):
        checks.check_certificate(cert, (0, 0, 0))


def eval_doc(parts, value, agreement=200) -> str:
    return json.dumps({
        "composition": list(parts), "digits": 200, "value": value,
        "engine_agreement_digits": agreement, "oracle_terms": 5000,
    })


def test_eval_closed_forms():
    with mpmath.workdps(220):
        zeta4 = mpmath.nstr(mpmath.zeta(4), 200)
        zeta13 = mpmath.nstr(mpmath.zeta(4) / 4, 200)  # zeta(1,3) = zeta(4)/4
        off = mpmath.nstr(mpmath.zeta(4) + mpmath.mpf(10) ** -150, 200)
    checks.check_eval(eval_doc((4,), zeta4), (4,), 200)
    checks.check_eval(eval_doc((1, 3), zeta13), (1, 3), 200)
    with pytest.raises(WrongAnswer):
        checks.check_eval(eval_doc((4,), off), (4,), 200)


def test_eval_without_closed_form_uses_the_oracle_bound():
    # zeta(2, 2) = 3/4 zeta(4)
    with mpmath.workdps(220):
        value = mpmath.nstr(3 * mpmath.zeta(4) / 4, 200)
    # 5000 terms bound the oracle's error by about 2e-3: two digits
    checks.check_eval(eval_doc((2, 2), value, agreement=2), (2, 2), 200)
    with pytest.raises(WrongAnswer):
        checks.check_eval(eval_doc((2, 2), value, agreement=0), (2, 2), 200)
    with pytest.raises(WrongAnswer):
        checks.check_eval(eval_doc((2, 2), "0.8"), (2, 2), 200)  # off by 1e-2


def test_tail_has_ten_samples_beyond():
    value, percentile, n = stats.tail(list(range(100, 0, -1)))
    assert (percentile, n) == (90.0, 100)
    assert value == pytest.approx(90.5, abs=0.05)  # between the 90th and 91st of 1..100
    assert stats.tail(list(range(11)))[1] == pytest.approx(100 / 11)
    with pytest.raises(ValueError):
        stats.tail(list(range(10)))


def test_quantile_is_smooth_across_a_gap():
    assert stats.quantile([5.0] * 9, 0.5) == pytest.approx(5.0)
    assert stats.quantile([1, 2, 3, 4, 5], 0.5) == pytest.approx(3.0)
    # 37 cheap rows and 38 dear ones: the sample median sits on the gap and
    # jumps when one row crosses it; the estimate moves by a fraction of that
    cheap, dear = [0.19] * 37, [0.24] * 38
    before = stats.quantile(cheap + dear, 0.5)
    after = stats.quantile(cheap[:-1] + dear + [0.25], 0.5)
    assert abs(after - before) < 0.2 * (0.24 - 0.19)


def test_distinct_ratio():
    calls = [(1, 3), (1, 3), (2, 2), (1, 3), (2, 1, 3), (2, 2)]
    assert stats.distinct_ratio(calls) == 0.5
    assert stats.distinct_ratio([]) == 0.0


def test_self_times_partition_the_outer_span(tmp_path):
    recorder = spans.Recorder(tmp_path, row_layer="outer")
    inner = recorder.wrap(lambda: time.sleep(0.02), "inner")

    def body():
        time.sleep(0.01)
        inner()
        inner()

    outer = recorder.wrap(body, "outer")
    start = time.perf_counter()
    outer()
    total = time.perf_counter() - start
    assert recorder.calls == {"outer": 1, "inner": 2}
    assert recorder.self_s["inner"] >= 0.04
    assert 0.01 <= recorder.self_s["outer"] < 0.02
    (key, duration), = recorder.rows
    assert key.startswith("('body', ()")
    assert sum(recorder.self_s.values()) == pytest.approx(duration)
    assert duration <= total


def test_workload_inputs():
    assert len(workloads.symmetric_vectors(20)) == 87
    sizes = [len(workloads.expected_sweep_params(f)) for f in workloads.FAMILIES]
    assert sizes == [25, 34, 12, 4]
    comps = workloads.eval_compositions(7)
    assert comps == workloads.eval_compositions(7)
    assert len(set(comps)) == len(comps) == 26
    assert all(c[-1] >= 2 and 4 <= sum(c) <= 16 for c in comps)
    assert {len(c) for c in comps[1::2]} == {2, 3, 4}
