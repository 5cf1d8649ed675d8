import argparse
import csv
import dataclasses
import errno
import io
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from mpmath import mpf

from multizeta import cli, numerics
from multizeta.cli import main
from multizeta.numerics import (
    FAMILIES,
    MAX_EVAL_WEIGHT,
    check_cyclic_insertion,
    check_group,
    check_symmetric_sum,
)
from multizeta.verifier import InsertionInstance, build_instance
from multizeta.words import Composition
from test_golden import recorded_calls


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_success(capsys):
    code, out, err = run_cli(capsys, "verify", "--a", "1,0,0")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "verified"
    assert [c["r"] for c in payload["checks"]] == [3, 5]


def test_verify_text_format(capsys):
    code, out, _ = run_cli(capsys, "verify", "--a", "1,1,1", "--format", "text")
    assert code == 0
    assert "verdict: verified" in out
    assert out.count("check r=") == 4


# every place a block vector enters the package, as argv before the vector or a function
VECTOR_ENTRY_POINTS = {
    "verify": ["verify", "--a"],
    "check-symmetric": ["check", "--family", "symmetric", "--a"],
    "check-cyclic": ["check", "--family", "cyclic", "--a"],
    "build_instance": build_instance,
    "check_symmetric_sum": check_symmetric_sum,
    "check_cyclic_insertion": check_cyclic_insertion,
}


@pytest.mark.parametrize("vector, message", [
    ((0, 0), "a block vector has an odd number of entries, got 2"),
    ((1, -1, 0), "block vector entries must be >= 0, got -1"),
], ids=["odd-number", "negative-entry"])
@pytest.mark.parametrize("entry", list(VECTOR_ENTRY_POINTS))
def test_bad_block_vector_is_rejected_where_it_enters(capsys, entry, vector, message):
    point = VECTOR_ENTRY_POINTS[entry]
    if callable(point):
        with pytest.raises(ValueError) as exc:
            point(vector)
        assert str(exc.value) == message
    else:
        code, out, err = run_cli(capsys, *point, ",".join(map(str, vector)))
        assert (code, out, err) == (2, "", f"error: {message}\n")


def test_verify_weight_cap(capsys):
    code, _, err = run_cli(capsys, "verify", "--a", "9,9,9", "--weight-cap", "14")
    assert code == 2
    assert "cap" in err


def test_verify_weight_cap_precedes_instance_build(capsys, monkeypatch):
    def refuse(a):
        raise AssertionError("build_instance ran before the weight cap was checked")

    monkeypatch.setattr(cli, "build_instance", refuse)
    code, _, err = run_cli(capsys, "verify", "--a", ",".join(["0"] * 13))
    assert code == 2
    assert "cap" in err


_BROKEN_STDERR = (
    "r=3: phi image missing from the collection: ([0,1,0]; 1,0; 2,1) -> ([0,0,1]; 1,1; 2,0)\n"
    "r=3: phi image missing from the collection: ([0,1,0]; 1,1; 2,0) -> ([0,0,1]; 1,0; 2,1)\n"
    "r=3: residual term left=00101 right=01101 coefficient=-1\n"
    "r=3: residual term left=01001 right=01101 coefficient=1\n"
)

_BROKEN_STDOUT = {
    "json": """{
  "version": "cert-v1",
  "a": [
    1,
    0,
    0
  ],
  "n": 1,
  "weight": 6,
  "lambda": 2,
  "word_count": 2,
  "sign": -1,
  "checks": [
    {
      "r": 3,
      "windows": 8,
      "encodings": 6,
      "orbits": 2,
      "residual": 2,
      "encodings_sha256": "c4c422c85bfa398cd167133a17093ea1a036c2ba9a70854f9ac35709dccc7055",
      "failures": [
        "phi image missing from the collection: ([0,1,0]; 1,0; 2,1) -> ([0,0,1]; 1,1; 2,0)",
        "phi image missing from the collection: ([0,1,0]; 1,1; 2,0) -> ([0,0,1]; 1,0; 2,1)",
        "residual term left=00101 right=01101 coefficient=-1",
        "residual term left=01001 right=01101 coefficient=1"
      ]
    },
    {
      "r": 5,
      "windows": 4,
      "encodings": 0,
      "orbits": 0,
      "residual": 0,
      "encodings_sha256": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    }
  ],
  "verdict": "failed"
}
""",
    "text": """instance a=[1,0,0] n=1 weight=6 lambda=2 words=2 sign=-1
check r=3: windows=8 encodings=6 orbits=2 residual=2 FAILED
  ! phi image missing from the collection: ([0,1,0]; 1,0; 2,1) -> ([0,0,1]; 1,1; 2,0)
  ! phi image missing from the collection: ([0,1,0]; 1,1; 2,0) -> ([0,0,1]; 1,0; 2,1)
  ! residual term left=00101 right=01101 coefficient=-1
  ! residual term left=01001 right=01101 coefficient=1
check r=5: windows=4 encodings=0 orbits=0 residual=0 ok
verdict: failed
""",
}


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_verify_failed_certificate(capsys, monkeypatch, fmt):
    # no real instance fails, so the CLI is handed (1,0,0) with (0,0,1) dropped
    real = cli.build_instance

    def drop_001(a):
        inst = real(a)
        return InsertionInstance(inst.base, tuple(w for w in inst.words if w != (0, 0, 1)))

    monkeypatch.setattr(cli, "build_instance", drop_001)
    code, out, err = run_cli(capsys, "verify", "--a", "1,0,0", "--format", fmt)
    assert (code, out, err) == (1, _BROKEN_STDOUT[fmt], _BROKEN_STDERR)


def test_verify_output_file(tmp_path, capsys):
    target = tmp_path / "cert.json"
    code, out, _ = run_cli(capsys, "verify", "--a", "1,0,0", "--output", str(target))
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text())
    assert payload["a"] == [1, 0, 0]


@pytest.mark.parametrize("name", [".", "missing/cert.json"])
def test_unwritable_output_is_usage_error(tmp_path, capsys, name):
    # a directory, or a file in a directory that does not exist
    target = tmp_path / name
    code, out, err = run_cli(capsys, "verify", "--a", "1,0,0", "--output", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["verify", "--a", "1,0,0"],
    ["eval", "--zeta", "1,3"],
    ["check", "--family", "symmetric", "--sweep", "--weight-cap", "16"],
])
def test_unwritable_output_fails_before_the_work(tmp_path, capsys, monkeypatch, argv):
    def refuse(*args):
        raise AssertionError("work started before --output was checked")

    for name in ("check_group", "build_instance", "eval_mzv_fast", "eval_mzv_series"):
        monkeypatch.setattr(cli, name, refuse)
    target = tmp_path / "missing" / "out.json"
    code, out, err = run_cli(capsys, *argv, "--output", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {target}: ") and err.count("\n") == 1


def test_write_failure_after_the_probe_is_usage_error(tmp_path, capsys, monkeypatch):
    # the probe can pass and the write still fail; `_write` reports it the same way
    monkeypatch.setattr(cli, "_check_writable", lambda output: None)
    code, out, err = run_cli(capsys, "verify", "--a", "1,0,0", "--output", str(tmp_path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {tmp_path}: ") and err.count("\n") == 1


needs_dev_full = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")


@needs_dev_full
@pytest.mark.parametrize("argv", [
    ["verify", "--a", "1,0,0"],
    ["eval", "--zeta", "2"],
    ["check", "--family", "bbbl", "--n", "1", "--m", "0"],
])
def test_full_device_is_usage_error(capsys, argv):
    # /dev/full opens, then refuses the write: exit 2, not the 1 of a failed
    # certificate or of disagreeing engines
    code, out, err = run_cli(capsys, *argv, "--output", "/dev/full")
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write /dev/full: ") and err.count("\n") == 1


@needs_dev_full
@pytest.mark.parametrize("unbuffered", [None, "1"])
def test_full_stdout_is_usage_error(unbuffered):
    # buffered, the report stays in stdout's buffer after the failed flush, and
    # the interpreter flushes it once more at exit, which must not fail again
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "multizeta.cli", "verify", "--a", "1,0,0"],
            stdout=full, stderr=subprocess.PIPE, text=True, env=env,
        )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: cannot write stdout: ")
    assert proc.stderr.count("\n") == 1


class _FullStream(io.StringIO):
    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def test_stdout_write_failure_is_usage_error(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdout", _FullStream())
    code = main(["verify", "--a", "1,0,0"])
    assert code == 2
    assert capsys.readouterr().err == f"error: cannot write stdout: {os.strerror(errno.ENOSPC)}\n"


def test_failed_command_leaves_output_unchanged(tmp_path, capsys):
    existing = tmp_path / "report.json"
    existing.write_text("earlier report\n")
    fresh = tmp_path / "fresh.json"
    for target in (existing, fresh):
        code, _, err = run_cli(
            capsys, "check", "--family", "symmetric", "--a", "9,9,9",
            "--weight-cap", "14", "--output", str(target),
        )
        assert code == 2
        assert "cap" in err
    assert existing.read_text() == "earlier report\n"
    assert not fresh.exists()


def test_failed_command_through_dangling_symlink_creates_no_file(tmp_path, capsys):
    target = tmp_path / "target.json"
    link = tmp_path / "link"
    link.symlink_to(target)
    code, _, err = run_cli(
        capsys, "check", "--family", "symmetric", "--a", "9,9,9",
        "--weight-cap", "14", "--output", str(link),
    )
    assert code == 2
    assert "cap" in err
    assert link.is_symlink()
    assert not target.exists()


def test_verify_deterministic_bytes(capsys):
    _, first, _ = run_cli(capsys, "verify", "--a", "1,0,0")
    _, second, _ = run_cli(capsys, "verify", "--a", "1,0,0")
    assert first == second


def test_eval_json(capsys):
    code, out, _ = run_cli(capsys, "eval", "--zeta", "1,3", "--digits", "40")
    assert code == 0
    payload = json.loads(out)
    assert payload["composition"] == [1, 3]
    assert payload["value"].startswith("0.2705808084277845")
    assert payload["engine_agreement_digits"] >= 4


def test_eval_text(capsys):
    code, out, _ = run_cli(capsys, "eval", "--zeta", "2", "--digits", "30", "--format", "text")
    assert code == 0
    assert out.startswith("zeta(2) = 1.644934066848226436")
    assert "engines agree" in out


def test_eval_agreement_never_exceeds_the_digits_asked_for(capsys):
    # zeta(8)'s lower ends differ by under 10^-26, which once read as 26 digits
    # of agreement, more than the 20 that equal ends report
    code, out, _ = run_cli(capsys, "eval", "--zeta", "8", "--digits", "20")
    assert code == 0
    assert json.loads(out)["engine_agreement_digits"] == 20


def test_eval_fails_closed_when_the_engines_disagree(capsys, monkeypatch):
    split = cli.eval_mzv_fast

    def perturbed(c, digits):
        low, high, exponent = split(c, digits)
        shift = -(-(1 << exponent) // 1000)  # 10^-3, rounded up to a unit
        return low + shift, high + shift, exponent

    monkeypatch.setattr(cli, "eval_mzv_fast", perturbed)
    code, out, err = run_cli(capsys, "eval", "--zeta", "1,3", "--digits", "20")
    assert code == 1
    assert out == ""
    first, *intervals = err.splitlines()
    assert first == "error: the engines' intervals are disjoint"
    ends = {}
    for line in intervals:
        name, interval = line.split(": ")
        low, high = map(mpf, interval.strip("[]").split(", "))
        ends[name] = (low, high)
    assert list(ends) == ["fast", "oracle"]
    # zeta(1,3) = pi^4 / 360 = 0.2705808084277845..., which the fast engine missed
    exact = mpf("0.2705808084277845478790")
    assert ends["oracle"][0] < exact < ends["oracle"][1] < ends["fast"][0]
    assert abs(ends["fast"][1] - exact - mpf(10) ** -3) < mpf(10) ** -12


@pytest.mark.parametrize("side", ["above", "below"])
def test_eval_intervals_sharing_one_end_do_not_fail_closed(capsys, monkeypatch, side):
    # a fast interval as wide as the oracle's, next to it, with one end in common
    low, high, exponent = numerics.eval_mzv_series(Composition((1, 3)), cli.ORACLE_TERMS)
    width = high - low
    touching = (high, high + width) if side == "above" else (low - width, low)
    monkeypatch.setattr(cli, "eval_mzv_fast", lambda c, digits: (*touching, exponent))
    code, out, err = run_cli(capsys, "eval", "--zeta", "1,3", "--digits", "20")
    assert (code, err) == (0, "")
    # the two values are one oracle width apart
    assert json.loads(out)["engine_agreement_digits"] == numerics.zero_places(
        Fraction(width, 1 << exponent))
    # one unit further out, the intervals are disjoint
    step = 1 if side == "above" else -1
    apart = (touching[0] + step, touching[1] + step, exponent)
    monkeypatch.setattr(cli, "eval_mzv_fast", lambda c, digits: apart)
    code, out, err = run_cli(capsys, "eval", "--zeta", "1,3", "--digits", "20")
    assert (code, out) == (1, "")
    assert err.startswith("error: the engines' intervals are disjoint\n")


def test_eval_divergent_exits_2(capsys):
    code, _, err = run_cli(capsys, "eval", "--zeta", "2,1")
    assert code == 2
    assert "diverges" in err
    code, _, err = run_cli(capsys, "eval", "--zeta", "3,1")
    assert code == 2


def test_eval_digits_cap(capsys):
    code, out, err = run_cli(capsys, "eval", "--zeta", "2", "--digits", "201")
    assert code == 2
    assert out == ""
    assert err == "error: precision request 201 exceeds the cap 200\n"


def test_eval_weight_cap_precedes_both_engines(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("an engine ran before the weight was checked")

    monkeypatch.setattr(cli, "eval_mzv_fast", refuse)
    monkeypatch.setattr(cli, "eval_mzv_series", refuse)
    code, out, err = run_cli(capsys, "eval", "--zeta", f"1,{MAX_EVAL_WEIGHT}")
    assert (code, out) == (2, "")
    assert err == f"error: weight {MAX_EVAL_WEIGHT + 1} exceeds the cap {MAX_EVAL_WEIGHT}\n"
    monkeypatch.undo()
    code, out, _ = run_cli(capsys, "eval", "--zeta", str(MAX_EVAL_WEIGHT))
    assert code == 0
    assert json.loads(out)["composition"] == [MAX_EVAL_WEIGHT]


def test_eval_refuses_a_huge_composition_at_once():
    # 50,000 parts of 2: depth 400 took 28 s and each doubling about 4x more,
    # so the oracle would run for days; the alarm's default action kills the
    # child if the refusal comes late
    script = (
        "import signal; signal.alarm(10)\n"
        "import sys; from multizeta.cli import main\n"
        "sys.exit(main(['eval', '--zeta', ','.join(['2'] * 50000)]))\n"
    )
    proc = run_child(script)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: weight 100000 exceeds the cap {MAX_EVAL_WEIGHT}\n"


def run_child(script):
    """`python -c script` in a fresh interpreter that imports this source tree."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    inherited = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + inherited if inherited else "")}
    return subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)


def test_no_command_imports_mpmath():
    # every command computes in integers, and the package never imports mpmath
    script = (
        "import contextlib, io, sys\n"
        "from multizeta.cli import main\n"
        "calls = [['verify', '--a', '1,0,0'],\n"
        "         ['check', '--family', 'bbbl', '--n', '1', '--m', '1'],\n"
        "         ['check', '--family', 'cyclic', '--sweep', '--weight-cap', '8'],\n"
        "         ['eval', '--zeta', '1,3']]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(argv) for argv in calls]\n"
        "print(codes, sorted(name for name in sys.modules if name.split('.')[0] == 'mpmath'))\n"
    )
    proc = run_child(script)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[0, 0, 0, 0] []\n", "")


def test_eval_bad_tokens_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--zeta", "1,x"])
    assert exc.value.code == 2


def test_digits_floor_enforced(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--zeta", "2", "--digits", "10"])
    assert exc.value.code == 2


@pytest.mark.parametrize("name, value, argv, flag, floor", [
    ("MULTIZETA_WEIGHT_CAP", "2", ["verify", "--a", "1,0,0"], "--weight-cap", 4),
    ("MULTIZETA_DIGITS", "5", ["eval", "--zeta", "2"], "--digits", 20),
])
def test_floor_error_names_where_the_value_came_from(capsys, monkeypatch, name, value, argv,
                                                     flag, floor):
    monkeypatch.setenv(name, value)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        f"error: {name} must be at least {floor}, got {value}\n")
    # a flag below its floor is named as the flag, whatever the variable holds
    with pytest.raises(SystemExit) as exc:
        main(argv + [flag, "3"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: {flag} must be at least {floor}, got 3\n")


@pytest.mark.parametrize("argv", [
    ["verify", "--a", "1,0,0", "--digits", "40"],
    ["verify", "--a", "1,0,0", "--max-denominator", "1000"],
    ["eval", "--zeta", "1,3", "--weight-cap", "20"],
    ["eval", "--zeta", "1,3", "--max-denominator", "1000"],
])
def test_unread_settings_are_not_flags(argv, capsys):
    # verify never evaluates and eval never reads back a rational or caps a weight
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_check_single_json(capsys):
    code, out, _ = run_cli(
        capsys, "check", "--family", "bbbl", "--n", "1", "--m", "1", "--digits", "40"
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["status"] == "conjectural-match"
    assert rep["reconstructed"] == {"num": 1, "den": 119750400}


def test_check_missing_params_usage_error(capsys):
    code, _, err = run_cli(capsys, "check", "--family", "bbbl")
    assert code == 2
    assert "--n" in err
    code, _, err = run_cli(capsys, "check", "--family", "symmetric")
    assert code == 2
    assert "--a" in err


@pytest.mark.parametrize("params, message", [
    (["--sweep", "--n", "1", "--m", "0"], "--sweep does not read --n and --m"),
    (["--sweep", "--a", "1,0,0"], "--sweep does not read --a"),
    (["--n", "1", "--m", "0", "--a", "1,0,0"], "--family bbbl does not read --a"),
])
def test_check_rejects_unread_params(capsys, params, message):
    code, out, err = run_cli(capsys, "check", "--family", "bbbl", *params)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_check_sweep_csv(capsys):
    code, out, _ = run_cli(
        capsys, "check", "--family", "bowman-bradley", "--sweep",
        "--weight-cap", "8", "--digits", "30", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("family,params,weight,pi_power,digits,value")
    assert len(lines) == 1 + 4  # (1,0) (1,1) (1,2) (2,0)
    assert all("verified-rational" in line for line in lines[1:])


# the cap-20 sweeps read back 201 fractions other than their target at 20
# digits and 66 at 30 digits under a 10^30 cap, and the weight-44 bbbl row
# 0/1, each from a fixed tolerance that ignored the row's derived bound;
# with no --max-denominator, the cap is each row's Q and no row declines up
# to weight 34, where the old default of 10^12 declined 16 of 75 rows at cap 14
@pytest.mark.parametrize("family, settings", [
    *(pytest.param(family, ("20", "20", "1000000000000"), id=f"{family}-20d")
      for family in FAMILIES),
    *(pytest.param(family, ("20", "30", str(10**30)), id=f"{family}-30d-den1e30")
      for family in FAMILIES),
    pytest.param("bbbl", ("44", "60", str(10**60)), id="bbbl-cap44-den1e60"),
    *(pytest.param(family, (cap, "60", None), id=f"{family}-cap{cap}-default-den")
      for cap in ("14", "20") for family in FAMILIES),
    pytest.param("bbbl", ("64", "60", None), id="bbbl-cap64-default-den"),
])
def test_sweep_reads_back_no_fraction_but_the_target(capsys, family, settings):
    cap, digits, denominator = settings
    flag = [] if denominator is None else ["--max-denominator", denominator]
    code, out, _ = run_cli(
        capsys, "check", "--family", family, "--sweep", "--weight-cap", cap,
        "--digits", digits, *flag, "--format", "csv",
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows
    misses = [row["params"] for row in rows if row["reconstructed"] != row["target"]]
    declined = [row["params"] for row in rows if row["reconstructed"] == ""]
    # a row may decline, never read back another fraction
    assert misses == declined
    if denominator is None:
        # at Q a bbbl target's denominator, about (w + 1)!, outgrows the
        # certified digits from weight 36 on; below that no row declines
        assert declined == [row["params"] for row in rows if int(row["weight"]) >= 36]


def test_bowman_bradley_reads_back_every_proved_target_to_weight_20_at_20_digits(capsys):
    # the readback floor at 20 digits: only (n = 5, m = 0), weight 20, declines;
    # a truncation degree without its step-8 rule turns 4 more rows of weight 20
    # into no-reconstruction
    code, out, _ = run_cli(
        capsys, "check", "--family", "bowman-bradley", "--sweep", "--weight-cap", "20",
        "--digits", "20", "--format", "csv",
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 25
    missed = [row["params"] for row in rows
              if (row["reconstructed"], row["status"]) != (row["target"], "verified-rational")]
    assert missed == ["m=0;n=5"]


# from about weight 56 at 20 digits, and 80 at 60, the certified interval of
# a row's ratio reaches down to 0, and 0/1 was read back as verified-rational
@pytest.mark.parametrize("argv", [
    pytest.param(("--family", "bbbl", "--n", "14", "--m", "0", "--digits", "20",
                  "--weight-cap", "56"), id="bbbl-w56-20d"),
    pytest.param(("--family", "symmetric", "--a", "40,0,0", "--weight-cap", "200"),
                 id="symmetric-w84"),
    pytest.param(("--family", "bowman-bradley", "--n", "1", "--m", "39", "--weight-cap", "84"),
                 id="bowman-bradley-w82"),
    pytest.param(("--family", "bbbl", "--sweep", "--weight-cap", "84"), id="bbbl-sweep-cap84"),
])
def test_interval_reaching_zero_reads_nothing_back(capsys, argv):
    code, out, _ = run_cli(capsys, "check", *argv, "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows
    # every family sum is positive, so 0/1, or any fraction but the target, is wrong
    assert [row["params"] for row in rows if row["reconstructed"] not in ("", row["target"])] == []
    if "--sweep" not in argv:
        [row] = rows
        assert (row["reconstructed"], row["status"]) == ("", "no-reconstruction")


def test_check_sweep_json_is_array(capsys):
    code, out, _ = run_cli(
        capsys, "check", "--family", "cyclic", "--sweep",
        "--weight-cap", "6", "--digits", "30",
    )
    assert code == 0
    reports = json.loads(out)
    assert isinstance(reports, list)
    assert [rep["params"]["a"] for rep in reports] == [[0, 0, 0], [0, 0, 1]]


def test_check_sweep_jobs_match_serial(capsys):
    args = [
        "check", "--family", "symmetric", "--sweep",
        "--weight-cap", "6", "--digits", "30",
    ]
    _, serial, _ = run_cli(capsys, *args)
    _, parallel, _ = run_cli(capsys, *args, "--jobs", "2")
    assert serial == parallel


class _SerialPool:
    """Stands in for ProcessPoolExecutor: records its size and the jobs it is
    handed, and maps in-process."""

    sizes = []
    jobs = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        items = list(items)
        self.jobs.extend(items)
        return map(fn, items)


@pytest.mark.parametrize("jobs, cap, rows, pool_sizes", [
    ("8", "6", 2, [2]),  # cyclic rows (0,0,0) and (0,0,1), one weight each
    ("3", "8", 5, [3]),
    ("8", "8", 5, [3]),  # the five rows fall in three weight groups: 4, 6 and 8
    ("4", "4", 1, []),   # one row runs in-process
])
def test_check_sweep_pool_never_exceeds_rows(capsys, monkeypatch, jobs, cap, rows, pool_sizes):
    monkeypatch.setattr(_SerialPool, "sizes", [])
    monkeypatch.setattr(_SerialPool, "jobs", [])
    monkeypatch.setattr(cli, "ProcessPoolExecutor", _SerialPool)
    code, out, _ = run_cli(
        capsys, "check", "--family", "cyclic", "--sweep", "--weight-cap", cap,
        "--digits", "30", "--jobs", jobs,
    )
    assert code == 0
    assert len(json.loads(out)) == rows
    assert _SerialPool.sizes == pool_sizes


def test_check_sweep_hands_out_the_heaviest_job_first(capsys, monkeypatch):
    monkeypatch.setattr(_SerialPool, "sizes", [])
    monkeypatch.setattr(_SerialPool, "jobs", [])
    monkeypatch.setattr(cli, "ProcessPoolExecutor", _SerialPool)
    code, out, _ = run_cli(
        capsys, "check", "--family", "cyclic", "--sweep", "--weight-cap", "8",
        "--digits", "30", "--jobs", "3",
    )
    assert code == 0
    # one job per weight, 8, 6 and 4, each with its rows in sweep order
    assert _SerialPool.jobs == [
        [{"a": [0, 0, 2]}, {"a": [0, 1, 1]}, {"a": [0, 0, 0, 0, 0]}],
        [{"a": [0, 0, 1]}],
        [{"a": [0, 0, 0]}],
    ]
    # and the reports come back in sweep order
    assert [rep["params"] for rep in json.loads(out)] == FAMILIES["cyclic"].sweep(8)


# the defaults' sweep rows fall in this many weight groups: six weights each
# for the symmetric, cyclic and Bowman-Bradley sweeps, four for bbbl
DEFAULT_WEIGHT_GROUPS = 22


def sweep_every_family(capsys):
    for family in FAMILIES:
        code, _, _ = run_cli(capsys, "check", "--family", family, "--sweep")
        assert code == 0


def count_walks(monkeypatch):
    """A list that gets one entry per `_prefix_walk` call from now on."""
    walks = []
    walk = numerics._prefix_walk

    def counted(*args):
        walks.append(args[1:])
        return walk(*args)

    monkeypatch.setattr(numerics, "_prefix_walk", counted)
    return walks


def test_sweep_walks_prefixes_once_per_weight_group(capsys, monkeypatch):
    for env, *_ in cli.SETTINGS.values():
        if env is not None:
            monkeypatch.delenv(env, raising=False)
    walks = count_walks(monkeypatch)
    sweep_every_family(capsys)
    assert len(walks) == DEFAULT_WEIGHT_GROUPS  # one per row, 75, before grouping
    # a second identical call walks as much again: nothing is kept across calls
    walks.clear()
    sweep_every_family(capsys)
    assert len(walks) == DEFAULT_WEIGHT_GROUPS
    assert numerics._open_group is None


def test_sweep_parses_each_row_twice(capsys, monkeypatch):
    # once in `cmd_check` for the row's weight, once in `check_group`; each
    # check takes its row's parse by position instead of parsing it again
    for env, *_ in cli.SETTINGS.values():
        if env is not None:
            monkeypatch.delenv(env, raising=False)
    parses = []
    for family, spec in FAMILIES.items():
        def counted(*args, parse=spec.parse, **kwargs):
            parses.append(args or kwargs)
            return parse(*args, **kwargs)

        monkeypatch.setitem(FAMILIES, family, dataclasses.replace(spec, parse=counted))
    sweep_every_family(capsys)
    rows = sum(len(spec.sweep(numerics.DEFAULT_WEIGHT_CAP)) for spec in FAMILIES.values())
    assert rows == 75
    assert len(parses) == 2 * rows == 150


def test_sweep_walks_prefixes_inside_a_check(capsys, monkeypatch):
    # wrap each check_* by name, as the benchmark does, so that the walk's
    # time stays booked to a row's check in a traced run
    depth = []
    inside = []

    def wrapped(check):
        def wrapper(*args, **kwargs):
            depth.append(check.__name__)
            try:
                return check(*args, **kwargs)
            finally:
                depth.pop()

        return wrapper

    for spec in FAMILIES.values():
        monkeypatch.setattr(numerics, spec.check, wrapped(getattr(numerics, spec.check)))
    walk = numerics._prefix_walk

    def located(*args):
        inside.append(bool(depth))
        return walk(*args)

    monkeypatch.setattr(numerics, "_prefix_walk", located)
    for family in FAMILIES:
        code, _, _ = run_cli(
            capsys, "check", "--family", family, "--sweep", "--weight-cap", "10",
            "--digits", "30",
        )
        assert code == 0
    assert inside and all(inside)


def test_weight_group_serves_only_its_own_rows(monkeypatch):
    rows = FAMILIES["cyclic"].sweep(8)[2:4]  # (0,0,2) and (0,1,1), both of weight 8
    alone = [check_cyclic_insertion(row["a"], 30) for row in rows]
    walks = count_walks(monkeypatch)
    assert check_group("cyclic", rows, 30) == alone
    assert len(walks) == 1
    assert numerics._open_group is None
    # the same rows as the CLI spells `--a`: the group is keyed by parsed rows
    walks.clear()
    assert check_group("cyclic", [{"a": tuple(row["a"])} for row in rows], 30) == alone
    assert len(walks) == 1
    # a group that lists one row twice, and one in reverse sweep order
    for listed, expected in ((rows[:1] * 2, alone[:1] * 2), (rows[::-1], alone[::-1])):
        walks.clear()
        assert check_group("cyclic", listed, 30) == expected
        assert len(walks) == 1
        assert numerics._open_group is None

    # inside the group, a row it does not list, or another precision, walks alone
    def with_others(a, digits, *rest):
        check_cyclic_insertion([0, 0, 1], 30)
        assert check_cyclic_insertion(rows[0]["a"], 25)["digits"] == 25
        return check_cyclic_insertion(a, digits, *rest)

    monkeypatch.setattr(numerics, "check_cyclic_insertion", with_others)
    walks.clear()
    assert check_group("cyclic", rows, 30) == alone
    assert len(walks) == 1 + 2 * len(rows)

    # the running row's check, called twice, takes its share twice; the same
    # row spelled as another object is parsed and walked alone
    def twice(a, *rest):
        first = check_cyclic_insertion(a, *rest)
        assert check_cyclic_insertion(a, *rest) == first
        return first

    def respelled(a, *rest):
        assert check_cyclic_insertion(list(a), *rest) == check_cyclic_insertion(a, *rest)
        return check_cyclic_insertion(a, *rest)

    for rebound, walked in ((twice, 1), (respelled, 1 + len(rows))):
        monkeypatch.setattr(numerics, "check_cyclic_insertion", rebound)
        walks.clear()
        assert check_group("cyclic", rows, 30) == alone
        assert len(walks) == walked
        assert numerics._open_group is None
    monkeypatch.undo()

    # rows of weights 4 and 6 are refused before any row is expanded
    def expanded(vector):
        raise AssertionError(f"expanded {vector}")

    monkeypatch.setattr(numerics, "blockvector_to_word", expanded)
    with pytest.raises(ValueError, match=r"a weight group needs rows of one weight, got \[4, 6\]"):
        check_group("cyclic", FAMILIES["cyclic"].sweep(6), 30)
    assert numerics._open_group is None


def test_check_deterministic_bytes(capsys):
    args = ["check", "--family", "symmetric", "--a", "1,0,0", "--digits", "40"]
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_env_override_digits(capsys, monkeypatch):
    monkeypatch.setenv("MULTIZETA_DIGITS", "25")
    code, out, _ = run_cli(capsys, "check", "--family", "bowman-bradley",
                           "--n", "1", "--m", "0")
    assert code == 0
    assert json.loads(out)["digits"] == 25


def test_env_override_weight_cap(capsys, monkeypatch):
    monkeypatch.setenv("MULTIZETA_WEIGHT_CAP", "4")
    code, _, err = run_cli(capsys, "check", "--family", "symmetric", "--a", "1,0,0")
    assert code == 2
    assert "cap" in err


def test_explicit_flag_beats_env(capsys, monkeypatch):
    monkeypatch.setenv("MULTIZETA_DIGITS", "25")
    code, out, _ = run_cli(capsys, "check", "--family", "bowman-bradley",
                           "--n", "1", "--m", "0", "--digits", "30")
    assert code == 0
    assert json.loads(out)["digits"] == 30


def test_bad_env_value_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("MULTIZETA_DIGITS", "lots")
    code, _, err = run_cli(capsys, "eval", "--zeta", "2")
    assert code == 2
    assert "MULTIZETA_DIGITS" in err


@pytest.mark.parametrize("name, value, argv", [
    ("MULTIZETA_DIGITS", "lots", ["verify", "--a", "1,0,0"]),
    ("MULTIZETA_WEIGHT_CAP", "x", ["eval", "--zeta", "2"]),
])
def test_bad_env_value_of_an_unread_setting_is_ignored(capsys, monkeypatch, name, value, argv):
    monkeypatch.delenv(name, raising=False)
    _, expected, _ = run_cli(capsys, *argv)
    monkeypatch.setenv(name, value)
    code, out, err = run_cli(capsys, *argv)
    assert code == 0
    assert out == expected
    assert err == ""


@pytest.mark.parametrize("name", ["MULTIZETA_DIGITS", "MULTIZETA_WEIGHT_CAP"])
def test_help_ignores_bad_env_value(capsys, monkeypatch, name):
    monkeypatch.setenv(name, "x")
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "usage: multizeta" in capsys.readouterr().out


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "multizeta.cli", "verify", "--a", "1,0,0"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["verdict"] == "verified"


# every way argparse output reaches the user: top-level and command help,
# unrecognized arguments, a setting below its floor, no or an unknown command
PARSER_OUTPUTS = [
    [], ["bogus"], ["--help"], ["verify", "--help"], ["eval", "--help"], ["check", "--help"],
    ["verify", "--a", "1,0,0", "--bogus"],
    ["eval", "--zeta", "1,3", "extra"],
    ["verify", "--weight-cap", "2", "--a", "1,0,0"],
    ["check", "--family", "bbbl", "--n", "1", "--m", "0", "--digits", "3"],
]
# the full parser's own errors, which a metavar on it would reword
NAMES_COMMAND = {
    (): "the following arguments are required: command",
    ("bogus",): "argument command: invalid choice",
}


def test_one_command_parser_parses_every_recorded_call_as_the_full_one():
    for argv in recorded_calls():
        one = cli.build_parser(argv[0]).parse_args(argv)
        assert vars(one) == vars(cli.build_parser().parse_args(argv)), argv


@pytest.mark.parametrize("argv", PARSER_OUTPUTS, ids=lambda argv: " ".join(argv) or "none")
def test_one_command_parser_prints_as_the_full_one(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    for env, *_ in cli.SETTINGS.values():
        if env is not None:
            monkeypatch.delenv(env, raising=False)

    def outcome():
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        return (code, *capsys.readouterr())

    built = outcome()
    full = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: full())
    assert outcome() == built
    assert built[0] in (0, 2)
    assert NAMES_COMMAND.get(tuple(argv), "") in built[2]


@pytest.mark.parametrize("argv", [
    ["verify", "--a", "1,0,0"],
    ["eval", "--zeta", "1,3", "--digits", "20"],
    ["check", "--family", "bbbl", "--n", "1", "--m", "0", "--digits", "20"],
], ids=lambda argv: argv[0])
def test_a_call_registers_only_its_own_command(capsys, monkeypatch, argv):
    registered = []
    add_parser = argparse._SubParsersAction.add_parser

    def counted(self, name, **kwargs):
        registered.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
    code, _, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert registered == [argv[0]]
    registered.clear()
    with pytest.raises(SystemExit):
        main(["--help"])
    assert registered == list(cli.COMMANDS)


def test_main_without_argv_reads_the_command_from_sys_argv(capsys, monkeypatch):
    built = []
    build = cli.build_parser

    def recorded(command=None):
        built.append(command)
        return build(command)

    monkeypatch.setattr(cli, "build_parser", recorded)
    monkeypatch.setattr(sys, "argv", ["multizeta", "verify", "--a", "1,0,0", "--format", "text"])
    assert main() == 0
    assert "verdict: verified" in capsys.readouterr().out
    monkeypatch.setattr(sys, "argv", ["multizeta", "bogus"])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 2
    assert "argument command: invalid choice" in capsys.readouterr().err
    assert built == ["verify", None]
