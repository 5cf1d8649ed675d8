"""Byte-for-byte comparison of the command line against a recorded corpus.

`tests/golden/cli.json` holds, for each recorded call of `multizeta.cli.main`,
its arguments, exit code, stdout and stderr.  `tests/golden/sweep_params.jsonl`
holds the parameter list every family sweeps at each weight cap from 4 to 24,
which pins the row order of large sweeps without running them.
`tests/golden/demos.json` holds the exit code and stdout of every script in
`demos/`, each run as its own process.

The corpus is the behaviour contract: a refactor must leave it unchanged.
A change that alters output on purpose regenerates it with

    PYTHONPATH=src python tests/test_golden.py

and lists every changed record, with the reason, in its change notes.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from multizeta import cli
from multizeta.numerics import FAMILIES
from multizeta.words import weight_of

GOLDEN = Path(__file__).parent / "golden"
CLI_FILE = GOLDEN / "cli.json"
SWEEP_FILE = GOLDEN / "sweep_params.jsonl"
DEMOS_FILE = GOLDEN / "demos.json"
ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
SWEEP_CAPS = range(4, 25)
ENV_FLAGS = ("MULTIZETA_DIGITS", "MULTIZETA_WEIGHT_CAP")


def _sweep_params(family: str, weight_cap: int):
    return FAMILIES[family].sweep(weight_cap)


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def recorded_calls():
    """Argument vectors of the corpus, in recording order."""
    calls = []
    for family in FAMILIES:
        sweep = ["check", "--family", family, "--sweep", "--digits", "30"]
        calls.append(sweep + ["--weight-cap", "10"])
        for fmt in ("csv", "text"):
            calls.append(sweep + ["--weight-cap", "8", "--format", fmt])
    calls.append(["check", "--family", "symmetric", "--sweep", "--weight-cap", "8",
                  "--digits", "30", "--jobs", "2"])

    single = {
        "symmetric": [["--a", "1,0,0"], ["--a", "0,1,0", "--max-denominator", "1000"]],
        "cyclic": [["--a", "1,0,0"], ["--a", "0,0,1,0,0"]],
        "bowman-bradley": [["--n", "1", "--m", "2"], ["--n", "2", "--m", "0"]],
        "bbbl": [["--n", "1", "--m", "1"], ["--n", "2", "--m", "0"]],
    }
    for family, variants in single.items():
        for params in variants:
            base = ["check", "--family", family] + params + ["--digits", "30"]
            calls.append(base)
            calls.append(base + ["--format", "text"])
            calls.append(base + ["--format", "csv"])
    usage_errors = [
        ["--family", "symmetric"],
        ["--family", "cyclic"],
        ["--family", "bowman-bradley", "--n", "1"],
        ["--family", "bbbl", "--m", "1"],
        ["--family", "bowman-bradley", "--n", "0", "--m", "1"],
        ["--family", "bbbl", "--n", "0", "--m", "0"],
        ["--family", "bowman-bradley", "--n", "1", "--m", "-1"],
        ["--family", "bbbl", "--n", "1", "--m", "-1"],
        ["--family", "symmetric", "--a", "0,0"],
        ["--family", "cyclic", "--a", "1,0"],
        ["--family", "symmetric", "--a", "1,-1,0"],
        ["--family", "symmetric", "--a", "9,9,9"],
        ["--family", "cyclic", "--a", "3,3,3"],
        ["--family", "bowman-bradley", "--n", "3", "--m", "2"],
        ["--family", "bbbl", "--n", "2", "--m", "1"],
    ]
    calls.extend(["check"] + args for args in usage_errors)
    # weight 14: the proved closed form's denominator 15! is above 10^12, and within Q
    calls.append(["check", "--family", "bowman-bradley", "--n", "3", "--m", "1"])

    for entry in _sweep_params("symmetric", 16):
        for fmt in ("json", "text"):
            calls.append(["verify", "--a", _csv(entry["a"]), "--weight-cap", "16",
                          "--format", fmt])
    for entry in _sweep_params("symmetric", 20):
        if weight_of(tuple(entry["a"])) > 16:
            for fmt in ("json", "text"):
                calls.append(["verify", "--a", _csv(entry["a"]), "--weight-cap", "20",
                              "--format", fmt])
    calls.append(["verify", "--a", "0,1,0"])
    calls.append(["verify", "--a", "0,0"])
    calls.append(["verify", "--a", "9,9,9", "--weight-cap", "14"])

    calls.append(["eval", "--zeta", "1,3", "--digits", "40"])
    calls.append(["eval", "--zeta", "2,3", "--digits", "30", "--format", "text"])

    # the shipped defaults: cap 14 and 60 digits, each sweep as the benchmark runs it
    for family in FAMILIES:
        calls.append(["check", "--family", family, "--sweep", "--format", "json",
                      "--jobs", "1"])
    # closed forms at the largest default precision: zeta(w), and Euler's zeta(1, w-1)
    for w in range(4, 17):
        parts = (w,) if w % 2 == 0 else (1, w - 1)
        calls.append(["eval", "--zeta", _csv(parts), "--digits", "200", "--format", "json"])
    # depth 2 to 4 at 200 digits: the seed-drawn compositions of the eval
    # benchmark for seeds 1 to 3 that the closed forms above do not cover
    for parts in DRAWN_COMPOSITIONS:
        calls.append(["eval", "--zeta", _csv(parts), "--digits", "200", "--format", "json"])
    for parts in ((1, 1, 1, 1, 2), (2, 1, 2, 1, 3), (1, 2, 1, 2, 1, 2, 2)):
        for fmt in ("json", "text"):
            calls.append(["eval", "--zeta", _csv(parts), "--format", fmt])
    # every row up to weight 20 at the default precision; each reads back its
    # target under the default denominator cap, the row's certified Q
    for family in FAMILIES:
        calls.append(["check", "--family", family, "--sweep", "--weight-cap", "20",
                      "--format", "csv"])
    return calls


DRAWN_COMPOSITIONS = (
    (1, 1, 2), (1, 1, 1, 2), (4, 2), (4, 1, 2), (1, 1, 2, 4), (7, 2), (4, 3, 3),
    (1, 2, 5, 3), (4, 8), (2, 8, 3), (1, 5, 5, 3), (11, 4), (1, 8, 7), (3, 3),
    (2, 1, 4), (1, 1, 3, 3), (4, 5), (7, 1, 2), (5, 1, 3, 2), (8, 4), (5, 4, 4),
    (1, 5, 6, 2), (8, 7), (6, 1, 9), (1, 5), (3, 1, 3), (2, 3, 1, 2), (6, 3),
    (5, 3, 2), (4, 4, 1, 2), (3, 9), (3, 1, 9), (1, 6, 2, 5), (2, 11, 3),
)


def run_cli(argv):
    """Exit code, stdout and stderr of one in-process call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def run_demo(path: Path):
    """Exit code and stdout of one demo script, run in a child process."""
    src, inherited = str(ROOT / "src"), os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + inherited if inherited else "")}
    proc = subprocess.run(
        [sys.executable, str(path)], capture_output=True, text=True, env=env, cwd=ROOT
    )
    return {"code": proc.returncode, "stdout": proc.stdout}


def _load(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _sweep_lines():
    """One JSON line per family and cap, in family order, then cap order."""
    return [
        json.dumps({"family": family, "weight_cap": cap, "params": _sweep_params(family, cap)})
        for family in FAMILIES
        for cap in SWEEP_CAPS
    ]


@pytest.fixture
def clean_env(monkeypatch):
    for name in ENV_FLAGS:
        monkeypatch.delenv(name, raising=False)


# the corpus is read at collection; run as a script, this module rewrites it
RECORDS = _load(CLI_FILE) if __name__ != "__main__" else []
DEMO_RECORDS = _load(DEMOS_FILE) if __name__ != "__main__" else []


@pytest.mark.parametrize("record", RECORDS, ids=lambda record: " ".join(record["argv"]))
def test_cli_output_matches_corpus(record, clean_env):
    assert run_cli(record["argv"]) == {
        key: record[key] for key in ("code", "stdout", "stderr")
    }


def test_corpus_replays_without_mpmath():
    # every record again in a child where importing mpmath fails: no command
    # may reach it, and each output stays byte for byte the same
    script = (
        "import json, sys\n"
        "sys.modules['mpmath'] = None\n"
        "from test_golden import RECORDS, run_cli\n"
        "keys = ('code', 'stdout', 'stderr')\n"
        "changed = [r['argv'] for r in RECORDS if run_cli(r['argv']) != {k: r[k] for k in keys}]\n"
        "loaded = [n for n, m in sys.modules.items() if n.split('.')[0] == 'mpmath' and m]\n"
        "print(json.dumps([len(RECORDS), changed, loaded]))\n"
    )
    paths = [str(ROOT / "src"), str(Path(__file__).parent), os.environ.get("PYTHONPATH")]
    env = {name: value for name, value in os.environ.items() if name not in ENV_FLAGS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, paths))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, cwd=ROOT
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout) == [len(RECORDS), [], []]


CAP20_SWEEPS = [
    record for record in RECORDS
    if record["argv"][3:] == ["--sweep", "--weight-cap", "20", "--format", "csv"]
]


@pytest.mark.parametrize("record", CAP20_SWEEPS, ids=lambda record: record["argv"][2])
def test_parallel_sweep_matches_the_serial_record(record, clean_env):
    # weight groups run in two workers; the rows still come back in sweep order
    assert run_cli(record["argv"] + ["--jobs", "2"]) == {
        key: record[key] for key in ("code", "stdout", "stderr")
    }


def test_corpus_records_every_call():
    # a call added without re-recording, or dropped, shows here
    assert [record["argv"] for record in RECORDS] == recorded_calls()


def test_every_cap20_sweep_has_a_record():
    assert [record["argv"][2] for record in CAP20_SWEEPS] == list(FAMILIES)


def test_demo_list_matches_corpus():
    assert [record["demo"] for record in DEMO_RECORDS] == [path.name for path in DEMOS]


@pytest.mark.parametrize("record", DEMO_RECORDS, ids=lambda record: record["demo"])
def test_demo_output_matches_corpus(record):
    assert run_demo(ROOT / "demos" / record["demo"]) == {
        key: record[key] for key in ("code", "stdout")
    }


def test_sweep_params_match_corpus():
    recorded = SWEEP_FILE.read_text(encoding="utf-8").splitlines()
    assert len(recorded) == len(FAMILIES) * len(SWEEP_CAPS)
    for line, expected in zip(recorded, _sweep_lines()):
        assert line == expected


def write_corpus() -> None:
    for name in ENV_FLAGS:
        os.environ.pop(name, None)
    GOLDEN.mkdir(exist_ok=True)
    records = [{"argv": argv, **run_cli(argv)} for argv in recorded_calls()]
    CLI_FILE.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    demos = [{"demo": path.name, **run_demo(path)} for path in DEMOS]
    DEMOS_FILE.write_text(json.dumps(demos, indent=1) + "\n", encoding="utf-8")
    SWEEP_FILE.write_text("\n".join(_sweep_lines()) + "\n", encoding="utf-8")


if __name__ == "__main__":
    write_corpus()
