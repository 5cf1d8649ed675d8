"""Benchmark of the multizeta CLI: one workload, one seed, one run.

Usage (from the repository root):

    python3 bench/run.py --workload sweep-default --seed 1 --seconds 20 --trace 0

Every pass of a workload runs in a fresh interpreter (bench/child.py), so no
module-level state carries over between passes.  With `--trace 0` the run
repeats passes while another one fits in `--seconds` and reports the
end-to-end metrics as medians over passes.  With `--trace 1` it makes one
untraced and one traced pass and reports the per-layer metrics.  Set-up
time is measured separately, as the median of several fresh interpreters
importing `multizeta.cli`.

Every output is checked (bench/checks.py); a wrong answer prints a result
with `"correct": false` and exits 1.  Outputs must also be byte-identical
for identical CLI arguments (ignoring `--jobs`) on the same source tree,
across passes and across runs in the same checkout.  The last line of
stdout is one JSON object; lines before it give each metric with its unit,
the run context and the details behind the medians.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

import stats
import workloads
from checks import WrongAnswer, check_output

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RUN_LIMIT_S = 170  # the whole run must end within 180 s
SETUP_PROBES = 7
MAX_PASSES = 30

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "ok_share": "ratio",
    # Printed with the others, but left out of the result line and of
    # BENCHMARK.json: sub-second rows follow the host's speed drift more
    # closely than whole passes do, and their run-to-run spread exceeded
    # the largest bound the benchmark may set.
    "row_p50_s": "s",
    "row_tail_s": "s",
}
UNGATED = ("row_p50_s", "row_tail_s")


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def child_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("MULTIZETA_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def run_context() -> dict:
    import mpmath

    revision = None
    if (ROOT / ".git").exists():
        try:
            probe = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10,
            )
            revision = probe.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "git_revision": revision,
        "source_sha256": source_digest(),
        "loadavg_start": list(os.getloadavg()),
    }


def kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def setup_time() -> List[float]:
    """Seconds from spawning an interpreter to `multizeta.cli` being imported."""
    code = "import multizeta.cli; print('ready', flush=True)"
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", code], stdout=subprocess.PIPE, env=child_env(),
            cwd=ROOT, start_new_session=True, text=True,
        )
        try:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - start)
            proc.stdout.close()
            if proc.wait(timeout=30) != 0 or line.strip() != "ready":
                raise BenchError("importing multizeta.cli failed")
        finally:
            if proc.poll() is None:
                kill_group(proc)
    return samples


def run_pass(calls: List[List[str]], traced: bool, scratch: Path, index: int, deadline: float) -> dict:
    sink = scratch / f"sink-{index}"
    sink.mkdir()
    spec = {
        "src": str(SRC),
        "calls": calls,
        "traced": traced,
        "sink": str(sink),
        "out": str(scratch / f"pass-{index}.json"),
    }
    spec_path = scratch / f"spec-{index}.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "child.py"), str(spec_path)],
        stdout=sys.stderr, env=child_env(), cwd=ROOT, start_new_session=True,
    )
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        kill_group(proc)
        raise BenchError(f"pass {index} did not finish before the run's time limit")
    if code != 0:
        raise BenchError(f"pass {index} exited with code {code}")
    return json.loads(Path(spec["out"]).read_text(encoding="utf-8"))


def determinism_key(argv: List[str], digest: str) -> str:
    if "--jobs" in argv:
        i = argv.index("--jobs")
        argv = argv[:i] + argv[i + 2:]
    return hashlib.sha256(json.dumps([digest, argv]).encode()).hexdigest()


def check_determinism(calls: List[List[str]], passes: List[dict], digest: str) -> int:
    """Compare every output with the first one seen for the same arguments.

    The store lives in the checkout, so passes of later runs, and the
    `sweep-jobs2` outputs against `sweep-default`'s, are compared too.
    Returns the number of outputs compared with an earlier one.
    """
    store_path = WORK / "outputs.json"
    store = json.loads(store_path.read_text(encoding="utf-8")) if store_path.exists() else {}
    compared = 0
    for p in passes:
        for argv, text in zip(calls, p["outputs"]):
            key = determinism_key(argv, digest)
            out_hash = hashlib.sha256(text.encode()).hexdigest()
            if key in store:
                compared += 1
                if store[key] != out_hash:
                    raise WrongAnswer(f"{' '.join(argv)}: output differs from an earlier run")
            else:
                store[key] = out_hash
    tmp = store_path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(store, sort_keys=True), encoding="utf-8")
    os.replace(tmp, store_path)
    return compared


def row_times(workload: str, p: dict) -> Dict[str, float]:
    """Duration of each row of a pass, keyed by the row's identity."""
    if workload in workloads.ROWS_ARE_CALLS:
        return {str(i): t for i, t in enumerate(p["call_s"])}
    return dict(p["check_rows"])


def end_to_end(workload: str, passes: List[dict], setup: List[float], rows: int, failed: int) -> tuple:
    """Medians over passes; a row's time is its median over the passes."""
    per_pass = [row_times(workload, p) for p in passes]
    for times in per_pass:
        if len(times) != rows or times.keys() != per_pass[0].keys():
            raise BenchError(f"timed {len(times)} rows of {rows}; a row boundary was not wrapped")
    per_row = [statistics.median([times[key] for times in per_pass]) for key in per_pass[0]]
    tail = stats.tail(per_row)
    metrics = {
        "wall_s": statistics.median([p["wall_s"] for p in passes]),
        "cpu_s": statistics.median([p["cpu_s"] for p in passes]),
        "peak_rss_mb": statistics.median([p["peak_rss_mb"] for p in passes]),
        "setup_s": statistics.median(setup),
        "ok_share": (rows - failed) / rows,
        "row_p50_s": stats.quantile(per_row, 0.5),
        "row_tail_s": tail[0],
    }
    details = {
        "passes": len(passes),
        "rows_per_pass": rows,
        "row_tail_percentile": tail[1],
        "row_samples": tail[2],
        "failed_share": f"{failed}/{rows}",
        "setup_samples": len(setup),
        "pass_wall_s": [p["wall_s"] for p in passes],
    }
    return metrics, details


def per_layer(workload: str, plain: dict, traced: dict, serial: dict, jobs: int) -> dict:
    """Per-layer metrics of the traced pass; `plain` is an untraced pass of the
    same calls and `serial` one with `--jobs 1` (the same pass when jobs is 1)."""
    self_s, n_calls, counters = traced["self_s"], traced["calls"], traced["counters"]

    def s(layer):
        return self_s.get(layer, 0.0)

    def c(layer):
        return n_calls.get(layer, 0)

    resolved = counters.get("numerics.reconstruct_rational.resolved", 0)
    return {
        "numerics.eval_mzv_fast.self_s": s("numerics.eval_mzv_fast"),
        "numerics.eval_mzv_fast.calls": c("numerics.eval_mzv_fast"),
        "numerics.eval_mzv_fast.distinct_ratio": stats.distinct_ratio([tuple(w) for w in traced["words"]]),
        "numerics.eval_mzv_fast.weight_sum": counters.get("numerics.eval_mzv_fast.weight_sum", 0),
        "numerics.eval_mzv_series.self_s": s("numerics.eval_mzv_series"),
        "numerics.eval_mzv_series.calls": c("numerics.eval_mzv_series"),
        "numerics.reconstruct_rational.self_s": s("numerics.reconstruct_rational"),
        "numerics.reconstruct_rational.calls": c("numerics.reconstruct_rational"),
        "numerics.reconstruct_rational.resolved_ratio":
            resolved / c("numerics.reconstruct_rational") if c("numerics.reconstruct_rational") else 0.0,
        "numerics.check.self_s": s("numerics.check"),
        "verifier.build_instance.self_s": s("verifier.build_instance"),
        "verifier.build_instance.calls": c("verifier.build_instance"),
        "verifier.build_instance.words": counters.get("verifier.build_instance.words", 0),
        "verifier.verify_instance.self_s": s("verifier.verify_instance"),
        "verifier.windows": counters.get("verifier.windows", 0),
        "verifier.encodings": counters.get("verifier.encodings", 0),
        "verifier.orbits": counters.get("verifier.orbits", 0),
        "verifier.residual_terms": counters.get("verifier.residual_terms", 0),
        "encodings.enumerate_odd_encodings.self_s": s("encodings.enumerate_odd_encodings"),
        "encodings.enumerate_odd_encodings.calls": c("encodings.enumerate_odd_encodings"),
        "encodings.subword_extract.self_s": s("encodings.subword_extract"),
        "encodings.subword_extract.calls": c("encodings.subword_extract"),
        "coaction.expansion.self_s": s("coaction.expansion"),
        "coaction.expansion.terms": counters.get("coaction.expansion.terms", 0),
        "cli.self_s": s("cli"),
        "cli.jobs.wait_s": s("cli.jobs.wait"),
        "cli.jobs.efficiency": sum(row_times(workload, serial).values()) / (jobs * plain["wall_s"]),
        "trace.wall_s": traced["wall_s"],
        "trace.overhead_s": traced["wall_s"] - plain["wall_s"],
        "trace.unattributed_s": traced["wall_s"] - traced["main_self_s"],
    }


PER_LAYER_UNITS = {
    "self_s": "s", "wait_s": "s", "wall_s": "s", "overhead_s": "s", "unattributed_s": "s",
    "distinct_ratio": "ratio", "resolved_ratio": "ratio", "efficiency": "ratio",
}


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    return PER_LAYER_UNITS.get(name.rsplit(".", 1)[-1], "count")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def check_passes(calls: List[List[str]], passes: List[dict]) -> tuple:
    """Check every output of every pass; (rows, failed rows) of one pass."""
    counts = set()
    for p in passes:
        rows = failed = 0
        for argv, code, text in zip(calls, p["codes"], p["outputs"]):
            attempted, bad = check_output(argv, code, text)
            rows += attempted
            failed += bad
        counts.add((rows, failed))
    if len(counts) != 1:
        raise WrongAnswer(f"passes disagree on rows and failures: {sorted(counts)}")
    return counts.pop()


def measure(args: argparse.Namespace, calls: List[List[str]], scratch: Path) -> tuple:
    """Run, check and summarise; returns (metrics, details, attempted, failed)."""
    deadline = time.monotonic() + RUN_LIMIT_S
    setup = setup_time()
    digest = source_digest()

    passes: List[dict] = []
    start = time.monotonic()
    while len(passes) < MAX_PASSES:
        t0 = time.monotonic()
        passes.append(run_pass(calls, False, scratch, len(passes), deadline))
        last = time.monotonic() - t0
        now = time.monotonic()
        if args.trace or now - start + last > args.seconds or now + last > deadline:
            break
    rows, failed = check_passes(calls, passes)
    compared = check_determinism(calls, passes, digest)
    metrics, details = end_to_end(args.workload, passes, setup, rows, failed)
    details["outputs_compared_with_earlier"] = compared
    details["end_to_end"] = metrics
    if not args.trace:
        return metrics, details, rows * len(passes), failed * len(passes)

    traced = run_pass(calls, True, scratch, len(passes), deadline)
    serial = passes[0]
    jobs = workloads.jobs_of(calls[0])
    if jobs > 1:
        # parallel efficiency needs the same rows run serially
        serial_calls = workloads.command_lines("sweep-default", args.seed)
        serial = run_pass(serial_calls, False, scratch, len(passes) + 1, deadline)
        check_passes(serial_calls, [serial])
        check_determinism(serial_calls, [serial], digest)
    check_passes(calls, [traced])
    check_determinism(calls, [traced], digest)
    layers = per_layer(args.workload, passes[0], traced, serial, jobs)
    if abs(layers["trace.unattributed_s"]) > abs(layers["trace.overhead_s"]) + 0.01:
        raise BenchError("traced self times do not add up to the traced wall time")
    details["worker_processes"] = traced["workers"]
    return layers, details, rows * (len(passes) + 1), failed * (len(passes) + 1)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "multizeta" / "cli.py").is_file():
        print(f"error: no multizeta sources under {SRC}", file=sys.stderr)
        return 2
    context = run_context()
    calls = workloads.command_lines(args.workload, args.seed)
    WORK.mkdir(exist_ok=True)
    scratch = WORK / f"run-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir()
    try:
        metrics, details, attempted, failed = measure(args, calls, scratch)
    except WrongAnswer as exc:
        print(f"WRONG ANSWER: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": len(calls), "failed": 1, "metrics": {}}))
        return 1
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for name, value in metrics.items():
        note = "  (not gated)" if name in UNGATED else ""
        print(f"  {name:48s} {value:.6g} {unit_of(name)}{note}")
    print("context " + json.dumps(context))
    print("details " + json.dumps(details))
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit_of(name)}
            for name, value in metrics.items() if name not in UNGATED
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
