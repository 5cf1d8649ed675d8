"""One workload pass in a fresh interpreter.

Usage: python3 bench/child.py SPEC_JSON

The spec names the source root, the CLI calls, whether to trace, a sink
directory for worker spans and the path of the result file.  Importing
the package happens before the clock starts; `wall_s` covers the CLI calls
only.  Outputs are captured from stdout and returned with per-call exit
codes, so the parent checks them outside the timed region.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path


def _rusage():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, max(own.ru_maxrss, kids.ru_maxrss)


def _targets(recorder, traced: bool):
    """(module, function, layer, hook) for every span the pass records."""
    from multizeta import cli, coaction, encodings, numerics, verifier

    rows = [
        (numerics, name, "numerics.check", None)
        for name in ("check_symmetric_sum", "check_bowman_bradley",
                     "check_bbbl_family", "check_cyclic_insertion")
    ]
    if not traced:
        return rows

    def fast_hook(args, kwargs, result):
        recorder.words.append(args[0].parts)
        return {"numerics.eval_mzv_fast.weight_sum": args[0].weight}

    def instance_hook(args, kwargs, result):
        return {"verifier.build_instance.words": len(result.words)}

    def certificate_hook(args, kwargs, result):
        checks = result.to_json_dict()["checks"]
        return {
            "verifier.windows": sum(c["windows"] for c in checks),
            "verifier.encodings": sum(c["encodings"] for c in checks),
            "verifier.orbits": sum(c["orbits"] for c in checks),
            "verifier.residual_terms": sum(c["residual"] for c in checks),
        }

    return rows + [
        (cli, "main", "cli", None),
        (numerics, "eval_mzv_fast", "numerics.eval_mzv_fast", fast_hook),
        (numerics, "eval_mzv_series", "numerics.eval_mzv_series", None),
        (numerics, "reconstruct_rational", "numerics.reconstruct_rational",
         lambda args, kwargs, result: {"numerics.reconstruct_rational.resolved": int(result is not None)}),
        (verifier, "build_instance", "verifier.build_instance", instance_hook),
        (verifier, "verify_instance", "verifier.verify_instance", certificate_hook),
        (verifier, "expansion_residual", "coaction.expansion", None),
        (coaction, "dr_terms", "coaction.expansion",
         lambda args, kwargs, result: {"coaction.expansion.terms": len(result)}),
        (coaction, "accumulate", "coaction.expansion", None),
        (encodings, "enumerate_odd_encodings", "encodings.enumerate_odd_encodings", None),
        (encodings, "subsequence_of", "encodings.subword_extract", None),
        (encodings, "quotient_of", "encodings.subword_extract", None),
    ]


def _time_the_pool(cli, recorder) -> None:
    """Give the time the main process spends inside the worker pool its own span."""
    base = cli.ProcessPoolExecutor

    class TimedPool(base):
        def __enter__(self):
            recorder.enter("cli.jobs.wait")
            return super().__enter__()

        def __exit__(self, *exc):
            try:
                return super().__exit__(*exc)
            finally:
                recorder.exit()

    cli.ProcessPoolExecutor = TimedPool


def run(spec: dict) -> dict:
    sys.path.insert(0, spec["src"])
    import multizeta
    import multizeta.cli as cli  # loads every module of the package before timing

    if not Path(multizeta.__file__).resolve().is_relative_to(Path(spec["src"]).resolve()):
        raise RuntimeError(f"imported multizeta from {multizeta.__file__}, not {spec['src']}")

    import spans

    sink = Path(spec["sink"])
    recorder = spans.Recorder(sink, row_layer="numerics.check")
    spans.install(recorder, _targets(recorder, spec["traced"]))
    if spec["traced"]:
        _time_the_pool(cli, recorder)

    outputs, codes, call_s = [], [], []
    cpu0, _ = _rusage()
    start = time.perf_counter()
    for argv in spec["calls"]:
        buf = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        call_s.append(time.perf_counter() - t0)
        outputs.append(buf.getvalue())
        codes.append(code)
    wall = time.perf_counter() - start
    cpu1, maxrss_kb = _rusage()

    main_self_s = sum(recorder.self_s.values())
    workers = recorder.merge_sink()
    return {
        "wall_s": wall,
        "cpu_s": cpu1 - cpu0,
        "peak_rss_mb": maxrss_kb / 1024,
        "call_s": call_s,
        "check_rows": recorder.rows,
        "self_s": recorder.self_s,
        "calls": dict(recorder.calls),
        "counters": dict(recorder.counters),
        "words": recorder.words,
        "main_self_s": main_self_s,
        "workers": workers,
        "outputs": outputs,
        "codes": codes,
    }


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    result = run(spec)
    Path(spec["out"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
