"""Command line front end.

Three subcommands cover the package's capabilities:

* ``verify --a 1,0,0`` emits a cancellation certificate (exit 0 when
  verified, 1 when any check fails, 2 on usage errors).
* ``eval --zeta 1,3 --digits 50`` evaluates one zeta value with the fast
  engine and reports how many digits the slow series oracle confirms; it
  exits 1, printing no value, when the two engines' intervals, both exact
  integers over a power of two, are disjoint (one shared end is not).
* ``check --family bbbl --n 1 --m 1`` runs a numeric rationality check and
  writes a report; ``--sweep`` iterates a whole family under the weight
  cap, optionally in parallel with ``--jobs``, the caller one of the processes.

Each call builds the parser of the invoked command alone; only help or an
unknown command builds all three.  Each command registers only the numeric
settings of `SETTINGS` it reads: ``MULTIZETA_DIGITS`` counts for ``eval`` and
``check``, ``MULTIZETA_WEIGHT_CAP`` for ``verify`` and ``check``, and an
explicit flag beats both; a value below its floor is reported under the flag
or variable it came from.  ``eval`` refuses more than `MAX_EVAL_DIGITS` digits
and a weight above `MAX_EVAL_WEIGHT`.  Output is deterministic for identical
inputs and configuration: fixed key order, no timestamps.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from fractions import Fraction
from functools import partial
from itertools import chain, groupby
from typing import Callable, List, Optional, Sequence, Tuple

from .numerics import (
    DEFAULT_DIGITS,
    DEFAULT_WEIGHT_CAP,
    FAMILIES,
    MAX_EVAL_DIGITS,
    MAX_EVAL_WEIGHT,
    check_group,
    eval_mzv_fast,
    eval_mzv_series,
    format_decimal,
    zero_places,
)
from .verifier import build_instance, verify_instance
from .words import Composition, format_vector

ORACLE_TERMS = 5000


# flag name: (environment variable or None, default or None, least value, help)
SETTINGS = {
    "digits": ("MULTIZETA_DIGITS", DEFAULT_DIGITS, 20, "working precision in decimal digits"),
    "max-denominator": (None, None, 1, "largest denominator accepted by rational "
                        "readback (default, and upper limit, each row's certified Q)"),
    "weight-cap": ("MULTIZETA_WEIGHT_CAP", DEFAULT_WEIGHT_CAP, 4,
                   "refuse instances above this weight"),
    "jobs": (None, 1, 1, "parallel worker processes for --sweep"),
}

# the parameter flags of `check`, in the order the families first use them
PARAMS = tuple(dict.fromkeys(p for family in FAMILIES.values() for p in family.params))


def _env_int(name: str) -> int:
    raw = os.environ[name]
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {raw!r}")


def _int_tuple(text: str) -> Tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _check_writable(output: Optional[str]) -> None:
    """Fail before any work when --output cannot be opened, changing no file."""
    if output is None:
        return
    existed = os.path.exists(output)  # a dangling symlink does not count
    try:
        open(output, "a", encoding="utf-8").close()  # append mode truncates nothing
    except OSError as exc:
        raise ValueError(f"cannot write {output}: {exc.strerror}") from None
    if not existed:
        os.remove(os.path.realpath(output))  # the probe's file, never a symlink


def _write(text: str, output: Optional[str]) -> None:
    """Write to `output`, else stdout; a failed open, write or flush is a usage error."""
    try:
        if output is None:
            sys.stdout.write(text)
            sys.stdout.flush()
        else:
            with open(output, "w", encoding="utf-8") as handle:
                handle.write(text)
    except OSError as exc:
        if output is None and sys.stdout is sys.__stdout__:  # drop its buffered bytes,
            os.dup2(os.open(os.devnull, os.O_WRONLY), 1)  # or the flush at exit fails again
        raise ValueError(f"cannot write {output or 'stdout'}: {exc.strerror or exc}") from None


def _add_shared_flags(
    sub: argparse.ArgumentParser, formats: Tuple[str, ...], *settings: str
) -> None:
    """`--output`, `--format` and the numeric settings the command reads, left for `main`."""
    for name in settings:
        env, default, _, text = SETTINGS[name]
        if default is not None:
            text += f" (default ${env}, else {default})" if env else f" (default {default})"
        sub.add_argument(f"--{name}", type=int, help=text)
    sub.add_argument("--output", default=None, help="write to this path instead of stdout")
    sub.add_argument(
        "--format",
        dest="fmt",
        choices=formats,
        default="json",
        help="output format (default %(default)s)",
    )


def _certificate_text(cert) -> str:
    inst = cert.instance
    lines = [
        f"instance a={format_vector(inst.base)} n={inst.n} weight={inst.weight} "
        f"lambda={inst.multiplicity} words={len(inst.words)} sign={inst.sign:+d}"
    ]
    for check in cert.checks:
        state = "ok" if check.ok else "FAILED"
        lines.append(
            f"check r={check.r}: windows={check.windows} "
            f"encodings={check.encodings} orbits={check.orbits} "
            f"residual={check.residual} {state}"
        )
        for failure in check.failures:
            lines.append(f"  ! {failure}")
    lines.append(f"verdict: {cert.verdict}")
    return "\n".join(lines) + "\n"


def cmd_verify(args: argparse.Namespace) -> int:
    # before build_instance, whose word count can reach (2n+1)!
    _, weight = FAMILIES["symmetric"].parse(args.a)
    if weight > args.weight_cap:
        raise ValueError(f"weight {weight} exceeds the cap {args.weight_cap}")
    cert = verify_instance(build_instance(args.a))
    text = cert.to_json() if args.fmt == "json" else _certificate_text(cert)
    _write(text, args.output)
    if cert.verdict == "verified":
        return 0
    for check in cert.checks:
        for failure in check.failures:
            print(f"r={check.r}: {failure}", file=sys.stderr)
    return 1


def cmd_eval(args: argparse.Namespace) -> int:
    comp = Composition(args.zeta)
    if comp.weight > MAX_EVAL_WEIGHT:
        raise ValueError(f"weight {comp.weight} exceeds the cap {MAX_EVAL_WEIGHT}")
    if args.digits > MAX_EVAL_DIGITS:
        raise ValueError(f"precision request {args.digits} exceeds the cap {MAX_EVAL_DIGITS}")
    fast = eval_mzv_fast(comp, args.digits)
    oracle = eval_mzv_series(comp, ORACLE_TERMS)
    # each engine's exact interval; meeting at one end is agreement
    (fast_low, fast_high), (oracle_low, oracle_high) = (
        (Fraction(low, 1 << exponent), Fraction(high, 1 << exponent))
        for low, high, exponent in (fast, oracle)
    )
    if fast_high < oracle_low or oracle_high < fast_low:
        ends = [format_decimal(end, exponent, args.digits)
                for low, high, exponent in (fast, oracle) for end in (low, high)]
        print("error: the engines' intervals are disjoint\nfast: [{}, {}]\n"
              "oracle: [{}, {}]".format(*ends), file=sys.stderr)
        return 1
    diff = abs(fast_low - oracle_low)
    agreement = min(args.digits, zero_places(diff)) if diff else args.digits
    payload = {
        "composition": list(args.zeta),
        "digits": args.digits,
        "value": format_decimal(fast[0], fast[2], args.digits),
        "engine_agreement_digits": agreement,
        "oracle_terms": ORACLE_TERMS,
    }
    if args.fmt == "json":
        text = json.dumps(payload, indent=2) + "\n"
    else:
        text = (
            f"zeta{comp} = {payload['value']}\n"
            f"engines agree to {agreement} digits "
            f"(series oracle truncated at {ORACLE_TERMS} terms)\n"
        )
    _write(text, args.output)
    return 0


def _frac_compact(obj: Optional[dict]) -> str:
    if obj is None:
        return ""
    return f"{obj['num']}/{obj['den']}"


def _params_compact(params: dict) -> str:
    chunks = []
    for key in sorted(params):
        value = params[key]
        if isinstance(value, list):
            chunks.append(f"{key}=" + "|".join(str(v) for v in value))
        else:
            chunks.append(f"{key}={value}")
    return ";".join(chunks)


_CSV_COLUMNS = [
    "family", "params", "weight", "pi_power", "digits", "value",
    "reconstructed", "target", "matches_target", "proven_rational", "status",
]


def _flatten(report: dict) -> dict:
    """The report's cells by CSV column, as docs/schemas.md renders them."""
    matches = report["matches_target"]
    return {
        **{column: report[column] for column in _CSV_COLUMNS},
        "params": _params_compact(report["params"]),
        "reconstructed": _frac_compact(report["reconstructed"]),
        "target": _frac_compact(report["target"]),
        "matches_target": "" if matches is None else matches,
    }


def _reports_csv(reports: List[dict]) -> str:
    import csv  # here, so that a JSON or text run does not import it
    buf = io.StringIO()
    writer = csv.DictWriter(buf, _CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(map(_flatten, reports))
    return buf.getvalue()


def _reports_text(reports: List[dict]) -> str:
    lines = []
    for rep in map(_flatten, reports):
        lines.append(
            f"{rep['family']} {rep['params']} weight={rep['weight']} status={rep['status']} "
            f"reconstructed={rep['reconstructed'] or 'none'} target={rep['target'] or 'none'}"
        )
    return "\n".join(lines) + "\n"


class ProcessPoolExecutor:
    """`map` over `max_workers` processes: the caller and the children it forks.

    It keeps the name and signatures of the `concurrent.futures` pool it
    replaced, which the benchmark's traced runs subclass and the tests stand in
    for.  The caller runs item 0, the heaviest; each next index is claimed from
    one 8-byte record in a pipe.  A child pickles its results and failure into
    its own pipe and leaves by `os._exit`, flushing no inherited buffer.  The
    caller reaps every child, even when its own share raises, then raises the
    failure of least index, as a serial run would.
    """

    def __init__(self, max_workers: int) -> None:
        self.max_workers = max_workers

    def __enter__(self) -> "ProcessPoolExecutor":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def map(self, fn: Callable, items: Sequence) -> List:
        import pickle  # here, so that a run with one job does not import it
        items, ticket, children, sent, done, failed = list(items), os.pipe(), [], [], {}, {}

        def claim(after: Optional[int] = None) -> int:
            # take the next index, and put back `after`, else the index after it
            index = int.from_bytes(os.read(ticket[0], 8), "little")
            os.write(ticket[1], (index + 1 if after is None else after).to_bytes(8, "little"))
            return index

        def share(index: int) -> None:
            # `items[index]`, then each index claimed next, until none is left or one fails
            while index < len(items):
                try:
                    done[index] = fn(items[index])
                except Exception as exc:
                    failed[index] = exc
                    claim(after=len(items))  # hand out no further index
                    return
                index = claim()

        os.write(ticket[1], (1).to_bytes(8, "little"))  # index 0 is the caller's
        try:
            for _ in range(min(self.max_workers, len(items)) - 1):
                read_end, write_end = os.pipe()
                if (pid := os.fork()) == 0:
                    try:
                        share(claim())
                        with open(write_end, "wb") as pipe:
                            pipe.write(pickle.dumps((done, failed)))
                        os._exit(0)
                    finally:
                        os._exit(1)
                os.close(write_end)
                children.append((pid, read_end))
            share(0)
        finally:
            for pid, read_end in children:
                with open(read_end, "rb") as pipe:
                    sent.append((pipe.read(), os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])))
            for end in ticket:
                os.close(end)
        for payload, status in sent:
            if status != 0:
                raise RuntimeError(f"a pool worker exited with status {status} and sent no results")
            for own, theirs in zip((done, failed), pickle.loads(payload)):
                own.update(theirs)
        if failed:
            raise failed[min(failed)]
        return [done[index] for index in range(len(items))]


def cmd_check(args: argparse.Namespace) -> int:
    spec = FAMILIES[args.family]
    read = () if args.sweep else spec.params
    unread = [f"--{p}" for p in PARAMS if p not in read and getattr(args, p) is not None]
    if unread:
        reader = "--sweep" if args.sweep else f"--family {args.family}"
        raise ValueError(f"{reader} does not read {' and '.join(unread)}")
    if args.sweep:
        param_list = spec.sweep(args.weight_cap)
    elif any(getattr(args, p) is None for p in spec.params):
        flags = " and ".join(f"--{p}" for p in spec.params)
        raise ValueError(f"--family {args.family} requires {flags}")
    else:
        param_list = [{p: getattr(args, p) for p in spec.params}]
    # rows of one weight share their words' prefixes, so each weight is one
    # job, the heaviest first to balance the pool: one stable sort of the row
    # indices by descending weight cuts the jobs, rows in sweep order, and
    # the same permutation puts the reports back
    weights = [spec.parse(**params)[1] for params in param_list]
    order = sorted(range(len(param_list)), key=lambda i: -weights[i])
    jobs = [[param_list[i] for i in rows] for _, rows in groupby(order, weights.__getitem__)]
    run = partial(check_group, args.family, digits=args.digits,
                  max_denominator=args.max_denominator, weight_cap=args.weight_cap)
    # every worker is forked up front, so never start more than there are
    # groups; without os.fork the sweep runs in-process, as with --jobs 1
    workers = min(args.jobs, len(jobs)) if hasattr(os, "fork") else 1
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            grouped = list(pool.map(run, jobs))
    else:
        grouped = list(map(run, jobs))
    reports: List[dict] = [{}] * len(param_list)
    for index, report in zip(order, chain.from_iterable(grouped)):
        reports[index] = report

    if args.fmt == "csv":
        text = _reports_csv(reports)
    elif args.fmt == "text":
        text = _reports_text(reports)
    else:
        text = json.dumps(reports if args.sweep else reports[0], indent=2) + "\n"
    _write(text, args.output)
    return 0


def _verify_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--a", required=True, type=_int_tuple, metavar="B0,B1,...",
                     help="block vector, an odd-length list of insertion counts")
    _add_shared_flags(sub, ("json", "text"), "weight-cap")


def _eval_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--zeta", required=True, type=_int_tuple, metavar="N1,N2,...",
                     help="composition indexing the zeta value, last part >= 2")
    _add_shared_flags(sub, ("json", "text"), "digits")


def _check_arguments(sub: argparse.ArgumentParser) -> None:
    def used_by(param: str) -> str:
        return ", ".join(name for name, family in FAMILIES.items() if param in family.params)

    sub.add_argument("--family", required=True, choices=list(FAMILIES))
    sub.add_argument("--a", type=_int_tuple, metavar="B0,B1,...",
                     help=f"block vector ({used_by('a')})")
    sub.add_argument("--n", type=int, help=f"spine half-length ({used_by('n')})")
    sub.add_argument("--m", type=int, help=f"insertion count ({used_by('m')})")
    sub.add_argument("--sweep", action="store_true",
                     help="run every instance of the family under the weight cap")
    _add_shared_flags(
        sub, ("json", "csv", "text"), "digits", "max-denominator", "weight-cap", "jobs"
    )


# command name: (help, registers its arguments, runs it)
COMMANDS = {
    "verify": ("emit a cancellation certificate", _verify_arguments, cmd_verify),
    "eval": ("evaluate one zeta value with both engines", _eval_arguments, cmd_eval),
    "check": ("numeric rationality report for a family", _check_arguments, cmd_check),
}


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The parser of `command` alone, or of every command when it is None.

    Both print the usage line `multizeta [-h] {verify,eval,check} ...`; the
    one-command parser needs that as its metavar, which in the full parser
    would rename the positional `command` in its errors.
    """
    parser = argparse.ArgumentParser(
        prog="multizeta",
        description="cancellation certificates and pi-power rationality checks for "
        "interleaved 2-block zeta values",
    )
    metavar = None if command is None else "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in COMMANDS if command is None else (command,):
        text, add_arguments, _ = COMMANDS[name]
        add_arguments(sub.add_parser(name, help=text))
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # only the invoked command's parser; the full one for help or a bad command
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    args = parser.parse_args(argv)
    try:
        # each subcommand registered only the settings it reads; the flag
        # beats the environment variable, which beats the default
        for name, (env, default, floor, _) in SETTINGS.items():
            dest = name.replace("-", "_")
            if dest in args:
                value, source = getattr(args, dest), f"--{name}"
                if value is None:
                    value = default
                    if env is not None and env in os.environ:
                        value, source = _env_int(env), env
                if value is not None and value < floor:
                    parser.error(f"{source} must be at least {floor}, got {value}")
                setattr(args, dest, value)
        _check_writable(args.output)
        return COMMANDS[args.command][2](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
