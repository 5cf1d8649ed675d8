"""The four benchmark workloads, as lists of `multizeta` command lines.

Each workload is a list of argument vectors for `multizeta.cli.main`.  Only
`eval-200d` depends on the seed; the other three are fixed enumerations, so
their inputs are identical on every run.  The benchmark enumerates the
expected parameters itself, so that a sweep which drops or adds an instance
is caught as a wrong answer instead of silently changing the workload.
"""

from __future__ import annotations

import random
from typing import List, Tuple

FAMILIES = ("symmetric", "cyclic", "bowman-bradley", "bbbl")
WORKLOADS = ("sweep-default", "sweep-jobs2", "verify-symbolic", "eval-200d")

SWEEP_WEIGHT_CAP = 14  # the shipped default of --weight-cap
SWEEP_DIGITS = 60  # the shipped default of --digits
VERIFY_WEIGHT_CAP = 20
EVAL_DIGITS = 200
EVAL_WEIGHTS = range(4, 17)
SWEEP_JOBS = 2


def partitions_into(total: int, slots: int) -> List[Tuple[int, ...]]:
    """Nonincreasing tuples of length `slots` summing to `total`, largest first."""
    if slots == 0:
        return [()] if total == 0 else []
    out = []
    for first in range(total, -1, -1):
        if first * slots < total:
            break
        for rest in partitions_into(total - first, slots - 1):
            if not rest or rest[0] <= first:
                out.append((first,) + rest)
    return out


def weak_compositions(total: int, slots: int) -> List[Tuple[int, ...]]:
    if slots == 1:
        return [(total,)]
    return [
        (first,) + rest
        for first in range(total + 1)
        for rest in weak_compositions(total - first, slots - 1)
    ]


def symmetric_vectors(weight_cap: int) -> List[Tuple[int, ...]]:
    """Sorted block vectors (b_0 >= ... >= b_2n) of weight 4n + 2*sum <= cap."""
    out = []
    n = 1
    while 4 * n <= weight_cap:
        for total in range((weight_cap - 4 * n) // 2 + 1):
            out.extend(partitions_into(total, 2 * n + 1))
        n += 1
    return out


def cyclic_vectors(weight_cap: int) -> List[Tuple[int, ...]]:
    """One representative (the least rotation) of each necklace under the cap."""
    out = []
    n = 1
    while 4 * n <= weight_cap:
        slots = 2 * n + 1
        for total in range((weight_cap - 4 * n) // 2 + 1):
            for comp in weak_compositions(total, slots):
                if comp == min(comp[i:] + comp[:i] for i in range(slots)):
                    out.append(comp)
        n += 1
    return out


def spine_params(family: str, weight_cap: int) -> List[Tuple[int, int]]:
    """(n, m) pairs of the bowman-bradley or bbbl family under the cap."""
    out = []
    n = 1
    while 4 * n <= weight_cap:
        per_m = 2 if family == "bowman-bradley" else 2 * (2 * n + 1)
        m = 0
        while 4 * n + per_m * m <= weight_cap:
            out.append((n, m))
            m += 1
        n += 1
    return out


def expected_sweep_params(family: str, weight_cap: int = SWEEP_WEIGHT_CAP) -> List[dict]:
    """The `params` objects a sweep of `family` must report, in no set order."""
    if family == "symmetric":
        return [{"a": list(a)} for a in symmetric_vectors(weight_cap)]
    if family == "cyclic":
        return [{"a": list(a)} for a in cyclic_vectors(weight_cap)]
    return [{"n": n, "m": m} for n, m in spine_params(family, weight_cap)]


def eval_compositions(seed: int) -> List[Tuple[int, ...]]:
    """Two pairwise-distinct admissible compositions per weight 4..16.

    The first of each pair has an independent closed form: zeta(w) for even
    w and zeta(1, w-1) (Euler) for odd w.  The second is drawn from the seed
    among the compositions of weight w and depth 2 + (w mod 3), so the
    depth profile, and with it most of the cost, is the same for every seed.
    """
    rng = random.Random(seed)
    out: List[Tuple[int, ...]] = []
    for w in EVAL_WEIGHTS:
        out.append((w,) if w % 2 == 0 else (1, w - 1))
        depth = 2 + w % 3
        while True:
            # a random composition of w into `depth` parts with last part >= 2
            cuts = sorted(rng.sample(range(1, w - 1), depth - 1))
            parts = tuple(b - a for a, b in zip([0] + cuts, cuts + [w]))
            if parts not in out:
                out.append(parts)
                break
    return out


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def command_lines(workload: str, seed: int) -> List[List[str]]:
    """Argument vectors for `multizeta.cli.main`, one per CLI call."""
    if workload in ("sweep-default", "sweep-jobs2"):
        jobs = "1" if workload == "sweep-default" else str(SWEEP_JOBS)
        return [
            ["check", "--family", f, "--sweep", "--format", "json", "--jobs", jobs]
            for f in FAMILIES
        ]
    if workload == "verify-symbolic":
        return [
            ["verify", "--a", _csv(a), "--format", "json",
             "--weight-cap", str(VERIFY_WEIGHT_CAP)]
            for a in symmetric_vectors(VERIFY_WEIGHT_CAP)
        ]
    if workload == "eval-200d":
        return [
            ["eval", "--zeta", _csv(c), "--digits", str(EVAL_DIGITS), "--format", "json"]
            for c in eval_compositions(seed)
        ]
    raise ValueError(f"unknown workload {workload!r}")


def jobs_of(argv: List[str]) -> int:
    return int(argv[argv.index("--jobs") + 1]) if "--jobs" in argv else 1


def flag_value(argv: List[str], flag: str) -> str:
    return argv[argv.index(flag) + 1]


# Workloads whose rows are whole CLI calls; a sweep's rows are its
# instances, one `check_*` call each.
ROWS_ARE_CALLS = {"verify-symbolic", "eval-200d"}
