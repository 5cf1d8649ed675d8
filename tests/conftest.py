"""Shared pytest plumbing.

The acceptance tests record one pass line per criterion; the terminal
summary hook replays them after the run, outside output capture, so they
are visible in plain `pytest` output and in teed logs.
"""

_CRITERION_LINES = []


def record_criterion(line: str) -> None:
    print(line)
    _CRITERION_LINES.append(line)


def weak_compositions(total, parts):
    """Every weak composition of `total` into `parts`, lexicographically, by recursion.

    The brute-force reference for the package's stars-and-bars enumerator.
    """
    if parts == 1:
        return [(total,)]
    return [(first,) + rest for first in range(total + 1)
            for rest in weak_compositions(total - first, parts - 1)]


def pytest_terminal_summary(terminalreporter):
    if _CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _CRITERION_LINES:
            terminalreporter.write_line(line)
