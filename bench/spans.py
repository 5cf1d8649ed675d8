"""In-memory spans around the package's public functions.

The benchmark does not edit the package.  It replaces module attributes at
run time with wrappers that open a span on entry and close it on exit.  A
span's self time is its duration minus the durations of the spans it
directly contains, so the self times of one process add up to the duration
of its outermost spans.

Sweeps with `--jobs` run instances in forked worker processes.  A worker
inherits the wrappers and the open spans of its parent; it starts with
empty totals, and each time a span whose parent belongs to another process
closes, the worker appends its totals to a file in the sink directory and
starts again from zero.  `Recorder.merge_sink` folds those files back in.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple

# A hook receives the wrapped call's arguments and result and returns
# counter increments.
Hook = Callable[[tuple, dict, object], Dict[str, int]]


class Recorder:
    """Per-layer self time and call counts, plus counters and row durations."""

    def __init__(self, sink: Path, row_layer: Optional[str]) -> None:
        self.sink = sink
        self.row_layer = row_layer
        self.pid = os.getpid()
        self._stack: List[list] = []  # [layer, start, child_time, pid, row key]
        self._reset_totals()
        os.register_at_fork(after_in_child=self._reset_totals)

    def _reset_totals(self) -> None:
        self.self_s: Dict[str, float] = {}
        self.calls: Counter = Counter()
        self.counters: Counter = Counter()
        self.words: List[Tuple[int, ...]] = []
        self.rows: List[Tuple[str, float]] = []  # (row key, duration)

    def enter(self, layer: str, row_key: Optional[str] = None) -> None:
        self._stack.append([layer, time.perf_counter(), 0.0, os.getpid(), row_key])

    def exit(self) -> None:
        end = time.perf_counter()
        layer, start, child_time, pid, row_key = self._stack.pop()
        duration = end - start
        self.self_s[layer] = self.self_s.get(layer, 0.0) + duration - child_time
        self.calls[layer] += 1
        if row_key is not None:
            self.rows.append((row_key, duration))
        if self._stack and self._stack[-1][3] == pid:
            self._stack[-1][2] += duration
        elif pid != self.pid:
            self._flush()

    def _flush(self) -> None:
        record = {
            "self_s": self.self_s,
            "calls": dict(self.calls),
            "counters": dict(self.counters),
            "words": self.words,
            "rows": self.rows,
        }
        with open(self.sink / f"worker-{os.getpid()}.jsonl", "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
        self._reset_totals()

    def merge_sink(self) -> int:
        """Add the totals flushed by worker processes; returns the worker count."""
        files = sorted(self.sink.glob("worker-*.jsonl"))
        for path in files:
            for line in path.read_text(encoding="utf-8").splitlines():
                record = json.loads(line)
                for layer, value in record["self_s"].items():
                    self.self_s[layer] = self.self_s.get(layer, 0.0) + value
                self.calls.update(record["calls"])
                self.counters.update(record["counters"])
                self.words.extend(tuple(w) for w in record["words"])
                self.rows.extend(tuple(row) for row in record["rows"])
        return len(files)

    def wrap(self, func: Callable, layer: str, hook: Optional[Hook] = None) -> Callable:
        recorder = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            row_key = repr((func.__name__, args, kwargs)) if layer == recorder.row_layer else None
            recorder.enter(layer, row_key)
            try:
                result = func(*args, **kwargs)
                if hook is not None:
                    # inside the span, so a worker flushes the counts with it
                    recorder.counters.update(hook(args, kwargs, result))
            finally:
                recorder.exit()
            return result

        return wrapper


def patch_everywhere(original: Callable, replacement: Callable, prefix: str) -> int:
    """Rebind every module attribute under `prefix` that is `original`.

    Modules import functions by name from each other, so a function can be
    bound in several namespaces; all of them must see the wrapper.
    """
    count = 0
    for name, module in list(sys.modules.items()):
        if module is None or not (name == prefix or name.startswith(prefix + ".")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                count += 1
    return count


def install(recorder: Recorder, targets: Iterable[Tuple[object, str, str, Optional[Hook]]]) -> None:
    """Wrap each (module, function name, layer, hook) target everywhere it is bound."""
    for module, name, layer, hook in targets:
        original = getattr(module, name)
        wrapped = recorder.wrap(original, layer, hook)
        if patch_everywhere(original, wrapped, "multizeta") == 0:
            raise RuntimeError(f"{module.__name__}.{name} is not bound anywhere")
