"""Spans around the library's layer boundaries, recorded from outside the library.

The traced run rebinds the module attributes the CLI resolves at call time
(``cli.normalize``, ``theory.worst_case_concentric``, ...) to wrappers that
record a span and call the original. No library file is edited; removing
the wrappers restores the original objects. ``exactnum`` is deliberately
not wrapped: it runs inside the tally and rendering inner loops, where a
wrapper would distort what it measures.
"""

from __future__ import annotations

import functools
import importlib
from time import perf_counter

# (module, attribute, span name). The span name's prefix is its layer.
BOUNDARIES = (
    ("listvote.cli", "read_ballot_file", "ballots.read"),
    ("listvote.ballots", "loads_ballot_file", "ballots.parse"),
    ("listvote.cli", "complete_short_lists", "ballots.complete"),
    ("listvote.cli", "normalize", "ballots.normalize"),
    ("listvote.cli", "ball", "johnson.ball"),
    ("listvote.cli", "best_committees", "tally.kernel"),
    ("listvote.theory", "global_floor", "theory.floor"),
    ("listvote.theory", "ball_floor", "theory.floor"),
    ("listvote.theory", "worst_case_concentric", "theory.lp"),
)
ROOT = "cli.op"
LAYERS = ("ballots", "johnson", "tally", "theory", "cli")


class Tracer:
    """In-memory spans: (op id, name, start, end, parent span index or -1)."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.op_id = -1

    def call(self, name, fn, *args, **kwargs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = [self.op_id, name, perf_counter(), 0.0, parent]
        self.spans.append(span)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            span[3] = perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Rebind every boundary; raises if one no longer exists."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module_name, attr, name in BOUNDARIES:
            module = importlib.import_module(module_name)
            if not callable(getattr(module, attr, None)):
                raise RuntimeError(f"traced boundary {module_name}.{attr} no longer exists")
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def per_op_layers(spans: list[list]) -> dict[int, dict]:
    """Per op: root duration, each span name's self time and call count.

    A span's self time is its duration minus the durations of its direct
    children; the root span's self time is the CLI's own work.
    """
    durations = [end - start for _, _, start, end, _ in spans]
    child_time = [0.0] * len(spans)
    for i, (_, _, _, _, parent) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += durations[i]
    ops: dict[int, dict] = {}
    for i, (op_id, name, _, _, parent) in enumerate(spans):
        op = ops.setdefault(op_id, {"op_s": 0.0, "self_s": {}, "calls": {}})
        if name == ROOT:
            op["op_s"] = durations[i]
        op["self_s"][name] = op["self_s"].get(name, 0.0) + durations[i] - child_time[i]
        op["calls"][name] = op["calls"].get(name, 0) + 1
    return ops
