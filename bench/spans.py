"""Span tracing of the package's public functions, from outside the package.

A Tracer wraps each listed function and rebinds the wrapper under every
name that refers to the original in any loaded `diamondsim` module, so
calls between modules (for example `sweep.build_liouvillian` or
`lindblad.herm_eigen`) are seen as well as calls from the benchmark.  Each
call records a span: function, start, end, parent span and pass id.  Spans
stay in memory and are written out once the run ends.  Leaving the `with`
block restores every original binding.

Self time is a span's duration minus the part of it its child spans cover.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

#: "<module>.<function>" for every traced public function.
TRACED = (
    "atom.closure_complete",
    "lindblad.build_liouvillian",
    "lindblad.steady_state",
    "lindblad.check_density_matrix",
    "lindblad.evolve",
    "lindblad.evolve_trajectory",
    "algebra.solve_linear",
    "algebra.herm_eigen",
    "sweep.run_sweep",
    "dressed.dressed_spectrum",
    "dressed.dark_classification",
    "cli.main",
    "cli.parse_config",
    "cli.render_config",
    "cli.write_csv",
)


def _csv_bytes(args, kwargs, result) -> tuple[str, int]:
    return "cli.write_csv.bytes", os.path.getsize(args[1])


def _sweep_points(args, kwargs, result) -> tuple[str, int]:
    return "sweep.run_sweep.points", int(result.delta.size)


#: Work counters taken from a call's arguments or result after it returns.
COUNTERS = {"cli.write_csv": _csv_bytes, "sweep.run_sweep": _sweep_points}


@dataclass(frozen=True)
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int
    pass_id: int
    ok: bool


class Tracer:
    """Records spans for TRACED while installed as a context manager."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.pass_id = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name, original):
        spans = self.spans
        stack = self._stack
        counter = COUNTERS.get(name)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            ok = False
            start = clock()
            try:
                result = original(*args, **kwargs)
                ok = True
            finally:
                end = clock()
                stack.pop()
                spans[index] = Span(name, start, end, parent, self.pass_id, ok)
            if counter is not None:
                key, amount = counter(args, kwargs, result)
                self.counters[key] += amount
            return result

        traced.__wrapped__ = original
        return traced

    def __enter__(self):
        modules = [
            module
            for key, module in sorted(sys.modules.items())
            if key == "diamondsim" or key.startswith("diamondsim.")
        ]
        for name in TRACED:
            module_name, attr = name.split(".")
            original = getattr(sys.modules[f"diamondsim.{module_name}"], attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapper)
        return self

    def __exit__(self, *exc_info):
        for module, key, original in reversed(self._restore):
            setattr(module, key, original)
        self._restore.clear()
        return False

    def write(self, path) -> None:
        """Write the recorded spans as CSV, one span per line."""
        lines = ["index,name,start_ns,end_ns,parent,pass,ok"]
        for k, s in enumerate(self.spans):
            lines.append(f"{k},{s.name},{s.start_ns},{s.end_ns},{s.parent},{s.pass_id},{int(s.ok)}")
        with open(path, "w", encoding="ascii") as handle:
            handle.write("\n".join(lines) + "\n")


def self_times(spans) -> list[int]:
    """Self time of each span in ns: duration minus the union of its children."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start_ns, s.end_ns))
    result = []
    for index, s in enumerate(spans):
        covered = 0
        reach = s.start_ns
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, reach), min(end, s.end_ns)
            if end > start:
                covered += end - start
                reach = end
        result.append(s.end_ns - s.start_ns - covered)
    return result


def per_layer(spans, counters: dict[str, int], passes: int) -> dict[str, float]:
    """Calls and self seconds per pass and total errors for each traced name."""
    calls: dict[str, int] = defaultdict(int)
    errors: dict[str, int] = defaultdict(int)
    self_ns: dict[str, int] = defaultdict(int)
    for s, own in zip(spans, self_times(spans)):
        calls[s.name] += 1
        self_ns[s.name] += own
        errors[s.name] += not s.ok
    metrics = {}
    for name in TRACED:
        metrics[f"{name}.calls"] = calls[name] / passes
        metrics[f"{name}.self_s"] = self_ns[name] * 1e-9 / passes
        metrics[f"{name}.errors"] = errors[name]
    for key in ("cli.write_csv.bytes", "sweep.run_sweep.points"):
        metrics[key] = counters.get(key, 0) / passes
    return metrics
