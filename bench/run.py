"""diamondsim benchmark: seeded workloads, oracle checks and a traced mode.

Run from the root of a source checkout:

    python3 bench/run.py --workload sweep-long --seed 1 --seconds 30 --trace 0

Every workload is a closed loop: one caller, one thread, each call starting
after the previous one returns, with BLAS pinned to one thread.  The
package is imported from `src/` of the checkout and nowhere else.

With `--trace 0` the run measures set-up time (fresh interpreters importing
the package), then repeats passes over the workload's inputs for
`--seconds`, then checks every output against independent oracles.  With
`--trace 1` it spends half the time untraced and half with every public
function wrapped in spans, and reports calls and self time per function.
Human-readable lines come first; the last line of standard output is one
JSON object with `correct`, `attempted`, `failed` and `metrics`.

Times are reported in reference seconds (see clock.py), with raw wall
times printed alongside.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_REPEATS = 9
MIN_PASSES = 2


def measure_setup(code: str) -> list[float]:
    """Reference seconds to `import diamondsim` in fresh interpreters, after a warm-up."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS + 1):
        done = subprocess.run(
            [sys.executable, "-c", code],
            env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(done.stdout))
    return times[1:]


def tail(values: list[float]) -> str:
    """The highest whole percentile with at least ten samples beyond it."""
    n = len(values)
    if n <= 10:
        return f"n={n}, too few samples for a tail percentile"
    p = int(100 * (n - 10) / n)
    value = statistics.quantiles(values, n=100, method="inclusive")[p - 1]
    return f"n={n}, p{p} {value:.6g}"


class Runner:
    """Repeats passes over a workload's operations and records every outcome."""

    def __init__(self, ops, clock):
        self.ops = ops
        self.clock = clock
        self.reference: list[tuple[str, object] | None] = [None] * len(ops)
        self.outcomes: list[tuple[int, bool]] = []
        self.pass_ref: list[float] = []
        self.pass_wall: list[float] = []
        self.op_ref: list[float] = []
        self.messages: list[str] = []
        self.tracer = None

    def _fail(self, slot: int, why: str) -> None:
        self.outcomes.append((slot, False))
        if len(self.messages) < 5:
            self.messages.append(f"{self.ops[slot].label}: {why}")

    def one_pass(self) -> None:
        if self.tracer is not None:
            self.tracer.pass_id = len(self.pass_ref)
        ref_total = wall_total = 0.0
        for slot, op in enumerate(self.ops):
            try:
                raw, wall, ref = self.clock.time(op.run)
            except Exception:  # a failed call is counted, and the run goes on
                self._fail(slot, traceback.format_exc(limit=3))
                continue
            ref_total += ref
            wall_total += wall
            self.op_ref.append(ref)
            try:
                data, value = op.settle(raw)
            except Exception as exc:
                self._fail(slot, repr(exc))
                continue
            digest = hashlib.sha256(data).hexdigest()
            if self.reference[slot] is None:
                self.reference[slot] = (digest, value)
            if digest != self.reference[slot][0]:
                self._fail(slot, "output bytes differ from an earlier pass")
                continue
            self.outcomes.append((slot, True))
        self.pass_ref.append(ref_total)
        self.pass_wall.append(wall_total)

    def measure(self, seconds: float) -> slice:
        """Run passes for about `seconds` of wall time; return their indices."""
        first = len(self.pass_ref)
        begin = time.perf_counter()
        while True:
            start = time.perf_counter()
            self.one_pass()
            end = time.perf_counter()
            # Stop when one more pass as long as the last would overrun.
            overrun = (end - begin) + (end - start) > seconds
            if len(self.pass_ref) - first >= MIN_PASSES and overrun:
                return slice(first, len(self.pass_ref))

    def verify(self) -> dict[str, float]:
        """Run the oracles on each operation's first output; count failures."""
        bad_slots = set()
        worst: dict[str, float] = {}
        for slot, op in enumerate(self.ops):
            if self.reference[slot] is None:
                bad_slots.add(slot)
                continue
            try:
                deviations = op.check(self.reference[slot][1])
            except Exception as exc:
                bad_slots.add(slot)
                self.messages.append(f"{op.label}: {exc!r}")
                continue
            for key, value in deviations.items():
                worst[key] = max(worst.get(key, 0.0), value)
        self.outcomes = [(slot, ok and slot not in bad_slots) for slot, ok in self.outcomes]
        return worst

    @property
    def failed(self) -> int:
        return sum(not ok for _, ok in self.outcomes)

    def digest(self) -> str:
        joined = "".join(ref[0] if ref else "-" for ref in self.reference)
        return hashlib.sha256(joined.encode()).hexdigest()[:16]


def report_end_to_end(workload, runner, passes: slice, setup, rss_mb) -> dict:
    pass_ref = runner.pass_ref[passes]
    pass_s = statistics.median(pass_ref)
    setup_s = statistics.median(setup)
    work: dict[str, int] = {}
    for op in runner.ops:
        for key, amount in op.work.items():
            work[key] = work.get(key, 0) + amount
    attempted = len(runner.outcomes)
    print(f"pass_s            {pass_s:.6g} s   median of {len(pass_ref)} passes "
          f"({tail(pass_ref)}); max {max(pass_ref):.6g}; "
          f"wall median {statistics.median(runner.pass_wall[passes]):.6g}")
    print(f"op_s              {statistics.median(runner.op_ref):.6g} s   median per "
          f"operation ({tail(runner.op_ref)})")
    print(f"setup_s           {setup_s:.6g} s   median of {len(setup)} fresh imports; "
          f"max {max(setup):.6g}")
    for key, name in (("points", "points_per_s"), ("scenarios", "scenarios_per_s"),
                      ("rk4_steps", "rk4_steps_per_s")):
        if key in work:
            print(f"{name:17s} {work[key] / pass_s:.6g} 1/s   {work[key]} per pass / pass_s")
        else:
            print(f"{name:17s} n/a   {workload} does no {key.replace('_', ' ')}")
    print(f"peak_rss_mb       {rss_mb:.6g} MB")
    print(f"error_rate        {runner.failed / attempted:.6g}   "
          f"{runner.failed} failed of {attempted} attempted")
    print(f"machine slowdown  {runner.clock.slowdown():.4g}   median calibration "
          f"kernel time over its reference")
    return {
        "pass_s": {"value": pass_s, "unit": "s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }


def report_layers(runner, untraced: slice, traced: slice) -> dict:
    import spans

    tracer = runner.tracer
    passes = traced.stop - traced.start
    # Self times come from wall-clock spans; scale them like the traced passes.
    scale = sum(runner.pass_ref[traced]) / sum(runner.pass_wall[traced])
    layers = spans.per_layer(tracer.spans, tracer.counters, passes)
    traced_pass = statistics.median(runner.pass_ref[traced])
    untraced_pass = statistics.median(runner.pass_ref[untraced])
    print(f"{'function':30s} {'calls/pass':>11s} {'self_s/pass':>12s} {'share':>7s} {'errors':>6s}")
    for name in spans.TRACED:
        layers[f"{name}.self_s"] *= scale
        self_s = layers[f"{name}.self_s"]
        print(f"{name:30s} {layers[f'{name}.calls']:11.6g} {self_s:12.6g} "
              f"{self_s / traced_pass:7.1%} {layers[f'{name}.errors']:6d}")
    print(f"cli.write_csv.bytes per pass {layers['cli.write_csv.bytes']:.6g}; "
          f"sweep.run_sweep.points per pass {layers['sweep.run_sweep.points']:.6g}")
    layers["tracing_overhead_s"] = traced_pass - untraced_pass
    print(f"tracing_overhead_s {traced_pass - untraced_pass:.6g} s (traced pass "
          f"{traced_pass:.6g} s, untraced {untraced_pass:.6g} s)")
    units = {"calls": "count", "self_s": "s", "errors": "count", "bytes": "bytes",
             "points": "count", "tracing_overhead_s": "s"}
    return {
        key: {"value": value, "unit": units[key.rsplit(".", 1)[-1]]}
        for key, value in layers.items()
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "diamondsim" / "__init__.py").is_file():
        print(f"error: no diamondsim sources under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))

    import diamondsim

    if Path(diamondsim.__file__).resolve().parent != SRC / "diamondsim":
        print(f"error: imported diamondsim from {diamondsim.__file__}", file=sys.stderr)
        return 2
    import clock
    import gen
    import workloads

    if args.workload not in gen.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup = measure_setup(clock.FRESH_IMPORT_CODE)
        timer = clock.Calibrated()
        runner = Runner(workloads.build(args.workload, args.seed, workdir), timer)
        print(f"workload {args.workload}  seed {args.seed}  {len(runner.ops)} operations per pass")
        if args.trace:
            import spans

            untraced = runner.measure(args.seconds / 2)
            runner.tracer = spans.Tracer()
            with runner.tracer:
                traced = runner.measure(args.seconds / 2)
        else:
            untraced = runner.measure(args.seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        worst = runner.verify()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = report_end_to_end(args.workload, runner, untraced, setup, rss_mb)
    print("oracle max deviation: "
          + ", ".join(f"{key} {value:.3g}" for key, value in sorted(worst.items())))
    print(f"output digest {runner.digest()}")
    for message in runner.messages:
        print(f"FAILURE {message}", file=sys.stderr)
    if args.trace:
        metrics = report_layers(runner, untraced, traced)
        span_file = OUT / f"spans-{args.workload}-seed{args.seed}.csv"
        runner.tracer.write(span_file)
        print(f"{len(runner.tracer.spans)} spans written to {span_file.relative_to(ROOT)}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": len(runner.outcomes),
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
