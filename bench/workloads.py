"""The three benchmark workloads as lists of operations.

An operation is one closed-loop call into the package: `run` is the timed
call, `settle` turns its raw result into the output bytes compared across
passes plus the value the oracle checks, and `check` runs the oracles on that
value, returning the largest deviation per oracle.  `settle` and `check` are
never timed.  `work` counts what the operation did, for the throughput
figures.

Package functions are called through their modules (`lindblad.steady_state`,
not a local name), so the span tracer's rebinding sees the benchmark's own
calls.  The oracles module, which imports scipy, is loaded only inside
`check`, so the peak memory of the timed passes does not include it.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import gen
from diamondsim import atom, cli, dressed, lindblad, sweep
from diamondsim.atom import Scenario


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    settle: Callable[[object], tuple[bytes, object]]
    check: Callable[[object], dict[str, float]]
    work: dict[str, int]


class CommandFailed(Exception):
    """A CLI call returned a non-zero exit status."""


def _cli(argv: list[str]) -> tuple[int, str]:
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        status = cli.main(argv)
    return status, captured.getvalue()


def _read_output(raw, out: Path) -> tuple[bytes, bytes]:
    """(standard output, file written) of a CLI call that must have succeeded."""
    status, stdout = raw
    if status != 0:
        raise CommandFailed(f"exit status {status}")
    return stdout.encode(), out.read_bytes()


def _sweep_op(case: gen.Case, workdir: Path) -> Op:
    config = workdir / f"{case.label}.ini"
    config.write_text(case.text, encoding="ascii")
    out = workdir / f"{case.label}.csv"
    argv = ["sweep", "--config", str(config), "--out", str(out)]
    scenario = Scenario(**case.params)

    def settle(raw):
        stdout, csv = _read_output(raw, out)
        return stdout + csv, csv

    def check(csv):
        import oracles

        delta, states = oracles.states_from_sweep_csv(csv)
        return {
            "sweep_rows": oracles.check_sweep_states(
                scenario, case.delta_min, case.delta_max, case.points, delta, states
            )
        }

    return Op(case.label, lambda: _cli(argv), settle, check,
              {"points": case.points, "scenarios": 1})


def _census_op(case: gen.Case) -> Op:
    text = case.text
    t_final = gen.CENSUS_STEPS * gen.DT

    def run():
        scenario, spec, output = cli.parse_config(text)
        rho = lindblad.steady_state(lindblad.build_liouvillian(atom.closure_complete(scenario)))
        spectrum = dressed.dressed_spectrum(scenario)
        report = dressed.dark_classification(spectrum)
        reparsed = cli.parse_config(cli.render_config(scenario, spec, output))
        result = sweep.run_sweep(spec)
        times, states = lindblad.evolve_trajectory(
            atom.closure_complete(scenario), lindblad.ground_state(), t_final, gen.DT,
            samples=gen.CENSUS_STEPS,
        )
        return (scenario, spec, output), rho, spectrum, report, reparsed, result, times, states

    def settle(raw):
        parsed, rho, spectrum, report, reparsed, result, times, states = raw
        arrays = (rho, spectrum.eigenvalues, spectrum.eigenvectors,
                  result.delta, result.states, times, states)
        data = b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)
        data += repr((spectrum.groups, report, parsed, reparsed)).encode()
        return data, raw

    def check(raw):
        import oracles

        parsed, rho, spectrum, report, reparsed, result, times, states = raw
        scenario = parsed[0]
        if len(times) != gen.CENSUS_STEPS:
            raise oracles.OracleMismatch(f"{len(times)} trajectory samples, not every step")
        return {
            "config_parse": oracles.check_equal(Scenario(**case.params), scenario, "parsed scenario"),
            "config_round_trip": oracles.check_equal(parsed, reparsed, "config round trip"),
            "steady": oracles.check_steady(scenario, rho),
            "dressed": oracles.check_dressed(scenario, spectrum.eigenvalues),
            "sweep_rows": oracles.check_sweep_states(
                scenario, case.delta_min, case.delta_max, case.points,
                result.delta, result.states,
            ),
            "trajectory": oracles.check_trajectory(scenario, times, states),
        }

    return Op(case.label, run, settle, check,
              {"points": 1 + case.points, "scenarios": 1, "rk4_steps": gen.CENSUS_STEPS})


def _evolve_op(case: gen.Case, workdir: Path) -> Op:
    config = workdir / f"{case.label}.ini"
    config.write_text(case.text, encoding="ascii")
    out = workdir / f"{case.label}.state.csv"
    argv = ["evolve", "--config", str(config), "--out", str(out),
            "--t-final", repr(gen.EVOLVE_T_FINAL), "--dt", repr(gen.DT)]
    scenario = Scenario(**case.params)
    parsed = cli.parse_config(case.text)[0]
    steps = int(round(gen.EVOLVE_T_FINAL / gen.DT))

    def run():
        raw = _cli(argv)
        times, states = lindblad.evolve_trajectory(
            atom.closure_complete(parsed), lindblad.ground_state(), gen.EVOLVE_T_FINAL, gen.DT,
            samples=gen.EVOLVE_SAMPLES,
        )
        return raw, times, states

    def settle(raw):
        cli_raw, times, states = raw
        stdout, csv = _read_output(cli_raw, out)
        return stdout + csv + times.tobytes() + states.tobytes(), (csv, times, states)

    def check(value):
        import oracles

        csv, times, states = value
        final = oracles.state_from_entry_csv(csv)
        return {
            "evolve_final": oracles.check_evolve_final(scenario, gen.EVOLVE_T_FINAL, final),
            "trajectory": oracles.check_trajectory(scenario, times, states),
        }

    return Op(case.label, run, settle, check,
              {"scenarios": 1, "rk4_steps": 2 * steps})


def build(workload: str, seed: int, workdir: Path) -> list[Op]:
    """Operations making up one pass of `workload` for `seed`."""
    cases = gen.generate(workload, seed)
    if workload == "sweep-long":
        return [_sweep_op(case, workdir) for case in cases]
    if workload == "census-short":
        return [_census_op(case) for case in cases]
    return [_evolve_op(case, workdir) for case in cases]
