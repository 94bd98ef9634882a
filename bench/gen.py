"""Seeded input generator for the benchmark workloads.

Every input is config text in the INI format `diamondsim.cli.parse_config`
reads, which is what the CLI receives in real use.  Generation uses only the
standard library's `random.Random`, so one seed gives the same text on every
platform and numpy version.

Seeded scenarios draw every Rabi frequency from [0, 20], every decay rate
from [0.5, 2] and the closure target from a1, a2 or c1.  Detunings stay zero:
the dressed-state analysis is defined at zero detunings only, and sweeps
reach the probe detuning through closure completion.

Numbers are written as plain decimals with six places, so the text never
depends on how a float type prints itself.  (Under numpy 2,
`render_config` on a Scenario holding numpy scalars writes
`np.float64(15.0)`, which `parse_config` rejects; scenarios in this
benchmark always come from parsed text, so they hold Python floats.)
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("sweep-long", "census-short", "evolve-long")

#: Never used while writing a change; kept back to confirm its claims.
HELD_OUT_SEED = 20081004

OMEGA_KEYS = ("omega_a1", "omega_a2", "omega_c1", "omega_c2")
GAMMA_KEYS = ("gamma1", "gamma2", "gamma3", "gamma4")
SEEDED_TARGETS = ("a1", "a2", "c1")

#: Parameters of the paper's fig5 preset, written out independently of the package.
FIG5 = {
    "omega_a1": 0.0,
    "omega_a2": 15.0,
    "omega_c1": 10.0,
    "omega_c2": 1.0,
    "gamma1": 1.0,
    "gamma2": 1.0,
    "gamma3": 1.0,
    "gamma4": 1.0,
    "closure_target": "a1",
}

SWEEP_LONG_SEEDED = 3
SWEEP_LONG_POINTS = 1001
CENSUS_SCENARIOS = 24
CENSUS_POINTS = 41
CENSUS_STEPS = 50
EVOLVE_SCENARIOS = 3
EVOLVE_T_FINAL = 200.0
EVOLVE_SAMPLES = 200
DT = 1e-3
SCAN_RANGE = (-25.0, 25.0)


@dataclass(frozen=True)
class Case:
    """One generated input: its config text and the values written into it."""

    label: str
    text: str
    params: dict
    delta_min: float
    delta_max: float
    points: int


def _number(x: float) -> str:
    return f"{x:.6f}"


def _draw_params(rng: random.Random) -> dict:
    """Scenario keyword arguments for one seeded scenario."""
    params = {key: float(_number(rng.uniform(0.0, 20.0))) for key in OMEGA_KEYS}
    params.update({key: float(_number(rng.uniform(0.5, 2.0))) for key in GAMMA_KEYS})
    params["closure_target"] = rng.choice(SEEDED_TARGETS)
    return params


def config_text(params: dict, delta_min: float, delta_max: float, points: int) -> str:
    """Render scenario parameters and a sweep grid as config text."""
    lines = ["[fields]"]
    lines += [f"{key} = {_number(params[key])}" for key in OMEGA_KEYS]
    lines.append(f"closure_target = {params['closure_target']}")
    lines.append("")
    lines.append("[decays]")
    lines += [f"{key} = {_number(params[key])}" for key in GAMMA_KEYS]
    lines.append("")
    lines.append("[sweep]")
    lines.append(f"delta_min = {_number(delta_min)}")
    lines.append(f"delta_max = {_number(delta_max)}")
    lines.append(f"points = {points}")
    return "\n".join(lines) + "\n"


def _case(label: str, params: dict, points: int) -> Case:
    low, high = SCAN_RANGE
    return Case(label, config_text(params, low, high, points), params, low, high, points)


def generate(workload: str, seed: int) -> list[Case]:
    """The inputs of one pass of `workload`, identical for identical seeds."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; valid: {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    if workload == "sweep-long":
        cases = [_case("fig5", dict(FIG5), SWEEP_LONG_POINTS)]
        cases += [
            _case(f"seeded{k}", _draw_params(rng), SWEEP_LONG_POINTS)
            for k in range(SWEEP_LONG_SEEDED)
        ]
        return cases
    if workload == "census-short":
        return [
            _case(f"scenario{k}", _draw_params(rng), CENSUS_POINTS)
            for k in range(CENSUS_SCENARIOS)
        ]
    return [
        _case(f"evolve{k}", _draw_params(rng), SWEEP_LONG_POINTS)
        for k in range(EVOLVE_SCENARIOS)
    ]
