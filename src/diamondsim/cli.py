"""Command-line surface: config files, presets, CSV output, subcommands.

Configuration files are flat INI-style text with four sections:

    [fields]   omega_a1 omega_a2 omega_c1 omega_c2
               delta_a1 delta_a2 delta_c1 delta_c2 closure_target
    [decays]   gamma1 gamma2 gamma3 gamma4
    [sweep]    delta_min delta_max points observables
    [output]   out_path

'#' and ';' start a comment, keys default as in Scenario (decay rates 1,
all else 0), the sweep grid defaults to [-25, 25] with 1001 points and
takes at most sweep.MAX_POINTS points.  Unknown keys or sections,
duplicates, and malformed or out-of-range values are reported with their
line number.  When closure_target is not given it defaults to the first inactive
field in the order a1, c1, a2, c2, or "none" when all four fields drive.

Exit status: 0 on success, 1 for usage and configuration errors, 2 when a
computation fails (no steady state, broken closure, unstable step, ...).
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .atom import CLOSURE_TARGETS, Scenario, closure_complete
from .dressed import dark_classification, dressed_spectrum
from .errors import SimulationError
from .lindblad import build_liouvillian, evolve, ground_state, steady_state
from .sweep import (
    CSV_COLUMNS,
    MAX_POINTS,
    OBSERVABLE_KEYS,
    SweepResult,
    SweepSpec,
    extract_observable,
    run_sweep,
)

__all__ = [
    "ConfigError",
    "OutputOptions",
    "PRESET_NAMES",
    "main",
    "parse_config",
    "preset",
    "render_config",
    "run",
    "write_csv",
]

_NUMBER_RE = re.compile(r"[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")
_INT_RE = re.compile(r"[+-]?\d+$")
_COMMENT_RE = re.compile(r"[#;]")

_FIELD_KEYS = (
    "omega_a1",
    "omega_a2",
    "omega_c1",
    "omega_c2",
    "delta_a1",
    "delta_a2",
    "delta_c1",
    "delta_c2",
    "closure_target",
)
_DECAY_KEYS = ("gamma1", "gamma2", "gamma3", "gamma4")
_SWEEP_KEYS = ("delta_min", "delta_max", "points", "observables")
_OUTPUT_KEYS = ("out_path",)
_SECTIONS = {
    "fields": _FIELD_KEYS,
    "decays": _DECAY_KEYS,
    "sweep": _SWEEP_KEYS,
    "output": _OUTPUT_KEYS,
}

_NONNEGATIVE_KEYS = frozenset(
    ("omega_a1", "omega_a2", "omega_c1", "omega_c2") + _DECAY_KEYS
)


class ConfigError(ValueError):
    """A configuration document could not be accepted."""


class _UsageError(Exception):
    """Command line arguments could not be accepted."""


@dataclass(frozen=True)
class OutputOptions:
    """Output-related settings from a config document."""

    observables: tuple[str, ...] = OBSERVABLE_KEYS
    out_path: str | None = None


def _parse_number(key: str, text: str, lineno: int) -> float:
    if not _NUMBER_RE.fullmatch(text):
        raise ConfigError(f"line {lineno}: malformed number for {key}: {text!r}")
    value = float(text)
    if not math.isfinite(value):
        raise ConfigError(f"line {lineno}: {key} must be finite, got {text}")
    if key in _NONNEGATIVE_KEYS and value < 0.0:
        raise ConfigError(f"line {lineno}: {key} must be non-negative, got {text}")
    return value


def parse_config(text: str) -> tuple[Scenario, SweepSpec, OutputOptions]:
    """Parse a configuration document.

    Returns the Scenario, the sweep grid, and the output options.  Raises
    ConfigError with a line number for unknown sections or keys, duplicate
    keys, malformed or out-of-range values.
    """
    entries: dict[str, tuple[str, int]] = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _COMMENT_RE.split(raw, maxsplit=1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(f"line {lineno}: unterminated section header {line!r}")
            name = line[1:-1].strip()
            if name not in _SECTIONS:
                raise ConfigError(
                    f"line {lineno}: unknown section [{name}]; "
                    f"valid sections: {', '.join(_SECTIONS)}"
                )
            section = name
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if section is None:
            raise ConfigError(f"line {lineno}: key {key!r} appears before any section")
        if key not in _SECTIONS[section]:
            raise ConfigError(
                f"line {lineno}: unknown key {key!r} in [{section}]; "
                f"valid keys: {', '.join(_SECTIONS[section])}"
            )
        if key in entries:
            raise ConfigError(
                f"line {lineno}: duplicate key {key!r} (first set on line {entries[key][1]})"
            )
        if not value:
            raise ConfigError(f"line {lineno}: empty value for {key}")
        entries[key] = (value, lineno)

    numbers: dict[str, float] = {}
    for key in _FIELD_KEYS[:-1] + _DECAY_KEYS + ("delta_min", "delta_max"):
        if key in entries:
            numbers[key] = _parse_number(key, *entries[key])

    if "closure_target" in entries:
        value, lineno = entries["closure_target"]
        if value not in CLOSURE_TARGETS:
            raise ConfigError(
                f"line {lineno}: closure_target must be one of {', '.join(CLOSURE_TARGETS)}, "
                f"got {value!r}"
            )
        target = value
    else:
        target = _auto_closure_target(numbers)

    try:
        scenario = Scenario(
            **{k: v for k, v in numbers.items() if k not in ("delta_min", "delta_max")},
            closure_target=target,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    points = 1001
    if "points" in entries:
        value, lineno = entries["points"]
        if not _INT_RE.fullmatch(value):
            raise ConfigError(f"line {lineno}: points must be an integer, got {value!r}")
        points = int(value)
        if points < 2:
            raise ConfigError(f"line {lineno}: points must be at least 2, got {points}")
        if points > MAX_POINTS:
            raise ConfigError(f"line {lineno}: points must be at most {MAX_POINTS}, got {points}")
    delta_min = numbers.get("delta_min", -25.0)
    delta_max = numbers.get("delta_max", 25.0)
    if not delta_min < delta_max:
        lineno = entries.get("delta_min", entries.get("delta_max", ("", 0)))[1]
        raise ConfigError(
            f"line {lineno}: sweep range [{delta_min}, {delta_max}] is empty"
        )
    try:
        spec = SweepSpec(
            base=scenario, delta_min=delta_min, delta_max=delta_max, points=points
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    observables: tuple[str, ...] = OBSERVABLE_KEYS
    if "observables" in entries:
        value, lineno = entries["observables"]
        chosen = tuple(item.strip() for item in value.split(","))
        for item in chosen:
            if item not in OBSERVABLE_KEYS:
                raise ConfigError(
                    f"line {lineno}: unknown observable {item!r}; "
                    f"valid keys: {', '.join(OBSERVABLE_KEYS)}"
                )
        observables = chosen
    out_path = entries["out_path"][0] if "out_path" in entries else None
    return scenario, spec, OutputOptions(observables=observables, out_path=out_path)


def _auto_closure_target(numbers: dict[str, float]) -> str:
    for suffix in ("a1", "c1", "a2", "c2"):
        if numbers.get(f"omega_{suffix}", 0.0) == 0.0:
            return suffix
    return "none"


def render_config(
    scenario: Scenario,
    spec: SweepSpec | None = None,
    output: OutputOptions | None = None,
) -> str:
    """Canonical config document; parse_config(render_config(s)) round-trips."""
    lines = ["[fields]"]
    for key in _FIELD_KEYS[:-1]:
        lines.append(f"{key} = {float(getattr(scenario, key))!r}")
    lines.append(f"closure_target = {scenario.closure_target}")
    lines.append("")
    lines.append("[decays]")
    for key in _DECAY_KEYS:
        lines.append(f"{key} = {float(getattr(scenario, key))!r}")
    if spec is not None:
        lines.append("")
        lines.append("[sweep]")
        lines.append(f"delta_min = {float(spec.delta_min)!r}")
        lines.append(f"delta_max = {float(spec.delta_max)!r}")
        lines.append(f"points = {spec.points}")
        if output is not None:
            lines.append(f"observables = {', '.join(output.observables)}")
    if output is not None and output.out_path is not None:
        lines.append("")
        lines.append("[output]")
        lines.append(f"out_path = {output.out_path}")
    return "\n".join(lines) + "\n"


# Shared by the parameter sets demonstrating symmetric-drive transparency.
_STRONG_LOOP = dict(omega_a1=0.0, omega_a2=15.0, omega_c1=10.0, omega_c2=1.0)

_PRESET_FIELDS: dict[str, dict] = {
    "fig4": dict(_STRONG_LOOP, closure_target="a1"),
    "fig5": dict(_STRONG_LOOP, closure_target="a1"),
    "fig6a": dict(_STRONG_LOOP, omega_a2=10.0, closure_target="a1"),
    "fig6b": dict(_STRONG_LOOP, omega_a2=3.0, closure_target="a1"),
    "fig7": dict(_STRONG_LOOP, closure_target="a1"),
    "fig8": dict(_STRONG_LOOP, closure_target="a1"),
    # The three-field presets sweep with the weak a-b field's frame parameter
    # absorbing the probe detuning (closure target a1): that keeps the a-b
    # coherence resonant structure visible in the scan, which is the feature
    # these parameter sets demonstrate.  Completing the removed field's
    # detuning instead would leave the a-b sector static across the sweep.
    "fig9-left": dict(
        omega_a1=0.1, omega_a2=0.0, omega_c1=5.0, omega_c2=0.1, closure_target="a1"
    ),
    "fig9-right": dict(
        omega_a1=0.1, omega_a2=0.0, omega_c1=1.0, omega_c2=0.1, closure_target="a1"
    ),
    "fig10-left": dict(
        omega_a1=0.1, omega_a2=10.0, omega_c1=0.0, omega_c2=0.1, closure_target="a1"
    ),
    "fig10-right": dict(
        omega_a1=0.1, omega_a2=1.0, omega_c1=0.0, omega_c2=0.1, closure_target="a1"
    ),
}

PRESET_NAMES = tuple(_PRESET_FIELDS)


def preset(name: str) -> tuple[Scenario, SweepSpec]:
    """Bundled demonstration parameter set and its default sweep grid."""
    if name not in _PRESET_FIELDS:
        raise ValueError(
            f"unknown preset {name!r}; valid names: {', '.join(PRESET_NAMES)}"
        )
    scenario = Scenario(**_PRESET_FIELDS[name])
    return scenario, SweepSpec(base=scenario)


def _format_csv(result: SweepResult) -> bytes:
    table = np.column_stack([result.column(key) for key in CSV_COLUMNS])
    row_format = ",".join(["%.16e"] * len(CSV_COLUMNS))
    lines = [",".join(CSV_COLUMNS)]
    # Rows go to Python floats one at a time: a whole-table tolist() is no
    # faster and holds every float object at once.
    lines.extend(row_format % tuple(row.tolist()) for row in table)
    return ("\n".join(lines) + "\n").encode("ascii")


def write_csv(result: SweepResult, destination) -> None:
    """Write a sweep as CSV with 17 significant digits per value.

    destination may be a path or a binary stream; None means stdout.  The
    byte stream is a pure function of the result: no timestamps, fixed '\\n'
    line endings.
    """
    data = _format_csv(result)
    if destination is None:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    elif hasattr(destination, "write"):
        destination.write(data)
    else:
        Path(destination).write_bytes(data)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="diamondsim", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)

    def add_inputs(sub):
        group = sub.add_mutually_exclusive_group(required=True)
        group.add_argument("--config", metavar="PATH", help="configuration file")
        group.add_argument("--preset", metavar="NAME", help="bundled parameter set")

    sub = commands.add_parser("sweep", help="scan the probe detuning, emit CSV")
    add_inputs(sub)
    sub.add_argument("--out", metavar="PATH", help="CSV destination (default stdout)")
    sub.add_argument("--min", dest="delta_min", type=float, help="grid lower edge")
    sub.add_argument("--max", dest="delta_max", type=float, help="grid upper edge")
    sub.add_argument("--points", type=int, help="grid size")

    sub = commands.add_parser("steady", help="solve one steady state")
    add_inputs(sub)
    sub.add_argument("--out", metavar="PATH", help="CSV of density-matrix entries")

    sub = commands.add_parser("evolve", help="integrate from the ground state")
    add_inputs(sub)
    sub.add_argument("--out", metavar="PATH", help="CSV of density-matrix entries")
    sub.add_argument("--t-final", dest="t_final", type=float, default=200.0)
    sub.add_argument("--dt", type=float, default=1e-3)

    sub = commands.add_parser("dressed", help="drive eigenvalues and dark states")
    add_inputs(sub)
    sub.add_argument("--out", metavar="PATH", help="CSV of the spectrum")

    commands.add_parser("presets", help="list bundled parameter sets")
    return parser


def _load_inputs(args) -> tuple[Scenario, SweepSpec, OutputOptions]:
    if args.preset is not None:
        try:
            scenario, spec = preset(args.preset)
        except ValueError as exc:
            raise _UsageError(str(exc)) from exc
        return scenario, spec, OutputOptions()
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        raise _UsageError(f"cannot read config {args.config!r}: {exc}") from exc
    return parse_config(text)


def _entry_rows(rho: np.ndarray):
    for i, left in enumerate("abcd"):
        for j, right in enumerate("abcd"):
            yield f"{left}{right}", rho[i, j]


def _print_state(rho: np.ndarray, observables: tuple[str, ...]) -> None:
    for key in observables:
        value = extract_observable(rho, key)
        if isinstance(value, float):
            print(f"{key:6s} = {value: .12g}")
        else:
            print(f"{key:6s} = {value.real: .12g} {value.imag:+.12g}i")


def _write_state_csv(rho: np.ndarray, destination: str) -> None:
    lines = ["entry,re,im"]
    for label, value in _entry_rows(rho):
        lines.append(f"{label},{value.real:.16e},{value.imag:.16e}")
    Path(destination).write_bytes(("\n".join(lines) + "\n").encode("ascii"))


def _run_sweep_command(args, scenario, spec, output) -> int:
    overrides = {
        key: getattr(args, key)
        for key in ("delta_min", "delta_max", "points")
        if getattr(args, key) is not None
    }
    if overrides:
        try:
            spec = replace(spec, **overrides)
        except ValueError as exc:
            raise _UsageError(str(exc)) from exc
    result = run_sweep(spec)
    write_csv(result, args.out if args.out is not None else output.out_path)
    return 0


def _run_steady_command(args, scenario, spec, output) -> int:
    rho = steady_state(build_liouvillian(closure_complete(scenario)))
    _print_state(rho, output.observables)
    if args.out is not None:
        _write_state_csv(rho, args.out)
    return 0


def _run_evolve_command(args, scenario, spec, output) -> int:
    completed = closure_complete(scenario)
    try:
        rho = evolve(completed, ground_state(), t_final=args.t_final, dt=args.dt)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    _print_state(rho, output.observables)
    if args.out is not None:
        _write_state_csv(rho, args.out)
    return 0


def _run_dressed_command(args, scenario, spec, output) -> int:
    spectrum = dressed_spectrum(scenario)
    report = dark_classification(spectrum)
    group_of = {}
    for g, members in enumerate(spectrum.groups):
        for k in members:
            group_of[k] = g
    print("drive eigenvalues (probe excluded, zero detunings):")
    for k, value in enumerate(spectrum.eigenvalues):
        print(f"  [{k}] {value: .10g}   group {group_of[k]}")
    print(f"group dark dimensions: {list(report.group_dark_dims)}")
    print(f"total dark states: {report.total_dark}")
    print(f"degenerate: {'yes' if report.degenerate else 'no'}")
    if args.out is not None:
        lines = ["index,eigenvalue,group,re_a,im_a,re_b,im_b,re_c,im_c,re_d,im_d"]
        for k, value in enumerate(spectrum.eigenvalues):
            vec_parts = ",".join(
                f"{spectrum.eigenvectors[i, k].real:.16e},{spectrum.eigenvectors[i, k].imag:.16e}"
                for i in range(4)
            )
            lines.append(f"{k},{value:.16e},{group_of[k]},{vec_parts}")
        Path(args.out).write_bytes(("\n".join(lines) + "\n").encode("ascii"))
    return 0


def _run_presets_command() -> int:
    for name in PRESET_NAMES:
        scenario, spec = preset(name)
        print(
            f"{name:12s} omega_a1={scenario.omega_a1:g} omega_a2={scenario.omega_a2:g} "
            f"omega_c1={scenario.omega_c1:g} omega_c2={scenario.omega_c2:g} "
            f"gammas=1,1,1,1 closure_target={scenario.closure_target} "
            f"sweep=[{spec.delta_min:g},{spec.delta_max:g}]x{spec.points}"
        )
    return 0


def main(argv=None) -> int:
    """Entry point; returns the exit status instead of calling sys.exit."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "presets":
            return _run_presets_command()
        scenario, spec, output = _load_inputs(args)
    except (_UsageError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    handlers = {
        "sweep": _run_sweep_command,
        "steady": _run_steady_command,
        "evolve": _run_evolve_command,
        "dressed": _run_dressed_command,
    }
    try:
        return handlers[args.command](args, scenario, spec, output)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 1
    except SimulationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(f"parameters: {scenario}", file=sys.stderr)
        return 2


def run() -> None:
    """Console-script wrapper."""
    sys.exit(main())
