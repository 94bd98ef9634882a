"""Command-line surface: config files, presets, CSV output, subcommands.

Configuration files are flat INI-style text with four sections:

    [fields]   omega_a1 omega_a2 omega_c1 omega_c2
               delta_a1 delta_a2 delta_c1 delta_c2 closure_target
    [decays]   gamma1 gamma2 gamma3 gamma4
    [sweep]    delta_min delta_max points observables
    [output]   out_path

The keys come from the dataclasses: [fields] and [decays] are Scenario's
fields (the gamma* rates in [decays]), [sweep] is SweepSpec's grid plus
OutputOptions.observables, and [output] is OutputOptions.out_path.  A key
whose dataclass default is a float reads a number, an int an integer.

'#' and ';' start a comment.  Keys default as in Scenario (decay rates 1,
all else 0) and SweepSpec (the grid [-25, 25] with 1001 points).  The
parser checks the text: sections, keys, duplicates, empty values, number
and integer syntax, numbers that overflow to infinity, integers too long
to read, and observable names.  Range rules (signs, atom.MAX_RABI,
sweep.MAX_POINTS, the closure targets, the grid order) belong to Scenario
and SweepSpec; the parser reports the errors.InputError they raise with
the lowest line among the keys the rule involves, so every rejected value
carries its line number.  When closure_target is not given it defaults to
the first inactive field in the order a1, c1, a2, c2, or "none" when all
four fields drive.

Exit status: 0 on success, 1 for usage and configuration errors, 2 when a
computation fails (no steady state, broken closure, unstable step, ...).
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .atom import LEVELS, Scenario, closure_complete
from .dressed import dark_classification, dressed_spectrum
from .errors import InputError, SimulationError
from .lindblad import build_liouvillian, evolve, ground_state, steady_state
from .sweep import (
    CSV_COLUMNS,
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

_GRID_FIELDS = tuple(f for f in fields(SweepSpec) if f.name != "base")
_GRID_KEYS = tuple(f.name for f in _GRID_FIELDS)
#: Scenario and grid keys in field order, each with the type its value reads as.
_KINDS = {f.name: type(f.default) for f in fields(Scenario) + _GRID_FIELDS}
_SECTIONS = {
    "fields": tuple(f.name for f in fields(Scenario) if not f.name.startswith("gamma")),
    "decays": tuple(f.name for f in fields(Scenario) if f.name.startswith("gamma")),
    "sweep": _GRID_KEYS + ("observables",),
    "output": ("out_path",),
}


class ConfigError(ValueError):
    """A configuration document could not be accepted."""


class _UsageError(Exception):
    """Command line arguments could not be accepted."""


@dataclass(frozen=True)
class OutputOptions:
    """Output-related settings from a config document."""

    observables: tuple[str, ...] = OBSERVABLE_KEYS
    out_path: str | None = None


def _parse_value(key: str, text: str, lineno: int):
    kind = _KINDS[key]
    if kind is float:
        if not _NUMBER_RE.fullmatch(text):
            raise ConfigError(f"line {lineno}: malformed number for {key}: {text!r}")
        value = float(text)
        if not math.isfinite(value):
            raise ConfigError(f"line {lineno}: {key} must be finite, got {text}")
        return value
    if kind is int:
        if not _INT_RE.fullmatch(text):
            raise ConfigError(f"line {lineno}: {key} must be an integer, got {text!r}")
        try:
            return int(text)
        except ValueError:  # beyond Python's integer string conversion limit
            raise ConfigError(
                f"line {lineno}: {key} is too long to read: {len(text)} characters"
            ) from None
    return text


def parse_config(text: str) -> tuple[Scenario, SweepSpec, OutputOptions]:
    """Parse a configuration document.

    Returns the Scenario, the sweep grid, and the output options.  Raises
    ConfigError with a line number for unknown sections or keys, duplicate
    keys, malformed values, and values that Scenario or SweepSpec reject.
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

    values = {key: _parse_value(key, *entries[key]) for key in _KINDS if key in entries}
    grid = {key: values.pop(key) for key in _GRID_KEYS if key in values}

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

    if "closure_target" not in values:
        values["closure_target"] = _auto_closure_target(values)
    try:
        scenario = Scenario(**values)
        spec = SweepSpec(base=scenario, **grid)
    except InputError as exc:
        lineno = min(entries[key][1] for key in exc.fields if key in entries)
        raise ConfigError(f"line {lineno}: {exc}") from exc
    return scenario, spec, OutputOptions(observables=observables, out_path=out_path)


def _auto_closure_target(values: dict[str, float]) -> str:
    for suffix in ("a1", "c1", "a2", "c2"):
        if values.get(f"omega_{suffix}", 0.0) == 0.0:
            return suffix
    return "none"


def render_config(
    scenario: Scenario,
    spec: SweepSpec | None = None,
    output: OutputOptions | None = None,
) -> str:
    """Canonical config document; parse_config(render_config(s)) round-trips."""

    def section(name, source, keys):
        return [f"[{name}]"] + [
            f"{key} = {float(getattr(source, key))!r}"
            if _KINDS[key] is float
            else f"{key} = {getattr(source, key)}"
            for key in keys
        ]

    lines = section("fields", scenario, _SECTIONS["fields"])
    lines += ["", *section("decays", scenario, _SECTIONS["decays"])]
    if spec is not None:
        lines += ["", *section("sweep", spec, _GRID_KEYS)]
        if output is not None:
            lines.append(f"observables = {', '.join(output.observables)}")
    if output is not None and output.out_path is not None:
        lines += ["", "[output]", f"out_path = {output.out_path}"]
    return "\n".join(lines) + "\n"


# Drives (omega_a1, omega_a2, omega_c1, omega_c2), Scenario's first four
# fields.  fig4-fig8 share the strong loop and demonstrate symmetric-drive
# transparency.
_PRESET_DRIVES = {
    "fig4": (0.0, 15.0, 10.0, 1.0),
    "fig5": (0.0, 15.0, 10.0, 1.0),
    "fig6a": (0.0, 10.0, 10.0, 1.0),
    "fig6b": (0.0, 3.0, 10.0, 1.0),
    "fig7": (0.0, 15.0, 10.0, 1.0),
    "fig8": (0.0, 15.0, 10.0, 1.0),
    "fig9-left": (0.1, 0.0, 5.0, 0.1),
    "fig9-right": (0.1, 0.0, 1.0, 0.1),
    "fig10-left": (0.1, 10.0, 0.0, 0.1),
    "fig10-right": (0.1, 1.0, 0.0, 0.1),
}

PRESET_NAMES = tuple(_PRESET_DRIVES)


def preset(name: str) -> tuple[Scenario, SweepSpec]:
    """Bundled demonstration parameter set and its default sweep grid."""
    if name not in _PRESET_DRIVES:
        raise ValueError(
            f"unknown preset {name!r}; valid names: {', '.join(PRESET_NAMES)}"
        )
    # Every preset sweeps with closure target a1, the inactive field of
    # fig4-fig8.  The three-field presets sweep with the weak a-b field's
    # frame parameter absorbing the probe detuning (closure target a1): that
    # keeps the a-b coherence resonant structure visible in the scan, which
    # is the feature these parameter sets demonstrate.  Completing the
    # removed field's detuning instead would leave the a-b sector static
    # across the sweep.
    scenario = Scenario(*_PRESET_DRIVES[name], closure_target="a1")
    return scenario, SweepSpec(base=scenario)


def _write_lines(lines, destination) -> None:
    """Write lines ended by '\\n' as ASCII to a path, a binary stream or (None) stdout."""
    data = ("\n".join(lines) + "\n").encode("ascii")
    if destination is None:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    elif hasattr(destination, "write"):
        destination.write(data)
    else:
        Path(destination).write_bytes(data)


def write_csv(result: SweepResult, destination) -> None:
    """Write a sweep as CSV with 17 significant digits per value.

    destination may be a path or a binary stream; None means stdout.  The
    byte stream is a pure function of the result: no timestamps, fixed '\\n'
    line endings.
    """
    table = np.column_stack([result.column(key) for key in CSV_COLUMNS])
    row_format = ",".join(["%.16e"] * len(CSV_COLUMNS))
    # Rows go to Python floats one at a time: a whole-table tolist() is no
    # faster and holds every float object at once.
    rows = (row_format % tuple(row.tolist()) for row in table)
    _write_lines([",".join(CSV_COLUMNS), *rows], destination)


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


def _report_state(rho: np.ndarray, observables: tuple[str, ...], out: str | None) -> int:
    """Print the chosen observables of rho; given out, also write its entries as CSV."""
    for key in observables:
        value = extract_observable(rho, key)
        if isinstance(value, float):
            print(f"{key:6s} = {value: .12g}")
        else:
            print(f"{key:6s} = {value.real: .12g} {value.imag:+.12g}i")
    if out is not None:
        entries = [
            f"{left}{right},{rho[i, j].real:.16e},{rho[i, j].imag:.16e}"
            for i, left in enumerate(LEVELS)
            for j, right in enumerate(LEVELS)
        ]
        _write_lines(["entry,re,im", *entries], out)
    return 0


def _run_sweep_command(args, scenario, spec, output) -> int:
    overrides = {key: getattr(args, key) for key in _GRID_KEYS if getattr(args, key) is not None}
    if overrides:
        try:
            spec = replace(spec, **overrides)
        except InputError as exc:
            raise _UsageError(str(exc)) from exc
    result = run_sweep(spec)
    write_csv(result, args.out if args.out is not None else output.out_path)
    return 0


def _run_steady_command(args, scenario, spec, output) -> int:
    rho = steady_state(build_liouvillian(closure_complete(scenario)))
    return _report_state(rho, output.observables, args.out)


def _run_evolve_command(args, scenario, spec, output) -> int:
    completed = closure_complete(scenario)
    try:
        rho = evolve(completed, ground_state(), t_final=args.t_final, dt=args.dt)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    return _report_state(rho, output.observables, args.out)


def _run_dressed_command(args, scenario, spec, output) -> int:
    spectrum = dressed_spectrum(scenario)
    report = dark_classification(spectrum)
    group_of = {k: g for g, members in enumerate(spectrum.groups) for k in members}
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
        _write_lines(lines, args.out)
    return 0


def _run_presets_command() -> int:
    for name in PRESET_NAMES:
        scenario, spec = preset(name)
        gammas = ",".join(f"{getattr(scenario, key):g}" for key in _SECTIONS["decays"])
        print(
            f"{name:12s} omega_a1={scenario.omega_a1:g} omega_a2={scenario.omega_a2:g} "
            f"omega_c1={scenario.omega_c1:g} omega_c2={scenario.omega_c2:g} "
            f"gammas={gammas} closure_target={scenario.closure_target} "
            f"sweep=[{spec.delta_min:g},{spec.delta_max:g}]x{spec.points}"
        )
    return 0


def main(argv=None) -> int:
    """Entry point; returns the exit status instead of calling sys.exit."""
    handlers = {
        "sweep": _run_sweep_command,
        "steady": _run_steady_command,
        "evolve": _run_evolve_command,
        "dressed": _run_dressed_command,
    }
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "presets":
            return _run_presets_command()
        scenario, spec, output = _load_inputs(args)
        return handlers[args.command](args, scenario, spec, output)
    except (_UsageError, ConfigError) as exc:
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
