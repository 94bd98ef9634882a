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
whose dataclass default is a float reads a number, an int an integer, a
tuple a comma list of observable names, and None (out_path) text.
Only sweep reads out_path; steady, evolve and dressed write a file only
with --out.

'#' and ';' start a comment.  Keys default as in Scenario (decay rates 1,
all else 0) and SweepSpec (the grid [-25, 25] with 1001 points).  The
parser checks the text only: sections, keys, duplicates, empty values,
number and integer syntax, and integers too long to read; a number that
overflows reads as inf.  Range rules (finiteness, signs, atom.MAX_RATE,
sweep.MAX_POINTS, the closure targets, the grid order) belong to Scenario
and SweepSpec, and the observable names and out_path's text to
OutputOptions; the parser reports the errors.InputError they raise with
the lowest line among the keys the rule involves, so every rejected value
carries its line number.  When closure_target is not given it defaults to
the first inactive field in the order a1, c1, a2, c2, or "none" when all
four fields drive.

Exit status: 0 on success or --help, 1 for usage and configuration errors (any
ValueError), 2 when a computation fails (no steady state, broken closure,
unstable step, ...).
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .atom import LEVELS, Scenario, closure_complete
from .dressed import dark_classification, dressed_spectrum
from .errors import InputError, SimulationError, echo
from .lindblad import build_liouvillian, evolve, ground_state, steady_state
from .sweep import CSV_COLUMNS, OBSERVABLE_KEYS, SweepResult, SweepSpec, _entry, run_sweep

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

_NUMBER_RE = re.compile(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?$")
_INT_RE = re.compile(r"[+-]?[0-9]+$")
_COMMENT_RE = re.compile(r"[#;]")


@dataclass(frozen=True)
class OutputOptions:
    """Output-related settings from a config document.

    observables must be a tuple of keys of sweep.OBSERVABLE_KEYS, at least
    one, and out_path, if set, text that a config line carries unchanged;
    otherwise errors.InputError naming the field.
    """

    observables: tuple[str, ...] = OBSERVABLE_KEYS
    out_path: str | None = None

    def __post_init__(self):
        if not isinstance(self.observables, tuple):
            kind = type(self.observables).__name__
            raise InputError(f"observables must be a tuple, got {kind}", ("observables",))
        unknown = [item for item in self.observables if item not in OBSERVABLE_KEYS]
        if unknown or not self.observables:
            shown = f"unknown observable {echo(unknown[0])!r}" if unknown else "no observables"
            raise InputError(f"{shown}; valid keys: {', '.join(OBSERVABLE_KEYS)}", ("observables",))
        path = self.out_path
        # splitlines() is what parse_config splits a document with; "" gives no line.
        if path is not None and (
            not isinstance(path, str) or path != path.strip() or _COMMENT_RE.search(path)
            or len(path.splitlines()) != 1
        ):
            rule = "non-empty text without '#', ';', a line break or surrounding blanks"
            raise InputError(f"out_path must be {rule}, got {echo(path)!r}", ("out_path",))


_GRID_FIELDS = tuple(f for f in fields(SweepSpec) if f.name != "base")
_GRID_KEYS = tuple(f.name for f in _GRID_FIELDS)
#: Scenario, grid and output keys in field order, each with the type its value reads as.
_KINDS = {f.name: type(f.default) for f in fields(Scenario) + _GRID_FIELDS + fields(OutputOptions)}
_SECTIONS = {
    "fields": tuple(f.name for f in fields(Scenario) if not f.name.startswith("gamma")),
    "decays": tuple(f.name for f in fields(Scenario) if f.name.startswith("gamma")),
    "sweep": _GRID_KEYS + ("observables",),
    "output": ("out_path",),
}


class ConfigError(ValueError):
    """A configuration document could not be accepted."""


# The number readers of config values and typed flags; argparse names them in its
# "invalid number value" line.  A ValueError's text is a rule that _parse_value fills in.
def number(text: str) -> float:
    """A float in the config's number syntax: ASCII digits, no inf, nan or '_'."""
    if not _NUMBER_RE.fullmatch(text):
        raise ValueError("malformed number for {key}: {text!r}")
    return float(text)


def integer(text: str) -> int:
    """An int in the config's integer syntax: ASCII digits after an optional sign."""
    if not _INT_RE.fullmatch(text):
        raise ValueError("{key} must be an integer, got {text!r}")
    try:
        return int(text)
    except ValueError:  # beyond Python's integer string conversion limit
        raise ValueError("{key} is too long to read: {length} characters") from None


#: How parse_config reads and render_config writes each kind of value; other kinds stay text.
_READ = {float: number, int: integer, tuple: lambda text: tuple(map(str.strip, text.split(",")))}
_RENDER = {float: lambda value: repr(float(value)), tuple: ", ".join}


def _parse_value(key: str, text: str, lineno: int):
    try:
        return _READ.get(_KINDS[key], str)(text)
    except ValueError as exc:  # a number reader's rule text, to fill in
        rule = str(exc).format(key=key, text=echo(text), length=len(text))
        raise ConfigError(f"line {lineno}: {rule}") from None


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
                raise ConfigError(f"line {lineno}: unterminated section header {echo(line)!r}")
            name = line[1:-1].strip()
            if name not in _SECTIONS:
                raise ConfigError(
                    f"line {lineno}: unknown section [{echo(name)}]; "
                    f"valid sections: {', '.join(_SECTIONS)}"
                )
            section = name
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {echo(line)!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if section is None:
            raise ConfigError(f"line {lineno}: key {echo(key)!r} appears before any section")
        if key not in _SECTIONS[section]:
            raise ConfigError(
                f"line {lineno}: unknown key {echo(key)!r} in [{section}]; "
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
    output = {f.name: values.pop(f.name) for f in fields(OutputOptions) if f.name in values}
    if "closure_target" not in values:
        values["closure_target"] = _auto_closure_target(values)
    try:
        options = OutputOptions(**output)
        scenario = Scenario(**values)
        spec = SweepSpec(base=scenario, **grid)
    except InputError as exc:
        lineno = min(entries[key][1] for key in exc.fields if key in entries)
        raise ConfigError(f"line {lineno}: {exc}") from exc
    return scenario, spec, options


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
    """Canonical config document; parse_config(render_config(s)) round-trips.

    A section appears when one of its values is given: [sweep] with spec or
    output, [output] with output.out_path.
    """
    values = {}
    for source in (scenario, spec, output):
        values.update(vars(source) if source is not None else ())
    blocks = []
    for name, keys in _SECTIONS.items():
        lines = [f"{key} = {_RENDER.get(_KINDS[key], str)(values[key])}"
                 for key in keys if values.get(key) is not None]
        if lines:
            blocks.append("\n".join([f"[{name}]", *lines]))
    return "\n\n".join(blocks) + "\n"


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
        raise ValueError(f"unknown preset {echo(name)!r}; valid names: {', '.join(PRESET_NAMES)}")
    # Every preset sweeps with closure target a1, the inactive field of
    # fig4-fig8.  The three-field presets sweep with the weak a-b field's
    # frame parameter absorbing the probe detuning (closure target a1): that
    # keeps the a-b coherence resonant structure visible in the scan, which
    # is the feature these parameter sets demonstrate.  Completing the
    # removed field's detuning instead would leave the a-b sector static
    # across the sweep.
    scenario = Scenario(*_PRESET_DRIVES[name], closure_target="a1")
    return scenario, SweepSpec(base=scenario)


def _write_table(header, row_format: str, rows, destination) -> None:
    """Write header, then rows filled into row_format, as ASCII to a path, a stream or stdout."""
    lines = [",".join(header), *(row_format % row for row in rows)]
    data = ("\n".join(lines) + "\n").encode("ascii")
    if destination is None:  # a stdout redirected to an io.StringIO has no buffer
        if (buffer := getattr(sys.stdout, "buffer", None)) is None:
            sys.stdout.write(data.decode("ascii"))
        else:
            buffer.write(data)
            buffer.flush()
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
    rows = (tuple(row.tolist()) for row in table)
    _write_table(CSV_COLUMNS, row_format, rows, destination)


#: Longest argparse message printed whole, the limit _Parser.error gives errors.echo:
#: enough for an invalid subcommand of errors.ECHO_MAX (32) characters and the choices.
_MESSAGE_MAX = 160


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NUMBER_RE  # so -1e-3 is a value, not an option

    def error(self, message):
        # argparse's messages repeat what was typed whole.
        raise ValueError(echo(message, _MESSAGE_MAX))


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
    sub.add_argument("--min", dest="delta_min", type=number, help="grid lower edge")
    sub.add_argument("--max", dest="delta_max", type=number, help="grid upper edge")
    sub.add_argument("--points", type=integer, help="grid size")

    sub = commands.add_parser("steady", help="solve one steady state")
    add_inputs(sub)
    sub.add_argument("--out", metavar="PATH", help="CSV of density-matrix entries")

    sub = commands.add_parser("evolve", help="integrate from the ground state")
    add_inputs(sub)
    sub.add_argument("--out", metavar="PATH", help="CSV of density-matrix entries")
    sub.add_argument("--t-final", dest="t_final", type=number, default=200.0)
    sub.add_argument("--dt", type=number, default=1e-3)

    sub = commands.add_parser("dressed", help="drive eigenvalues and dark states")
    add_inputs(sub)
    sub.add_argument("--out", metavar="PATH", help="CSV of the spectrum")

    commands.add_parser("presets", help="list bundled parameter sets")
    return parser


_PARSER = _build_parser()  # built once: a build takes about 1 ms, a parse reuses it


def _load_inputs(args) -> tuple[Scenario, SweepSpec, OutputOptions]:
    if args.preset is not None:
        return *preset(args.preset), OutputOptions()
    try:
        text = Path(args.config).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        # An OSError's own text repeats the path; its strerror does not.
        reason = getattr(exc, "strerror", None) or exc
        raise ConfigError(f"cannot read config {echo(args.config)!r}: {reason}") from exc
    return parse_config(text)


def _report_state(rho: np.ndarray, observables: tuple[str, ...], out: str | None) -> None:
    """Print the chosen observables of rho; given out, also write its entries as CSV."""
    for key in observables:
        row, col = _entry(key)
        value = complex(rho[row, col])
        imag = "" if row == col else f" {value.imag:+.12g}i"
        print(f"{key:6s} = {value.real: .12g}{imag}")
    if out is not None:
        labels = [left + right for left in LEVELS for right in LEVELS]
        rows = zip(labels, rho.real.ravel().tolist(), rho.imag.ravel().tolist())
        _write_table(("entry", "re", "im"), "%s,%.16e,%.16e", rows, out)


def _report_spectrum(scenario: Scenario, out: str | None) -> None:
    """Print the dressed spectrum and dark census; given out, also write the spectrum as CSV."""
    spectrum = dressed_spectrum(scenario)
    report = dark_classification(spectrum)
    group_of = {k: g for g, members in enumerate(spectrum.groups) for k in members}
    print("drive eigenvalues (probe excluded, zero detunings):")
    for k, value in enumerate(spectrum.eigenvalues):
        print(f"  [{k}] {value: .10g}   group {group_of[k]}")
    print(f"group dark dimensions: {list(report.group_dark_dims)}")
    print(f"total dark states: {report.total_dark}")
    print(f"degenerate: {'yes' if report.degenerate else 'no'}")
    if out is not None:
        parts = [f"{part}_{level}" for level in LEVELS for part in ("re", "im")]
        vectors = spectrum.eigenvectors.T  # row k: eigenvector k in level order
        components = np.stack((vectors.real, vectors.imag), axis=-1).reshape(len(vectors), -1)
        values = spectrum.eigenvalues.tolist()
        rows = [(k, values[k], group_of[k], *components[k].tolist()) for k in range(len(values))]
        row_format = "%d,%.16e,%d" + ",%.16e" * len(parts)
        _write_table(("index", "eigenvalue", "group", *parts), row_format, rows, out)


def main(argv=None) -> int:
    """Entry point; returns the exit status instead of calling sys.exit."""
    try:
        args = _PARSER.parse_args(argv)
        if args.command == "presets":
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
        scenario, spec, output = _load_inputs(args)
        if args.command == "sweep":
            flags = {key: getattr(args, key) for key in _GRID_KEYS}
            spec = replace(spec, **{k: v for k, v in flags.items() if v is not None})
            write_csv(run_sweep(spec), args.out if args.out is not None else output.out_path)
        elif args.command == "steady":
            rho = steady_state(build_liouvillian(closure_complete(scenario)))
            _report_state(rho, output.observables, args.out)
        elif args.command == "evolve":
            rho = evolve(closure_complete(scenario), ground_state(), args.t_final, args.dt)
            _report_state(rho, output.observables, args.out)
        else:
            _report_spectrum(scenario, args.out)
        return 0
    except SystemExit:  # only --help exits the parser, after printing the usage
        return 0
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        # An OSError's own text repeats the path; its strerror does not.
        print(f"error: cannot write output: {exc.strerror or echo(str(exc))}", file=sys.stderr)
        return 1
    except SimulationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(f"parameters: {scenario}", file=sys.stderr)
        return 2


def run() -> None:
    """Console-script wrapper."""
    sys.exit(main())
