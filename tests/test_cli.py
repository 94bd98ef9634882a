"""Tests for config parsing, presets, CSV output, and the command line."""

import contextlib
import io
import itertools
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import diamondsim
from diamondsim import cli
from diamondsim.atom import CLOSURE_TARGETS, LEVELS, MAX_RATE, Scenario, closure_complete
from diamondsim.cli import (
    ConfigError,
    OutputOptions,
    PRESET_NAMES,
    main,
    parse_config,
    preset,
    render_config,
    write_csv,
)
from diamondsim.dressed import dressed_spectrum
from diamondsim.errors import ECHO_MAX, InputError
from diamondsim.lindblad import build_liouvillian, evolve, ground_state, steady_state
from diamondsim.sweep import (
    CSV_COLUMNS,
    MAX_POINTS,
    OBSERVABLE_KEYS,
    SweepResult,
    SweepSpec,
    run_sweep,
)

FULL_DOC = """\
# demo configuration
[fields]
omega_a1 = 0.0
omega_a2 = 15.0   # strong couple field
omega_c1 = 10.0
omega_c2 = 1.0
delta_a2 = 0.5

[decays]
gamma1 = 0.5
gamma4 = 2.0

[sweep]
delta_min = -10
delta_max = 10
points = 51
observables = pop_b, cd

[output]
out_path = run.csv
"""


def test_parse_full_document():
    scenario, spec, output = parse_config(FULL_DOC)
    assert scenario.omega_a2 == 15.0
    assert scenario.delta_a2 == 0.5
    assert scenario.delta_a1 == 0.0
    assert (scenario.gamma1, scenario.gamma2, scenario.gamma3, scenario.gamma4) == (
        0.5, 1.0, 1.0, 2.0,
    )
    assert scenario.closure_target == "a1"  # first inactive field
    assert (spec.delta_min, spec.delta_max, spec.points) == (-10.0, 10.0, 51)
    assert output.observables == ("pop_b", "cd")
    assert output.out_path == "run.csv"


def test_defaults_from_empty_sections():
    scenario, spec, output = parse_config("[fields]\nomega_c2 = 1.0\n")
    assert scenario == Scenario(omega_c2=1.0, closure_target="a1")
    assert (spec.delta_min, spec.delta_max, spec.points) == (-25.0, 25.0, 1001)
    assert output == OutputOptions()


@pytest.mark.parametrize(
    "doc,fragment",
    [
        ("[nope]\n", "line 1: unknown section"),
        ("[fields\n", "line 1: unterminated section header"),
        ("omega_a1 = 1\n", "line 1: key 'omega_a1' appears before any section"),
        ("[fields]\nfoo = 1\n", "line 2: unknown key 'foo'"),
        ("[decays]\nomega_a1 = 1\n", "valid keys: gamma1"),
        ("[fields]\nomega_a1 1\n", "line 2: expected 'key = value'"),
        ("[fields]\nomega_a1 = 1\nomega_a1 = 2\n", "first set on line 2"),
        ("[fields]\nomega_a1 =\n", "line 2: empty value"),
        ("[fields]\nomega_a1 = abc\n", "malformed number"),
        ("[fields]\ndelta_a1 = 1.2.3\n", "malformed number"),
        ("[decays]\ngamma1 = nan\n", "malformed number"),
        ("[fields]\nomega_a1 = -1\n", "non-negative"),
        ("[decays]\ngamma2 = -0.1\n", "non-negative"),
        ("[fields]\nclosure_target = q9\n", "closure_target must be one of"),
        ("[sweep]\npoints = 3.5\n", "must be an integer"),
        ("[sweep]\npoints = 1\n", "at least 2"),
        ("[sweep]\n\npoints = 1000001\n", f"line 3: points must be at most {MAX_POINTS}"),
        ("[sweep]\ndelta_min = 5\ndelta_max = -5\n", "sweep range"),
        ("[fields]\ndelta_a1 = 1e999\n", "finite"),
        ("[sweep]\ndelta_max = 1e999\n", "finite"),
        # A non-finite number waits its turn: OutputOptions, then Scenario, then SweepSpec.
        ("[sweep]\ndelta_max = 1e999\nobservables = nope\n", "line 3: unknown observable 'nope'"),
        ("[sweep]\nobservables = pop_q\n", "line 2: unknown observable 'pop_q'"),
        ("[fields]\nomega_a1 = -1\n[sweep]\nobservables = cd,\n", "line 4: unknown observable ''"),
        ("[fields]\nomega_a1 = 1e999\n", "line 2: omega_a1 must be finite, got inf"),
        (
            "[sweep]\ndelta_min = -1e308\ndelta_max = 1e308\n",
            "line 2: delta_min must be at most 1e+76 in magnitude, got -1e+308",
        ),
        ("[sweep]\ndelta_max = -30\n", "line 2: sweep range"),
        ("[sweep]\npoints = 5\n\ndelta_max = 1\ndelta_min = 1\n", "line 4: sweep range [1.0, 1.0]"),
        ("[fields]\nomega_a2 = 1.3\nomega_c1 = 1e77\n", "line 3: omega_c1 must be at most 1e+76"),
        ("[fields]\nomega_a1 = 1e78\nomega_a2 = 1.3\n", "line 2: omega_a1 must be at most"),
        ("[decays]\ngamma1 = 1\n[fields]\nclosure_target = b\n", "line 4: closure_target"),
        pytest.param(
            "[sweep]\npoints = " + "1" * 5000 + "\n",
            "line 2: points is too long to read: 5000 characters",
            id="points-of-5000-digits",
        ),
        pytest.param(
            "[fields]\nomega_a1 = " + "1" * 5000 + "\n",
            "line 2: omega_a1 must be finite, got inf",
            id="omega_a1-of-5000-digits",
        ),
    ],
)
def test_parse_errors(doc, fragment):
    with pytest.raises(ConfigError) as info:
        parse_config(doc)
    assert fragment in str(info.value)


def test_readme_config_example_parses(tmp_path, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    text = readme.split("### Config format", 1)[1].split("```", 2)[1].lstrip("\n")
    scenario, spec, output = parse_config(text)
    assert scenario == preset("fig5")[0]
    assert (spec.delta_min, spec.delta_max, spec.points) == (-25.0, 25.0, 1001)
    assert output == OutputOptions(observables=("cd", "ca", "db"), out_path="spectrum.csv")
    cfg = tmp_path / "readme.cfg"
    cfg.write_text(text)
    assert main(["steady", "--config", str(cfg)]) == 0
    assert capsys.readouterr().out.startswith("cd     = ")


def test_auto_closure_target_order():
    def target_of(doc):
        return parse_config(doc)[0].closure_target

    assert target_of("[fields]\nomega_a2 = 1\nomega_c1 = 1\nomega_c2 = 1\n") == "a1"
    assert target_of("[fields]\nomega_a1 = 1\nomega_a2 = 1\nomega_c2 = 1\n") == "c1"
    assert target_of("[fields]\nomega_a1 = 1\nomega_c1 = 1\nomega_c2 = 1\n") == "a2"
    assert target_of("[fields]\nomega_a1 = 1\nomega_c1 = 1\nomega_a2 = 1\n") == "c2"
    all_active = "[fields]\nomega_a1 = 1\nomega_a2 = 1\nomega_c1 = 1\nomega_c2 = 1\n"
    assert target_of(all_active) == "none"


def test_explicit_closure_target_wins():
    doc = "[fields]\nomega_a1 = 0\nclosure_target = c1\n"
    assert parse_config(doc)[0].closure_target == "c1"


@pytest.mark.parametrize(
    "output",
    [
        OutputOptions(observables=("pop_a", "cd"), out_path="x.csv"),
        OutputOptions(observables=("db",)),
        OutputOptions(out_path="out dir/run=1 [a].csv"),
    ],
)
@pytest.mark.parametrize("with_spec", [True, False])
def test_render_round_trip(output, with_spec):
    scenario = Scenario(
        omega_a1=1.0 / 3.0,
        omega_c1=2.0,
        delta_c2=-2.5e-07,
        gamma3=0.1,
        closure_target="c1",
    )
    spec = SweepSpec(base=scenario, delta_min=-1.25, delta_max=3.75, points=17) if with_spec else None
    parsed = parse_config(render_config(scenario, spec, output))
    assert parsed == (scenario, spec or SweepSpec(base=scenario), output)


@pytest.mark.parametrize(
    "options,fragment",
    [
        (dict(observables=("nope",)), "unknown observable 'nope'; valid keys: pop_a"),
        (dict(observables=()), "no observables; valid keys: pop_a"),
        # A list would not round-trip through a config; a str is not read as its letters.
        (dict(observables=["cd"]), "observables must be a tuple, got list"),
        (dict(observables="cd"), "observables must be a tuple, got str"),
        (dict(out_path="run#1.csv"), "out_path must be non-empty text"),
        (dict(out_path="run;1.csv"), "out_path must be non-empty text"),
        (dict(out_path=" x.csv"), "out_path must be non-empty text"),
        (dict(out_path="x.csv\t"), "out_path must be non-empty text"),
        (dict(out_path="a\nb"), "out_path must be non-empty text"),
        (dict(out_path="a\u2028b"), "out_path must be non-empty text"),
        (dict(out_path=""), "out_path must be non-empty text"),
        (dict(out_path=Path("x.csv")), "out_path must be non-empty text"),
    ],
)
def test_output_options_reject_what_a_config_cannot_carry(options, fragment):
    # No config line carries any of these unchanged.
    with pytest.raises(InputError) as info:
        OutputOptions(**options)
    assert fragment in str(info.value)
    assert info.value.fields == tuple(options)


def test_render_round_trip_numpy_scalars():
    scenario = Scenario(
        omega_a2=np.float64(15.0),
        omega_c1=np.float64(10.0),
        omega_c2=np.float64(1.0),
        delta_a2=np.float64(-0.1),
        gamma4=np.float64(0.5),
        closure_target="a1",
    )
    spec = SweepSpec(base=scenario, delta_min=np.float64(-2.0), delta_max=np.float64(2.0))
    text = render_config(scenario, spec)
    assert "np." not in text
    assert parse_config(text)[:2] == (scenario, spec)


MAGNITUDE = st.floats(min_value=0.0, max_value=MAX_RATE)
SIGNED = st.floats(min_value=-MAX_RATE, max_value=MAX_RATE)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(
    st.tuples(*[MAGNITUDE] * 4),
    st.tuples(*[SIGNED] * 4),
    st.tuples(*[MAGNITUDE] * 4),
    st.sampled_from(CLOSURE_TARGETS),
    st.tuples(SIGNED, SIGNED),
    st.integers(min_value=2, max_value=MAX_POINTS),
)
def test_parse_inverts_render_bit_for_bit(omegas, deltas, gammas, target, edges, points):
    assume(edges[0] < edges[1])
    scenario = Scenario(*omegas, *deltas, *gammas, closure_target=target)
    spec = SweepSpec(scenario, *edges, points)
    back, back_spec, _ = parse_config(render_config(scenario, spec))
    # repr tells -0.0 from 0.0, which == does not.
    assert repr((back, back_spec)) == repr((scenario, spec))


def test_render_scenario_only():
    scenario = Scenario(omega_a2=4.0, closure_target="a1")
    back, spec, output = parse_config(render_config(scenario))
    assert back == scenario
    assert spec.points == 1001
    assert output == OutputOptions()


def test_preset_names_and_values():
    assert PRESET_NAMES == (
        "fig4", "fig5", "fig6a", "fig6b", "fig7", "fig8",
        "fig9-left", "fig9-right", "fig10-left", "fig10-right",
    )
    scenario, spec = preset("fig5")
    assert (scenario.omega_a1, scenario.omega_a2, scenario.omega_c1, scenario.omega_c2) == (
        0.0, 15.0, 10.0, 1.0,
    )
    assert (scenario.gamma1, scenario.gamma2, scenario.gamma3, scenario.gamma4) == (
        1.0, 1.0, 1.0, 1.0,
    )
    assert scenario.closure_target == "a1"
    assert (spec.delta_min, spec.delta_max, spec.points) == (-25.0, 25.0, 1001)

    scenario, _ = preset("fig9-left")
    assert (scenario.omega_a1, scenario.omega_a2, scenario.omega_c1, scenario.omega_c2) == (
        0.1, 0.0, 5.0, 0.1,
    )
    scenario, _ = preset("fig10-left")
    assert (scenario.omega_a1, scenario.omega_a2, scenario.omega_c1, scenario.omega_c2) == (
        0.1, 10.0, 0.0, 0.1,
    )


def test_presets_have_zero_detunings():
    for name in PRESET_NAMES:
        scenario, _ = preset(name)
        deltas = (scenario.delta_a1, scenario.delta_a2, scenario.delta_c1, scenario.delta_c2)
        assert deltas == (0.0, 0.0, 0.0, 0.0)


def test_unknown_preset():
    with pytest.raises(ValueError, match="valid names"):
        preset("fig99")


@pytest.fixture(scope="module")
def small_result():
    scenario, _ = preset("fig5")
    return run_sweep(SweepSpec(base=scenario, delta_min=-1.0, delta_max=1.0, points=5))


def test_csv_format(small_result):
    stream = io.BytesIO()
    write_csv(small_result, stream)
    data = stream.getvalue()
    text = data.decode("ascii")
    assert b"\r" not in data
    assert text.endswith("\n")
    lines = text.splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 6
    for line in lines[1:]:
        values = [float(item) for item in line.split(",")]
        assert len(values) == len(CSV_COLUMNS)
    # numbers carry enough digits to round-trip exactly
    first_row = [float(item) for item in lines[1].split(",")]
    assert first_row[0] == small_result.delta[0]


def test_csv_values_match_per_value_formatting():
    # Edge values: signed zero, the smallest subnormal and normal, huge
    # magnitudes, and values whose 17th digit needs correct rounding.
    edges = [-0.0, 5e-324, -2.2250738585072014e-308, 1e300, -1e300, 0.1, 1.0 / 3.0, -2.5e-17]
    rng = np.random.default_rng(43)
    states = rng.choice(edges, (6, 4, 4)) + 1j * rng.choice(edges, (6, 4, 4))
    result = SweepResult(delta=np.array(edges[:6]), states=states)
    stream = io.BytesIO()
    write_csv(result, stream)
    rows = zip(*(result.column(key) for key in CSV_COLUMNS))
    expected = [",".join(CSV_COLUMNS)] + [",".join(format(v, ".16e") for v in row) for row in rows]
    assert stream.getvalue().decode("ascii") == "\n".join(expected) + "\n"


def test_write_csv_destinations(tmp_path, small_result, capsysbinary):
    stream = io.BytesIO()
    write_csv(small_result, stream)
    path = tmp_path / "out.csv"
    write_csv(small_result, str(path))
    assert path.read_bytes() == stream.getvalue()
    write_csv(small_result, None)
    assert capsysbinary.readouterr().out == stream.getvalue()


def sweep_args(*extra):
    return ["sweep", "--preset", "fig5", "--min", "-1", "--max", "1", "--points", "5", *extra]


def test_main_sweep_to_file(tmp_path):
    out = tmp_path / "scan.csv"
    assert main(sweep_args("--out", str(out))) == 0
    assert out.read_bytes().startswith(b"delta,")


def test_main_sweep_to_stdout(capsysbinary):
    assert main(sweep_args()) == 0
    out = capsysbinary.readouterr().out
    assert out.startswith(b"delta,")
    assert len(out.splitlines()) == 6


def test_main_sweep_to_a_stdout_without_a_binary_buffer():
    args = ["sweep", "--preset", "fig5", "--points", "3"]
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        assert main(args) == 0
    stream = io.BytesIO()
    write_csv(run_sweep(replace(preset("fig5")[1], points=3)), stream)
    assert text.getvalue().encode("ascii") == stream.getvalue()


def test_main_sweep_deterministic(tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert main(sweep_args("--out", str(first))) == 0
    assert main(sweep_args("--out", str(second))) == 0
    assert first.read_bytes() == second.read_bytes()


def test_main_config_out_path(tmp_path):
    out = tmp_path / "auto.csv"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "[fields]\nomega_a2 = 1.0\n"
        "[sweep]\ndelta_min = -1\ndelta_max = 1\npoints = 3\n"
        f"[output]\nout_path = {out}\n"
    )
    assert main(["sweep", "--config", str(cfg)]) == 0
    assert out.exists()
    override = tmp_path / "explicit.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(override)]) == 0
    assert override.exists()


def test_main_steady(capsys, tmp_path):
    assert main(["steady", "--preset", "fig5"]) == 0
    out = capsys.readouterr().out
    assert "pop_b" in out and "cd" in out

    cfg = tmp_path / "obs.cfg"
    cfg.write_text("[fields]\nomega_a2 = 1.0\n[sweep]\nobservables = pop_c\n")
    assert main(["steady", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "pop_c" in out and "pop_a" not in out

    path = tmp_path / "state.csv"
    assert main(["steady", "--preset", "fig5", "--out", str(path)]) == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "entry,re,im"
    assert len(lines) == 17


# Each observable key's density-matrix entry, basis order (a, b, c, d).
OBSERVABLE_ENTRIES = {
    "pop_a": (0, 0), "pop_b": (1, 1), "pop_c": (2, 2), "pop_d": (3, 3), "cd": (2, 3), "ca": (2, 0),
    "db": (3, 1), "cb": (2, 1), "ab": (0, 1), "ad": (0, 3), "bd": (1, 3),
}


def test_steady_and_sweep_columns_read_the_entry_each_key_names(capsys, tmp_path):
    # All four fields drive, so every coherence is nonzero and distinct.
    doc = (
        "[fields]\nomega_a1 = 0.7\nomega_a2 = 1.3\nomega_c1 = 2.1\nomega_c2 = 0.4\n"
        "delta_a2 = 0.3\ndelta_c1 = -0.5\nclosure_target = a1\n"
        "[decays]\ngamma1 = 0.6\ngamma2 = 1.1\ngamma3 = 0.9\ngamma4 = 1.4\n"
        f"[sweep]\nobservables = {', '.join(reversed(OBSERVABLE_ENTRIES))}\n"
    )
    cfg = tmp_path / "all.cfg"
    cfg.write_text(doc)
    assert main(["steady", "--config", str(cfg)]) == 0
    lines = capsys.readouterr().out.splitlines()
    rho = steady_state(build_liouvillian(closure_complete(parse_config(doc)[0])))
    assert sorted(OBSERVABLE_ENTRIES) == sorted(OBSERVABLE_KEYS)
    assert [line.split()[0] for line in lines] == list(reversed(OBSERVABLE_ENTRIES))
    result = SweepResult(delta=np.zeros(1), states=rho[np.newaxis])
    printed = {}
    for line in lines:
        key, _, text = line.partition(" = ")
        key = key.strip()
        value = complex(rho[OBSERVABLE_ENTRIES[key]])
        if key.startswith("pop_"):
            assert text == f"{value.real: .12g}"
            printed[key] = complex(float(text))
            level = key[-1]
            assert result.column(f"rho_{level}{level}")[0] == value.real
        else:
            assert text == f"{value.real: .12g} {value.imag:+.12g}i"
            printed[key] = complex(text.replace(" ", "").replace("i", "j"))
            assert result.column(f"re_{key}")[0] == value.real
            assert result.column(f"im_{key}")[0] == value.imag
        assert printed[key] == pytest.approx(value, rel=1e-11, abs=1e-15)
    assert len(set(printed.values())) == len(OBSERVABLE_ENTRIES)


def test_main_evolve(capsys, tmp_path):
    assert main(["evolve", "--preset", "fig5", "--t-final", "1", "--dt", "0.001"]) == 0
    capsys.readouterr()
    assert main(["evolve", "--preset", "fig5", "--dt", "-1"]) == 1
    assert "error:" in capsys.readouterr().err
    # step too large for the stability guard: a computation failure, not usage
    assert main(["evolve", "--preset", "fig5", "--t-final", "1", "--dt", "0.1"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "parameters:" in err


@pytest.mark.parametrize(
    "flags,fragment",
    [
        (["--dt", "nan"], "argument --dt: invalid number value: 'nan'"),
        (["--dt", "inf"], "argument --dt: invalid number value: 'inf'"),
        (["--t-final", "nan"], "argument --t-final: invalid number value: 'nan'"),
        (["--t-final", "inf"], "argument --t-final: invalid number value: 'inf'"),
        (["--dt", "1e-300", "--t-final", "1"], "exceeds the cap"),
        (["--dt", "1e-9", "--t-final", "1000"], "exceeds the cap"),
        # Negative values in exponent form are flag values, not options.
        (["--dt", "-2.5e1"], "dt must be positive, got -25.0"),
        (["--dt", "-1E-3"], "dt must be positive, got -0.001"),
        (["--t-final", "-2.5e1"], "t_final must be non-negative, got -25.0"),
        (["--t-final", "-1e999"], "t_final must be finite, got -inf"),
    ],
)
def test_main_evolve_rejects_bad_steps(flags, fragment, capsys):
    assert main(["evolve", "--preset", "fig5", *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and fragment in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "flags,message",
    [
        (
            ["--min=-1e308", "--max=1e308"],
            "delta_min must be at most 1e+76 in magnitude, got -1e+308",
        ),
        (["--max=inf"], "argument --max: invalid number value: 'inf'"),
    ],
)
def test_main_sweep_rejects_non_finite_grids(flags, message, capsys):
    assert main(["sweep", "--preset", "fig5", "--points", "3", *flags]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "edges",
    [["--min", "-2.5e1", "--max", "-1e-3"], ["--min", "-1e-3", "--max", "3"],
     ["--min", "-.5E+1", "--max", "-25e-2"]],
    ids=["both-negative", "negative-min", "point-and-signed-exponent"],
)
def test_main_sweep_reads_negative_edges_in_exponent_form(edges, capsysbinary):
    # argparse alone reads -1e-3 as an option ("expected one argument");
    # the parser takes a value in config number syntax as a value.
    assert main(["sweep", "--preset", "fig5", "--points", "3", *edges]) == 0
    spaced = capsysbinary.readouterr().out
    assert len(spaced.splitlines()) == 4
    joined = [f"{flag}={value}" for flag, value in zip(edges[::2], edges[1::2])]
    assert main(["sweep", "--preset", "fig5", "--points", "3", *joined]) == 0
    assert capsysbinary.readouterr().out == spaced
    assert float(spaced.splitlines()[1].split(b",")[0]) == float(edges[1])


@pytest.mark.parametrize(
    "flags,message",
    [
        (["--min", "-2.5e1", "--max", "-3e1"], "sweep range [-25.0, -30.0] is empty"),
        (["--min", "-1e999"], "delta_min must be finite, got -inf"),
        (["--min", "-1e308"], "delta_min must be at most 1e+76 in magnitude, got -1e+308"),
        (["--points", "-2.5e1"], "argument --points: invalid integer value: '-2.5e1'"),
        (["--points", "-2"], "points must be at least 2, got -2"),
    ],
    ids=["empty-grid", "min-overflow", "min-over-cap", "points-exponent", "points-negative"],
)
def test_main_sweep_reports_negative_flag_values_by_their_rule(flags, message, capsys):
    assert main(["sweep", "--preset", "fig5", *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1, err


def test_main_sweep_rejects_a_grid_over_the_cap(capsys):
    assert main(["sweep", "--preset", "fig5", "--points", "1000000000000"]) == 1
    err = capsys.readouterr().err
    assert err == f"error: points must be at most {MAX_POINTS}, got 1000000000000\n"


def test_main_sweep_rejects_an_overflowing_config_edge(tmp_path, capsys):
    cfg = tmp_path / "wide.cfg"
    cfg.write_text("[sweep]\ndelta_max = 1e999\npoints = 3\n")
    assert main(["sweep", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "must be finite" in err
    assert "Traceback" not in err


def test_python_dash_m_runs_the_cli():
    src = Path(diamondsim.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])
    ))
    done = subprocess.run(
        [sys.executable, "-m", "diamondsim", "presets"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert "fig5" in done.stdout
    assert done.stderr == ""


def test_main_dressed(capsys, tmp_path):
    assert main(["dressed", "--preset", "fig5"]) == 0
    out = capsys.readouterr().out
    assert "total dark states: 2" in out
    assert "degenerate: no" in out

    assert main(["dressed", "--preset", "fig9-left"]) == 0
    out = capsys.readouterr().out
    assert "total dark states: 1" in out
    assert "degenerate: yes" in out

    path = tmp_path / "spectrum.csv"
    assert main(["dressed", "--preset", "fig5", "--out", str(path)]) == 0
    lines = path.read_text().splitlines()
    assert lines[0].startswith("index,eigenvalue,group,re_a,im_a")
    assert len(lines) == 5


@pytest.mark.parametrize(
    "doc",
    ["[fields]\nomega_a2 = 1.0\ndelta_a1 = 0.5\n", "[fields]\nomega_c1 = 1\ndelta_a1 = 0.5\n"],
)
def test_main_dressed_rejects_detunings_as_a_usage_error(doc, tmp_path, capsys):
    cfg = tmp_path / "detuned.cfg"
    cfg.write_text(doc)
    assert main(["dressed", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err == "error: the dressed spectrum is defined at zero detunings only\n"


def test_main_dressed_at_widely_split_drives(capsys, tmp_path):
    cfg = tmp_path / "strong.cfg"
    cfg.write_text("[fields]\nomega_a1 = 1e5\nomega_a2 = 1.3\nomega_c1 = 0.7\n")
    assert main(["dressed", "--config", str(cfg)]) == 0
    assert "[3]  100000" in capsys.readouterr().out


def test_main_presets_listing(capsys):
    assert main(["presets"]) == 0
    out = capsys.readouterr().out
    for name in PRESET_NAMES:
        assert name in out
    assert "closure_target=a1" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--preset", "fig99"],
        ["sweep"],
        ["sweep", "--preset", "fig5", "--config", "x.cfg"],
        ["frobnicate"],
        [],
        ["sweep", "--preset", "fig5", "--points", "1"],
        ["sweep", "--preset", "fig5", "--min", "5", "--max", "-5"],
        ["sweep", "--config", "/no/such/file.cfg"],
    ],
)
def test_main_usage_errors(argv, capsys):
    assert main(argv) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--help"], ["sweep", "--help"]], ids=["top", "sweep"])
def test_help_prints_the_usage_and_exits_0(argv, monkeypatch, capsys):
    assert main(argv) == 0
    printed = capsys.readouterr()
    assert printed.out.startswith(" ".join(["usage: diamondsim", *argv[:-1], "[-h]"]))
    assert printed.err == ""
    monkeypatch.setattr(sys, "argv", ["diamondsim", *argv])
    with pytest.raises(SystemExit) as stop:
        cli.run()
    assert stop.value.code == 0
    assert capsys.readouterr() == printed


def test_main_config_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[fields]\nomega_a1 = -3\n")
    assert main(["sweep", "--config", str(cfg)]) == 1
    assert "non-negative" in capsys.readouterr().err


def test_main_computation_failure(tmp_path, capsys):
    cfg = tmp_path / "dead.cfg"
    cfg.write_text(
        "[fields]\nomega_a1 = 1.0\n"
        "[decays]\ngamma1 = 0\ngamma2 = 0\ngamma3 = 0\ngamma4 = 0\n"
        "[sweep]\ndelta_min = -1\ndelta_max = 1\npoints = 3\n"
    )
    assert main(["sweep", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "parameters:" in err


def test_main_steady_at_mixed_extremes_exits_2_with_one_error_line(tmp_path, capsys):
    # A singular generator inside the cap: the solver's error, with no
    # overflow warning before it (pytest makes one an error).
    cfg = tmp_path / "extremes.cfg"
    cfg.write_text(
        "[fields]\nomega_a1 = 1.0\nomega_c1 = 1e-300\nomega_c2 = 1.0\n"
        "delta_a2 = -1e38\ndelta_c1 = 1e60\ndelta_c2 = 1.0\nclosure_target = none\n"
        "[decays]\ngamma1 = 1e-300\ngamma2 = 1e76\ngamma3 = 1e-300\ngamma4 = 1e76\n"
    )
    assert main(["steady", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "Warning" not in err
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        "error: non-unique or absent steady state: matrix is numerically singular at pivot 0 "
        "(|pivot| = 1.000e+00, threshold = 2.000e+62)"
    ]


@pytest.mark.parametrize(
    "command,message",
    [
        (
            "steady",
            "non-unique or absent steady state: steady state: eigendecomposition failed: no",
        ),
        (
            "sweep",
            "sweep aborted at probe detuning -25.0: "
            "non-unique or absent steady state: steady state: eigendecomposition failed: no",
        ),
        ("evolve", "initial state: eigendecomposition failed: no"),
        ("dressed", "eigendecomposition failed: no"),
    ],
)
def test_main_exits_2_on_an_eigensolver_failure(command, message, monkeypatch, capsys):
    def fail(_):
        raise np.linalg.LinAlgError("no")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    assert main([command, "--preset", "fig5"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {message}", f"parameters: {preset('fig5')[0]}"]


def test_main_unwritable_output(tmp_path, capsys):
    missing = tmp_path / "no" / "dir" / "x.csv"
    assert main(sweep_args("--out", str(missing))) == 1
    assert "cannot write output" in capsys.readouterr().err


# Every numeric config key at the edges of the float range, and every pair
# of them at plus or minus the cap, through every command that reads a
# config.  Each call must end in an exit status, never in an exception:
# out-of-range inputs exit 1, failed computations exit 2.
_SCAN_KEYS = {
    "fields": (
        "omega_a1", "omega_a2", "omega_c1", "omega_c2",
        "delta_a1", "delta_a2", "delta_c1", "delta_c2",
    ),
    "decays": ("gamma1", "gamma2", "gamma3", "gamma4"),
    "sweep": ("delta_min", "delta_max"),
}
_SCAN_VALUES = (0.0, 5e-324, 1e-300, 1e20, MAX_RATE, 10 * MAX_RATE, 1e300, -1e300)
_SCAN_NUMBERS = tuple(key for keys in _SCAN_KEYS.values() for key in keys)
_SECTION_OF = {key: section for section, keys in _SCAN_KEYS.items() for key in keys}
_SECTION_OF["closure_target"] = "fields"

# Multi-key configs that once ended in a traceback or in numpy warnings,
# and a closure completion past the cap from in-cap detunings.
_OVERFLOW_CONFIGS = {
    "closure-to-infinity": dict(delta_a2=1e308, delta_c1=-1e308, closure_target="a1"),
    "huge-decays": dict(gamma1=1e308, gamma2=1e308),
    "huge-frame": dict(delta_a1=1e308, delta_c1=1e308, closure_target="none"),
    "closure-past-the-cap": dict(
        delta_a2=MAX_RATE, delta_c2=MAX_RATE, delta_c1=-MAX_RATE, closure_target="a1"
    ),
}


def scan_config(**values):
    """Config text of the scan's base drives with values set, each in its section."""
    doc = {"fields": {"omega_a2": 1.3, "omega_c1": 0.7, "omega_c2": 1.0}}
    for key, value in values.items():
        doc.setdefault(_SECTION_OF[key], {})[key] = value
    return "".join(
        f"[{name}]\n" + "".join(
            f"{k} = {v if isinstance(v, str) else repr(v)}\n" for k, v in entries.items()
        )
        for name, entries in doc.items()
    )


def test_boundary_scan_of_every_numeric_key_ends_in_an_exit_status(tmp_path, capsys):
    cfg = tmp_path / "edge.cfg"
    out = tmp_path / "edge.csv"
    commands = (
        ["steady"],
        ["sweep", "--points", "3", "--out", str(out)],
        ["evolve", "--t-final", "0.01"],
        ["dressed"],
    )
    cases = [{key: value} for key in _SCAN_NUMBERS for value in _SCAN_VALUES]
    cases += [
        {first: first_sign * MAX_RATE, second: second_sign * MAX_RATE}
        for first, second in itertools.combinations(_SCAN_NUMBERS, 2)
        for first_sign in (1, -1)
        for second_sign in (1, -1)
    ]
    cases += _OVERFLOW_CONFIGS.values()
    statuses = {}
    for values in cases:
        cfg.write_text(scan_config(**values))
        for command in commands:
            status = main([command[0], "--config", str(cfg), *command[1:]])
            err = capsys.readouterr().err
            assert status in (0, 1, 2), (values, command)
            if status == 1 and 10 * MAX_RATE in values.values():
                assert err.startswith("error: line ") and "at most" in err
            statuses[status] = statuses.get(status, 0) + 1
    # Each outcome occurs, so the scan reaches both rejection paths.
    assert set(statuses) == {0, 1, 2}


_AT_MOST = "must be at most 1e+76 in magnitude, got"


@pytest.mark.parametrize(
    "name,message",
    [
        ("closure-to-infinity", f"line 5: delta_a2 {_AT_MOST} 1e+308"),
        ("huge-decays", f"line 6: gamma1 {_AT_MOST} 1e+308"),
        ("huge-frame", f"line 5: delta_a1 {_AT_MOST} 1e+308"),
        ("closure-past-the-cap", f"delta_a1 {_AT_MOST} 3e+76"),
    ],
    ids=list(_OVERFLOW_CONFIGS),
)
def test_overflowing_configs_exit_1_with_one_error_line(name, message, tmp_path, capsys):
    cfg = tmp_path / "overflow.cfg"
    cfg.write_text(scan_config(**_OVERFLOW_CONFIGS[name]))
    for command in (["steady"], ["sweep", "--points", "3"], ["evolve", "--t-final", "0.01"]):
        assert main([command[0], "--config", str(cfg), *command[1:]]) == 1
        # A sweep completes with delta_c2 on its grid: 1e76 + delta + 1e76.
        expected = message.replace("3e+76", "2e+76") if command[0] == "sweep" else message
        assert capsys.readouterr().err == f"error: {expected}\n"
    # dressed rejects the in-cap detunings as nonzero, a usage error too.
    assert main(["dressed", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_python_dash_m_prints_only_the_error_line(tmp_path):
    src = Path(diamondsim.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])
    ))
    overflow = tmp_path / "overflow.cfg"
    overflow.write_text(scan_config(**_OVERFLOW_CONFIGS["huge-decays"]))
    undecodable = tmp_path / "latin1.cfg"
    undecodable.write_bytes(b"[fields]\nomega_a2 = 1.3  # 2 \xb5s\n")
    for cfg, fragment in (
        (overflow, f"line 6: gamma1 {_AT_MOST} 1e+308"),
        (undecodable, "'utf-8' codec can't decode byte 0xb5 in position 29"),
    ):
        done = subprocess.run(
            [sys.executable, "-m", "diamondsim", "steady", "--config", str(cfg)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.returncode == 1
        assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1, done.stderr
        assert fragment in done.stderr
    assert done.stderr.startswith("error: cannot read config ")


_BOM = "\ufeff".encode()  # the UTF-8 byte-order mark, EF BB BF


def test_a_config_with_a_byte_order_mark_reads_as_without_it(tmp_path, capsysbinary):
    # Editors on Windows may save UTF-8 with a leading U+FEFF; it is not part of line 1.
    out = tmp_path / "run.csv"
    text = FULL_DOC.replace("run.csv", str(out))
    plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
    plain.write_bytes(text.encode())
    marked.write_bytes(_BOM + text.encode())
    runs = []
    for cfg in (plain, marked):
        assert main(["steady", "--config", str(cfg)]) == 0
        assert main(["sweep", "--config", str(cfg)]) == 0
        runs.append((capsysbinary.readouterr().out, out.read_bytes()))
    assert runs[0] == runs[1]
    assert len(runs[0][1].splitlines()) == 52


@pytest.mark.parametrize(
    "data,message",
    [
        (_BOM + _BOM + b"[fields]\n", "line 1: expected 'key = value', got '\\ufeff[fields]'"),
        (b"[fields]\n" + _BOM + b"gamma1 = 1\n", "line 2: unknown key '\\ufeffgamma1' in [fields]"),
        (b"[fields]\nomega_a2 = 1" + _BOM, "line 2: malformed number for omega_a2: '1\\ufeff'"),
    ],
    ids=["second-mark", "line-start", "in-value"],
)
def test_a_byte_order_mark_past_the_first_is_text(data, message, tmp_path, capsys):
    cfg = tmp_path / "marks.cfg"
    cfg.write_bytes(data)
    assert main(["steady", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")


@pytest.mark.parametrize(
    "key,value", [("omega_a1", "\u0663"), ("points", "\u0663"), ("delta_max", "2\u0665")]
)
def test_config_numbers_must_be_ascii(key, value):
    # U+0663 and U+0665 are Arabic-Indic digits, which float() and int() accept.
    section = "sweep" if key in ("points", "delta_max") else "fields"
    with pytest.raises(ConfigError, match=f"line 2: .*{key}"):
        parse_config(f"[{section}]\n{key} = {value}\n")


_LONG_FLAGS = {
    "preset": ["steady", "--preset", "q" * 5000],
    "points-of-4000-digits": ["sweep", "--preset", "fig5", "--points", "9" * 4000],
    "points-of-5000-digits": ["sweep", "--preset", "fig5", "--points", "9" * 5000],
    "min": ["sweep", "--preset", "fig5", "--min", "q" * 5000],
    "max": ["sweep", "--preset", "fig5", "--max", "q" * 5000],
    "t-final": ["evolve", "--preset", "fig5", "--t-final", "q" * 5000],
    "dt": ["evolve", "--preset", "fig5", "--dt", "q" * 5000],
    "missing-config": ["steady", "--config", "/no/such/dir/" + "p" * 3000],
    "subcommand": ["q" * 5000],
    "presets-argument": ["presets", "q" * 5000],
    "ambiguous-option": ["sweep", "--preset", "fig5", "--m=" + "q" * 5000],
    "help-argument": ["sweep", "--help=" + "q" * 5000],
}


@pytest.mark.parametrize("argv", _LONG_FLAGS.values(), ids=_LONG_FLAGS)
def test_main_cuts_long_values_in_flag_errors(argv, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "... (" in err and len(err.encode()) < 200, err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["sweep", "--min", "abc"], "argument --min: invalid number value: 'abc'"),
        (["sweep", "--max", "1,5"], "argument --max: invalid number value: '1,5'"),
        (["sweep", "--points", "1.5"], "argument --points: invalid integer value: '1.5'"),
        (["evolve", "--t-final", "abc"], "argument --t-final: invalid number value: 'abc'"),
        (["evolve", "--dt", ""], "argument --dt: invalid number value: ''"),
    ],
    ids=["min", "max", "points", "t-final", "dt"],
)
def test_main_repeats_short_invalid_flag_values_whole(argv, message, capsys):
    assert main([*argv, "--preset", "fig5"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_main_repeats_an_invalid_subcommand_of_echo_max_characters_with_its_choices(capsys):
    name = "q" * ECHO_MAX
    assert main([name]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "... (" not in err
    assert all(word in err for word in (name, "sweep", "steady", "evolve", "dressed", "presets"))


# Each typed flag, its destination, and the config key that reads the same kind.
_FLAG_KEYS = [
    ("sweep", "--min", "delta_min", "delta_min"),
    ("sweep", "--max", "delta_max", "delta_min"),
    ("sweep", "--points", "points", "points"),
    ("evolve", "--t-final", "t_final", "delta_min"),
    ("evolve", "--dt", "dt", "delta_min"),
]


@pytest.mark.parametrize(
    "text", ["1_0", "\u0663", "inf", "nan", "-inf", "1e999", "-1e-3", ".5", "5.", "+2", "0x10",
             "1.5", "1e2"]
)
@pytest.mark.parametrize("command,flag,dest,key", _FLAG_KEYS, ids=[row[1] for row in _FLAG_KEYS])
def test_flags_read_a_number_as_the_config_does(command, flag, dest, key, text):
    # Either side's value then meets the key's rule in SweepSpec, as a
    # config's does; main exits 1 on any ValueError from either step.
    grid = {"delta_max": MAX_RATE} if key == "delta_min" else {}

    def from_flag():
        args = cli._PARSER.parse_args([command, "--preset", "fig5", f"{flag}={text}"])
        return getattr(SweepSpec(Scenario(), **grid, **{key: getattr(args, dest)}), key)

    def from_config():
        lines = [f"{name} = {value}" for name, value in {**grid, key: text}.items()]
        return getattr(parse_config("\n".join(["[sweep]", *lines]))[1], key)

    outcomes = []
    for read in (from_flag, from_config):
        try:
            value = read()
        except ValueError:
            value = "exit 1"
        outcomes.append((value, type(value)))
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("length", [3000, 5000])
def test_main_cuts_long_paths_in_write_errors(length, tmp_path, capsys):
    # The OSError's own text would repeat the path; only its reason is printed.
    missing = tmp_path / "no" / "dir" / ("p" * length)
    assert main(["steady", "--preset", "fig5", "--out", str(missing)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write output: ") and err.count("\n") == 1
    assert "ppp" not in err and len(err.encode()) < 100, err


def test_stability_error_prints_a_short_number(tmp_path, capsys):
    cfg = tmp_path / "fast.cfg"
    cfg.write_text("[decays]\ngamma1 = 1e76\n")
    assert main(["evolve", "--config", str(cfg)]) == 2
    error_line = capsys.readouterr().err.splitlines()[0]
    assert error_line == "error: dt * ||L||_inf = 1.000e+73 >= 0.5; reduce dt below 5.000e-77"


def test_main_rejects_an_overlong_points_literal(tmp_path, capsys):
    cfg = tmp_path / "long.cfg"
    cfg.write_text("[sweep]\npoints = " + "1" * 5000 + "\n")
    assert main(["sweep", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err == "error: line 2: points is too long to read: 5000 characters\n"


_LONG = "q" * 5000


@pytest.mark.parametrize(
    "doc,fragment",
    [
        ("[" + _LONG + "\n", "line 1: unterminated section header"),
        ("[" + _LONG + "]\n", "line 1: unknown section"),
        (_LONG + " = 1\n", "line 1: key "),
        ("[fields]\n" + _LONG + "\n", "line 2: expected 'key = value'"),
        ("[fields]\n" + _LONG + " = 1\n", "line 2: unknown key"),
        ("[fields]\nomega_a1 = " + _LONG + "\n", "line 2: malformed number"),
        ("[sweep]\npoints = " + _LONG + "\n", "line 2: points must be an integer"),
        ("[sweep]\nobservables = cd, " + _LONG + "\n", "line 2: unknown observable"),
        ("[fields]\nclosure_target = " + _LONG + "\n", "line 2: closure_target must be one of"),
    ],
    ids=[
        "unterminated-section", "unknown-section", "key-before-section", "no-equals",
        "unknown-key", "malformed-number", "non-integer", "unknown-observable",
        "closure-target",
    ],
)
def test_main_cuts_long_values_in_config_errors(doc, fragment, tmp_path, capsys):
    cfg = tmp_path / "long.cfg"
    cfg.write_text(doc)
    assert main(["steady", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {fragment}")
    assert "q" * 33 not in err and "... (500" in err  # head and length of the value or line
    assert len(err.encode()) < 300


def csv_text(header, rows):
    """A table as the CLI writes it, each float through format(v, ".16e")."""
    cells = [[v if isinstance(v, (str, int)) else format(v, ".16e") for v in row] for row in rows]
    return "\n".join(",".join(map(str, line)) for line in [header, *cells]) + "\n"


@pytest.mark.parametrize("name", ["fig5", "fig9-left", "fig10-right"])
def test_state_csv_parses_back_to_the_library_state(name, tmp_path, capsys):
    scenario, _ = preset(name)
    completed = closure_complete(scenario)
    expected = {
        "steady": steady_state(build_liouvillian(completed)),
        "evolve": evolve(completed, ground_state(), t_final=1.0, dt=1e-3),
    }
    for command, rho in expected.items():
        path = tmp_path / f"{command}.csv"
        extra = ["--t-final", "1"] if command == "evolve" else []
        assert main([command, "--preset", name, "--out", str(path), *extra]) == 0
        # Every entry in level order, to 17 digits: it reads back bit for bit.
        rows = [
            (a + b, rho[i, j].real, rho[i, j].imag)
            for i, a in enumerate(LEVELS)
            for j, b in enumerate(LEVELS)
        ]
        text = path.read_text(encoding="ascii")
        assert text == csv_text(["entry", "re", "im"], rows), command
        if (name, command) == ("fig5", "steady"):  # rho_db = -0 + 0.0166...i keeps its sign
            assert "\ndb,-0.0000000000000000e+00,1.66584" in text
    capsys.readouterr()


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_spectrum_csv_parses_back_to_the_dressed_spectrum(name, tmp_path, capsys):
    # fig6a, fig9 and fig10 hold degenerate groups: two rows share one group index.
    spectrum = dressed_spectrum(preset(name)[0])
    path = tmp_path / "spectrum.csv"
    assert main(["dressed", "--preset", name, "--out", str(path)]) == 0
    capsys.readouterr()
    group_of = {k: g for g, members in enumerate(spectrum.groups) for k in members}
    header = ["index", "eigenvalue", "group"]
    header += [f"{part}_{level}" for level in LEVELS for part in ("re", "im")]
    rows = [
        (k, value, group_of[k], *(x for v in spectrum.eigenvectors[:, k] for x in (v.real, v.imag)))
        for k, value in enumerate(spectrum.eigenvalues)
    ]
    assert path.read_text(encoding="ascii") == csv_text(header, rows)


def test_main_dressed_splits_a_widely_split_pair(tmp_path, capsys):
    cfg = tmp_path / "split.cfg"
    cfg.write_text("[fields]\nomega_a1 = 1e5\nomega_a2 = 1.3\nomega_c1 = 0.7\n")
    assert main(["dressed", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "group dark dimensions: [0, 0, 0, 0]" in out
    assert "total dark states: 0" in out
    assert "degenerate: no" in out


def test_presets_listing_matches_each_preset(capsys):
    assert main(["presets"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(PRESET_NAMES)
    for name, line in zip(PRESET_NAMES, lines):
        scenario, spec = preset(name)
        words = line.split()
        assert words[0] == name
        fields = dict(word.split("=", 1) for word in words[1:])
        for key in ("omega_a1", "omega_a2", "omega_c1", "omega_c2"):
            assert float(fields[key]) == getattr(scenario, key), (name, key)
        rates = (scenario.gamma1, scenario.gamma2, scenario.gamma3, scenario.gamma4)
        assert tuple(float(g) for g in fields["gammas"].split(",")) == rates
        assert fields["closure_target"] == scenario.closure_target
        grid, points = fields["sweep"].split("x")
        low, high = (float(edge) for edge in grid.strip("[]").split(","))
        assert (low, high, int(points)) == (spec.delta_min, spec.delta_max, spec.points)
