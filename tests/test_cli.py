"""Tests for config parsing, presets, CSV output, and the command line."""

import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import diamondsim
from diamondsim.atom import MAX_RABI, Scenario, closure_complete
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
from diamondsim.lindblad import build_liouvillian, evolve, ground_state, steady_state
from diamondsim.sweep import CSV_COLUMNS, MAX_POINTS, SweepResult, SweepSpec, run_sweep

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
        ("[sweep]\nobservables = pop_q\n", "unknown observable"),
        ("[fields]\nomega_a1 = 1e999\n", "line 2: omega_a1 must be finite, got 1e999"),
        ("[sweep]\ndelta_min = -1e308\ndelta_max = 1e308\n", "line 2: delta_min, delta_max"),
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


def test_render_round_trip():
    scenario = Scenario(
        omega_a1=1.0 / 3.0,
        omega_c1=2.0,
        delta_c2=-2.5e-07,
        gamma3=0.1,
        closure_target="c1",
    )
    spec = SweepSpec(base=scenario, delta_min=-1.25, delta_max=3.75, points=17)
    output = OutputOptions(observables=("pop_a", "cd"), out_path="x.csv")
    parsed = parse_config(render_config(scenario, spec, output))
    assert parsed == (scenario, spec, output)


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
        (["--dt", "nan"], "dt must be finite and positive"),
        (["--dt", "inf"], "dt must be finite and positive"),
        (["--t-final", "nan"], "t_final must be finite and non-negative"),
        (["--t-final", "inf"], "t_final must be finite and non-negative"),
        (["--dt", "1e-300", "--t-final", "1"], "exceeds the cap"),
        (["--dt", "1e-9", "--t-final", "1000"], "exceeds the cap"),
    ],
)
def test_main_evolve_rejects_bad_steps(flags, fragment, capsys):
    assert main(["evolve", "--preset", "fig5", *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and fragment in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "flags",
    [
        ["--min=-1e308", "--max=1e308"],
        ["--max=inf"],
    ],
)
def test_main_sweep_rejects_non_finite_grids(flags, capsys):
    assert main(["sweep", "--preset", "fig5", "--points", "3", *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "must be finite" in err
    assert "Traceback" not in err


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

    cfg = tmp_path / "detuned.cfg"
    cfg.write_text("[fields]\nomega_a2 = 1.0\ndelta_a1 = 0.5\n")
    assert main(["dressed", "--config", str(cfg)]) == 2


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


def test_main_unwritable_output(tmp_path, capsys):
    missing = tmp_path / "no" / "dir" / "x.csv"
    assert main(sweep_args("--out", str(missing))) == 1
    assert "cannot write output" in capsys.readouterr().err


# Every numeric config key at the edges of the float range, through every
# command that reads a config.  Each call must end in an exit status, never
# in an exception: out-of-range inputs exit 1, failed computations exit 2.
_SCAN_KEYS = {
    "fields": (
        "omega_a1", "omega_a2", "omega_c1", "omega_c2",
        "delta_a1", "delta_a2", "delta_c1", "delta_c2",
    ),
    "decays": ("gamma1", "gamma2", "gamma3", "gamma4"),
    "sweep": ("delta_min", "delta_max"),
}
_SCAN_VALUES = (0.0, 5e-324, 1e-300, 1e20, MAX_RABI, 10 * MAX_RABI, 1e300, -1e300)


def test_boundary_scan_of_every_numeric_key_ends_in_an_exit_status(tmp_path, capsys):
    cfg = tmp_path / "edge.cfg"
    out = tmp_path / "edge.csv"
    commands = (
        ["steady"],
        ["sweep", "--points", "3", "--out", str(out)],
        ["evolve", "--t-final", "0.01"],
        ["dressed"],
    )
    statuses = {}
    for section, keys in _SCAN_KEYS.items():
        for key in keys:
            for value in _SCAN_VALUES:
                doc = {"fields": {"omega_a2": 1.3, "omega_c1": 0.7, "omega_c2": 1.0}}
                doc.setdefault(section, {})[key] = value
                cfg.write_text("".join(
                    f"[{name}]\n" + "".join(f"{k} = {v!r}\n" for k, v in entries.items())
                    for name, entries in doc.items()
                ))
                for command in commands:
                    status = main([command[0], "--config", str(cfg), *command[1:]])
                    err = capsys.readouterr().err
                    assert status in (0, 1, 2), (key, value, command)
                    if status == 1 and value == 10 * MAX_RABI and key.startswith("omega"):
                        assert err.startswith("error: line ") and "at most" in err
                    statuses[status] = statuses.get(status, 0) + 1
    # Each outcome occurs, so the scan reaches both rejection paths.
    assert set(statuses) == {0, 1, 2}


def test_main_rejects_an_overlong_points_literal(tmp_path, capsys):
    cfg = tmp_path / "long.cfg"
    cfg.write_text("[sweep]\npoints = " + "1" * 5000 + "\n")
    assert main(["sweep", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err == "error: line 2: points is too long to read: 5000 characters\n"


def read_complex_csv(path):
    """Header and rows of a CSV whose trailing columns are (re, im) pairs."""
    lines = path.read_text(encoding="ascii").splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


def pairs_to_complex(items):
    return [complex(float(re), float(im)) for re, im in zip(items[::2], items[1::2])]


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
        header, rows = read_complex_csv(path)
        assert header == "entry,re,im"
        assert [row[0] for row in rows] == [f"{i}{j}" for i in "abcd" for j in "abcd"]
        back = np.array([pairs_to_complex(row[1:]) for row in rows]).reshape(4, 4)
        assert np.array_equal(back, rho), command
    capsys.readouterr()


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_spectrum_csv_parses_back_to_the_dressed_spectrum(name, tmp_path, capsys):
    spectrum = dressed_spectrum(preset(name)[0])
    path = tmp_path / "spectrum.csv"
    assert main(["dressed", "--preset", name, "--out", str(path)]) == 0
    capsys.readouterr()
    header, rows = read_complex_csv(path)
    assert header == "index,eigenvalue,group,re_a,im_a,re_b,im_b,re_c,im_c,re_d,im_d"
    assert [int(row[0]) for row in rows] == [0, 1, 2, 3]
    assert np.array_equal([float(row[1]) for row in rows], spectrum.eigenvalues)
    vectors = np.array([pairs_to_complex(row[3:]) for row in rows]).T
    assert np.array_equal(vectors, spectrum.eigenvectors)
    group_of = [int(row[2]) for row in rows]
    groups = tuple(
        tuple(k for k in range(4) if group_of[k] == g) for g in range(max(group_of) + 1)
    )
    assert groups == spectrum.groups


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
