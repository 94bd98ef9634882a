"""Tests of the benchmark's own parts: generator, span self time, oracles."""

import io
from dataclasses import replace

import numpy as np
import pytest

import clock
import gen
import oracles
import spans
from diamondsim import cli, lindblad, sweep
from diamondsim.atom import Scenario, closure_complete
from diamondsim.dressed import dressed_spectrum


def test_generator_is_deterministic_per_seed():
    for workload in gen.WORKLOADS:
        first = gen.generate(workload, 7)
        assert first == gen.generate(workload, 7)
        assert [c.text for c in first] != [c.text for c in gen.generate(workload, 8)]


def test_generated_text_parses_to_the_drawn_values():
    for case in gen.generate("census-short", gen.HELD_OUT_SEED)[:4]:
        scenario, spec, _ = cli.parse_config(case.text)
        assert scenario == Scenario(**case.params)
        assert (spec.delta_min, spec.delta_max, spec.points) == (
            case.delta_min, case.delta_max, case.points
        )
        assert case.params["closure_target"] in gen.SEEDED_TARGETS


def test_calibrated_time_scales_wall_time_by_the_bracketing_kernels(monkeypatch):
    kernel_times = iter([0.010, 0.030])
    monkeypatch.setattr(clock, "kernel", lambda: next(kernel_times))
    timer = clock.Calibrated()
    result, wall, ref = timer.time(lambda: "done")
    assert result == "done"
    assert ref == pytest.approx(wall * clock.CALIBRATION_S / 0.020)
    assert timer.slowdown() == pytest.approx(0.020 / clock.CALIBRATION_S)


def _span(name, start, end, parent):
    return spans.Span(name, start, end, parent, 0, True)


def test_self_time_on_synthetic_tree():
    tree = [
        _span("root", 0, 100, -1),
        _span("child", 10, 30, 0),
        _span("grandchild", 12, 20, 1),
        _span("child", 40, 90, 0),
        _span("sibling_root", 100, 105, -1),
    ]
    assert spans.self_times(tree) == [30, 12, 8, 50, 5]


def test_self_time_counts_overlapping_children_once():
    tree = [_span("root", 0, 100, -1), _span("a", 10, 50, 0), _span("b", 40, 120, 0)]
    assert spans.self_times(tree)[0] == 10


def test_tracer_sees_calls_between_modules_and_restores_bindings():
    spec = sweep.SweepSpec(base=Scenario(omega_a2=1.0, closure_target="a1"), points=3)
    original = lindblad.herm_eigen
    with spans.Tracer() as tracer:
        sweep.run_sweep(spec)
    assert lindblad.herm_eigen is original
    assert sweep.build_liouvillian is lindblad.build_liouvillian
    layers = spans.per_layer(tracer.spans, tracer.counters, passes=1)
    assert layers["sweep.run_sweep.calls"] == 1
    assert layers["lindblad.build_liouvillian.calls"] == 3
    assert layers["algebra.herm_eigen.calls"] == 3
    assert layers["sweep.run_sweep.points"] == 3
    by_name = {s.name: s for s in tracer.spans}
    assert tracer.spans[by_name["lindblad.steady_state"].parent].name == "sweep.run_sweep"


_BASE = Scenario(omega_a2=15.0, omega_c1=10.0, omega_c2=1.0, closure_target="a1")


def test_steady_and_sweep_oracles_reject_perturbed_states():
    result = sweep.run_sweep(sweep.SweepSpec(base=_BASE, points=5))
    args = (_BASE, -25.0, 25.0, 5, result.delta)
    assert oracles.check_sweep_states(*args, result.states) < oracles.STEADY_TOL
    perturbed = result.states.copy()
    perturbed[2, 0, 0] += 1e-9
    with pytest.raises(oracles.OracleMismatch):
        oracles.check_sweep_states(*args, perturbed)
    with pytest.raises(oracles.OracleMismatch):
        oracles.check_steady(_BASE, result.states[0] + 1e-9)


def test_sweep_csv_parses_back_to_states():
    result = sweep.run_sweep(sweep.SweepSpec(base=_BASE, points=4))
    buffer = io.BytesIO()
    cli.write_csv(result, buffer)
    delta, states = oracles.states_from_sweep_csv(buffer.getvalue())
    assert np.array_equal(delta, result.delta)
    assert np.array_equal(states, result.states)


def test_evolve_and_trajectory_oracles_reject_perturbed_states():
    s = closure_complete(_BASE)
    times, states = lindblad.evolve_trajectory(s, lindblad.ground_state(), 0.05, 1e-3, 5)
    assert oracles.check_trajectory(_BASE, times, states) < oracles.TRAJECTORY_TOL
    with pytest.raises(oracles.OracleMismatch):
        oracles.check_trajectory(_BASE, times, states + 1e-4)
    final = lindblad.evolve(s, lindblad.ground_state(), t_final=200.0, dt=1e-2)
    assert oracles.check_evolve_final(_BASE, 200.0, final) < oracles.EVOLVE_FINAL_TOL
    with pytest.raises(oracles.OracleMismatch):
        oracles.check_evolve_final(_BASE, 200.0, final + 1e-9)


def test_dressed_and_config_oracles_reject_perturbed_results():
    s = Scenario(omega_a1=2.0, omega_a2=3.0, omega_c1=4.0)
    eigenvalues = dressed_spectrum(s).eigenvalues
    assert oracles.check_dressed(s, eigenvalues) < oracles.DRESSED_TOL
    with pytest.raises(oracles.OracleMismatch):
        oracles.check_dressed(s, eigenvalues + 1e-9)
    parsed = cli.parse_config(gen.generate("census-short", 1)[0].text)
    assert oracles.check_equal(parsed, cli.parse_config(cli.render_config(*parsed)), "round trip") == 0.0
    with pytest.raises(oracles.OracleMismatch):
        oracles.check_equal(parsed[0], replace(parsed[0], gamma1=parsed[0].gamma1 + 1e-12), "x")
