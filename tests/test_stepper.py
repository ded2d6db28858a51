import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

from tvdmhd import (GridShape, SchemeParams, discrete_divergence, fluid, grid,
                    init_condition, magnetic, run, step_cycle, stepper, totals, transpose)

from conftest import copy_state, state_bytes


def _recorded_cycle(monkeypatch, params, kind, **options):
    """Run one cycle; return its report and (call, fastest axis, inverse) per call."""
    calls = []

    def recorded(label, fn):
        def wrapper(state, *args, **kwargs):
            bound = inspect.signature(fn).bind(state, *args, **kwargs)
            bound.apply_defaults()
            calls.append((label, state.shape.orientation[0], bound.arguments.get("inverse")))
            return fn(state, *args, **kwargs)
        return wrapper

    for label, name in (("cfl", "cfl_timestep"), ("fluid", "fluid_sweep"),
                        ("magnetic", "magnetic_sweep"), ("transpose", "transpose")):
        monkeypatch.setattr(stepper, name, recorded(label, getattr(stepper, name)))
    state = init_condition(kind, GridShape(8, 8, 8), params, **options)
    return step_cycle(state, params), calls


def test_census_matches_step_composition(params, monkeypatch):
    report, calls = _recorded_cycle(monkeypatch, params, "solenoidal_random", seed=1)
    census = {kind: sum(1 for c in calls if c[0] == kind)
              for kind in ("cfl", "fluid", "magnetic", "transpose")}
    assert census == {"cfl": 1, "fluid": 6, "magnetic": 6, "transpose": 4}
    assert report.dt > 0 and report.wall_ms > 0


def test_sweep_axis_sequence_is_palindrome(params, monkeypatch):
    _, calls = _recorded_cycle(monkeypatch, params, "uniform")
    for kind in ("fluid", "magnetic"):
        axes = tuple(axis for k, axis, _ in calls if k == kind)
        assert axes == ("x", "y", "z", "z", "y", "x")
        assert axes == axes[::-1]


def test_cycle_calls_sweeps_and_transposes_in_order(params, monkeypatch):
    report, calls = _recorded_cycle(monkeypatch, params, "solenoidal_random", seed=1)
    fwd, inv = False, True
    assert calls == [
        ("cfl", "x", None),
        ("fluid", "x", None), ("magnetic", "x", None), ("transpose", "x", fwd),
        ("fluid", "y", None), ("magnetic", "y", None), ("transpose", "y", fwd),
        ("fluid", "z", None), ("magnetic", "z", None),
        ("fluid", "z", None), ("magnetic", "z", None), ("transpose", "z", inv),
        ("fluid", "y", None), ("magnetic", "y", None), ("transpose", "y", inv),
        ("fluid", "x", None), ("magnetic", "x", None),
    ]
    assert report.dt > 0 and report.wall_ms > 0


def test_uniform_static_state_unchanged_bitwise(params):
    state = init_condition("uniform", GridShape(8, 8, 8), params)
    ref = copy_state(state)
    report = step_cycle(state, params)
    assert np.isfinite(report.dt)
    for name, arr in state.components():
        assert (arr == getattr(ref, name)).all()


def test_orientation_restored_and_time_advanced(params):
    state = init_condition("solenoidal_random", GridShape(8, 8, 8), params, seed=2)
    report = step_cycle(state, params)
    assert state.shape.orientation == ("x", "y", "z")
    assert state.time == pytest.approx(2 * report.dt)
    assert state.cycle == 1


def test_step_cycle_rejects_non_canonical_orientation(params):
    state = init_condition("uniform", GridShape(8, 8, 8), params)
    transpose(state)
    with pytest.raises(ValueError, match="canonical orientation"):
        step_cycle(state, params)


def test_conservation_and_divergence_over_ten_cycles(params):
    state = init_condition("solenoidal_random", GridShape(16, 16, 16), params, seed=11)
    mass0, mom0, e0 = totals(state)
    bmax = max(abs(getattr(state, f"b{i}")).max() for i in (1, 2, 3))
    for _ in range(10):
        step_cycle(state, params)
        assert abs(discrete_divergence(state)).max() <= 1e-12 * bmax / state.shape.dx
    mass, mom, e = totals(state)
    assert mass == pytest.approx(mass0, rel=1e-12)
    assert e == pytest.approx(e0, rel=1e-12)
    for a, b in zip(mom, mom0):
        assert a == pytest.approx(b, rel=1e-12)


def test_run_zero_cycles_is_identity(params):
    state = init_condition("solenoidal_random", GridShape(8, 8, 8), params, seed=3)
    ref = state_bytes(state)
    final, reports = run(state, params, n_cycles=0)
    assert reports == []
    assert state_bytes(final) == ref


def test_run_repeatability_bitwise(params):
    blobs = []
    for _ in range(2):
        state = init_condition("solenoidal_random", GridShape(8, 8, 8), params, seed=5)
        run(state, params, n_cycles=3, workers=2)
        blobs.append(state_bytes(state))
    assert blobs[0] == blobs[1]


def test_run_stops_at_t_end(params):
    state = init_condition("solenoidal_random", GridShape(8, 8, 8), params, seed=5)
    final, reports = run(state, params, t_end=0.9)
    assert reports
    start_of_last = final.time - 2 * reports[-1].dt
    assert start_of_last < 0.9 <= final.time or final.time >= 0.9


def test_run_requires_exactly_one_stop_rule(params):
    state = init_condition("uniform", GridShape(8, 8, 8), params)
    with pytest.raises(ValueError, match="exactly one"):
        run(state, params)
    with pytest.raises(ValueError, match="exactly one"):
        run(state, params, n_cycles=1, t_end=1.0)


@pytest.mark.parametrize("stop, message", [
    ({"t_end": float("nan")}, "t_end must be finite, got nan"),
    ({"t_end": float("inf")}, "t_end must be finite, got inf"),
    ({"n_cycles": -1}, "n_cycles must be non-negative, got -1"),
])
def test_run_refuses_a_stop_rule_it_cannot_meet_or_read(params, stop, message):
    # time >= nan is never true, and time >= inf not on a finite run: such a
    # run never stopped.  A negative count returned at once.
    state = init_condition("uniform", GridShape(8, 8, 8), params)
    with pytest.raises(ValueError, match=f"^{message}$"):
        run(state, params, **stop)
    assert state.cycle == 0


@pytest.mark.parametrize("start", [float("nan"), float("inf"), float("-inf")])
def test_run_to_t_end_refuses_a_non_finite_state_time(params, start):
    # From a NaN or -inf start time, time >= t_end never holds: the run would
    # never stop.  A cycle that does start ends the test through `on_cycle`.
    state = init_condition("uniform", GridShape(8, 8, 8), params)
    state.time = start

    def cycled(report):
        raise AssertionError("a cycle ran from a non-finite time")
    message = f"a run to t_end needs a finite state time, got {start}"
    with pytest.raises(ValueError, match=f"^{message}$"):
        run(state, params, t_end=1.0, on_cycle=cycled)
    assert state.cycle == 0


def test_single_precision_cycle_keeps_dtype():
    params32 = SchemeParams(precision="single")
    state = init_condition("solenoidal_random", GridShape(16, 16, 16), params32, seed=1)
    step_cycle(state, params32)
    for _, arr in state.components():
        assert arr.dtype == np.float32
        assert np.isfinite(arr).all()


def test_section_timings_cover_wall_time(params):
    state = init_condition("solenoidal_random", GridShape(16, 16, 16), params, seed=7)
    report = step_cycle(state, params)
    total = sum(report.sections.values())
    assert total <= report.wall_ms
    assert total >= 0.98 * report.wall_ms


def test_perfbench_tracer_spans_every_layer_and_keeps_the_cycle_bitwise(params, monkeypatch):
    # The benchmark's tracer rebinds solver names (stepper.fluid_sweep,
    # fluid.face_to_center, fluid.parallel_for, ...); one it cannot find fails here.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # its dataclasses look it up
    spec.loader.exec_module(spans)

    state = init_condition("solenoidal_random", GridShape(16, 16, 16), params, seed=2)
    ref = copy_state(state)
    step_cycle(ref, params, workers=2)
    tracer = spans.Tracer()
    tracer.install(stepper, fluid, magnetic, grid)
    try:
        step_cycle(state, params, workers=2)
    finally:
        tracer.uninstall()

    assert {s.name for s in tracer.spans} >= {
        "fluid.cfl", "fluid.sweep", "magnetic.sweep", "grid.transpose",
        "parallel.fork", "parallel.slab"}
    assert state_bytes(state) == state_bytes(ref)
