"""Full time-step cycle: one CFL evaluation, sweeps x y z z y x, 4 transposes.

Each directional leg applies the fluid sweep then the magnetic sweep along the
current fastest axis for the same dt; the reversed second half symmetrizes the
splitting, so one cycle advances physical time by 2 dt.  The z leg repeats
without a transpose, and the two reverse-leg transposes run the inverse cyclic
permutation, which returns the grid to canonical orientation with exactly four
memory transposes per cycle.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable

from .fluid import cfl_timestep, fluid_sweep
from .grid import CANONICAL, ConservedState, SchemeParams, transpose
from .magnetic import magnetic_sweep

# The legs of one cycle: (sweep axis, transpose direction to apply afterwards).
SCHEDULE = (("x", "fwd"), ("y", "fwd"), ("z", None),
            ("z", "inv"), ("y", "inv"), ("x", None))
# The timed sections of a cycle, in the order `StepReport.sections` holds them.
SECTIONS = ("cfl", "fluid", "magnetic", "transpose")


@dataclass
class StepReport:
    """dt, wall time and per-section milliseconds of one cycle."""

    dt: float
    wall_ms: float
    sections: dict[str, float] = field(default_factory=dict)


def step_cycle(state: ConservedState, params: SchemeParams,
               workers: int = 1) -> StepReport:
    """Advance the state by one full cycle (2 dt); returns the cycle report.

    On a sweep error the state is left partially updated and must be treated
    as invalid.
    """
    if tuple(state.shape.orientation) != CANONICAL:
        raise ValueError(f"step cycle requires canonical orientation, got {state.shape.orientation}")

    sections = dict.fromkeys(SECTIONS, 0.0)
    t_start = time.perf_counter()

    def timed(section, fn, *args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        sections[section] += (time.perf_counter() - t0) * 1e3
        return out

    dt = timed("cfl", cfl_timestep, state, params, workers)
    for axis, flip in SCHEDULE:
        assert state.shape.orientation[0] == axis
        timed("fluid", fluid_sweep, state, dt, params, workers)
        timed("magnetic", magnetic_sweep, state, dt, params, workers)
        if flip is not None:
            timed("transpose", transpose, state, inverse=(flip == "inv"), workers=workers)

    state.time += 2.0 * dt
    state.cycle += 1
    wall_ms = (time.perf_counter() - t_start) * 1e3
    return StepReport(dt=dt, wall_ms=wall_ms, sections=sections)


def run(state: ConservedState, params: SchemeParams, n_cycles: int | None = None,
        t_end: float | None = None, workers: int = 1,
        on_cycle: Callable[[StepReport], None] | None = None,
        ) -> tuple[ConservedState, list[StepReport]]:
    """Iterate step_cycle until the cycle count, or until a cycle starts at >= t_end.

    `on_cycle`, when given, is called with each cycle's report right after the
    cycle, while the state holds that cycle's result.  Returns the state and
    every report in order.
    """
    if (n_cycles is None) == (t_end is None):
        raise ValueError("specify exactly one of n_cycles or t_end")
    if n_cycles is not None and n_cycles < 0:
        raise ValueError(f"n_cycles must be non-negative, got {n_cycles}")
    if t_end is not None and not math.isfinite(t_end):
        raise ValueError(f"t_end must be finite, got {t_end}")
    if t_end is not None and not math.isfinite(state.time):
        raise ValueError(f"a run to t_end needs a finite state time, got {state.time}")
    reports: list[StepReport] = []
    while True:
        if n_cycles is not None and len(reports) >= n_cycles:
            break
        if t_end is not None and state.time >= t_end:
            break
        reports.append(step_cycle(state, params, workers=workers))
        if on_cycle is not None:
            on_cycle(reports[-1])
    return state, reports
