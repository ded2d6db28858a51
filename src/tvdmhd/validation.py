"""Self-contained correctness checks and their independent oracles.

The exact Riemann solver here is deliberately written against the textbook
star-region equations (pressure function + Newton iteration + wave-by-wave
sampling) and shares no code with the finite-volume scheme, so shock-tube
comparisons are a genuine dual route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from statistics import median

import numpy as np

from . import fluid, ic
from .grid import GridShape, SchemeParams, discrete_divergence, totals
from .perf import (BASELINE_LABEL, OpCountModel, TrafficModel, bytes_per_step, criteria,
                   flops_per_step, load_machines)
from .stepper import StepReport, run


# ---------------------------------------------------------------------------
# exact Riemann solver for the 1D ideal-gas Euler equations

def _pressure_fn(p, rk, pk, ak, g):
    """Toro-style f_K(p) and its derivative for one side of the tube."""
    if p > pk:  # shock branch
        a_cf = 2.0 / ((g + 1.0) * rk)
        b_cf = (g - 1.0) / (g + 1.0) * pk
        root = math.sqrt(a_cf / (p + b_cf))
        return (p - pk) * root, root * (1.0 - 0.5 * (p - pk) / (b_cf + p))
    # rarefaction branch
    ratio = p / pk
    f = 2.0 * ak / (g - 1.0) * (ratio ** ((g - 1.0) / (2.0 * g)) - 1.0)
    df = ratio ** (-(g + 1.0) / (2.0 * g)) / (rk * ak)
    return f, df


def riemann_star(rl, ul, pl, rr, ur, pr, gamma):
    """Star-region pressure and velocity via Newton iteration."""
    al = math.sqrt(gamma * pl / rl)
    ar = math.sqrt(gamma * pr / rr)
    # two-rarefaction estimate as the starting guess
    expo = (gamma - 1.0) / (2.0 * gamma)
    p = ((al + ar - 0.5 * (gamma - 1.0) * (ur - ul))
         / (al / pl ** expo + ar / pr ** expo)) ** (1.0 / expo)
    p = max(p, 1e-14)
    for _ in range(100):
        fl, dfl = _pressure_fn(p, rl, pl, al, gamma)
        fr, dfr = _pressure_fn(p, rr, pr, ar, gamma)
        step = (fl + fr + (ur - ul)) / (dfl + dfr)
        pn = p - step
        if pn <= 0:
            pn = 0.5 * p
        if abs(pn - p) <= 1e-14 * p:
            p = pn
            break
        p = pn
    fl, _ = _pressure_fn(p, rl, pl, al, gamma)
    fr, _ = _pressure_fn(p, rr, pr, ar, gamma)
    return p, 0.5 * (ul + ur) + 0.5 * (fr - fl)


def riemann_sample(xi, rl, ul, pl, rr, ur, pr, gamma):
    """Exact (rho, u, p) at similarity coordinate xi = x/t."""
    g = gamma
    al = math.sqrt(g * pl / rl)
    ar = math.sqrt(g * pr / rr)
    ps, us = riemann_star(rl, ul, pl, rr, ur, pr, g)
    gm, gp = g - 1.0, g + 1.0
    if xi < us:
        if ps > pl:  # left shock
            sl = ul - al * math.sqrt(0.5 * gp / g * ps / pl + 0.5 * gm / g)
            if xi < sl:
                return rl, ul, pl
            r = rl * (ps / pl + gm / gp) / (gm / gp * ps / pl + 1.0)
            return r, us, ps
        head = ul - al
        astar = al * (ps / pl) ** (gm / (2.0 * g))
        if xi < head:
            return rl, ul, pl
        if xi > us - astar:
            return rl * (ps / pl) ** (1.0 / g), us, ps
        u = 2.0 / gp * (al + 0.5 * gm * ul + xi)
        a = u - xi
        return rl * (a / al) ** (2.0 / gm), u, pl * (a / al) ** (2.0 * g / gm)
    if ps > pr:  # right shock
        sr = ur + ar * math.sqrt(0.5 * gp / g * ps / pr + 0.5 * gm / g)
        if xi > sr:
            return rr, ur, pr
        r = rr * (ps / pr + gm / gp) / (gm / gp * ps / pr + 1.0)
        return r, us, ps
    head = ur + ar
    astar = ar * (ps / pr) ** (gm / (2.0 * g))
    if xi > head:
        return rr, ur, pr
    if xi < us + astar:
        return rr * (ps / pr) ** (1.0 / g), us, ps
    u = 2.0 / gp * (-ar + 0.5 * gm * ur + xi)
    a = xi - u
    return rr * (a / ar) ** (2.0 / gm), u, pr * (a / ar) ** (2.0 * g / gm)


# ---------------------------------------------------------------------------
# check harness

@dataclass
class CheckResult:
    name: str
    value: float
    threshold: float
    passed: bool
    note: str = ""

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        note = f"\t{self.note}" if self.note else ""
        return f"{self.name}\t{self.value:.6g}\t{self.threshold:.6g}\t{verdict}{note}"


def _below(name, value, threshold, note="") -> CheckResult:
    return CheckResult(name, float(value), float(threshold), bool(value <= threshold), note)


def _at_least(name, value, threshold, note="") -> CheckResult:
    return CheckResult(name, float(value), float(threshold), bool(value >= threshold), note)


def _fluid_sweeps(state, params, t_end):
    """Repeated x sweeps to exactly t_end, yielding after each (1D fixtures; b = 0)."""
    t = 0.0
    while t < t_end:
        dt = min(fluid.cfl_timestep(state, params), t_end - t)
        fluid.fluid_sweep(state, dt, params)
        t += dt
        yield


def check_conservation_divergence(n=32, cycles=50, seed=11, tol=1e-12) -> list[CheckResult]:
    """Totals drift and face-flux balance over repeated cycles, double precision."""
    params = SchemeParams(precision="double")
    shape = GridShape(n, n, n)
    state = ic.init_condition("solenoidal_random", shape, params, seed=seed)
    mass0, mom0, e0 = totals(state)
    init = (mass0, *mom0, e0)
    bmax = max(float(np.abs(getattr(state, f"b{i}")).max()) for i in (1, 2, 3))
    div_limit = tol * bmax / shape.dx

    worst_drift = 0.0
    worst_div = float(np.abs(discrete_divergence(state)).max())

    def measure(_report):
        nonlocal worst_drift, worst_div
        mass, mom, e = totals(state)
        for a, b in zip((mass, *mom, e), init):
            worst_drift = max(worst_drift, abs(a - b) / abs(b))
        worst_div = max(worst_div, float(np.abs(discrete_divergence(state)).max()))

    run(state, params, n_cycles=cycles, on_cycle=measure)
    return [
        _below("conservation_relative_drift", worst_drift, tol,
               note=f"{n}^3, {cycles} cycles"),
        _below("divergence_max", worst_div, div_limit,
               note=f"limit {tol:g}*max|b|/dx"),
    ]


def sod_double_tube(n=512, t_end=0.15, gamma=1.4):
    """Shock tube on a periodic pencil two tube lengths long: the `sod_x` states.

    Their second jump is the wrap seam, so the two Riemann fans never interact
    by t_end.  The unit tube centred on the middle jump is returned, shifted to
    [0, 1]: (x, computed rho, exact rho, L1 error over the unit tube).
    """
    params = SchemeParams(gamma=gamma, precision="double")
    dx = 2.0 / n
    state = ic.init_condition("sod_x", GridShape(n, 8, 8, dx=dx), params)
    for _ in _fluid_sweeps(state, params, t_end):
        pass

    x = (np.arange(n // 2) + 0.5) * dx
    exact = np.array([riemann_sample((xi - 0.5) / t_end, 1.0, 0.0, 1.0,
                                     0.125, 0.0, 0.1, gamma)[0] for xi in x])
    computed = state.rho[0, 0, n // 4:3 * n // 4].copy()
    l1 = float(np.sum(np.abs(computed - exact)) * dx)
    return x, computed, exact, l1


def check_sod(n=512, t_end=0.15, tol=0.02) -> CheckResult:
    _, _, _, l1 = sod_double_tube(n=n, t_end=t_end)
    return _below("sod_shock_tube_l1", l1, tol, note=f"N={n}, t={t_end}")


def advection_l1(n, amplitude=0.2, periods=1.0) -> float:
    """L1 error of a sine density wave advected for whole periods (exact: identity)."""
    params = SchemeParams(precision="double")
    dx = 1.0 / n
    shape = GridShape(n, 8, 8, dx=dx)
    state = ic.init_condition("advect_pulse", shape, params,
                              amplitude=amplitude, profile="sine")
    rho0 = state.rho.copy()
    for _ in _fluid_sweeps(state, params, periods):
        pass
    return float(np.sum(np.abs(state.rho[0, 0, :] - rho0[0, 0, :])) * dx)


def check_convergence(tol=1.5) -> CheckResult:
    e_lo, e_hi = advection_l1(64), advection_l1(128)
    order = math.log2(e_lo / e_hi)
    return _at_least("advection_l1_order", order, tol,
                     note=f"L1 {e_lo:.3e} -> {e_hi:.3e}")


def check_tvd(n=128, steps=30) -> CheckResult:
    """Total variation must not grow for smooth-profile pure advection."""
    params = SchemeParams(precision="double")
    shape = GridShape(n, 8, 8)
    state = ic.init_condition("advect_pulse", shape, params, amplitude=0.5, width=8.0)

    def tv(arr):
        line = arr[0, 0, :]
        return float(np.sum(np.abs(np.roll(line, -1) - line)))

    tv0 = tv(state.rho)
    sweeps = islice(_fluid_sweeps(state, params, math.inf), steps)
    worst = max(tv(state.rho) - tv0 for _ in sweeps)
    return _below("advection_tv_growth", worst, 1e-12, note=f"{steps} sweeps")


def check_determinism(n=64, cycles=2, worker_counts=(1, 2, 4, 8), seed=5) -> CheckResult:
    """Final states must agree bitwise across worker counts."""
    params = SchemeParams(precision="double")
    shape = GridShape(n, n, n)
    baseline = None
    mismatches = 0
    for workers in worker_counts:
        state = ic.init_condition("solenoidal_random", shape, params, seed=seed)
        run(state, params, n_cycles=cycles, workers=workers)
        blob = b"".join(arr.tobytes() for _, arr in state.components())
        if baseline is None:
            baseline = blob
        elif blob != baseline:
            mismatches += 1
    return _below("determinism_mismatched_runs", mismatches, 0,
                  note=f"workers {worker_counts}, {n}^3 x{cycles} cycles")


def check_counting_model() -> list[CheckResult]:
    shape = (128, 128, 128)
    fl = flops_per_step(shape)
    tr = bytes_per_step(shape, "single")
    flop_dev = abs(fl.model_flops / fl.canonical_flops - 1.0)
    byte_dev = abs((tr.read_bytes + tr.write_bytes)
                   / (tr.canonical_read_bytes + tr.canonical_write_bytes) - 1.0)
    return [
        _below("flop_census_per_cell", abs(OpCountModel.flop_per_cell - 2366), 0),
        _below("traffic_census_per_cell",
               abs(TrafficModel.reads_per_cell - 187) + abs(TrafficModel.writes_per_cell - 98), 0),
        _below("flop_model_vs_canonical", flop_dev, 0.08, note="128^3"),
        _below("traffic_model_vs_canonical", byte_dev, 0.08, note="128^3"),
    ]


# published derived metrics of the bundled comparison table
TABLE_ROWS = {
    "x86(8)": (6.7, 0.83, 2.6, 8.8),
    "Cell": (10.2, 0.42, 1.3, 1.3),
    "N-GPU": (105.7, 2.40, 7.4, 19.1),
    "A-GPU": (68.5, 0.43, 1.3, 11.3),
}


def check_table_reproduction() -> list[CheckResult]:
    machines = load_machines()
    baseline = machines[BASELINE_LABEL]
    dev_ratio = 0.0
    dev_pct = 0.0
    for label, (speedup, fractional, flops_pct, bw_pct) in TABLE_ROWS.items():
        m = machines[label]
        rep = criteria(m.reference_runtime_ms_128, m, baseline)
        dev_ratio = max(dev_ratio, abs(rep.code_speedup - speedup),
                        abs(rep.fractional_speedup - fractional))
        dev_pct = max(dev_pct, abs(rep.flops_fraction_pct - flops_pct),
                      abs(rep.bandwidth_fraction_pct - bw_pct))
    return [
        _below("table_ratio_deviation", dev_ratio, 0.05),
        _below("table_fraction_deviation_pct", dev_pct, 0.15),
    ]


def cycle_times(runs, repeats, precision) -> list[list[StepReport]]:
    """Timed cycle reports of each (n, workers) run on a uniform moving n^3 box.

    The runs take one cycle each in turn, for two untimed warm-up rounds
    (allocator and frequency settling) and then `repeats` timed rounds, so a
    slow phase of the host falls on every run alike.  Returns the `repeats`
    reports of each run, in the order of `runs`: wall ms and the per-section
    ms of the same cycles.  The box is uniform, so every slope is zero; a cost
    that depends on the data, such as the magnetic sweep's upwind select,
    shows only on data such as `solenoidal_random`.
    """
    params = SchemeParams(precision=precision)
    states = [ic.init_condition("uniform", GridShape(n, n, n), params, v=(1.0, 0.0, 0.0))
              for n, _ in runs]
    reports = [[] for _ in runs]
    for _ in range(2 + repeats):
        for state, (_, workers), out in zip(states, runs, reports):
            _, (report,) = run(state, params, n_cycles=1, workers=workers)
            out.append(report)
    return [r[2:] for r in reports]


def check_scaling(sizes=(64, 128), repeats=5, workers=1) -> CheckResult:
    """Median cycle-time ratio between the two sizes (cubic work: expect ~8)."""
    medians = [median(r.wall_ms for r in reports)
               for reports in cycle_times([(n, workers) for n in sizes], repeats, "single")]
    ratio = medians[1] / medians[0]
    return CheckResult("scaling_ratio_128_64", ratio, 10.0,
                       bool(6.0 <= ratio <= 10.0),
                       note=f"medians {medians[0]:.0f}ms/{medians[1]:.0f}ms, range [6, 10]")


def default_checks(full: bool = False) -> list[CheckResult]:
    results = []
    results.extend(check_conservation_divergence())
    results.extend(check_table_reproduction())
    results.extend(check_counting_model())
    results.append(check_sod())
    results.append(check_convergence())
    results.append(check_tvd())
    results.append(check_determinism())
    if full:
        results.append(check_scaling())
    return results
