import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvdmhd import (GridShape, PositivityError, SchemeParams, allocate_state,
                    cfl_timestep, face_to_center, fluid, fluid_sweep, init_condition,
                    magnetic_sweep, step_cycle, totals, vanleer)
from tvdmhd.fluid import check_positive

from conftest import random_state


# --- fast speed -----------------------------------------------------------------
# fluid._fast_speed(rho, p, b1^2, b^2, gamma): the speed of both the sweep and the cfl step

def test_fast_speed_reduces_to_sound_speed():
    assert fluid._fast_speed(1.0, 1.0, 0.0, 0.0, 5.0 / 3.0) == pytest.approx(np.sqrt(5.0 / 3.0), rel=1e-14)


def test_fast_speed_pure_alfven_along_axis():
    # a = 0: c_f = |b1| / sqrt(rho)
    assert fluid._fast_speed(1.0, 0.0, 1.0, 1.0, 5.0 / 3.0) == pytest.approx(1.0, rel=1e-14)


def test_fast_speed_transverse_field_closed_form():
    # b1 = 0: c_f^2 = a^2 + b^2/rho = 1 + 1 = 2
    got = fluid._fast_speed(1.0, 0.6, 0.0, 1.0, 5.0 / 3.0)
    assert got == pytest.approx(np.sqrt(2.0), rel=1e-14)


def test_check_positive_negative_pressure_names_cell():
    p = np.ones((4, 4, 4))
    p[1, 2, 3] = -0.5
    with pytest.raises(PositivityError, match=r"^negative pressure at cell \(3, 2, 1\)$"):
        check_positive(np.ones((4, 4, 4)), p)


def test_fast_speed_dominates_alfven_and_sound():
    rng = np.random.default_rng(0)
    rho = 0.5 + rng.random(100)
    p = 0.1 + rng.random(100)
    b = rng.standard_normal((3, 100))
    b1sq = b[0] ** 2
    cf = fluid._fast_speed(rho, p, b1sq, b1sq + b[1] ** 2 + b[2] ** 2, 5.0 / 3.0)
    assert (cf >= np.sqrt(5.0 / 3.0 * p / rho) - 1e-12).all()
    assert (cf >= np.abs(b[0]) / np.sqrt(rho) - 1e-12).all()


# --- cfl_timestep ---------------------------------------------------------------

def test_cfl_static_sound_closed_form(params):
    state = init_condition("uniform", GridShape(8, 8, 8), params)
    assert cfl_timestep(state, params) == pytest.approx(0.9 / np.sqrt(5.0 / 3.0), rel=1e-13)


def test_cfl_with_velocity_closed_form(params):
    state = init_condition("uniform", GridShape(8, 8, 8), params, v=(1.0, 0.0, 0.0))
    expect = 0.9 / (1.0 + np.sqrt(5.0 / 3.0))
    assert cfl_timestep(state, params) == pytest.approx(expect, rel=1e-13)


def test_cfl_static_cold_state_errors(params):
    state = init_condition("uniform", GridShape(8, 8, 8), params, p=0.0)
    with pytest.raises(ValueError, match="static state"):
        cfl_timestep(state, params)


def test_cfl_scales_with_dx(params):
    a = init_condition("uniform", GridShape(8, 8, 8, dx=1.0), params)
    b = init_condition("uniform", GridShape(8, 8, 8, dx=0.25), params)
    assert cfl_timestep(b, params) == pytest.approx(cfl_timestep(a, params) / 4, rel=1e-13)


# --- vanleer ---------------------------------------------------------------

def test_vanleer_fixed_points():
    assert vanleer(1.0, 1.0) == 1.0
    assert vanleer(1.0, -1.0) == 0.0
    assert vanleer(1.0, 3.0) == 1.5


@given(a=st.floats(-1e6, 1e6), b=st.floats(-1e6, 1e6))
def test_vanleer_symmetric_and_bounded(a, b):
    out = vanleer(a, b)
    assert out == vanleer(b, a)
    if a * b <= 0:
        assert out == 0.0
    else:
        assert 0 <= abs(out) <= 2 * min(abs(a), abs(b)) + 1e-9 * abs(out)
        assert np.sign(out) == np.sign(a)


def test_vanleer_underflowed_product_stays_bounded():
    # dl * dr is subnormal here; 2 dl dr / (dl + dr) formed from it came out
    # 15% above 2 min(|dl|, |dr|) (a falsifying example of the test above).
    a, b = -1.4278677992273454e-122, -5.995738167430617e-202
    assert vanleer(a, b) == 2 * b
    got = vanleer(np.array([a, 1.0], dtype=np.float64), np.array([b, 3.0]))
    assert got[0] == 2 * b and got[1] == 1.5
    x = np.float32(3e-20)
    assert vanleer(x, x) == x


@given(a=st.floats(0.01, 1e3), b=st.floats(0.01, 1e3), s=st.floats(0.01, 100))
def test_vanleer_scales_homogeneously(a, b, s):
    assert vanleer(s * a, s * b) == pytest.approx(s * vanleer(a, b), rel=1e-12)


# --- the sweep's interface flux and freezing speed ------------------------------

def _pencil(rho, v1, p, gamma, b=(0.0, 0.0, 0.0)):
    """One pencil as the sweep stacks a block: padded (u5, field)."""
    rho = np.asarray(rho, dtype=float)
    n = rho.size
    v1 = np.broadcast_to(np.asarray(v1, dtype=float), (n,))
    p = np.broadcast_to(np.asarray(p, dtype=float), (n,))
    bc = [np.full(n, bi) for bi in b]
    e = p / (gamma - 1.0) + 0.5 * rho * v1 ** 2 + 0.5 * sum(x ** 2 for x in bc)
    u5 = fluid._padded([rho, rho * v1, np.zeros(n), np.zeros(n), e])
    return u5, fluid._field(fluid._padded(bc))


def _sweep_flux(u5, field, gamma):
    """The full-step stage's fluxes; [var][i] is the flux between cells i and i + 1."""
    flat = np.zeros(u5.size)
    flat[1:-2] = fluid._stage(u5, field, gamma, 2, "", None)
    return fluid._interior(flat.reshape(u5.shape))


def _freezing_speed(u5, field, gamma):
    p = fluid._pressure(u5[0], u5[1:4], u5[4], field.pm, gamma)
    return fluid._freezing_speed(u5[0], u5[1] / u5[0], p, field, gamma)


def test_relaxed_flux_constant_state_gives_analytic_flux(params):
    g = params.gamma
    f = _sweep_flux(*_pencil(np.full(16, 1.3), 0.7, 2.1, g, b=(0.4, -0.2, 0.1)), g)
    pstar = 2.1 + 0.5 * (0.4 ** 2 + 0.2 ** 2 + 0.1 ** 2)
    e = 2.1 / (g - 1) + 0.5 * 1.3 * 0.7 ** 2 + 0.5 * (0.4 ** 2 + 0.2 ** 2 + 0.1 ** 2)
    expected = [
        1.3 * 0.7,
        1.3 * 0.7 ** 2 + pstar - 0.4 ** 2,
        -0.4 * (-0.2),
        -0.4 * 0.1,
        (e + pstar) * 0.7 - 0.4 * (0.4 * 0.7),
    ]
    for flux, want in zip(f, expected):
        assert np.allclose(flux, want, rtol=1e-13, atol=1e-14)


def test_relaxed_flux_stencil_locality_perturbation_scan(params):
    # positive density bump (does not raise the pencil's top signal speed)
    g = params.gamma
    base = _pencil(np.ones(16), 0.3, 1.0, g)
    pert_rho = np.ones(16)
    pert_rho[10] += 0.4
    pert = _pencil(pert_rho, 0.3, 1.0, g)
    assert _freezing_speed(*pert, g) == _freezing_speed(*base, g)
    changed = np.nonzero((_sweep_flux(*base, g) != _sweep_flux(*pert, g)).any(axis=0))[0]
    assert set(changed.tolist()) <= {8, 9, 10, 11}
    assert 10 in changed


def test_relaxed_flux_sod_jump_matches_hand_evaluated_first_order():
    # limiter vanishes at the jump, so the value is the plain upwind mover difference
    g = 1.4
    rho = np.where(np.arange(16) < 8, 1.0, 0.125)
    p = np.where(np.arange(16) < 8, 1.0, 0.1)
    pencil = _pencil(rho, 0.0, p, g)
    c_val = float(np.sqrt(g * 1.0 / 1.0))  # fastest signal on the pencil
    assert _freezing_speed(*pencil, g) == pytest.approx(c_val, rel=1e-14)
    f = _sweep_flux(*pencil, g)
    i = 7  # interface between cells 7 and 8
    e_l, e_r = 1.0 / (g - 1), 0.1 / (g - 1)
    assert f[0][i] == pytest.approx(0.5 * c_val * (1.0 - 0.125), rel=1e-13)
    assert f[1][i] == pytest.approx(0.5 * (1.0 + 0.1), rel=1e-13)
    assert f[4][i] == pytest.approx(0.5 * c_val * (e_l - e_r), rel=1e-13)


def test_relaxed_flux_smooth_pencil_matches_scalar_limited_flux(params):
    # On smooth, non-constant data the limiter is active: each interface flux
    # is w+ + vanleer/2 of the left cell minus w- + vanleer/2 of the right one.
    g, n = params.gamma, 16
    x = 2 * np.pi * np.arange(n) / n
    rho, v1, p = 1 + 0.2 * np.sin(x), 0.3 + 0.1 * np.cos(x), 1 + 0.1 * np.sin(x + 1)
    b1, b2, b3 = 0.4, -0.2, 0.1
    pencil = _pencil(rho, v1, p, g, b=(b1, b2, b3))
    f = _sweep_flux(*pencil, g)
    c = float(_freezing_speed(*pencil, g)[0])

    pm = 0.5 * (b1 ** 2 + b2 ** 2 + b3 ** 2)
    e = p / (g - 1) + 0.5 * rho * v1 ** 2 + pm
    u = [rho, rho * v1, np.zeros(n), np.zeros(n), e]
    flux = [rho * v1, rho * v1 ** 2 + p + pm - b1 * b1, np.full(n, -b1 * b2),
            np.full(n, -b1 * b3), (e + p + pm) * v1 - b1 * (b1 * v1)]

    def limiter(a, b):
        return 2 * a * b / (a + b) if a * b > 0 else 0.0

    largest = 0.0
    for var in range(5):
        def wp(q):
            return 0.5 * float(flux[var][q % n] + c * u[var][q % n])

        def wm(q):
            return 0.5 * float(c * u[var][q % n] - flux[var][q % n])

        for i in range(n):
            right = limiter(wp(i) - wp(i - 1), wp(i + 1) - wp(i))
            left = limiter(wm(i + 1) - wm(i + 2), wm(i) - wm(i + 1))
            want = (wp(i) + 0.5 * right) - (wm(i + 1) + 0.5 * left)
            assert f[var][i] == pytest.approx(want, rel=1e-12, abs=1e-14), (var, i)
            largest = max(largest, abs(right), abs(left))
    assert largest > 1e-2  # the limited correction is not vanishingly small


def test_freeze_speed_invariant(params):
    # The freezing speed of each row of a block bounds |v1| plus the sound and
    # the Alfven speed along the row in every cell.
    g = params.gamma
    state = random_state(GridShape(16, 8, 8), params, seed=1)
    bc = [b[0] for b in face_to_center(state)]
    rho, m1, m2, m3, e = (a[0] for a in (state.rho, state.mom1, state.mom2,
                                         state.mom3, state.e))
    c = _freezing_speed(fluid._padded([rho, m1, m2, m3, e]), fluid._field(fluid._padded(bc)), g)
    assert c.shape == (8, 1)
    v1 = np.abs(m1 / rho)
    p = fluid.gas_pressure(rho, m1, m2, m3, e, *bc, g)
    assert (c >= v1 + np.sqrt(g * p / rho)).all()
    assert (c >= v1 + np.abs(bc[0]) / np.sqrt(rho)).all()


# --- fluid_sweep ---------------------------------------------------------------

def test_sweep_uniform_state_bitwise_unchanged(params):
    state = init_condition("uniform", GridShape(16, 8, 8), params,
                           rho=1.3, p=2.1, v=(0.7, -0.2, 0.4), b=(0.3, 0.1, -0.2))
    ref = state.copy()
    fluid_sweep(state, 0.3, params)
    for name, arr in state.components():
        assert (arr == getattr(ref, name)).all()


def test_sweep_gaussian_advection_oracle(params):
    # exact solution: profile translated by v * t = 16 cells
    state = init_condition("advect_pulse", GridShape(128, 8, 8), params,
                           amplitude=0.5, width=8.0, velocity=1.0)
    rho0 = state.rho[0, 0, :].copy()
    mass0 = totals(state)[0]
    t = 0.0
    while t < 16.0:
        dt = min(cfl_timestep(state, params), 16.0 - t)
        fluid_sweep(state, dt, params)
        t += dt
    assert t == 16.0
    exact = np.roll(rho0, 16)
    l1 = np.sum(np.abs(state.rho[0, 0, :] - exact)) * state.shape.dx
    assert l1 <= 0.05 * 0.5 * 128
    assert totals(state)[0] == pytest.approx(mass0, rel=1e-13)


def test_sweep_conservation_to_roundoff(params):
    state = random_state(GridShape(16, 12, 8), params, seed=6)
    before = totals(state)
    fluid_sweep(state, 0.05, params)
    after = totals(state)
    assert after[0] == pytest.approx(before[0], rel=1e-13)
    assert after[2] == pytest.approx(before[2], rel=1e-13)
    for a, b in zip(after[1], before[1]):
        assert a == pytest.approx(b, rel=0, abs=1e-12 * abs(before[2]))


def test_sweep_tv_does_not_increase_on_smooth_advection(params):
    state = init_condition("advect_pulse", GridShape(128, 8, 8), params,
                           amplitude=0.5, width=8.0)
    line = state.rho[0, 0, :]
    tv0 = np.sum(np.abs(np.roll(line, -1) - line))
    for _ in range(30):
        fluid_sweep(state, cfl_timestep(state, params), params)
        line = state.rho[0, 0, :]
        assert np.sum(np.abs(np.roll(line, -1) - line)) <= tv0 + 1e-12


def test_sweep_locality_seven_point(params):
    base = init_condition("uniform", GridShape(16, 8, 8), params, v=(0.3, 0.0, 0.0))
    pert = base.copy()
    pert.rho[0, 0, 10] += 0.4  # positive bump: pencil top speed unchanged
    pert.e[0, 0, 10] += 0.5 * 0.4 * 0.3 ** 2  # keep p unchanged at the cell
    dt = cfl_timestep(base, params)
    fluid_sweep(base, dt, params)
    fluid_sweep(pert, dt, params)
    diff = np.nonzero(base.rho[0, 0, :] != pert.rho[0, 0, :])[0]
    assert set(diff.tolist()) <= {7, 8, 9, 10, 11, 12, 13}
    # other pencils untouched
    assert (base.rho[1:] == pert.rho[1:]).all()
    assert (base.rho[0, 1:] == pert.rho[0, 1:]).all()


def test_sweep_mirror_symmetry(params):
    state = random_state(GridShape(16, 8, 8), params, seed=13, with_b=False)
    mirror = state.copy()
    for name in ("rho", "mom1", "mom2", "mom3", "e"):
        getattr(mirror, name)[...] = getattr(state, name)[:, :, ::-1]
    mirror.mom1[...] = -mirror.mom1
    dt = 0.25
    fluid_sweep(state, dt, params)
    fluid_sweep(mirror, dt, params)
    assert np.allclose(mirror.rho, state.rho[:, :, ::-1], rtol=1e-12, atol=1e-13)
    assert np.allclose(mirror.mom1, -state.mom1[:, :, ::-1], rtol=1e-12, atol=1e-13)
    assert np.allclose(mirror.e, state.e[:, :, ::-1], rtol=1e-12, atol=1e-13)


def test_sweep_positivity_violation_names_cell(params):
    state = init_condition("uniform", GridShape(16, 8, 8), params, v=(0.5, 0.0, 0.0))
    state.e[2, 3, 4] = 0.1  # below the cell's kinetic energy: negative pressure
    with pytest.raises(PositivityError, match=r"negative pressure at cell \(4, 3, 2\)"):
        fluid_sweep(state, 0.3, params)


def test_sweep_single_precision_stays_single():
    params32 = SchemeParams(precision="single")
    state = init_condition("advect_pulse", GridShape(32, 8, 8), params32)
    fluid_sweep(state, cfl_timestep(state, params32), params32)
    assert state.rho.dtype == np.float32


def test_sweep_blocked_index_in_second_slab(params):
    # 64^3 double on 2 workers: the bad cell sits in slab 1, far past the first
    # row block, so the flat block row must map back to (i, j, k + lo).
    state = init_condition("uniform", GridShape(64, 64, 64), params, v=(0.5, 0.0, 0.0))
    row = (60 - 32) * 64 + 37  # row of cell (5, 37, 60) within its slab
    assert row * 64 * state.dtype.itemsize >= 2 * fluid._BLOCK_BYTES
    state.e[60, 37, 5] = 0.1
    with pytest.raises(PositivityError, match=r"^negative pressure at cell "
                                              r"\(5, 37, 60\) in the x sweep, cycle 0$"):
        fluid_sweep(state, 0.3, params, workers=2)


def test_sweep_nan_energy_raises_non_finite(params):
    state = init_condition("uniform", GridShape(16, 8, 8), params, v=(0.5, 0.0, 0.0))
    state.e[2, 3, 4] = np.nan
    with pytest.raises(PositivityError, match=r"^non-finite pressure at cell \(4, 3, 2\) "
                                              r"in the x sweep, cycle 0$"):
        fluid_sweep(state, 0.3, params)


def test_step_cycle_nan_energy_raises_non_finite(params):
    state = init_condition("uniform", GridShape(16, 8, 8), params, v=(0.5, 0.0, 0.0))
    state.e[2, 3, 4] = np.nan
    with pytest.raises(PositivityError, match=r"^non-finite pressure at cell \(4, 3, 2\) "
                                              r"in the cfl timestep \(x fastest\), cycle 0$"):
        step_cycle(state, params)


def test_nan_density_is_non_finite_not_static(params):
    # max(0.0, nan) == 0.0 once hid a NaN state behind "dt unbounded".
    state = init_condition("uniform", GridShape(8, 8, 8), params)
    state.rho[1, 2, 3] = np.nan
    with pytest.raises(PositivityError, match=r"non-finite density at cell \(3, 2, 1\)"):
        cfl_timestep(state, params)


def test_cfl_non_finite_signal_speed(params):
    # A subnormal float32 density passes rho > 0 and keeps p finite, but
    # |v| and the sound speed overflow to inf.
    params32 = SchemeParams(precision="single")
    state = init_condition("uniform", GridShape(8, 8, 8), params32)
    state.rho[4, 5, 6] = np.float32(1e-45)
    state.mom1[4, 5, 6] = 1e-6
    state.e[4, 5, 6] = 1e34
    with pytest.raises(PositivityError, match=r"non-finite signal speed at cell \(6, 5, 4\)"):
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            cfl_timestep(state, params32)


def test_magnetic_entry_check_names_non_finite_density(params):
    state = init_condition("uniform", GridShape(8, 8, 8), params)
    state.rho[0, 1, 2] = np.nan
    with pytest.raises(PositivityError, match=r"non-finite density at cell \(2, 1, 0\) "
                                              r"entering the x magnetic update"):
        magnetic_sweep(state, 0.1, params)
