import numpy as np
import pytest

from tvdmhd import (GridShape, SchemeParams, discrete_divergence, fluid_sweep,
                    init_condition, magnetic_sweep)
from tvdmhd import fluid

from conftest import random_state


# --- magnetic_sweep ----------------------------------------------------------

def test_uniform_field_uniform_velocity_noop(params):
    state = init_condition("uniform", GridShape(16, 8, 8), params,
                           v=(0.8, 0.0, 0.0), b=(0.3, 0.2, 0.1))
    before = [getattr(state, f"b{i}").copy() for i in (1, 2, 3)]
    magnetic_sweep(state, 0.3, params)
    for i, ref in zip((1, 2, 3), before):
        assert np.allclose(getattr(state, f"b{i}"), ref, rtol=0, atol=1e-15)


def test_static_state_noop_bitwise(params):
    state = init_condition("uniform", GridShape(16, 8, 8), params)
    ref = state.copy()
    magnetic_sweep(state, 0.5, params)
    for name, arr in state.components():
        assert (arr == getattr(ref, name)).all()


def test_square_pulse_advection_and_divergence(params):
    # d/dt b2 = -d/dx (v1 b2) with v1 = 1: exact solution translates the pulse.
    state = init_condition("uniform", GridShape(128, 8, 8), params, v=(1.0, 0.0, 0.0))
    x = np.arange(128)
    pulse = np.where((x >= 48) & (x < 80), 1.0, 0.0)
    state.b2[...] = pulse[np.newaxis, np.newaxis, :]
    state.b1[...] = 0.0
    state.b3[...] = 0.0
    assert abs(discrete_divergence(state)).max() == 0.0
    total0 = state.b2.sum()

    for _ in range(32):  # 32 steps of dt = 0.5: translate by 16 cells
        magnetic_sweep(state, 0.5, params)

    exact = np.roll(pulse, 16)
    line = state.b2[0, 0, :]
    l1 = np.sum(np.abs(line - exact))
    assert l1 <= 0.05 * 128  # TVD smearing only
    # pulse located at the right place: circular cross-correlation peaks at 16
    shifts = [np.sum(np.roll(pulse, s) * line) for s in range(128)]
    assert int(np.argmax(shifts)) == 16
    assert state.b2.sum() == pytest.approx(total0, rel=1e-13)
    assert abs(discrete_divergence(state)).max() <= 1e-13
    assert abs(state.b1).max() <= 1e-13 and abs(state.b3).max() == 0.0


def test_divergence_preserved_over_many_sweeps(params):
    state = init_condition("solenoidal_random", GridShape(16, 16, 16), params, seed=2)
    bmax = max(abs(getattr(state, f"b{i}")).max() for i in (1, 2, 3))
    for _ in range(20):
        magnetic_sweep(state, 0.2, params)
    assert abs(discrete_divergence(state)).max() <= 1e-12 * bmax / state.shape.dx


def test_face_sums_conserved(params):
    state = random_state(GridShape(16, 12, 8), params, seed=9)
    sums = [getattr(state, f"b{i}").sum() for i in (1, 2, 3)]
    magnetic_sweep(state, 0.05, params)
    for i, ref in zip((1, 2, 3), sums):
        assert getattr(state, f"b{i}").sum() == pytest.approx(ref, rel=0, abs=1e-12)


def _reference_sequential_sweep(state, dt, params):
    """Independent row-by-row odd-then-even reimplementation of the update."""
    lam = dt / state.shape.dx
    v1 = state.mom1 / state.rho
    n3, n2, _ = state.shape.array_shape

    def edge_flux(b, ve):
        d = b - np.roll(b, 1, axis=-1)
        nu = np.abs(ve) * lam
        up = np.roll(b, 1, axis=-1) + 0.5 * (1 - nu) * fluid.vanleer(np.roll(d, 1, axis=-1), d)
        dn = b - 0.5 * (1 - nu) * fluid.vanleer(d, np.roll(d, -1, axis=-1))
        return ve * np.where(ve > 0, up, dn)

    for j in list(range(1, n2, 2)) + list(range(0, n2, 2)):
        vf = 0.5 * (v1[:, j - 1, :] + v1[:, j, :])
        ve = 0.5 * (vf + np.roll(vf, 1, axis=-1))
        phi = edge_flux(state.b2[:, j, :], ve)
        state.b2[:, j, :] -= lam * (np.roll(phi, -1, axis=-1) - phi)
        state.b1[:, j, :] -= lam * phi
        state.b1[:, j - 1, :] += lam * phi
    for k in list(range(1, n3, 2)) + list(range(0, n3, 2)):
        vf = 0.5 * (v1[k - 1] + v1[k])
        ve = 0.5 * (vf + np.roll(vf, 1, axis=-1))
        phi = edge_flux(state.b3[k], ve)
        state.b3[k] -= lam * (np.roll(phi, -1, axis=-1) - phi)
        state.b1[k] -= lam * phi
        state.b1[k - 1] += lam * phi
    return state


@pytest.mark.parametrize("dims, precision, workers", [
    pytest.param((16, 12, 8), "double", 1, id="1"),
    pytest.param((16, 12, 8), "double", 2, id="2"),
    pytest.param((16, 12, 8), "double", 4, id="4"),
    # several chunks per k slab and per j column range
    pytest.param((64, 64, 64), "double", 2, id="64^3-2"),
    # uneven k slabs (6, 5, 5 of 16) and j columns (7, 7, 6 of 20)
    pytest.param((16, 20, 16), "double", 3, id="16x20x16-3"),
])
def test_sequential_equivalence(dims, precision, workers):
    params = SchemeParams(precision=precision)
    state = random_state(GridShape(*dims), params, seed=4)
    ref = _reference_sequential_sweep(state.copy(), 0.07, params)
    magnetic_sweep(state, 0.07, params, workers=workers)
    for i in (1, 2, 3):
        assert (getattr(state, f"b{i}") == getattr(ref, f"b{i}")).all()


def test_divergence_change_bounded_per_sweep(params):
    state = random_state(GridShape(16, 16, 16), params, seed=14)
    d0 = abs(discrete_divergence(state)).max()
    bmax = max(abs(getattr(state, f"b{i}")).max() for i in (1, 2, 3))
    magnetic_sweep(state, 0.1, params)
    d1 = abs(discrete_divergence(state)).max()
    assert d1 <= d0 + 16 * np.spacing(bmax) / state.shape.dx


def test_fluid_then_magnetic_pairing_runs(params):
    state = init_condition("solenoidal_random", GridShape(16, 16, 16), params, seed=3)
    dt = 0.1
    fluid_sweep(state, dt, params)
    magnetic_sweep(state, dt, params)
    for _, arr in state.components():
        assert np.isfinite(arr).all()
