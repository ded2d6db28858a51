import mmap

import numpy as np
import pytest

from tvdmhd import (GridShape, SchemeParams, allocate_state, discrete_divergence,
                    face_to_center, step_cycle, totals, transpose)
from tvdmhd.grid import COMPONENT_NAMES

from conftest import random_state


def test_allocate_shapes_and_zeroing(params):
    state = allocate_state(GridShape(16, 16, 16), params)
    names = [name for name, _ in state.components()]
    assert names == list(COMPONENT_NAMES)
    for _, arr in state.components():
        assert arr.size == 4096
        assert not arr.any()
    assert state.shape.orientation == ("x", "y", "z")


def test_allocate_rejects_non_multiple_of_4(params):
    with pytest.raises(ValueError, match="not a multiple of 4"):
        allocate_state(GridShape(15, 16, 16), params)


def test_allocate_rejects_small_dimension(params):
    with pytest.raises(ValueError, match="below minimum 8"):
        allocate_state(GridShape(4, 16, 16), params)


def test_canonical_box_cell_count():
    assert GridShape(128, 128, 128).cells == 2_097_152


def test_precision_selects_dtype():
    assert SchemeParams(precision="single").dtype == np.float32
    assert SchemeParams(precision="double").dtype == np.float64
    state = allocate_state(GridShape(8, 8, 8), SchemeParams(precision="single"))
    assert state.rho.dtype == np.float32


def test_components_are_rows_of_one_block(params):
    state = random_state(GridShape(16, 8, 12), params, seed=1)
    assert state.u.shape == (8, 12, 8, 16) and state.u.flags.c_contiguous
    for c, name in enumerate(COMPONENT_NAMES):
        assert np.shares_memory(getattr(state, name), state.u[c])
    assert np.shares_memory(state.rho, state.u) and np.shares_memory(state.b3, state.u)
    with pytest.raises(AttributeError):
        state.rho = np.ones_like(state.rho)


def _mapping(arr):
    while isinstance(arr, np.ndarray):
        arr = arr.base
    return arr


def test_transposes_swap_between_two_blocks(params):
    state = random_state(GridShape(16, 8, 12), params, seed=2)
    mapping = _mapping(state.u)
    assert isinstance(mapping, mmap.mmap) and _mapping(state.spare) is mapping
    buffers = (state.u.ctypes.data, state.spare.ctypes.data)
    assert buffers[1] == buffers[0] + state.u.nbytes  # the two halves of the mapping
    step_cycle(state, params)
    assert (state.u.ctypes.data, state.spare.ctypes.data) == buffers
    step_cycle(state, params, workers=2)
    assert (state.u.ctypes.data, state.spare.ctypes.data) == buffers
    transpose(state)
    assert (state.spare.ctypes.data, state.u.ctypes.data) == buffers
    assert _mapping(state.u) is mapping and _mapping(state.spare) is mapping


# --- transpose -------------------------------------------------------------

def test_transpose_three_times_is_identity(params):
    state = random_state(GridShape(8, 12, 16), params, seed=2)
    ref = state.copy()
    for _ in range(3):
        transpose(state)
    assert state.shape.orientation == ("x", "y", "z")
    for name, arr in state.components():
        assert (arr == getattr(ref, name)).all()


def test_transpose_index_permutation_oracle(params):
    # rho(i, j, k) = i + 10 j + 100 k; transposed rho(j, k, i) holds the same value.
    state = allocate_state(GridShape(8, 8, 8), params)
    for k in range(8):
        for j in range(8):
            for i in range(8):
                state.rho[k, j, i] = i + 10 * j + 100 * k
    transpose(state)
    for k in range(8):
        for j in range(8):
            for i in range(8):
                # array is indexed [slowest, middle, fastest]
                assert state.rho[i, k, j] == i + 10 * j + 100 * k


def test_transpose_relabels_components(params):
    state = allocate_state(GridShape(8, 8, 8), params)
    state.mom2[...] = 7.0
    state.b2[...] = 3.0
    transpose(state)
    assert (state.mom1 == 7.0).all() and (state.mom2 == 0).all()
    assert (state.b1 == 3.0).all() and (state.b2 == 0).all()
    assert state.shape.orientation == ("y", "z", "x")


def test_transpose_preserves_sums_exactly(params):
    state = random_state(GridShape(8, 12, 16), params, seed=5)
    before = np.sort(state.rho.ravel())
    total = state.rho.sum()
    transpose(state)
    assert state.rho.sum() == total
    assert (np.sort(state.rho.ravel()) == before).all()


def test_inverse_transpose_undoes_forward(params):
    state = random_state(GridShape(8, 12, 16), params, seed=9)
    ref = state.copy()
    transpose(state)
    transpose(state, inverse=True)
    assert state.shape.orientation == ("x", "y", "z")
    for name, arr in state.components():
        assert (arr == getattr(ref, name)).all()


# --- face_to_center ---------------------------------------------------------

def test_face_to_center_uniform(params):
    state = allocate_state(GridShape(8, 8, 8), params)
    state.b1[...] = 3.0
    bc1, _, _ = face_to_center(state)
    assert (bc1 == 3.0).all()


def test_face_to_center_two_faces(params):
    state = allocate_state(GridShape(8, 8, 8), params)
    state.b1[0, 0, 2] = 1.0
    state.b1[0, 0, 3] = 2.0
    bc1, _, _ = face_to_center(state)
    assert bc1[0, 0, 2] == 1.5


def test_face_to_center_matches_two_point_loop(params):
    state = random_state(GridShape(8, 12, 16), params, seed=3)
    bc1, bc2, bc3 = face_to_center(state)
    n3, n2, n1 = state.shape.array_shape
    for k in range(n3):
        for j in range(n2):
            for i in range(n1):
                assert bc1[k, j, i] == 0.5 * (state.b1[k, j, i] + state.b1[k, j, (i + 1) % n1])
                assert bc3[k, j, i] == 0.5 * (state.b3[k, j, i] + state.b3[(k + 1) % n3, j, i])


def test_face_to_center_linear_field_away_from_seam(params):
    state = allocate_state(GridShape(16, 8, 8), params)
    state.b1[...] = 0.25 * np.arange(16)[np.newaxis, np.newaxis, :]
    bc1, _, _ = face_to_center(state)
    interior = bc1[:, :, :-1]
    expected = 0.25 * (np.arange(15) + 0.5)
    assert np.allclose(interior, expected[np.newaxis, np.newaxis, :], rtol=0, atol=0)


# --- discrete divergence ----------------------------------------------------

def test_divergence_uniform_field_is_exactly_zero(params):
    state = allocate_state(GridShape(8, 8, 8), params)
    state.b1[...], state.b2[...], state.b3[...] = 0.4, -1.2, 0.7
    assert not discrete_divergence(state).any()


def test_divergence_of_discrete_curl_is_roundoff(params):
    # b = curl A built directly here, independent of the ic module
    rng = np.random.default_rng(8)
    state = allocate_state(GridShape(16, 16, 16), params)
    a1, a2, a3 = rng.standard_normal((3, 16, 16, 16))
    dx = state.shape.dx
    state.b1[...] = (np.roll(a3, -1, 1) - a3 - np.roll(a2, -1, 0) + a2) / dx
    state.b2[...] = (np.roll(a1, -1, 0) - a1 - np.roll(a3, -1, 2) + a3) / dx
    state.b3[...] = (np.roll(a2, -1, 2) - a2 - np.roll(a1, -1, 1) + a1) / dx
    bmax = max(abs(state.b1).max(), abs(state.b2).max(), abs(state.b3).max())
    assert abs(discrete_divergence(state)).max() <= 4 * np.spacing(bmax) / dx


def test_divergence_ramp_nonzero_only_at_seam(params):
    state = allocate_state(GridShape(16, 8, 8), params)
    state.b1[...] = np.arange(16)[np.newaxis, np.newaxis, :].astype(float)
    div = discrete_divergence(state)
    assert (div[:, :, :-1] == 1.0).all()
    assert (div[:, :, -1] == 1.0 - 16.0).all()


# --- totals ------------------------------------------------------------------

def test_totals_uniform_mass(params):
    state = allocate_state(GridShape(16, 16, 16), params)
    state.rho[...] = 1.0
    mass, mom, energy = totals(state)
    assert mass == 4096.0
    assert mom == (0.0, 0.0, 0.0) and energy == 0.0


def test_totals_bitwise_invariant_under_transpose(params):
    state = random_state(GridShape(8, 12, 16), params, seed=12)
    ref = totals(state)
    transpose(state)
    assert totals(state) == ref
    transpose(state)
    assert totals(state) == ref


def test_totals_matches_sequential_loop_oracle(params):
    state = random_state(GridShape(8, 8, 8), params, seed=4)
    mass, mom, energy = totals(state)
    acc = 0.0
    for v in state.rho.ravel():
        acc = acc + float(v)
    assert mass == acc * state.shape.dx ** 3
    acc_e = 0.0
    for v in state.e.ravel():
        acc_e = acc_e + float(v)
    assert energy == acc_e * state.shape.dx ** 3


def test_totals_scales_with_dx(params):
    state = allocate_state(GridShape(8, 8, 8, dx=0.5), params)
    state.rho[...] = 2.0
    mass, _, _ = totals(state)
    assert mass == pytest.approx(2.0 * 512 * 0.125, rel=0, abs=0)
