import math
import mmap
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tvdmhd import (GridShape, SchemeParams, allocate_state, discrete_divergence,
                    face_to_center, init_condition, step_cycle, totals, transpose)
from tvdmhd import grid
from tvdmhd.grid import COMPONENT_NAMES, row_centers

from conftest import copy_state, random_state


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


@pytest.mark.parametrize("orientation", [("y", "z", "x"), ("z", "x", "y")])
def test_allocate_and_init_refuse_a_shape_they_would_relabel(params, orientation):
    shape = GridShape(16, 8, 12, orientation=orientation)
    message = re.escape(f"allocate_state requires canonical orientation, got {orientation}")
    with pytest.raises(ValueError, match=message):
        allocate_state(shape, params)
    with pytest.raises(ValueError, match=message):
        init_condition("uniform", shape, params)


@pytest.mark.parametrize("dx", [0.0, -1.0, math.inf, math.nan])
def test_grid_shape_refuses_a_cell_width_that_is_not_positive_and_finite(dx):
    with pytest.raises(ValueError, match=f"^cell width must be positive and finite, got {dx}$"):
        GridShape(8, 8, 8, dx=dx)


@pytest.mark.parametrize("gamma", [1.0, 0.5, math.inf, math.nan])
def test_scheme_params_refuse_a_gamma_that_is_not_finite_and_above_1(gamma):
    with pytest.raises(ValueError, match=f"^gamma must be finite and exceed 1, got {gamma}$"):
        SchemeParams(gamma=gamma)


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
    ref = copy_state(state)
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
    ref = copy_state(state)
    transpose(state)
    transpose(state, inverse=True)
    assert state.shape.orientation == ("x", "y", "z")
    for name, arr in state.components():
        assert (arr == getattr(ref, name)).all()


# numpy's spelling of the two transposes: forward out[i, k, j] = in[k, j, i],
# inverse out[j, i, k] = in[k, j, i].
_NUMPY_AXES = {False: (2, 0, 1), True: (1, 2, 0)}


@settings(max_examples=30, deadline=None)
@given(dims=st.tuples(*[st.integers(2, 20).map(lambda m: 4 * m)] * 3), inverse=st.booleans(),
       precision=st.sampled_from(["single", "double"]), workers=st.integers(1, 3))
@example(dims=(44, 40, 76), inverse=False, precision="single", workers=3)
@example(dims=(44, 40, 76), inverse=True, precision="double", workers=2)
@example(dims=(80, 8, 8), inverse=False, precision="single", workers=1)
def test_transpose_matches_numpy_at_tile_scale(dims, inverse, precision, workers):
    # Sides up to 80 cells, so matrix sides pass a tile's 32 and 1024 elements
    # and the tiles clip at matrix and slab edges.  Each vector component is
    # the one along its slot's new axis: slot r of the result is the old slot
    # that held physical axis orientation[r].
    state = allocate_state(GridShape(*dims), SchemeParams(precision=precision))
    state.u[...] = np.random.default_rng(list(dims)).standard_normal(state.u.shape)
    before, old = state.u.copy(), state.shape.orientation
    transpose(state, inverse=inverse, workers=workers)
    new = state.shape.orientation
    assert new == (("z", "x", "y") if inverse else ("y", "z", "x"))
    for c, name in enumerate(COMPONENT_NAMES):
        if name[-1].isdigit():
            name = name[:-1] + str(old.index(new[int(name[-1]) - 1]) + 1)
        want = np.transpose(before[COMPONENT_NAMES.index(name)], _NUMPY_AXES[inverse])
        assert state.u[c].shape == want.shape
        assert state.u[c].tobytes() == want.tobytes(), (c, name)


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


class _AddSizes:
    """numpy, with the output size of every `add` call recorded in `sizes`."""

    def __init__(self):
        self.sizes = []

    def __getattr__(self, name):
        return getattr(np, name)

    def add(self, a, b, out):
        self.sizes.append(out.size)
        return np.add(a, b, out=out)


@pytest.mark.parametrize("shape", [GridShape(16, 12, 8), GridShape(8, 8, 12)],
                         ids=["16x12x8", "8x8x12"])
def test_row_centers_match_the_rolled_whole_grid_field(shape, monkeypatch):
    # Every row range of a small grid with unequal axes: ranges inside one
    # plane, across plane ends, and into and through the last plane.  No add
    # runs over an empty range.
    numpy = _AddSizes()
    monkeypatch.setattr(grid, "np", numpy)
    state = random_state(shape, SchemeParams(precision="single"), seed=4)
    n3, n2, n1 = shape.array_shape
    want = np.stack([0.5 * (state.b1 + np.roll(state.b1, -1, axis=2)),
                     0.5 * (state.b2 + np.roll(state.b2, -1, axis=1)),
                     0.5 * (state.b3 + np.roll(state.b3, -1, axis=0))]).reshape(3, -1, n1)
    rows = n3 * n2
    for g0 in range(rows):
        for g1 in range(g0 + 1, rows + 1):
            got = np.full((3, g1 - g0, n1), np.nan, dtype=state.dtype)
            row_centers(state.u, g0, g1, got)
            assert got.tobytes() == want[:, g0:g1].tobytes(), (g0, g1)
    assert min(numpy.sizes) > 0


def test_row_centers_refuse_a_strided_block(params):
    # b1 is formed as one flat run over the rows, which a strided block cannot
    # hold; it is refused before anything is written.
    state = random_state(GridShape(8, 8, 8), params, seed=5)
    padded = np.zeros((3, 20, 12))
    with pytest.raises(ValueError):
        row_centers(state.u, 30, 50, padded[..., 2:-2])
    assert (padded == 0).all()


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


def test_totals_refuses_a_transposed_state_and_agrees_once_it_is_canonical(params):
    state = random_state(GridShape(8, 12, 16), params, seed=12)
    ref = totals(state)
    for orientation in ("('y', 'z', 'x')", "('z', 'x', 'y')"):
        transpose(state)
        with pytest.raises(ValueError, match=re.escape(f"got {orientation}")):
            totals(state)
    transpose(state)
    assert totals(state) == ref


@pytest.mark.parametrize("precision", ["single", "double"])
@pytest.mark.parametrize("shape", [GridShape(8, 12, 16), GridShape(96, 96, 8)],
                         ids=["8x12x16", "96x96x8"])
def test_totals_matches_a_plane_by_plane_oracle(shape, precision):
    # 96 x 96 = 9216 cells per z plane, more than numpy's 8192-element buffer.
    state = random_state(shape, SchemeParams(precision=precision), seed=4)
    dv = shape.dx ** 3

    def oracle(arr):
        acc = 0.0
        for plane in arr:
            acc = acc + float(np.add.reduce(plane.astype(np.float64).ravel()))
        return acc * dv

    mass, mom, energy = totals(state)
    assert mass == oracle(state.rho)
    assert mom == (oracle(state.mom1), oracle(state.mom2), oracle(state.mom3))
    assert energy == oracle(state.e)


@pytest.mark.parametrize("precision", ["single", "double"])
def test_totals_are_exact_on_dyadic_values(precision):
    # Multiples of 1/256 below 4 in magnitude: every partial sum is exact in
    # float64, so any summation order gives the exact sum.
    state = allocate_state(GridShape(16, 8, 12, dx=0.5), SchemeParams(precision=precision))
    rng = np.random.default_rng(3)
    for _, arr in state.components():
        arr[...] = rng.integers(-1024, 1024, arr.shape) / 256.0
    mass, mom, energy = totals(state)
    exact = [math.fsum(arr.ravel().tolist()) * 0.125 for arr in state.u[:5]]
    assert [mass, *mom, energy] == exact


def test_totals_scales_with_dx(params):
    state = allocate_state(GridShape(8, 8, 8, dx=0.5), params)
    state.rho[...] = 2.0
    mass, _, _ = totals(state)
    assert mass == pytest.approx(2.0 * 512 * 0.125, rel=0, abs=0)
