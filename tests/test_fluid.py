import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvdmhd import (GridShape, PositivityError, SchemeParams, allocate_state,
                    cfl_timestep, face_to_center, fluid, fluid_sweep, grid, init_condition,
                    magnetic, magnetic_sweep, parallel, step_cycle, totals, transpose)
from tvdmhd.fluid import check_positive

from conftest import (copy_state, random_state, textbook_fast_speed, textbook_pressure, vanleer,
                      where_limit)


# --- fast speed -----------------------------------------------------------------
# fluid._fast_speed(rho, p, b1^2, |b|^2 / 2, gamma, out, a2, h, tmp): the speed
# of both the sweep and the cfl step

def _fast_speed(rho, p, b1sq, bsq, gamma):
    """fluid._fast_speed of b1^2 and |b|^2 = bsq, into fresh arrays of the broadcast shape."""
    shape = np.broadcast(rho, p, b1sq, bsq).shape
    out, a2, h = (np.empty(shape) for _ in range(3))
    return fluid._fast_speed(rho, p, b1sq, 0.5 * np.asarray(bsq), gamma, out, a2, h, a2)


def test_fast_speed_reduces_to_sound_speed():
    assert _fast_speed(1.0, 1.0, 0.0, 0.0, 5.0 / 3.0) == pytest.approx(np.sqrt(5.0 / 3.0), rel=1e-14)


def test_fast_speed_pure_alfven_along_axis():
    # a = 0: c_f = |b1| / sqrt(rho)
    assert _fast_speed(1.0, 0.0, 1.0, 1.0, 5.0 / 3.0) == pytest.approx(1.0, rel=1e-14)


def test_fast_speed_transverse_field_closed_form():
    # b1 = 0: c_f^2 = a^2 + b^2/rho = 1 + 1 = 2
    got = _fast_speed(1.0, 0.6, 0.0, 1.0, 5.0 / 3.0)
    assert got == pytest.approx(np.sqrt(2.0), rel=1e-14)


def test_check_positive_negative_pressure_names_cell():
    p = np.ones((8, 8, 8))
    p[1, 2, 3] = -0.5
    with pytest.raises(PositivityError, match=r"^negative pressure at cell \(3, 2, 1\)$"):
        check_positive(np.ones((8, 8, 8)), p, GridShape(8, 8, 8))


def test_fast_speed_dominates_alfven_and_sound():
    rng = np.random.default_rng(0)
    rho = 0.5 + rng.random(100)
    p = 0.1 + rng.random(100)
    b = rng.standard_normal((3, 100))
    b1sq = b[0] ** 2
    cf = _fast_speed(rho, p, b1sq, b1sq + b[1] ** 2 + b[2] ** 2, 5.0 / 3.0)
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


def _signal_speeds_per_axis(state, params):
    """|v| + c_f of every cell along each axis, one axis at a time, each summing |b|^2 in
    its own order: (3, n3 * n2, n1).  The textbook formulas, apart from fluid's kernels."""
    gamma = params.gamma
    rho, m1, m2, m3, e = (state.u[c] for c in range(5))
    sq1, sq2, sq3 = (np.square(bc) for bc in face_to_center(state))
    p = textbook_pressure(rho, (m1, m2, m3), e, 0.5 * ((sq1 + sq2) + sq3), gamma)
    speeds = []
    for m, along, t1, t2 in ((m1, sq1, sq2, sq3), (m2, sq2, sq3, sq1), (m3, sq3, sq1, sq2)):
        cf = textbook_fast_speed(rho, p, along, (along + t1) + t2, gamma)
        speeds.append(np.abs(m / rho) + cf)
    return np.stack(speeds).reshape(3, -1, state.shape.n1)


def _cfl_per_axis(state, params):
    """The cfl dt over the whole grid from the per-axis signal speeds."""
    return params.courant * state.shape.dx / float(np.max(_signal_speeds_per_axis(state, params)))


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("turns", [0, 1])
@pytest.mark.parametrize("precision", ["single", "double"])
def test_cfl_is_bitwise_the_per_axis_evaluation(precision, turns, workers):
    params = SchemeParams(precision=precision)
    state = random_state(GridShape(48, 20, 28), params)
    for _ in range(turns):
        transpose(state, workers=workers)
    # A row block ends inside a plane, so row_centers starts blocks mid-plane.
    n2, n1 = state.shape.n2, state.shape.n1
    assert (fluid._BLOCK_BYTES // (n1 * state.dtype.itemsize)) % n2 != 0
    assert cfl_timestep(state, params, workers).hex() == _cfl_per_axis(state, params).hex()


@pytest.mark.parametrize("turns", [0, 1, 2])
@pytest.mark.parametrize("precision", ["single", "double"])
def test_cfl_signal_speed_of_every_cell_is_bitwise_the_per_axis_evaluation(precision, turns):
    # dt rests on the one fastest cell, where two orders of the |b|^2 sum may
    # round alike; comparing every cell's speed on every axis pins each axis's
    # order.  The grid is one row block, so after the call the block's
    # workspace holds the signal speeds of the whole grid.
    params = SchemeParams(precision=precision)
    state = random_state(GridShape(16, 12, 8), params, seed=2)
    for _ in range(turns):
        transpose(state)
    n3, n2, n1 = state.shape.array_shape
    assert fluid._BLOCK_BYTES >= n3 * n2 * n1 * state.dtype.itemsize
    cfl_timestep(state, params, 1)
    ws = parallel.workspace(fluid._Block, n3 * n2, n1, state.dtype)
    assert ws.sig.tobytes() == _signal_speeds_per_axis(state, params).tobytes()


# --- vanleer ---------------------------------------------------------------

def test_vanleer_fixed_points():
    # Half the Van Leer slope 2 dl dr / (dl + dr).
    assert vanleer(1.0, 1.0) == 0.5
    assert vanleer(1.0, -1.0) == 0.0
    assert vanleer(1.0, 3.0) == 0.75


@given(a=st.floats(-1e6, 1e6), b=st.floats(-1e6, 1e6))
def test_vanleer_symmetric_and_bounded(a, b):
    out = vanleer(a, b)
    assert out == vanleer(b, a)
    if a * b <= 0:
        assert out == 0.0
    else:
        assert 0 <= abs(out) <= min(abs(a), abs(b)) + 1e-9 * abs(out)
        assert np.sign(out) == np.sign(a)


def test_vanleer_underflowed_product_stays_bounded():
    # dl * dr is subnormal here; dl dr / (dl + dr) formed from it came out
    # 15% above min(|dl|, |dr|) (a falsifying example of the test above).
    a, b = -1.4278677992273454e-122, -5.995738167430617e-202
    assert vanleer(a, b) == b
    got = vanleer(np.array([a, 1.0], dtype=np.float64), np.array([b, 3.0]))
    assert got[0] == b and got[1] == 0.75
    x = np.float32(3e-20)
    assert vanleer(x, x) == x / 2


@pytest.mark.parametrize("dtype, cell, other", [
    (np.float32, (1.8295912e-19, 1.7364175e-20), (1.1e-20, 1.3e-20)),
    (np.float64, (float.fromhex("0x1.4p-516"), float.fromhex("0x1.d8p-527")), (1e-160, 1.3e-160)),
])
def test_vanleer_cell_does_not_depend_on_the_others(dtype, cell, other):
    # The cell's dl * dr is an exact subnormal, which raises no underflow; the
    # other cell's underflows.  The row blocks, and so the other cells of a
    # call, follow the slab bounds, so the cell's slope may not change.
    alone = vanleer(*(np.array([c], dtype=dtype) for c in cell))
    together = vanleer(*(np.array(pair, dtype=dtype) for pair in zip(cell, other)))
    assert together[0] == alone[0]


def _slope_values(dtype, subnormal_products):
    # Signed zeros, infinities, NaN, products that overflow, and mixed signs;
    # with subnormal_products also slopes whose product is subnormal, inexact
    # (the underflow fallback) or exact.
    info = np.finfo(dtype)
    vals = [0.0, 1.0, 3.0, 0.25, np.inf, np.nan, float(info.max) / 4, float(np.sqrt(info.max)) * 2]
    if subnormal_products:
        vals += [float(np.sqrt(info.tiny)) / 3, float(np.sqrt(info.tiny)) / 5,
                 float(np.sqrt(info.tiny)) / 4, float(info.smallest_subnormal)]
    return np.array(vals + [-v for v in vals], dtype=dtype)


@pytest.mark.parametrize("subnormal_products", [False, True], ids=["normal", "subnormal"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_vanleer_bit_select_matches_where(dtype, subnormal_products):
    vals = _slope_values(dtype, subnormal_products)
    dl, dr = vals[:, None], vals[None, :]  # every pair, by broadcasting
    # The overflowing and infinite slopes warn alike in both forms.
    with np.errstate(over="ignore", invalid="ignore"):
        want = where_limit(*np.broadcast_arrays(dl, dr))
        got = vanleer(dl, dr)
        alone = [vanleer(a, b) for a in vals for b in vals]  # each cell in a call of its own
    assert got.shape == want.shape == (vals.size, vals.size) and got.dtype == dtype
    assert got.tobytes() == want.tobytes()
    assert all(x.dtype == dtype for x in alone)
    assert b"".join(x.tobytes() for x in alone) == want.tobytes()


def _special_words(dtype):
    # The bit patterns of signed zeros, infinities, NaNs with payloads (quiet
    # and signalling), the extreme subnormals and normals, and the largest
    # value: each with the sign bit clear, then set.
    info = np.finfo(dtype)
    bits = 8 * info.dtype.itemsize
    words = np.array([0, np.inf, info.max, info.tiny, info.smallest_subnormal,
                      np.sqrt(info.max), np.sqrt(info.tiny)], dtype).view(f"u{bits // 8}")
    exponent = int(words[1])  # the bits of +inf
    nans = [exponent | 1, exponent | (1 << (info.nmant - 1)), exponent | ((1 << info.nmant) - 1)]
    plus = [int(w) for w in words] + nans + [int(words[3]) - 1]  # the largest subnormal
    return plus + [w | (1 << (bits - 1)) for w in plus]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@settings(deadline=None)
@given(data=st.data())
def test_vanleer_matches_where_on_any_bit_pattern(dtype, data):
    # Any two words viewed as floats, alone and mixed into one call with others.
    # Each is compared with the reference on the same call: which payload the
    # product of two NaNs keeps depends on the call's length in numpy.
    bits = 8 * np.dtype(dtype).itemsize
    word = st.one_of(st.integers(0, 2 ** bits - 1), st.sampled_from(_special_words(dtype)))
    pairs = data.draw(st.lists(st.tuples(word, word), min_size=1, max_size=12))
    dl, dr = (np.array(col, f"u{bits // 8}").view(dtype) for col in zip(*pairs))
    with np.errstate(over="ignore", invalid="ignore"):
        calls = [(dl, dr)] + [(dl[i:i + 1], dr[i:i + 1]) for i in range(len(dl))]
        for args in calls:
            got = vanleer(*args)
            assert got.dtype == dtype and got.tobytes() == where_limit(*args).tobytes()


@pytest.fixture
def limiter_calls(monkeypatch):
    """Counts of the calls of fluid._limit and of its select form, fluid._limit_where."""
    calls = {"_limit": 0, "_limit_where": 0}

    def counted(name):
        func = getattr(fluid, name)

        def call(*args):
            calls[name] += 1
            return func(*args)
        return call

    for name in calls:
        monkeypatch.setattr(fluid, name, counted(name))
    return calls


@pytest.mark.parametrize("precision", ["single", "double"])
def test_a_cycle_runs_the_limiters_main_path_only(limiter_calls, precision):
    # One worker: the counters live in this process.
    params = SchemeParams(precision=precision)
    state = init_condition("solenoidal_random", GridShape(32, 32, 32), params, seed=0)
    step_cycle(state, params, 1)
    assert limiter_calls["_limit"] > 0 and limiter_calls["_limit_where"] == 0


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("pair, fallbacks", [("overflow", 0), ("inexact subnormal", 1)])
def test_the_limiter_falls_back_once_on_a_tiny_product_and_never_on_an_overflow(
        limiter_calls, dtype, pair, fallbacks):
    info = np.finfo(dtype)
    small = np.sqrt(info.tiny)
    # dl dr overflows to -inf; or dl dr is a positive subnormal that rounds.
    cell = {"overflow": (8, -info.max / 4), "inexact subnormal": (small / 3, small / 5)}[pair]
    dl, dr = (np.array([x], dtype) for x in cell)
    if pair == "inexact subnormal":
        prod = (dl * dr)[0]
        assert 0 < prod < info.tiny
        assert Fraction(float(dl[0])) * Fraction(float(dr[0])) != Fraction(float(prod))
    with np.errstate(over="ignore"):
        got = vanleer(dl, dr)
        want = where_limit(dl, dr)
    assert limiter_calls == {"_limit": 1, "_limit_where": fallbacks}
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("ints", [np.int32, np.int64])
def test_numpy_shifts_by_a_negative_count_to_zero(ints):
    # The limiter's w = +inf's bits >> k with k = -1 or 0 relies on it; C
    # leaves such a shift undefined.  Long arrays take numpy's vector loops.
    inf_bits = np.array(np.inf, f"f{np.dtype(ints).itemsize}").view(ints)[()]
    assert np.right_shift(inf_bits, -1) == 0
    counts = np.resize(np.array([-1, 0], ints), 1001)
    shifted = np.right_shift(inf_bits, counts, out=counts)
    assert shifted.tolist() == [0, int(inf_bits)] * 500 + [0]


class _NumpyCensus:
    """numpy, with every call of a ufunc, of a ufunc's reduce and of copyto recorded.

    `calls` holds (name, elements of the call's output) in call order.
    """

    def __init__(self):
        self.calls = []

    def __getattr__(self, name):
        attr = getattr(np, name)
        if isinstance(attr, np.ufunc):
            return _CountedUfunc(attr, self.calls)
        if name != "copyto":
            return attr

        def copyto(dst, *args, **kwargs):
            self.calls.append((name, dst.size))
            return attr(dst, *args, **kwargs)
        return copyto

    def elements_per_cell(self, cells):
        return sum(size for _, size in self.calls) / cells


class _CountedUfunc:
    def __init__(self, ufunc, calls):
        self.ufunc, self.calls = ufunc, calls

    def __call__(self, *args, **kwargs):
        out = self.ufunc(*args, **kwargs)
        self.calls.append((self.ufunc.__name__, np.size(out)))
        return out

    def reduce(self, *args, **kwargs):
        out = self.ufunc.reduce(*args, **kwargs)
        self.calls.append((f"{self.ufunc.__name__}.reduce", np.size(out)))
        return out


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_the_limiters_main_path_is_seven_passes(monkeypatch, limiter_calls, dtype):
    slopes = np.random.default_rng(0).standard_normal((2, 4096)).astype(dtype)
    vanleer(*slopes)  # warmed
    numpy = _NumpyCensus()
    monkeypatch.setattr(fluid, "np", numpy)
    got = vanleer(*slopes)
    assert len(numpy.calls) == 7, numpy.calls
    assert numpy.elements_per_cell(4096) == 7
    assert limiter_calls["_limit_where"] == 0
    assert got.tobytes() == where_limit(*slopes).tobytes()


# The numpy census of one warmed call of each kernel at 32^3 single: a fluid
# row block and a cfl block of 384 rows (48 KiB per variable, planes 0-11), a
# magnetic chunk of the whole grid (b2's) and a forward and an inverse
# transpose slab of the whole grid, each as (calls through the census, output
# elements of those calls per cell of the call).  Every pass of these kernels
# is a call through the np of fluid, magnetic or grid, so the figures count
# every pass.  A padded array has (32 + 4) / 32 elements per cell, a ghost
# copy one per run of images and a reduction over the whole call one.  A
# change that moves a figure updates it here and says why.
_CENSUS = {"_sweep_block": (148, 319.06), "_cfl_slab": (40, 72.06), "_advect": (36, 31.0),
           "_transpose_slab": (8, 8.0), "_inverse_transpose_slab": (8, 8.0)}
_LIMITER_CALLS = {"_sweep_block": 2, "_advect": 1}


@pytest.mark.parametrize("kernel", list(_CENSUS))
def test_the_kernels_numpy_census(monkeypatch, limiter_calls, kernel):
    params = SchemeParams(precision="single")
    state = init_condition("solenoidal_random", GridShape(32, 32, 32), params, seed=0)
    u, lam, shape = state.u, 0.1, state.shape
    ws, u5, row0 = next(fluid._rows(u, 0, shape.n3))
    assert u5[0].size == 384 * 32 == 12 * shape.n2 * shape.n1
    out = state.spare.reshape(u.shape)  # a cube's transposes keep its shape
    call, cells = {
        "_sweep_block": (lambda: fluid._sweep_block(u, ws, u5, lam, params.gamma, ("",) * 3,
                                                    shape, row0), u5[0].size),
        "_cfl_slab": (lambda: fluid._cfl_slab(u, np.zeros(1), params.gamma, "", shape, 0, 0, 12),
                      u5[0].size),
        "_advect": (lambda: magnetic._advect(u[6], u[5], u[0], u[1], lam, axis=1), shape.cells),
        "_transpose_slab": (lambda: grid._transpose_slab(u, out, 1, 0, 0, shape.n3), shape.cells),
        "_inverse_transpose_slab": (lambda: grid._transpose_slab(u, out, 2, 0, 0, shape.n3),
                                    shape.cells),
    }[kernel]
    call()  # warmed
    limiter_calls["_limit"] = 0
    numpy = _NumpyCensus()
    for module in (fluid, magnetic, grid):
        monkeypatch.setattr(module, "np", numpy)
    call()
    assert limiter_calls == {"_limit": _LIMITER_CALLS.get(kernel, 0), "_limit_where": 0}
    census = (len(numpy.calls), round(numpy.elements_per_cell(cells), 2))
    assert census == _CENSUS[kernel], numpy.calls


@given(a=st.floats(0.01, 1e3), b=st.floats(0.01, 1e3), s=st.floats(0.01, 100))
def test_vanleer_scales_homogeneously(a, b, s):
    assert vanleer(s * a, s * b) == pytest.approx(s * vanleer(a, b), rel=1e-12)


# --- the sweep's interface flux and freezing speed ------------------------------

def _pencil(rho, v1, p, gamma, b=(0.0, 0.0, 0.0)):
    """One pencil as the sweep loads a block: (u5, bc), its five variables and centered field."""
    rho = np.asarray(rho, dtype=float)
    n = rho.size
    v1 = np.broadcast_to(np.asarray(v1, dtype=float), (n,))
    p = np.broadcast_to(np.asarray(p, dtype=float), (n,))
    bc = [np.full(n, bi) for bi in b]
    e = p / (gamma - 1.0) + 0.5 * rho * v1 ** 2 + 0.5 * sum(x ** 2 for x in bc)
    return np.stack([rho, rho * v1, np.zeros(n), np.zeros(n), e]), np.stack(bc)


def _block(u5, bc):
    """The sweep's workspace for the rows of u5 (5, [rows,] n), loaded with them and bc."""
    u5, bc = (a.reshape(len(a), -1, a.shape[-1]) for a in (u5, bc))
    ws = parallel.workspace(fluid._Block, u5.shape[1], u5.shape[2], u5.dtype)
    ws.u_in[...] = u5
    ws.bc_in[...] = bc
    fluid._fill_ghosts(ws.ghosts)
    fluid._field(ws)
    return ws


def _sweep_flux(u5, bc, gamma):
    """The full-step stage's fluxes; [var][i] is the flux between cells i and i + 1."""
    ws = _block(u5, bc)
    flat = np.zeros(ws.u.size)
    grid = GridShape(u5.shape[-1], 8, 8)
    flat[1:-2] = 0.5 * fluid._stage(ws, gamma, 2, "", grid, 0)  # the stage's are doubled
    return fluid._interior(flat.reshape(ws.u.shape))[:, 0]


def _freezing_speed(u5, bc, gamma):
    """Each row's freezing speed, (rows, 1); (1,) for a pencil."""
    ws = _block(u5, bc)
    rho, m = ws.u[0], ws.u[1:4]
    p = fluid._pressure(rho, m, ws.u[4], ws.pm, gamma, ws.p, ws.tmp)
    c = fluid._freezing_speed(rho, m[0] / rho, p, ws, gamma).copy()
    return c if u5.ndim == 3 else c[0]


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
    # is w+ + limiter/2 of the left cell minus w- + limiter/2 of the right one.
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
    c = _freezing_speed(np.stack([rho, m1, m2, m3, e]), np.stack(bc), g)
    assert c.shape == (8, 1)
    v1 = np.abs(m1 / rho)
    p = fluid.gas_pressure(rho, m1, m2, m3, e, *bc, g)
    assert (c >= v1 + np.sqrt(g * p / rho)).all()
    assert (c >= v1 + np.abs(bc[0]) / np.sqrt(rho)).all()


# --- fluid_sweep ---------------------------------------------------------------

def test_sweep_uniform_state_bitwise_unchanged(params):
    state = init_condition("uniform", GridShape(16, 8, 8), params,
                           rho=1.3, p=2.1, v=(0.7, -0.2, 0.4), b=(0.3, 0.1, -0.2))
    ref = copy_state(state)
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
    pert = copy_state(base)
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
    mirror = copy_state(state)
    for name in ("rho", "mom1", "mom2", "mom3", "e"):
        getattr(mirror, name)[...] = getattr(state, name)[:, :, ::-1]
    mirror.mom1[...] = -mirror.mom1
    dt = 0.25
    fluid_sweep(state, dt, params)
    fluid_sweep(mirror, dt, params)
    assert np.allclose(mirror.rho, state.rho[:, :, ::-1], rtol=1e-12, atol=1e-13)
    assert np.allclose(mirror.mom1, -state.mom1[:, :, ::-1], rtol=1e-12, atol=1e-13)
    assert np.allclose(mirror.e, state.e[:, :, ::-1], rtol=1e-12, atol=1e-13)


def _textbook_sweep(state, dt, params):
    """fluid_sweep over the whole grid, written apart from its kernels: the new u[:5].

    The scheme in its textbook form: movers w+- = (F +- c u) / 2, the Van
    Leer slope 2 dl dr / (dl + dr) by np.where, half of it added to each
    mover, a half step of lam / 2 and the textbook fast speed; neighbours by
    np.roll along the fastest axis, with no blocks, arena or pool.  Each
    value takes the operations, in the order, that the kernels document;
    the kernels differ from this form only by exact powers of two (the
    split's 1/2, the fast speed's half form), so the result is bitwise
    fluid_sweep's.  The state is not changed.
    """
    g, lam = params.gamma, dt / state.shape.dx
    b = state.u[5:]
    bc = np.stack([0.5 * (b[a] + np.roll(b[a], -1, axis=2 - a)) for a in range(3)])
    sq1 = bc[0] * bc[0]
    total = (sq1 + bc[1] * bc[1]) + bc[2] * bc[2]
    pm = 0.5 * total

    def right(x, k):  # x at the cell k places further along the axis
        return np.roll(x, -k, axis=-1)

    def full_vanleer(dl, dr):
        prod = dl * dr
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(prod > 0, 2.0 * prod / (dl + dr), prod * 0)

    def flux(u, order):  # F[i], through the interface between cells i and i + 1
        rho, m, e = u[0], u[1:4], u[4]
        v = m / rho
        p = textbook_pressure(rho, m, e, pm, g)
        c = np.max(np.abs(v[0]) + textbook_fast_speed(rho, p, sq1, total, g), axis=-1,
                   keepdims=True)
        pstar = p + pm
        f = np.stack([m[0], m[0] * v[0] + pstar - bc[0] * bc[0], m[1] * v[0] - bc[0] * bc[1],
                      m[2] * v[0] - bc[0] * bc[2],
                      (e + pstar) * v[0] - bc[0] * ((bc[0] * v[0] + bc[1] * v[1]) + bc[2] * v[2])])
        wp, wm = 0.5 * (f + c * u), 0.5 * (c * u - f)
        if order == 2:
            dp, dm = wp - right(wp, -1), wm - right(wm, 1)
            wp = wp + 0.5 * full_vanleer(dp, right(dp, 1))
            wm = wm + 0.5 * full_vanleer(dm, right(dm, -1))
        return wp - right(wm, 1)

    def change(fx):
        return fx - right(fx, -1)

    u = state.u[:5]
    half = u - (0.5 * lam) * change(flux(u, 1))
    return u - lam * change(flux(half, 2))


@settings(max_examples=60, deadline=None)
@given(dims=st.tuples(*[st.sampled_from([8, 12, 16, 20, 24])] * 3),
       precision=st.sampled_from(["single", "double"]), workers=st.sampled_from([1, 2]),
       turns=st.sampled_from([0, 1, 2]), row_blocks=st.booleans(), seed=st.integers(0, 99),
       dt=st.floats(0.01, 0.4))
def test_fluid_sweep_is_bitwise_the_textbook_sweep(dims, precision, workers, turns, row_blocks,
                                                  seed, dt):
    params = SchemeParams(precision=precision)
    with pytest.MonkeyPatch.context() as patch:
        if row_blocks:  # a block ends inside a plane, after every row
            patch.setattr(fluid, "_BLOCK_BYTES", dims[0] * params.dtype.itemsize)
        # Made under the patch, the state's new mapping re-forks the pool,
        # whose workers then read the patched block size.
        state = random_state(GridShape(*dims), params, seed=seed)
        for _ in range(turns):
            transpose(state, workers=workers)
        want = _textbook_sweep(state, dt, params)
        field = state.u[5:].tobytes()
        fluid_sweep(state, dt, params, workers)
    assert state.u[:5].tobytes() == want.tobytes()
    assert state.u[5:].tobytes() == field


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


def test_sweep_infinite_pressure_names_the_cell_of_its_signal_speed(params):
    # p = +inf passes p >= 0; the row's infinite freezing speed then turned
    # the whole row to NaN, and the half step's check named its first cell.
    state = init_condition("uniform", GridShape(16, 8, 8), params)
    state.e[3, 2, 9] = np.inf
    for call, where in ((fluid_sweep, "in the x sweep"),
                        (cfl_timestep, r"in the cfl timestep \(x fastest\)")):
        args = (state, 0.1, params) if call is fluid_sweep else (state, params)
        with pytest.raises(PositivityError, match=rf"^non-finite signal speed at cell "
                                                  rf"\(9, 2, 3\) {where}, cycle 0$"):
            with np.errstate(invalid="ignore"):
                call(*args)


def test_magnetic_entry_check_names_non_finite_density(params):
    state = init_condition("uniform", GridShape(8, 8, 8), params)
    state.rho[0, 1, 2] = np.nan
    with pytest.raises(PositivityError, match=r"non-finite density at cell \(2, 1, 0\) "
                                              r"entering the x magnetic update"):
        magnetic_sweep(state, 0.1, params)


# --- error locations in every orientation --------------------------------------
# Four of the six legs of a cycle run on a transposed grid; each check must
# still name the physical (x, y, z) cell.  The grid's axes are unequal, so a
# cell named in array order or a permutation of it cannot pass.

def _state_with_bad_cell(params, cell, axis, workers, **values):
    """Uniform 16 x 8 x 12 state with `values` at physical `cell`, turned so `axis` is fastest."""
    state = init_condition("uniform", GridShape(16, 8, 12), params)
    x, y, z = cell
    for name, value in values.items():
        getattr(state, name)[z, y, x] = value
    for _ in range("xyz".index(axis)):
        transpose(state, workers=workers)
    assert state.shape.orientation[0] == axis
    return state


# check -> (values at the cell, call, message before " at cell", message after it).
# A density bump of 2 empties its cell in the half step at dt = 4; a dip of 0.5
# survives both stages at dt = 1.5 and is emptied by the full update.
_CHECKS = {
    "cfl": ({"e": -1.0}, lambda s, p, w: cfl_timestep(s, p, workers=w),
            "negative pressure", "in the cfl timestep ({a} fastest)"),
    "first stage": ({"e": -1.0}, lambda s, p, w: fluid_sweep(s, 0.1, p, workers=w),
                    "negative pressure", "in the {a} sweep"),
    "half step": ({"rho": 2.0}, lambda s, p, w: fluid_sweep(s, 4.0, p, workers=w),
                  "non-positive density", "in the {a} sweep (half step)"),
    "after the update": ({"rho": 0.5}, lambda s, p, w: fluid_sweep(s, 1.5, p, workers=w),
                         "non-positive density", "in the {a} sweep after the fluid update"),
    "magnetic entry": ({"rho": -1.0}, lambda s, p, w: magnetic_sweep(s, 0.1, p, workers=w),
                       "non-positive density", "entering the {a} magnetic update"),
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("axis", ["x", "y", "z"])
@pytest.mark.parametrize("check", list(_CHECKS))
@pytest.mark.parametrize("cell", [(4, 3, 2), (13, 6, 9)])  # slab 0 / slab 1 of 2 on every axis
def test_every_check_names_the_physical_cell(params, cell, check, axis, workers):
    values, call, kind, where = _CHECKS[check]
    state = _state_with_bad_cell(params, cell, axis, workers, **values)
    message = f"{kind} at cell {cell} {where.format(a=axis)}, cycle 0"
    with pytest.raises(PositivityError, match=f"^{re.escape(message)}$"):
        call(state, params, workers)


@pytest.mark.parametrize("axis", ["x", "y", "z"])
def test_cfl_non_finite_signal_speed_names_the_physical_cell(axis):
    # As test_cfl_non_finite_signal_speed, on a turned grid; on 1 worker, as the
    # errstate that silences the overflow holds in this process only.
    params32 = SchemeParams(precision="single")
    state = _state_with_bad_cell(params32, (4, 3, 2), axis, 1,
                                 rho=np.float32(1e-45), mom1=1e-6, e=1e34)
    with pytest.raises(PositivityError, match=rf"^non-finite signal speed at cell \(4, 3, 2\) "
                                              rf"in the cfl timestep \({axis} fastest\), cycle 0$"):
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            cfl_timestep(state, params32)
