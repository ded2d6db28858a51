import os
from fractions import Fraction

import numpy as np
import pytest

from tvdmhd import ConservedState, GridShape, SchemeParams, allocate_state, face_to_center, fluid
from tvdmhd.parallel import _Pool


@pytest.fixture(scope="session", autouse=True)
def no_leaked_workers():
    """Close the worker pool at session end; fail if any child process is left."""
    yield
    _Pool.shutdown()
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no children at all
        return
    pytest.fail(f"a child process is left after the worker pool closed (reaped pid {pid})"
                if pid else "a child process is still running after the worker pool closed")


@pytest.fixture
def params():
    return SchemeParams()


def random_state(shape: GridShape, params: SchemeParams, seed=0,
                 with_b=True) -> ConservedState:
    """Random positive-pressure state; b faces random (not solenoidal)."""
    rng = np.random.default_rng(seed)
    state = allocate_state(shape, params)
    dims = shape.array_shape
    rho = 1.0 + 0.5 * rng.random(dims)
    v = 0.5 * (rng.random((3,) + dims) - 0.5)
    p = 1.0 + 0.5 * rng.random(dims)
    if with_b:
        b = 0.3 * (rng.random((3,) + dims) - 0.5)
    else:
        b = np.zeros((3,) + dims)
    state.b1[...] = b[0]
    state.b2[...] = b[1]
    state.b3[...] = b[2]
    bc1 = 0.5 * (b[0] + np.roll(b[0], -1, axis=2))
    bc2 = 0.5 * (b[1] + np.roll(b[1], -1, axis=1))
    bc3 = 0.5 * (b[2] + np.roll(b[2], -1, axis=0))
    state.rho[...] = rho
    state.mom1[...] = rho * v[0]
    state.mom2[...] = rho * v[1]
    state.mom3[...] = rho * v[2]
    state.e[...] = (p / (params.gamma - 1.0)
                    + 0.5 * rho * (v[0] ** 2 + v[1] ** 2 + v[2] ** 2)
                    + 0.5 * (bc1 ** 2 + bc2 ** 2 + bc3 ** 2))
    return state


def state_bytes(state: ConservedState) -> bytes:
    return b"".join(arr.tobytes() for _, arr in state.components())


def copy_state(state: ConservedState) -> ConservedState:
    """A new state with the shape, time, cycle and values of `state`."""
    out = ConservedState.zeros(state.shape, state.dtype, state.time, state.cycle)
    out.u[...] = state.u
    return out


def vanleer(dl, dr) -> np.ndarray:
    """The sweeps' Van Leer limiter, `fluid._limit`, on float slopes into fresh arrays.

    Half the Van Leer slope: dl dr / (dl + dr) where the slopes agree, else 0,
    of the slopes' broadcast shape and float dtype (a 0-d array for scalars).
    """
    dl, dr = np.broadcast_arrays(dl, dr)
    out, prod, work = (np.empty(dl.shape, np.result_type(dl, dr)) for _ in range(3))
    return fluid._limit(dl, dr, out, prod, work)


def where_limit(dl, dr) -> np.ndarray:
    """The limiter written with np.where: the reference of `fluid._limit`, on slopes of one shape.

    Half the Van Leer slope, dl dr / (dl + dr) where the slopes agree and
    (dl dr) * 0 elsewhere, and cell by cell where a positive product fell
    inexactly below the normal range: there the limiter takes
    small (big / (dl + dr)).
    """
    prod = dl * dr
    with np.errstate(divide="ignore", invalid="ignore", under="ignore"):
        out = np.where(prod > 0, prod / (dl + dr), prod * 0)
        for cell in zip(*np.nonzero((prod > 0) & (prod < np.finfo(prod.dtype).tiny))):
            a, b = dl[cell], dr[cell]
            if Fraction(float(a)) * Fraction(float(b)) != Fraction(float(prod[cell])):
                small, big = (a, b) if abs(a) <= abs(b) else (b, a)
                out[cell] = small * (big / (a + b))
    return out


def textbook_pressure(rho, m, e, pm, gamma):
    """p = (gamma - 1)(e - |m|^2 / (2 rho) - pm), with m the three momenta and pm = |b|^2 / 2.

    The kernels' reference: each sum and product in the order they take it.
    """
    return (gamma - 1.0) * ((e - 0.5 * ((m[0] * m[0] + m[1] * m[1]) + m[2] * m[2]) / rho) - pm)


def textbook_fast_speed(rho, p, b1sq, bsq, gamma):
    """The fast magnetosonic speed along axis 1 in its textbook form, from b1^2 and |b|^2.

    c_f^2 = [a^2 + b^2/rho + sqrt((a^2 + b^2/rho)^2 - 4 a^2 b1^2/rho)] / 2 with
    a^2 = gamma p / rho; the kernels' half form differs from it by exact powers of two.
    """
    a2 = gamma * p / rho
    tot = a2 + bsq / rho
    root = np.sqrt(np.maximum(tot * tot - 4.0 * a2 * b1sq / rho, 0))
    return np.sqrt(0.5 * (tot + root))


def signal_speeds_per_axis(state, params):
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


def cfl_per_axis(state, params):
    """The cfl dt over the whole grid from the per-axis signal speeds."""
    return params.courant * state.shape.dx / float(np.max(signal_speeds_per_axis(state, params)))


def textbook_sweep(state, dt, params):
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


def sequential_magnetic_sweep(state, dt, params):
    """magnetic_sweep as an independent row-by-row odd-then-even loop; updates `state` in place."""
    lam = dt / state.shape.dx
    v1 = state.mom1 / state.rho
    n3, n2, _ = state.shape.array_shape

    def edge_flux(b, ve):
        d = b - np.roll(b, 1, axis=-1)
        nu = np.abs(ve) * lam
        # where_limit, the limiter's np.where reference, gives half the Van Leer slope.
        up = np.roll(b, 1, axis=-1) + (1 - nu) * where_limit(np.roll(d, 1, axis=-1), d)
        dn = b - (1 - nu) * where_limit(d, np.roll(d, -1, axis=-1))
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


def textbook_cycle(state, params) -> ConservedState:
    """step_cycle of a canonical state written apart from the solver: a new state after it.

    dt from `cfl_per_axis`; then for each leg of x y z z y x, `textbook_sweep`
    and `sequential_magnetic_sweep` on a copy of the grid turned by
    np.transpose so the leg's axis is fastest, with the momenta and faces
    relabeled by the axis each lies along, and turned back.  Time advances
    2 dt and the cycle count by one.  The state is not changed.
    """
    dt = cfl_per_axis(state, params)
    u = state.u.copy()
    for axis in "xyzzyx":
        order = {"x": "xyz", "y": "yzx", "z": "zxy"}[axis]  # fastest, middle, slowest
        rows = [0, *(1 + "xyz".index(a) for a in order), 4, *(5 + "xyz".index(a) for a in order)]
        axes = [0, *(3 - "xyz".index(a) for a in order[::-1])]  # [c, z, y, x] -> [c, n3, n2, n1]
        turned = np.transpose(u[rows], axes)
        leg = ConservedState.zeros(GridShape(*turned.shape[:0:-1], dx=state.shape.dx,
                                             orientation=tuple(order)), state.dtype)
        leg.u[...] = turned
        leg.u[:5] = textbook_sweep(leg, dt, params)
        sequential_magnetic_sweep(leg, dt, params)
        u[rows] = np.transpose(leg.u, np.argsort(axes))
    out = ConservedState.zeros(state.shape, state.dtype, state.time + 2.0 * dt, state.cycle + 1)
    out.u[...] = u
    return out
