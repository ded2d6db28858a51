import os
from fractions import Fraction

import numpy as np
import pytest

from tvdmhd import ConservedState, GridShape, SchemeParams, allocate_state, fluid
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
