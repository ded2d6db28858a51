import os

import numpy as np
import pytest

from tvdmhd import ConservedState, GridShape, SchemeParams, allocate_state
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
