"""Simulation state layout and global diagnostics.

State is stored structure-of-arrays in one C-order block ``u`` of shape
``(8, n3, n2, n1)``: row ``c`` is component ``COMPONENT_NAMES[c]``, a 3D
array indexed ``[k, j, i]`` where ``i`` runs along the current
fastest-varying axis, ``j`` along the middle axis and ``k`` along the
slowest.  The face-centered magnetic field is staggered on the lower face:
``b1[k, j, i]`` is the field through the lower ``i``-face of cell
``(i, j, k)``, and analogously for ``b2`` (lower ``j``-face) and ``b3``
(lower ``k``-face).  All boundaries are periodic, the cell width ``dx`` is
uniform, and the field is in units where the magnetic pressure is ``b^2/2``.

A memory transpose reorients the grid so the next sweep direction becomes the
fastest axis; the ``orientation`` tag on :class:`GridShape` records which
physical axis currently plays each role.  It writes into a spare block of the
same size and then swaps the two, so no cycle allocates state memory.  The
block and its spare are the two halves of one shared mapping, which the
worker processes of `parallel` write in place.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from typing import Iterator

import numpy as np

from .parallel import parallel_for, partition, shared_pair

ORIENTATIONS = (("x", "y", "z"), ("y", "z", "x"), ("z", "x", "y"))
CANONICAL = ORIENTATIONS[0]


@dataclass(frozen=True)
class GridShape:
    """Grid extents in the current orientation: n1 fastest .. n3 slowest."""

    n1: int
    n2: int
    n3: int
    dx: float = 1.0
    orientation: tuple[str, str, str] = CANONICAL

    def __post_init__(self):
        for n in (self.n1, self.n2, self.n3):
            if n < 8:
                raise ValueError(f"dimension {n} below minimum 8")
            if n % 4 != 0:
                raise ValueError(f"dimension {n} not a multiple of 4")
        if not self.dx > 0:
            raise ValueError(f"cell width must be positive, got {self.dx}")
        if tuple(self.orientation) not in ORIENTATIONS:
            raise ValueError(f"orientation {self.orientation} is not a cyclic permutation of (x, y, z)")

    @property
    def cells(self) -> int:
        return self.n1 * self.n2 * self.n3

    @property
    def array_shape(self) -> tuple[int, int, int]:
        return (self.n3, self.n2, self.n1)


@dataclass(frozen=True)
class SchemeParams:
    """Scheme constants: adiabatic index, CFL safety factor, float width."""

    gamma: float = 5.0 / 3.0
    courant: float = 0.9
    precision: str = "double"

    def __post_init__(self):
        if not self.gamma > 1.0:
            raise ValueError(f"gamma must exceed 1, got {self.gamma}")
        if not 0.0 < self.courant <= 1.0:
            raise ValueError(f"courant must lie in (0, 1], got {self.courant}")
        if self.precision not in ("single", "double"):
            raise ValueError(f"precision must be 'single' or 'double', got {self.precision!r}")

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(np.float32 if self.precision == "single" else np.float64)


COMPONENT_NAMES = ("rho", "mom1", "mom2", "mom3", "e", "b1", "b2", "b3")


@dataclass
class ConservedState:
    """Conserved variables and staggered face fields as the rows of one block `u`.

    The named components are views of `u`, in COMPONENT_NAMES order; the solver
    mutates them in place.  `spare` is the block transposes write into (and
    `cfl_timestep` its scratch), so a view taken before a transpose lies in
    `spare` after it and is overwritten by the next transpose.  States are
    made by `zeros` (through `allocate_state`, `copy` and `read_snapshot`),
    which places `u` and `spare` in one shared mapping.
    """

    shape: GridShape
    u: np.ndarray
    time: float = 0.0
    cycle: int = 0
    spare: np.ndarray = field(init=False, repr=False, compare=False)

    rho = property(lambda self: self.u[0])
    mom1 = property(lambda self: self.u[1])
    mom2 = property(lambda self: self.u[2])
    mom3 = property(lambda self: self.u[3])
    e = property(lambda self: self.u[4])
    b1 = property(lambda self: self.u[5])
    b2 = property(lambda self: self.u[6])
    b3 = property(lambda self: self.u[7])

    def components(self) -> Iterator[tuple[str, np.ndarray]]:
        return zip(COMPONENT_NAMES, self.u)

    @classmethod
    def zeros(cls, shape: GridShape, dtype, time: float = 0.0,
              cycle: int = 0) -> "ConservedState":
        """Zeroed state in `shape`'s orientation, with `u` and `spare` in one shared mapping."""
        u, spare = shared_pair((len(COMPONENT_NAMES),) + shape.array_shape, dtype)
        state = cls(shape, u, time, cycle)
        state.spare = spare
        return state

    def copy(self) -> "ConservedState":
        out = ConservedState.zeros(self.shape, self.dtype, self.time, self.cycle)
        out.u[...] = self.u
        return out

    @property
    def dtype(self) -> np.dtype:
        return self.u.dtype


def allocate_state(shape: GridShape, params: SchemeParams) -> ConservedState:
    """Zero-initialized state in canonical (x, y, z) orientation."""
    if tuple(shape.orientation) != CANONICAL:
        shape = replace(shape, orientation=CANONICAL)
    return ConservedState.zeros(shape, params.dtype)


# ---------------------------------------------------------------------------
# memory transpose

# Forward: the middle axis becomes fastest; out[i, k, j] = in[k, j, i].
_FWD_AXES = (2, 0, 1)
# Inverse: the slowest axis becomes fastest; out[j, i, k] = in[k, j, i].
_INV_AXES = (1, 2, 0)
# Source row of each output row: momenta and face fields are relabeled with
# their axes, so component 1 always lies along the fastest axis.
_FWD_SOURCES = (0, 2, 3, 1, 4, 6, 7, 5)
_INV_SOURCES = (0, 3, 1, 2, 4, 7, 5, 6)


# Edge of the cubic blocks a transpose copies.  Per-call ms of one transpose
# of all eight single-precision arrays on a 2-core host, tiles 8/16/32/64:
# 64^3 1 worker 11.6/5.5/4.4/3.9; 128^3 1 worker 98/80/55/118, 2 workers
# 190/46/32/61.
_TILE = 32


def _tiled_copy(view: np.ndarray, out: np.ndarray, lo: int, hi: int) -> None:
    # Copy output rows [lo, hi) in _TILE^3 blocks (clipped at slab edges).
    _, s1, s2 = out.shape
    for a in range(_TILE * (lo // _TILE), hi, _TILE):
        rows = slice(max(a, lo), min(a + _TILE, hi))
        for b in range(0, s1, _TILE):
            for c in range(0, s2, _TILE):
                out[rows, b:b + _TILE, c:c + _TILE] = view[rows, b:b + _TILE, c:c + _TILE]


def _transpose_slab(u, out, axes, sources, _i, lo, hi):
    # Slab kernel: output planes [lo, hi) of every component.
    for c, dst in zip(sources, out):
        _tiled_copy(u[c].transpose(axes), dst, lo, hi)


def transpose(state: ConservedState, inverse: bool = False, workers: int = 1) -> ConservedState:
    """Reorient the grid by one cyclic step, copying the block into the spare and swapping.

    Forward, the previous middle axis becomes fastest-varying (three applications
    restore the input bitwise); `inverse=True` undoes one forward step.  Momentum
    and field components are relabeled with the axes so `mom1`/`b1` always refer
    to the current fastest axis.
    """
    shape = state.shape
    f, m, s = shape.orientation
    if inverse:
        n1, n2, n3, orientation = shape.n3, shape.n1, shape.n2, (s, f, m)
        axes, sources = _INV_AXES, _INV_SOURCES
    else:
        n1, n2, n3, orientation = shape.n2, shape.n3, shape.n1, (m, s, f)
        axes, sources = _FWD_AXES, _FWD_SOURCES
    new_shape = GridShape(n1, n2, n3, dx=shape.dx, orientation=orientation)

    out = state.spare.reshape((len(sources),) + new_shape.array_shape, copy=False)
    parallel_for(partition(new_shape.n3, workers),
                 partial(_transpose_slab, state.u, out, axes, sources))

    state.shape, state.u, state.spare = new_shape, out, state.u
    return state


# ---------------------------------------------------------------------------
# diagnostics

def face_to_center(state: ConservedState) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cell-centered field components: mean of the two bounding faces (periodic)."""
    n3, n2, n1 = state.shape.array_shape
    return tuple(bc.reshape(n3, n2, n1) for bc in row_centers(state.u, 0, n3 * n2))


def row_centers(u: np.ndarray, g0: int, g1: int) -> np.ndarray:
    """Cell-centered field of the rows [g0, g1) of the state block `u`, stacked (3, rows, n1).

    Row g is the pencil (k, j) = divmod(g, n2).  Each value is the same
    operation on the same two faces as over the whole grid, so a block of
    rows gives bitwise the values of the whole-grid field.
    """
    _, n3, n2, n1 = u.shape
    b1, b2, b3 = (u[c].reshape(-1, n1) for c in (5, 6, 7))
    k, j = np.divmod(np.arange(g0, g1), n2)
    out = np.empty((3, g1 - g0, n1), dtype=u.dtype)
    np.multiply(0.5, b1[g0:g1] + np.roll(b1[g0:g1], -1, axis=1), out=out[0])
    np.multiply(0.5, b2[g0:g1] + b2[k * n2 + (j + 1) % n2], out=out[1])
    np.multiply(0.5, b3[g0:g1] + b3[(k + 1) % n3 * n2 + j], out=out[2])
    return out


def discrete_divergence(state: ConservedState) -> np.ndarray:
    """Per-cell face-flux balance [b1(i+1)-b1(i) + b2(j+1)-b2(j) + b3(k+1)-b3(k)] / dx."""
    b1, b2, b3 = state.b1, state.b2, state.b3
    div = (np.roll(b1, -1, axis=2) - b1) \
        + (np.roll(b2, -1, axis=1) - b2) \
        + (np.roll(b3, -1, axis=0) - b3)
    return div / state.shape.dx


def _canonical_view(state: ConservedState, arr: np.ndarray) -> np.ndarray:
    # Reorder axes so the view is indexed [z, y, x] regardless of orientation.
    f, m, s = state.shape.orientation
    axis_of = {s: 0, m: 1, f: 2}
    return arr.transpose(axis_of["z"], axis_of["y"], axis_of["x"])


def _fold(view: np.ndarray) -> float:
    # Deterministic left-to-right float64 accumulation over canonical C order.
    flat = np.ascontiguousarray(view).ravel()
    return float(np.cumsum(flat, dtype=np.float64)[-1])


def totals(state: ConservedState) -> tuple[float, tuple[float, float, float], float]:
    """(mass, momentum per physical axis, energy), integrated with dx^3 weights.

    The reduction runs in a fixed order over the canonical cell ordering, so the
    result is bitwise identical for any orientation or worker count.
    """
    dv = float(state.shape.dx) ** 3
    mass = _fold(_canonical_view(state, state.rho)) * dv
    energy = _fold(_canonical_view(state, state.e)) * dv
    moms = (state.mom1, state.mom2, state.mom3)
    by_axis = []
    for phys in ("x", "y", "z"):
        idx = state.shape.orientation.index(phys)
        by_axis.append(_fold(_canonical_view(state, moms[idx])) * dv)
    return mass, tuple(by_axis), energy
