"""Simulation state layout and global diagnostics.

State is stored structure-of-arrays: eight separate 3D numpy arrays in C
order, indexed ``[k, j, i]`` where ``i`` runs along the current
fastest-varying axis, ``j`` along the middle axis and ``k`` along the
slowest.  The face-centered magnetic field is staggered on the lower face:
``b1[k, j, i]`` is the field through the lower ``i``-face of cell
``(i, j, k)``, and analogously for ``b2`` (lower ``j``-face) and ``b3``
(lower ``k``-face).  All boundaries are periodic, the cell width ``dx`` is
uniform, and the field is in units where the magnetic pressure is ``b^2/2``.

A memory transpose reorients the grid so the next sweep direction becomes the
fastest axis; the ``orientation`` tag on :class:`GridShape` records which
physical axis currently plays each role.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator

import numpy as np

from .parallel import parallel_for, partition

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
    """SOA conserved variables plus staggered face fields; mutated in place by the solver."""

    shape: GridShape
    rho: np.ndarray
    mom1: np.ndarray
    mom2: np.ndarray
    mom3: np.ndarray
    e: np.ndarray
    b1: np.ndarray
    b2: np.ndarray
    b3: np.ndarray
    time: float = 0.0
    cycle: int = 0

    def components(self) -> Iterator[tuple[str, np.ndarray]]:
        for name in COMPONENT_NAMES:
            yield name, getattr(self, name)

    def copy(self) -> "ConservedState":
        arrays = {name: arr.copy() for name, arr in self.components()}
        return ConservedState(shape=self.shape, time=self.time, cycle=self.cycle, **arrays)

    @property
    def dtype(self) -> np.dtype:
        return self.rho.dtype


def allocate_state(shape: GridShape, params: SchemeParams) -> ConservedState:
    """Zero-initialized state in canonical (x, y, z) orientation."""
    if tuple(shape.orientation) != CANONICAL:
        shape = replace(shape, orientation=CANONICAL)
    arrays = {
        name: np.zeros(shape.array_shape, dtype=params.dtype) for name in COMPONENT_NAMES
    }
    return ConservedState(shape=shape, **arrays)


# ---------------------------------------------------------------------------
# memory transpose

# Forward: the middle axis becomes fastest; out[i, k, j] = in[k, j, i].
_FWD_AXES = (2, 0, 1)
# Inverse: the slowest axis becomes fastest; out[j, i, k] = in[k, j, i].
_INV_AXES = (1, 2, 0)


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


def transpose(state: ConservedState, inverse: bool = False, workers: int = 1) -> ConservedState:
    """Reorient the grid by one cyclic step; all eight arrays are permuted out of place.

    Forward, the previous middle axis becomes fastest-varying (three applications
    restore the input bitwise); `inverse=True` undoes one forward step.  Momentum
    and field components are relabeled with the axes so `mom1`/`b1` always refer
    to the current fastest axis.
    """
    shape = state.shape
    axes = _INV_AXES if inverse else _FWD_AXES
    if inverse:
        n1, n2, n3 = shape.n3, shape.n1, shape.n2
        f, m, s = shape.orientation
        orientation = (s, f, m)
        relabel = {"1": "3", "2": "1", "3": "2"}
    else:
        n1, n2, n3 = shape.n2, shape.n3, shape.n1
        f, m, s = shape.orientation
        orientation = (m, s, f)
        relabel = {"1": "2", "2": "3", "3": "1"}

    new_shape = GridShape(n1, n2, n3, dx=shape.dx, orientation=orientation)
    sources = {}
    for name, arr in state.components():
        if name in ("rho", "e"):
            sources[name] = arr
        else:
            sources[name] = getattr(state, name[:-1] + relabel[name[-1]])

    part = partition(new_shape.n3, workers)
    outputs = {}
    views = {}
    for name in COMPONENT_NAMES:
        views[name] = sources[name].transpose(axes)
        outputs[name] = np.empty(new_shape.array_shape, dtype=state.dtype)

    def body(_i, lo, hi):
        for name in COMPONENT_NAMES:
            _tiled_copy(views[name], outputs[name], lo, hi)

    parallel_for(part, body)

    state.shape = new_shape
    for name in COMPONENT_NAMES:
        setattr(state, name, outputs[name])
    return state


# ---------------------------------------------------------------------------
# diagnostics

def face_to_center(state: ConservedState) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cell-centered field components: mean of the two bounding faces (periodic)."""
    b1, b2, b3 = state.b1, state.b2, state.b3
    bc1 = 0.5 * (b1 + np.roll(b1, -1, axis=2))
    bc2 = 0.5 * (b2 + np.roll(b2, -1, axis=1))
    bc3 = 0.5 * (b3 + np.roll(b3, -1, axis=0))
    return bc1, bc2, bc3


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
