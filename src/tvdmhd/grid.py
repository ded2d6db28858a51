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
physical axis currently plays each role.  Forward it moves the fastest axis
to the slowest end, inverse the two fastest, so each component, viewed as the
C-order matrix ``(n3 n2, n1)`` or ``(n3, n2 n1)``, is transposed.  It writes
into a spare block of the same size and then swaps the two, so no cycle
allocates state memory.  The block and its spare are the two halves of one
shared mapping, which the worker processes of `parallel` write in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Iterator

import numpy as np

from .parallel import parallel_for, partition, shared_pair

CANONICAL = ("x", "y", "z")
# The orientations k forward transposes reach: CANONICAL rolled by k.
ORIENTATIONS = tuple(CANONICAL[k:] + CANONICAL[:k] for k in range(3))


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
        if not 0 < self.dx < math.inf:
            raise ValueError(f"cell width must be positive and finite, got {self.dx}")
        if tuple(self.orientation) not in ORIENTATIONS:
            raise ValueError(f"orientation {self.orientation} is not a cyclic permutation of (x, y, z)")

    @property
    def cells(self) -> int:
        return self.n1 * self.n2 * self.n3

    @property
    def array_shape(self) -> tuple[int, int, int]:
        return (self.n3, self.n2, self.n1)

    def array_axis(self, axis: str) -> int:
        """Index into `array_shape` of the axis that holds physical `axis` ('x', 'y' or 'z')."""
        return 2 - self.orientation.index(axis)

    def cell(self, row: int, i: int) -> tuple[int, int, int]:
        """Physical (x, y, z) of position `i` along state row `row` = k * n2 + j."""
        index = divmod(row, self.n2) + (i,)
        return tuple(index[self.array_axis(axis)] for axis in CANONICAL)


@dataclass(frozen=True)
class SchemeParams:
    """Scheme constants: adiabatic index, CFL safety factor, float width."""

    gamma: float = 5.0 / 3.0
    courant: float = 0.9
    precision: str = "double"

    def __post_init__(self):
        if not 1.0 < self.gamma < math.inf:
            raise ValueError(f"gamma must be finite and exceed 1, got {self.gamma}")
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
    `cfl_timestep` its scratch, and `init_condition` the scratch of the start
    state), so a view taken before a transpose lies in `spare` after it and
    is overwritten by the next transpose.  States are made by `zeros`
    (through `allocate_state` and `read_snapshot`), which places `u` and
    `spare` in one shared mapping.
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

    @property
    def dtype(self) -> np.dtype:
        return self.u.dtype


def allocate_state(shape: GridShape, params: SchemeParams) -> ConservedState:
    """Zeroed state of a canonical (x, y, z) shape; another orientation raises ValueError."""
    if tuple(shape.orientation) != CANONICAL:
        raise ValueError(f"allocate_state requires canonical orientation, got {shape.orientation}")
    return ConservedState.zeros(shape, params.dtype)


# ---------------------------------------------------------------------------
# memory transpose

# Source row of each output row, for a cyclic shift by k: momenta and face
# fields are relabeled with their axes, so component 1 always lies along the
# fastest axis; new component j of each comes from old component (j + k) % 3.
_SOURCES = {k: (0, *(1 + (j + k) % 3 for j in range(3)), 4, *(5 + (j + k) % 3 for j in range(3)))
            for k in (1, 2)}


# A transpose tile is _TILE along the matrix's short side and _TILE**2 along
# its long side, so each copy moves _TILE**3 elements, and as a step along the
# short side strides a whole long row, only _TILE long rows are in flight.
# Median ms of one cold-cache transpose of all eight single-precision arrays,
# forward / inverse, 1 worker on a 2-vCPU Xeon, 11 rounds, by (short x long)
# tile sides: 128^3 32x1024 36 / 36, 16x2048 42 / 35, 64x512 37 / 105,
# 1024x32 66 / 144, 3-D 32^3 cubes 56 / 44; 64^3 32x1024 3.6 / 2.8, 16x2048
# 3.6 / 3.0, cubes 3.9 / 2.8.
_TILE = 32


def _transpose_slab(u, out, k, _i, lo, hi):
    # Slab kernel: output planes [lo, hi) of every component, q rows each of
    # the (cols, rows) transpose of the source matrix (rows, cols), which is
    # (n3 n2, n1) for k = 1 and (n3, n2 n1) for k = 2.
    rows = math.prod(u.shape[1:4 - k])
    cols = u[0].size // rows
    q = cols // len(out[0])
    t0, t1 = (_TILE, _TILE ** 2) if cols <= rows else (_TILE ** 2, _TILE)
    for dst, c in zip(out, _SOURCES[k]):
        src, dst = u[c].reshape(rows, cols).T, dst.reshape(cols, rows, copy=False)
        for a in range(lo * q, hi * q, t0):
            tile = slice(a, min(a + t0, hi * q))
            for b in range(0, rows, t1):
                np.copyto(dst[tile, b:b + t1], src[tile, b:b + t1])


def transpose(state: ConservedState, inverse: bool = False, workers: int = 1) -> ConservedState:
    """Reorient the grid by one cyclic step, copying the block into the spare and swapping.

    Forward, the previous middle axis becomes fastest-varying (three applications
    restore the input bitwise); `inverse=True` undoes one forward step.  The
    extents and orientation roll by k = 1 forward, 2 inverse.  Momentum and
    field components are relabeled with the axes so `mom1`/`b1` always refer
    to the current fastest axis.
    """
    shape = state.shape
    k = 2 if inverse else 1
    extents, orientation = (shape.n1, shape.n2, shape.n3), tuple(shape.orientation)
    new_shape = GridShape(*extents[k:], *extents[:k], dx=shape.dx,
                          orientation=orientation[k:] + orientation[:k])

    out = state.spare.reshape((len(COMPONENT_NAMES),) + new_shape.array_shape, copy=False)
    parallel_for(partition(new_shape.n3, workers), partial(_transpose_slab, state.u, out, k))

    state.shape, state.u, state.spare = new_shape, out, state.u
    return state


# ---------------------------------------------------------------------------
# diagnostics

def face_to_center(state: ConservedState) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cell-centered field components: mean of the two bounding faces (periodic)."""
    n3, n2, n1 = state.shape.array_shape
    out = np.empty((3, n3 * n2, n1), dtype=state.dtype)
    row_centers(state.u, 0, n3 * n2, out)
    return tuple(bc.reshape(n3, n2, n1) for bc in out)


def row_centers(u: np.ndarray, g0: int, g1: int, out: np.ndarray) -> None:
    """Write the cell-centered field of the rows [g0, g1) of the state block `u` into `out`.

    `out` is C-contiguous (3, g1 - g0, n1), and row g is the pencil
    (k, j) = divmod(g, n2).  The upper b2 face of a row is the lower face of
    the next row of its plane, which for the plane's last row is its first
    row; the upper b3 face is the lower face of the same row one plane on,
    which for the last plane is plane 0.  Each value is the same operation on
    the same two faces as over the whole grid, so a block of rows gives
    bitwise the values of the whole-grid field.
    """
    _, n3, n2, n1 = u.shape
    rows = n3 * n2
    b1, b2, b3 = (u[c].reshape(rows, n1) for c in (5, 6, 7))
    c1, c2, c3 = out
    # b1: the rows as one flat run, then each row's last cell again from its
    # first (the flat pass took the next row's).
    run = b1.reshape(-1)[g0 * n1:g1 * n1]
    np.add(run[:-1], run[1:], out=c1.reshape(-1, copy=False)[:-1])
    np.add(b1[g0:g1, -1], b1[g0:g1, 0], out=c1[:, -1])
    # b2: from the next row, then once more for each plane's last row (the
    # local rows w, w + n2, ...) from the plane's first row.
    top = min(g1, rows - 1)
    if g0 < top:
        np.add(b2[g0:top], b2[g0 + 1:top + 1], out=c2[:top - g0])
    w = (n2 - 1 - g0) % n2
    if g0 + w < g1:
        np.add(b2[g0 + w:g1:n2], b2[g0 + w + 1 - n2:max(g1 + 1 - n2, 0):n2], out=c2[w::n2])
    # b3: from the row n2 on; the rows of the last plane from plane 0.
    mid = min(max(g0, rows - n2), g1)
    if g0 < mid:
        np.add(b3[g0:mid], b3[g0 + n2:mid + n2], out=c3[:mid - g0])
    if mid < g1:
        np.add(b3[mid:g1], b3[mid + n2 - rows:g1 + n2 - rows], out=c3[mid - g0:])
    np.multiply(out, 0.5, out=out)


def discrete_divergence(state: ConservedState) -> np.ndarray:
    """Per-cell face-flux balance [b1(i+1)-b1(i) + b2(j+1)-b2(j) + b3(k+1)-b3(k)] / dx."""
    b1, b2, b3 = state.b1, state.b2, state.b3
    div = (np.roll(b1, -1, axis=2) - b1) \
        + (np.roll(b2, -1, axis=1) - b2) \
        + (np.roll(b3, -1, axis=0) - b3)
    return div / state.shape.dx


def totals(state: ConservedState) -> tuple[float, tuple[float, float, float], float]:
    """(mass, (x, y, z) momentum, energy) of a canonical state, with dx^3 weights.

    Any other orientation raises ``ValueError``.  Each quantity is summed in
    float64 one z plane at a time, then the plane sums are added in plane order.
    """
    shape = state.shape
    if tuple(shape.orientation) != CANONICAL:
        raise ValueError(f"totals require canonical orientation, got {shape.orientation}")
    planes = np.add.reduce(state.u[:5].reshape(5, shape.n3, -1), axis=2, dtype=np.float64)
    dv = float(shape.dx) ** 3
    mass, mx, my, mz, energy = (float(q) * dv for q in np.cumsum(planes, axis=1)[:, -1])
    return mass, (mx, my, mz), energy
