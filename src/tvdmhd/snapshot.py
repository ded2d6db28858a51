"""Binary snapshots and 2D slice export.

Snapshot layout (all little-endian):

    offset  size  field
    0       8     magic  b"TVDMHD01"
    8       4     u32    format version (currently 1)
    12      12    3xu32  n1, n2, n3 (current orientation extents)
    24      1     u8     orientation code (0 xyz, 1 yzx, 2 zxy)
    25      1     u8     bytes per real (4 or 8)
    26      6     --     padding
    32      8     f64    cell width dx
    40      8     f64    simulation time
    48      8     i64    cycle index
    56      ...          8 raw component arrays, fastest-axis-major, in the
                         fixed order rho, mom1..3, e, b1..3

Snapshots round-trip bitwise.  Reading a format version other than 1, a
non-finite time or a negative cycle fails cleanly before any allocation, as
does a file whose length is not exactly header plus payload.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from . import fluid
from .grid import (COMPONENT_NAMES, ORIENTATIONS, ConservedState, GridShape,
                   face_to_center)

MAGIC = b"TVDMHD01"
VERSION = 1
_HEADER = struct.Struct("<8sIIIIBB6xddq")


class SnapshotError(ValueError):
    """Malformed snapshot file."""


def write_snapshot(state: ConservedState, path: str | Path) -> None:
    """Write header plus the eight raw component arrays to a temporary file beside
    `path`, then rename it onto `path`: a failed write leaves the old snapshot."""
    shape = state.shape
    orient = ORIENTATIONS.index(tuple(shape.orientation))
    width = state.dtype.itemsize
    header = _HEADER.pack(MAGIC, VERSION, shape.n1, shape.n2, shape.n3,
                          orient, width, shape.dx, state.time, state.cycle)
    block = np.ascontiguousarray(state.u, dtype=state.dtype.newbyteorder("<"))
    tmp = Path(f"{path}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(header)
            fh.write(block)
        tmp.replace(path)
    finally:
        tmp.unlink(missing_ok=True)


def read_snapshot(path: str | Path) -> ConservedState:
    """Read a snapshot back into a state; validates header and payload length."""
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size or head[:8] != MAGIC:
            raise SnapshotError(f"{path}: not a snapshot file")
        _, version, n1, n2, n3, orient, width, dx, time_, cycle = _HEADER.unpack(head)
        if not 1 <= version <= VERSION:
            raise SnapshotError(f"{path}: unsupported snapshot version {version}")
        if orient >= len(ORIENTATIONS) or width not in (4, 8):
            raise SnapshotError(f"{path}: corrupt header")
        if not math.isfinite(time_):
            raise SnapshotError(f"{path}: non-finite time {time_}")
        if cycle < 0:
            raise SnapshotError(f"{path}: negative cycle {cycle}")
        try:
            shape = GridShape(n1, n2, n3, dx=dx, orientation=ORIENTATIONS[orient])
        except ValueError as exc:
            raise SnapshotError(f"{path}: shape mismatch: {exc}") from exc

        dtype = np.dtype(np.float32 if width == 4 else np.float64).newbyteorder("<")
        state = ConservedState.zeros(shape, dtype, time_, cycle)
        got = fh.readinto(state.u)
        if got < state.u.nbytes:
            name = COMPONENT_NAMES[got // (shape.cells * width)]
            raise SnapshotError(f"{path}: truncated payload at component {name}")
        if fh.read(1):
            raise SnapshotError(f"{path}: bytes past the end of the payload")
    return state


def slice_export(state: ConservedState, plane: tuple[str, int], path: str | Path,
                 gamma: float = 5.0 / 3.0) -> None:
    """Write one grid plane as a TSV table: indices, entropy p/rho^gamma, in-plane field.

    `plane` is (axis, index) with the axis named by its physical label in the
    current orientation; the field columns are the cell-centered components
    along the two in-plane axes, fastest first.
    """
    axis, index = plane
    shape = state.shape
    if axis not in shape.orientation:
        raise ValueError(f"unknown plane axis {axis!r}")
    array_axis = shape.array_axis(axis)
    n = shape.array_shape[array_axis]
    if not 0 <= index < n:
        raise ValueError(f"plane index {index} out of range [0, {n})")

    bc = face_to_center(state)
    p = fluid.gas_pressure(state.rho, state.mom1, state.mom2, state.mom3,
                           state.e, *bc, gamma)
    entropy = p / state.rho ** gamma

    take = [slice(None)] * 3
    take[array_axis] = index
    take = tuple(take)
    # The in-plane field components, fastest first: bc[r] lies along orientation[r].
    names, values = zip(*[(f"b_{a}", b[take]) for a, b in zip(shape.orientation, bc)
                          if a != axis])
    plane_2d = entropy[take]

    rows, cols = plane_2d.shape
    with open(path, "w") as fh:
        fh.write("# i\tj\tentropy\t" + "\t".join(names) + "\n")
        for a in range(rows):
            for b in range(cols):
                fh.write(f"{b}\t{a}\t{plane_2d[a, b]:.17g}\t"
                         f"{values[0][a, b]:.17g}\t{values[1][a, b]:.17g}\n")
