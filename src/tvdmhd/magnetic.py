"""Advection-constraint update of the staggered field during one sweep.

For a sweep along axis 1 the induction terms with a d/dx1 in them are applied:
each transverse face field (b2, then b3) is advected along the sweep axis with
the TVD-limited upwind flux v1*b, and every edge flux is applied a second
time, with opposite sign, to the two b1 faces it borders.  That antisymmetry
cancels in the divergence stencil exactly, so the face-flux balance of every
cell is preserved to roundoff.  Edge fluxes exist one chunk at a time; no
full-grid electromotive-force array is formed.

Layout.  A chunk is laid out as the fluid block is: each row along i is copied
into a row padded with ``fluid._GHOST`` periodic images at each end, and the
velocities, slopes, limiter, movers, upwind select and flux difference run
over the padded rows flattened, as 1-d shifted slices; values whose stencil
crosses a row end are never kept.  So one limiter call serves both movers,
each row's last flux difference takes the edge past its last cell like any
other, and the only wrap left is the coupling axis's (a shifted slice of whole
rows).  The workspace of a chunk of a given shape is carved once per process
and cached (`_Chunk`).

Invariant: a chunk spans the whole coupling axis (j for b2, k for b3), so the
b1 faces it writes are its own; b2 runs on k slabs and b3 on j columns, each
a view of the block with the coupling axis first.  The b1 pieces are applied
in strided parity passes, in the order of a sequential odd-rows-then-even-rows
loop, so results are bitwise equal to that loop for any worker count and
chunk size.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from . import fluid
from .grid import ConservedState, SchemeParams
from .parallel import chunks, parallel_for, partition, scratch, workspace

# Bytes per array of one chunk.  A chunk's workspace in the scratch arena is
# 6 such arrays padded by 4 cells per row (see `_Chunk`): single precision
# 0.84 / 1.59 / 1.55 MiB at 32^3 / 64^3 / 128^3, within the fluid block's
# 2.22 / 2.09 / 2.03 MiB, so the magnetic sweep does not grow the arena
# (tests/test_scratch.py pins this).
# Magnetic ms per cycle (the untraced `StepReport` section) on a 2-core host,
# single precision, solenoidal_random, 64^3 on 1 worker, cycles alternated in
# one process, median of 16, four runs on the flat padded layout;
# 256 / 128 KiB: 40.8 / 47.0, 41.8 / 46.1, 53.8 / 58.8 and 53.0 / 59.0 (the
# host's speed drifted between runs), 128 KiB faster in 3 and 4 of the 16
# cycles of the last two.  512 KiB would not fit in the arena.  In later
# alternated A/B runs in single precision, chunks of 64-512 KiB moved the
# cycle by less than its run-to-run spread.
_CHUNK_BYTES = 256 << 10


class _Chunk:
    """The workspace of one chunk of a x o rows of n cells along i: arena views.

    Made once per process for each (a, o, n, dtype) by `parallel.workspace`.
    Every row is padded to P = n + 4 along i, two periodic images at each end,
    so position s of a padded row holds cell s - 2 (mod n), and the edge at
    position s, up to n, is the lower-i edge of cell s (mod n).  The passes
    run on the rows flattened to positions q, as 1-d shifted slices; values
    whose stencil crosses a row end are garbage and never kept.
    """

    def __init__(self, a: int, o: int, n: int, dtype):
        # Six regions r0-r5 of a x o padded rows, with every region's
        # lifetimes, in order of use: v1 (r0), the face sums 2 v (r1), the
        # edge sums of those 4 ve (r2, kept to the flux); b (r0), its slopes d
        # (r1), the limited slopes (r3) with the limiter's scratch in r4, r5;
        # the time-centering factor (r1), the two movers (r4, r5), the upwind
        # mask (r3 as booleans) and 4 phi (r5); the flux difference of 4 phi (r1).
        padded = (a, o, n + 2 * fluid._GHOST)
        self.size = math.prod(padded)
        self.slab = o * padded[2]  # values per row along the coupling axis
        r = scratch(dtype, *[self.size] * 6)
        self.r = r + [r[3].view(bool)]
        r0 = r[0].reshape(padded)
        self.cells = fluid._interior(r0)  # where v1, then b, is loaded
        self.limiter = [x[:-2] for x in r[3:]]  # the limiter's output and scratch
        self.ghosts = fluid._ghost_runs(r0)
        # The edges of the flux difference (r1) and of the flux (r5), shaped as b.
        self.dphi, self.phi = (x.reshape(padded)[..., :n] for x in (r[1], r[5]))


def _edge_flux(ws: _Chunk, lam4) -> np.ndarray:
    # 4 phi, four times the TVD upwind flux of the face field b (in r0) through
    # the lower-i edge of each cell, from 4 ve in r2 and lam4 = lam / 4, with
    # Van Leer slopes and the local Courant time-centering.  With d_i = b_i -
    # b_{i-1}, the right mover takes (1 - |4 ve| lam4) VL(d_{i-1}, d_i) / 2 and
    # the left mover the same of VL(d_i, d_{i+1}): one limiter call on the
    # padded slopes, which gives VL / 2, serves both.  The upwind mask reuses r3.  Returns r5[:m].
    r0, r1, r2, _, r4, r5, mask = ws.r
    # Positions whose stencils stay inside the chunk; the last row's edge n,
    # the last one kept, is at size - 4.
    m = ws.size - 3
    d = np.subtract(r0[1:], r0[:-1], out=r1[:-1])  # at position s: d_{s-1}
    lim = fluid._limit(d[:-1], d[1:], *ws.limiter)  # at s: VL(d_{s-1}, d_s) / 2
    ve, centre = r2[:m], r1[:m]
    np.subtract(1.0, np.multiply(np.abs(ve, out=centre), lam4, out=centre), out=centre)
    up = np.multiply(centre, lim[:m], out=r4[:m])
    np.add(r0[1:m + 1], up, out=up)  # b_{s-1} + ...
    dn = np.multiply(centre, lim[1:m + 1], out=r5[:m])
    np.subtract(r0[2:m + 2], dn, out=dn)  # b_s - ...
    np.copyto(dn, up, where=np.greater(ve, 0, out=mask[:m]))
    return np.multiply(ve, dn, out=dn)


def _advect(b, b1, rho, mom1, lam):
    # Advect the face field b of one chunk (a, o, n) along i with v1 = mom1 /
    # rho.  The first axis is the coupling axis: the edge flux on row n (the
    # lower face of row n along it) is taken from b1 row n and given to b1 row
    # n - 1.  The chunk must span the whole coupling axis, whose length is
    # even.  The workspace is a _Chunk.  Velocities are kept as sums, 2 v and
    # 4 ve, so the flux is 4 phi and lam enters as lam / 4.
    # tests/test_fluid.py pins its numpy calls and output elements per cell.
    ws = workspace(_Chunk, *b.shape, b.dtype)
    r0, r1, r2 = ws.r[:3]
    s, lam4 = ws.slab, 0.25 * lam
    np.divide(mom1, rho, out=ws.cells)
    fluid._fill_ghosts(ws.ghosts)
    # 2 v on the lower coupling-axis face, from the row before it (the last for the first).
    np.add(r0[-s:], r0[:s], out=r1[:s])
    np.add(r0[:-s], r0[s:], out=r1[s:])
    np.add(r1[2:], r1[1:-1], out=r2[:-2])  # and 4 ve on the lower-i edge of that face
    np.copyto(ws.cells, b)
    fluid._fill_ghosts(ws.ghosts)
    phi = _edge_flux(ws, lam4)
    # lam (phi(i + 1) - phi(i)) off b, where phi(n) is phi(0).
    dphi = np.subtract(phi[1:], phi[:-1], out=r1[:len(phi) - 1])
    np.multiply(lam4, dphi, out=dphi)
    np.subtract(b, ws.dphi, out=b)
    np.multiply(lam4, phi, out=phi)
    f = ws.phi  # lam phi, shaped as b
    np.subtract(b1[1::2], f[1::2], out=b1[1::2])
    np.add(b1[0::2], f[1::2], out=b1[0::2])
    np.subtract(b1[0::2], f[0::2], out=b1[0::2])
    np.add(b1[1:-1:2], f[2::2], out=b1[1:-1:2])
    np.add(b1[-1], f[0], out=b1[-1])


def _b2_slab(u, lam, where, shape, _i, lo, hi):
    # Slab kernel: k planes [lo, hi), with the density checked before v1 = mom1 / rho.
    _, _, n2, n1 = u.shape
    for k0, k1 in chunks(lo, hi, n2 * n1 * u.itemsize, _CHUNK_BYTES):
        fluid.check_positive(u[0, k0:k1], None, shape, where, k0 * n2)
        c = u[:, k0:k1].swapaxes(1, 2)  # (8, j, k, i): the coupling axis j first
        _advect(c[6], c[5], c[0], c[1], lam)


def _b3_slab(u, lam, _i, lo, hi):
    # Slab kernel: j columns [lo, hi) of whole k lines.  The b2 pass has
    # checked the density of every plane.
    _, n3, _, n1 = u.shape
    for j0, j1 in chunks(lo, hi, n3 * n1 * u.itemsize, _CHUNK_BYTES):
        c = u[:, :, j0:j1]  # (8, k, j, i): the coupling axis k is first
        _advect(c[7], c[5], c[0], c[1], lam)


def magnetic_sweep(state: ConservedState, dt: float, params: SchemeParams,
                   workers: int = 1) -> ConservedState:
    """Advance b2, b3 by advection along the fastest axis; b1 takes the constraint pieces.

    Velocities come from the already-updated fluid state of this sweep.  The b2
    sub-update completes before the b3 sub-update starts.
    """
    shape = state.shape
    lam = dt / shape.dx
    where = f"entering the {shape.orientation[0]} magnetic update, cycle {state.cycle}"
    parallel_for(partition(shape.n3, workers), partial(_b2_slab, state.u, lam, where, shape))
    parallel_for(partition(shape.n2, workers), partial(_b3_slab, state.u, lam))
    return state
