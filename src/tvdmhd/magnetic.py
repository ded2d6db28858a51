"""Advection-constraint update of the staggered field during one sweep.

For a sweep along axis 1 the induction terms with a d/dx1 in them are applied:
each transverse face field (b2, then b3) is advected along the sweep axis with
the TVD-limited upwind flux v1*b, and every edge flux is applied a second
time, with opposite sign, to the two b1 faces it borders.  That antisymmetry
cancels in the divergence stencil exactly, so the face-flux balance of every
cell is preserved to roundoff.  Edge fluxes exist one chunk at a time; no
full-grid electromotive-force array is formed.

Invariant: a chunk spans the whole coupling axis (j for b2, k for b3), so the
b1 faces it writes are its own; b2 runs on k slabs and b3 on j columns.  The
b1 pieces are applied in strided parity passes, in the order of a sequential
odd-rows-then-even-rows loop, so results are bitwise equal to that loop for
any worker count and chunk size.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from . import fluid
from .grid import ConservedState, SchemeParams
from .parallel import chunks, parallel_for, partition

# Bytes per array of one chunk.  Magnetic ms per cycle in traced perfbench
# runs on a 2-core host, chunks of 128 / 256 / 512 KiB: serial64_w1 73-104 /
# 77-106 / 113-134 (row loop 151-176), canon128_w2 674-747 / 464-569 /
# 440-535 (row loop 1118-1130).
_CHUNK_BYTES = 256 << 10


def _edge_flux(b, ve, lam):
    # TVD upwind flux of the face field b through the lower-i edge of each cell,
    # second-order via Van Leer slopes with the local Courant time-centering.
    b_left = np.roll(b, 1, axis=-1)
    d = b - b_left
    nu = np.abs(ve) * lam
    up = b_left + 0.5 * (1.0 - nu) * fluid.vanleer(np.roll(d, 1, axis=-1), d)
    dn = b - 0.5 * (1.0 - nu) * fluid.vanleer(d, np.roll(d, -1, axis=-1))
    return ve * np.where(ve > 0, up, dn)


def _advect(b, b1, v1, lam, axis):
    # Advect the face field b of one chunk along i; the edge flux on row n
    # (the lower face of row n along `axis`) is taken from b1 row n and given
    # to b1 row n - 1.  The chunk must span the whole of `axis`.
    b, b1, v1 = (np.moveaxis(a, axis, 0) for a in (b, b1, v1))
    vface = 0.5 * (np.roll(v1, 1, axis=0) + v1)
    ve = 0.5 * (vface + np.roll(vface, 1, axis=-1))
    phi = _edge_flux(b, ve, lam)
    b -= lam * (np.roll(phi, -1, axis=-1) - phi)
    f = lam * phi
    b1[1::2] -= f[1::2]
    b1[0::2] += f[1::2]
    b1[0::2] -= f[0::2]
    b1[1::2] += np.roll(f[0::2], -1, axis=0)


def _b2_slab(u, lam, where, _i, lo, hi):
    # Slab kernel: k planes [lo, hi), with the density checked before v1 = mom1 / rho.
    _, _, n2, n1 = u.shape
    for k0, k1 in chunks(lo, hi, n2 * n1 * u.itemsize, _CHUNK_BYTES):
        rho = u[0, k0:k1]
        fluid.check_positive(rho.reshape(-1, n1), None, where, (k0 * n2, n2))
        _advect(u[6, k0:k1], u[5, k0:k1], u[1, k0:k1] / rho, lam, axis=1)


def _b3_slab(u, lam, _i, lo, hi):
    # Slab kernel: j columns [lo, hi) of whole k lines.  The b2 pass has
    # checked the density of every plane.
    _, n3, _, n1 = u.shape
    for j0, j1 in chunks(lo, hi, n3 * n1 * u.itemsize, _CHUNK_BYTES):
        s = (slice(None), slice(j0, j1))
        _advect(u[7][s], u[5][s], u[1][s] / u[0][s], lam, axis=0)


def magnetic_sweep(state: ConservedState, dt: float, params: SchemeParams,
                   workers: int = 1) -> ConservedState:
    """Advance b2, b3 by advection along the fastest axis; b1 takes the constraint pieces.

    Velocities come from the already-updated fluid state of this sweep.  The b2
    sub-update completes before the b3 sub-update starts.
    """
    shape = state.shape
    lam = dt / shape.dx
    where = f"entering the {shape.orientation[0]} magnetic update, cycle {state.cycle}"
    parallel_for(partition(shape.n3, workers), partial(_b2_slab, state.u, lam, where))
    parallel_for(partition(shape.n2, workers), partial(_b3_slab, state.u, lam))
    return state
