"""Advection-constraint update of the staggered field during one sweep.

For a sweep along axis 1 the induction terms with a d/dx1 in them are applied:
each transverse face field (b2, then b3) is advected along the sweep axis with
the TVD-limited upwind flux v1*b, and every edge flux is applied a second
time, with opposite sign, to the two b1 faces it borders.  That antisymmetry
cancels in the divergence stencil exactly, so the face-flux balance of every
cell is preserved to roundoff.  Edge fluxes exist one chunk at a time; no
full-grid electromotive-force array is formed.  Periodic neighbours are taken
by slices: each row of b gets two lower and one upper image along i, so one
limiter call on the padded slopes serves both movers, and every wrap along i
and along the coupling axis is a separate slice operation.

Invariant: a chunk spans the whole coupling axis (j for b2, k for b3), so the
b1 faces it writes are its own; b2 runs on k slabs and b3 on j columns.  The
b1 pieces are applied in strided parity passes, in the order of a sequential
odd-rows-then-even-rows loop, so results are bitwise equal to that loop for
any worker count and chunk size.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from . import fluid
from .grid import ConservedState, SchemeParams
from .parallel import chunks, parallel_for, partition, scratch

# Bytes per array of one chunk.  A chunk's workspace in the scratch arena is
# about 6.3 such arrays (see `_advect`), 1.6 MiB at 256 KiB, which fits in the
# fluid block's 2.25 MiB, so the magnetic sweep does not grow the arena.
# Magnetic ms per cycle (the untraced `StepReport` section) on a 2-core host,
# single precision, solenoidal_random, 64^3 on 1 worker, cycles alternated in
# one process, median of 16, two runs; 256 / 128 KiB: 50.7 / 49.1 and
# 51.8 / 53.2, 128 KiB slower in 11 and 12 of the 16 cycles.  Before the
# arena, 256 and 512 KiB measured equal at 64^3 and at 128^3 on 2 workers.
_CHUNK_BYTES = 256 << 10


def _take(region: np.ndarray, *shape: int) -> np.ndarray:
    # The leading elements of a scratch region, shaped.
    return region[:math.prod(shape)].reshape(shape)


def _edge_flux(b, ve, lam, r):
    # TVD upwind flux of the face field b through the lower-i edge of each cell,
    # second-order via Van Leer slopes with the local Courant time-centering.
    # With d_i = b_i - b_{i-1}, the right mover takes VL(d_{i-1}, d_i) and the
    # left mover VL(d_i, d_{i+1}): one limiter call on d_{-1} .. d_n serves both.
    # r: the chunk's scratch regions, laid out in _advect; returns a view of r[5].
    *rows, n = b.shape
    bp = _take(r[0], *rows, n + 3)  # b_{-2} .. b_n
    bp[..., 2:-1] = b
    bp[..., :2] = b[..., -2:]
    bp[..., -1] = b[..., 0]
    d = np.subtract(bp[..., 1:], bp[..., :-1], out=_take(r[1], *rows, n + 2))
    lim, prod, zero = (_take(x, *rows, n + 1) for x in (r[3], r[4], r[5]))
    fluid._limit(d[..., :-1], d[..., 1:], lim, prod, zero, _take(r[6], *rows, n + 1),
                 prod.view(f"i{prod.itemsize}"))
    half = _take(r[1], *rows, n)
    np.multiply(0.5, np.subtract(1.0, np.multiply(np.abs(ve, out=half), lam, out=half),
                                 out=half), out=half)
    up = np.multiply(half, lim[..., :-1], out=_take(r[4], *rows, n))
    np.add(bp[..., 1:-2], up, out=up)
    dn = np.multiply(half, lim[..., 1:], out=_take(r[5], *rows, n))
    np.subtract(b, dn, out=dn)
    np.copyto(dn, up, where=np.greater(ve, 0, out=_take(r[6], *rows, n)))
    return np.multiply(ve, dn, out=dn)


def _advect(b, b1, rho, mom1, lam, axis):
    # Advect the face field b of one chunk along i with v1 = mom1 / rho; the
    # edge flux on row n (the lower face of row n along `axis`) is taken from
    # b1 row n and given to b1 row n - 1.  The chunk must span the whole of
    # `axis`, whose length is even.
    # Scratch: six regions r0-r5 of one chunk array padded by 3 cells per row,
    # and r6 of booleans, from the start of the arena; lifetimes in order of
    # use: v1 (r0), v on the face (r1), v on the edge (r2, kept to the flux);
    # b padded (r0), its slopes d (r1), the limited slopes (r3) with limiter
    # scratch in r4-r6; the time-centering factor (r1), the two movers
    # (r4, r5) and the edge flux (r5); the flux difference (r1).  Passes per
    # cell (one ufunc over one chunk array): velocities 5, edge flux 23 (the
    # limiter 10), updates of b and b1 about 6.
    b, b1, rho, mom1 = (np.moveaxis(a, axis, 0) for a in (b, b1, rho, mom1))
    padded = b.size // b.shape[-1] * (b.shape[-1] + 3)
    r = scratch(b.dtype, padded, padded, b.size, padded, padded, padded,
                -(-padded // b.itemsize))
    r[6] = r[6].view(bool)
    v1 = np.divide(mom1, rho, out=_take(r[0], *b.shape))
    vface = _take(r[1], *b.shape)  # v1 on the lower face along `axis`
    np.add(v1[-1], v1[0], out=vface[0])
    np.add(v1[:-1], v1[1:], out=vface[1:])
    vface *= 0.5
    ve = r[2].reshape(b.shape)  # and on the lower-i edge of that face
    np.add(vface[..., 0], vface[..., -1], out=ve[..., 0])
    np.add(vface[..., 1:], vface[..., :-1], out=ve[..., 1:])
    ve *= 0.5
    phi = _edge_flux(b, ve, lam, r)
    dphi = _take(r[1], *b.shape)
    np.subtract(phi[..., 1:], phi[..., :-1], out=dphi[..., :-1])
    np.subtract(phi[..., 0], phi[..., -1], out=dphi[..., -1])
    dphi *= lam
    b -= dphi
    f = np.multiply(lam, phi, out=phi)
    b1[1::2] -= f[1::2]
    b1[0::2] += f[1::2]
    b1[0::2] -= f[0::2]
    b1[1:-1:2] += f[2::2]
    b1[-1] += f[0]


def _b2_slab(u, lam, where, shape, _i, lo, hi):
    # Slab kernel: k planes [lo, hi), with the density checked before v1 = mom1 / rho.
    _, _, n2, n1 = u.shape
    for k0, k1 in chunks(lo, hi, n2 * n1 * u.itemsize, _CHUNK_BYTES):
        rho = u[0, k0:k1]
        fluid.check_positive(rho, None, shape, where, k0 * n2)
        _advect(u[6, k0:k1], u[5, k0:k1], rho, u[1, k0:k1], lam, axis=1)


def _b3_slab(u, lam, _i, lo, hi):
    # Slab kernel: j columns [lo, hi) of whole k lines.  The b2 pass has
    # checked the density of every plane.
    _, n3, _, n1 = u.shape
    for j0, j1 in chunks(lo, hi, n3 * n1 * u.itemsize, _CHUNK_BYTES):
        s = (slice(None), slice(j0, j1))
        _advect(u[7][s], u[5][s], u[0][s], u[1][s], lam, axis=0)


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
