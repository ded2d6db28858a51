"""Advection-constraint update of the staggered field during one sweep.

For a sweep along axis 1 the induction terms with a d/dx1 in them are applied:
each transverse face field (b2, then b3) is advected along the sweep axis with
the TVD-limited upwind flux v1*b, and every edge flux is immediately applied a
second time, with opposite sign, to the two b1 faces it borders.  That
antisymmetry cancels in the divergence stencil exactly, so the face-flux
balance of every cell is preserved to roundoff.  Edge fluxes exist only one
transverse row at a time; no full-grid electromotive-force array is formed.

Rows are processed odd-first then even (staggered schedule), which makes the
neighbour writes single-writer within a pass; results are bitwise equal to a
sequential odd-then-even row loop for any worker count.
"""

from __future__ import annotations

import numpy as np

from . import fluid
from .grid import ConservedState, SchemeParams
from .parallel import parallel_for, partition


def staggered_pencil_order(n2: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Two-pass row schedule: odd rows first, then even rows."""
    if n2 % 2 != 0:
        raise ValueError(f"row count must be even for the staggered schedule, got {n2}")
    return tuple(range(1, n2, 2)), tuple(range(0, n2, 2))


def _edge_flux(b, ve, lam):
    # TVD upwind flux of the face field b through the lower-i edge of each cell,
    # second-order via Van Leer slopes with the local Courant time-centering.
    d = b - np.roll(b, 1, axis=-1)
    nu = np.abs(ve) * lam
    up = np.roll(b, 1, axis=-1) + 0.5 * (1.0 - nu) * fluid.vanleer(np.roll(d, 1, axis=-1), d)
    dn = b - 0.5 * (1.0 - nu) * fluid.vanleer(d, np.roll(d, -1, axis=-1))
    return ve * np.where(ve > 0, up, dn)


def _advect_b2_row(state, v1, lam, lo, hi, j):
    # Flux row j lives on the lower-j edges; it advects b2 row j and applies the
    # compensating pieces to b1 rows j and j-1 (periodic).
    vface = 0.5 * (v1[lo:hi, j - 1, :] + v1[lo:hi, j, :])
    ve = 0.5 * (vface + np.roll(vface, 1, axis=-1))
    phi = _edge_flux(state.b2[lo:hi, j, :], ve, lam)
    state.b2[lo:hi, j, :] -= lam * (np.roll(phi, -1, axis=-1) - phi)
    state.b1[lo:hi, j, :] -= lam * phi
    state.b1[lo:hi, j - 1, :] += lam * phi


def _advect_b3_row(state, v1, lam, k):
    vface = 0.5 * (v1[k - 1] + v1[k])
    ve = 0.5 * (vface + np.roll(vface, 1, axis=-1))
    phi = _edge_flux(state.b3[k], ve, lam)
    state.b3[k] -= lam * (np.roll(phi, -1, axis=-1) - phi)
    state.b1[k] -= lam * phi
    state.b1[k - 1] += lam * phi


def magnetic_sweep(state: ConservedState, dt: float, params: SchemeParams,
                   workers: int = 1) -> ConservedState:
    """Advance b2, b3 by advection along the fastest axis; b1 takes the constraint pieces.

    Velocities come from the already-updated fluid state of this sweep.  The b2
    sub-update completes (with a barrier) before the b3 sub-update starts; each
    runs its rows odd-first then even.
    """
    shape = state.shape
    lam = dt / shape.dx
    fluid.check_positive(state.rho, None, f"entering the {shape.orientation[0]} magnetic "
                                          f"update, cycle {state.cycle}")
    v1 = state.mom1 / state.rho
    part = partition(shape.n3, workers)

    # b2: row coupling is along the middle axis, entirely inside each slab.
    odd_j, even_j = staggered_pencil_order(shape.n2)

    def body_b2(_i, lo, hi):
        for j in odd_j:
            _advect_b2_row(state, v1, lam, lo, hi, j)
        for j in even_j:
            _advect_b2_row(state, v1, lam, lo, hi, j)

    parallel_for(part, body_b2)

    # b3: rows run along the slab axis, so the passes need a global barrier;
    # within a pass every b1 row has a single writer.
    odd_k, even_k = staggered_pencil_order(shape.n3)
    for rows in (odd_k, even_k):
        def body_b3(_i, lo, hi, rows=rows):
            for k in rows:
                if lo <= k < hi:
                    _advect_b3_row(state, v1, lam, k)

        parallel_for(part, body_b3)
    return state
