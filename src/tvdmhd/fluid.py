"""One-dimensional relaxing-TVD update of the five fluid variables.

Each sweep advances (rho, mom1..3, e) along the current fastest axis with the
face field frozen.  The flux for every variable u with physical flux F is
split into a right mover w+ = (F + c u)/2 and a left mover w- = (c u - F)/2,
where the freezing speed c bounds every signal speed on the pencil; the
interface flux is the upwind mover difference, with a Van Leer limited
second-order correction.  Time integration is a midpoint pair: a half step
with first-order fluxes produces the state the limited full-step fluxes are
evaluated on.

The freezing speed is taken uniform along each pencil (the maximum of
|v1| + c_fast over the line, re-evaluated each stage).  A per-cell speed
would contaminate the energy split on contact data and break the exact
reduction of uniform-velocity advection to a scalar TVD scheme.

Blocking.  A slab is viewed as rows (pencils) over its flattened (k, j) axis,
and both stages and the update run on one block of rows before the next
starts, so each temporary is a block, not a slab: it is reused from cache and
from the heap instead of streaming through memory and fresh pages (see
``_BLOCK_BYTES`` for the measured size).  The five variables of a block are
stacked in one array, and every row is copied once with ``_GHOST`` periodic
images at each end; the stencil then runs on the flattened stack with shifted
slices rather than rolled copies, and values computed across row ends are
never kept.  Every kept value comes from the same operations on the same
operands as an unblocked evaluation, so results are bitwise independent of the
block size and the worker count.
"""

from __future__ import annotations

import math
from functools import partial
from typing import NamedTuple

import numpy as np

# face_to_center is not called here; it stays bound for perfbench's tracer,
# which rebinds fluid.face_to_center.
from .grid import ConservedState, SchemeParams, face_to_center, row_centers  # noqa: F401
from .parallel import chunks, parallel_for, partition

# Bytes per variable of one row block.  A block's peak live set is about 90
# such arrays (the five-variable stacks count five times), so this bounds the
# memory a block churns through.  Measured with perfbench on a 2-core host
# (2 MiB L2 per core, single precision), 64^3, 1 worker: in alternating
# traced runs the fluid sweep took 290 and 327 ms per cycle at 48 KiB, 360
# and 416 ms at 64 KiB.  Larger blocks leave L2 and make glibc trim and
# re-fault the heap between blocks (2k-35k page faults per cycle at 64 KiB,
# depending on the heap layout).
_BLOCK_BYTES = 48 << 10
# Periodic images at each end of a padded row: the stencil of a flux
# difference reaches two cells to either side.
_GHOST = 2


class PositivityError(ValueError):
    """The state left the physical range (rho <= 0, p < 0 or non-finite); names the cell."""


def _cell(flat: int, shape: tuple, origin: tuple[int, int] | None) -> tuple:
    # Index of C-order position `flat`.  Grid arrays (3D, or 2D block rows with
    # origin = (global row of the block's first row, n2)) give (i, j, k).
    if len(shape) == 3:
        origin, shape = (0, shape[1]), (shape[0] * shape[1], shape[2])
    idx = tuple(int(v) for v in np.unravel_index(flat, shape))
    if origin is None:
        return idx
    k, j = divmod(origin[0] + idx[0], origin[1])
    return (idx[1], j, k)


def check_positive(rho: np.ndarray, p: np.ndarray | None, where: str = "",
                   origin: tuple[int, int] | None = None) -> None:
    """Raise PositivityError at the first cell with rho <= 0 or p < 0; NaN fails both.

    `p` may be None to check the density alone.  `origin` locates a (rows, n1)
    block: row r is (k, j) = divmod(origin[0] + r, origin[1]).
    """
    checks = [(rho > 0, rho, "density", "non-positive")]
    if p is not None:
        checks.append((p >= 0, p, "pressure", "negative"))
    for ok, arr, name, kind in checks:
        if not ok.all():
            flat = int(np.argmin(ok))
            if not np.isfinite(arr.flat[flat]):
                kind = "non-finite"
            suffix = f" {where}" if where else ""
            raise PositivityError(f"{kind} {name} at cell {_cell(flat, ok.shape, origin)}{suffix}")


def _pressure(rho, m, e, pm, gamma):
    # m: the three momenta; pm: the magnetic pressure.
    kinetic = 0.5 * (m[0] * m[0] + m[1] * m[1] + m[2] * m[2]) / rho
    return (gamma - 1.0) * (e - kinetic - pm)


def gas_pressure(rho, mom1, mom2, mom3, e, bc1, bc2, bc3, gamma):
    """p = (gamma - 1)(e - kinetic - magnetic), with cell-centered field values."""
    pm = 0.5 * (bc1 * bc1 + bc2 * bc2 + bc3 * bc3)
    return _pressure(rho, (mom1, mom2, mom3), e, pm, gamma)


def _harmonic(dl, dr):
    prod = dl * dr
    # Only cells with prod > 0 keep the mean, and there dl + dr != 0.
    with np.errstate(divide="ignore", invalid="ignore"):
        mean = 2.0 * prod / (dl + dr)
    return prod, np.where(prod > 0, mean, prod * 0)


def vanleer(dl, dr):
    """Harmonic-mean slope limiter: 2 dl dr / (dl + dr) when the slopes agree, else 0."""
    dl = np.asarray(dl)
    dr = np.asarray(dr)
    try:
        with np.errstate(under="raise"):
            _, out = _harmonic(dl, dr)
    except FloatingPointError:
        # Some dl dr fell below the normal range, where a product keeps only a
        # few digits; there 2 small (big / (dl + dr)) forms no tiny product.
        with np.errstate(under="ignore"):
            prod, out = _harmonic(dl, dr)
            dl, dr = np.broadcast_arrays(dl, dr)
            fix = (prod > 0) & (prod < np.finfo(out.dtype).tiny)
            a, b = dl[fix], dr[fix]
            a_small = np.abs(a) <= np.abs(b)
            out[fix] = 2.0 * np.where(a_small, a, b) * (np.where(a_small, b, a) / (a + b))
    return out[()] if out.ndim == 0 else out


def _fast_speed(rho, p, b1sq, bsq, gamma):
    # Fast magnetosonic speed along the axis, with a^2 = gamma p / rho:
    # c_f^2 = [a^2 + b^2/rho + sqrt((a^2 + b^2/rho)^2 - 4 a^2 b1^2/rho)] / 2.
    # Unchecked: callers have already checked rho and p.  b1sq = b1^2 along
    # the axis, bsq = b1^2 + b2^2 + b3^2 summed in that order.
    a2 = gamma * p / rho
    tot = a2 + bsq / rho
    disc = tot * tot - 4.0 * a2 * b1sq / rho
    return np.sqrt(0.5 * (tot + np.sqrt(np.maximum(disc, 0))))


def _rows(arr: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Planes [lo, hi) of a grid array as a (rows, n1) view (never a copy)."""
    if not arr.flags.c_contiguous:
        raise ValueError("state arrays must be C-contiguous")
    return arr[lo:hi].reshape(-1, arr.shape[-1])


def _cfl_slab(u, maxima, gamma, where, i, lo, hi):
    # Slab kernel: maxima[i] = the largest |v| + c_fast over planes [lo, hi) and
    # all axes.  It has the state's dtype, as does every speed, so it is exact.
    _, _, n2, n1 = u.shape
    rows = [_rows(a, lo, hi) for a in u[:5]]
    speed = 0.0
    for r0, r1 in chunks(0, (hi - lo) * n2, n1 * u.itemsize, _BLOCK_BYTES):
        rho, m1, m2, m3, e = (a[r0:r1] for a in rows)
        origin = (lo * n2 + r0, n2)
        b1, b2, b3 = row_centers(u, origin[0], origin[0] + r1 - r0)
        p = gas_pressure(rho, m1, m2, m3, e, b1, b2, b3, gamma)
        check_positive(rho, p, where, origin)
        for m, b_along, b_t1, b_t2 in ((m1, b1, b2, b3), (m2, b2, b3, b1),
                                       (m3, b3, b1, b2)):
            sq = b_along ** 2
            cf = _fast_speed(rho, p, sq, sq + b_t1 ** 2 + b_t2 ** 2, gamma)
            sig = np.abs(m / rho) + cf
            top = float(np.max(sig))
            if not top < math.inf:
                cell = _cell(int(np.argmin(np.isfinite(sig))), sig.shape, origin)
                raise PositivityError(f"non-finite signal speed at cell {cell} {where}")
            speed = max(speed, top)
    maxima[i] = speed


def cfl_timestep(state: ConservedState, params: SchemeParams, workers: int = 1) -> float:
    """Largest stable dt: courant * dx / max over cells and axes of |v| + c_fast.

    Raises PositivityError on a non-positive or non-finite state.  The slab
    maxima are kept in the spare block, which holds nothing between transposes.
    """
    where = (f"in the cfl timestep ({state.shape.orientation[0]} fastest), "
             f"cycle {state.cycle}")
    part = partition(state.shape.n3, workers)
    maxima = state.spare.reshape(-1)[:len(part)]
    parallel_for(part, partial(_cfl_slab, state.u, maxima, params.gamma, where))
    speed = float(maxima.max())
    if speed == 0.0:
        raise ValueError("static state: dt unbounded")
    return params.courant * state.shape.dx / speed


def _padded(lines) -> np.ndarray:
    # Stack equal-shape arrays of rows, with _GHOST periodic images at each row end.
    n = lines[0].shape[-1]
    out = np.empty((len(lines),) + lines[0].shape[:-1] + (n + 2 * _GHOST,),
                   dtype=np.result_type(*lines))
    for dst, src in zip(out, lines):
        dst[..., _GHOST:-_GHOST] = src
    _fill_ghosts(out)
    return out


def _fill_ghosts(x: np.ndarray) -> None:
    x[..., :_GHOST] = x[..., -2 * _GHOST:-_GHOST]
    x[..., -_GHOST:] = x[..., _GHOST:2 * _GHOST]


def _interior(x: np.ndarray) -> np.ndarray:
    return x[..., _GHOST:-_GHOST]


class _Field(NamedTuple):
    """Products of the frozen cell-centered field on a padded block, shared by both stages."""

    bc: np.ndarray     # (bc1, bc2, bc3) stacked
    sq: np.ndarray     # bc * bc per component
    total: np.ndarray  # sq[0] + sq[1] + sq[2]
    pm: np.ndarray     # magnetic pressure, total / 2
    b1b: np.ndarray    # bc1 * (bc1, bc2, bc3)


def _field(bc: np.ndarray) -> _Field:
    sq = bc * bc
    total = sq[0] + sq[1] + sq[2]
    return _Field(bc, sq, total, 0.5 * total, bc[0] * bc)


def _physical_fluxes(u5, field, v, p):
    # The five fluxes, stacked like u5: rho v1, m v1 + (p*, 0, 0) - b1 b,
    # and (e + p*) v1 - b1 (b . v), with p* = p + pm.
    m, e = u5[1:4], u5[4]
    pstar = p + field.pm
    f5 = np.empty_like(u5)
    f5[0] = m[0]
    mv = m * v[0]
    mv[0] += pstar
    np.subtract(mv, field.b1b, out=f5[1:4])
    bv = field.bc * v
    np.subtract((e + pstar) * v[0], field.bc[0] * (bv[0] + bv[1] + bv[2]), out=f5[4])
    return f5


def _interface_flux(u, f, c, order):
    # On padded rows flattened to positions q: entry s is the flux through the
    # interface between positions s + 1 and s + 2.  Entries whose stencil
    # crosses a row end are garbage and are never kept.
    cu = c * u
    wp = (0.5 * (f + cu)).reshape(-1)
    wm = (0.5 * (cu - f)).reshape(-1)
    if order == 1:
        return wp[1:-2] - wm[2:-1]
    dwp = wp[1:] - wp[:-1]
    fp = wp[1:-2] + 0.5 * vanleer(dwp[:-2], dwp[1:-1])
    g = wm[:-1] - wm[1:]
    fm = wm[2:-1] + 0.5 * vanleer(g[2:], g[1:-1])
    return fp - fm


def _freezing_speed(rho, v1, p, field, gamma):
    # The relaxing speed of each row: max over the row of |v1| + c_fast.
    cf = _fast_speed(rho, p, field.sq[0], field.total, gamma)
    return np.max(np.abs(v1) + cf, axis=-1, keepdims=True)  # ghosts repeat cells: same max


def _stage(u5, field, gamma, order, where, origin):
    # Interface fluxes of one stage on stacked padded rows, laid out as in
    # _interface_flux.
    rho, m = u5[0], u5[1:4]
    v = m / rho
    p = _pressure(rho, m, u5[4], field.pm, gamma)
    check_positive(_interior(rho), _interior(p), where, origin)
    c = _freezing_speed(rho, v[0], p, field, gamma)
    return _interface_flux(u5, _physical_fluxes(u5, field, v, p), c, order)


def _advance(u, flux, factor):
    # u - factor * (F(q) - F(q - 1)) on padded rows, for the flattened positions
    # q in [_GHOST, size - _GHOST), with the ghosts refreshed from the new cells.
    out = np.empty_like(u)
    np.subtract(u.reshape(-1)[_GHOST:-_GHOST], factor * (flux[1:] - flux[:-1]),
                out=out.reshape(-1)[_GHOST:-_GHOST])
    _fill_ghosts(out)
    return out


def _sweep_block(u5, bc, lam, gamma, where, origin):
    # Both stages and the update of one block of rows; writes the result into u5.
    pu = _padded(u5)
    field = _field(_padded(bc))
    half = _advance(pu, _stage(pu, field, gamma, 1, where[0], origin), 0.5 * lam)
    new = _interior(_advance(pu, _stage(half, field, gamma, 2, where[1], origin), lam))

    p = _pressure(new[0], new[1:4], new[4], _interior(field.pm), gamma)
    check_positive(new[0], p, where[2], origin)
    u5[...] = new


def _sweep_slab(u, lam, gamma, where, _i, lo, hi):
    # Slab kernel: the fluid update of planes [lo, hi), one row block at a time.
    _, _, n2, n1 = u.shape
    u_rows = u[:5, lo:hi].reshape(5, -1, n1, copy=False)  # a view: writes go through
    for r0, r1 in chunks(0, u_rows.shape[1], n1 * u.itemsize, _BLOCK_BYTES):
        g0 = lo * n2 + r0
        _sweep_block(u_rows[:, r0:r1], row_centers(u, g0, g0 + r1 - r0),
                     lam, gamma, where, (g0, n2))


def fluid_sweep(state: ConservedState, dt: float, params: SchemeParams,
                workers: int = 1) -> ConservedState:
    """Advance the fluid variables by dt along the fastest axis; b is held fixed.

    Half step with first-order fluxes, full step in flux-difference form with
    limited fluxes evaluated on the half-step state, so pencil sums telescope
    exactly under periodic wraparound.
    """
    axis = state.shape.orientation[0]
    where = tuple(f"in the {axis} sweep{stage}, cycle {state.cycle}"
                  for stage in ("", " (half step)", " after the fluid update"))
    parallel_for(partition(state.shape.n3, workers),
                 partial(_sweep_slab, state.u, dt / state.shape.dx, params.gamma, where))
    return state
