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
and `_rows`, the one row walk of the cfl and the sweep, yields it in blocks of
rows; both stages and the update run on one block before the next starts, so
each temporary is a block, not a slab, and stays in cache (see
``_BLOCK_BYTES`` for the measured size).  Every temporary is an ``out=`` view
into the process's scratch arena (`parallel.scratch`), carved for each block
from the arena's start, so once a process has swept its largest block it
allocates nothing per sweep (`_block` gives the lifetime plan).  The five
variables of a block are copied in one assignment into a stack with
``_GHOST`` periodic images at each row end, and the cell-centered field is
formed straight into the interior of a padded block of its own; the stencil
then runs on the flattened stacks with shifted slices rather than rolled
copies, and values computed across row ends are never kept.  The full-step
update is written straight into the state rows, so a sweep that fails its
last check leaves the state invalid.  Every kept value comes from the same
operations on the same operands as an unblocked evaluation, so results are
bitwise independent of the block size and the worker count.

The Van Leer limiter, shared with the magnetic sweep, selects its result by
bits rather than by a per-cell branch; the values are those of a plain
``where``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import partial
from typing import NamedTuple

import numpy as np

# face_to_center is not called here; it stays bound for perfbench's tracer,
# which rebinds fluid.face_to_center.
from .grid import ConservedState, GridShape, SchemeParams, face_to_center, row_centers  # noqa: F401
from .parallel import chunks, parallel_for, partition, scratch

# Bytes per variable of one row block.  The block's workspace in the scratch
# arena is about 45 such arrays (see `_block`), so the size trades cache reuse
# against per-block call overhead.  Cycle ms on a 2-core host (2 MiB L2 per
# core), 64^3 single on 1 worker, cycles of the three sizes alternated in one
# process, median of 16, two runs; 32 / 48 / 64 KiB: 258 / 237 / 243 and
# 273 / 292 / 277.  The fluid arena is 1.5 / 2.25 / 3.0 MiB.  No size
# separates, so 48 KiB stays; 64 KiB would cost each process 0.75 MiB more.
_BLOCK_BYTES = 48 << 10
# Periodic images at each end of a padded row: the stencil of a flux
# difference reaches two cells to either side.
_GHOST = 2


class PositivityError(ValueError):
    """The state left the physical range (rho <= 0, p < 0 or non-finite); names the cell."""


def check_positive(rho: np.ndarray, p: np.ndarray | None, shape: GridShape,
                   where: str = "", row0: int = 0) -> None:
    """Raise PositivityError at the first cell with rho <= 0 or p < 0; NaN fails both.

    `p` may be None to check the density alone.  The arrays hold whole rows of
    n1 cells of the grid `shape`, in order from state row `row0` = k * n2 + j on.
    """
    # The minimum is NaN if any value is, so these pass exactly when every
    # cell does; only a failure forms the per-cell test that names the cell.
    if not rho.min() > 0:
        _require(rho > 0, rho, "density", "non-positive", shape, where, row0)
    if p is not None and not p.min() >= 0:
        _require(p >= 0, p, "pressure", "negative", shape, where, row0)


def _require(ok, arr, name, kind, shape, where, row0):
    # Raise unless `ok` holds everywhere, naming the physical cell of the first
    # failing position: state row row0 + flat // n1, position flat % n1.
    if not ok.all():
        flat = int(np.argmin(ok))
        if not np.isfinite(arr.flat[flat]):
            kind = "non-finite"
        row, i = divmod(flat, shape.n1)
        suffix = f" {where}" if where else ""
        raise PositivityError(f"{kind} {name} at cell {shape.cell(row0 + row, i)}{suffix}")


def _pressure(rho, m, e, pm, gamma, out, tmp):
    # m: the three momenta; pm: the magnetic pressure.  Written into out; tmp
    # is scratch of the same shape.
    np.multiply(m[0], m[0], out=out)
    np.add(out, np.multiply(m[1], m[1], out=tmp), out=out)
    np.add(out, np.multiply(m[2], m[2], out=tmp), out=out)
    np.multiply(0.5, out, out=out)
    np.divide(out, rho, out=out)  # the kinetic energy
    np.subtract(e, out, out=out)
    np.subtract(out, pm, out=out)
    return np.multiply(gamma - 1.0, out, out=out)


def gas_pressure(rho, mom1, mom2, mom3, e, bc1, bc2, bc3, gamma):
    """p = (gamma - 1)(e - kinetic - magnetic), with cell-centered field values."""
    pm = 0.5 * (bc1 * bc1 + bc2 * bc2 + bc3 * bc3)
    args = (rho, mom1, mom2, mom3, e, pm)
    out, tmp = np.empty((2,) + np.broadcast(*args).shape, np.result_type(*args))
    return _pressure(rho, (mom1, mom2, mom3), e, pm, gamma, out, tmp)


def _harmonic(dl, dr, out, prod, zero, mask, keep):
    # out = 2 dl dr / (dl + dr) where dl dr > 0, else (dl dr) * 0 (a signed
    # zero, or NaN), on scratch of out's shape: prod of the dtype of dl * dr,
    # zero of out's, mask boolean and keep the integers of out's item size.
    # keep may share prod's memory.
    np.multiply(dl, dr, out=prod)
    np.greater(prod, 0, out=mask)
    # Only cells with prod > 0 keep the mean, and there dl + dr != 0.
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(np.multiply(2.0, prod, out=zero), np.add(dl, dr, out=out), out=out)
    np.multiply(prod, 0, out=zero)
    # The mean or zero, picked in place by bits on the integer view of the
    # same width, with no branch per cell.
    np.negative(mask, dtype=keep.dtype, out=keep)  # all ones or all zeros
    sel, zero = out.view(keep.dtype), zero.view(keep.dtype)
    sel ^= zero
    sel &= keep
    sel ^= zero


def _limit(dl, dr, out, prod, zero, mask, keep):
    # out = vanleer(dl, dr) on the scratch of _harmonic; returns out.
    try:
        with np.errstate(under="raise"):
            _harmonic(dl, dr, out, prod, zero, mask, keep)
    except FloatingPointError:
        # Some dl dr fell below the normal range, where a product keeps only a
        # few digits; there 2 small (big / (dl + dr)) forms no tiny product.
        # An exact product raised nothing and keeps the first form, so a cell's
        # result does not depend on whether another cell of the call underflowed.
        with np.errstate(under="ignore"):
            _harmonic(dl, dr, out, prod, zero, mask, keep)
            prod = dl * dr  # keep may have overwritten the scratch product
            dl, dr = np.broadcast_arrays(dl, dr)
            fix = np.array((prod > 0) & (prod < np.finfo(out.dtype).tiny))
            fix[fix] = [Fraction(x) * Fraction(y) != Fraction(p) for x, y, p in
                        zip(dl[fix].tolist(), dr[fix].tolist(), prod[fix].tolist())]
            a, b = dl[fix], dr[fix]
            a_small = np.abs(a) <= np.abs(b)
            out[fix] = 2.0 * np.where(a_small, a, b) * (np.where(a_small, b, a) / (a + b))
    return out


def vanleer(dl, dr):
    """Harmonic-mean slope limiter: 2 dl dr / (dl + dr) when the slopes agree, else 0."""
    dl = np.asarray(dl)
    dr = np.asarray(dr)
    shape = np.broadcast_shapes(dl.shape, dr.shape)
    out = np.empty(shape, np.result_type(2.0, dl, dr))
    _limit(dl, dr, out, np.empty(shape, np.result_type(dl, dr)), np.empty_like(out),
           np.empty(shape, bool), np.empty(shape, f"i{out.itemsize}"))
    return out[()] if out.ndim == 0 else out


def _fast_speed(rho, p, b1sq, bsq, gamma, out, a2, tot):
    # Fast magnetosonic speed along the axis, with a^2 = gamma p / rho:
    # c_f^2 = [a^2 + b^2/rho + sqrt((a^2 + b^2/rho)^2 - 4 a^2 b1^2/rho)] / 2.
    # Unchecked: callers have already checked rho and p.  b1sq = b1^2 along
    # the axis, bsq = b1^2 + b2^2 + b3^2 summed in that order.  Written into
    # out; a2 and tot are scratch of its shape, and tot may be bsq itself.
    np.divide(np.multiply(gamma, p, out=a2), rho, out=a2)
    np.add(a2, np.divide(bsq, rho, out=tot), out=tot)
    np.divide(np.multiply(np.multiply(4.0, a2, out=a2), b1sq, out=a2), rho, out=a2)
    np.subtract(np.multiply(tot, tot, out=out), a2, out=out)  # the discriminant
    np.sqrt(np.maximum(out, 0, out=out), out=out)
    return np.sqrt(np.multiply(0.5, np.add(tot, out, out=out), out=out), out=out)


def _rows(u, lo, hi):
    # Per block of rows of planes [lo, hi): its five fluid variables (a view), its first row.
    _, _, n2, n1 = u.shape
    u_rows = u[:5, lo:hi].reshape(5, -1, n1, copy=False)
    for r0, r1 in chunks(0, u_rows.shape[1], n1 * u.itemsize, _BLOCK_BYTES):
        yield u_rows[:, r0:r1], lo * n2 + r0


def _cfl_slab(u, maxima, gamma, where, shape, i, lo, hi):
    # Slab kernel: maxima[i] = the largest |v| + c_fast over planes [lo, hi) and
    # all axes.  It has the state's dtype, as does every speed, so it is exact.
    # The three axes run as one (3, rows, n1) stack.  Scratch per block: 15
    # row-block arrays, sq 5, bsq 3, cf 3, a2 3 and p 1.  Passes per cell (one
    # ufunc over one row-block array): the field, bsq and p 30, the axes 54.
    speed = 0.0
    for u5, row0 in _rows(u, lo, hi):
        rho, m, e = u5[0], u5[1:4], u5[4]
        (work,) = scratch(u.dtype, 15 * rho.size)
        sq, bsq, cf, a2, (p,) = np.split(work.reshape((15,) + rho.shape), [5, 8, 11, 14])
        row_centers(u, row0, row0 + len(rho), sq[:3])
        np.square(sq[:3], out=sq[:3])
        sq[3:] = sq[:2]  # sq[a:a + 3] runs from axis a on: bsq[a] sums as its sweep does
        np.add(np.add(sq[:3], sq[1:4], out=bsq), sq[2:], out=bsq)
        pm = np.multiply(0.5, bsq[0], out=a2[0])  # a2[0] and cf[0] are free until the speeds
        _pressure(rho, m, e, pm, gamma, p, cf[0])
        check_positive(rho, p, shape, where, row0)
        _fast_speed(rho, p, sq[:3], bsq, gamma, cf, a2, bsq)
        sig = np.add(np.abs(np.divide(m, rho, out=a2), out=a2), cf, out=a2)
        top = float(np.max(sig))
        if not top < math.inf:
            for s in sig:  # the first failing cell of axis 1, then of axis 2, ...
                _require(s < math.inf, s, "signal speed", "non-finite", shape, where, row0)
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
    parallel_for(part, partial(_cfl_slab, state.u, maxima, params.gamma, where, state.shape))
    speed = float(maxima.max())
    if speed == 0.0:
        raise ValueError("static state: dt unbounded")
    return params.courant * state.shape.dx / speed


def _fill_ghosts(x: np.ndarray) -> None:
    # The _GHOST periodic images at each end of every row of the C-contiguous
    # padded stack x, each run of _GHOST values copied as one item of raw bytes.
    rows = x.reshape(-1, x.shape[-1])
    run = np.dtype((np.void, _GHOST * x.itemsize))
    rows[:, :_GHOST].view(run)[...] = rows[:, -2 * _GHOST:-_GHOST].view(run)
    rows[:, -_GHOST:].view(run)[...] = rows[:, _GHOST:2 * _GHOST].view(run)


def _interior(x: np.ndarray) -> np.ndarray:
    return x[..., _GHOST:-_GHOST]


class _Block(NamedTuple):
    """The workspace of one row block: arena views, several sharing memory (see `_block`)."""

    u: np.ndarray      # (5, R, P) padded rows: the block, then its half step
    bc: np.ndarray     # (3, R, P) padded cell-centered field
    sq1: np.ndarray    # (R, P) bc1 * bc1
    total: np.ndarray  # (R, P) bc1^2 + bc2^2 + bc3^2
    pm: np.ndarray     # (R, P) magnetic pressure, total / 2
    b1b: np.ndarray    # (3, R, P) bc1 * (bc1, bc2, bc3)
    c: np.ndarray      # (R, 1) freezing speed of each row
    wp: np.ndarray     # (5 R P,) right movers, then the stage's fluxes
    wm: np.ndarray     # (5 R P,) left movers
    v: np.ndarray      # (3, R, P) velocities
    p: np.ndarray      # (R, P) gas pressure, then p + pm
    tmp: np.ndarray    # (R, P)
    f5: np.ndarray     # (5, R, P) physical fluxes
    a2: np.ndarray     # (R, P) _fast_speed scratch, and bc2^2 for the field
    tot: np.ndarray    # (R, P) the same, and bc3^2
    cf: np.ndarray     # (R, P) fast speed
    d: np.ndarray      # (5 R P,) mover slopes; then the full step's flux change
    lim: np.ndarray    # (5 R P,) limited slopes
    prod: np.ndarray   # (5 R P,) limiter scratch, shared with its integer mask
    zero: np.ndarray   # (5 R P,) limiter scratch
    mask: np.ndarray   # (5 R P,) booleans


def _block(rows: int, n1: int, dtype) -> _Block:
    # Carve the workspace of a block of `rows` rows of n1 cells, padded to
    # P = n1 + 2 _GHOST, from the start of the arena.  In units of one padded
    # array M = rows * P: u 5, the field (bc, sq1, total, pm, b1b) 9 and the
    # movers wp, wm 10 live through both stages; four 5M stacks s0-s3 and a
    # boolean 5M mask hold each stage's short-lived values, so the arena takes
    # about 45 M.  Lifetimes in the stacks, in order of use:
    #   field:     bc2^2, bc3^2 in s2 (a2, tot)
    #   stage:     v, p, tmp in s0; f5 in s1; a2, tot, cf in s2; all dead once
    #              wp and wm are formed
    #   limiter:   d in s0, lim in s1, prod (and its integer mask) in s2, zero in s3
    #   half step: the flux change in s0, subtracted in place from u
    #   update:    the flux change in s0 (d); the final pressure in s1
    m = rows * (n1 + 2 * _GHOST)
    n = 5 * m
    itemsize = np.dtype(dtype).itemsize
    (u, bc, sq1, total, pm, b1b, c, wp, wm, s0, s1, s2, s3, mask) = scratch(
        dtype, n, 3 * m, m, m, m, 3 * m, rows, n, n, n, n, n, n, -(-n // itemsize))
    padded = (rows, n1 + 2 * _GHOST)
    v, (p, tmp) = np.split(s0[:n].reshape((5,) + padded), [3])
    a2, tot, cf = s2[:3 * m].reshape((3,) + padded)
    return _Block(u.reshape((5,) + padded), bc.reshape((3,) + padded), sq1.reshape(padded),
                  total.reshape(padded), pm.reshape(padded), b1b.reshape((3,) + padded),
                  c.reshape(rows, 1), wp, wm, v, p, tmp, s1.reshape((5,) + padded),
                  a2, tot, cf, s0, s1, s2, s3, mask.view(bool)[:n])


def _field(ws: _Block) -> None:
    # Fill the ghosts of ws.bc, then the products of the frozen field shared by
    # both stages.
    bc = ws.bc
    _fill_ghosts(bc)
    np.multiply(bc[0], bc[0], out=ws.sq1)
    np.add(ws.sq1, np.multiply(bc[1], bc[1], out=ws.a2), out=ws.total)
    np.add(ws.total, np.multiply(bc[2], bc[2], out=ws.tot), out=ws.total)
    np.multiply(0.5, ws.total, out=ws.pm)
    np.multiply(bc[0], bc, out=ws.b1b)


def _physical_fluxes(ws: _Block) -> None:
    # ws.f5 = the five fluxes, stacked like u: rho v1, m v1 + (p*, 0, 0) - b1 b,
    # and (e + p*) v1 - b1 (b . v), with p* = p + pm, from ws.v and ws.p; both
    # are overwritten.
    m, e, v, f5 = ws.u[1:4], ws.u[4], ws.v, ws.f5
    pstar = np.add(ws.p, ws.pm, out=ws.p)
    f5[0] = m[0]
    np.multiply(m, v[0], out=f5[1:4])
    f5[1] += pstar
    np.subtract(f5[1:4], ws.b1b, out=f5[1:4])
    ev = np.multiply(np.add(e, pstar, out=pstar), v[0], out=pstar)
    bv = np.multiply(ws.bc, v, out=v)
    bdotv = np.add(np.add(bv[0], bv[1], out=bv[0]), bv[2], out=bv[0])
    np.subtract(ev, np.multiply(ws.bc[0], bdotv, out=bdotv), out=f5[4])


def _interface_flux(ws: _Block, order: int) -> np.ndarray:
    # On the padded rows flattened to positions q: entry s is the flux through
    # the interface between positions s + 1 and s + 2, returned as a view of
    # ws.wp.  Entries whose stencil crosses a row end are garbage and are never
    # kept.
    cu = np.multiply(ws.c, ws.u, out=ws.wp.reshape(ws.u.shape))
    np.subtract(cu, ws.f5, out=ws.wm.reshape(ws.u.shape))
    np.add(ws.f5, cu, out=cu)
    wp = np.multiply(0.5, ws.wp, out=ws.wp)
    wm = np.multiply(0.5, ws.wm, out=ws.wm)
    fp, fm = wp[1:-2], wm[2:-1]
    if order == 2:
        work = (ws.lim[:-3], ws.prod[:-3], ws.zero[:-3], ws.mask[:-3],
                ws.prod[:-3].view(f"i{ws.prod.itemsize}"))
        dwp = np.subtract(wp[1:], wp[:-1], out=ws.d[:-1])
        lim = _limit(dwp[:-2], dwp[1:-1], *work)
        np.add(fp, np.multiply(0.5, lim, out=lim), out=fp)
        g = np.subtract(wm[:-1], wm[1:], out=ws.d[:-1])
        lim = _limit(g[2:], g[1:-1], *work)
        np.add(fm, np.multiply(0.5, lim, out=lim), out=fm)
    return np.subtract(fp, fm, out=fp)


def _freezing_speed(rho, v1, p, ws: _Block, gamma) -> np.ndarray:
    # ws.c = the relaxing speed of each row: max over the row of |v1| + c_fast.
    cf = _fast_speed(rho, p, ws.sq1, ws.total, gamma, ws.cf, ws.a2, ws.tot)
    sig = np.add(np.abs(v1, out=ws.a2), cf, out=ws.a2)
    return np.max(sig, axis=-1, keepdims=True, out=ws.c)  # ghosts repeat cells: same max


def _stage(ws: _Block, gamma, order, where, shape, row0) -> np.ndarray:
    # Interface fluxes of one stage on the padded rows ws.u, laid out as in
    # _interface_flux; the rows are state rows row0 on of the grid `shape`.
    rho, m = ws.u[0], ws.u[1:4]
    v = np.divide(m, rho, out=ws.v)
    p = _pressure(rho, m, ws.u[4], ws.pm, gamma, ws.p, ws.tmp)
    check_positive(_interior(rho), _interior(p), shape, where, row0)
    _freezing_speed(rho, v[0], p, ws, gamma)
    _physical_fluxes(ws)
    return _interface_flux(ws, order)


def _flux_change(flux, factor, out):
    # factor * (F(q) - F(q - 1)) into the flattened positions q in
    # [_GHOST, size - _GHOST) of the padded rows `out`; the ends are unset.
    inner = out.reshape(-1)[_GHOST:-_GHOST]
    np.multiply(factor, np.subtract(flux[1:], flux[:-1], out=inner), out=inner)
    return out


def _sweep_block(u, u5, lam, gamma, where, shape, row0):
    # Both stages and the update of the block of rows u5, the fluid rows from
    # state row row0 on of the state block u; writes the result into u5.
    # Passes per cell (one ufunc over one padded array; a stack counts once
    # per variable): load and field 20; each stage 80, of which the fluxes
    # and movers take 43, plus 130 in stage 2 for the two limited corrections
    # (the limiter alone 2 x 50); the half step 15; the update and its check 27.
    rows, n1 = u5.shape[1:]
    ws = _block(rows, n1, u5.dtype)
    _interior(ws.u)[...] = u5
    _fill_ghosts(ws.u)
    row_centers(u, row0, row0 + rows, _interior(ws.bc))
    _field(ws)
    # The half step, in place: u - (lam / 2) * (F(q) - F(q - 1)), ghosts refreshed.
    step = _flux_change(_stage(ws, gamma, 1, where[0], shape, row0), 0.5 * lam,
                        ws.d.reshape(ws.u.shape))
    inner = ws.u.reshape(-1)[_GHOST:-_GHOST]
    np.subtract(inner, step.reshape(-1)[_GHOST:-_GHOST], out=inner)
    _fill_ghosts(ws.u)
    step = _flux_change(_stage(ws, gamma, 2, where[1], shape, row0), lam,
                        ws.d.reshape(ws.u.shape))
    np.subtract(u5, _interior(step), out=u5)  # u5 still holds the block's values

    p, tmp = ws.lim[:2 * u5[0].size].reshape(2, rows, n1)
    _pressure(u5[0], u5[1:4], u5[4], _interior(ws.pm), gamma, p, tmp)
    check_positive(u5[0], p, shape, where[2], row0)


def _sweep_slab(u, lam, gamma, where, shape, _i, lo, hi):
    # Slab kernel: the fluid update of planes [lo, hi), one row block at a time.
    for u5, row0 in _rows(u, lo, hi):
        _sweep_block(u, u5, lam, gamma, where, shape, row0)


def fluid_sweep(state: ConservedState, dt: float, params: SchemeParams,
                workers: int = 1) -> ConservedState:
    """Advance the fluid variables by dt along the fastest axis; b is held fixed.

    Half step with first-order fluxes, full step in flux-difference form with
    limited fluxes evaluated on the half-step state, so pencil sums telescope
    exactly under periodic wraparound.
    """
    shape = state.shape
    where = tuple(f"in the {shape.orientation[0]} sweep{stage}, cycle {state.cycle}"
                  for stage in ("", " (half step)", " after the fluid update"))
    parallel_for(partition(shape.n3, workers),
                 partial(_sweep_slab, state.u, dt / shape.dx, params.gamma, where, shape))
    return state
