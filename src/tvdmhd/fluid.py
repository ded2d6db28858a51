"""One-dimensional relaxing-TVD update of the five fluid variables.

Each sweep advances (rho, mom1..3, e) along the current fastest axis with the
face field frozen.  The flux for every variable u with physical flux F is
split into a right mover w+ = (F + c u)/2 and a left mover w- = (c u - F)/2,
where the freezing speed c bounds every signal speed on the pencil; the
interface flux is the upwind mover difference, with a Van Leer limited
second-order correction.  The kernels form W+- = F +- c u = 2 w+- and apply
the split's 1/2 once, in the factor of the flux change.  Time integration is
a midpoint pair: a half step with first-order fluxes produces the state the
limited full-step fluxes are evaluated on.

The freezing speed is taken uniform along each pencil (the maximum of
|v1| + c_fast over the line, re-evaluated each stage).  A per-cell speed
would contaminate the energy split on contact data and break the exact
reduction of uniform-velocity advection to a scalar TVD scheme.

Blocking.  A slab is viewed as rows (pencils) over its flattened (k, j) axis,
and `_rows`, the one row walk of the cfl and the sweep, yields it in blocks of
rows; both stages and the update run on one block before the next starts, so
each temporary is a block, not a slab, and stays in cache (see
``_BLOCK_BYTES`` for the measured size).  Every temporary is an ``out=`` view
into the process's scratch arena (`parallel.scratch`).  The views of a block
of a given size, with its shifted slices and ghost runs, are carved once per
process and cached (`parallel.workspace`; `_Block` gives the lifetime plan),
so a block pays no set-up and a process allocates nothing per sweep.  The
five variables of a block are copied in one assignment into a stack with
``_GHOST`` periodic images at each row end, beside the cell-centered field,
which is formed contiguous and copied in; one copy of raw bytes per row end
fills the images of all eight.  The stencil then runs on the flattened stacks
with shifted slices rather than rolled copies, and values computed across row
ends are never kept.  The full-step update is written straight into the state
rows, so a sweep that fails its last check leaves the state invalid.  Every
kept value comes from the same operations on the same operands as an
unblocked evaluation, so results are bitwise independent of the block size
and the worker count.

The Van Leer limiter, shared with the magnetic sweep, gives half the Van Leer
slope and selects nothing: every cell divides dl dr by dl + dr + w, where w,
formed from the sign bit of 0 - dl dr, is +0 where the slopes agree and +inf
elsewhere, so a cell whose slopes disagree gets exactly (dl dr) * 0.  The
values are bitwise those of a plain ``where``, overflow included, which a call
falls back to when a value of it falls inexactly below the normal range.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import partial

import numpy as np

# face_to_center is not called here; it stays bound for perfbench's tracer,
# which rebinds fluid.face_to_center.
from .grid import ConservedState, GridShape, SchemeParams, face_to_center, row_centers  # noqa: F401
from .parallel import chunks, parallel_for, partition, scratch, workspace

# Bytes per variable of one row block.  The block's workspace in the scratch
# arena is about 42 such arrays (see `_Block`), so the size trades cache reuse
# against per-block call overhead.  Cycle ms on a 2-core host (2 MiB L2 per
# core), 64^3 single on 1 worker, cycles of the three sizes alternated in one
# process, median of 16, two runs; 32 / 48 / 64 KiB: 258 / 237 / 243 and
# 273 / 292 / 277.  The fluid arena was 1.5 / 2.25 / 3.0 MiB.  No size
# separated, so 48 KiB stayed; 64 KiB would cost each process 0.75 MiB more.
# With cached workspaces, 48 against 32 KiB: fluid ms 152 / 168, 48 KiB
# faster in 12 of 16 cycles.  In later alternated A/B runs in single
# precision, blocks of 48-96 KiB moved the cycle by less than its run-to-run
# spread.
_BLOCK_BYTES = 48 << 10
# Periodic images at each end of a padded row: the stencil of a flux
# difference reaches two cells to either side.
_GHOST = 2


class PositivityError(ValueError):
    """The state left the physical range (rho <= 0, p < 0 or non-finite); names the cell."""


def check_positive(rho: np.ndarray, p: np.ndarray | None, shape: GridShape,
                   where: str = "", row0: int = 0) -> None:
    """Raise PositivityError at the first cell with rho <= 0 or p < 0; NaN and +inf fail both.

    `p` may be None to check the density alone.  The arrays hold whole rows of
    n1 cells of the grid `shape`, in order from state row `row0` = k * n2 + j on.
    """
    # Only a failure forms the per-cell tests that name the cell.
    if not _in_range(rho, p):
        _require((rho > 0) & (rho < math.inf), rho, "density", "non-positive", shape, where, row0)
        if p is not None:
            _require((p >= 0) & (p < math.inf), p, "pressure", "negative", shape, where, row0)


def _in_range(rho, p) -> bool:
    # Whether every rho lies in (0, inf) and every p, unless None, in [0, inf).
    # A minimum or maximum is NaN if any value is, so NaN fails.
    lo, hi = np.minimum.reduce, np.maximum.reduce
    return (lo(rho, axis=None) > 0 and hi(rho, axis=None) < math.inf
            and (p is None or (lo(p, axis=None) >= 0 and hi(p, axis=None) < math.inf)))


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


# The bits of +inf as the signed integer of each float type's width.
_INF_BITS = {np.dtype(t): np.array(np.inf, t).view(f"i{np.dtype(t).itemsize}")[()]
             for t in (np.float32, np.float64)}


def _limit(dl, dr, out, prod, work):
    # out = half the Van Leer slope of dl and dr, dl dr / (dl + dr) where the
    # slopes agree and (dl dr) * 0 (a signed zero, or NaN) elsewhere; prod and
    # work are scratch of out's shape and dtype.  Returns out.
    #
    # One division for every cell, with no select: the denominator is
    # dl + dr + w, where w is +0 where dl dr > 0 and +inf elsewhere, and
    # dl dr / +inf is exactly (dl dr) * 0.  0 - dl dr has its sign bit set
    # exactly where dl dr > 0 (0 - (+-0) is +0); spread over the word by an
    # arithmetic shift it is -1 there and 0 elsewhere, and +inf's bits shifted
    # by -1 are 0 (numpy's shift by a negative count), by 0 +inf.  An
    # overflow needs no select: +-inf / (dl + dr + w) is the select's own
    # value, and -inf / +inf the same NaN as -inf * 0.  A call in which a
    # value falls inexactly below the normal range raises, and _limit_where
    # redoes it.
    try:
        with np.errstate(under="raise", divide="ignore", invalid="ignore"):
            np.multiply(dl, dr, out=prod)
            w = work.view(f"i{work.itemsize}")
            np.subtract(0, prod, out=work)
            np.right_shift(w, 8 * work.itemsize - 1, out=w)
            np.right_shift(_INF_BITS[work.dtype], w, out=w)
            np.add(np.add(dl, dr, out=out), work, out=out)
            return np.divide(prod, out, out=out)
    except FloatingPointError:
        return _limit_where(dl, dr, out)


def _limit_where(dl, dr, out):
    # _limit as a select, for a call in which a value fell inexactly below the
    # normal range; dl and dr have out's shape.  A positive dl dr that is
    # inexact there keeps only a few digits, so those cells take
    # small (big / (dl + dr)), which forms no tiny product.  An exact product
    # keeps the first form, so a cell's result does not depend on whether
    # another cell of the call raised.
    with np.errstate(under="ignore", divide="ignore", invalid="ignore"):
        prod = dl * dr
        out[...] = np.where(prod > 0, prod / (dl + dr), prod * 0)
        fix = np.array((prod > 0) & (prod < np.finfo(out.dtype).tiny))
        fix[fix] = [Fraction(x) * Fraction(y) != Fraction(p) for x, y, p in
                    zip(dl[fix].tolist(), dr[fix].tolist(), prod[fix].tolist())]
        a, b = dl[fix], dr[fix]
        a_small = np.abs(a) <= np.abs(b)
        out[fix] = np.where(a_small, a, b) * (np.where(a_small, b, a) / (a + b))
    return out


def _fast_speed(rho, p, b1sq, pm, gamma, out, a2, h, tmp):
    # Fast magnetosonic speed along the axis, with a^2 = gamma p / rho:
    # c_f^2 = [a^2 + b^2/rho + sqrt((a^2 + b^2/rho)^2 - 4 a^2 b1^2/rho)] / 2,
    # in half form h + sqrt(h^2 - a^2 b1^2/rho), h = a^2/2 + pm/rho: every
    # factor moved is a power of two.  Unchecked: callers have checked rho and
    # p.  b1sq = b1^2 along the axis, pm = (b1^2 + b2^2 + b3^2) / 2 summed in
    # that order; both may stack axes that rho and p broadcast over.  Written
    # into out.  a2 is scratch of p's shape and takes a^2/2, then a^2 in
    # place, each formed once for the stack (a2 may be p); h and tmp are
    # scratch of out's (h may be pm).  Where the shapes agree, tmp may be a2.
    np.divide(np.multiply(0.5 * gamma, p, out=a2), rho, out=a2)
    np.add(a2, np.divide(pm, rho, out=h), out=h)
    np.divide(np.multiply(np.add(a2, a2, out=a2), b1sq, out=tmp), rho, out=tmp)
    np.subtract(np.multiply(h, h, out=out), tmp, out=out)  # the discriminant, over 4
    np.sqrt(np.maximum(out, 0, out=out), out=out)
    return np.sqrt(np.add(h, out, out=out), out=out)


def _rows(u, lo, hi):
    # Per row block of planes [lo, hi): its workspace, fluid variables (a view), first row.
    _, _, n2, n1 = u.shape
    u_rows = u[:5, lo:hi].reshape(5, -1, n1, copy=False)
    for r0, r1 in chunks(0, u_rows.shape[1], n1 * u.itemsize, _BLOCK_BYTES):
        yield workspace(_Block, r1 - r0, n1, u.dtype), u_rows[:, r0:r1], lo * n2 + r0


def _cfl_slab(u, maxima, gamma, where, shape, i, lo, hi):
    # Slab kernel: maxima[i] = the largest |v| + c_fast over planes [lo, hi) and
    # all axes.  It has the state's dtype, as does every speed, so it is exact.
    # The three axes run as one (3, rows, n1) stack in the block's workspace.
    # tests/test_fluid.py pins its numpy calls and output elements per cell.
    speed = 0.0
    for ws, u5, row0 in _rows(u, lo, hi):
        rho, m, e = u5[0], u5[1:4], u5[4]
        sq, bsq, sig, p = ws.centres, ws.bsq, ws.sig, ws.p_cells
        row_centers(u, row0, row0 + len(rho), sq)
        np.square(sq, out=sq)
        np.copyto(ws.sq_images, ws.sq_head)
        np.add(np.add(sq, ws.sq_from1, out=bsq), ws.sq_from2, out=bsq)
        pm = np.multiply(0.5, bsq, out=bsq)  # the pressure takes axis 1's, as its sweep does
        _pressure(rho, m, e, pm[0], gamma, p, ws.tmp_cells)
        check_positive(rho, p, shape, where, row0)
        _fast_speed(rho, p, sq, pm, gamma, ws.fast, p, pm, sig)  # a^2 in place of p
        np.add(np.abs(np.divide(m, rho, out=sig), out=sig), ws.fast, out=sig)
        top = float(np.maximum.reduce(sig, axis=None))
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


def _ghost_runs(x: np.ndarray):
    # The (images, cells) pairs whose copies fill the periodic images of every
    # row of the C-contiguous padded stack x, _GHOST at each end of a row's
    # cells, each run of images one item of raw bytes.
    rows = x.reshape(-1, x.shape[-1])
    n = rows.shape[1] - 2 * _GHOST
    run = np.dtype((np.void, _GHOST * x.itemsize))
    return ((rows[:, :_GHOST].view(run), rows[:, n:n + _GHOST].view(run)),
            (rows[:, _GHOST + n:].view(run), rows[:, _GHOST:2 * _GHOST].view(run)))


def _fill_ghosts(runs) -> None:
    for images, cells in runs:
        np.copyto(images, cells)


def _interior(x: np.ndarray) -> np.ndarray:
    return x[..., _GHOST:-_GHOST]


class _Block:
    """The workspace of one row block of the sweep and the cfl: arena views, some sharing memory.

    Made once per process for each (rows, n1, dtype) by `parallel.workspace`,
    together with every view, shifted slice and ghost run a block uses, so a
    block pays no set-up of its own.
    """

    def __init__(self, rows: int, n1: int, dtype):
        # Rows are padded to P = n1 + 2 _GHOST.  In units of one padded array
        # M = rows * P: the block u 5 and its field bc 3 (one stack, so one
        # ghost fill serves both), the field products (pm, b1b) 4 and the
        # movers wp, wm 10 live through both stages; four 5M stacks s0-s3 hold
        # each stage's short-lived values, so the arena takes about 42 M.
        # Lifetimes in the stacks, in order of use:
        #   load:      the centred field, contiguous, in s3
        #   field:     bc3^2 in s2 (a2)
        #   stage:     v, p, tmp in s0; f5 in s1; a2, h, cf (then c_rows) in
        #              s2; all dead once wp and wm are formed
        #   limiter:   d in s0, lim in s1, prod in s2, 0 - prod (then its
        #              sign, then +0 or +inf) in s3
        #   half step: the flux change in s0, subtracted in place from u
        #   update:    the flux change in s0; the final pressure in s1
        #   cfl:       unpadded rows: the centred field squared and two images in
        #              s3; p, its scratch, bsq (then pm) in s1; fast speeds in s2; sig in s0
        padded = (rows, n1 + 2 * _GHOST)
        m = rows * padded[1]
        n = 5 * m
        (ub, pm, b1b, c, wp, wm, s0, s1, s2, s3) = scratch(
            dtype, 8 * m, m, 3 * m, rows, n, n, n, n, n, n)
        ub = ub.reshape((8,) + padded)
        self.u, self.bc = ub[:5], ub[5:]  # (5, R, P) the block, then its half step; the field
        self.rho, self.m, self.e = self.u[0], self.u[1:4], self.u[4]
        self.u_in, self.bc_in = _interior(self.u), _interior(self.bc)
        k = rows * n1  # values per unpadded array
        sq = s3[:5 * k].reshape(5, rows, n1)
        self.centres = sq[:3]
        self.ghosts, self.u_ghosts = _ghost_runs(ub), _ghost_runs(self.u)
        # The frozen field's products: the magnetic pressure and bc1 * (bc1, bc2, bc3).
        self.pm, self.b1b = pm.reshape(padded), b1b.reshape((3,) + padded)
        self.c = c.reshape(rows, 1)  # freezing speed of each row
        # A stage: velocities, pressure (then p + pm) and scratch; the physical
        # fluxes; the fast speed's scratch (a2 also bc3^2).
        self.v, (self.p, self.tmp) = np.split(s0.reshape((5,) + padded), [3])
        self.rho_in, self.p_in = _interior(self.rho), _interior(self.p)
        self.f5 = s1.reshape((5,) + padded)
        self.a2, self.h, self.cf = s2[:3 * m].reshape((3,) + padded)
        self.c_rows = self.cf  # then the freezing speed, spread along each row
        # The movers and their slopes on the padded rows flattened to positions
        # q; entry s of the flux is the interface between positions s + 1 and
        # s + 2 (see _interface_flux).
        self.cu, self.wm5 = wp.reshape(self.u.shape), wm.reshape(self.u.shape)
        self.fp, self.fm = wp[1:-2], wm[2:-1]
        self.wp_hi, self.wp_lo, self.wm_hi, self.wm_lo = wp[1:], wp[:-1], wm[1:], wm[:-1]
        self.d, self.dl, self.dc, self.dr = s0[:-1], s0[:-3], s0[1:-2], s0[2:-1]
        self.limiter = (s1[:-3], s2[:-3], s3[:-3])
        # The flux change F(q) - F(q - 1) at positions [_GHOST, size - _GHOST),
        # and the rows it updates.
        self.flux_hi, self.flux_lo = wp[2:-2], wp[1:-3]
        self.step, self.u_inner = s0[_GHOST:-_GHOST], self.u.reshape(-1)[_GHOST:-_GHOST]
        self.step_in = _interior(s0.reshape(self.u.shape))
        # Unpadded: the update's pressure check (pm_in is padded), and the cfl,
        # where sq[a:a + 3] runs from axis a on, so bsq[a] sums as its sweep does.
        (self.p_cells, self.tmp_cells), self.bsq = np.split(s1[:5 * k].reshape(5, rows, n1), [2])
        self.pm_in = _interior(self.pm)
        self.fast = s2[:3 * k].reshape(3, rows, n1)
        self.sig = s0[:3 * k].reshape(3, rows, n1)
        self.sq_from1, self.sq_from2 = sq[1:4], sq[2:]
        self.sq_images, self.sq_head = sq[3:], sq[:2]


def _field(ws: _Block) -> None:
    # The products of the frozen field ws.bc (ghosts filled) shared by both
    # stages: b1b = bc1 * bc, whose first is bc1^2, and pm = |bc|^2 / 2.
    bc = ws.bc
    b1b = np.multiply(bc[0], bc, out=ws.b1b)
    pm = np.add(b1b[0], np.multiply(bc[1], bc[1], out=ws.pm), out=ws.pm)
    np.add(pm, np.multiply(bc[2], bc[2], out=ws.a2), out=pm)
    np.multiply(0.5, pm, out=pm)


def _physical_fluxes(ws: _Block) -> None:
    # ws.f5 = the five fluxes, stacked like u: rho v1, m v1 + (p*, 0, 0) - b1 b,
    # and (e + p*) v1 - b1 (b . v), with p* = p + pm, from ws.v and ws.p; both
    # are overwritten.
    m, v, f5 = ws.m, ws.v, ws.f5
    pstar = np.add(ws.p, ws.pm, out=ws.p)
    np.copyto(f5[0], m[0])
    np.multiply(m, v[0], out=f5[1:4])
    np.add(f5[1], pstar, out=f5[1])
    np.subtract(f5[1:4], ws.b1b, out=f5[1:4])
    ev = np.multiply(np.add(ws.e, pstar, out=pstar), v[0], out=pstar)
    bv = np.multiply(ws.bc, v, out=v)
    bdotv = np.add(np.add(bv[0], bv[1], out=bv[0]), bv[2], out=bv[0])
    np.subtract(ev, np.multiply(ws.bc[0], bdotv, out=bdotv), out=f5[4])


def _interface_flux(ws: _Block, order: int) -> np.ndarray:
    # Twice the interface flux, from W+ = F + c u and W- = c u - F.  On the
    # padded rows flattened to positions q: entry s is the flux through the
    # interface between positions s + 1 and s + 2, returned as ws.fp.
    # Entries whose stencil crosses a row end are garbage and are never kept.
    # Each row's speed spread over the row first: a product with a broadcast
    # (rows, 1) operand would run row by row.
    np.copyto(ws.c_rows, ws.c)
    cu = np.multiply(ws.c_rows, ws.u, out=ws.cu)
    np.subtract(cu, ws.f5, out=ws.wm5)
    np.add(ws.f5, cu, out=cu)
    fp, fm = ws.fp, ws.fm
    if order == 2:
        # Slopes of the right movers, then the left: the limiter's half slope
        # of the two beside each mover's cell is the Van Leer slope of w+-.
        np.subtract(ws.wp_hi, ws.wp_lo, out=ws.d)
        np.add(fp, _limit(ws.dl, ws.dc, *ws.limiter), out=fp)
        np.subtract(ws.wm_lo, ws.wm_hi, out=ws.d)
        np.add(fm, _limit(ws.dr, ws.dc, *ws.limiter), out=fm)
    return np.subtract(fp, fm, out=fp)


def _freezing_speed(rho, v1, p, ws: _Block, gamma) -> np.ndarray:
    # ws.c = the relaxing speed of each row: max over the row of |v1| + c_fast.
    a2 = ws.a2
    cf = _fast_speed(rho, p, ws.b1b[0], ws.pm, gamma, ws.cf, a2, ws.h, a2)
    sig = np.add(np.abs(v1, out=a2), cf, out=a2)
    # Ghosts repeat cells: the same max.  A ufunc reduction skips np.max's
    # Python wrapper, about 2 us a call.
    return np.maximum.reduce(sig, axis=-1, keepdims=True, out=ws.c)


def _stage(ws: _Block, gamma, order, where, shape, row0) -> np.ndarray:
    # Interface fluxes of one stage on the padded rows ws.u, laid out as in
    # _interface_flux; the rows are state rows row0 on of the grid `shape`.
    rho, m = ws.rho, ws.m
    v = np.divide(m, rho, out=ws.v)
    p = _pressure(rho, m, ws.e, ws.pm, gamma, ws.p, ws.tmp)
    # The ghosts are bitwise copies of cells, so the padded rows' extremes are
    # the cells'; only a failure needs the interior, to name the cell.
    if not _in_range(rho, p):
        check_positive(ws.rho_in, ws.p_in, shape, where, row0)
    # A finite rho and p can still overflow |v1| + c_fast (a subnormal density
    # does): name the cell whose signal speed is not finite.
    if not np.maximum.reduce(_freezing_speed(rho, v[0], p, ws, gamma), axis=None) < math.inf:
        sig = _interior(ws.a2)
        _require(sig < math.inf, sig, "signal speed", "non-finite", shape, where, row0)
    _physical_fluxes(ws)
    return _interface_flux(ws, order)


def _flux_change(ws: _Block, factor) -> None:
    # ws.step = factor * (F(q) - F(q - 1)) of the last stage's fluxes, at the
    # flattened positions q in [_GHOST, size - _GHOST) of the padded rows.
    np.multiply(factor, np.subtract(ws.flux_hi, ws.flux_lo, out=ws.step), out=ws.step)


def _sweep_block(u, ws, u5, lam, gamma, where, shape, row0):
    # Both stages and the update, in the workspace ws, of the block of rows u5,
    # the fluid rows from state row row0 on of the state block u; writes u5.
    # tests/test_fluid.py pins its numpy calls and output elements per cell.
    # Each pass runs over whole rows as one flat run, except the copies into
    # the padded rows, each stage's row maxima, and the update, which reads
    # the flux change from the padded rows: numpy runs a strided operand row
    # by row, 2-3x the cost of a flat pass.  A flat update would need the
    # block's values back in the padded rows and a copy out, which measured
    # no faster, op by op (26 against 26 us per block at 64^3) and as a whole
    # sweep.  Set-up per block: one cached lookup.
    np.copyto(ws.u_in, u5)
    row_centers(u, row0, row0 + u5.shape[1], ws.centres)
    np.copyto(ws.bc_in, ws.centres)
    _fill_ghosts(ws.ghosts)
    _field(ws)
    # The fluxes are doubled (see _interface_flux).  The half step, in place:
    # u - (lam / 4) * (F(q) - F(q - 1)), ghosts refreshed.
    _stage(ws, gamma, 1, where[0], shape, row0)
    _flux_change(ws, 0.25 * lam)
    np.subtract(ws.u_inner, ws.step, out=ws.u_inner)
    _fill_ghosts(ws.u_ghosts)
    _stage(ws, gamma, 2, where[1], shape, row0)
    _flux_change(ws, 0.5 * lam)
    np.subtract(u5, ws.step_in, out=u5)  # u5 still holds the block's values

    p = _pressure(u5[0], u5[1:4], u5[4], ws.pm_in, gamma, ws.p_cells, ws.tmp_cells)
    check_positive(u5[0], p, shape, where[2], row0)


def _sweep_slab(u, lam, gamma, where, shape, _i, lo, hi):
    # Slab kernel: the fluid update of planes [lo, hi), one row block at a time.
    for ws, u5, row0 in _rows(u, lo, hi):
        _sweep_block(u, ws, u5, lam, gamma, where, shape, row0)


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
