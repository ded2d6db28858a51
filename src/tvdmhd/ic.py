"""Initial conditions.

Every builder writes the face fields of a canonical-orientation state and
returns its primitives as a function of a k-slab: `primitives(k0, k1)` gives
(rho, v1, v2, v3, p) on the planes [k0, k1), each a scalar or an array that
broadcasts over them.  `init_condition` then fills the conserved variables on
one path.  That path checks the density and pressure with the solver's own
`check_positive`, and the total energy for finiteness, so a non-positive or
non-finite value fails with the cell and the initial condition named.  The
total energy is assembled in float64 as internal + kinetic + magnetic (with
cell-centered field values), so the gas pressure recovered by the solver
matches the requested one to roundoff.  Face fields that need to be
divergence-free are built as the discrete curl of an edge vector potential,
which zeroes the face-flux balance identically.

The state is built one k-slab (a contiguous run of z planes) at a time:
every float64 temporary is at most `_SLAB_BYTES` per field, so the arithmetic
runs in cache and the build's own memory does not grow with the grid (below
8 MiB at 96^3).  Each value comes from the same operations on the same
operands as over the whole grid, so the state is bitwise independent of the
slab size.

Cell centers sit at ((i + 1/2) dx, ...); lower faces and edges sit on the
integer lattice (i dx, ...).
"""

from __future__ import annotations

import inspect

import numpy as np

from .fluid import PositivityError, check_positive
from .grid import ConservedState, GridShape, SchemeParams, allocate_state, row_centers
from .parallel import chunks

KINDS = ("uniform", "advect_pulse", "sod_x", "brio_wu_x", "solenoidal_random",
         "orszag_tang_xy")

# Bytes of float64 per field per slab.  solenoidal_random at 128^3 single,
# seed 0, on a 2-core host (2 MiB L2 per core), median s of init in
# alternated fresh processes (12 each): 512 KiB 0.76 (quartiles 0.68-0.81),
# 1 MiB 0.78 (0.72-0.84).  They do not separate, and 512 KiB keeps the
# build's memory lower.  Read at each build.
_SLAB_BYTES = 512 << 10


def _coords(shape: GridShape, offset: float):
    # (x, y, z) broadcast over [k, j, i]: cell centers at offset 0.5, corners at 0.
    x, y, z = ((np.arange(n) + offset) * shape.dx for n in (shape.n1, shape.n2, shape.n3))
    return x, y[:, np.newaxis], z[:, np.newaxis, np.newaxis]


def _fill(state: ConservedState, gamma, primitives, where: str) -> ConservedState:
    """Set conserved variables slab by slab from `primitives(k0, k1)`; faces must be in place.

    Every density is checked before a pressure failure is raised, as one
    whole-grid `check_positive` would, and every pressure before a non-finite
    energy is.
    """
    shape = state.shape
    _, n2, n1 = shape.array_shape
    failure = nonfinite = None
    for k0, k1 in chunks(0, shape.n3, 8 * n1 * n2, _SLAB_BYTES):
        planes, row0 = (k1 - k0, n2, n1), k0 * n2
        rho, v1, v2, v3, p = primitives(k0, k1)
        rho, p = (np.broadcast_to(np.asarray(a, dtype=np.float64), planes) for a in (rho, p))
        try:
            check_positive(rho, p, shape, where, row0)
        except PositivityError as exc:
            failure = failure or exc
        if failure is not None:
            # After the first failure, a density failure here or later still wins.
            check_positive(rho, None, shape, where, row0)
            continue
        v1, v2, v3 = np.asarray(v1), np.asarray(v2), np.asarray(v3)
        centers = np.empty((3, (k1 - k0) * n2, n1), dtype=state.dtype)
        row_centers(state.u, row0, k1 * n2, centers)
        u = state.u[:, k0:k1]
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite energy is reported
            kinetic = 0.5 * rho * (v1 ** 2 + v2 ** 2 + v3 ** 2)
            sq1, sq2, sq3 = (np.square(bc, dtype=np.float64).reshape(planes) for bc in centers)
            magnetic = 0.5 * (sq1 + sq2 + sq3)
            u[4] = p / (gamma - 1.0) + kinetic + magnetic
            ok = np.isfinite(u[4])
            if nonfinite is None and not ok.all():
                # Name the first term that is not finite at the first such cell; the
                # energy alone can be, when the state's precision cannot hold it.
                flat = int(np.argmin(ok))
                terms = (("density", rho), ("pressure", p), ("velocity", kinetic),
                         ("magnetic field", magnetic), ("energy", u[4]))
                name = next(n for n, t in terms if not np.isfinite(t.flat[flat]))
                cell = shape.cell(row0 + flat // n1, flat % n1)
                nonfinite = PositivityError(f"non-finite {name} at cell {cell} {where}")
            del centers, kinetic, sq1, sq2, sq3, magnetic  # free these before the momenta
            u[0] = rho
            u[1] = rho * v1
            u[2] = rho * v2
            u[3] = rho * v3
    if failure or nonfinite:
        raise failure or nonfinite
    return state


def _curl_faces(shape: GridShape, faces: np.ndarray, potential) -> None:
    """Write the curl of an edge vector potential into `faces` (3, n3, n2, n1).

    The faces are exactly divergence-free.  `potential(k0, k1)` gives
    (a1, a2, a3) on the planes [k0, k1), each broadcasting over them.  The
    faces of slab [k0, k1) need the potential on planes k0..k1, where plane
    n3 is plane 0 (periodic).  Each plane is evaluated once: plane 0 before
    the first slab, then planes k0 + 1 .. k1 of each slab, whose plane k0 is
    carried over from the slab before; the last slab ends on plane 0 again.
    """
    n3, n2, n1 = shape.array_shape
    dx = shape.dx

    def planes(lo, hi):
        return [np.broadcast_to(a, (hi - lo, n2, n1)) for a in potential(lo, hi)]
    head = carry = [a.copy() for a in planes(0, 1)]  # plane 0, then the shared plane k0
    for k0, k1 in chunks(0, n3, 8 * n1 * n2, _SLAB_BYTES):
        parts = [carry, planes(k0 + 1, min(k1 + 1, n3))]
        if k1 == n3:
            parts.append(head)
        a1, a2, a3 = (np.concatenate(a) for a in zip(*parts))
        carry = [a[-1:].copy() for a in (a1, a2, a3)]
        del parts
        l1, l2, l3 = (a[:-1] for a in (a1, a2, a3))  # planes k0 .. k1 - 1
        faces[0, k0:k1] = (np.roll(l3, -1, axis=1) - l3 - a2[1:] + l2) / dx
        faces[1, k0:k1] = (a1[1:] - l1 - np.roll(l3, -1, axis=2) + l3) / dx
        faces[2, k0:k1] = (np.roll(l2, -1, axis=2) - l2 - np.roll(l1, -1, axis=1) + l1) / dx
        del a1, a2, a3, l1, l2, l3  # free this slab's planes before the next slab's exist


def _set_faces(state: ConservedState, b1, b2, b3) -> None:
    state.b1[...] = b1
    state.b2[...] = b2
    state.b3[...] = b3


def _smooth_modes(rng, modes: int) -> list:
    """The (kx, ky, kz, amp, phase) draws of one smooth field."""
    return [(*rng.integers(-2, 3, size=3), rng.uniform(0.3, 1.0), rng.uniform(0, 2 * np.pi))
            for _ in range(modes)]


def _smooth_field(draws, xn, yn, zn) -> np.ndarray:
    """Random superposition of low-wavenumber sines; values O(1).

    `xn`, `yn`, `zn` are coordinates >= 0 broadcasting as [k, j, i].  A mode
    whose wavenumber along an axis is 0 is evaluated on one point of that
    axis, and only the sum broadcasts it over the slab.  This is exact: with
    a zero wavenumber, `0 * coord` is +0.0 at every point of the axis, so each
    value comes from the same operations on the same operands as over the
    full shape.
    """
    out = np.zeros(np.broadcast_shapes(xn.shape, yn.shape, zn.shape))
    for kx, ky, kz, amp, phase in draws:
        x = xn if kx else xn[..., :1]
        y = yn if ky else yn[..., :1, :]
        z = zn if kz else zn[..., :1, :, :]
        # Not `out +=`: bitwise the same, but slower on 4-plane slabs of 128^3
        # (137 vs 191 ms per field, medians of 40 alternations, 2-core host).
        out = out + amp * np.sin(2 * np.pi * (kx * x + ky * y + kz * z) + phase)
    return out / len(draws)


def init_condition(kind: str, shape: GridShape, params: SchemeParams,
                   **options) -> ConservedState:
    """Build the named initial condition; unknown kinds are rejected.

    The options a kind takes are its builder's keyword parameters; any other
    is refused before the state is allocated.  Raises PositivityError at the
    first cell with a non-positive or non-finite density, or else at the first
    with a negative or non-finite pressure, or else at the first with a
    non-finite energy, naming the velocity or field that made it so.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown initial condition kind {kind!r}")
    builder = globals()[f"_ic_{kind}"]
    takes = list(inspect.signature(builder).parameters)[1:]  # after `state`
    for name in options:
        if name not in takes:
            raise ValueError(f"the {kind} initial condition takes no option {name!r}")
    state = allocate_state(shape, params)
    primitives = builder(state, **options)
    return _fill(state, params.gamma, primitives, f"in the {kind} initial condition")


def _ic_uniform(state, rho=1.0, p=1.0, v=(0.0, 0.0, 0.0), b=(0.0, 0.0, 0.0)):
    _set_faces(state, *b)
    return lambda k0, k1: (rho, v[0], v[1], v[2], p)


def _ic_advect_pulse(state, amplitude=0.5, width=None, velocity=1.0,
                     rho0=1.0, p0=1.0, profile="gaussian"):
    """Density disturbance riding on uniform velocity and pressure along x."""
    shape = state.shape
    x, _, _ = _coords(shape, 0.5)
    length = shape.n1 * shape.dx
    if profile == "gaussian":
        if width is None:
            width = length / 16.0
        center = length / 2.0
        rho = rho0 + amplitude * np.exp(-0.5 * ((x - center) / width) ** 2)
    elif profile == "sine":
        rho = rho0 + amplitude * np.sin(2 * np.pi * x / length)
    else:
        raise ValueError(f"unknown pulse profile {profile!r}")
    return lambda k0, k1: (rho, velocity, 0.0, 0.0, p0)


def _ic_sod_x(state, left=(1.0, 1.0), right=(0.125, 0.1)):
    """Classic shock-tube states split at the half point of the x axis."""
    x, _, _ = _coords(state.shape, 0.5)
    dense = x < state.shape.n1 * state.shape.dx / 2.0
    rho, p = np.where(dense, left[0], right[0]), np.where(dense, left[1], right[1])
    return lambda k0, k1: (rho, 0.0, 0.0, 0.0, p)


def _ic_brio_wu_x(state, b_normal=0.75, b_left=1.0, b_right=-1.0):
    """Magnetized shock tube: transverse field flips sign across the jump."""
    x, _, _ = _coords(state.shape, 0.5)
    dense = x < state.shape.n1 * state.shape.dx / 2.0
    # b2 faces are offset from centers along y only, so the cell's x test applies;
    # b1 is uniform and b2 has no y variation, so the face-flux balance is zero.
    _set_faces(state, b_normal, np.where(dense, b_left, b_right), 0.0)
    return _ic_sod_x(state)  # Sod's density and pressure states


def _ic_solenoidal_random(state, seed=0, amplitude=0.2, b_amplitude=0.2, modes=3,
                          mean_velocity=(0.25, 0.15, 0.1)):
    """Smooth random solenoidal field plus smooth random fluid perturbations."""
    if modes < 1:
        raise ValueError(f"the solenoidal_random initial condition needs modes >= 1, "
                         f"got modes={modes!r}")
    shape = state.shape
    rng = np.random.default_rng(seed)
    # Potentials a1..a3, then rho, p, v1, v2, v3: every draw is made up front.
    draws = [_smooth_modes(rng, modes) for _ in range(8)]
    lengths = (shape.n1 * shape.dx, shape.n2 * shape.dx, shape.n3 * shape.dx)

    cx, cy, cz = (c / n for c, n in zip(_coords(shape, 0.0), lengths))
    # The unscaled float64 faces wait in the spare block (8 * itemsize >= 24
    # bytes per cell) until the peak |b| over all of them is known.
    faces = state.spare.reshape(-1).view(np.float64)[:3 * shape.cells]
    faces = faces.reshape((3,) + shape.array_shape)
    _curl_faces(shape, faces, lambda k0, k1: [_smooth_field(d, cx, cy, cz[k0:k1])
                                              for d in draws[:3]])
    slabs = list(chunks(0, shape.n3, 8 * shape.n1 * shape.n2, _SLAB_BYTES))
    peak = max(np.abs(faces[:, k0:k1]).max() for k0, k1 in slabs)
    scale = b_amplitude / peak if peak > 0 else 0.0
    for k0, k1 in slabs:
        state.u[5:, k0:k1] = faces[:, k0:k1] * scale

    x, y, z = (c / n for c, n in zip(_coords(shape, 0.5), lengths))

    def primitives(k0, k1):
        rho, p = (1.0 + 0.5 * amplitude * _smooth_field(d, x, y, z[k0:k1])
                  for d in draws[3:5])
        v1, v2, v3 = (m + amplitude * _smooth_field(d, x, y, z[k0:k1])
                      for m, d in zip(mean_velocity, draws[5:]))
        return rho, v1, v2, v3, p
    return primitives


def _ic_orszag_tang_xy(state):
    """2D vortex in the x-y plane, extruded along z (standard normalized setup)."""
    shape = state.shape
    lx = shape.n1 * shape.dx
    ly = shape.n2 * shape.dx
    rho0 = 25.0 / (36.0 * np.pi)
    p0 = 5.0 / (12.0 * np.pi)
    b0 = 1.0 / np.sqrt(4.0 * np.pi)

    xc, yc, _ = _coords(shape, 0.0)
    a3 = (b0 * ly / (2 * np.pi)) * np.cos(2 * np.pi * yc / ly) \
        + (b0 * lx / (4 * np.pi)) * np.cos(4 * np.pi * xc / lx)
    _curl_faces(shape, state.u[5:], lambda k0, k1: (0.0, 0.0, a3))

    x, y, _ = _coords(shape, 0.5)
    v1, v2 = -np.sin(2 * np.pi * y / ly), np.sin(2 * np.pi * x / lx)
    return lambda k0, k1: (rho0, v1, v2, 0.0, p0)
