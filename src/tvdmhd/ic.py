"""Initial conditions.

Every builder writes the face fields of a canonical-orientation state and
returns the primitives (rho, v1, v2, v3, p), each a scalar or an array that
broadcasts over the grid; `init_condition` then fills the conserved variables
on one path.  That path checks the density and pressure with the solver's own
`check_positive`, so a non-positive or non-finite value fails with the cell
and the initial condition named.  The total energy is assembled in float64 as
internal + kinetic + magnetic (with cell-centered field values), so the gas
pressure recovered by the solver matches the requested one to roundoff.  Face
fields that need to be divergence-free are built as the discrete curl of an
edge vector potential, which zeroes the face-flux balance identically.

Cell centers sit at ((i + 1/2) dx, ...); lower faces and edges sit on the
integer lattice (i dx, ...).
"""

from __future__ import annotations

import numpy as np

from .fluid import check_positive
from .grid import ConservedState, GridShape, SchemeParams, allocate_state, face_to_center

KINDS = ("uniform", "advect_pulse", "sod_x", "brio_wu_x", "solenoidal_random",
         "orszag_tang_xy")


def _coords(shape: GridShape, offset: float):
    # (x, y, z) broadcast over [k, j, i]: cell centers at offset 0.5, corners at 0.
    x, y, z = ((np.arange(n) + offset) * shape.dx for n in (shape.n1, shape.n2, shape.n3))
    return x, y[:, np.newaxis], z[:, np.newaxis, np.newaxis]


def _fill(state: ConservedState, gamma, rho, v1, v2, v3, p, where: str) -> ConservedState:
    """Set conserved variables from broadcastable primitives; b faces must already be in place."""
    shape = state.shape.array_shape
    rho, p = (np.broadcast_to(np.asarray(a, dtype=np.float64), shape) for a in (rho, p))
    check_positive(rho, p, state.shape, where)
    v1, v2, v3 = np.asarray(v1), np.asarray(v2), np.asarray(v3)
    kinetic = 0.5 * rho * (v1 ** 2 + v2 ** 2 + v3 ** 2)
    sq1, sq2, sq3 = (np.square(bc, dtype=np.float64) for bc in face_to_center(state))
    state.e[...] = p / (gamma - 1.0) + kinetic + 0.5 * (sq1 + sq2 + sq3)
    del kinetic, sq1, sq2, sq3  # free these float64 grids before the momenta are formed
    state.rho[...] = rho
    state.mom1[...] = rho * v1
    state.mom2[...] = rho * v2
    state.mom3[...] = rho * v3
    return state


def _curl_faces(shape: GridShape, a1, a2, a3):
    """Face fields from an edge vector potential: exactly divergence-free."""
    dx = shape.dx
    a1, a2, a3 = (np.broadcast_to(a, shape.array_shape) for a in (a1, a2, a3))
    b1 = (np.roll(a3, -1, axis=1) - a3 - np.roll(a2, -1, axis=0) + a2) / dx
    b2 = (np.roll(a1, -1, axis=0) - a1 - np.roll(a3, -1, axis=2) + a3) / dx
    b3 = (np.roll(a2, -1, axis=2) - a2 - np.roll(a1, -1, axis=1) + a1) / dx
    return b1, b2, b3


def _set_faces(state: ConservedState, b1, b2, b3) -> None:
    state.b1[...] = b1
    state.b2[...] = b2
    state.b3[...] = b3


def _smooth_field(rng, xn, yn, zn, modes: int) -> np.ndarray:
    """Random superposition of low-wavenumber sines; values O(1)."""
    out = np.zeros(np.broadcast_shapes(xn.shape, yn.shape, zn.shape))
    for _ in range(modes):
        kx, ky, kz = rng.integers(-2, 3, size=3)
        amp = rng.uniform(0.3, 1.0)
        phase = rng.uniform(0, 2 * np.pi)
        # Not `out +=`: bitwise the same, but slower and more page faults at 128^3.
        out = out + amp * np.sin(2 * np.pi * (kx * xn + ky * yn + kz * zn) + phase)
    return out / modes


def init_condition(kind: str, shape: GridShape, params: SchemeParams,
                   **options) -> ConservedState:
    """Build the named initial condition; unknown kinds are rejected.

    Raises PositivityError at the first cell with a non-positive or
    non-finite density, or a negative or non-finite pressure.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown initial condition kind {kind!r}")
    state = allocate_state(shape, params)
    primitives = globals()[f"_ic_{kind}"](state, **options)
    return _fill(state, params.gamma, *primitives, f"in the {kind} initial condition")


def _ic_uniform(state, rho=1.0, p=1.0, v=(0.0, 0.0, 0.0), b=(0.0, 0.0, 0.0)):
    _set_faces(state, *b)
    return rho, v[0], v[1], v[2], p


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
    return rho, velocity, 0.0, 0.0, p0


def _ic_sod_x(state, left=(1.0, 1.0), right=(0.125, 0.1)):
    """Classic shock-tube states split at the half point of the x axis."""
    x, _, _ = _coords(state.shape, 0.5)
    dense = x < state.shape.n1 * state.shape.dx / 2.0
    return np.where(dense, left[0], right[0]), 0.0, 0.0, 0.0, np.where(dense, left[1], right[1])


def _ic_brio_wu_x(state, b_normal=0.75, b_left=1.0, b_right=-1.0):
    """Magnetized shock tube: transverse field flips sign across the jump."""
    x, _, _ = _coords(state.shape, 0.5)
    dense = x < state.shape.n1 * state.shape.dx / 2.0
    # b2 faces are offset from centers along y only, so the cell's x test applies;
    # b1 is uniform and b2 has no y variation, so the face-flux balance is zero.
    _set_faces(state, b_normal, np.where(dense, b_left, b_right), 0.0)
    return np.where(dense, 1.0, 0.125), 0.0, 0.0, 0.0, np.where(dense, 1.0, 0.1)


def _ic_solenoidal_random(state, seed=0, fluid_amplitude=0.2, b_amplitude=0.2, modes=3,
                          mean_velocity=(0.25, 0.15, 0.1)):
    """Smooth random solenoidal field plus smooth random fluid perturbations."""
    shape = state.shape
    rng = np.random.default_rng(seed)
    lengths = (shape.n1 * shape.dx, shape.n2 * shape.dx, shape.n3 * shape.dx)

    corners = [c / n for c, n in zip(_coords(shape, 0.0), lengths)]
    b = _curl_faces(shape, *[_smooth_field(rng, *corners, modes) for _ in range(3)])
    peak = max(np.abs(bi).max() for bi in b)
    scale = b_amplitude / peak if peak > 0 else 0.0
    _set_faces(state, *(bi * scale for bi in b))
    del b  # the unscaled faces go before the fluid fields exist

    centers = [c / n for c, n in zip(_coords(shape, 0.5), lengths)]
    rho, p = (1.0 + 0.5 * fluid_amplitude * _smooth_field(rng, *centers, modes)
              for _ in range(2))
    v1, v2, v3 = (m + fluid_amplitude * _smooth_field(rng, *centers, modes)
                  for m in mean_velocity)
    return rho, v1, v2, v3, p


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
    _set_faces(state, *_curl_faces(shape, 0.0, 0.0, a3))

    x, y, _ = _coords(shape, 0.5)
    return rho0, -np.sin(2 * np.pi * y / ly), np.sin(2 * np.pi * x / lx), 0.0, p0
