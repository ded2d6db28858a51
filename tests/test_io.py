import errno
import io
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvdmhd import (ConservedState, GridShape, SchemeParams, allocate_state,
                    discrete_divergence, face_to_center, init_condition, read_snapshot,
                    slice_export, totals, transpose, write_snapshot)
from tvdmhd.snapshot import MAGIC, SnapshotError
from tvdmhd import fluid, ic, snapshot

from conftest import random_state, state_bytes


# --- initial conditions -------------------------------------------------------

def test_uniform_totals(params):
    state = init_condition("uniform", GridShape(16, 16, 16), params)
    mass, _, _ = totals(state)
    assert mass == 16 ** 3 * state.shape.dx ** 3


def test_unknown_kind_rejected(params):
    with pytest.raises(ValueError, match="unknown initial condition kind"):
        init_condition("vortex_sheet", GridShape(8, 8, 8), params)


def test_solenoidal_random_divergence(params):
    state = init_condition("solenoidal_random", GridShape(16, 16, 16), params, seed=7)
    bmax = max(abs(getattr(state, f"b{i}")).max() for i in (1, 2, 3))
    assert bmax > 0
    assert abs(discrete_divergence(state)).max() <= 1e-13 * bmax / state.shape.dx


def test_solenoidal_random_is_seeded(params):
    a = init_condition("solenoidal_random", GridShape(8, 8, 8), params, seed=3)
    b = init_condition("solenoidal_random", GridShape(8, 8, 8), params, seed=3)
    c = init_condition("solenoidal_random", GridShape(8, 8, 8), params, seed=4)
    assert state_bytes(a) == state_bytes(b)
    assert state_bytes(a) != state_bytes(c)


@pytest.mark.parametrize("modes", [0, -1])
def test_solenoidal_random_needs_a_mode(monkeypatch, params, modes):
    def no_field(*args):
        raise AssertionError("a field was built before modes was checked")
    monkeypatch.setattr(ic, "_smooth_field", no_field)
    with pytest.raises(ValueError, match=rf"^the solenoidal_random initial condition needs "
                                         rf"modes >= 1, got modes={modes}$"):
        init_condition("solenoidal_random", GridShape(8, 8, 8), params, modes=modes)


def _full_shape_field(draws, xn, yn, zn):
    # Every mode evaluated at every cell of the broadcast shape.
    out = np.zeros(np.broadcast_shapes(xn.shape, yn.shape, zn.shape))
    for kx, ky, kz, amp, phase in draws:
        out = out + amp * np.sin(2 * np.pi * (kx * xn + ky * yn + kz * zn) + phase)
    return out / len(draws)


@pytest.mark.parametrize("offset", [0.0, 0.5], ids=["corners", "centers"])
@pytest.mark.parametrize("k0, k1", [(3, 4), (5, 11)], ids=["one-plane", "six-planes"])
def test_smooth_field_is_bitwise_the_full_shape_sum(offset, k0, k1):
    # All 125 wavevectors of {-2..2}^3, alone and summed.  At the corners a
    # coordinate is 0.0, where a negative wavenumber gives -0.0; one phase is 0.0.
    shape = GridShape(8, 12, 16, 0.5)
    lengths = (shape.n1 * shape.dx, shape.n2 * shape.dx, shape.n3 * shape.dx)
    xn, yn, zn = (c / n for c, n in zip(ic._coords(shape, offset), lengths))
    zn = zn[k0:k1]
    rng = np.random.default_rng(11)
    ks = np.array(list(np.ndindex(5, 5, 5)), dtype=np.int64) - 2
    draws = [(kx, ky, kz, rng.uniform(0.3, 1.0), rng.uniform(0, 2 * np.pi)) for kx, ky, kz in ks]
    draws[62] = (*draws[62][:4], 0.0)  # k = (0, 0, 0)
    draws[57] = (*draws[57][:4], 0.0)  # k = (0, -1, 0)
    for mode in draws:
        got = ic._smooth_field([mode], xn, yn, zn)
        assert got.shape == (k1 - k0, shape.n2, shape.n1)
        assert got.tobytes() == _full_shape_field([mode], xn, yn, zn).tobytes(), mode[:3]
    assert ic._smooth_field(draws, xn, yn, zn).tobytes() == \
        _full_shape_field(draws, xn, yn, zn).tobytes()


def test_sod_states(params):
    state = init_condition("sod_x", GridShape(16, 8, 8), params)
    assert (state.rho[:, :, :8] == 1.0).all()
    assert (state.rho[:, :, 8:] == 0.125).all()
    assert (state.mom1 == 0).all() and (state.b2 == 0).all()
    bc = face_to_center(state)
    p = fluid.gas_pressure(state.rho, state.mom1, state.mom2, state.mom3,
                           state.e, *bc, params.gamma)
    assert np.allclose(p[:, :, :8], 1.0) and np.allclose(p[:, :, 8:], 0.1)


def test_brio_wu_states(params):
    state = init_condition("brio_wu_x", GridShape(16, 8, 8), params)
    assert np.allclose(state.b1, 0.75)
    assert (state.b2[:, :, :8] == 1.0).all()
    assert (state.b2[:, :, 8:] == -1.0).all()
    assert abs(discrete_divergence(state)).max() == 0.0


def test_orszag_tang_pressure_and_field(params):
    state = init_condition("orszag_tang_xy", GridShape(32, 32, 8), params)
    bc = face_to_center(state)
    p = fluid.gas_pressure(state.rho, state.mom1, state.mom2, state.mom3,
                           state.e, *bc, params.gamma)
    assert np.allclose(p, 5.0 / (12.0 * np.pi), rtol=1e-12)
    assert np.allclose(state.rho, 25.0 / (36.0 * np.pi), rtol=1e-12)
    assert abs(discrete_divergence(state)).max() <= 1e-15
    # face fields follow the analytic profile at face positions
    b0 = 1.0 / np.sqrt(4.0 * np.pi)
    y_face = np.arange(32) / 32.0
    expect_b1 = -b0 * np.sin(2 * np.pi * (y_face + 0.5 / 32))
    got = state.b1[0, :, 0]
    # discrete difference of the potential: second-order offset from the analytic value
    assert np.allclose(got, expect_b1, atol=b0 * (2 * np.pi / 32) ** 2)


def test_positivity_guard_in_builders(params):
    with pytest.raises(ValueError, match="pressure"):
        init_condition("uniform", GridShape(8, 8, 8), params, p=-1.0)
    with pytest.raises(ValueError, match="density"):
        init_condition("uniform", GridShape(8, 8, 8), params, rho=0.0)


@pytest.mark.parametrize("option, name", [("rho", "density"), ("p", "pressure")])
def test_nan_start_state_rejected(params, option, name):
    with pytest.raises(fluid.PositivityError,
                       match=rf"^non-finite {name} at cell \(0, 0, 0\) in the uniform"):
        init_condition("uniform", GridShape(8, 8, 8), params, **{option: float("nan")})


@pytest.mark.parametrize("kind, option", [
    ("sod_x", "amplitude"), ("uniform", "seed"), ("advect_pulse", "b_amplitude"),
    ("orszag_tang_xy", "width"), ("solenoidal_random", "profile"), ("brio_wu_x", "state"),
])
def test_option_the_builder_does_not_take_is_refused(monkeypatch, params, kind, option):
    def no_allocation(*args):
        raise AssertionError("allocated before the options were checked")
    monkeypatch.setattr(ic, "allocate_state", no_allocation)
    with pytest.raises(ValueError, match=rf"^the {kind} initial condition takes no option "
                                         rf"'{option}'$"):
        init_condition(kind, GridShape(8, 8, 8), params, **{option: 1.0})


@pytest.mark.parametrize("kind, options, name, precision", [
    ("advect_pulse", {"velocity": float("inf")}, "velocity", "double"),
    ("uniform", {"v": (0.0, float("nan"), 0.0)}, "velocity", "double"),
    ("uniform", {"b": (float("nan"), 0.0, 0.0)}, "magnetic field", "double"),
    ("uniform", {"b": (0.0, 0.0, float("-inf"))}, "magnetic field", "double"),
    ("uniform", {"rho": float("inf")}, "density", "double"),
    ("uniform", {"p": float("inf")}, "pressure", "double"),
    ("advect_pulse", {"velocity": 1e20}, "energy", "single"),  # beyond float32 only
])
def test_non_finite_start_state_names_the_cell(kind, options, name, precision):
    with pytest.raises(fluid.PositivityError,
                       match=rf"^non-finite {name} at cell \(0, 0, 0\) in the {kind} "
                             r"initial condition$"):
        init_condition(kind, GridShape(8, 8, 8), SchemeParams(precision=precision), **options)


@pytest.mark.parametrize("bad, message", [
    ("density", r"^non-positive density at cell \(3, 2, 5\) here$"),
    ("pressure", r"^negative pressure at cell \(3, 2, 5\) here$"),
    (None, r"^non-finite velocity at cell \(1, 1, 0\) here$"),
], ids=["density-on-plane-5", "pressure-on-plane-5", "velocity-only"])
@pytest.mark.parametrize("slab_bytes", [ic._SLAB_BYTES, 1], ids=["one-slab", "one-plane"])
def test_fill_reports_a_non_finite_velocity_after_any_positivity_failure(
        monkeypatch, params, slab_bytes, bad, message):
    # The velocity is infinite on planes 0 and 6; the density or pressure
    # fails on plane 5, after the first infinite velocity.
    monkeypatch.setattr(ic, "_SLAB_BYTES", slab_bytes)
    shape = GridShape(8, 8, 8)
    rho, p, v1 = (np.ones(shape.array_shape) for _ in range(3))
    v1[0, 1, 1] = v1[6, 0, 0] = np.inf
    if bad == "density":
        rho[5, 2, 3] = 0.0
    elif bad == "pressure":
        p[5, 2, 3] = -1.0
    state = allocate_state(shape, params)
    with pytest.raises(fluid.PositivityError, match=message):
        ic._fill(state, params.gamma,
                 lambda k0, k1: (rho[k0:k1], v1[k0:k1], 0.0, 0.0, p[k0:k1]), "here")


@pytest.mark.parametrize("slab_bytes", [ic._SLAB_BYTES, 1], ids=["default-slabs", "one-plane"])
def test_start_state_failure_names_the_first_cell_for_any_slab_size(monkeypatch, slab_bytes):
    # Recorded from the whole-grid build.
    monkeypatch.setattr(ic, "_SLAB_BYTES", slab_bytes)
    with pytest.raises(fluid.PositivityError, match=r"^non-positive density at cell "
                       r"\(2, 3, 17\) in the solenoidal_random initial condition$"):
        init_condition("solenoidal_random", GridShape(32, 32, 32), SchemeParams(),
                       seed=0, amplitude=2.5)


@pytest.mark.parametrize("bad_rho, message", [
    (True, r"^non-positive density at cell \(3, 2, 5\) here$"),
    (False, r"^negative pressure at cell \(1, 1, 0\) here$"),
], ids=["density-on-plane-5", "pressure-only"])
@pytest.mark.parametrize("slab_bytes", [ic._SLAB_BYTES, 1], ids=["one-slab", "one-plane"])
def test_fill_reports_a_density_failure_before_an_earlier_pressure_failure(
        monkeypatch, params, slab_bytes, bad_rho, message):
    # The pressure fails on planes 0 and 6, the density (when bad) on plane 5:
    # as in one whole-grid check, every density is checked first.
    monkeypatch.setattr(ic, "_SLAB_BYTES", slab_bytes)
    shape = GridShape(8, 8, 8)
    rho, p = np.ones(shape.array_shape), np.ones(shape.array_shape)
    p[0, 1, 1] = p[6, 0, 0] = -1.0
    if bad_rho:
        rho[5, 2, 3] = 0.0
    state = allocate_state(shape, params)
    with pytest.raises(fluid.PositivityError, match=message):
        ic._fill(state, params.gamma, lambda k0, k1: (rho[k0:k1], 0.0, 0.0, 0.0, p[k0:k1]),
                 "here")


def test_solenoidal_random_build_memory_is_bounded():
    # Built in k-slabs, every temporary is slab-sized: a 96^3 grid is 14 slabs
    # of 7 planes, 516 KiB per float64 field.
    shape, params = GridShape(96, 96, 96), SchemeParams(precision="single")
    tracemalloc.start()
    try:
        init_condition("solenoidal_random", shape, params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20


# --- snapshots -----------------------------------------------------------------

def test_snapshot_round_trip_bitwise(tmp_path, params):
    state = random_state(GridShape(16, 12, 8), params, seed=1)
    state.time, state.cycle = 1.25, 7
    path = tmp_path / "state.snap"
    write_snapshot(state, path)
    back = read_snapshot(path)
    assert back.shape == state.shape
    assert back.time == 1.25 and back.cycle == 7
    assert state_bytes(back) == state_bytes(state)


def test_snapshot_round_trip_non_canonical_orientation(tmp_path, params):
    state = random_state(GridShape(8, 12, 16), params, seed=2)
    transpose(state)
    path = tmp_path / "state.snap"
    write_snapshot(state, path)
    back = read_snapshot(path)
    assert back.shape.orientation == ("y", "z", "x")
    assert state_bytes(back) == state_bytes(state)


def test_snapshot_round_trip_single_precision(tmp_path):
    params = SchemeParams(precision="single")
    state = random_state(GridShape(8, 8, 8), params, seed=3)
    path = tmp_path / "state32.snap"
    write_snapshot(state, path)
    back = read_snapshot(path)
    assert back.rho.dtype == np.float32
    assert state_bytes(back) == state_bytes(state)


def test_snapshot_bytes_are_header_then_components_in_order(tmp_path):
    # Oracle of the v1 layout: header, then each component's little-endian
    # values in COMPONENT_NAMES order, in the state's current orientation.
    params = SchemeParams(precision="single")
    state = random_state(GridShape(8, 12, 16), params, seed=8)
    transpose(state)
    state.time, state.cycle = 0.375, 11
    path = tmp_path / "layout.snap"
    write_snapshot(state, path)
    header = struct.pack("<8sIIIIBB6xddq", MAGIC, 1, 12, 16, 8, 1, 4, 1.0, 0.375, 11)
    payload = b"".join(a.astype("<f4").tobytes() for _, a in state.components())
    assert len(header) == 56
    assert path.read_bytes() == header + payload


def test_a_failed_snapshot_write_leaves_the_previous_snapshot(tmp_path, params, monkeypatch):
    path = tmp_path / "state.snap"
    write_snapshot(random_state(GridShape(8, 8, 8), params, seed=1), path)
    before = path.read_bytes()

    class DiskFull(io.FileIO):
        # Writes the header, then 100 bytes of the payload, then fails.
        def write(self, data):
            if self.tell():
                super().write(memoryview(data).cast("B")[:100])
                raise OSError(errno.ENOSPC, "No space left on device")
            return super().write(data)

    monkeypatch.setattr(snapshot, "open", DiskFull, raising=False)
    with pytest.raises(OSError, match="No space left on device"):
        write_snapshot(random_state(GridShape(8, 8, 8), params, seed=2), path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["state.snap"]


def test_snapshot_wrong_magic(tmp_path):
    path = tmp_path / "junk.snap"
    path.write_bytes(b"NOTASNAP" + b"\x00" * 64)
    with pytest.raises(SnapshotError, match="not a snapshot file"):
        read_snapshot(path)


def test_snapshot_truncated_payload(tmp_path, params):
    state = random_state(GridShape(8, 8, 8), params, seed=4)
    path = tmp_path / "cut.snap"
    write_snapshot(state, path)
    data = path.read_bytes()
    # cut into the sixth component (b1)
    cut = 56 + 8 ** 3 * 8 * 5 + 100
    path.write_bytes(data[:cut])
    with pytest.raises(SnapshotError, match="truncated payload at component b1"):
        read_snapshot(path)


@pytest.mark.parametrize("extra", [1, 1000])
def test_snapshot_bytes_past_the_payload_rejected(tmp_path, params, extra):
    state = random_state(GridShape(8, 8, 8), params, seed=4)
    path = tmp_path / "long.snap"
    write_snapshot(state, path)
    path.write_bytes(path.read_bytes() + b"\x00" * extra)
    with pytest.raises(SnapshotError, match="bytes past the end of the payload"):
        read_snapshot(path)


def test_snapshot_future_version_rejected(tmp_path, params):
    state = random_state(GridShape(8, 8, 8), params, seed=5)
    path = tmp_path / "future.snap"
    write_snapshot(state, path)
    data = bytearray(path.read_bytes())
    data[8:12] = (99).to_bytes(4, "little")
    path.write_bytes(bytes(data))
    with pytest.raises(SnapshotError, match="unsupported snapshot version"):
        read_snapshot(path)


@pytest.mark.parametrize("offset, fmt, value, message", [
    (8, "<I", 0, "unsupported snapshot version 0"),
    (40, "<d", float("nan"), "non-finite time nan"),
    (40, "<d", float("-inf"), "non-finite time -inf"),
    (48, "<q", -7, "negative cycle -7"),
], ids=["version-0", "time-nan", "time-minus-inf", "cycle-negative"])
def test_snapshot_header_field_out_of_range_rejected_before_allocating(
        tmp_path, params, monkeypatch, offset, fmt, value, message):
    # From a NaN or -inf time, a run to t_end would never stop.
    path = tmp_path / "odd.snap"
    write_snapshot(random_state(GridShape(8, 8, 8), params, seed=5), path)
    data = bytearray(path.read_bytes())
    struct.pack_into(fmt, data, offset, value)
    path.write_bytes(bytes(data))

    def allocate(*args):
        raise AssertionError("the state was allocated before the header was checked")
    monkeypatch.setattr(ConservedState, "zeros", allocate)
    with pytest.raises(SnapshotError, match=f"^{re.escape(str(path))}: {message}$"):
        read_snapshot(path)


def test_snapshot_bad_shape_rejected(tmp_path, params):
    state = random_state(GridShape(8, 8, 8), params, seed=6)
    path = tmp_path / "bad.snap"
    write_snapshot(state, path)
    data = bytearray(path.read_bytes())
    data[12:16] = (13).to_bytes(4, "little")  # n1 = 13: not a multiple of 4
    path.write_bytes(bytes(data))
    with pytest.raises(SnapshotError, match="shape mismatch"):
        read_snapshot(path)


# --- slice export ----------------------------------------------------------------

def test_slice_uniform_entropy_constant(tmp_path, params):
    state = init_condition("uniform", GridShape(16, 12, 8), params, rho=2.0, p=0.5)
    path = tmp_path / "plane.tsv"
    slice_export(state, ("z", 3), path, gamma=params.gamma)
    rows = [line.split("\t") for line in path.read_text().splitlines()[1:]]
    assert len(rows) == 16 * 12
    entropy = {float(r[2]) for r in rows}
    expect = 0.5 / 2.0 ** params.gamma
    assert all(abs(s - expect) < 1e-12 for s in entropy)


def test_slice_orszag_tang_matches_analytic_entropy(tmp_path, params):
    state = init_condition("orszag_tang_xy", GridShape(32, 32, 8), params)
    path = tmp_path / "ot.tsv"
    slice_export(state, ("z", 0), path, gamma=params.gamma)
    rho0 = 25.0 / (36.0 * np.pi)
    p0 = 5.0 / (12.0 * np.pi)
    expect = p0 / rho0 ** params.gamma
    lines = path.read_text().splitlines()
    header = lines[0].split("\t")
    assert header[3:] == ["b_x", "b_y"]
    for line in lines[1:]:
        parts = line.split("\t")
        assert float(parts[2]) == pytest.approx(expect, rel=1e-10)


def test_slice_index_out_of_range(tmp_path, params):
    state = init_condition("uniform", GridShape(16, 12, 8), params)
    with pytest.raises(ValueError, match="out of range"):
        slice_export(state, ("z", 8), tmp_path / "x.tsv")
    with pytest.raises(ValueError, match="unknown plane axis"):
        slice_export(state, ("w", 0), tmp_path / "x.tsv")
