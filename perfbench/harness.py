"""Workloads, the timed run, correctness checks and metrics of the tvdmhd benchmark.

Import through ``run.py`` (or after ``run.prepare()``), which puts the
checkout's ``src`` on the path and pins numpy's BLAS pool to one thread
before numpy is imported.  Metric definitions are in README.md next to this
file.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

import numpy as np

from tvdmhd import fluid, grid, magnetic, perf, stepper
from tvdmhd.grid import GridShape, SchemeParams, discrete_divergence, face_to_center, totals
from tvdmhd.ic import init_condition
from tvdmhd.snapshot import read_snapshot, write_snapshot

from spans import Tracer, per_cycle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# One set-up sample in a fresh interpreter: `import tvdmhd` (numpy included),
# then init_condition of the workload's start state.  Prints both seconds.
SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
from tvdmhd.grid import GridShape, SchemeParams
from tvdmhd.ic import init_condition
t1 = time.perf_counter()
n, precision, seed = int(sys.argv[1]), sys.argv[2], int(sys.argv[3])
init_condition("solenoidal_random", GridShape(n, n, n), SchemeParams(precision=precision),
               seed=seed)
print(t1 - t0, time.perf_counter() - t1)
"""


@dataclass(frozen=True)
class Workload:
    """One benchmark configuration; every workload starts from solenoidal_random.

    ``snapshot_every = 0``: the per-cycle diagnostics are harness checks
    (untimed) and one snapshot round trip runs after the timed loop.
    ``snapshot_every = k > 0``: a production run, whose per-cycle diagnostics
    and a snapshot round trip every k cycles are timed with the cycles.
    ``setup_samples`` set-up samples are spread evenly over the timed loop;
    the shorter the sample, the more it takes for a steady median.
    """

    name: str
    n: int
    precision: str
    workers: int
    warmup: int
    min_cycles: int
    setup_samples: int
    snapshot_every: int = 0

    @property
    def digest_cycle(self) -> int:
        """Cycle after which the state digest is taken; every run reaches it."""
        return self.warmup + self.min_cycles


WORKLOADS = {w.name: w for w in (
    # The paper's canonical box: perf uses the published step totals here, and it
    # is the only workload on which parallel_for forks threads.
    Workload("canon128_w2", 128, "single", 2, warmup=1, min_cycles=2, setup_samples=9),
    # Plain single-threaded baseline of the same problem: parallel_for runs
    # inline, so a fork-join change must show no change here.  Run as a
    # production run, so diagnostics and snapshot IO sit beside the compute.
    Workload("serial64_w1", 64, "single", 1, warmup=1, min_cycles=5, snapshot_every=5,
             setup_samples=15),
)}

# Health bounds on the solenoidal_random start, per precision.  Drift is
# max |Q - Q0| / |Q0| over mass, the three momenta and energy; div is
# max |div b| with dx = 1 (b is O(0.2)).  Largest values seen over seeds and
# runs of up to 60 cycles (README.md): drift 1.4e-9 / 4.0e-14 and div
# 4.0e-7 / 1.1e-15 (single / double); the bounds sit about 100x above.
DRIFT_BOUND = {"single": 1e-7, "double": 4e-12}
DIV_BOUND = {"single": 4e-5, "double": 1e-13}

END_TO_END_UNITS = {
    "cycle_ms_p50": "ms", "mcups": "Mcell/s", "model_gflops": "Gflop/s",
    "setup_s": "s", "peak_rss_mb": "MiB",
}
PER_LAYER_UNITS = {
    "stepper.other_ms": "ms",
    "fluid.cfl_ms": "ms", "fluid.sweep_ms": "ms", "fluid.sweep_calls": "count",
    "fluid.sweep_model_gbps": "GB/s",
    "magnetic.sweep_ms": "ms", "magnetic.sweep_model_gbps": "GB/s",
    "grid.transpose_ms": "ms", "grid.transpose_calls": "count",
    "grid.transpose_model_gbps": "GB/s", "grid.transpose_copy_frac": "ratio",
    "grid.face_to_center_ms": "ms", "grid.totals_ms": "ms", "grid.divergence_ms": "ms",
    "parallel.forks": "count", "parallel.fork_ms": "ms", "parallel.slab_busy_ms": "ms",
    "parallel.join_wait_ms": "ms", "parallel.efficiency": "ratio",
    "snapshot.write_ms": "ms", "snapshot.read_ms": "ms", "snapshot.write_mbps": "MB/s",
    "snapshot.read_mbps": "MB/s", "snapshot.bytes": "bytes",
    "ic.init_ms": "ms",
    "perf.flop_per_cycle": "flop", "perf.model_bytes_per_cycle": "bytes",
    "bench.host_copy_gbps": "GB/s", "bench.trace_overhead_pct": "%",
}


@dataclass
class Run:
    """What the cycle loop measured; times in seconds."""

    cycle_s: list[float] = field(default_factory=list)   # untraced timed cycles
    traced_s: list[float] = field(default_factory=list)  # traced timed cycles
    op_s: float = 0.0          # timed cycles plus their timed diagnostics and IO
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digest: str | None = None  # state sha256 after Workload.digest_cycle cycles
    final_digest: str | None = None
    final_cycle: int = 0
    snapshot_bytes: int = 0

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)


def timed(tracer: Tracer | None, name: str, fn, *args, **kwargs):
    """Call fn; return (result, wall seconds), recording a span when traced."""
    t0 = time.perf_counter()
    if tracer is None:
        out = fn(*args, **kwargs)
    else:
        with tracer.span(name):
            out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def state_digest(state) -> str:
    """sha256 over shape, orientation, dtype, time, cycle and the eight arrays."""
    shape = state.shape
    h = hashlib.sha256(repr((shape.n1, shape.n2, shape.n3, tuple(shape.orientation),
                             str(state.dtype), float(state.time).hex(),
                             state.cycle)).encode())
    for _, arr in state.components():
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def _flat_totals(t) -> tuple[float, ...]:
    mass, mom, energy = t
    return (mass, *mom, energy)


def check_state(state, params, ref_totals, now_totals, max_div) -> str | None:
    """First health problem of the state, or None: finite, rho > 0, p >= 0, drift, div b."""
    for name, arr in state.components():
        if not np.isfinite(arr).all():
            return f"non-finite {name}"
    if not (state.rho > 0).all():
        return "non-positive density"
    p = fluid.gas_pressure(state.rho, state.mom1, state.mom2, state.mom3, state.e,
                           *face_to_center(state), params.gamma)
    if not (p >= 0).all():
        return "negative pressure"
    drift = max(abs(q - q0) / abs(q0) for q, q0 in zip(_flat_totals(now_totals),
                                                       _flat_totals(ref_totals)))
    if not drift <= DRIFT_BOUND[params.precision]:
        return f"conservation drift {drift:.3e} above {DRIFT_BOUND[params.precision]:g}"
    if not max_div <= DIV_BOUND[params.precision]:
        return f"max|div b| {max_div:.3e} above {DIV_BOUND[params.precision]:g}"
    return None


def same_state(a, b) -> bool:
    """Bitwise equality of shape, orientation, time, cycle and every array."""
    if (a.shape != b.shape or a.cycle != b.cycle
            or float(a.time).hex() != float(b.time).hex()):
        return False
    return all(x.dtype == y.dtype and x.tobytes() == y.tobytes()
               for (_, x), (_, y) in zip(a.components(), b.components()))


def _max_abs_div(state) -> float:
    return float(np.max(np.abs(discrete_divergence(state))))


def diagnostics(state, tracer):
    """(totals, max|div b|) and their wall seconds."""
    tot, s1 = timed(tracer, "grid.totals", totals, state)
    div, s2 = timed(tracer, "grid.divergence", _max_abs_div, state)
    return tot, div, s1 + s2


def snapshot_roundtrip(state, path: Path, tracer) -> tuple[bool, float, int]:
    """Write, read back and compare bitwise; returns (equal, IO seconds, file bytes).

    A write or read that raises counts as not equal.
    """
    try:
        _, w = timed(tracer, "snapshot.write", write_snapshot, state, path)
        size = path.stat().st_size
        back, r = timed(tracer, "snapshot.read", read_snapshot, path)
    except (OSError, ValueError):  # ValueError covers SnapshotError
        return False, 0.0, 0
    finally:
        path.unlink(missing_ok=True)
    return same_state(state, back), w + r, size


class SetupSamples:
    """Set-up times of fresh interpreters, taken at even intervals of a run.

    Each sample is one SETUP_CODE process.  Spreading the samples over the
    timed loop exposes them to the same host speed phases as the cycles;
    taking them all before the first cycle leaves them to a few seconds of
    the host's slow or fast phase.
    """

    def __init__(self, wl: Workload, seed: int):
        self.wl, self.seed = wl, seed
        self.import_s: list[float] = []
        self.init_s: list[float] = []

    def take(self) -> None:
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(self.wl.n),
                               self.wl.precision, str(self.seed)],
                              env=env, cwd=ROOT, capture_output=True, text=True,
                              check=True, timeout=120)
        import_s, init_s = (float(v) for v in proc.stdout.split())
        self.import_s.append(import_s)
        self.init_s.append(init_s)

    def catch_up(self, fraction: float) -> float:
        """Take the samples due after `fraction` of the run; returns their wall seconds."""
        t0 = time.perf_counter()
        due = 1 + int(min(fraction, 1.0) * (self.wl.setup_samples - 1))
        while len(self.init_s) < due:
            self.take()
        return time.perf_counter() - t0

    @property
    def seconds(self) -> float:
        """Median set-up time (import + init) over the samples."""
        return median(a + b for a, b in zip(self.import_s, self.init_s))


def run_cycles(wl: Workload, state, params, seconds: float,
               tracer: Tracer | None = None,
               setup_samples: SetupSamples | None = None) -> Run:
    """Warm up, then time cycles for at least `seconds` and wl.min_cycles.

    With a tracer, timed cycles alternate untraced/traced and each kind
    reaches wl.min_cycles.  A cycle that raises or leaves an unhealthy state
    counts as failed, is not timed, and ends the loop (the state is invalid).
    Set-up samples due are taken between timed cycles; their time does not
    count towards `seconds`.
    """
    run = Run()
    ref_totals = totals(state)
    OUT.mkdir(exist_ok=True)
    snap_path = OUT / f"snapshot-{wl.name}-{os.getpid()}.bin"
    production = wl.snapshot_every > 0

    def roundtrip() -> float:
        run.attempted += 1
        equal, io_s, run.snapshot_bytes = snapshot_roundtrip(state, snap_path, tracer)
        if not equal:
            run.fail(f"snapshot at cycle {state.cycle} did not read back bitwise")
        return io_s

    def one_cycle(timed_phase: bool, traced: bool) -> bool:
        run.attempted += 1
        if tracer is not None:
            tracer.run = state.cycle
        if traced:
            tracer.install(stepper, fluid, magnetic, grid)
        try:
            _, step_s = timed(tracer if traced else None, "stepper.cycle",
                              stepper.step_cycle, state, params, wl.workers)
        except (ValueError, RuntimeError) as exc:  # PositivityError, SlabError, dt errors
            run.fail(f"cycle {state.cycle}: {exc}")
            return False
        finally:
            if traced:
                tracer.uninstall()
        tot, div, diag_s = diagnostics(state, tracer)
        problem = check_state(state, params, ref_totals, tot, div)
        if problem is not None:
            run.fail(f"after cycle {state.cycle}: {problem}")
            return False
        if timed_phase:
            (run.traced_s if traced else run.cycle_s).append(step_s)
            run.op_s += step_s + (diag_s if production else 0.0)
        if production and state.cycle % wl.snapshot_every == 0:
            io_s = roundtrip()
            if timed_phase:
                run.op_s += io_s
        if state.cycle == wl.digest_cycle:
            run.digest = state_digest(state)
        return True

    for _ in range(wl.warmup):
        if not one_cycle(False, False):
            return run
    needed = wl.min_cycles * (2 if tracer is not None else 1)
    done = 0
    paused = 0.0  # set-up sampling inside the loop
    t0 = time.perf_counter()

    def elapsed() -> float:
        return time.perf_counter() - t0 - paused

    while done < needed or elapsed() < seconds:
        if not one_cycle(True, tracer is not None and done % 2 == 1):
            return run
        done += 1
        if setup_samples is not None:
            paused += setup_samples.catch_up(elapsed() / seconds if seconds > 0 else 1.0)
    if setup_samples is not None:
        setup_samples.catch_up(1.0)

    if not production:
        roundtrip()
    run.final_digest = state_digest(state)
    run.final_cycle = state.cycle
    return run


def setup(wl: Workload, seed: int, tracer: Tracer | None = None):
    """Build the start state; returns (state, params)."""
    params = SchemeParams(precision=wl.precision)
    state, _ = timed(tracer, "ic.init", init_condition, "solenoidal_random",
                     GridShape(wl.n, wl.n, wl.n), params, seed=seed)
    return state, params


def host_copy_gbps(shape, dtype) -> float:
    """Measured copy bandwidth (read + write bytes) on one state-sized array."""
    src = np.random.default_rng(0).random(shape).astype(dtype)
    dst = np.empty_like(src)
    times = []
    for _ in range(21):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        times.append(time.perf_counter() - t0)
    return 2 * src.nbytes / median(times) / 1e9


def host_info() -> dict:
    try:
        l3 = os.sysconf(os.sysconf_names.get("SC_LEVEL3_CACHE_SIZE", 194))
    except (ValueError, OSError):
        l3 = None
    rev = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        if proc.returncode == 0:
            rev = proc.stdout.strip()
    return {"cpu_count": os.cpu_count(), "l3_bytes": l3, "numpy": np.__version__,
            "python": platform.python_version(), "git_rev": rev}


def model_counts(wl: Workload) -> dict[str, float]:
    """Census flop and bytes per cycle, and TrafficModel bytes per kernel call.

    The per-cycle figures are the published totals at 128^3 single, as in
    perf.criteria; elsewhere the per-cell census times the cell count.
    """
    shape = GridShape(wl.n, wl.n, wl.n)
    fl = perf.flops_per_step(shape)
    tr = perf.bytes_per_step(shape, wl.precision)
    tm = perf.TrafficModel()
    array_bytes = shape.cells * SchemeParams(precision=wl.precision).dtype.itemsize
    if tr.canonical_read_bytes is not None:
        cycle_bytes = tr.canonical_read_bytes + tr.canonical_write_bytes
    else:
        cycle_bytes = tr.read_bytes + tr.write_bytes
    return {
        "flop_per_cycle": fl.canonical_flops if fl.canonical_flops is not None else fl.model_flops,
        "bytes_per_cycle": cycle_bytes,
        "fluid_call_bytes": (tm.fluid_reads + tm.fluid_writes) * array_bytes,
        "magnetic_call_bytes": (tm.magnetic_reads + tm.magnetic_writes) * array_bytes,
        "transpose_call_bytes": (tm.transpose_reads + tm.transpose_writes) * array_bytes,
    }


def end_to_end_metrics(wl: Workload, run: Run, setup_s: float) -> dict[str, float]:
    cycle_s = median(run.cycle_s)
    return {
        "cycle_ms_p50": cycle_s * 1e3,
        "mcups": wl.n ** 3 * len(run.cycle_s) / run.op_s / 1e6,
        "model_gflops": model_counts(wl)["flop_per_cycle"] / cycle_s / 1e9,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer_metrics(wl: Workload, run: Run, tracer: Tracer,
                      copy_gbps: float) -> dict[str, float]:
    """Per-cycle medians of the traced cycles, per-call medians for the rest.

    *_model_gbps are TrafficModel bytes divided by measured time: computed, not
    measured traffic.
    """
    rows = list(per_cycle(tracer.spans).values())
    model = model_counts(wl)

    def cyc(fn) -> float:
        return median(fn(r) for r in rows)

    def gbps(name, call_bytes) -> float:  # over the layer's whole span, children included
        return cyc(lambda r: r[f"{name}.calls"] * call_bytes / r[f"{name}.ms"]) / 1e6

    def call(name) -> float:
        return median(s.ms for s in tracer.spans if s.name == name)

    transpose_gbps = gbps("grid.transpose", model["transpose_call_bytes"])
    return {
        "stepper.other_ms": cyc(lambda r: r["stepper.cycle.self_ms"]),
        "fluid.cfl_ms": cyc(lambda r: r["fluid.cfl.self_ms"]),
        "fluid.sweep_ms": cyc(lambda r: r["fluid.sweep.self_ms"]),
        "fluid.sweep_calls": cyc(lambda r: r["fluid.sweep.calls"]),
        "fluid.sweep_model_gbps": gbps("fluid.sweep", model["fluid_call_bytes"]),
        "magnetic.sweep_ms": cyc(lambda r: r["magnetic.sweep.self_ms"]),
        "magnetic.sweep_model_gbps": gbps("magnetic.sweep", model["magnetic_call_bytes"]),
        "grid.transpose_ms": cyc(lambda r: r["grid.transpose.self_ms"]),
        "grid.transpose_calls": cyc(lambda r: r["grid.transpose.calls"]),
        "grid.transpose_model_gbps": transpose_gbps,
        "grid.transpose_copy_frac": transpose_gbps / copy_gbps,
        "grid.face_to_center_ms": cyc(lambda r: r["grid.face_to_center.self_ms"]),
        "grid.totals_ms": call("grid.totals"),
        "grid.divergence_ms": call("grid.divergence"),
        "parallel.forks": cyc(lambda r: r["parallel.fork.calls"]),
        "parallel.fork_ms": cyc(lambda r: r["parallel.fork.self_ms"]),
        "parallel.slab_busy_ms": cyc(lambda r: r["parallel.slab.self_ms"]),
        "parallel.join_wait_ms": cyc(lambda r: r["parallel.join_wait_ms"]),
        "parallel.efficiency": cyc(lambda r: r["parallel.slab.self_ms"]
                                   / r["parallel.capacity_ms"]),
        "snapshot.write_ms": call("snapshot.write"),
        "snapshot.read_ms": call("snapshot.read"),
        "snapshot.write_mbps": run.snapshot_bytes / call("snapshot.write") / 1e3,
        "snapshot.read_mbps": run.snapshot_bytes / call("snapshot.read") / 1e3,
        "snapshot.bytes": run.snapshot_bytes,
        "ic.init_ms": call("ic.init"),
        "perf.flop_per_cycle": model["flop_per_cycle"],
        "perf.model_bytes_per_cycle": model["bytes_per_cycle"],
        "bench.host_copy_gbps": copy_gbps,
        "bench.trace_overhead_pct": 100.0 * (median(run.traced_s) / median(run.cycle_s) - 1.0),
    }


def load_digests() -> dict:
    """{workload: {"cycle": n, "sha256": {seed: digest}}} from digests.json."""
    path = HERE / "digests.json"
    return json.loads(path.read_text()) if path.exists() else {}


def benchmark(wl: Workload, seed: int, seconds: float, trace: bool) -> tuple[list[str], dict]:
    """Run one workload; returns (human-readable lines, the result object)."""
    tracer = Tracer() if trace else None
    samples = None if trace else SetupSamples(wl, seed)
    if samples is not None:
        samples.catch_up(0.0)  # the first sample before anything else runs
    state, params = setup(wl, seed, tracer)
    run = run_cycles(wl, state, params, seconds, tracer, samples)
    if not run.cycle_s or (trace and not run.traced_s):
        raise RuntimeError(f"{wl.name}: no healthy timed cycle: {'; '.join(run.problems)}")

    recorded = load_digests().get(wl.name, {})
    expected = recorded.get("sha256", {}).get(str(seed))
    if expected is not None and (expected, recorded["cycle"]) != (run.digest, wl.digest_cycle):
        run.fail(f"state digest {run.digest} after cycle {wl.digest_cycle} differs from the "
                 f"recorded {expected} after cycle {recorded['cycle']}")

    if trace:
        copy_gbps = host_copy_gbps(GridShape(wl.n, wl.n, wl.n).array_shape, params.dtype)
        values = per_layer_metrics(wl, run, tracer, copy_gbps)
        units = PER_LAYER_UNITS
        span_path = OUT / f"spans-{wl.name}-seed{seed}.jsonl"
        tracer.write(span_path)
    else:
        values = end_to_end_metrics(wl, run, samples.seconds)
        units = END_TO_END_UNITS

    lines = [
        f"workload {wl.name}: {wl.n}^3 {wl.precision}, {wl.workers} worker(s), seed {seed}, "
        f"trace {int(trace)}",
        "host " + json.dumps(host_info()),
        f"cycles: {wl.warmup} warm-up, {len(run.cycle_s)} timed untraced, "
        f"{len(run.traced_s)} timed traced; untraced ms min/median/max "
        f"{min(run.cycle_s) * 1e3:.1f}/{median(run.cycle_s) * 1e3:.1f}/"
        f"{max(run.cycle_s) * 1e3:.1f}",
    ]
    if samples is not None:
        lines.append(f"setup: import s {', '.join(f'{s:.4f}' for s in samples.import_s)}; "
                     f"init s {', '.join(f'{s:.4f}' for s in samples.init_s)}")
    lines += [
        f"state_sha256 after cycle {wl.digest_cycle}: {run.digest}",
        f"final state_sha256 after cycle {run.final_cycle}: {run.final_digest}",
        f"fail_frac {run.failed / run.attempted:.6g} ({run.failed} of {run.attempted} "
        f"operations)",
    ]
    lines += [f"problem: {p}" for p in run.problems]
    if trace:
        lines.append(f"spans written to {span_path.relative_to(ROOT)}; *_model_gbps are "
                     "TrafficModel bytes / measured time (computed, not measured traffic)")
    lines += [f"{name} {values[name]:.6g} {unit}" for name, unit in units.items()]

    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    return lines, result
