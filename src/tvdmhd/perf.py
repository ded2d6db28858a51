"""Operation/traffic accounting model and the four comparison metrics.

The model counts, per cell and per step, the floating-point work and the
real-number memory traffic of the reference step composition (1 CFL
evaluation, 6 fluid sweeps, 6 magnetic sweeps, 4 transposes).  Alongside the
per-cell census the module carries the canonical step totals for the 128^3
box that the bundled reference measurements were published against: those
totals sit ~7.4% below census x 128^3 - the ratio matches (128/125)^3, i.e.
an effective 125^3 active-cell count - and they are the source of truth for
the fraction metrics so the bundled comparison table reproduces exactly.

The module also reads the ``key = value`` text of run configs and machine files.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields
from importlib import resources
from pathlib import Path

from .grid import SchemeParams

GB = 1.0e9
BASELINE_LABEL = "x86(1)"


class OpCountModel:
    """Per-cell per-step operation census; divisions and square roots count 1 flop."""

    add = 466
    sub = 598
    mul = 1174
    div = 125
    sqrt = 3
    flop_per_cell = add + sub + mul + div + sqrt
    canonical_step_gflop_128 = 4.62


class TrafficModel:
    """Per-cell real reads/writes of each kernel and their per-step multiplicities."""

    cfl_reads = 11
    fluid_reads = 10
    fluid_writes = 5
    magnetic_reads = 14
    magnetic_writes = 6
    transpose_reads = 8
    transpose_writes = 8
    n_cfl = 1
    n_fluid = 6
    n_magnetic = 6
    n_transpose = 4
    reads_per_cell = (n_cfl * cfl_reads + n_fluid * fluid_reads + n_magnetic * magnetic_reads
                      + n_transpose * transpose_reads)
    writes_per_cell = (n_fluid * fluid_writes + n_magnetic * magnetic_writes
                       + n_transpose * transpose_writes)
    canonical_step_read_gb_128 = 1.46
    canonical_step_write_gb_128 = 0.77


@dataclass
class MachineSpec:
    """One machine record: theoretical peaks plus optional power and reference timing."""

    label: str
    peak_gflops: float | None = None
    peak_gbps: float | None = None
    watts: float | None = None
    reference_runtime_ms_128: float | None = None

    def __post_init__(self):
        for name in ("peak_gflops", "peak_gbps", "reference_runtime_ms_128"):
            v = getattr(self, name)
            if v is not None and not v > 0:
                raise ValueError(f"{name} must be positive, got {v}")
            if v == math.inf:
                raise ValueError(f"{name} must be finite, got {v}")


def _box(shape) -> tuple[int, bool]:
    """Cell count of a GridShape or (n1, n2, n3) tuple, and whether it is the 128^3 box."""
    n1, n2, n3 = (shape.n1, shape.n2, shape.n3) if hasattr(shape, "n1") else shape
    return n1 * n2 * n3, (n1, n2, n3) == (128, 128, 128)


@dataclass(frozen=True)
class FlopEstimate:
    model_flops: float
    canonical_flops: float | None


def flops_per_step(shape) -> FlopEstimate:
    """Census flops for one step; the canonical total rides along at the 128^3 box."""
    cells, box = _box(shape)
    flops = float(OpCountModel.flop_per_cell) * cells
    canonical = OpCountModel.canonical_step_gflop_128 * 1e9 if box else None
    return FlopEstimate(flops, canonical)


@dataclass(frozen=True)
class TrafficEstimate:
    read_bytes: float
    write_bytes: float
    canonical_read_bytes: float | None
    canonical_write_bytes: float | None


def bytes_per_step(shape, precision: str = "single") -> TrafficEstimate:
    """Census traffic for one step at the real width of `precision` (see `SchemeParams`)."""
    width = SchemeParams(precision=precision).dtype.itemsize
    cells, box = _box(shape)
    reads = float(TrafficModel.reads_per_cell) * cells * width
    writes = float(TrafficModel.writes_per_cell) * cells * width
    canonical = box and precision == "single"
    return TrafficEstimate(
        reads, writes,
        TrafficModel.canonical_step_read_gb_128 * GB if canonical else None,
        TrafficModel.canonical_step_write_gb_128 * GB if canonical else None,
    )


@dataclass(frozen=True)
class CriteriaReport:
    """The four comparison metrics; fractions are percentages."""

    code_speedup: float
    fractional_speedup: float
    flops_fraction_pct: float
    bandwidth_fraction_pct: float


def check_baseline(baseline: MachineSpec) -> MachineSpec:
    """Return `baseline` if it holds what `criteria` needs of a baseline; else raise ValueError."""
    if baseline.reference_runtime_ms_128 is None:
        raise ValueError(f"baseline {baseline.label!r} has no reference runtime")
    if baseline.peak_gflops is None:
        raise ValueError(f"baseline {baseline.label!r} is missing peak figures")
    return baseline


def criteria(runtime_ms: float, machine: MachineSpec, baseline: MachineSpec) -> CriteriaReport:
    """Comparison metrics for a per-step runtime of the 128^3 box against a baseline machine.

    The fraction metrics use the published step totals of that box.
    """
    if not runtime_ms > 0:
        raise ValueError(f"runtime must be positive, got {runtime_ms}")
    check_baseline(baseline)
    if machine.peak_gflops is None or machine.peak_gbps is None:
        raise ValueError(f"machine {machine.label!r} is missing peak figures")

    seconds = runtime_ms / 1e3
    tr = bytes_per_step((128, 128, 128), "single")
    step_flops = flops_per_step((128, 128, 128)).canonical_flops
    step_bytes = tr.canonical_read_bytes + tr.canonical_write_bytes

    code_speedup = baseline.reference_runtime_ms_128 / runtime_ms
    peak_ratio = machine.peak_gflops / baseline.peak_gflops
    fractional = code_speedup / peak_ratio
    flops_pct = 100.0 * (step_flops / seconds) / (machine.peak_gflops * 1e9)
    bw_pct = 100.0 * (step_bytes / seconds) / (machine.peak_gbps * GB)
    return CriteriaReport(code_speedup, fractional, flops_pct, bw_pct)


# ---------------------------------------------------------------------------
# "key = value" text: run configs, and machine files of blank-line separated
# records

class ConfigError(ValueError):
    """Bad configuration text; the message names the key and line."""


_COMMENT = re.compile(r"(?:^|\s)#.*")


def read_records(text: str, keys) -> list[dict[str, tuple[int, str]]]:
    """The blank-line separated records of text, each as key -> (line, raw value).

    '#' starts a comment at the start of a line or after whitespace, so a
    value may hold a '#' of its own ('out = runs/a#1.snap').  A line that is
    not 'key = value', or whose key is not in keys, raises ConfigError naming
    the line.
    """
    records: list[dict[str, tuple[int, str]]] = [{}]
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = _COMMENT.sub("", line, count=1).strip()
        if not stripped:
            records.append({})
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line.strip()!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in keys:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        records[-1][key] = (lineno, raw.strip())
    return [record for record in records if record]


def parse_machines(text: str) -> dict[str, MachineSpec]:
    """Parse machine records; an empty numeric value becomes None.  Errors name the line."""
    machines: dict[str, MachineSpec] = {}
    for record in read_records(text, {f.name for f in fields(MachineSpec)}):
        first = min(lineno for lineno, _ in record.values())
        if "label" not in record:
            raise ConfigError(f"line {first}: machine record has no label")
        values = {}
        for key, (lineno, raw) in record.items():
            try:
                values[key] = raw if key == "label" else float(raw) if raw else None
            except ValueError:
                raise ConfigError(f"line {lineno}: invalid value for {key!r}: {raw!r}") from None
        try:
            machines[values["label"]] = MachineSpec(**values)
        except ValueError as exc:
            raise ConfigError(f"line {first}: {exc}") from None
    return machines


def format_machine(spec: MachineSpec) -> str:
    lines = [f"label = {spec.label}"]
    for f in fields(MachineSpec)[1:]:
        v = getattr(spec, f.name)
        lines.append(f"{f.name} = {'' if v is None else f'{v:g}'}")
    return "\n".join(lines) + "\n"


def load_machines(path: str | Path | None = None) -> dict[str, MachineSpec]:
    """Machine specs from a file, or the bundled reference set when path is None."""
    if path is None:
        text = resources.files(__package__).joinpath("data/machines.txt").read_text()
    else:
        text = Path(path).read_text()
    return parse_machines(text)
