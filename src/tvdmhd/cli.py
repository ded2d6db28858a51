"""Command surface: run, bench, validate, slice.

Configuration is flat ``key = value`` text; command-line flags override file
values.  The default worker count comes from the TVDMHD_WORKERS environment
variable when set.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from contextlib import closing, nullcontext
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from statistics import median

from . import perf, validation
from .grid import GridShape, SchemeParams
from .ic import KINDS, init_condition
from .perf import ConfigError
from .snapshot import read_snapshot, slice_export, write_snapshot
from .stepper import SECTIONS, run

ENV_WORKERS = "TVDMHD_WORKERS"
# Cycles `run` takes when the config gives neither `cycles` nor `t_end`.
DEFAULT_CYCLES = 10


def default_workers() -> int:
    raw = os.environ.get(ENV_WORKERS, "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ConfigError(f"{ENV_WORKERS} must be a positive integer, got {raw!r}")
    return workers


@dataclass
class RunConfig:
    size: int = 32
    n1: int | None = None
    n2: int | None = None
    n3: int | None = None
    dx: float = 1.0
    gamma: float = 5.0 / 3.0
    courant: float = 0.9
    precision: str = "double"
    ic: str = "solenoidal_random"
    seed: int | None = None
    amplitude: float | None = None
    b_amplitude: float | None = None
    width: float | None = None
    velocity: float | None = None
    profile: str | None = None
    workers: int = field(default_factory=default_workers)
    cycles: int | None = None
    t_end: float | None = None
    out: str | None = None
    snapshot_every: int = 0

    def shape(self) -> GridShape:
        n1 = self.n1 if self.n1 is not None else self.size
        n2 = self.n2 if self.n2 is not None else self.size
        n3 = self.n3 if self.n3 is not None else self.size
        return GridShape(n1, n2, n3, dx=self.dx)

    def params(self) -> SchemeParams:
        return SchemeParams(gamma=self.gamma, courant=self.courant,
                            precision=self.precision)

    def ic_options(self) -> dict:
        """The initial-condition keys that are set; the kind's builder refuses any others."""
        return {key: getattr(self, key) for key in _IC_KEYS if getattr(self, key) is not None}


# The config keys that set initial-condition options.
_IC_KEYS = ("seed", "amplitude", "b_amplitude", "width", "velocity", "profile")


# Value parser of each config key, from its field annotation ('int | None' -> int).
_PARSERS = {f.name: {"int": int, "float": float, "str": str}[f.type.split(" | ")[0]]
            for f in fields(RunConfig)}


def parse_config(text: str) -> dict:
    """Parse key=value lines into typed values; every error names key and line."""
    values: dict = {}
    for record in perf.read_records(text, _PARSERS):
        for key, (lineno, raw) in record.items():
            try:
                values[key] = _PARSERS[key](raw)
            except ValueError:
                raise ConfigError(
                    f"line {lineno}: invalid value for {key!r}: {raw!r}") from None
    return values


def load_config(path: str | None, overrides: dict) -> RunConfig:
    values: dict = {}
    if path is not None:
        values.update(parse_config(Path(path).read_text()))
    values.update({k: v for k, v in overrides.items() if v is not None})
    try:
        cfg = RunConfig(**values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
    if cfg.ic not in KINDS:
        raise ConfigError(f"unknown initial condition kind {cfg.ic!r}")
    return cfg


# ---------------------------------------------------------------------------
# commands

def run_command(cfg: RunConfig, out=sys.stdout) -> int:
    for key, least in (("cycles", 0), ("snapshot_every", 0), ("workers", 1)):
        value = getattr(cfg, key)
        if value is not None and value < least:
            rule = "positive" if least else "non-negative"
            raise ConfigError(f"{key!r} must be {rule}, got {value}")
    if cfg.snapshot_every and not cfg.out:
        raise ConfigError("'snapshot_every' needs 'out' to name the snapshots")
    if cfg.cycles is not None and cfg.t_end is not None:
        raise ConfigError("give one stop rule, 'cycles' or 't_end', not both")
    if cfg.t_end is not None and not math.isfinite(cfg.t_end):
        raise ConfigError(f"'t_end' must be finite, got {cfg.t_end}")
    params = cfg.params()
    state = init_condition(cfg.ic, cfg.shape(), params, **cfg.ic_options())
    out.write("# cycle\tdt\ttime\twall_ms" + "".join(f"\t{s}_ms" for s in SECTIONS)
              + "\tminflt_self\tminflt_workers\n")

    def log(report):
        sections = "".join(f"\t{report.sections[s]:.3f}" for s in SECTIONS)
        faults = [str(n) for n in report.faults.values()]
        out.write(f"{state.cycle}\t{report.dt:.6g}\t{state.time:.6g}\t{report.wall_ms:.3f}"
                  f"{sections}\t{faults[0] if faults else '-'}\t{','.join(faults[1:]) or '-'}\n")
        if cfg.snapshot_every and state.cycle % cfg.snapshot_every == 0:
            write_snapshot(state, f"{cfg.out}.cycle{state.cycle}")

    cycles = DEFAULT_CYCLES if cfg.cycles is None and cfg.t_end is None else cfg.cycles
    run(state, params, n_cycles=cycles, t_end=cfg.t_end, workers=cfg.workers, on_cycle=log)
    if cfg.out:
        write_snapshot(state, cfg.out)
        out.write(f"# snapshot written to {cfg.out}\n")
    return 0


def _available_memory_bytes() -> int | None:
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        return None
    return None


def bench_command(sizes, repeats, workers, precision, machines_path=None,
                  out=sys.stdout) -> int:
    """Time step cycles per size and derive the comparison metrics.

    Repetition statistic: median and min over the `repeats` timed cycles of
    `validation.cycle_times`, then the median ms of each cycle section over
    the same cycles; initialization and snapshot IO are excluded.  The box
    is uniform, so its slopes are all zero and data-dependent costs do not show.
    The counts, the sizes, then the machines file and its baseline record are
    checked first, so a bad one fails before any output.
    """
    for flag, value in (("--repeats", repeats), ("--workers", workers)):
        if value < 1:
            raise ConfigError(f"{flag} must be positive, got {value}")
    for n in sizes:
        GridShape(n, n, n)
    machines = perf.load_machines(machines_path)
    if perf.BASELINE_LABEL not in machines:
        raise ConfigError(f"the machines file has no {perf.BASELINE_LABEL!r} baseline record")
    baseline = perf.check_baseline(machines[perf.BASELINE_LABEL])
    width = SchemeParams(precision=precision).dtype.itemsize
    avail = _available_memory_bytes()
    measured: dict[int, float] = {}

    out.write("# size\tmedian_ms\tmin_ms\tworkers"
              + "".join(f"\t{s}_ms" for s in SECTIONS) + "\n")
    for n in sizes:
        # State block and spare (16 arrays of n^3), a 2.5 MiB arena per worker:
        # 18.5 / 130.5 MiB at 64^3 / 128^3 single; peak RSS above import 20.1 / 131.9.
        need = 16 * n ** 3 * width + workers * (5 << 19)
        if avail is not None and need > avail:
            out.write(f"{n}\tskipped\tskipped\t{workers}\t# insufficient memory\n")
            continue
        (reports,) = validation.cycle_times([(n, workers)], repeats, precision)
        times = [r.wall_ms for r in reports]
        measured[n] = median(times)
        sections = "".join(f"\t{median(r.sections[s] for r in reports):.3f}" for s in SECTIONS)
        out.write(f"{n}\t{median(times):.3f}\t{min(times):.3f}\t{workers}{sections}\n")

    if 128 in measured:
        machines["host"] = replace(machines.get("host") or perf.MachineSpec("host"),
                                   reference_runtime_ms_128=measured[128])
    out.write("#\n# machine\truntime_ms\tcode_speedup\tfractional_speedup"
              "\tflops_pct\tbandwidth_pct\n")
    for label, spec in machines.items():
        if None in (spec.reference_runtime_ms_128, spec.peak_gflops, spec.peak_gbps):
            continue
        rep = perf.criteria(spec.reference_runtime_ms_128, spec, baseline)
        out.write(f"{label}\t{spec.reference_runtime_ms_128:g}\t{rep.code_speedup:.1f}"
                  f"\t{rep.fractional_speedup:.2f}\t{rep.flops_fraction_pct:.1f}"
                  f"\t{rep.bandwidth_fraction_pct:.1f}\n")

    if 128 in measured:
        out.write("#\n# host record (machine-spec format):\n")
        out.write(perf.format_machine(machines["host"]))
    return 0


def validate_command(full=False, out=sys.stdout) -> int:
    """Run the invariant checks; one machine-readable line per check; 1 if any fails."""
    out.write("# check\tvalue\tthreshold\tverdict\n")
    failures = 0
    for result in validation.default_checks(full=full):
        out.write(result.line() + "\n")
        failures += 0 if result.passed else 1
    if not full:
        out.write("scaling_ratio_128_64\tnan\tnan\tSKIPPED\trun with --full\n")
    out.write(f"# {failures} failure(s)\n")
    return 1 if failures else 0


def slice_command(args, out=sys.stdout) -> int:
    """Slice a snapshot or a built start state, with gamma from the same config and flags."""
    if args.snapshot and (args.size is not None or args.ic is not None):
        raise ConfigError("--size and --ic build a start state; a --snapshot slice takes neither")
    cfg = load_config(args.config, {"size": args.size, "ic": args.ic, "gamma": args.gamma,
                                    "workers": 1})  # no sweep runs: TVDMHD_WORKERS is not read
    params = cfg.params()  # refuses a bad gamma on both paths, before any output
    if args.snapshot:
        state = read_snapshot(args.snapshot)
    else:
        state = init_condition(cfg.ic, cfg.shape(), params, **cfg.ic_options())
    slice_export(state, (args.axis, args.index), args.out, gamma=params.gamma)
    out.write(f"# slice written to {args.out}\n")
    return 0


# ---------------------------------------------------------------------------

class _Report:
    """Stdout and the file at `path`, opened at the first write so that a
    refusal before any output leaves an existing file as it was."""

    def __init__(self, path: str):
        self.path, self.fh = path, None

    def write(self, text: str) -> None:
        self.fh = self.fh or open(self.path, "w")
        sys.stdout.write(text)
        self.fh.write(text)

    def close(self) -> None:
        if self.fh:
            self.fh.close()


def _parse_sizes(raw: str) -> list[int]:
    return [int(tok) for tok in raw.split(",") if tok]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="tvdmhd",
                                     description="relaxing-TVD MHD solver and benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="advance an initial condition")
    p_run.add_argument("--config", default=None)
    p_run.add_argument("--size", type=int, default=None)
    p_run.add_argument("--workers", type=int, default=None)
    p_run.add_argument("--cycles", type=int, default=None)
    p_run.add_argument("--t-end", dest="t_end", type=float, default=None)
    p_run.add_argument("--precision", choices=("single", "double"), default=None)
    p_run.add_argument("--ic", choices=KINDS, default=None)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", default=None)

    p_bench = sub.add_parser("bench", help="time step cycles over a size ladder")
    p_bench.add_argument("--sizes", default="16,32,64,128")
    p_bench.add_argument("--repeats", type=int, default=5)
    p_bench.add_argument("--workers", type=int, default=None)
    p_bench.add_argument("--precision", choices=("single", "double"), default="single")
    p_bench.add_argument("--machines", default=None)
    p_bench.add_argument("--out", default=None,
                         help="also write the report to this file")

    p_val = sub.add_parser("validate", help="run the invariant checks")
    p_val.add_argument("--full", action="store_true",
                       help="include the timing-based scaling check")

    p_slice = sub.add_parser("slice", help="export one grid plane as TSV")
    p_slice.add_argument("--snapshot", default=None)
    p_slice.add_argument("--config", default=None)
    p_slice.add_argument("--size", type=int, default=None)
    p_slice.add_argument("--ic", choices=KINDS, default=None)
    p_slice.add_argument("--axis", choices=("x", "y", "z"), default="z")
    p_slice.add_argument("--index", type=int, default=0)
    p_slice.add_argument("--gamma", type=float, default=None)
    p_slice.add_argument("--out", required=True)

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            overrides = {k: getattr(args, k) for k in
                         ("size", "workers", "cycles", "t_end", "precision",
                          "ic", "seed", "out")}
            cfg = load_config(args.config, overrides)
            code = run_command(cfg)
        elif args.command == "bench":
            workers = args.workers if args.workers is not None else default_workers()
            with closing(_Report(args.out)) if args.out else nullcontext(sys.stdout) as out:
                code = bench_command(_parse_sizes(args.sizes), args.repeats, workers,
                                     args.precision, args.machines, out=out)
        elif args.command == "validate":
            code = validate_command(full=args.full)
        else:
            code = slice_command(args)
        sys.stdout.flush()  # a closed pipe raises here, not in the exit-time flush
        return code
    except BrokenPipeError:
        # The reader closed stdout early (`tvdmhd bench | head -1`).  Point it at
        # the null device so the exit-time flush is silent; 141 = 128 + SIGPIPE.
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
        return 141
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
