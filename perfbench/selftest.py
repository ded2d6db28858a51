#!/usr/bin/env python3
"""Self-test of the benchmark harness on 16^3 grids (a few seconds).

    python3 perfbench/selftest.py

Checks that both modes report every metric BENCHMARK.json declares, by name
and with its unit, in the result object and in the printed lines; that a
cycle run on a state with an injected NaN is counted as failed rather than
timed; and that a state digest differing from the recorded one fails the run.
Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import math
from dataclasses import replace

import run

run.prepare()

import numpy as np  # noqa: E402  (after prepare pins the BLAS pool)

import harness  # noqa: E402

TINY_THREADED = harness.Workload("tiny16_w2", 16, "double", 2, warmup=1, min_cycles=2,
                                 snapshot_every=2, setup_samples=2)
TINY_SERIAL = harness.Workload("tiny16_w1", 16, "single", 1, warmup=1, min_cycles=2,
                               setup_samples=2)


def check_report(wl: harness.Workload, trace: bool) -> None:
    lines, result = harness.benchmark(wl, seed=3, seconds=0.0, trace=trace)
    json.loads(json.dumps(result))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    reported = {name: m["unit"] for name, m in result["metrics"].items()}
    assert reported == declared, (reported, declared)
    for name, unit in declared.items():
        value = result["metrics"][name]["value"]
        assert isinstance(value, float) and math.isfinite(value), (name, value)
        assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}")
                   for line in lines), f"{name} not printed with unit {unit}"
    setup_lines = [line for line in lines if line.startswith("setup: ")]
    if trace:
        assert not setup_lines, setup_lines
        assert result["metrics"]["parallel.forks"]["value"] == 28
        if wl.workers == 1:
            assert result["metrics"]["parallel.efficiency"]["value"] > 0.9
    else:
        init_part = setup_lines[0].split("init s ")[1]
        assert len(init_part.split(", ")) == wl.setup_samples, setup_lines


def check_nan_counted_as_failed() -> None:
    wl = replace(TINY_SERIAL, warmup=0)
    state, params = harness.setup(wl, seed=3)
    state.e[1, 2, 3] = np.nan
    with np.errstate(invalid="ignore"):
        measured = harness.run_cycles(wl, state, params, seconds=0.0)
    assert measured.attempted == 1 and measured.failed == 1, measured
    assert not measured.cycle_s and not measured.traced_s and measured.op_s == 0.0, measured


def check_digest_mismatch_fails() -> None:
    recorded = harness.load_digests
    harness.load_digests = lambda: {TINY_SERIAL.name: {
        "cycle": TINY_SERIAL.digest_cycle, "sha256": {"3": "0" * 64}}}
    try:
        _, result = harness.benchmark(TINY_SERIAL, seed=3, seconds=0.0, trace=False)
    finally:
        harness.load_digests = recorded
    assert not result["correct"] and result["failed"] == 1, result


def main() -> int:
    for wl in (TINY_THREADED, TINY_SERIAL):
        for trace in (False, True):
            check_report(wl, trace)
    check_nan_counted_as_failed()
    check_digest_mismatch_fails()
    print("selftest ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
