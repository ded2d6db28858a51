#!/usr/bin/env python3
"""Run the benchmark over several seeds and write a JSON record of the results.

    python3 perfbench/record.py --seeds 1-10 --out perfbench/baseline.json

Each run is a fresh ``run.py`` process, as a benchmark driver would start it,
for every workload in BENCHMARK.json and its ``run_seconds``.  Per workload
the record holds every run's end-to-end values; per metric the median,
quartiles and spread (quartile distance / median), set beside a third of the
metric's bound; and the per-layer metrics of one traced run on the first seed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range 'first-last'")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    first, last = (int(s) for s in args.seeds.split("-"))
    seeds = list(range(first, last + 1))
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {"seeds": seeds, "seconds": seconds, "workloads": {}}
    steady = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in seeds:
            result, lines = run_once(workload, seed, seconds, 0)
            host = json.loads(next(line for line in lines if line.startswith("host "))[5:])
            digest = next(line for line in lines if line.startswith("state_sha256"))
            runs.append({"seed": seed, "result": result, "digest": digest})
            print(workload, seed, result["correct"],
                  " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
                  flush=True)
        summary = {}
        for name, bound in bounds.items():
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                             "bound": bound, "spread_limit": bound / 3}
            ok = spread < bound / 3
            steady &= ok
            print(f"  {name:16s} median {med:.5g}  spread {spread:.4f}  "
                  f"limit {bound / 3:.4f}  {'ok' if ok else 'WIDE'}", flush=True)
        traced, _ = run_once(workload, seeds[0], seconds, 1)
        record["host"] = host
        record["workloads"][workload] = {
            "end_to_end": summary,
            "runs": runs,
            "traced_seed": seeds[0],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "all_correct": all(r["result"]["correct"] for r in runs) and traced["correct"],
        }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    print("steady" if steady else "NOT steady: a spread is at or above a third of its bound")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
