#!/usr/bin/env python3
"""Print each cycle's time, section times and minor page faults per process.

Builds the `solenoidal_random` start state and steps it, as `tvdmhd run`
does.  One line per cycle: the wall ms, the ms of each `StepReport.sections`
entry, and the minor faults the cycle cost this process and each pool worker
(`minflt` of /proc/<pid>/stat; Linux only).  With 1 worker no pool is
forked, so the worker list is empty.

    python scripts/cycle_faults.py --size 64 --workers 1 --cycles 5
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from tvdmhd import GridShape, SchemeParams, init_condition, parallel, step_cycle


def minor_faults(pid) -> int:
    with open(f"/proc/{pid}/stat") as f:
        # The fields after the parenthesised command name start at `state`.
        return int(f.read().rsplit(")", 1)[1].split()[7])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--size", type=int, required=True)
    ap.add_argument("--workers", type=int, required=True)
    ap.add_argument("--cycles", type=int, required=True)
    ap.add_argument("--precision", choices=("single", "double"), default="single")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    params = SchemeParams(precision=args.precision)
    n = args.size
    state = init_condition("solenoidal_random", GridShape(n, n, n), params, seed=args.seed)
    before = {"self": minor_faults("self")}
    for _ in range(args.cycles):
        report = step_cycle(state, params, args.workers)
        pool = parallel._Pool.current
        pids = [w.pid for w in pool.workers] if pool is not None else []
        after = {"self": minor_faults("self"), **{pid: minor_faults(pid) for pid in pids}}
        # A worker forked during this cycle started counting at 0.
        faults = {pid: count - before.get(pid, 0) for pid, count in after.items()}
        sections = " ".join(f"{name}_ms={ms:.1f}" for name, ms in report.sections.items())
        workers = ",".join(str(faults[pid]) for pid in pids) or "-"
        print(f"cycle={state.cycle} wall_ms={report.wall_ms:.1f} {sections} "
              f"minflt_self={faults['self']} minflt_workers={workers}", flush=True)
        before = after
    return 0


if __name__ == "__main__":
    sys.exit(main())
