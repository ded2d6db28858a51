#!/usr/bin/env python3
"""tvdmhd benchmark: one workload per process, end-to-end or traced per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload serial64_w1 --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the host, the sample counts, the state digests and every metric by name
with its unit.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer metrics of a traced run.  Workloads and metrics are described
in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOAD_NAMES = ("canon128_w2", "serial64_w1")


def prepare() -> None:
    """Put the checkout's solver on the path; keep numpy's BLAS to one thread.

    The solver uses no BLAS, and the 2-worker workload must not run more
    compute threads than the host has cores.
    """
    if not (ROOT / "src" / "tvdmhd" / "__init__.py").is_file():
        raise SystemExit(f"no solver sources under {ROOT / 'src'}; run from a full checkout")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    prepare()
    import harness

    lines, result = harness.benchmark(harness.WORKLOADS[args.workload], args.seed,
                                      args.seconds, bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
