#!/usr/bin/env python3
"""Evolve the Orszag-Tang vortex and export entropy/field slices over time.

Writes ot_cycle<N>.tsv files (entropy + in-plane field on the z = 0 plane)
suitable for plotting with any TSV-aware tool.

    python scripts/orszag_tang_demo.py --size 64 --cycles 40 --every 10
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from tvdmhd import (GridShape, SchemeParams, discrete_divergence, init_condition,
                    run, slice_export)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--size", type=int, default=64)
    ap.add_argument("--cycles", type=int, default=40)
    ap.add_argument("--every", type=int, default=10)
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--outdir", default=".")
    args = ap.parse_args()

    params = SchemeParams()
    # dx = 1/size: the vortex lives on the unit square
    shape = GridShape(args.size, args.size, 8, dx=1.0 / args.size)
    state = init_condition("orszag_tang_xy", shape, params)
    outdir = Path(args.outdir)

    def show(report):
        div = float(np.abs(discrete_divergence(state)).max())
        print(f"cycle {state.cycle:3d}  t={state.time:.4f}  dt={report.dt:.5f}  "
              f"wall={report.wall_ms:7.1f} ms  max|div b|={div:.2e}")
        if state.cycle % args.every == 0:
            slice_export(state, ("z", 0), outdir / f"ot_cycle{state.cycle}.tsv",
                         gamma=params.gamma)

    slice_export(state, ("z", 0), outdir / "ot_cycle0.tsv", gamma=params.gamma)
    run(state, params, n_cycles=args.cycles, workers=args.workers, on_cycle=show)
    return 0


if __name__ == "__main__":
    sys.exit(main())
