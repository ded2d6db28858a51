#!/usr/bin/env python3
"""Alternated A/B benchmark runs of a parent and a change revision.

Exports both revisions with `git archive` into a temporary directory and
runs ``perfbench/run.py --trace 0`` from each export in turn for seeds 1..N,
the parent first on odd pairs, so a drift in the host's speed falls on both
arms alike.  Prints every run, then for each end-to-end metric of the
parent's BENCHMARK.json both medians with their quartiles, how much worse
the change's median is than the parent's beside the metric's bound, the
median and quartiles of the per-pair ratio change / parent, the change's
wins out of N (ties count for neither) and whether the median gap exceeds
the parent's quartile distance.  A drift of the host's speed over the
session widens both arms' quartiles, but each pair runs back to back, so
the per-pair ratio stays near the change's own effect.

    python3 scripts/ab.py --parent HEAD~1 --workload serial64_w1 --pairs 10

``--json PATH`` appends one record of the comparison to the JSON list in
PATH (a new file holds a list of one): both revisions and commit ids, the
workload, the pairs, the run length, every run with its seed, metrics and
digest line, and per metric the summary printed.

Every run lasts the parent's ``run_seconds``.  ``--change`` defaults to the
working tree: its tracked files, staged or not, as the commit
``git stash create`` writes, or HEAD when nothing is modified.  Both commit
ids are printed first.  Exits 2 when both revisions are the same commit, and
1 when a run fails, when a run is not ``correct``, or when the two arms'
``state_sha256 after cycle`` lines differ for a seed.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DIGEST = "state_sha256 after cycle"


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def resolve(rev: str | None) -> str:
    """The commit id of `rev`; of the working tree's tracked files when `rev` is None."""
    if rev is None:
        rev = _git("stash", "create") or "HEAD"
    return _git("rev-parse", "--verify", f"{rev}^{{commit}}")


def export(commit: str, dest: Path) -> None:
    """Write the tree of `commit` into the new directory `dest`."""
    tar = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT,
                         capture_output=True, check=True).stdout
    dest.mkdir()
    # The "data" filter exists from Python 3.10.12 and 3.11.4 on.
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, **safe)


def run_perfbench(tree: Path, workload: str, seed: int, seconds: float) -> tuple[int, str, str]:
    """One ``perfbench/run.py --trace 0`` process in `tree`: (exit code, stdout, stderr)."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True, timeout=900)
    return proc.returncode, proc.stdout, proc.stderr


def _parse(stdout: str) -> tuple[dict | None, str | None]:
    # The result object (the last line) and the digest line of one run's output.
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    return result, next((line for line in lines if line.startswith(DIGEST)), None)


def summarise(metric: dict, parent: list[float], change: list[float]) -> dict:
    """The comparison of one end-to-end metric over the pairs (parent[i], change[i])."""
    sign = 1 if metric["better"] == "lower" else -1
    ratios = [c / p for p, c in zip(parent, change)]
    (p1, pm, p3), (c1, cm, c3), (r1, rm, r3) = (statistics.quantiles(v, n=4)
                                                for v in (parent, change, ratios))
    return {"unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
            "parent": {"median": pm, "quartiles": [p1, p3]},
            "change": {"median": cm, "quartiles": [c1, c3]},
            "ratio": {"median": rm, "quartiles": [r1, r3]},
            "worse_pct": 100 * sign * (cm - pm) / pm,
            "change_wins": sum(sign * (p - c) > 0 for p, c in zip(parent, change)),
            "gap_exceeds_parent_iqr": abs(cm - pm) > p3 - p1}


def read_ledger(path: Path) -> list:
    """The JSON list of records in `path`; empty if there is no such file."""
    ledger = json.loads(path.read_text()) if path.exists() else []
    if not isinstance(ledger, list):
        raise ValueError(f"{path} holds no JSON list")
    return ledger


def main(argv: list[str] | None = None, run=run_perfbench) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="revision the change is measured against")
    ap.add_argument("--change", help="revision measured (default: the working tree)")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--json", type=Path, metavar="PATH",
                    help="append the comparison's record to the JSON list in PATH")
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2 for quartiles")
    commits = {"parent": resolve(args.parent), "change": resolve(args.change)}
    if commits["parent"] == commits["change"]:
        ap.error(f"the parent and the change are the same commit {commits['parent']}")
    if args.json:  # refused now, not after the runs
        try:
            ledger = read_ledger(args.json)
        except (OSError, ValueError) as err:
            ap.error(f"--json: {err}")
        if not args.json.parent.is_dir():
            ap.error(f"--json: no directory {args.json.parent}")

    revs = {"parent": args.parent, "change": args.change or "working tree"}
    runs = []
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        trees = {arm: Path(tmp) / arm for arm in commits}
        for arm, rev in revs.items():
            export(commits[arm], trees[arm])
            print(f"{arm} {rev} = {commits[arm]}", flush=True)
        spec = json.loads((trees["parent"] / "BENCHMARK.json").read_text())
        if args.workload not in [w["name"] for w in spec["workloads"]]:
            ap.error(f"unknown workload {args.workload!r}")
        seconds = spec["run_seconds"]
        metrics = spec["end_to_end"]
        for seed in range(1, args.pairs + 1):
            digests = {}
            for arm in ("parent", "change") if seed % 2 else ("change", "parent"):
                code, stdout, stderr = run(trees[arm], args.workload, seed, seconds)
                result, digests[arm] = _parse(stdout)
                if code != 0 or result is None or digests[arm] is None:
                    print(f"seed {seed} {arm}: the run failed (exit {code})\n{stderr}", flush=True)
                    return 1
                got = {m["name"]: result["metrics"][m["name"]]["value"] for m in metrics}
                runs.append({"seed": seed, "arm": arm, "correct": result["correct"],
                             "metrics": got, "digest": digests[arm]})
                print(f"seed {seed} {arm:6s} correct {result['correct']}  "
                      + "  ".join(f"{k} {v:.6g}" for k, v in got.items())
                      + f"  {digests[arm]}", flush=True)
                if not result["correct"]:
                    print(f"seed {seed} {arm}: the run is not correct", flush=True)
                    return 1
            if digests["parent"] != digests["change"]:
                print(f"seed {seed}: the state digests differ", flush=True)
                return 1

    print(f"{args.workload}, {args.pairs} pairs of {seconds:g} s: median [quartiles]")
    summary = {}
    for m in metrics:
        name = m["name"]
        par, chg = ([r["metrics"][name] for r in runs if r["arm"] == arm]
                    for arm in ("parent", "change"))
        s = summary[name] = summarise(m, par, chg)
        (p1, p3), (c1, c3), (r1, r3) = (s[k]["quartiles"] for k in ("parent", "change", "ratio"))
        print(f"{name} ({m['unit']}, {m['better']} is better): "
              f"parent {s['parent']['median']:.6g} [{p1:.6g}, {p3:.6g}]  "
              f"change {s['change']['median']:.6g} [{c1:.6g}, {c3:.6g}]  "
              f"worse by {s['worse_pct']:+.1f}% (bound {100 * m['bound']:g}%)  "
              f"change/parent per pair {s['ratio']['median']:.4g} [{r1:.4g}, {r3:.4g}]  "
              f"change wins {s['change_wins']}/{args.pairs}  median gap > parent IQR: "
              f"{'yes' if s['gap_exceeds_parent_iqr'] else 'no'}")
    if args.json:
        record = {**{arm: {"rev": revs[arm], "commit": commits[arm]} for arm in commits},
                  "workload": args.workload, "pairs": args.pairs, "run_seconds": seconds,
                  "runs": runs, "metrics": summary}
        args.json.write_text(json.dumps(ledger + [record], indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
