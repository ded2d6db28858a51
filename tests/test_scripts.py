"""The example scripts run end to end from a checkout."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _run(script, *args) -> str:
    proc = subprocess.run([sys.executable, str(SCRIPTS / script), *args],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_sod_profile_prints_the_tube():
    lines = _run("sod_profile.py", "--n", "64").splitlines()
    assert lines[0].startswith("# Sod tube N=64 t=0.15 gamma=1.4  L1=")
    assert lines[1] == "# x\trho\trho_exact"
    rows = [[float(v) for v in line.split("\t")] for line in lines[2:]]
    assert len(rows) == 32 and all(len(row) == 3 for row in rows)


def test_orszag_tang_demo_writes_a_slice_per_stride(tmp_path):
    out = _run("orszag_tang_demo.py", "--size", "16", "--cycles", "2", "--every", "1",
               "--outdir", str(tmp_path))
    assert [line.split()[:2] for line in out.splitlines()] == [["cycle", "1"], ["cycle", "2"]]
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "ot_cycle0.tsv", "ot_cycle1.tsv", "ot_cycle2.tsv"]


@pytest.mark.parametrize("workers", [1, 2])
def test_cycle_faults_prints_a_line_per_cycle(workers):
    lines = _run("cycle_faults.py", "--size", "16", "--workers", str(workers),
                 "--cycles", "2").splitlines()
    assert len(lines) == 2
    for cycle, line in enumerate(lines, start=1):
        fields = dict(token.split("=") for token in line.split())
        assert list(fields) == ["cycle", "wall_ms", "cfl_ms", "fluid_ms", "magnetic_ms",
                                "transpose_ms", "minflt_self", "minflt_workers"]
        assert fields["cycle"] == str(cycle)
        assert int(fields["minflt_self"]) >= 0
        if workers == 1:  # no pool is forked
            assert fields["minflt_workers"] == "-"
        else:  # one worker per slab, at most one per CPU the process may run on
            counts = [int(c) for c in fields["minflt_workers"].split(",")]
            assert len(counts) == min(workers, len(os.sched_getaffinity(0)))
            assert min(counts) >= 0
