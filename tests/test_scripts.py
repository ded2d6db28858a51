"""The example scripts run end to end from a checkout."""

import importlib.util
import json
import re
import shutil
import subprocess
import sys
from functools import partial
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


def test_the_readme_layout_names_every_script():
    # The Layout's scripts/ entry runs up to the tests/ entry.
    readme = (SCRIPTS.parent / "README.md").read_text()
    entry = readme.split("\n## Layout\n", 1)[1].split("\n    scripts/", 1)[1]
    entry = entry.split("\n    tests/", 1)[0]
    named = re.findall(r"\b[\w.]+\.py\b", entry)
    assert sorted(named) == sorted(p.name for p in SCRIPTS.iterdir() if p.is_file())


def _load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def two_commits(tmp_path):
    """A git repository whose last two commits hold the benchmark spec and an `arm` file."""
    if shutil.which("git") is None:
        pytest.skip("git is not installed")
    repo = tmp_path / "repo"
    repo.mkdir()
    shutil.copy(SCRIPTS.parent / "BENCHMARK.json", repo)
    git = partial(subprocess.run, cwd=repo, check=True, capture_output=True)
    git(["git", "init", "-q"])
    for arm in ("parent", "change"):
        (repo / "arm").write_text(arm)
        git(["git", "add", "-A"])
        git(["git", "-c", "user.name=ab", "-c", "user.email=ab@example.com",
             "-c", "commit.gpgsign=false", "commit", "-q", "-m", arm])
    return repo


def _stub_run(calls, fault=None, drift=lambda seed: 100.0 + seed, effect=1.01):
    # A run of perfbench from an exported tree: every metric of a run of seed s
    # is drift(s), times `effect` in the change's runs (1% slower by default);
    # `fault` = (arm, seed, kind) spoils one run.
    spec = json.loads((SCRIPTS.parent / "BENCHMARK.json").read_text())

    def run(tree, workload, seed, seconds):
        arm = (tree / "arm").read_text()
        calls.append((arm, workload, seed, seconds))
        kind = fault[2] if fault and fault[:2] == (arm, seed) else None
        value = drift(seed) * (effect if arm == "change" else 1.0)
        result = {"correct": kind != "incorrect", "attempted": 1, "failed": int(kind == "incorrect"),
                  "metrics": {m["name"]: {"value": value if m["better"] == "lower" else 1 / value,
                                          "unit": m["unit"]} for m in spec["end_to_end"]}}
        digest = f"seed{seed}" + ("-other" if kind == "digest" else "")
        stdout = f"workload {workload}\nstate_sha256 after cycle 3: {digest}\n{json.dumps(result)}\n"
        return (1, "", "Traceback") if kind == "crash" else (0, stdout, "")
    return run


def test_ab_alternates_the_arms_and_summarises_every_metric(two_commits, monkeypatch, capsys):
    ab = _load_script("ab")
    monkeypatch.setattr(ab, "ROOT", two_commits)
    calls = []
    assert ab.main(["--parent", "HEAD~1", "--workload", "serial64_w1", "--pairs", "4"],
                   run=_stub_run(calls)) == 0
    assert [(arm, seed) for arm, _, seed, _ in calls] == [
        ("parent", 1), ("change", 1), ("change", 2), ("parent", 2),
        ("parent", 3), ("change", 3), ("change", 4), ("parent", 4)]
    assert {(workload, seconds) for _, workload, _, seconds in calls} == {("serial64_w1", 45)}
    out = capsys.readouterr().out.splitlines()
    assert len([line for line in out if line.startswith("seed ")]) == 8
    summary = out[-5:]
    assert [line.split()[0] for line in summary] == [
        "cycle_ms_p50", "mcups", "model_gflops", "setup_s", "peak_rss_mb"]
    for line in summary:
        assert "change wins 0/4" in line and "median gap > parent IQR: no" in line
    assert "parent 102.5 [101.25, 103.75]  change 103.525" in summary[0]
    assert "worse by +1.0% (bound 25%)" in summary[0]
    assert "change/parent per pair 1.01 [1.01, 1.01]" in summary[0]


def test_ab_per_pair_ratio_stays_flat_while_both_arms_drift(two_commits, monkeypatch, tmp_path,
                                                            capsys):
    # The host slows 10% a seed and the change is 2% faster in every pair:
    # the drift swamps the medians, and the per-pair ratio shows the effect.
    ab = _load_script("ab")
    monkeypatch.setattr(ab, "ROOT", two_commits)
    ledger = tmp_path / "ledger.json"
    run = _stub_run([], drift=lambda seed: 100.0 * 1.1 ** seed, effect=0.98)
    assert ab.main(["--parent", "HEAD~1", "--workload", "serial64_w1", "--pairs", "10",
                    "--json", str(ledger)], run=run) == 0
    cycle, mcups = (json.loads(ledger.read_text())[0]["metrics"][name]
                    for name in ("cycle_ms_p50", "mcups"))
    assert cycle["ratio"]["median"] == pytest.approx(0.98)
    assert cycle["ratio"]["quartiles"] == pytest.approx([0.98, 0.98])
    assert mcups["ratio"]["median"] == pytest.approx(1 / 0.98)
    for metric in (cycle, mcups):
        assert metric["change_wins"] == 10 and not metric["gap_exceeds_parent_iqr"]
    q1, q3 = cycle["parent"]["quartiles"]
    assert q3 - q1 > 0.3 * cycle["parent"]["median"]  # the drift's spread
    line = next(x for x in capsys.readouterr().out.splitlines() if x.startswith("cycle_ms_p50"))
    assert "change/parent per pair 0.98 [0.98, 0.98]  change wins 10/10" in line


@pytest.mark.parametrize("fault, message", [
    (("change", 3, "digest"), "seed 3: the state digests differ"),
    (("parent", 2, "incorrect"), "seed 2 parent: the run is not correct"),
    (("change", 1, "crash"), "seed 1 change: the run failed (exit 1)"),
], ids=["digest", "incorrect", "crash"])
def test_ab_fails_on_a_bad_run(two_commits, monkeypatch, capsys, fault, message):
    ab = _load_script("ab")
    monkeypatch.setattr(ab, "ROOT", two_commits)
    calls = []
    assert ab.main(["--parent", "HEAD~1", "--workload", "canon128_w2", "--pairs", "4"],
                   run=_stub_run(calls, fault)) == 1
    assert calls[-1][::2] == fault[:2]  # it stops at the seed of the bad run
    assert message in capsys.readouterr().out.splitlines()


def test_ab_measures_the_working_tree_and_refuses_one_commit_twice(two_commits, monkeypatch,
                                                                     capsys):
    ab = _load_script("ab")
    monkeypatch.setattr(ab, "ROOT", two_commits)
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=two_commits, check=True,
                          capture_output=True, text=True).stdout.strip()
    calls = []
    with pytest.raises(SystemExit) as refused:
        ab.main(["--parent", "HEAD", "--workload", "serial64_w1"], run=_stub_run(calls))
    assert refused.value.code == 2 and calls == []
    assert f"the same commit {head}" in capsys.readouterr().err

    (two_commits / "arm").write_text("edited")  # a tracked file, not committed
    assert ab.main(["--parent", "HEAD", "--workload", "serial64_w1", "--pairs", "2"],
                   run=_stub_run(calls)) == 0
    assert [arm for arm, *_ in calls] == ["change", "edited", "edited", "change"]
    out = capsys.readouterr().out.splitlines()
    assert out[0] == f"parent HEAD = {head}"
    assert out[1].startswith("change working tree = ") and head not in out[1]
    assert (two_commits / "arm").read_text() == "edited"


def test_ab_appends_its_record_to_a_json_ledger(two_commits, monkeypatch, tmp_path, capsys):
    ab = _load_script("ab")
    monkeypatch.setattr(ab, "ROOT", two_commits)
    ledger = tmp_path / "ledger.json"
    argv = ["--parent", "HEAD~1", "--workload", "serial64_w1", "--pairs", "4",
            "--json", str(ledger)]
    for _ in range(2):
        assert ab.main(argv, run=_stub_run([])) == 0
    records = json.loads(ledger.read_text())
    assert len(records) == 2 and records[0] == records[1]
    record = records[0]
    parent, head = subprocess.run(["git", "rev-parse", "HEAD~1", "HEAD"], cwd=two_commits,
                                  check=True, capture_output=True, text=True).stdout.split()
    assert record["parent"] == {"rev": "HEAD~1", "commit": parent}
    assert record["change"] == {"rev": "working tree", "commit": head}
    assert (record["workload"], record["pairs"], record["run_seconds"]) == ("serial64_w1", 4, 45)
    assert [(r["seed"], r["arm"]) for r in record["runs"]] == [
        (1, "parent"), (1, "change"), (2, "change"), (2, "parent"),
        (3, "parent"), (3, "change"), (4, "change"), (4, "parent")]
    first = record["runs"][0]
    assert first["correct"] and first["digest"] == "state_sha256 after cycle 3: seed1"
    assert first["metrics"]["cycle_ms_p50"] == 101.0
    assert list(record["metrics"]) == ["cycle_ms_p50", "mcups", "model_gflops", "setup_s",
                                       "peak_rss_mb"]
    cycle = record["metrics"]["cycle_ms_p50"]
    assert cycle["parent"] == {"median": 102.5, "quartiles": [101.25, 103.75]}
    assert cycle["change"]["median"] == pytest.approx(103.525)
    assert cycle["worse_pct"] == pytest.approx(1.0)
    assert (cycle["change_wins"], cycle["gap_exceeds_parent_iqr"]) == (0, False)
    assert cycle["ratio"]["median"] == pytest.approx(1.01)
    assert (cycle["unit"], cycle["better"], cycle["bound"]) == ("ms", "lower", 0.25)
    # The printed summary is the record's.
    line = next(x for x in capsys.readouterr().out.splitlines() if x.startswith("mcups"))
    assert f"change wins {record['metrics']['mcups']['change_wins']}/4" in line


@pytest.mark.parametrize("ledger", ["object", "no directory"])
def test_ab_refuses_a_json_path_it_cannot_append_to_before_any_run(two_commits, monkeypatch,
                                                                    tmp_path, ledger):
    ab = _load_script("ab")
    monkeypatch.setattr(ab, "ROOT", two_commits)
    path = tmp_path / "missing" / "ledger.json"
    if ledger == "object":
        path = tmp_path / "ledger.json"
        path.write_text("{}")
    calls = []
    with pytest.raises(SystemExit) as refused:
        ab.main(["--parent", "HEAD~1", "--workload", "serial64_w1", "--json", str(path)],
                run=_stub_run(calls))
    assert refused.value.code == 2 and calls == []
