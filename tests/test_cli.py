import io
import os
import re
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import tvdmhd
from tvdmhd import (cli, fluid, init_condition, perf, read_snapshot, run, validation,
                    write_snapshot)
from tvdmhd.cli import ConfigError, RunConfig, load_config, parse_config
from tvdmhd.stepper import SECTIONS, StepReport


def test_parse_config_round_trip():
    text = """
    # comment
    size = 16
    gamma = 1.4
    ic = sod_x
    workers = 2
    """
    values = parse_config(text)
    assert values == {"size": 16, "gamma": 1.4, "ic": "sod_x", "workers": 2}


@pytest.mark.parametrize("f", fields(RunConfig), ids=lambda f: f.name)
def test_parse_config_types_every_key_by_its_annotation(f):
    want = {"int": 3, "float": 3.0, "str": "3"}[f.type.split(" | ")[0]]
    got = parse_config(f"{f.name} = 3")[f.name]
    assert got == want and type(got) is type(want)


def test_parse_config_keeps_a_hash_inside_a_value():
    assert parse_config("out = runs/a#1.snap") == {"out": "runs/a#1.snap"}
    assert parse_config("out = runs/a#1.snap  # where it goes\n") == {"out": "runs/a#1.snap"}


@pytest.mark.parametrize("line", ["ic = sod_x  # note", "ic = sod_x\t# note", "ic = sod_x #"])
def test_parse_config_drops_a_comment_after_whitespace(line):
    assert parse_config(f"# heading\n{line}\n") == {"ic": "sod_x"}


def test_parse_config_unknown_key_names_key_and_line():
    with pytest.raises(ConfigError, match=r"line 2: unknown key 'couran'"):
        parse_config("size = 16\ncouran = 0.9\n")


def test_parse_config_bad_value_names_key_and_line():
    with pytest.raises(ConfigError, match=r"line 1: invalid value for 'size': 'big'"):
        parse_config("size = big\n")


def test_parse_config_requires_assignment():
    with pytest.raises(ConfigError, match="line 1: expected"):
        parse_config("just some words\n")


def test_cli_flags_override_config(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("size = 16\ncycles = 4\nic = uniform\n")
    cfg = load_config(str(cfg_file), {"cycles": 2, "seed": None})
    assert cfg.size == 16 and cfg.cycles == 2 and cfg.ic == "uniform"


def test_config_rejects_unknown_ic(tmp_path):
    with pytest.raises(ConfigError, match="unknown initial condition"):
        load_config(None, {"ic": "nope"})


def test_run_command_writes_snapshot(tmp_path):
    out_path = tmp_path / "final.snap"
    cfg = RunConfig(size=8, cycles=2, ic="solenoidal_random", seed=1,
                    out=str(out_path), workers=1)
    buf = io.StringIO()
    assert cli.run_command(cfg, out=buf) == 0
    lines = [l for l in buf.getvalue().splitlines() if not l.startswith("#")]
    assert len(lines) == 2  # one line per cycle
    state = read_snapshot(out_path)
    assert state.cycle == 2
    assert state.shape.n1 == 8


def test_run_command_snapshot_every_matches_run(tmp_path):
    out_path = tmp_path / "final.snap"
    cfg = RunConfig(size=8, cycles=5, snapshot_every=2, ic="solenoidal_random", seed=3,
                    out=str(out_path), workers=1)
    buf = io.StringIO()
    assert cli.run_command(cfg, out=buf) == 0
    assert sorted(p.name for p in tmp_path.glob("final.snap.cycle*")) == [
        "final.snap.cycle2", "final.snap.cycle4"]
    assert read_snapshot(f"{out_path}.cycle4").cycle == 4
    lines = [l for l in buf.getvalue().splitlines() if not l.startswith("#")]
    assert [int(l.split("\t")[0]) for l in lines] == [1, 2, 3, 4, 5]

    params = cfg.params()
    ref = init_condition(cfg.ic, cfg.shape(), params, **cfg.ic_options())
    run(ref, params, n_cycles=5)
    got = read_snapshot(out_path)
    assert (got.time, got.cycle) == (ref.time, ref.cycle)
    for (name, arr), (_, want) in zip(got.components(), ref.components()):
        assert arr.dtype == want.dtype and arr.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("flags, config, message", [
    (["--cycles", "-3", "--out", "{out}"], "", "'cycles' must be non-negative, got -3"),
    (["--out", "{out}"], "snapshot_every = -2", "'snapshot_every' must be non-negative, got -2"),
    ([], "snapshot_every = 2", "'snapshot_every' needs 'out' to name the snapshots"),
])
def test_run_rejects_negative_counts_and_snapshots_without_out(tmp_path, capsys, flags,
                                                               config, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"size = 8\nworkers = 1\n{config}\n")
    out = tmp_path / "a.snap"
    argv = ["run", "--config", str(cfg)] + [f.format(out=out) for f in flags]
    assert cli.main(argv) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not list(tmp_path.glob("a.snap*"))


@pytest.mark.parametrize("flags, config, workers", [(["--workers", "0"], "", 0),
                                                     ([], "workers = -1\n", -1)],
                         ids=["flag", "config"])
def test_run_refuses_a_non_positive_worker_count_before_any_output(tmp_path, capsys,
                                                                   monkeypatch, flags,
                                                                   config, workers):
    def no_state(*args, **kwargs):
        raise AssertionError("the start state was built")

    monkeypatch.setattr(cli, "init_condition", no_state)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"size = 8\n{config}")
    assert cli.main(["run", "--config", str(cfg)] + flags) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: 'workers' must be positive, got {workers}\n"


def test_run_zero_cycles_writes_the_start_state(tmp_path):
    out = tmp_path / "a.snap"
    assert cli.main(["run", "--size", "8", "--workers", "1", "--cycles", "0",
                     "--out", str(out)]) == 0
    assert read_snapshot(out).cycle == 0


def test_run_command_stops_at_t_end():
    cfg = RunConfig(size=8, cycles=None, t_end=1.0, ic="solenoidal_random", seed=2,
                    workers=1)
    buf = io.StringIO()
    assert cli.run_command(cfg, out=buf) == 0
    lines = [l for l in buf.getvalue().splitlines() if not l.startswith("#")]
    times = [float(l.split("\t")[2]) for l in lines]
    assert times[-1] >= 1.0
    assert all(t < 1.0 for t in times[:-1])


def test_run_without_a_stop_rule_takes_ten_cycles():
    cfg = RunConfig(size=8, ic="uniform", workers=1)
    assert cfg.cycles is None and cfg.t_end is None
    buf = io.StringIO()
    assert cli.run_command(cfg, out=buf) == 0
    lines = [l for l in buf.getvalue().splitlines() if not l.startswith("#")]
    assert [int(l.split("\t")[0]) for l in lines] == list(range(1, 11))


@pytest.mark.parametrize("flags, config", [
    (["--cycles", "1", "--t-end", "2.0"], ""),
    (["--t-end", "2.0"], "cycles = 1"),
    ([], "cycles = 1\nt_end = 2.0"),
])
def test_run_rejects_both_stop_rules(tmp_path, capsys, flags, config):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"size = 8\nworkers = 1\n{config}\n")
    out = tmp_path / "a.snap"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)] + flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'cycles'" in err and "'t_end'" in err
    assert not out.exists()


@pytest.mark.parametrize("flags, config", [
    (["--t-end", "nan"], ""), (["--t-end", "inf"], ""), (["--t-end=-inf"], ""),
    ([], "t_end = nan"),
])
def test_run_refuses_a_non_finite_t_end_before_any_output(tmp_path, capsys, flags, config):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"size = 8\nworkers = 1\n{config}\n")
    out = tmp_path / "a.snap"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)] + flags) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(r"error: 't_end' must be finite, got -?(nan|inf)\n", captured.err)
    assert not out.exists()


def test_bench_command_table_and_derived_block():
    buf = io.StringIO()
    assert cli.bench_command([16], repeats=2, workers=1, precision="single",
                             out=buf) == 0
    text = buf.getvalue()
    rows = [l for l in text.splitlines() if l and not l.startswith("#")]
    timing = [r for r in rows if r.startswith("16\t")]
    assert len(timing) == 1
    cols = timing[0].split("\t")
    assert float(cols[1]) >= float(cols[2])  # median >= min
    derived = {r.split("\t")[0]: r.split("\t") for r in rows if not r[0].isdigit()}
    ngpu = derived["N-GPU"]
    assert float(ngpu[2]) == pytest.approx(105.7, abs=0.05)
    assert float(ngpu[3]) == pytest.approx(2.40, abs=0.05)
    assert float(ngpu[4]) == pytest.approx(7.4, abs=0.15)
    assert float(ngpu[5]) == pytest.approx(19.1, abs=0.15)


HOSTED = """\
label = x86(1)
peak_gflops = 17
peak_gbps = 19.2
reference_runtime_ms_128 = 8770

label = blank_bandwidth
peak_gflops = 10
reference_runtime_ms_128 = 500

label = host
peak_gflops = 48
peak_gbps = 21
watts = 65
"""


def test_bench_host_row_is_written_like_every_machine(tmp_path, monkeypatch):
    path = tmp_path / "machines.txt"
    path.write_text(HOSTED)
    monkeypatch.setattr(cli, "_available_memory_bytes", lambda: None)
    reports = [StepReport(0.1, ms, {s: ms / 4 for s in SECTIONS})
               for ms in (900.0, 1100.0, 1000.0)]
    monkeypatch.setattr(validation, "cycle_times", lambda runs, repeats, precision: [reports])
    buf = io.StringIO()
    assert cli.bench_command([128], repeats=3, workers=1, precision="single",
                             machines_path=str(path), out=buf) == 0
    table, record = buf.getvalue().split("# host record (machine-spec format):\n")
    rows = {l.split("\t")[0]: l.split("\t")[1:] for l in table.splitlines()
            if l and not l.startswith("#")}
    assert set(rows) == {"128", "x86(1)", "host"}  # a blank peak skips the row
    assert rows["128"] == ["1000.000", "900.000", "1"] + ["250.000"] * len(SECTIONS)
    machines = perf.parse_machines(HOSTED)
    rep = perf.criteria(1000.0, machines["host"], machines["x86(1)"])
    assert rows["host"] == ["1000", f"{rep.code_speedup:.1f}", f"{rep.fractional_speedup:.2f}",
                            f"{rep.flops_fraction_pct:.1f}", f"{rep.bandwidth_fraction_pct:.1f}"]
    assert perf.parse_machines(record) == {
        "host": replace(machines["host"], reference_runtime_ms_128=1000.0)}


@pytest.mark.parametrize("text, message", [
    ("label = host\npeak_gflops = 48\n", "the machines file has no 'x86(1)' baseline record"),
    ("label = x86(1)\npeak_gflops = abc\n", "line 2: invalid value for 'peak_gflops': 'abc'"),
    ("label = x86(1)\npeak_gflops = 17\npeak_gbps = 19.2\nreference_runtime_ms_128 =\n",
     "baseline 'x86(1)' has no reference runtime"),
    ("label = x86(1)\npeak_gflops =\npeak_gbps = 19.2\nreference_runtime_ms_128 = 8770\n",
     "baseline 'x86(1)' is missing peak figures"),
    ("label = x86(1)\npeak_gflops = 17\npeak_gbps = 19.2\nreference_runtime_ms_128 = 0\n",
     "line 1: reference_runtime_ms_128 must be positive, got 0.0"),
    ("label = x86(1)\npeak_gflops = 17\npeak_gbps = 19.2\nreference_runtime_ms_128 = 8770\n\n"
     "label = x\npeak_gflops = 1\npeak_gbps = 1\nreference_runtime_ms_128 = nan\n",
     "line 6: reference_runtime_ms_128 must be positive, got nan"),
    ("label = x86(1)\npeak_gflops = 17\npeak_gbps = 19.2\nreference_runtime_ms_128 = 8770\n\n"
     "label = x\npeak_gflops = inf\npeak_gbps = 1\nreference_runtime_ms_128 = 1\n",
     "line 6: peak_gflops must be finite, got inf"),
], ids=["no_baseline", "bad_value", "no_baseline_runtime", "no_baseline_peak",
        "zero_baseline_runtime", "nan_runtime", "inf_peak"])
def test_main_bench_rejects_a_bad_machines_file_before_timing(text, message, tmp_path,
                                                              monkeypatch, capsys):
    def no_timing(*args):
        raise AssertionError("a cycle was timed")

    monkeypatch.setattr(validation, "cycle_times", no_timing)
    path = tmp_path / "machines.txt"
    path.write_text(text)
    report = tmp_path / "bench.tsv"
    report.write_bytes(b"# old report\n")
    assert cli.main(["bench", "--sizes", "16", "--workers", "1",
                     "--machines", str(path), "--out", str(report)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert report.read_bytes() == b"# old report\n"


@pytest.mark.parametrize("flags, message", [
    (["--repeats", "0"], "--repeats must be positive, got 0"),
    (["--workers", "0"], "--workers must be positive, got 0"),
    (["--sizes", "16,10"], "dimension 10 not a multiple of 4"),
], ids=["repeats", "workers", "sizes"])
def test_main_bench_refuses_a_bad_count_or_size_before_any_output(flags, message, tmp_path,
                                                                  monkeypatch, capsys):
    def not_read(*args):
        raise AssertionError("the machines file was read")

    monkeypatch.setattr(perf, "load_machines", not_read)
    report = tmp_path / "bench.tsv"
    report.write_bytes(b"# old report\n")
    assert cli.main(["bench", "--sizes", "16"] + flags + ["--out", str(report)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert report.read_bytes() == b"# old report\n"


def test_bench_command_refuses_an_unknown_precision_before_any_output(monkeypatch):
    monkeypatch.setattr(validation, "cycle_times", lambda *args: pytest.fail("timed a cycle"))
    buf = io.StringIO()
    with pytest.raises(ValueError, match="precision must be 'single' or 'double', got 'half'"):
        cli.bench_command([16], repeats=1, workers=1, precision="half", out=buf)
    assert buf.getvalue() == ""


@pytest.mark.parametrize("avail_mib, timed", [(20, [64]), (16, [])])
def test_bench_skips_a_size_whose_state_and_arena_do_not_fit(monkeypatch, avail_mib, timed):
    # 64^3 single: 16 MiB of state arrays and one 2.5 MiB arena.
    monkeypatch.setattr(cli, "_available_memory_bytes", lambda: avail_mib << 20)
    sizes = []

    def cycle_times(runs, repeats, precision):
        sizes.extend(n for n, _ in runs)
        return [[StepReport(0.1, 100.0, {s: 25.0 for s in SECTIONS})]]

    monkeypatch.setattr(validation, "cycle_times", cycle_times)
    buf = io.StringIO()
    assert cli.bench_command([64, 128], repeats=1, workers=1, precision="single", out=buf) == 0
    rows = {l.split("\t")[0]: l.split("\t")[1:] for l in buf.getvalue().splitlines()
            if l.split("\t")[0] in ("64", "128")}
    assert sizes == timed
    skipped = ["skipped", "skipped", "1", "# insufficient memory"]
    assert rows["128"] == skipped
    assert (rows["64"] == skipped) == (not timed)


def test_main_bench_out_writes_what_it_prints(tmp_path, capsys):
    path = tmp_path / "bench.tsv"
    assert cli.main(["bench", "--sizes", "16", "--repeats", "1", "--out", str(path)]) == 0
    printed = capsys.readouterr().out
    assert printed.startswith("# size\tmedian_ms") and "\nN-GPU\t" in printed
    assert path.read_text() == printed


def test_main_exits_quietly_when_stdout_closes_early():
    # `tvdmhd bench | head -1`: unbuffered, so the first line is out before the
    # timed cycles and the next write meets the closed pipe.
    env = dict(os.environ, PYTHONUNBUFFERED="1",
               PYTHONPATH=os.pathsep.join([str(Path(tvdmhd.__file__).parents[1]),
                                           os.environ.get("PYTHONPATH", "")]))
    env.pop(cli.ENV_WORKERS, None)
    proc = subprocess.Popen([sys.executable, "-m", "tvdmhd", "bench", "--sizes", "16",
                             "--repeats", "1"], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline().startswith(b"# size")
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 141
    assert err == b""


@pytest.mark.parametrize("workers", [1, 2])
def test_run_prints_each_cycles_sections_and_page_faults(workers):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(Path(tvdmhd.__file__).parents[1]),
                                                       os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-m", "tvdmhd", "run", "--size", "16", "--workers",
                           str(workers), "--cycles", "2", "--precision", "single"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    header, *lines = proc.stdout.splitlines()
    names = header.removeprefix("# ").split("\t")
    assert names == (["cycle", "dt", "time", "wall_ms"] + [f"{s}_ms" for s in SECTIONS]
                     + ["minflt_self", "minflt_workers"])
    assert len(lines) == 2
    for cycle, line in enumerate(lines, start=1):
        fields = dict(zip(names, line.split("\t"), strict=True))
        assert int(fields["cycle"]) == cycle
        assert all(float(fields[name]) > 0 for name in names[1:4])
        assert all(float(fields[f"{s}_ms"]) >= 0 for s in SECTIONS)
        if not os.path.exists("/proc/self/stat"):
            assert fields["minflt_self"] == fields["minflt_workers"] == "-"
            continue
        assert int(fields["minflt_self"]) >= 0
        if workers == 1:  # no pool is forked
            assert fields["minflt_workers"] == "-"
        else:  # one worker per slab, at most one per CPU the process may run on
            counts = [int(c) for c in fields["minflt_workers"].split(",")]
            assert len(counts) == min(workers, len(os.sched_getaffinity(0)))
            assert min(counts) >= 0


def test_validate_command_report_is_machine_readable(monkeypatch):
    cheap = [
        validation.CheckResult("alpha", 1.0, 2.0, True),
        validation.CheckResult("beta", 3.0, 2.0, False, note="demo"),
    ]
    monkeypatch.setattr(validation, "default_checks", lambda full=False: cheap)
    buf = io.StringIO()
    assert cli.validate_command(out=buf) == 1  # beta fails
    lines = buf.getvalue().splitlines()
    assert lines[1] == "alpha\t1\t2\tPASS"
    assert lines[2] == "beta\t3\t2\tFAIL\tdemo"
    assert lines[3].startswith("scaling_ratio_128_64") and "SKIPPED" in lines[3]
    assert lines[4] == "# 1 failure(s)"


def test_validate_command_returns_zero_when_every_check_passes(monkeypatch):
    cheap = [validation.CheckResult("alpha", 1.0, 2.0, True)]
    monkeypatch.setattr(validation, "default_checks", lambda full=False: cheap)
    buf = io.StringIO()
    assert cli.validate_command(out=buf) == 0
    assert buf.getvalue().splitlines()[-1] == "# 0 failure(s)"


def test_tvd_check_negative_control(monkeypatch):
    # An unlimited central slope is not TVD; the check must catch it.
    monkeypatch.setattr(fluid, "_limit",
                        lambda a, b, out, *scratch: np.multiply(0.5, a + b, out=out))
    result = validation.check_tvd(n=64, steps=12)
    assert not result.passed
    assert result.value > 1e-6


def test_main_slice_from_ic(tmp_path):
    out = tmp_path / "plane.tsv"
    rc = cli.main(["slice", "--ic", "orszag_tang_xy", "--size", "16",
                   "--axis", "z", "--index", "0", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# i\tj\tentropy")
    assert len(lines) == 1 + 16 * 16


def _entropy_at(path, i, j=0):
    for line in Path(path).read_text().splitlines()[1:]:
        cols = line.split("\t")
        if (int(cols[0]), int(cols[1])) == (i, j):
            return float(cols[2])
    raise AssertionError(f"no row ({i}, {j}) in {path}")


def test_slice_of_a_built_state_takes_gamma_from_the_flag_then_the_config(tmp_path):
    # x = 5 of sod_x is the low state, rho 0.125 and p 0.1.
    cfg = tmp_path / "run.cfg"
    cfg.write_text("gamma = 1.4\n")
    runs = {"flag-3": ["--gamma", "3.0"], "config-1.4": ["--config", str(cfg)],
            "flag-over-config": ["--config", str(cfg), "--gamma", "3.0"], "default": []}
    entropy = {}
    for name, flags in runs.items():
        out = tmp_path / f"{name}.tsv"
        assert cli.main(["slice", "--ic", "sod_x", "--size", "8", "--out", str(out)]
                        + flags) == 0
        entropy[name] = _entropy_at(out, 5)
    assert entropy["flag-3"] == entropy["flag-over-config"] == pytest.approx(0.1 / 0.125 ** 3)
    assert entropy["config-1.4"] == pytest.approx(0.1 / 0.125 ** 1.4)
    assert entropy["default"] == pytest.approx(0.1 / 0.125 ** (5 / 3))


def test_slice_does_not_read_the_worker_count(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.ENV_WORKERS, "abc")
    out = tmp_path / "x.tsv"
    assert cli.main(["slice", "--ic", "uniform", "--size", "8", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 1 + 8 * 8


def test_slice_of_a_snapshot_takes_gamma_from_the_config(tmp_path):
    snap = tmp_path / "a.snap"
    write_snapshot(init_condition("sod_x", tvdmhd.GridShape(8, 8, 8), tvdmhd.SchemeParams()),
                   snap)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("gamma = 1.4\n")
    assert cli.main(["slice", "--snapshot", str(snap), "--out", str(tmp_path / "a.tsv")]) == 0
    assert cli.main(["slice", "--snapshot", str(snap), "--config", str(cfg),
                     "--out", str(tmp_path / "b.tsv")]) == 0
    assert _entropy_at(tmp_path / "a.tsv", 5) == pytest.approx(0.1 / 0.125 ** (5 / 3))
    # The energy was built with 5/3, so gamma 1.4 recovers p = 0.4 * 0.1 / (2/3).
    assert _entropy_at(tmp_path / "b.tsv", 5) == pytest.approx(0.06 / 0.125 ** 1.4)


@pytest.mark.parametrize("flags", [["--size", "8"], ["--ic", "sod_x"]])
def test_slice_of_a_snapshot_refuses_size_and_ic(tmp_path, capsys, flags):
    snap = tmp_path / "a.snap"
    write_snapshot(init_condition("sod_x", tvdmhd.GridShape(8, 8, 8), tvdmhd.SchemeParams()),
                   snap)
    out = tmp_path / "a.tsv"
    assert cli.main(["slice", "--snapshot", str(snap), "--out", str(out)] + flags) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("source", ["snapshot", "built"])
@pytest.mark.parametrize("gamma", ["0.5", "1", "inf", "nan"])
def test_slice_refuses_a_bad_gamma_before_any_output(tmp_path, capsys, source, gamma):
    out = tmp_path / "a.tsv"
    if source == "snapshot":
        snap = tmp_path / "a.snap"
        write_snapshot(init_condition("sod_x", tvdmhd.GridShape(8, 8, 8), tvdmhd.SchemeParams()),
                       snap)
        flags = ["--snapshot", str(snap)]
    else:
        flags = ["--ic", "sod_x", "--size", "8"]
    assert cli.main(["slice", "--gamma", gamma, "--out", str(out)] + flags) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: gamma must be finite and exceed 1, got {float(gamma)}\n"
    assert not out.exists()


@pytest.mark.parametrize("key, value, message", [
    ("dx", "inf", "cell width must be positive and finite, got inf"),
    ("gamma", "inf", "gamma must be finite and exceed 1, got inf"),
])
def test_run_refuses_a_non_finite_dx_or_gamma_before_any_output(tmp_path, capsys, key, value,
                                                                 message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"size = 8\nworkers = 1\n{key} = {value}\n")
    out = tmp_path / "a.snap"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert not out.exists()


# The builder of each kind takes exactly these initial-condition keys.
IC_KEY_VALUES = {"seed": "1", "amplitude": "0.1", "b_amplitude": "0.1", "width": "2.0",
                 "velocity": "0.5", "profile": "sine"}
IC_KEYS_TAKEN = {"solenoidal_random": {"seed", "amplitude", "b_amplitude"},
                 "advect_pulse": {"amplitude", "width", "velocity", "profile"}}


@pytest.mark.parametrize("kind", tvdmhd.ic.KINDS)
@pytest.mark.parametrize("key", IC_KEY_VALUES)
def test_run_reads_or_refuses_every_ic_key(tmp_path, capsys, kind, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"ic = {kind}\nsize = 8\nworkers = 1\ncycles = 0\n"
                   f"{key} = {IC_KEY_VALUES[key]}\n")
    buf = io.StringIO()
    if key in IC_KEYS_TAKEN.get(kind, ()):
        assert cli.run_command(load_config(str(cfg), {}), out=buf) == 0
        assert buf.getvalue().startswith("# cycle")
        return
    message = f"the {kind} initial condition takes no option '{key}'"
    with pytest.raises(ValueError, match=f"^{message}$"):
        cli.run_command(load_config(str(cfg), {}), out=buf)
    assert buf.getvalue() == ""  # refused before the header
    assert cli.main(["run", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_ic_options_pass_every_key_that_is_set():
    assert RunConfig().seed is None and RunConfig().ic_options() == {}
    cfg = RunConfig(ic="sod_x", amplitude=1.0, width=2.0, seed=3)
    assert cfg.ic_options() == {"seed": 3, "amplitude": 1.0, "width": 2.0}
    cfg = RunConfig(ic="solenoidal_random", amplitude=0.3, b_amplitude=0.1)
    assert cfg.ic_options() == {"amplitude": 0.3, "b_amplitude": 0.1}


def test_run_refuses_a_non_finite_start_state_before_the_header(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("ic = advect_pulse\nsize = 8\nworkers = 1\nvelocity = inf\n")
    message = "non-finite velocity at cell (0, 0, 0) in the advect_pulse initial condition"
    buf = io.StringIO()
    with pytest.raises(fluid.PositivityError, match=re.escape(message)):
        cli.run_command(load_config(str(cfg), {}), out=buf)
    assert buf.getvalue() == ""
    assert cli.main(["run", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_main_bad_config_returns_error(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("sizee = 16\n")
    assert cli.main(["run", "--config", str(cfg)]) == 2


def test_env_var_sets_default_workers(monkeypatch):
    monkeypatch.setenv(cli.ENV_WORKERS, "3")
    assert cli.default_workers() == 3
    assert RunConfig().workers == 3
    for raw in ("junk", "0", "-3"):
        monkeypatch.setenv(cli.ENV_WORKERS, raw)
        with pytest.raises(ConfigError, match=f"TVDMHD_WORKERS .* got '{raw}'"):
            cli.default_workers()
    assert cli.main(["run", "--size", "8", "--cycles", "1"]) == 2
    assert cli.main(["bench", "--sizes", "16", "--repeats", "1"]) == 2
