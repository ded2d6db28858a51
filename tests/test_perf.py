import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tvdmhd import (GridShape, MachineSpec, OpCountModel, TrafficModel,
                    bytes_per_step, criteria, flops_per_step, load_machines)
from tvdmhd.perf import BASELINE_LABEL, format_machine, parse_machines


def test_flop_census_sums_to_2366():
    model = OpCountModel()
    assert (model.add, model.sub, model.mul, model.div, model.sqrt) == (466, 598, 1174, 125, 3)
    assert model.flop_per_cell == 2366


def test_traffic_census_per_cell():
    model = TrafficModel()
    assert model.reads_per_cell == 11 + 6 * 10 + 6 * 14 + 4 * 8 == 187
    assert model.writes_per_cell == 6 * 5 + 6 * 6 + 4 * 8 == 98


@pytest.mark.parametrize("model, field", [(OpCountModel, "add"), (TrafficModel, "cfl_reads")])
def test_census_models_are_constants(model, field):
    with pytest.raises(TypeError):
        model(**{field: 1})


def test_flops_per_step_canonical_box():
    est = flops_per_step((128, 128, 128))
    assert est.model_flops == 2366 * 2_097_152 == 4_961_861_632
    assert est.canonical_flops == pytest.approx(4.62e9)


def test_flops_per_step_small_box():
    est = flops_per_step((16, 16, 16))
    assert est.model_flops == 2366 * 4096 == 9_691_136
    assert est.canonical_flops is None


def test_flops_accepts_grid_shape():
    assert flops_per_step(GridShape(16, 16, 16)).model_flops == 9_691_136


def test_bytes_per_step_canonical_single():
    est = bytes_per_step((128, 128, 128), "single")
    assert est.read_bytes == 187 * 2_097_152 * 4 == 1_568_669_696
    assert est.write_bytes == 98 * 2_097_152 * 4 == 822_083_584
    assert est.canonical_read_bytes == pytest.approx(1.46e9)
    assert est.canonical_write_bytes == pytest.approx(0.77e9)


def test_bytes_per_step_double_small():
    est = bytes_per_step((16, 16, 16), "double")
    assert est.read_bytes == 187 * 4096 * 8
    assert est.write_bytes == 98 * 4096 * 8
    assert est.canonical_read_bytes is None


def test_bytes_per_step_refuses_an_unknown_precision():
    # The real width is SchemeParams'; an unknown precision once counted as 8 bytes.
    with pytest.raises(ValueError, match="precision must be 'single' or 'double', got 'half'"):
        bytes_per_step((16, 16, 16), "half")


@given(n=st.sampled_from([8, 16, 24, 32, 64]))
def test_model_totals_scale_linearly_in_cells(n):
    unit = flops_per_step((8, 8, 8)).model_flops / 512
    est = flops_per_step((n, n, n))
    assert est.model_flops == unit * n ** 3
    tr = bytes_per_step((n, n, n), "single")
    assert tr.read_bytes / n ** 3 == bytes_per_step((8, 8, 8), "single").read_bytes / 512


def test_model_vs_canonical_within_8_percent():
    fl = flops_per_step((128, 128, 128))
    assert abs(fl.model_flops / fl.canonical_flops - 1) < 0.08
    tr = bytes_per_step((128, 128, 128), "single")
    model = tr.read_bytes + tr.write_bytes
    canonical = tr.canonical_read_bytes + tr.canonical_write_bytes
    assert abs(model / canonical - 1) < 0.08


# --- criteria ----------------------------------------------------------------

PUBLISHED = {
    "x86(8)": (6.7, 0.83, 2.6, 8.8),
    "Cell": (10.2, 0.42, 1.3, 1.3),
    "N-GPU": (105.7, 2.40, 7.4, 19.1),
    "A-GPU": (68.5, 0.43, 1.3, 11.3),
}


@pytest.fixture(scope="module")
def machines():
    return load_machines()


def test_bundled_machines_complete(machines):
    for label in ("x86(1)", "x86(8)", "Cell", "N-GPU", "A-GPU"):
        spec = machines[label]
        assert spec.peak_gflops > 0 and spec.peak_gbps > 0
        assert spec.reference_runtime_ms_128 > 0
    assert machines["x86(1)"].reference_runtime_ms_128 == 8770


@pytest.mark.parametrize("label", sorted(PUBLISHED))
def test_criteria_reproduces_published_rows(machines, label):
    speedup, fractional, flops_pct, bw_pct = PUBLISHED[label]
    spec = machines[label]
    rep = criteria(spec.reference_runtime_ms_128, spec, machines[BASELINE_LABEL])
    assert rep.code_speedup == pytest.approx(speedup, abs=0.05)
    assert rep.fractional_speedup == pytest.approx(fractional, abs=0.05)
    assert rep.flops_fraction_pct == pytest.approx(flops_pct, abs=0.15)
    assert rep.bandwidth_fraction_pct == pytest.approx(bw_pct, abs=0.15)


def test_criteria_baseline_against_itself(machines):
    base = machines[BASELINE_LABEL]
    rep = criteria(base.reference_runtime_ms_128, base, base)
    assert rep.code_speedup == pytest.approx(1.0, abs=1e-12)
    assert rep.fractional_speedup == pytest.approx(1.0, abs=1e-12)
    assert rep.flops_fraction_pct == pytest.approx(3.1, abs=0.15)
    assert rep.bandwidth_fraction_pct == pytest.approx(1.3, abs=0.15)


def test_criteria_requires_baseline_runtime():
    m = MachineSpec("a", peak_gflops=10, peak_gbps=10, reference_runtime_ms_128=5)
    base = MachineSpec("b", peak_gflops=10, peak_gbps=10)
    with pytest.raises(ValueError, match="no reference runtime"):
        criteria(5.0, m, base)


def test_machine_spec_rejects_non_positive_peaks():
    with pytest.raises(ValueError, match="peak_gflops"):
        MachineSpec("bad", peak_gflops=0.0, peak_gbps=1.0)


@pytest.mark.parametrize("name", ["peak_gflops", "peak_gbps", "reference_runtime_ms_128"])
@pytest.mark.parametrize("value, rule", [(0.0, "positive"), (-5.0, "positive"),
                                         (math.nan, "positive"), (math.inf, "finite")],
                         ids=["zero", "negative", "nan", "inf"])
def test_machine_spec_holds_peaks_and_runtime_positive_and_finite(name, value, rule):
    with pytest.raises(ValueError, match=f"^{name} must be {rule}, got {value}$"):
        MachineSpec("bad", **{name: value})
    with pytest.raises(ValueError, match=f"^line 2: {name} must be {rule}, got {value}$"):
        parse_machines(f"# c\nlabel = bad\n{name} = {value}\n")
    assert parse_machines(f"label = w\nwatts = {value}\n")["w"].watts is not None  # opaque


# --- machine-spec file format -----------------------------------------------

def test_machine_file_round_trip():
    spec = MachineSpec("demo", peak_gflops=12.5, peak_gbps=40, watts=None,
                       reference_runtime_ms_128=321)
    text = format_machine(spec)
    back = parse_machines(text)["demo"]
    assert back == spec


def test_machine_file_hash_starts_a_comment_only_after_whitespace():
    text = "# bundled\nlabel = x86#2  # the second x86 box\npeak_gflops = 17\t# theoretical\n"
    assert parse_machines(text) == {"x86#2": MachineSpec("x86#2", peak_gflops=17.0)}
    with pytest.raises(ValueError, match=r"^line 1: invalid value for 'peak_gflops': '17#'$"):
        parse_machines("peak_gflops = 17#\nlabel = x\n")


def test_machine_file_unknown_key_rejected():
    with pytest.raises(ValueError, match="unknown key"):
        parse_machines("label = x\nspeed = 4\n")


def test_machine_file_record_needs_label():
    with pytest.raises(ValueError, match=r"^line 3: machine record has no label$"):
        parse_machines("label = x\n\npeak_gflops = 4\n")


@pytest.mark.parametrize("text, message", [
    ("label = x\npeak_gflops = abc\n", r"^line 2: invalid value for 'peak_gflops': 'abc'$"),
    ("# c\nlabel = x\npeak_gflops = 0\n", r"^line 2: peak_gflops must be positive, got 0.0$"),
], ids=["bad_value", "zero_peak"])
def test_machine_file_value_errors_name_the_line(text, message):
    with pytest.raises(ValueError, match=message):
        parse_machines(text)
