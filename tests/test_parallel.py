import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tvdmhd import GridShape, fluid_sweep, init_condition, parallel_for, partition
from tvdmhd.parallel import chunks

from conftest import random_state, state_bytes


def test_partition_128_by_8():
    part = partition(128, 8)
    assert part == tuple((16 * w, 16 * (w + 1)) for w in range(8))


def test_partition_single_worker():
    assert partition(16, 1) == ((0, 16),)


def test_partition_uneven_sizes():
    part = partition(10, 4)
    sizes = sorted(hi - lo for lo, hi in part)
    assert sizes == [2, 2, 3, 3]


@pytest.mark.parametrize("lo, hi, unit, budget, want", [
    (0, 10, 4, 12, [(0, 3), (3, 6), (6, 9), (9, 10)]),
    (5, 9, 4, 100, [(5, 9)]),
    (2, 5, 64, 16, [(2, 3), (3, 4), (4, 5)]),  # a unit above the budget still goes alone
    (3, 3, 4, 12, []),
])
def test_chunks_cut_range_into_whole_units_within_budget(lo, hi, unit, budget, want):
    assert list(chunks(lo, hi, unit, budget)) == want


def test_partition_rejects_too_many_workers():
    with pytest.raises(ValueError, match="more workers than slabs"):
        partition(4, 8)


@given(n=st.integers(1, 300), workers=st.integers(1, 32))
def test_partition_properties(n, workers):
    if workers > n:
        with pytest.raises(ValueError):
            partition(n, workers)
        return
    part = partition(n, workers)
    assert part[0][0] == 0 and part[-1][1] == n
    for (alo, ahi), (blo, bhi) in zip(part, part[1:]):
        assert ahi == blo and ahi > alo
    sizes = [hi - lo for lo, hi in part]
    assert max(sizes) - min(sizes) <= 1


def test_parallel_for_ordered_combine_matches_sequential():
    rng = np.random.default_rng(3)
    data = rng.standard_normal(1000)
    part = partition(1000, 7)
    partials = [None] * 7

    def body(i, lo, hi):
        acc = 0.0
        for v in data[lo:hi]:
            acc = acc + float(v)
        partials[i] = acc

    parallel_for(part, body)
    combined = 0.0
    for v in partials:
        combined = combined + v

    # oracle: one sequential pass, same association
    seq = 0.0
    for lo, hi in part:
        block = 0.0
        for v in data[lo:hi]:
            block = block + float(v)
        seq = seq + block
    assert combined == seq


def test_parallel_for_error_names_slab():
    part = partition(64, 8)

    def body(i, lo, hi):
        if i == 3:
            raise RuntimeError(f"boom {i}")

    with pytest.raises(RuntimeError, match="^boom 3$"):
        parallel_for(part, body)


def test_parallel_for_reports_lowest_failing_slab():
    part = partition(64, 8)

    def body(i, lo, hi):
        if i in (6, 2, 5):
            raise RuntimeError(f"boom {i}")

    with pytest.raises(RuntimeError, match="^boom 2$"):
        parallel_for(part, body)


def test_sweep_bitwise_identical_across_worker_counts(params):
    ref = None
    for workers in (1, 2, 4, 8):
        state = random_state(GridShape(16, 8, 8), params, seed=21)
        fluid_sweep(state, 0.1, params, workers=workers)
        blob = state_bytes(state)
        if ref is None:
            ref = blob
        assert blob == ref
