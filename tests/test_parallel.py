import os
import signal
from functools import partial

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tvdmhd import (GridShape, PositivityError, cfl_timestep, fluid_sweep, init_condition,
                    magnetic_sweep, parallel_for, partition, step_cycle)
from tvdmhd.parallel import _Pool, chunks, shared_pair

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


def test_closure_bodies_run_in_the_calling_process():
    pids = []
    parallel_for(partition(64, 4), lambda i, lo, hi: pids.append(os.getpid()))
    assert pids == [os.getpid()] * 4


# --- the worker pool: kernel tasks are module-level functions ---------------

def _fill(out, i, lo, hi):
    out[lo:hi] = os.getpid()


def _fail_in(failing, i, lo, hi):
    if i in failing:
        raise RuntimeError(f"boom {i}")


def _exit_in(dying, i, lo, hi):
    if i in dying:
        os._exit(3)


def _fill_both(out, private, i, lo, hi):
    out[lo:hi] = 1
    private[lo:hi] = 1


def _worker_pids(out, slabs):
    # The pid that wrote each slab of `out`.
    parallel_for(partition(out.size, slabs), partial(_fill, out))
    return [int(pid) for pid in out.reshape(slabs, -1)[:, 0]]


def test_pool_writes_shared_memory_slab_i_on_worker_i_mod_p():
    out, _ = shared_pair((64,), np.float64)
    pids = _worker_pids(out, 8)
    assert (out.reshape(8, 8).T == pids).all()
    procs = min(8, os.cpu_count())
    assert len(set(pids)) == procs and os.getpid() not in pids
    assert pids == [pids[i % procs] for i in range(8)]


def test_pool_reraises_lowest_failing_slab():
    with pytest.raises(RuntimeError, match="^boom 2$"):
        parallel_for(partition(64, 8), partial(_fail_in, (6, 2, 5)))


@pytest.mark.parametrize("call, where", [
    (lambda s, p: cfl_timestep(s, p, workers=2), r"in the cfl timestep \(x fastest\), cycle 7"),
    (lambda s, p: fluid_sweep(s, 0.01, p, workers=2), r"in the x sweep, cycle 7"),
    (lambda s, p: magnetic_sweep(s, 0.01, p, workers=2),
     r"entering the x magnetic update, cycle 7"),
])
def test_worker_positivity_error_names_cell_axis_and_cycle(params, call, where):
    state = random_state(GridShape(8, 8, 16), params, seed=4)
    state.cycle = 7
    state.rho[12, 3, 6] = -1.0  # slab 1
    state.rho[5, 1, 2] = -1.0   # slab 0: the lowest failing slab names it
    with pytest.raises(PositivityError, match=rf"^non-positive density at cell \(2, 1, 5\) {where}$"):
        call(state, params)


def test_private_array_argument_raises_before_any_worker_runs():
    out, _ = shared_pair((64,), np.float64)
    with pytest.raises(ValueError, match="not in shared memory"):
        parallel_for(partition(64, 2), partial(_fill_both, out, np.zeros(64)))
    assert not out.any()


def test_state_made_after_the_pool_forked_steps_bitwise_equal(params):
    step_cycle(random_state(GridShape(8, 8, 8), params, seed=8), params, workers=2)
    late = random_state(GridShape(8, 8, 8), params, seed=9)
    ref = late.copy()
    step_cycle(late, params, workers=2)
    step_cycle(ref, params)
    assert state_bytes(late) == state_bytes(ref)


def test_worker_that_dies_raises_runtime_error_naming_its_slab():
    with pytest.raises(RuntimeError, match=r"died .* running slab\(s\) (0, )?1$"):
        parallel_for(partition(64, 2), partial(_exit_in, (1,)))
    out, _ = shared_pair((64,), np.float64)
    assert os.getpid() not in _worker_pids(out, 2)  # a fresh pool


def test_workers_ignore_sigint():
    out, _ = shared_pair((64,), np.float64)
    pids = _worker_pids(out, 2)
    for pid in set(pids):
        os.kill(pid, signal.SIGINT)
    assert _worker_pids(out, 2) == pids


def test_no_child_is_left_after_the_pool_closes():
    parallel_for(partition(64, 2), partial(_fail_in, ()))
    _Pool.shutdown()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
