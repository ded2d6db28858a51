import os
import signal
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import tvdmhd
from tvdmhd import (GridShape, PositivityError, cfl_timestep, fluid_sweep, init_condition,
                    magnetic_sweep, parallel_for, partition, step_cycle)
from tvdmhd.parallel import _Pool, chunks, shared_pair

from conftest import copy_state, random_state, state_bytes


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


def test_partition_caps_workers_at_one_plane_each():
    assert partition(4, 8) == ((0, 1), (1, 2), (2, 3), (3, 4))


@given(n=st.integers(1, 300), workers=st.integers(1, 32))
def test_partition_properties(n, workers):
    part = partition(n, workers)
    assert len(part) == min(n, workers)
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


def test_more_workers_than_planes_steps_bitwise_equal(params):
    # 12 workers for the 8 columns of the b3 pass: the partition caps them.
    shape = GridShape(16, 8, 16)
    many = init_condition("solenoidal_random", shape, params)
    one = copy_state(many)
    step_cycle(many, params, workers=12)
    step_cycle(one, params)
    assert state_bytes(many) == state_bytes(one)


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


def _raise_unpicklable_in(failing, i, lo, hi):
    if i in failing:
        raise RuntimeError(lambda: None)  # a local object: the reply cannot pickle it


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
    procs = min(8, len(os.sched_getaffinity(0)))  # the CPUs this process may run on
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
    ref = copy_state(late)
    step_cycle(late, params, workers=2)
    step_cycle(ref, params)
    assert state_bytes(late) == state_bytes(ref)


def test_worker_that_dies_raises_runtime_error_naming_its_slab():
    with pytest.raises(RuntimeError, match=r"died .* running slab\(s\) (0, )?1$"):
        parallel_for(partition(64, 2), partial(_exit_in, (1,)))
    out, _ = shared_pair((64,), np.float64)
    assert os.getpid() not in _worker_pids(out, 2)  # a fresh pool


def test_unpicklable_exception_raises_runtime_error_naming_its_slab():
    with pytest.raises(RuntimeError, match=r"^slab 1: .*[Pp]ickle"):
        parallel_for(partition(64, 2), partial(_raise_unpicklable_in, (1,)))
    out, _ = shared_pair((64,), np.float64)
    _worker_pids(out, 2)  # the pool still serves the next call
    assert (out != 0).all()


_POOL_THEN_SLEEP = """
import os, sys, time
from tvdmhd import GridShape, SchemeParams, cfl_timestep, init_condition
from tvdmhd.parallel import _Pool

state = init_condition("uniform", GridShape(8, 8, 8), SchemeParams(), v=(1.0, 0.0, 0.0))
cfl_timestep(state, SchemeParams(), workers=2)
with open(sys.argv[1] + ".tmp", "w") as fh:
    fh.write(" ".join(str(w.pid) for w in _Pool.current.workers))
os.rename(sys.argv[1] + ".tmp", sys.argv[1])
time.sleep(120)
"""


def _running(pid):
    # False once the process has exited, as a zombie too.
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rpartition(")")[2].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads process states from /proc")
def test_no_worker_outlives_a_parent_killed_with_sigkill(tmp_path):
    # The pids go to a file: a pipe the workers inherit would stay open after the kill.
    pids_file = tmp_path / "pids"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(tvdmhd.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    parent = subprocess.Popen([sys.executable, "-c", _POOL_THEN_SLEEP, str(pids_file)],
                              env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    pids = []
    try:
        deadline = time.monotonic() + 60
        while not pids_file.exists():
            assert parent.poll() is None and time.monotonic() < deadline
            time.sleep(0.05)
        pids = [int(pid) for pid in pids_file.read_text().split()]
        assert pids
        parent.kill()
        parent.wait()
        deadline = time.monotonic() + 10
        while any(map(_running, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(_running, pids))
    finally:
        parent.kill()
        parent.wait()
        for pid in filter(_running, pids):
            os.kill(pid, signal.SIGKILL)


_PINNED_TO_ONE_CPU = """
import os
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from tvdmhd import GridShape, SchemeParams, init_condition, step_cycle
from tvdmhd.parallel import _Pool

params = SchemeParams()
one, two = (init_condition("solenoidal_random", GridShape(16, 16, 16), params) for _ in "12")
step_cycle(one, params, 1)
step_cycle(two, params, 2)
assert len(_Pool.current.workers) == 1, f"{len(_Pool.current.workers)} workers on one CPU"
assert one.shape == two.shape and one.u.tobytes() == two.u.tobytes()
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
def test_a_process_pinned_to_one_cpu_forks_one_worker():
    # The subprocess pins only itself; 2 workers then run both slabs on one pool worker.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(tvdmhd.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", _PINNED_TO_ONE_CPU], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


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
