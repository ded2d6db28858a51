"""The cycle's kernels take their temporaries from the process's scratch arena."""

import os
import tracemalloc

import numpy as np
import pytest

from tvdmhd import (GridShape, SchemeParams, cfl_timestep, fluid_sweep, init_condition,
                    magnetic_sweep, parallel, step_cycle)


def test_scratch_carves_aligned_disjoint_views_from_one_buffer():
    a, b, c = parallel.scratch(np.float32, 5, 100, 3)
    assert (a.shape, b.shape, c.shape) == ((5,), (100,), (3,)) and a.dtype == np.float32
    starts = [x.ctypes.data for x in (a, b, c)]
    assert all(s % 64 == 0 for s in starts)
    assert starts[0] + a.nbytes <= starts[1] and starts[1] + b.nbytes <= starts[2]
    (again,) = parallel.scratch(np.float64, 2)
    assert again.ctypes.data == starts[0]  # every call starts at the arena's start


def test_scratch_grows_to_the_largest_request_and_keeps_it():
    size = parallel._arena.nbytes + 1000
    (big,) = parallel.scratch(np.uint8, size)
    arena = parallel._arena
    assert arena.nbytes >= size and big.ctypes.data == arena.ctypes.data
    parallel.scratch(np.uint8, 10)
    assert parallel._arena is arena


@pytest.fixture
def warmed():
    """A 32^3 single-precision state after one warm-up cycle on 1 worker."""
    params = SchemeParams(precision="single")
    state = init_condition("solenoidal_random", GridShape(32, 32, 32), params, seed=0)
    step_cycle(state, params, 1)
    return state, params


@pytest.mark.parametrize("kernel", ["fluid_sweep", "cfl_timestep", "magnetic_sweep",
                                    "step_cycle"])
def test_a_warmed_kernel_allocates_nothing(warmed, kernel):
    # tracemalloc sees numpy's data buffers.  What is left under the bound is
    # numpy's own per-call iteration buffers for strided operands.
    state, params = warmed
    dt = 1e-4
    call = {"fluid_sweep": lambda: fluid_sweep(state, dt, params, 1),
            "cfl_timestep": lambda: cfl_timestep(state, params, 1),
            "magnetic_sweep": lambda: magnetic_sweep(state, dt, params, 1),
            "step_cycle": lambda: step_cycle(state, params, 1)}[kernel]
    tracemalloc.start()
    try:
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 128 << 10, f"{kernel} traced a {peak >> 10} KiB peak"


def _minor_faults(pid) -> int:
    with open(f"/proc/{pid}/stat") as f:
        # The fields after the parenthesised command name start at `state`.
        return int(f.read().rsplit(")", 1)[1].split()[7])


@pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="needs Linux /proc")
@pytest.mark.parametrize("workers", [1, 2])
def test_a_cycle_takes_no_page_faults(workers):
    # No totals before the first cycle, as `tvdmhd run` steps: nothing has
    # raised the allocator's thresholds, so per-cycle temporaries would fault.
    params = SchemeParams(precision="single")
    state = init_condition("solenoidal_random", GridShape(32, 32, 32), params, seed=0)
    step_cycle(state, params, workers)
    pool = parallel._Pool.current
    pids = ["self"] + ([w.pid for w in pool.workers] if workers > 1 else [])
    for _ in range(2):
        before = [_minor_faults(pid) for pid in pids]
        step_cycle(state, params, workers)
        faults = [_minor_faults(pid) - b for pid, b in zip(pids, before)]
        assert max(faults) <= 100, dict(zip(pids, faults))
