"""The cycle's kernels take their temporaries from the process's scratch arena."""

import gc
import os
import tracemalloc
import weakref

import numpy as np
import pytest

from tvdmhd import (GridShape, SchemeParams, cfl_timestep, fluid, fluid_sweep, init_condition,
                    magnetic, magnetic_sweep, parallel, run, step_cycle)


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


def test_a_workspace_is_made_once_and_carved_from_the_arena():
    calls = []

    def build(n):
        calls.append(n)
        return parallel.scratch(np.float32, n)

    first = parallel.workspace(build, 16)
    assert parallel.workspace(build, 16) is first and calls == [16]
    assert np.shares_memory(first[0], parallel._arena)
    parallel.workspace(build, 8)
    assert calls == [16, 8]


def test_a_grown_arena_rebuilds_the_cached_workspaces_and_frees_the_old_buffer():
    params = SchemeParams(precision="single")
    grown, kept = (init_condition("solenoidal_random", GridShape(16, 16, 16), params, seed=0)
                   for _ in range(2))
    for state in (grown, kept):
        step_cycle(state, params, 1)  # every kernel's workspaces are cached
    old = weakref.ref(parallel._arena.base)
    for state in (kept, grown):
        fluid_sweep(state, 1e-3, params, 1)
        magnetic_sweep(state, 1e-3, params, 1)
        if state is grown:
            parallel.scratch(np.uint8, parallel._arena.nbytes + 1)
        step_cycle(state, params, 1)
    assert grown.u.tobytes() == kept.u.tobytes()
    gc.collect()
    assert old() is None
    blocks = [ws for (build, _), ws in parallel._workspaces.items() if build is fluid._Block]
    assert blocks and all(np.shares_memory(ws.u, parallel._arena) for ws in blocks)


@pytest.mark.parametrize("n", [16, 32, 64])
def test_the_magnetic_chunk_fits_in_the_fluid_blocks_arena(monkeypatch, n):
    # Each process's arena is the fluid block's workspace, at most 2.5 MiB:
    # the cfl runs in it, and the magnetic chunk's fits in it.
    monkeypatch.setattr(parallel, "_arena", np.empty(0, np.uint8))
    monkeypatch.setattr(parallel, "_workspaces", {})
    params = SchemeParams(precision="single")
    state = init_condition("solenoidal_random", GridShape(n, n, n), params, seed=0)
    fluid_sweep(state, 1e-3, params, 1)
    block = parallel._arena.nbytes
    assert block <= 2.5 * 2 ** 20
    step_cycle(state, params, 1)
    magnetic_sweep(state, 1e-3, params, 1)
    assert parallel._arena.nbytes == block


@pytest.mark.parametrize("n, nbytes", [(32, 2_323_968), (64, 2_194_176), (128, 2_129_280)])
def test_a_fresh_process_arena_is_the_fluid_blocks_after_a_cycle(monkeypatch, n, nbytes):
    # The fluid block's workspace sizes the arena: the cfl runs in it, and
    # the magnetic chunk's fits in it.
    monkeypatch.setattr(parallel, "_arena", np.empty(0, np.uint8))
    monkeypatch.setattr(parallel, "_workspaces", {})
    params = SchemeParams(precision="single")
    state = init_condition("solenoidal_random", GridShape(n, n, n), params, seed=0)
    step_cycle(state, params, 1)
    assert parallel._arena.nbytes == nbytes


def test_a_warmed_process_caches_only_block_and_chunk_workspaces(monkeypatch):
    monkeypatch.setattr(parallel, "_arena", np.empty(0, np.uint8))
    monkeypatch.setattr(parallel, "_workspaces", {})
    params = SchemeParams(precision="single")
    state = init_condition("solenoidal_random", GridShape(32, 32, 32), params, seed=0)
    for _ in range(2):
        step_cycle(state, params, 1)
    assert {build for build, _ in parallel._workspaces} == {fluid._Block, magnetic._Chunk}


# Peak traced bytes of one call of each warmed kernel at 32^3 single.  What is
# left is numpy's iteration buffers, 32 KiB per strided operand of a call:
# the fluid update subtracts the padded rows' interior from the state rows
# (about 35 KiB traced); the magnetic chunk forms v1 from the state's strided
# rows into its padded rows, and updates b and b1 from them (about 100 KiB).
@pytest.mark.parametrize("kernel, bound", [("fluid_sweep", 48), ("cfl_timestep", 16),
                                           ("magnetic_sweep", 128), ("step_cycle", 128)])
def test_a_warmed_kernel_allocates_nothing(warmed, kernel, bound):
    # tracemalloc sees numpy's data buffers.
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
    assert peak < bound << 10, f"{kernel} traced a {peak >> 10} KiB peak"


@pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="needs Linux /proc")
@pytest.mark.parametrize("workers", [1, 2])
def test_a_cycle_takes_no_page_faults(workers):
    # No totals before the first cycle, as `tvdmhd run` steps: nothing has
    # raised the allocator's thresholds, so per-cycle temporaries would fault.
    params = SchemeParams(precision="single")
    state = init_condition("solenoidal_random", GridShape(32, 32, 32), params, seed=0)
    _, reports = run(state, params, n_cycles=3, workers=workers)
    for report in reports[1:]:  # after a warm-up cycle
        assert len(report.faults) >= (2 if workers > 1 else 1), report.faults
        assert max(report.faults.values()) <= 100, report.faults
