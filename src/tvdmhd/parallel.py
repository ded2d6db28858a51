"""Slab partitioning, shared state memory and the deterministic fork-join contract.

Work is split over one array axis into contiguous slabs, one per worker:
the outermost (slowest-varying) axis, or the middle axis for the b3 part of
the magnetic update.  Bodies write only inside their own slab, with no
exception, and the values they write do not depend on the slab bounds.  Under
that contract every result is bitwise identical for any worker count and any
executor.  Inside a slab, bodies walk their range in `chunks` that fit a byte
budget.

Executor.  A body that is a kernel task, ``functools.partial(kernel, ...)`` of
a module-level function, runs on a pool of worker processes, so slabs compute
in parallel without sharing one interpreter lock.  Slab ``i`` goes to worker
``i % P``, with ``P = min(slabs, CPUs)`` and CPUs those the process may run on,
in one message per worker per call.  Any other body (a closure) runs in the
calling process, slab by slab, as does every single-range call.  Both
alternatives to the static assignment lost in alternated A/B runs at 128^3
single on 2 workers of a 2-core host: handing out 4 or 8 slabs per worker
dynamically took a median 1102 or 1069 ms per cycle against 1013 ms (won 0
of 5 and 2 of 5 pairs), and pinning each worker to a CPU 1038 against
991 ms (won 2 of 6).

- Memory.  The workers write the state in place: every state block is one
  half of an anonymous shared mapping made by `shared_pair`, which both the
  parent and the workers forked after it see.  A task's arrays cross to a
  worker as (mapping, offset, shape, strides, dtype) and are rebuilt there as
  views of the same pages; any other array raises ValueError, since a private
  copy in a worker would lose its writes.
- Lifetime.  The pool is forked with `os.fork` (an anonymous mapping is
  inherited only by fork) on the first call that needs it, and is reused by
  every later call, so it holds at most one worker per CPU it may run on.  A
  task that names a mapping made after the workers forked re-forks the pool,
  and the old workers exit, releasing the mappings the parent has dropped.
  The pool is closed at interpreter exit, and a worker exits when its task
  pipe closes, so none outlives the parent.  Workers ignore SIGINT, so Ctrl-C
  raises only in the parent.
"""

from __future__ import annotations

import atexit
import functools
import io
import itertools
import math
import mmap
import os
import pickle
import signal
import weakref
from typing import Callable

import numpy as np


def partition(n3: int, workers: int) -> tuple[tuple[int, int], ...]:
    """Split [0, n3) into min(workers, n3) contiguous (lo, hi) ranges, sizes differing by <= 1."""
    if workers < 1:
        raise ValueError(f"worker count must be positive, got {workers}")
    workers = min(workers, n3)
    base, extra = divmod(n3, workers)
    ranges = []
    lo = 0
    for w in range(workers):
        hi = lo + base + (1 if w < extra else 0)
        ranges.append((lo, hi))
        lo = hi
    return tuple(ranges)


def chunks(lo: int, hi: int, unit_bytes: int, budget: int):
    """Split [lo, hi) into runs of whole units of at most `budget` bytes (>= 1 unit)."""
    step = max(1, budget // unit_bytes)
    for start in range(lo, hi, step):
        yield start, min(start + step, hi)


# The process's scratch arena: one flat byte buffer that grows to the largest
# request, so a kernel that takes its temporaries from it allocates nothing
# once the arena has grown.  The workspaces carved from it are kept by
# `workspace` until it grows; growing drops them, so the old buffer is freed.
# A forked worker inherits the parent's arena and workspaces copy-on-write and
# from then on keeps its own.
_arena = np.empty(0, np.uint8)
_workspaces: dict = {}
_ALIGN = 64  # bytes: one cache line


def scratch(dtype, *sizes: int) -> list[np.ndarray]:
    """1-d arrays of `sizes` elements of `dtype`, carved in order from the start of the arena.

    Each starts on a cache-line boundary and none overlap.  Every call carves
    from the same bytes, so the arrays of one call hold until the next call.
    """
    global _arena
    itemsize = np.dtype(dtype).itemsize
    nbytes = [n * itemsize for n in sizes]
    starts = list(itertools.accumulate((-(-b // _ALIGN) * _ALIGN for b in nbytes), initial=0))
    if starts[-1] > _arena.nbytes:
        _workspaces.clear()
        grown = np.empty(starts[-1] + _ALIGN, np.uint8)
        offset = -grown.ctypes.data % _ALIGN
        _arena = grown[offset:offset + starts[-1]]
    return [_arena[s:s + b].view(dtype) for s, b in zip(starts, nbytes)]


def workspace(build, *args):
    """build(*args), made once per process for each `args` until the arena grows.

    `build` carves its arrays from the arena with one `scratch` call and takes
    every view it needs of them, so a kernel that fetches its workspace here
    pays no set-up per call.  Workspaces share the arena's bytes, so only one is
    in use at a time; one that grows the arena drops every other.
    """
    key = (build, args)
    try:
        return _workspaces[key]
    except KeyError:
        ws = _workspaces[key] = build(*args)
        return ws


def parallel_for(part: tuple[tuple[int, int], ...],
                 body: Callable[[int, int, int], None]) -> None:
    """Run body(slab_index, lo, hi) once per (lo, hi) range of `part`; return after all finish.

    Bodies return nothing: their results are their writes.  A failure re-raises
    the exception of the lowest failing slab index, independent of scheduling.
    """
    if len(part) == 1 or not isinstance(body, functools.partial):
        for i, (lo, hi) in enumerate(part):
            body(i, lo, hi)
    else:
        _Pool.run(part, body)


# ---------------------------------------------------------------------------
# shared memory

class _Mapping(mmap.mmap):
    """An anonymous shared mapping, numbered by `serial` in order of creation."""

    serial: int
    address: int


_mappings: weakref.WeakValueDictionary[int, _Mapping] = weakref.WeakValueDictionary()
_serials = itertools.count()


def shared_pair(shape: tuple[int, ...], dtype) -> tuple[np.ndarray, np.ndarray]:
    """Two zeroed C-order blocks of `shape`, the two halves of one anonymous shared mapping.

    The pages cost no memory until written.
    """
    dtype = np.dtype(dtype)
    nbytes = math.prod(shape) * dtype.itemsize
    mapping = _Mapping(-1, 2 * nbytes)
    first, second = (np.ndarray(shape, dtype, buffer=mapping, offset=half * nbytes)
                     for half in (0, 1))
    mapping.serial, mapping.address = next(_serials), first.ctypes.data
    _mappings[mapping.serial] = mapping
    return first, second


def _view(serial, offset, shape, strides, dtype) -> np.ndarray:
    # Rebuild, in a worker, an array the parent sent as a view of a shared mapping.
    return np.ndarray(shape, dtype, buffer=_mappings[serial], offset=offset, strides=strides)


class _TaskPickler(pickle.Pickler):
    """Pickles a task with every array as a reference into its shared mapping."""

    def __init__(self, file):
        super().__init__(file, pickle.HIGHEST_PROTOCOL)
        self.newest = -1  # serial of the newest mapping the task names

    def reducer_override(self, obj):
        if not isinstance(obj, np.ndarray):
            return NotImplemented
        mapping = obj
        while isinstance(mapping, np.ndarray):
            mapping = mapping.base
        if not isinstance(mapping, _Mapping):
            raise ValueError(f"a task array of shape {obj.shape} is not in shared memory; "
                             "a worker would write to a private copy")
        self.newest = max(self.newest, mapping.serial)
        return _view, (mapping.serial, obj.ctypes.data - mapping.address, obj.shape,
                       obj.strides, obj.dtype)


# ---------------------------------------------------------------------------
# worker pool

class _Worker:
    """One forked worker: its pid and the parent's ends of its task and result pipes."""

    def __init__(self, others: list[_Worker]):
        task_r, task_w = os.pipe()
        result_r, result_w = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            for fd in (task_r, task_w, result_r, result_w):
                os.close(fd)
            raise
        if self.pid == 0:
            code = 1
            try:
                signal.signal(signal.SIGINT, signal.SIG_IGN)
                # Close the parent's pipe ends, this worker's and every earlier
                # worker's: a worker that held another's task pipe open would
                # keep it from reaching EOF, and closing the pool would hang.
                for fd in [task_w, result_r] + [f.fileno() for w in others
                                                 for f in (w.tasks, w.results)]:
                    os.close(fd)
                _serve(task_r, result_w)
                code = 0
            finally:
                os._exit(code)
        os.close(task_r)
        os.close(result_w)
        self.tasks = os.fdopen(task_w, "wb")
        self.results = os.fdopen(result_r, "rb")


def _serve(task_fd: int, result_fd: int) -> None:
    # A worker's loop: run each message's slabs in order and reply with the
    # exception of each slab (None if it succeeded), until the task pipe
    # reaches EOF.
    with os.fdopen(task_fd, "rb") as tasks, os.fdopen(result_fd, "wb") as results:
        while True:
            try:
                body, share = pickle.load(tasks)
            except EOFError:
                return
            errors = []
            for i, lo, hi in share:
                try:
                    body(i, lo, hi)
                    errors.append(None)
                except Exception as exc:
                    errors.append(exc)
            try:
                reply = pickle.dumps(errors, pickle.HIGHEST_PROTOCOL)
            except Exception as exc:  # an exception that does not pickle
                reply = pickle.dumps([RuntimeError(f"slab {i}: {exc!r}: {err!r}")
                                      if err is not None else None
                                      for (i, _, _), err in zip(share, errors)])
            results.write(reply)
            results.flush()


class _Pool:
    """The process-wide worker pool: one per process, since workers outlive any one call."""

    current: _Pool | None = None

    def __init__(self, size: int):
        self.newest = max(_mappings, default=-1)  # the workers inherit mappings up to this
        self.workers: list[_Worker] = []
        try:
            for _ in range(size):
                self.workers.append(_Worker(self.workers))
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        """Close every task pipe, then reap the workers (each exits at EOF)."""
        for w in self.workers:
            w.tasks.close()
            w.results.close()
        for w in self.workers:
            try:
                os.waitpid(w.pid, 0)
            except ChildProcessError:  # already reaped after it died
                pass
        self.workers = []

    @classmethod
    def shutdown(cls) -> None:
        """Close the pool, if one was forked."""
        pool, cls.current = cls.current, None
        if pool is not None:
            pool.close()

    @classmethod
    def run(cls, part, body) -> None:
        """Run a kernel task over `part` on the pool, forking or re-forking it as needed."""
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        procs = min(len(part), cpus or 1)
        shares = [[(i, lo, hi) for i, (lo, hi) in enumerate(part) if i % procs == p]
                  for p in range(procs)]
        messages, newest = [], -1
        for share in shares:  # pickle every message before any slab runs
            buf = io.BytesIO()
            pickler = _TaskPickler(buf)
            pickler.dump((body, share))
            messages.append(buf.getvalue())
            newest = max(newest, pickler.newest)

        pool = cls.current
        if pool is None or len(pool.workers) < procs or pool.newest < newest:
            size = max(procs, len(pool.workers) if pool else 0)
            cls.shutdown()
            pool = cls.current = cls(size)
        try:
            for w, message in zip(pool.workers, messages):
                w.tasks.write(message)
                w.tasks.flush()
            errors: list[Exception | None] = [None] * len(part)
            for w, share in zip(pool.workers, shares):
                for (i, _, _), err in zip(share, _replies(w, share)):
                    errors[i] = err
        except BaseException:  # the pipes may be out of step: start afresh next time
            cls.shutdown()
            raise
        for err in errors:
            if err is not None:
                raise err


def minor_faults() -> dict[int, int]:
    """The minor page faults so far of this process and of each live pool worker, by pid.

    This process comes first, then the workers in pool order.  Read from
    ``/proc/<pid>/stat``; empty where there is no ``/proc``, and a worker
    whose file has gone is left out.
    """
    pool = _Pool.current
    counts = {}
    for pid in [os.getpid()] + ([w.pid for w in pool.workers] if pool is not None else []):
        try:
            with open(f"/proc/{pid}/stat") as f:
                # The fields after the parenthesised command name start at `state`.
                counts[pid] = int(f.read().rsplit(")", 1)[1].split()[7])
        except OSError:
            if pid == os.getpid():  # no /proc
                return {}
    return counts


def _replies(w: _Worker, share) -> list[Exception | None]:
    # The slab errors of a worker's share, or RuntimeError if the worker died.
    try:
        return pickle.load(w.results)
    except EOFError:
        _, status = os.waitpid(w.pid, 0)
        raise RuntimeError(f"worker process {w.pid} died (wait status {status}) running "
                           f"slab(s) {', '.join(str(i) for i, _, _ in share)}") from None


atexit.register(_Pool.shutdown)
