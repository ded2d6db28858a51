"""Slab partitioning and the deterministic fork-join execution contract.

Work is split over one array axis into contiguous slabs, one per worker:
the outermost (slowest-varying) axis, or the middle axis for the b3 part of
the magnetic update.  Bodies write only inside their own slab, with no
exception, and the values they write do not depend on the slab bounds.  Under
that contract every result is bitwise identical for any worker count.
Inside a slab, bodies walk their range in `chunks` that fit a byte budget.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class SlabPartition:
    """Contiguous index ranges over one array axis, one per worker."""

    worker_count: int
    ranges: tuple[tuple[int, int], ...]


def partition(n3: int, workers: int) -> SlabPartition:
    """Split [0, n3) into `workers` contiguous ranges with sizes differing by <= 1."""
    if workers < 1:
        raise ValueError(f"worker count must be positive, got {workers}")
    if workers > n3:
        raise ValueError(f"more workers than slabs: {workers} workers for {n3} planes")
    base, extra = divmod(n3, workers)
    ranges = []
    lo = 0
    for w in range(workers):
        hi = lo + base + (1 if w < extra else 0)
        ranges.append((lo, hi))
        lo = hi
    return SlabPartition(workers, tuple(ranges))


def chunks(lo: int, hi: int, unit_bytes: int, budget: int):
    """Split [lo, hi) into runs of whole units of at most `budget` bytes (>= 1 unit)."""
    step = max(1, budget // unit_bytes)
    for start in range(lo, hi, step):
        yield start, min(start + step, hi)


def parallel_for(part: SlabPartition, body: Callable[[int, int, int], None]) -> None:
    """Run body(slab_index, lo, hi) once per slab; return only after all finish.

    A failure re-raises the exception of the lowest failing slab index,
    independent of scheduling order.
    """
    if part.worker_count == 1:
        for i, (lo, hi) in enumerate(part.ranges):
            body(i, lo, hi)
        return

    with ThreadPoolExecutor(max_workers=part.worker_count) as pool:
        futures = [
            pool.submit(body, i, lo, hi) for i, (lo, hi) in enumerate(part.ranges)
        ]
    for fut in futures:  # every slab has finished once the pool is shut down
        fut.result()
