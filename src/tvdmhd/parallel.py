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
from typing import Callable


def partition(n3: int, workers: int) -> tuple[tuple[int, int], ...]:
    """Split [0, n3) into `workers` contiguous (lo, hi) ranges with sizes differing by <= 1."""
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
    return tuple(ranges)


def chunks(lo: int, hi: int, unit_bytes: int, budget: int):
    """Split [lo, hi) into runs of whole units of at most `budget` bytes (>= 1 unit)."""
    step = max(1, budget // unit_bytes)
    for start in range(lo, hi, step):
        yield start, min(start + step, hi)


def parallel_for(part: tuple[tuple[int, int], ...],
                 body: Callable[[int, int, int], None]) -> None:
    """Run body(slab_index, lo, hi) once per (lo, hi) range of `part`; return after all finish.

    One range runs inline.  A failure re-raises the exception of the lowest
    failing slab index, independent of scheduling order.
    """
    if len(part) == 1:
        body(0, *part[0])
        return

    with ThreadPoolExecutor(max_workers=len(part)) as pool:
        futures = [pool.submit(body, i, lo, hi) for i, (lo, hi) in enumerate(part)]
    for fut in futures:  # every slab has finished once the pool is shut down
        fut.result()
