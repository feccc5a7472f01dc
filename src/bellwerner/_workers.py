"""The Monte Carlo executor: serial or a thread pool, results in input order."""

from __future__ import annotations

import os
from collections import deque
from typing import Callable, Iterable, Iterator, Optional


def ordered_map(fn: Callable, items: Iterable, threads: Optional[int]) -> Iterator:
    """fn(x) for x in items, lazily and in input order, on `threads` workers when > 1.

    Callers that merge the results left to right get the same answer for
    any thread count.  At most 2 * threads calls are submitted and not yet
    taken, so what a caller folds as it goes is held for that window of
    items only, not for all of them.
    """
    if threads is None or threads <= 1:
        yield from map(fn, items)
        return
    from concurrent.futures import ThreadPoolExecutor  # 7-10 ms to import: only where a pool starts
    with ThreadPoolExecutor(max_workers=threads) as pool:
        pending: deque = deque()
        for x in items:
            if len(pending) == 2 * threads:
                yield pending.popleft().result()
            pending.append(pool.submit(fn, x))
        while pending:
            yield pending.popleft().result()


def usable_cores() -> int:
    """CPUs this process may run on: its affinity set, else the CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1
