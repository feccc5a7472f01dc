"""The one executor (gamma scan, Monte Carlo): serial or a thread pool, results in input order."""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Optional


def ordered_map(fn: Callable, items: Iterable, threads: Optional[int]) -> list:
    """[fn(x) for x in items], spread over `threads` workers when threads > 1.

    Results come back in input order whatever the worker count, so callers
    that merge them left to right get the same answer for any thread count.
    """
    if threads is not None and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, items))
    return [fn(x) for x in items]


def usable_cores() -> int:
    """CPUs this process may run on: its affinity set, else the CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1
