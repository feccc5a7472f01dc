"""The Monte Carlo executor: an integer sum over indices, the caller one of its workers."""

from __future__ import annotations

import os
import threading
from typing import Callable


def summed(make_work: Callable[[], Callable[[int], int]], count: int, workers: int) -> int:
    """sum(work(i) for i in range(count)) on `workers` workers, each with work = make_work().

    The caller is one worker, the others plain threads; each takes the next index when free.
    After a call raises no index is taken, and the first exception is raised here at the end.
    """
    lock = threading.Lock()
    indices = iter(range(count))
    sums, failures = [], []

    def take():
        with lock:
            return None if failures else next(indices, None)

    def run() -> None:
        try:
            sums.append(sum(map(make_work(), iter(take, None))))
        except BaseException as exc:  # raised in the caller, not lost in a thread
            failures.append(exc)

    helpers = [threading.Thread(target=run) for _ in range(workers - 1)]
    for thread in helpers:
        thread.start()
    run()
    for thread in helpers:
        thread.join()
    if failures:
        raise failures[0]
    return sum(sums)


def usable_cores() -> int:
    """CPUs this process may run on: its affinity set, else the CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1
