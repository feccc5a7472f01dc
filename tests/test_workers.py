import sys
import threading
import time

import pytest

from bellwerner.werner import summed
from helpers import run_python


class _Tasks:
    """Tasks x -> x * x that log what started; every 7th sleeps longer, so finish order varies."""

    def __init__(self, fail_at=None):
        self.lock = threading.Lock()
        self.started = []
        self.makers = []  # the thread of each make_work call
        self.fail_at = fail_at

    def make_work(self):
        with self.lock:
            self.makers.append(threading.get_ident())
        return self.call

    def call(self, x):
        with self.lock:
            self.started.append(x)
        if x == self.fail_at:  # at once, while the other workers are inside their sleeps
            raise ValueError(f"item {x}")
        time.sleep(0.001 if x % 7 == 0 else 0.0001)
        return x * x


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_summed_runs_every_index_once(workers):
    tasks = _Tasks()
    assert summed(tasks.make_work, 200, workers) == sum(x * x for x in range(200))
    assert sorted(tasks.started) == list(range(200))


def test_summed_under_frequent_thread_switches():
    # more workers than cores, switching every microsecond: a lost update
    # to the shared index or the sums would show in the total
    counts = [0] * 3000
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        def work(i):
            counts[i] += 1
            return i

        assert summed(lambda: work, len(counts), 8) == sum(range(len(counts)))
    finally:
        sys.setswitchinterval(interval)
    assert counts == [1] * len(counts)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_summed_stops_taking_indices_after_a_failure(workers):
    tasks = _Tasks(fail_at=10)
    with pytest.raises(ValueError, match="item 10"):
        summed(tasks.make_work, 1000, workers)
    # indices are taken in order: 0..10, plus one in flight per other worker
    assert len(tasks.started) <= 10 + workers
    assert sorted(tasks.started) == list(range(len(tasks.started)))


def test_summed_raises_a_failing_make_work_in_the_caller():
    def make_work():
        if threading.current_thread() is not threading.main_thread():
            raise ValueError("no scratch")
        return lambda i: i

    with pytest.raises(ValueError, match="no scratch"):
        summed(make_work, 10, 2)


def test_summed_runs_in_the_caller_plus_plain_threads(monkeypatch):
    started = []

    class Thread(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Thread)
    main = threading.get_ident()
    for workers in (1, 2):
        started.clear()
        tasks = _Tasks()
        assert summed(tasks.make_work, 20, workers) == sum(x * x for x in range(20))
        assert len(started) == workers - 1
        assert not any(thread.is_alive() for thread in started)
        # make_work once per worker, the caller among them
        assert len(tasks.makers) == len(set(tasks.makers)) == workers
        assert main in tasks.makers


def test_cli_import_leaves_the_thread_pool_unloaded():
    # concurrent.futures costs 7-10 ms and about 0.9 MB at every start; the
    # Monte Carlo workers are plain threads, so a threaded measure needs none.
    # numpy.random (about 5 MB and 20 ms) loads at the first draw, not at import.
    # NumPy 1.x loads it inside `import numpy`, so only what the package adds
    # beyond a bare `import numpy` counts.
    loaded = run_python(
        "import contextlib, io, sys\n"
        "def names(top):\n"
        "    return sorted(m for m in sys.modules if m == top or m.startswith(top + '.'))\n"
        "import numpy\n"
        "bare = names('numpy.random')\n"
        "import bellwerner.cli, bellwerner.werner\n"
        "bellwerner.werner.usable_cores = lambda: 2\n"
        "def run(*argv):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        return bellwerner.cli.main([*argv, '--format', 'structured'])\n"
        "print(names('concurrent'), sorted(set(names('numpy.random')) - set(bare)))\n"
        "code = run('gamma', '--m', '2', '--samples', '10')\n"
        "print(code, 'numpy.random' in sys.modules)\n"
        "code = run('measure', '--m', '3', '--poly', '3', '--samples', '10000')\n"
        "print(code, names('concurrent'))\n"
    )
    assert loaded.splitlines() == ["[] []", "0 True", "0 []"]
