import threading
import time

import pytest

from bellwerner._workers import ordered_map
from helpers import run_python


class _Window:
    """Counts calls that have started and results the caller has taken."""

    def __init__(self):
        self.lock = threading.Lock()
        self.started = 0
        self.taken = 0
        self.peak = 0

    def call(self, x):
        with self.lock:
            self.started += 1
            self.peak = max(self.peak, self.started - self.taken)
        if x % 7 == 0:
            time.sleep(0.001)  # so later items often finish first
        if x == 10 and getattr(self, "fail", False):
            raise ValueError("item 10")
        return x * x

    def take(self, results):
        out = []
        for r in results:
            with self.lock:
                self.taken += 1
            out.append(r)
        return out


def test_ordered_map_keeps_a_bounded_window_in_input_order():
    # list(pool.map(...)) ran all 1000 calls before the first was taken
    window = _Window()
    got = window.take(ordered_map(window.call, range(1000), 2))
    assert got == [x * x for x in range(1000)]
    assert window.peak <= 4


def test_ordered_map_serial_path_is_lazy_and_ordered():
    window = _Window()
    assert window.take(ordered_map(window.call, range(50), 1)) == [x * x for x in range(50)]
    assert window.peak == 1


def test_ordered_map_stops_submitting_after_a_failure():
    window = _Window()
    window.fail = True
    with pytest.raises(ValueError, match="item 10"):
        window.take(ordered_map(window.call, range(1000), 2))
    assert window.started <= 11 + 4


def test_cli_import_leaves_the_thread_pool_unloaded():
    # concurrent.futures costs 7-10 ms at every start; only a pool needs it
    loaded = run_python(
        "import sys\n"
        "import bellwerner.cli\n"
        "print(sorted(m for m in sys.modules if m.startswith('concurrent')))\n"
    )
    assert loaded.strip() == "[]"
