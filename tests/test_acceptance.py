"""End-to-end checks pinning the reference-table values, benchmark optima,
and runtime budgets.  Tolerances are stated inline next to each assertion."""

import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from bellwerner import block, builtin
from bellwerner.classical import closed_form_classical, lhv_bound
from bellwerner.cli import main
import bellwerner.gamma as gamma_module
import bellwerner.werner as werner_module
from bellwerner.gamma import GammaScanConfig, gamma_scan
from bellwerner.quantum import seesaw_lower
from bellwerner.werner import (
    GhzFamily,
    detect_visibility,
    ghz_amplitudes,
    ghz_separability_threshold,
    measure_lower_bound,
    measure_monte_carlo,
    separability_upper_bound,
    undetectable_range_general,
    undetectable_range_homogeneous,
    visibility_lower_bound,
)

from helpers import (
    gamma_for,
    matrix_bound_blas,
    matrix_bound_ordered,
    parse_report,
    random_expression,
)

# Frozen reference decimals for the homogeneous undetectable windows.
THETA_L_OVER_PI = {2: 0.0811, 3: 0.0335, 4: 0.0156, 5: 0.0075, 6: 0.0037}
R_PERCENT = {2: 83.77, 4: 96.89, 5: 98.50, 6: 99.26}
R_PERCENT_M3_COMPUTED = 93.30  # the printed 83.29 contradicts its own theta_l
UNIT_RATIO_THETA_L = {3: 0.2272, 4: 0.1218, 5: 0.0738, 6: 0.0443}


@contextmanager
def budget(seconds: float):
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    assert elapsed < seconds, f"took {elapsed:.1f}s, budget {seconds}s"


def test_homogeneous_window_table(capsys):
    with budget(1.0):
        for m, printed in THETA_L_OVER_PI.items():
            window = undetectable_range_homogeneous(m)
            assert window.theta_lower / math.pi == pytest.approx(printed, abs=5e-5)
            assert window.theta_upper == math.pi - window.theta_lower
        for m, printed in R_PERCENT.items():
            r = 100.0 * undetectable_range_homogeneous(m).measure
            assert abs(r - printed) <= 0.02
        r3 = 100.0 * undetectable_range_homogeneous(3).measure
        assert abs(r3 - R_PERCENT_M3_COMPUTED) <= 0.02
    # The m=3 row is flagged, never silently corrected.
    assert main(["tables", "I", "--format", "structured"]) == 0
    report = parse_report(capsys.readouterr().out)
    assert "table-i-m3-r-cell" in {w["name"] for w in report["warnings"]}


def test_unit_ratio_window_table():
    with budget(1.0):
        for m, printed in UNIT_RATIO_THETA_L.items():
            window = undetectable_range_general(m, [1.0] * (m - 1))
            assert window is not None
            assert window.theta_lower / math.pi == pytest.approx(printed, abs=5e-5)
        assert undetectable_range_general(2, [1.0]) is None


def test_ch_block_ratios_exact():
    with budget(1.0):
        ch = builtin("CH")
        assert lhv_bound(ch).value == 4.0
        assert lhv_bound(block(ch, 1)).value == 3.0
        assert lhv_bound(block(ch, 2)).value == 1.0
        assert gamma_for(ch, 1) == 4.0 / 3.0
        assert gamma_for(ch, 2) == 4.0


def test_readme_library_example_prints_its_values(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    code = readme.split("## Library example", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5
    assert lines[0] == lines[4] == "2.0"
    assert float(lines[1]) == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)
    assert lines[2] == "converged 1"
    assert float(lines[3]) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-6)  # a bisection step


def test_enumeration_matches_strategy_matrix_exactly():
    # Integer coefficients keep every partial sum exactly representable, so
    # those trials must agree with a BLAS matvec bit for bit as well; float
    # trials are compared against the accumulation order the kernel uses.
    rng = np.random.default_rng(2024)
    with budget(30.0):
        for trial in range(200):
            m = int(rng.integers(1, 4))
            integer = trial % 2 == 0
            expr = random_expression(rng, m, integer=integer)
            value = lhv_bound(expr).value
            assert value == matrix_bound_ordered(expr)
            if integer:
                assert value == matrix_bound_blas(expr)


def test_closed_form_upper_envelope():
    rng = np.random.default_rng(77)
    with budget(60.0):
        for _ in range(200):
            m = int(rng.integers(1, 5))
            expr = random_expression(rng, m, homogeneous=True)
            assert lhv_bound(expr).value <= closed_form_classical(expr) + 1e-12
        mermin = builtin("MERMIN")
        assert lhv_bound(mermin).value == 2.0
        assert closed_form_classical(mermin) == 4.0


def test_seesaw_benchmarks():
    with budget(60.0):
        for name, target in (("CHSH", 2.0 * math.sqrt(2.0)), ("MERMIN", 4.0)):
            expr = builtin(name)
            result = seesaw_lower(expr, restarts=20, seed=0)
            assert abs(result.value - target) <= 1e-3
            cap = math.sqrt(3.0) * closed_form_classical(expr)
            assert result.value <= cap + 1e-9


def test_werner_visibility_thresholds():
    with budget(120.0):
        assert ghz_separability_threshold(2, math.pi / 4) == 1.0 / 3.0
        detected = detect_visibility(
            builtin("CHSH"), GhzFamily(2, math.pi / 4), 0, restarts=20
        ).visibility
        assert detected is not None
        assert abs(detected - 0.7071067811865476) <= 1e-3
        lower = visibility_lower_bound(2, 2.0, 2.0 * math.sqrt(2.0))
        assert abs(lower - 6.0 / (8.0 * math.sqrt(2.0) - 2.0)) <= 1e-6
        assert round(lower, 4) == 0.6442
        assert lower <= detected + 1e-9


def test_pair_bound_dominates_threshold_on_grid():
    with budget(10.0):
        thetas = np.linspace(0.02, math.pi / 2 - 0.02, 50)
        for m in (2, 3, 4):
            for theta in thetas:
                upper = separability_upper_bound(ghz_amplitudes(m, float(theta)))
                threshold = ghz_separability_threshold(m, float(theta))
                assert upper >= threshold - 1e-12
        pair = separability_upper_bound(ghz_amplitudes(2, math.pi / 4))
        assert pair == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-9)


def test_gamma_scan_minima():
    # A completed scan certifies every sampled first-block ratio stayed at or
    # above 1: the kernel raises on any sample below it.
    with budget(600.0):
        for m in (2, 3, 4):
            result = gamma_scan(GammaScanConfig(parties=m, samples=10_000, seed=0))
            assert result.samples == 10_000
            assert len(result.estimates) == m
            first = result.estimates[0]
            assert first.gamma_min is not None
            assert 1.0 <= first.gamma_min <= 1.05
            for est in result.estimates:
                if est.gamma_min is not None:
                    assert est.gamma_min >= 0.99


def test_gamma_scan_large_m_reports():
    # Larger m: completion and positivity only, values are informational.
    for m in (5, 6):
        result = gamma_scan(GammaScanConfig(parties=m, samples=10_000, seed=0))
        assert len(result.estimates) == m
        for est in result.estimates:
            assert est.skipped >= 0
            if est.gamma_min is not None:
                assert est.gamma_min > 0.0


def test_measure_bound_consistency():
    with budget(60.0):
        bound = measure_lower_bound(3, 3.0)
        assert bound == 0.31640625
        estimate = measure_monte_carlo(3, 3.0, 100_000)
        assert estimate.fraction + 3.0 * estimate.std_error >= bound


def test_worker_count_and_rerun_determinism(monkeypatch):
    with budget(600.0):
        seesaws = [seesaw_lower(builtin("CHSH"), restarts=20, seed=0) for _ in range(3)]
        for other in seesaws[1:]:
            assert other.value == seesaws[0].value
            assert other.restart_index == seesaws[0].restart_index
            assert other.sweep_values == seesaws[0].sweep_values
            assert np.array_equal(other.state, seesaws[0].state)

        # two reruns, then one sub-batch of all 10 000 samples
        config = GammaScanConfig(parties=3, samples=10_000, seed=0)
        scans = [gamma_scan(config), gamma_scan(config)]
        monkeypatch.setattr(gamma_module, "_MIN_ROWS", 10_000)
        monkeypatch.setattr(gamma_module, "_MAX_ROWS", 10_000)
        scans.append(gamma_scan(config))
        for other in scans[1:]:
            for a, b in zip(scans[0].estimates, other.estimates):
                assert (a.index, a.gamma_min, a.witness_sample, a.skipped) == (
                    b.index,
                    b.gamma_min,
                    b.witness_sample,
                    b.skipped,
                )
                assert np.array_equal(a.witness_coefficients, b.witness_coefficients)

        runs = []
        for cores in (1, 4, 1):
            monkeypatch.setattr(werner_module, "usable_cores", lambda c=cores: c)
            runs.append(measure_monte_carlo(3, 3.0, 100_000, seed=0))
        assert runs[0] == runs[1] == runs[2]
