import itertools
import math
import os
import re
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bellwerner import (
    CapExceeded,
    GhzFamily,
    PureFamily,
    bell_operator,
    builtin,
    detect_visibility,
    ghz_amplitudes,
    ghz_separability_threshold,
    lhv_bound,
    max_pair_product,
    measure_lower_bound,
    measure_monte_carlo,
    necessary_check_first_failure,
    new_expression,
    separability_upper_bound,
    undetectable_measure_condition,
    undetectable_range_general,
    undetectable_range_homogeneous,
    visibility_lower_bound,
)

from bellwerner import werner
from bellwerner.werner import _MC_BLOCK, _MC_CHUNK, _mc_chunk_hits, exact_pair_fraction, summed
from helpers import (
    equatorial_lower,
    mc_chunk_pairs_dense,
    pair_bound_holds,
    separability_necessary_check,
    separability_upper_bound_loop,
    werner_density,
)

ROOT2 = math.sqrt(2.0)
ROOT3 = math.sqrt(3.0)


# -- visibility lower bound ---------------------------------------------------


def test_visibility_lower_bound_values():
    assert visibility_lower_bound(2, 2.0, 2 * ROOT2) == pytest.approx(
        6.0 / (8 * ROOT2 - 2.0), abs=1e-15
    )
    assert visibility_lower_bound(2, 1.0, ROOT3) == 0.5060555253367347
    # scale invariance in (c1, c2)
    assert visibility_lower_bound(2, 2.0, 2 * ROOT3) == pytest.approx(
        visibility_lower_bound(2, 1.0, ROOT3), rel=1e-15
    )


def test_visibility_lower_bound_degenerate_limit():
    assert visibility_lower_bound(3, 1.0, 1.0 + 1e-12) == pytest.approx(1.0, abs=1e-6)
    with pytest.raises(ValueError):
        visibility_lower_bound(2, 2.0, 2.0)
    with pytest.raises(ValueError):
        visibility_lower_bound(2, 0.0, 1.0)


# -- GHZ thresholds and ranges ------------------------------------------------


def test_ghz_separability_threshold_values():
    assert ghz_separability_threshold(2, math.pi / 4) == 1.0 / 3.0
    assert ghz_separability_threshold(3, math.pi / 4) == pytest.approx(0.2, abs=1e-15)
    assert ghz_separability_threshold(4, 1e-9) == pytest.approx(1.0, abs=1e-6)
    for bad in (0.0, math.pi / 2, -0.3, 2.0):
        with pytest.raises(ValueError):
            ghz_separability_threshold(2, bad)


_TABLE_HOMOGENEOUS = {
    2: 0.0811,
    3: 0.0335,
    4: 0.0156,
    5: 0.0075,
    6: 0.0037,
}


def test_homogeneous_range_table():
    for m, expected in _TABLE_HOMOGENEOUS.items():
        rng = undetectable_range_homogeneous(m)
        assert rng.theta_lower / math.pi == pytest.approx(expected, abs=5e-5)
        assert rng.theta_upper == math.pi - rng.theta_lower  # exact symmetry
        assert rng.measure == (rng.theta_upper - rng.theta_lower) / math.pi
    with pytest.raises(ValueError):
        undetectable_range_homogeneous(1)


_TABLE_UNIT_RATIOS = {
    3: 0.2272,
    4: 0.1218,
    5: 0.0738,
    6: 0.0443,
}


def test_general_range_table():
    assert undetectable_range_general(2, [1.0]) is None
    for m, expected in _TABLE_UNIT_RATIOS.items():
        rng = undetectable_range_general(m, [1.0] * (m - 1))
        assert rng.theta_lower / math.pi == pytest.approx(expected, abs=5e-5)
        assert rng.theta_upper == math.pi - rng.theta_lower
    with pytest.raises(ValueError):
        undetectable_range_general(3, [1.0, 0.0])


def test_general_range_ignores_infinite_ratios():
    rng = undetectable_range_general(3, [math.inf, math.inf])
    assert rng.theta_lower == 0.0
    assert rng.measure == 1.0


def test_homogeneous_tighter_than_unit_ratio_window():
    for m in range(3, 7):
        hom = undetectable_range_homogeneous(m)
        gen = undetectable_range_general(m, [1.0] * (m - 1))
        assert hom.theta_lower < gen.theta_lower


@pytest.mark.parametrize("parties", [1023, 1024, 1100])
@pytest.mark.parametrize(
    "call, first_too_many",
    [
        (lambda m: ghz_separability_threshold(m, 0.6), 1025),  # scales by 2^(m-1)
        (undetectable_range_homogeneous, 1024),
        (lambda m: undetectable_range_general(m, [1.0] * (m - 1)), 1024),
        (lambda m: visibility_lower_bound(m, 1.0, 1.5), 1024),
        (lambda m: measure_lower_bound(m, 3.0), 1024),
        (lambda m: exact_pair_fraction(m, 3.0), 1024),
    ],
    ids=["ghz_threshold", "range_homogeneous", "range_general", "visibility", "measure",
         "exact_pair"],
)
def test_party_counts_past_the_float_range_are_value_errors(call, first_too_many, parties):
    # 2^m no longer fits in a float from m = 1024 on: a domain error naming
    # the party count, not an OverflowError
    if parties < first_too_many:
        assert np.isfinite(np.asarray(call(parties), dtype=float)).all()
    else:
        with pytest.raises(ValueError, match=f"^{parties} parties is too many"):
            call(parties)


# -- pair-based separability bound (pure states) -------------------------------


def test_pair_bound_ghz_values():
    assert separability_upper_bound(ghz_amplitudes(2, math.pi / 4)) == pytest.approx(
        1.0 / ROOT3, abs=1e-12
    )
    assert separability_upper_bound(ghz_amplitudes(3, math.pi / 4)) == pytest.approx(
        1.0 / math.sqrt(15.0), abs=1e-12
    )


def test_pair_bound_product_state_caps_at_one():
    vec = np.zeros(4)
    vec[0] = 1.0
    assert separability_upper_bound(vec) == 1.0


def test_pair_bound_without_a_usable_pair_is_one():
    # the light pairs are 0 and 3 (p_i + p_ic = 1/4); for both, 16 p_j p_jc - 16 p_i p_ic
    # + 4 (p_i + p_ic) - 1 is zero in exact arithmetic at every j, and |f| <= 1e-12 in floats
    r = math.sqrt(0.5)
    amps = np.sqrt([1 / 8, (3 / 4 + r) / 2, (3 / 4 - r) / 2, 1 / 8])
    assert separability_upper_bound(amps) == 1.0
    assert separability_upper_bound_loop(amps) == 1.0


def test_pair_bound_dominates_exact_threshold():
    for m in (2, 3):
        for theta in np.linspace(0.05, math.pi / 2 - 0.05, 12):
            upper = separability_upper_bound(ghz_amplitudes(m, theta))
            exact = ghz_separability_threshold(m, theta)
            assert upper >= exact - 1e-12


def test_pair_bound_matches_full_scan_exactly():
    rng = np.random.default_rng(41)
    for m in range(2, 13):
        for theta in (0.01, 0.3, math.pi / 4, 1.2):
            amps = ghz_amplitudes(m, theta)
            assert separability_upper_bound(amps) == separability_upper_bound_loop(amps)
        for _ in range(3):
            amps = rng.standard_normal(2 ** m) + 1j * rng.standard_normal(2 ** m)
            amps /= np.linalg.norm(amps)
            assert separability_upper_bound(amps) == separability_upper_bound_loop(amps)


def test_pair_bound_validation():
    with pytest.raises(ValueError):
        separability_upper_bound(np.ones(4))  # not normalized
    with pytest.raises(ValueError):
        separability_upper_bound(np.array([1.0, 0.0, 0.0]))  # not a power of two


# -- necessary separability check ----------------------------------------------


def test_necessary_check_ghz_examples():
    amps = ghz_amplitudes(2, math.pi / 4)
    assert separability_necessary_check(amps, 0.2) is True
    assert separability_necessary_check(amps, 0.5) is False
    assert separability_necessary_check(amps, 0.0) is True


def test_necessary_check_any_state_at_zero():
    rng = np.random.default_rng(41)
    for _ in range(10):
        vec = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        vec /= np.linalg.norm(vec)
        assert separability_necessary_check(vec, 0.0) is True


def test_first_failure_matches_ghz_threshold():
    amps = ghz_amplitudes(2, math.pi / 4)
    v = necessary_check_first_failure(amps)
    assert v == pytest.approx(1.0 / 3.0, abs=2e-6)


def test_first_failure_ordering_on_grid():
    for m in (2, 3):
        for theta in np.linspace(0.1, math.pi / 2 - 0.1, 8):
            v = necessary_check_first_failure(ghz_amplitudes(m, theta))
            assert v is not None
            assert v >= ghz_separability_threshold(m, theta) - 1e-9


@pytest.mark.parametrize("theta", [0.1, 0.3, 0.6, math.pi / 4, 1.2, 1.5])
def test_first_failure_is_one_bisection_step_above_the_ghz_threshold(theta):
    # the bisection stops at an absolute 1e-6, however small the threshold:
    # at m = 16 and theta = 0.6 that is 3.33786e-05 against 3.27417e-05
    for m in range(2, 17):
        v = necessary_check_first_failure(ghz_amplitudes(m, theta))
        assert 0.0 <= v - ghz_separability_threshold(m, theta) <= 1e-6


def test_first_failure_none_for_product_state():
    vec = np.zeros(4)
    vec[0] = 1.0
    assert necessary_check_first_failure(vec) is None


# -- measure condition and lower bound ------------------------------------------


def test_measure_condition_examples():
    yes = undetectable_measure_condition(3, (1.0, 1.0), 6.0)
    assert yes.strict_form is True
    assert yes.sum_inverse_gammas == 2.0
    no = undetectable_measure_condition(3, (1.0, 1.0), 3.0)
    assert no.strict_form is False
    inf_case = undetectable_measure_condition(3, (math.inf, math.inf), 1.74)
    assert inf_case.strict_form is True  # S = 0 passes any poly > sqrt(3)


def test_measure_condition_variant_is_looser():
    verdict = undetectable_measure_condition(2, (1.1,), 2.65)
    assert verdict.threshold_loose > verdict.threshold_strict
    assert (verdict.strict_form, verdict.loose_form) == (False, True)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: ghz_amplitudes(0, 0.3), "parties must be at least 1"),
        (lambda: undetectable_range_homogeneous(1), "parties must be at least 2"),
        (lambda: undetectable_measure_condition(1, [], 3.0), "parties must be at least 2"),
    ],
    ids=["ghz_amplitudes", "undetectable_range_homogeneous", "undetectable_measure_condition"],
)
def test_party_counts_are_checked(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_measure_condition_validation():
    with pytest.raises(ValueError):
        undetectable_measure_condition(3, (1.0,), 6.0)  # wrong arity
    with pytest.raises(ValueError):
        undetectable_measure_condition(3, (1.0, 1.0), 1.0)  # poly too small
    with pytest.raises(ValueError):
        undetectable_measure_condition(3, (1.0, -1.0), 6.0)


def test_measure_lower_bound_values():
    assert measure_lower_bound(3, 3.0) == 0.31640625
    assert measure_lower_bound(4, 4.0) == pytest.approx(
        (1.0 - 25.0 / 256.0) ** 8, abs=1e-15
    )
    assert measure_lower_bound(10, 0.0) == pytest.approx(1.0, abs=1e-3)
    with pytest.raises(ValueError):
        measure_lower_bound(2, 3.0)  # c = 1
    with pytest.raises(ValueError):
        measure_lower_bound(2, 5.0)  # c > 1


def test_pair_bound_root():
    # at m = 3, (1 - t)^2 (1 + 6t) = 1 has the root t = 1/2; for m <= 2 the bound always holds
    assert werner._pair_bound_root(3) == 0.5
    assert werner._pair_bound_root(1) is None and werner._pair_bound_root(2) is None
    roots = [werner._pair_bound_root(m) for m in range(3, 19)]
    assert roots == sorted(roots, reverse=True) and roots[-1] > 0.0


@pytest.mark.parametrize("m", range(3, 16))
def test_pair_bound_root_is_the_last_float_of_the_exact_test(m):
    # the integer test holds at t*(m) and fails one float up; CI checks m = 16-18 (about 4 s)
    root = werner._pair_bound_root(m)
    assert pair_bound_holds(m, root)
    assert not pair_bound_holds(m, math.nextafter(root, 1.0))


def test_pair_bound_roots_cover_the_chunk_cap():
    # measure checks its chunk cap first, and at 100 samples that cap is m = 18
    werner._check_sampler_size(18, 100)
    with pytest.raises(CapExceeded):
        werner._check_sampler_size(19, 100)
    assert len(werner._PAIR_BOUND_ROOTS) == 16


def test_monte_carlo_basics():
    est = measure_monte_carlo(2, 2.0, 5000, seed=3)
    assert 0.0 <= est.fraction <= 1.0
    assert est.hits == round(est.fraction * est.samples)
    assert est.samples == 5000
    assert est.std_error > 0.0
    with pytest.raises(ValueError):
        measure_monte_carlo(2, 2.0, 50)  # too few samples


def test_monte_carlo_zero_above_saturation():
    # c >= 1 leaves nothing above the threshold
    est = measure_monte_carlo(2, 5.0, 1000, seed=0)
    assert est.fraction == 0.0 and est.std_error == 0.0


@pytest.mark.parametrize("poly", [math.nan, math.inf, -math.inf])
def test_monte_carlo_rejects_non_finite_poly_value(poly):
    with pytest.raises(ValueError, match="poly_value must be finite"):
        measure_monte_carlo(2, poly, 1000, seed=0)


@pytest.mark.parametrize(
    "parties, poly, message",
    [(0, 3.0, "parties must be at least 1"), (3, math.nan, "poly_value must be finite"),
     (3, math.inf, "poly_value must be finite")],
)
def test_exact_pair_fraction_rejects_what_monte_carlo_rejects(parties, poly, message):
    # the sampler's own checks, not 0.0 for no parties, nan for a nan poly or a complaint
    # about the derived constant c
    with pytest.raises(ValueError, match=message):
        measure_monte_carlo(parties, poly, 1000, seed=0)
    with pytest.raises(ValueError, match=message):
        exact_pair_fraction(parties, poly)
    with pytest.raises(ValueError, match=message):
        measure_lower_bound(parties, poly)


def test_monte_carlo_dominates_closed_form():
    for m in (2, 3, 4):
        est = measure_monte_carlo(m, float(m), 20000, seed=0)
        bound = measure_lower_bound(m, float(m))
        assert est.fraction + 3.0 * est.std_error >= bound


def test_monte_carlo_matches_exact_fraction():
    # an independent cross-check: the reference-pair weight of a uniform
    # state is Beta(2, 2^m - 2), so the hit probability is known in closed
    # form; the sample must lie within 4 of its standard errors
    for m, poly, samples in ((3, 3.0, 40000), (4, 3.0, 40000), (6, 3.0, 20000),
                             (10, 3.0, 8192), (3, 6.0, 200000)):
        exact = exact_pair_fraction(m, poly)
        est = measure_monte_carlo(m, poly, samples, seed=1)
        assert abs(est.fraction - exact) <= 4.0 * math.sqrt(exact * (1.0 - exact) / samples)


def test_monte_carlo_partition_independent(monkeypatch):
    # 4 chunks: this machine's cores, then 1, 2, 3 and more workers than chunks
    runs = [measure_monte_carlo(6, 3.0, 3 * _MC_CHUNK + 17, seed=9)]
    for cores in (1, 2, 3, 16):
        monkeypatch.setattr(werner, "usable_cores", lambda c=cores: c)
        runs.append(measure_monte_carlo(6, 3.0, 3 * _MC_CHUNK + 17, seed=9))
    assert all(run == runs[0] for run in runs)


def _block_buffer(parties):
    """A worker's block buffer, NaN-filled so that a value read before it is drawn shows."""
    return np.full(max(_MC_BLOCK, 2**parties), np.nan)


@st.composite
def _chunks(draw):
    """(parties, seed, samples, chunk) with the dense draw at most 1 MiB a part."""
    parties = draw(st.integers(1, 12))
    count = draw(st.integers(1, min(_MC_CHUNK, 2**17 // 2**parties)))
    chunk = draw(st.integers(0, 2))
    seed = draw(st.integers(0, 2**32 - 1))
    return parties, seed, chunk * _MC_CHUNK + count, chunk


@given(
    _chunks(),
    st.integers(0, 2**31),
    st.sampled_from(["at", "below", "above", "free"]),
    st.floats(0.0, 1.0),
)
def test_streamed_chunk_hits_equal_the_dense_draw(case, pick, where, free):
    # thresholds at a sample's exact pair weight and its neighbours fall
    # inside the margin, so the exact recheck decides them
    parties, seed, samples, chunk = case
    pairs = mc_chunk_pairs_dense(parties, seed, samples, chunk)
    p = pairs[pick % pairs.size]
    threshold = {
        "at": p,
        "below": np.nextafter(p, -1.0),
        "above": np.nextafter(p, 2.0),
        "free": free,
    }[where]
    hits = _mc_chunk_hits(parties, threshold, seed, samples, _block_buffer(parties), chunk)
    assert hits == int(np.count_nonzero(pairs > threshold))


def test_recheck_decides_the_samples_inside_the_margin(monkeypatch):
    picked = []
    recheck = werner._mc_recheck

    def spy(*args):
        picked.append(args[-1].tolist())
        return recheck(*args)

    monkeypatch.setattr(werner, "_mc_recheck", spy)
    pairs = mc_chunk_pairs_dense(7, 5, 300, 0)
    buf = _block_buffer(7)  # one worker's buffer, reused by each chunk and recheck
    for threshold in (pairs[123], np.nextafter(pairs[123], -1.0)):
        hits = _mc_chunk_hits(7, threshold, 5, 300, buf, 0)
        assert hits == int(np.count_nonzero(pairs > threshold))
    assert picked == [[123], [123]]
    assert _mc_chunk_hits(7, 0.05, 5, 300, buf, 0) == int(np.count_nonzero(pairs > 0.05))
    assert len(picked) == 2  # nothing near an ordinary threshold


def test_monte_carlo_defaults_to_the_usable_cores(monkeypatch):
    run = partial(measure_monte_carlo, 6, 3.0, 3 * _MC_CHUNK + 17, 4)  # 4 chunks
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    serial = run()
    workers = []

    def spy(make_work, count, threads):
        workers.append(threads)
        return summed(make_work, count, threads)

    monkeypatch.setattr(werner, "summed", spy)
    for cores in ({0}, set(range(16)), {0, 1}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, c=cores: c, raising=False)
        assert run() == serial
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    for count in (2, None):  # os.cpu_count() may not know
        monkeypatch.setattr(os, "cpu_count", lambda c=count: c)
        assert run() == serial
    # one core, then no more workers than chunks (no pool of 16), then two
    # cores, then the CPU count, then one worker when it is unknown
    assert workers == [1, 4, 2, 2, 1]


def test_monte_carlo_workers_each_keep_one_block_buffer(monkeypatch):
    # a thread pool drew each chunk into new blocks, which malloc arenas kept
    buffers = []

    def spy(parties, threshold, seed, samples, buf, chunk_index):
        buffers.append(buf)  # held, so no two live buffers share an id
        return chunk_hits(parties, threshold, seed, samples, buf, chunk_index)

    chunk_hits = werner._mc_chunk_hits
    monkeypatch.setattr(werner, "_mc_chunk_hits", spy)
    monkeypatch.setattr(werner, "usable_cores", lambda: 1)
    serial = measure_monte_carlo(6, 3.0, 12 * _MC_CHUNK)
    assert len(buffers) == 12 and len({id(b) for b in buffers}) == 1
    buffers.clear()
    monkeypatch.setattr(werner, "usable_cores", lambda: 2)
    assert measure_monte_carlo(6, 3.0, 12 * _MC_CHUNK) == serial
    assert len(buffers) == 12 and len({id(b) for b in buffers}) <= 2
    assert all(b.shape == (_MC_BLOCK,) for b in buffers)


def test_monte_carlo_memory_is_a_block_not_a_chunk():
    # a dense chunk at m = 12 held two (4096, 4096) float64 arrays, 256 MiB
    tracemalloc.start()
    try:
        measure_monte_carlo(12, 3.0, 4096)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_monte_carlo_sample_cap_is_checked_before_drawing(monkeypatch):
    # past 2^53 samples a float no longer holds the count, and std_error divides by it
    def no_draws(*args):
        raise AssertionError("a sample was drawn")

    monkeypatch.setattr(werner, "summed", no_draws)
    with pytest.raises(CapExceeded, match="samples per Monte Carlo run"):
        measure_monte_carlo(3, 3.0, 2 ** 53 + 1)


# -- families and densities ------------------------------------------------------


def test_ghz_amplitudes_layout():
    amps = ghz_amplitudes(3, 0.3)
    assert amps.shape == (8,)
    assert amps[0] == pytest.approx(math.cos(0.3))
    assert amps[-1] == pytest.approx(math.sin(0.3))
    assert not amps[1:-1].any()


def test_family_validation():
    for theta in (0.0, math.pi / 2, math.nan):
        message = f"theta must lie strictly inside (0, pi/2), got {theta!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            GhzFamily(2, theta)
        with pytest.raises(ValueError, match=re.escape(message)):
            ghz_separability_threshold(2, theta)
    with pytest.raises(ValueError):
        GhzFamily(1, 0.5)
    with pytest.raises(ValueError):
        PureFamily(np.ones(4))
    with pytest.raises(ValueError):
        PureFamily(np.array([1.0]))
    fam = PureFamily(np.array([1.0, 0.0, 0.0, 0.0]))
    assert fam.parties == 2


def test_pure_family_rejects_non_finite_amplitudes():
    vec = np.array([math.nan, 0.0, 0.0, 1.0])
    for check in (PureFamily, separability_upper_bound, necessary_check_first_failure):
        with pytest.raises(ValueError, match="unit norm"):
            check(vec)


def test_werner_density_properties():
    fam = GhzFamily(2, math.pi / 4)
    for v in (0.0, 0.35, 1.0):
        rho = werner_density(fam, v)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(rho, rho.conj().T)
        assert np.linalg.eigvalsh(rho).min() >= -1e-12
    with pytest.raises(ValueError):
        werner_density(fam, 1.5)


def test_werner_density_cap():
    from bellwerner import CapExceeded

    with pytest.raises(CapExceeded):
        werner_density(GhzFamily(16, 0.6), 0.5)


def test_max_pair_product():
    assert max_pair_product(ghz_amplitudes(2, math.pi / 4)) == pytest.approx(
        0.25, abs=1e-15
    )
    vec = np.zeros(4)
    vec[0] = 1.0
    assert max_pair_product(vec) == 0.0


@pytest.mark.parametrize("amplitudes", [[1, 2], [1, 0, 0, 5], [math.nan, 0, 0, 1], [1, 0]])
def test_max_pair_product_validates_amplitudes(amplitudes):
    with pytest.raises(ValueError):
        max_pair_product(np.array(amplitudes, dtype=float))


# -- empirical detection -----------------------------------------------------------


def test_detect_visibility_chsh():
    found = detect_visibility(builtin("CHSH"), GhzFamily(2, math.pi / 4), 0, restarts=6)
    found = found.visibility
    assert found == pytest.approx(1.0 / ROOT2, abs=1e-3)
    floor = visibility_lower_bound(2, 2.0, 2 * ROOT2)
    assert floor - 1e-3 <= found <= 1.0


def test_detect_visibility_mermin():
    found = detect_visibility(builtin("MERMIN"), GhzFamily(3, math.pi / 4), 0, restarts=6)
    found = found.visibility
    assert found == pytest.approx(0.5, abs=5e-3)


def test_detect_visibility_near_product_state():
    found = detect_visibility(builtin("CHSH"), GhzFamily(2, 0.01), 0, restarts=4).visibility
    assert found is None or found > 0.9


def test_detect_visibility_seven_parties():
    expr = builtin("MERMIN(7)")
    found = detect_visibility(expr, GhzFamily(7, math.pi / 4), 0, restarts=1).visibility
    assert found == pytest.approx(lhv_bound(expr).value / 64.0, abs=1e-5)


def test_detect_visibility_party_cap():
    from bellwerner import CapExceeded

    with pytest.raises(CapExceeded):
        detect_visibility(
            builtin("MERMIN(9)"), GhzFamily(9, math.pi / 4), 0, restarts=1
        )


def test_detect_visibility_checks_the_family_before_the_cap():
    with pytest.raises(ValueError, match="^family has 3 parties, expression has 9$"):
        detect_visibility(builtin("MERMIN(9)"), GhzFamily(3, 0.6))


def _werner_detect_ghz_expressions(sets):
    """fc3, fc4 and fc5 of the given input sets of the werner_detect benchmark.

    Each set draws them first, in this order, from default_rng([2, 0, s])
    (stream 2 is werner_detect, 0 the pool seed): standard normal
    coefficients on all 2^m full-correlation patterns.
    """
    for s in sets:
        rng = np.random.default_rng([2, 0, s])
        for m in (3, 4, 5):
            patterns = ["".join(p) for p in itertools.product("01", repeat=m)]
            terms = [(p, float(rng.standard_normal())) for p in patterns]
            yield pytest.param(new_expression(m, terms), (0.6,), id=f"s{s}_fc{m}")


@pytest.mark.parametrize(
    "expr, thetas",
    [
        *_werner_detect_ghz_expressions((0, 1)),
        *(
            pytest.param(builtin(name), (0.3, 0.6, math.pi / 4, 1.2), id=name)
            for name in ("MERMIN(3)", "MERMIN(5)")
        ),
    ],
)
def test_ghz_detection_within_the_equatorial_bracket(expr, thetas):
    # Equatorial observables cos(phi) X + sin(phi) Y give the GHZ(theta) value
    # sin(2 theta) E, E = equatorial_lower(expr) (Werner and Wolf,
    # quant-ph/0102024), so the fixed-state see-saw must reach it; with a
    # traceless witness the detected visibility is then at most c1 / (sin(2 theta) E).
    lower = equatorial_lower(expr)
    for theta in thetas:
        reach = math.sin(2.0 * theta) * lower
        found = detect_visibility(expr, GhzFamily(expr.parties, theta), 0, restarts=3)
        value, c1 = found.seesaw.value, found.seesaw.classical.value
        assert value >= reach - 1e-9 * max(1.0, value)
        trace = np.trace(bell_operator(expr, found.seesaw.witness)).real
        if abs(trace) / 2 ** expr.parties <= 1e-12 * c1:
            if found.visibility is None:
                assert reach <= c1 * (1.0 + 1e-9)
            else:
                assert found.visibility <= c1 / reach + 1e-6
