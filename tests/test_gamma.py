import math
import tracemalloc

import numpy as np
import pytest

from bellwerner import (
    CapExceeded,
    GammaScanConfig,
    block_sizes,
    builtin,
    gamma_scan,
    new_expression,
    strategy_matrix,
    block_strategy_matrix,
)
import bellwerner.gamma as gamma_module
from bellwerner.gamma import _CHUNK, _bounds, _sample_rows, _scan_chunk, _substream_states
from helpers import (
    bounds_per_block,
    gamma_for,
    random_expression,
    sample_vector,
    scan_chunk_dense,
)


def test_gamma_for_ch_exact():
    ch = builtin("CH")
    assert gamma_for(ch, 1) == 4.0 / 3.0
    assert gamma_for(ch, 2) == 4.0


def test_gamma_for_empty_block_is_infinite():
    chsh = builtin("CHSH")
    assert gamma_for(chsh, 1) == 1.0
    assert gamma_for(chsh, 2) == math.inf


def test_gamma_for_homogeneous_first_block_is_one():
    rng = np.random.default_rng(51)
    for _ in range(15):
        m = int(rng.integers(2, 5))
        expr = random_expression(rng, m, homogeneous=True)
        assert gamma_for(expr, 1) == 1.0


def test_gamma_for_scale_invariance():
    rng = np.random.default_rng(52)
    for _ in range(10):
        m = int(rng.integers(2, 4))
        expr = random_expression(rng, m)
        scaled = new_expression(m, [(p, 1.7 * c) for p, c in expr.terms()])
        for i in range(1, m + 1):
            a, b = gamma_for(expr, i), gamma_for(scaled, i)
            if math.isinf(a):
                assert math.isinf(b)
            else:
                assert b == pytest.approx(a, rel=1e-12)


def test_gamma_for_at_least_one():
    # the full maximum dominates every block maximum, so each ratio is >= 1
    rng = np.random.default_rng(53)
    for _ in range(15):
        m = int(rng.integers(2, 4))
        expr = random_expression(rng, m, max_terms=8)
        for i in range(1, m + 1):
            assert gamma_for(expr, i) >= 1.0 - 1e-12


def test_scan_config_validation():
    with pytest.raises(ValueError):
        GammaScanConfig(parties=1, samples=10)
    with pytest.raises(ValueError):
        GammaScanConfig(parties=2, samples=0)
    with pytest.raises(CapExceeded):
        gamma_scan(GammaScanConfig(parties=9, samples=10))


def test_scan_basic_output_shape():
    res = gamma_scan(GammaScanConfig(parties=2, samples=400, seed=0))
    assert res.parties == 2 and res.samples == 400 and res.seed == 0
    assert len(res.estimates) == 2
    for i, est in enumerate(res.estimates, start=1):
        assert est.index == i
        assert est.skipped == 0
        assert est.gamma_min is not None
        assert est.gamma_min >= 1.0 - 1e-12 if i == 1 else est.gamma_min > 0.0
        assert 0 <= est.witness_sample < 400
        assert est.witness_coefficients.shape == (8,)


def test_scan_first_ratio_floor():
    # flipping party 1's outputs negates block 1 while fixing the others,
    # so the full maximum can never drop below the block-1 maximum
    for m in (2, 3):
        res = gamma_scan(GammaScanConfig(parties=m, samples=1500, seed=2))
        assert res.estimates[0].gamma_min >= 1.0 - 1e-12


def test_scan_witness_replay():
    res = gamma_scan(GammaScanConfig(parties=3, samples=800, seed=5))
    _, offsets = block_sizes(3)
    for est in res.estimates:
        if est.gamma_min is None:
            continue
        x = est.witness_coefficients
        full = float(np.abs(strategy_matrix(3).astype(float) @ x).max())
        lo, hi = offsets[est.index - 1], offsets[est.index]
        sub = block_strategy_matrix(3, est.index).astype(float)
        blk = float(np.abs(sub @ x[lo:hi]).max())
        assert blk > 0.0
        assert full / blk == pytest.approx(est.gamma_min, rel=1e-9)


def test_scan_witness_vectors_are_unit():
    res = gamma_scan(GammaScanConfig(parties=2, samples=300, seed=8))
    for est in res.estimates:
        assert np.linalg.norm(est.witness_coefficients) == pytest.approx(1.0, rel=1e-12)


def test_scan_thread_partition_independence():
    serial = gamma_scan(GammaScanConfig(parties=3, samples=1200, seed=4), threads=1)
    pooled = gamma_scan(GammaScanConfig(parties=3, samples=1200, seed=4), threads=4)
    for a, b in zip(serial.estimates, pooled.estimates):
        assert a.gamma_min == b.gamma_min
        assert a.witness_sample == b.witness_sample
        assert a.skipped == b.skipped
        assert np.array_equal(a.witness_coefficients, b.witness_coefficients)


def test_scan_seed_sensitivity():
    a = gamma_scan(GammaScanConfig(parties=2, samples=500, seed=0))
    b = gamma_scan(GammaScanConfig(parties=2, samples=500, seed=1))
    assert any(
        x.gamma_min != y.gamma_min for x, y in zip(a.estimates, b.estimates)
    )


def test_scan_chunk_matches_dense_reference():
    # the batched transform against the per-sample dense matvec it replaced
    for m in (2, 3, 4, 5):
        config = GammaScanConfig(parties=m, samples=2 * _CHUNK + 40, seed=m)
        for start in range(0, config.samples, _CHUNK):
            minima, skipped = _scan_chunk(config, start)
            ref_minima, ref_skipped = scan_chunk_dense(config, start, _CHUNK)
            assert skipped == ref_skipped
            for got, ref in zip(minima, ref_minima):
                assert got[1] == ref[1]
                assert got[0] == pytest.approx(ref[0], rel=1e-12, abs=0.0)


def test_scan_sub_batches_do_not_change_results(monkeypatch):
    config = GammaScanConfig(parties=6, samples=300, seed=6)
    sizes = []
    bounds = gamma_module._bounds

    def spy(x, m):
        sizes.append(len(x))
        return bounds(x, m)

    monkeypatch.setattr(gamma_module, "_bounds", spy)
    split = gamma_scan(config)
    assert sizes == [32] * 9 + [12]  # 1 MiB of 4^6 values, chunks of 256 and 44 rows
    monkeypatch.setattr(gamma_module, "_VALUE_BYTES", 2**40)
    whole = gamma_scan(config)
    assert sizes[10:] == [256, 44]
    for a, b in zip(whole.estimates, split.estimates):
        assert (a.witness_sample, a.skipped) == (b.witness_sample, b.skipped)
        assert a.gamma_min == b.gamma_min


# (8, 256) is left out: the reference would hold 128 MiB arrays of 4^8 values
@pytest.mark.parametrize(
    "m, rows",
    [(m, rows) for m in range(1, 9) for rows in (1, 31, 32, 33, 256) if rows * 4**m <= 2**22],
)
def test_bounds_match_the_per_block_transforms(m, rows):
    # one transform read before each contraction against a transform per block
    x = _sample_rows(m, np.arange(rows), 3**m - 1)
    if rows > 1:
        x[1, : 2 * 3 ** (m - 1)] = 0.0  # an empty first block
    total, blocks = _bounds(x, m)
    ref_total, ref_blocks = bounds_per_block(x, m)
    assert np.array_equal(total, ref_total)
    assert np.array_equal(blocks, ref_blocks)


@pytest.mark.parametrize("m, limit_mib", [(6, 6), (7, 16)])
def test_scan_memory_is_a_sub_batch_not_a_chunk(m, limit_mib):
    # 16 MiB sub-batches with a transform per block peaked at 18.2 and 36.3 MiB
    tracemalloc.start()
    try:
        gamma_scan(GammaScanConfig(m, 256, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= limit_mib * 2**20


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.uint64)


@pytest.mark.parametrize("seed", [0, 7, 2**32 + 5, 2**70 + 3, 2**100 + 1])
def test_substream_states_match_numpy(seed):
    # seeds of one to four uint32 words, indices of one word and of two
    indices = np.concatenate([np.arange(4096), [2**32 - 1, 2**32, 2**40 + 3]])
    got = _substream_states(seed, indices)
    for k, pair in zip(indices.tolist(), got):
        state = np.random.default_rng([seed, k]).bit_generator.state["state"]
        assert pair == (state["state"], state["inc"]), k


def test_negative_seed_is_rejected():
    # as default_rng rejects it: the state derivation raises before any draw
    with pytest.raises(ValueError, match="non-negative"):
        gamma_scan(GammaScanConfig(parties=2, samples=10, seed=-3))


def _chunk_rows(monkeypatch, config, start):
    """The sample rows `_scan_chunk` hands to the transform, in order."""
    seen = []
    bounds = gamma_module._bounds

    def spy(x, m):
        seen.append(x.copy())
        return bounds(x, m)

    monkeypatch.setattr(gamma_module, "_bounds", spy)
    _scan_chunk(config, start)
    return np.concatenate(seen)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_scan_chunk_rows_match_per_sample_reference(monkeypatch, m):
    dim = 3**m - 1
    for seed in (0, 11, 2**33 + 1):
        config = GammaScanConfig(parties=m, samples=_CHUNK + 40, seed=seed)
        for start in (0, _CHUNK):
            rows = _chunk_rows(monkeypatch, config, start)
            stop = min(start + _CHUNK, config.samples)
            ref = [sample_vector(seed, k, dim) for k in range(start, stop)]
            assert np.array_equal(_bits(rows), _bits(ref))


def test_scan_rows_follow_the_redraw_rule(monkeypatch):
    # with one coefficient and a threshold of 1, about two draws in three are
    # redrawn from the same substream; rows must still match the reference
    import helpers

    monkeypatch.setattr(gamma_module, "_MIN_NORM", 1.0)
    monkeypatch.setattr(helpers, "_MIN_NORM", 1.0)
    indices = np.arange(300)
    rows = gamma_module._sample_rows(9, indices, 1)
    assert np.array_equal(_bits(rows), _bits([helpers.sample_vector(9, k, 1) for k in indices]))
    assert np.all(np.abs(rows) == 1.0)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_scan_witnesses_are_their_sample_rows(m):
    for seed in (3, 2**32 + 9):
        res = gamma_scan(GammaScanConfig(parties=m, samples=300, seed=seed))
        for est in res.estimates:
            assert est.witness_sample is not None
            ref = sample_vector(seed, est.witness_sample, 3**m - 1)
            assert np.array_equal(_bits(est.witness_coefficients), _bits(ref))
