import math
import sys
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
from bellwerner.gamma import (
    _bounds,
    _generator,
    _sample_rows,
    _substream_states,
    _unit_rows,
    _workspace,
)
from helpers import (
    bounds_per_block,
    gamma_for,
    random_expression,
    run_python,
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


def test_scan_config_caps_samples_and_rejects_negative_seed():
    # every sample index must be one uint32 entropy word; both checks run
    # when the config is built, before anything is drawn
    assert GammaScanConfig(2, 2**32).samples == 2**32
    cap = "^samples per gamma scan: 4294967297 exceeds the cap of 4294967296$"
    with pytest.raises(CapExceeded, match=cap):
        GammaScanConfig(2, 2**32 + 1)
    with pytest.raises(ValueError, match="non-negative"):
        GammaScanConfig(2, 10, -1)


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


def test_scan_thread_partition_independence(monkeypatch):
    # a rerun, sub-batches of 8 rows and one sub-batch of all 1200 give one answer
    config = GammaScanConfig(parties=3, samples=1200, seed=4)
    scans = [gamma_scan(config), gamma_scan(config)]
    monkeypatch.setattr(gamma_module, "_VALUE_BYTES", 0)
    scans.append(gamma_scan(config))
    monkeypatch.setattr(gamma_module, "_MIN_ROWS", 1200)
    monkeypatch.setattr(gamma_module, "_MAX_ROWS", 1200)
    scans.append(gamma_scan(config))
    for other in scans[1:]:
        for a, b in zip(scans[0].estimates, other.estimates):
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


def test_scan_chunk_matches_dense_reference(monkeypatch):
    # the batched transform against the per-sample dense matvec it replaced,
    # over three passes of 256 derived substream states
    monkeypatch.setattr(gamma_module, "_STATE_ROWS", 256)
    for m in (2, 3, 4, 5):
        config = GammaScanConfig(parties=m, samples=2 * 256 + 40, seed=m)
        res = gamma_scan(config)
        ref_minima, ref_skipped = scan_chunk_dense(config, 0, config.samples)
        assert [est.skipped for est in res.estimates] == ref_skipped
        for est, ref in zip(res.estimates, ref_minima):
            assert est.witness_sample == ref[1]
            assert est.gamma_min == pytest.approx(ref[0], rel=1e-12, abs=0.0)


def test_scan_sub_batches_do_not_change_results(monkeypatch):
    config = GammaScanConfig(parties=6, samples=300, seed=6)
    sizes = []
    bounds = gamma_module._bounds

    def spy(x, m, workspace):
        sizes.append(len(x))
        return bounds(x, m, workspace)

    monkeypatch.setattr(gamma_module, "_bounds", spy)
    split = gamma_scan(config)
    assert sizes == [32] * 9 + [12]  # 1 MiB of 4^6 values
    monkeypatch.setattr(gamma_module, "_VALUE_BYTES", 2**40)
    monkeypatch.setattr(gamma_module, "_MAX_ROWS", 2**40)
    whole = gamma_scan(config)
    assert sizes[10:] == [300]
    for a, b in zip(whole.estimates, split.estimates):
        assert (a.witness_sample, a.skipped) == (b.witness_sample, b.skipped)
        assert a.gamma_min == b.gamma_min


def test_scan_ties_keep_the_lowest_sample(monkeypatch):
    # every sample ties on index 1 and index 2 is always skipped; across
    # sub-batches of 8 rows the witness stays sample 0
    def flat(x, m, workspace):
        blocks = np.zeros((len(x), m))
        blocks[:, 0] = 0.5
        return np.ones(len(x)), blocks

    monkeypatch.setattr(gamma_module, "_bounds", flat)
    monkeypatch.setattr(gamma_module, "_VALUE_BYTES", 0)
    first, second = gamma_scan(GammaScanConfig(parties=2, samples=30, seed=1)).estimates
    assert (first.gamma_min, first.witness_sample, first.skipped) == (2.0, 0, 0)
    assert (second.gamma_min, second.witness_sample, second.skipped) == (None, None, 30)


def test_scan_self_check_names_the_first_low_sample(monkeypatch):
    # samples 13 on have a first-block ratio of 0.5, from the second sub-batch of 8
    done = []

    def low_from_13(x, m, workspace):
        k = np.arange(len(done), len(done) + len(x))
        done.extend(k)
        return np.where(k >= 13, 0.5, 1.0), np.ones((len(x), m))

    monkeypatch.setattr(gamma_module, "_bounds", low_from_13)
    monkeypatch.setattr(gamma_module, "_VALUE_BYTES", 0)
    with pytest.raises(RuntimeError, match="^sample 13: first-block ratio 0.5 fell below 1"):
        gamma_scan(GammaScanConfig(parties=2, samples=30, seed=1))
    assert len(done) == 16  # it stops at the sub-batch that fails


# (8, 256) is left out: the reference would hold 128 MiB arrays of 4^8 values
@pytest.mark.parametrize(
    "m, rows",
    [(m, rows) for m in range(1, 9) for rows in (1, 31, 32, 33, 256) if rows * 4**m <= 2**22],
)
def test_bounds_match_the_per_block_transforms(m, rows):
    # one transform read before each contraction against a transform per block,
    # in a workspace that starts as NaN and is then reused for fewer rows
    x = _sample_rows(_substream_states(m, np.arange(rows)), 3**m - 1)
    if rows > 1:
        x[1, : 2 * 3 ** (m - 1)] = 0.0  # an empty first block
    workspace = _workspace([(m, rows)])
    for buffer in workspace:
        buffer.fill(np.nan)
    total, blocks = _bounds(x, m, workspace)
    ref_total, ref_blocks = bounds_per_block(x, m)
    assert np.array_equal(total, ref_total)
    assert np.array_equal(blocks, ref_blocks)
    fewer = max(1, rows - 2)
    total, blocks = _bounds(x[:fewer], m, workspace)
    assert np.array_equal(total, ref_total[:fewer])
    assert np.array_equal(blocks, ref_blocks[:fewer])


@pytest.mark.parametrize("m, limit_mib", [(6, 6), (7, 16), (8, 8)])
def test_scan_memory_is_a_sub_batch_not_a_chunk(m, limit_mib):
    # 16 MiB sub-batches with a transform per block peaked at 18.2 and 36.3 MiB
    # at m = 6 and 7; drawing 256 rows before splitting them, 19.3 MiB at m = 8
    tracemalloc.start()
    try:
        gamma_scan(GammaScanConfig(m, 256, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= limit_mib * 2**20


@pytest.mark.skipif(sys.platform != "linux", reason="reads Linux's minor page-fault count")
def test_scan_reuses_one_workspace_across_sub_batches():
    # in a fresh process, whose heap no earlier test has grown: products
    # allocated per sub-batch let the heap shrink and regrow between them,
    # about 6.9k minor faults a call, against about 0.5k with one workspace
    faults = run_python(
        "import resource\n"
        "from bellwerner import GammaScanConfig, gamma_scan\n"
        "config = GammaScanConfig(5, 2000, 0)\n"
        "gamma_scan(config)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "gamma_scan(config)\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
    )
    assert int(faults) < 6900 // 3


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.uint64)


@pytest.mark.parametrize("seed", [0, 7, 2**32 + 5, 2**70 + 3, 2**100 + 1])
def test_substream_states_match_numpy(seed):
    # seeds of one to four uint32 words, indices up to the last one a scan can take
    indices = np.concatenate([np.arange(4096), [2**32 - 1]])
    got = _substream_states(seed, indices)
    assert got.dtype == np.uint64 and got.shape == (len(indices), 4) and got.flags.c_contiguous
    for k, words in zip(indices.tolist(), got):
        want = np.random.SeedSequence([seed, k]).generate_state(4, np.uint64)
        assert np.array_equal(words, want), k
        state = np.random.default_rng([seed, k]).bit_generator.state
        assert _generator(words).bit_generator.state == state, k


def test_substream_seed_refuses_any_other_request(monkeypatch, capsys):
    # the words are PCG64's 4 uint64; the other bit generators ask for
    # 624 uint32 (MT19937) and 3 uint64 (SFC64)
    words = _substream_states(0, np.arange(1))[0]
    seed_seq = gamma_module._seeded_words()(words)
    assert seed_seq.generate_state(4, np.uint64) is words
    for n_words, dtype in [(8, np.uint32), (4, np.uint32), (3, np.uint64), (8, np.uint64)]:
        with pytest.raises(RuntimeError, match=f"^PCG64 asked its seed for {n_words} words"):
            seed_seq.generate_state(n_words, dtype)
    for bit_generator in (np.random.MT19937, np.random.SFC64):
        with pytest.raises(RuntimeError, match="^PCG64 asked its seed"):
            bit_generator(seed_seq)
    # a scan whose bit generator asked for anything else is an internal fault
    from bellwerner import cli

    monkeypatch.setattr(np.random, "PCG64", np.random.SFC64)
    assert cli.main(["gamma", "--m", "2", "--samples", "5"]) == 5
    assert capsys.readouterr().err == "error: PCG64 asked its seed for 3 words of uint64\n"


def test_negative_seed_is_rejected():
    # as default_rng rejects it, before any draw
    with pytest.raises(ValueError, match="non-negative"):
        gamma_scan(GammaScanConfig(parties=2, samples=10, seed=-3))


def _scan_rows(monkeypatch, config):
    """The sample rows `gamma_scan` hands to the transform, one array per sub-batch."""
    seen = []
    bounds = gamma_module._bounds

    def spy(x, m, workspace):
        seen.append(x.copy())
        return bounds(x, m, workspace)

    monkeypatch.setattr(gamma_module, "_bounds", spy)
    gamma_scan(config)
    monkeypatch.setattr(gamma_module, "_bounds", bounds)
    return seen


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_scan_chunk_rows_match_per_sample_reference(monkeypatch, m):
    # sub-batches of the size rule, then of 37 rows, which straddle the
    # passes that derive 256 substream states at a time
    monkeypatch.setattr(gamma_module, "_STATE_ROWS", 256)
    dim = 3**m - 1
    for rows in (None, 37):
        if rows is not None:
            monkeypatch.setattr(gamma_module, "_VALUE_BYTES", 0)
            monkeypatch.setattr(gamma_module, "_MIN_ROWS", rows)
        for seed in (0, 11, 2**33 + 1):
            config = GammaScanConfig(parties=m, samples=256 + 40, seed=seed)
            seen = _scan_rows(monkeypatch, config)
            if rows is not None:
                assert [len(x) for x in seen] == [37] * 8  # the seventh spans samples 222..258
            ref = [sample_vector(seed, k, dim) for k in range(config.samples)]
            assert np.array_equal(_bits(np.concatenate(seen)), _bits(ref))


def test_scan_rows_follow_the_redraw_rule(monkeypatch):
    # with one coefficient and a threshold of 1, about two draws in three are
    # redrawn from the same substream; rows must still match the reference
    import helpers

    monkeypatch.setattr(gamma_module, "_MIN_NORM", 1.0)
    monkeypatch.setattr(helpers, "_MIN_NORM", 1.0)
    indices = np.arange(300)
    states = _substream_states(9, indices)
    rows = _unit_rows(_sample_rows(states, 1), states)
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


def _assert_same_scan(a, b):
    for x, y in zip(a.estimates, b.estimates, strict=True):
        assert (x.gamma_min, x.witness_sample, x.skipped) == (y.gamma_min, y.witness_sample, y.skipped)
        assert np.array_equal(_bits(x.witness_coefficients), _bits(y.witness_coefficients))


def _table_ii_scans(monkeypatch, argv):
    """The scans `tables II` reports, caught on their way from `gamma_scans`."""
    from bellwerner import cli

    caught = []

    def spy(configs):
        caught.extend(gamma_module.gamma_scans(configs))
        return caught

    monkeypatch.setattr(cli, "gamma_scans", spy)
    assert cli.main(["tables", "II", *argv, "--format", "structured"]) == 0
    return caught


@pytest.mark.parametrize("seed", [0, 2**33 + 1])
@pytest.mark.parametrize("argv", [[], ["--max-m", "6"]], ids=["default", "max-m 6"])
def test_table_ii_scans_equal_separate_scans(monkeypatch, capsys, seed, argv):
    # one draw for every party count against a draw per scan; at --max-m 6
    # the five- and six-party scans stop at 1000 of the 10000 samples
    shared = _table_ii_scans(monkeypatch, argv + ["--seed", str(seed)])
    assert [(s.parties, s.samples) for s in shared] == [
        (m, 10000 if m <= 4 else 1000) for m in range(2, 7 if argv else 5)
    ]
    for res in shared:
        _assert_same_scan(res, gamma_scan(GammaScanConfig(res.parties, res.samples, seed)))


def test_shared_scans_follow_the_redraw_rule(monkeypatch):
    # at a threshold of 2 about one 8-value prefix in seven is redrawn from
    # its substream past those 8 values, while no 26- or 80-value row is
    import helpers

    monkeypatch.setattr(gamma_module, "_MIN_NORM", 2.0)
    monkeypatch.setattr(helpers, "_MIN_NORM", 2.0)
    configs = [GammaScanConfig(m, n, 5) for m, n in ((4, 300), (2, 300), (3, 260))]
    states = _substream_states(5, np.arange(300))
    wide = _sample_rows(states, 80)
    short = np.linalg.norm(wide[:, :8], axis=1) < 2.0
    assert short.sum() > 20 and np.linalg.norm(wide[:, :26], axis=1).min() >= 2.0
    seen = {}
    bounds = gamma_module._bounds

    def spy(x, m, workspace):
        seen.setdefault(m, []).append(x.copy())
        return bounds(x, m, workspace)

    monkeypatch.setattr(gamma_module, "_bounds", spy)
    shared = gamma_module.gamma_scans(configs)
    for config, res in zip(configs, shared):
        dim = 3**config.parties - 1
        ref = [helpers.sample_vector(5, k, dim) for k in range(config.samples)]
        assert np.array_equal(_bits(np.concatenate(seen.pop(config.parties))), _bits(ref))
        _assert_same_scan(res, gamma_scan(config))


@pytest.mark.parametrize(
    "argv",
    [["gamma", "--m", "4", "--samples", "600"], ["tables", "II", "--samples", "600"]],
    ids=["gamma", "tables II"],
)
def test_each_sample_is_derived_once_per_command(monkeypatch, capsys, argv):
    # witnesses are kept rather than derived again, and table II's three
    # party counts share one draw of their 600 samples
    from bellwerner import cli

    derived = []
    substream_states = gamma_module._substream_states

    def spy(seed, indices):
        derived.extend(np.asarray(indices).tolist())
        return substream_states(seed, indices)

    monkeypatch.setattr(gamma_module, "_substream_states", spy)
    assert cli.main(argv) == 0
    assert sorted(derived) == list(range(600))
