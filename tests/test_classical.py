import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bellwerner import (
    CapExceeded,
    canonical_patterns,
    DeterministicStrategy,
    GammaScanConfig,
    GhzFamily,
    ObservableAssignment,
    QubitObservable,
    bell_operator,
    block_sizes,
    builtin,
    closed_form_classical,
    detect_visibility,
    gamma_scan,
    lhv_bound,
    new_expression,
    seesaw_lower,
)
import bellwerner
from bellwerner import classical
from bellwerner.classical import (
    _ordered_values, _outcome_values, _strategy_values, block_strategy_matrix, strategy_matrix
)
from bellwerner.expressions import canonical_tensor, term_slots
from bellwerner.quantum import seesaw_fixed_state
from helpers import (
    brute_force_bound,
    closed_form_loop,
    lhv_bound_loop,
    matrix_bound_blas,
    matrix_bound_ordered,
    random_expression,
    strategy_value,
    to_vector,
)


def test_named_expression_bounds():
    assert lhv_bound(builtin("CHSH")).value == 2.0
    assert lhv_bound(builtin("CH")).value == 4.0
    assert lhv_bound(builtin("MERMIN")).value == 2.0
    assert lhv_bound(builtin("SASA")).value == 2.0


def test_closed_form_values():
    assert closed_form_classical(builtin("CHSH")) == 2.0
    assert closed_form_classical(builtin("MERMIN")) == 4.0
    with pytest.raises(ValueError):
        closed_form_classical(builtin("CH"))  # has single-party terms
    with pytest.raises(ValueError):
        closed_form_classical(new_expression(2, [("00", 0.0)]))


def test_against_brute_force():
    rng = np.random.default_rng(21)
    for _ in range(60):
        m = int(rng.integers(1, 4))
        expr = random_expression(rng, m, integer=True)
        assert lhv_bound(expr).value == brute_force_bound(expr)


def test_matrix_kernel_agreement():
    rng = np.random.default_rng(22)
    for trial in range(60):
        m = int(rng.integers(1, 4))
        expr = random_expression(rng, m, integer=(trial % 2 == 0))
        got = lhv_bound(expr).value
        assert got == matrix_bound_ordered(expr)
        if trial % 2 == 0:
            # integer coefficients make every partial sum exact, so the
            # BLAS path must agree bit for bit as well
            assert got == matrix_bound_blas(expr)


def test_witness_reproduces_value():
    rng = np.random.default_rng(23)
    for _ in range(40):
        m = int(rng.integers(1, 4))
        expr = random_expression(rng, m)
        res = lhv_bound(expr)
        assert strategy_value(expr, res.witness) == res.achieved_sign * res.value
        assert res.achieved_sign in (-1, 1)
        assert res.value >= 0.0


def test_sign_flip_and_scaling():
    rng = np.random.default_rng(24)
    for _ in range(20):
        m = int(rng.integers(1, 4))
        expr = random_expression(rng, m)
        base = lhv_bound(expr).value
        neg = new_expression(m, [(p, -c) for p, c in expr.terms()])
        assert lhv_bound(neg).value == base
        doubled = new_expression(m, [(p, 2.0 * c) for p, c in expr.terms()])
        assert lhv_bound(doubled).value == 2.0 * base  # exact: power-of-two scale
        scaled = new_expression(m, [(p, 0.37 * c) for p, c in expr.terms()])
        assert lhv_bound(scaled).value == pytest.approx(0.37 * base, rel=1e-14)


def _swap_settings(pattern, party):
    flip = {"0": "1", "1": "0"}
    ch = pattern[party]
    if ch == "_":
        return pattern
    return pattern[:party] + flip[ch] + pattern[party + 1 :]


def test_setting_relabel_invariance():
    rng = np.random.default_rng(25)
    for _ in range(20):
        m = int(rng.integers(1, 4))
        expr = random_expression(rng, m, integer=True)
        party = int(rng.integers(0, m))
        swapped = new_expression(
            m, [(_swap_settings(p, party), c) for p, c in expr.terms()]
        )
        assert lhv_bound(swapped).value == lhv_bound(expr).value


def test_party_reversal_invariance():
    rng = np.random.default_rng(26)
    for _ in range(20):
        m = int(rng.integers(2, 4))
        expr = random_expression(rng, m, integer=True)
        reversed_expr = new_expression(m, [(p[::-1], c) for p, c in expr.terms()])
        assert lhv_bound(reversed_expr).value == lhv_bound(expr).value


def test_closed_form_is_upper_envelope():
    rng = np.random.default_rng(27)
    for _ in range(40):
        m = int(rng.integers(1, 4))
        expr = random_expression(rng, m, homogeneous=True)
        assert lhv_bound(expr).value <= closed_form_classical(expr) + 1e-12


def test_closed_form_matches_string_loop_exactly():
    rng = np.random.default_rng(28)
    exprs = [builtin("CHSH")] + [builtin(f"MERMIN({m})") for m in (3, 5, 7)]
    for m in range(1, 8):
        exprs.append(_dense_expression(rng, m, homogeneous=True))
        exprs.append(random_expression(rng, m, max_terms=2 ** (m - 1), homogeneous=True))
    for expr in exprs:
        assert closed_form_classical(expr) == closed_form_loop(expr)


@given(st.integers(min_value=1, max_value=6), st.data())
def test_strategy_encoding_roundtrip(m, data):
    code = data.draw(st.integers(min_value=0, max_value=4 ** m - 1))
    strat = DeterministicStrategy.from_encoding(m, code)
    assert strat.encoding == code
    assert strat.parties == m
    assert all(a in (-1, 1) for pair in strat.assignments for a in pair)


def test_strategy_validation():
    with pytest.raises(ValueError):
        DeterministicStrategy(((1, 2),))
    with pytest.raises(ValueError):
        DeterministicStrategy.from_encoding(1, 4)
    with pytest.raises(ValueError):
        DeterministicStrategy.from_encoding(1, -1)


def test_strategy_value_matches_manual():
    expr = builtin("CHSH")
    strat = DeterministicStrategy(((1, 1), (1, -1)))
    # 00 -> 1*1, 01 -> 1*-1, 10 -> 1*1, 11 -> -(1*-1)
    assert strategy_value(expr, strat) == 1.0 - 1.0 + 1.0 + 1.0
    with pytest.raises(ValueError):
        strategy_value(expr, DeterministicStrategy(((1, 1),)))


def test_strategy_matrix_entries():
    m = 2
    mat = strategy_matrix(m)
    assert mat.shape == (16, 8)
    assert mat.dtype == np.int8
    assert set(np.unique(mat)) == {-1, 1}
    from bellwerner import canonical_patterns

    pats = canonical_patterns(m)
    for code in (0, 5, 9, 15):
        strat = DeterministicStrategy.from_encoding(m, code)
        for k, pat in enumerate(pats):
            expected = 1.0
            for j, ch in enumerate(pat):
                if ch == "_":
                    continue
                expected *= strat.assignments[j][0 if ch == "0" else 1]
            assert mat[code, k] == expected


def test_block_matrix_is_column_slice():
    for m in (2, 3, 4):
        lengths, offsets = block_sizes(m)
        for j in range(1, m + 1):
            sub = block_strategy_matrix(m, j)
            ref = strategy_matrix(m + 1 - j)[:, : lengths[j - 1]]
            assert np.array_equal(sub, ref)
    with pytest.raises(ValueError):
        block_strategy_matrix(3, 0)
    with pytest.raises(ValueError):
        block_strategy_matrix(3, 4)


def test_zero_expression_rejected():
    with pytest.raises(ValueError):
        lhv_bound(new_expression(2, []))


def test_party_cap():
    expr = new_expression(9, [("0" * 9, 1.0)])
    with pytest.raises(CapExceeded):
        lhv_bound(expr)
    with pytest.raises(CapExceeded):
        strategy_matrix(9)


_NINE = new_expression(9, [("0" * 9, 1.0)])
_NINE_OBSERVABLES = ObservableAssignment(
    ((QubitObservable((0.0, 0.0, 1.0), 1.0, -1.0),) * 2,) * 9
)


@pytest.mark.parametrize(
    "call",
    [
        lambda: lhv_bound(_NINE),
        lambda: strategy_matrix(9),
        lambda: bell_operator(_NINE, _NINE_OBSERVABLES),
        lambda: seesaw_lower(_NINE, restarts=1),
        lambda: seesaw_fixed_state(_NINE, np.eye(2**9)[0], restarts=1),
        lambda: detect_visibility(_NINE, GhzFamily(9, 0.5)),
        lambda: gamma_scan(GammaScanConfig(parties=9, samples=1)),
    ],
    ids=[
        "lhv_bound",
        "strategy_matrix",
        "bell_operator",
        "seesaw_lower",
        "seesaw_fixed_state",
        "detect_visibility",
        "gamma_scan",
    ],
)
def test_one_party_cap_for_every_entry_point(call):
    with pytest.raises(CapExceeded) as exc:
        call()
    message = str(exc.value)
    assert "9 exceeds the cap of 8" in message
    assert "max_parties" not in message


def _dense_expression(rng, m, *, integer=False, homogeneous=False):
    patterns = canonical_patterns(m)
    if homogeneous:
        patterns = [p for p in patterns if "_" not in p]
    if integer:
        coeffs = rng.integers(-3, 4, size=len(patterns)).astype(float)
    else:
        coeffs = rng.normal(size=len(patterns))
    return new_expression(m, zip(patterns, coeffs))


def _symmetric_expression(rng, m):
    """Float coefficients that depend only on a pattern's symbol counts.

    Permuting the parties maps strategies onto strategies of equal exact
    value, but the term-ordered sums round differently: near-ties at the
    last bits, which the shortlist must keep.
    """
    weights = {}
    terms = []
    for pattern in canonical_patterns(m):
        key = "".join(sorted(pattern))
        if key not in weights:
            weights[key] = float(rng.normal())
        terms.append((pattern, weights[key]))
    return new_expression(m, terms)


def _bound_triple(expr):
    res = lhv_bound(expr)
    return res.value, res.witness.encoding, res.achieved_sign


def test_lhv_bound_matches_full_loop_exactly():
    # value, witness and sign of the shortlist-then-exact kernel equal the
    # full term-ordered 4^m loop bit for bit, ties included
    rng = np.random.default_rng(31)
    for m in range(1, 8):
        cases = [
            _dense_expression(rng, m, integer=True),  # many exact ties
            _dense_expression(rng, m),
            _dense_expression(rng, m, homogeneous=True),  # 2^m-fold sign ties
            _dense_expression(rng, m, homogeneous=True, integer=True),
            _symmetric_expression(rng, m),
            _symmetric_expression(rng, m),
            random_expression(rng, m, max_terms=5),
            random_expression(rng, m, max_terms=5, integer=True),
        ]
        for expr in cases:
            assert _bound_triple(expr) == lhv_bound_loop(expr)
    for name in ("CH", "CHSH", "SASA", "MERMIN", "MERMIN(5)", "MERMIN(7)"):
        expr = builtin(name)
        assert _bound_triple(expr) == lhv_bound_loop(expr)


def test_sign_table_stops_at_eight_parties():
    # one 2^16-entry sign table serves every code and mask under the 8-party
    # cap; a ninth party's term at a code of 2^16 or more is not folded
    slots, coeffs = term_slots(new_expression(9, [("_" * 8 + "0", 1.0), ("0" + "_" * 8, 2.0)]))
    assert _ordered_values(slots, coeffs, np.array([0, 1, 2**16 - 1])).tolist() == [3.0, -1.0, -1.0]
    with pytest.raises(IndexError):
        _ordered_values(slots, coeffs, np.array([0, 2**16]))


def test_outcomes_give_the_encoded_strategy_values():
    rng = np.random.default_rng(33)
    expr = random_expression(rng, 3)
    codes = rng.permutation(64)[:10]
    outcomes = np.array([DeterministicStrategy.from_encoding(3, int(k)).assignments for k in codes])
    assert np.array_equal(classical._strategy_codes(outcomes), codes)
    assert np.array_equal(_outcome_values(expr, outcomes), _ordered_values(*term_slots(expr), codes))


def test_strategy_matrices_are_not_package_names():
    assert not hasattr(bellwerner, "strategy_matrix")
    assert not hasattr(bellwerner, "block_strategy_matrix")
    assert {"strategy_matrix", "block_strategy_matrix"}.isdisjoint(bellwerner.__all__)
    assert classical.strategy_matrix is strategy_matrix


def test_lhv_bound_integer_coefficients_skip_the_term_order(monkeypatch):
    # integer sums are exact in any order, so the transform's values are the
    # term-ordered ones and nothing is re-evaluated
    exprs = [builtin(n) for n in ("CHSH", "CH", "SASA", "MERMIN", "MERMIN(5)", "MERMIN(7)")]
    rng = np.random.default_rng(37)
    for m in range(1, 8):
        exprs.append(_dense_expression(rng, m, integer=True))
        exprs.append(_dense_expression(rng, m, homogeneous=True, integer=True))
        exprs.append(random_expression(rng, m, max_terms=5, integer=True))
    expected = [lhv_bound_loop(expr) for expr in exprs]

    def unused(*args):
        raise AssertionError("integer coefficients were re-evaluated term by term")

    monkeypatch.setattr(classical, "_ordered_values", unused)
    for expr, triple in zip(exprs, expected):
        assert _bound_triple(expr) == triple


def test_lhv_bound_large_or_fractional_coefficients_take_the_shortlist(monkeypatch):
    # sum |c| >= 2^53 lets integer partial sums round, and fractions round in
    # any case, so the term order decides
    big = new_expression(2, [("00", 2.0**53), ("01", 1.0), ("10", -1.0), ("11", 3.0)])
    half = new_expression(2, [("00", 0.5), ("11", 1.0)])
    expected = [lhv_bound_loop(big), lhv_bound_loop(half)]
    calls = []
    original = classical._ordered_values

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(classical, "_ordered_values", counted)
    assert [_bound_triple(big), _bound_triple(half)] == expected
    assert len(calls) == 2


def test_lhv_bound_ties_go_to_the_lowest_encoding():
    # every one of the 4^7 strategies of MERMIN(7) reaches |value| = 8
    res = lhv_bound(builtin("MERMIN(7)"))
    assert (res.value, res.witness.encoding, res.achieved_sign) == (8.0, 0, -1)
    # a single term ties at every strategy; encoding 0 gives the coefficient
    expr = new_expression(3, [("1_0", -2.5)])
    assert _bound_triple(expr) == (2.5, 0, -1)


def test_strategy_values_are_the_strategy_matrix_product():
    rng = np.random.default_rng(32)
    for m in range(1, 6):
        vectors = rng.normal(size=(3, 2, 3**m - 1))
        values = _strategy_values(canonical_tensor(vectors, m), m)
        assert values.shape == (3, 2, 4**m)
        reference = vectors @ strategy_matrix(m).T.astype(float)
        assert np.abs(values - reference).max() <= 1e-12
    expr = random_expression(rng, 4, integer=True)
    single = _strategy_values(canonical_tensor(to_vector(expr), 4), 4)
    exact = [strategy_value(expr, DeterministicStrategy.from_encoding(4, k)) for k in range(256)]
    assert np.array_equal(single, exact)  # integer sums are exact in any order
