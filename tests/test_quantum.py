import contextlib
import io
import itertools
import math
import os
import threading
import tracemalloc

import numpy as np
import pytest

from bellwerner import (
    CapExceeded,
    ObservableAssignment,
    QubitObservable,
    analytic_quantum_upper,
    bell_operator,
    builtin,
    canonical_patterns,
    closed_form_classical,
    composite_ratio_upper,
    lhv_bound,
    new_expression,
    seesaw_lower,
)
from bellwerner import quantum
from bellwerner.expressions import coefficient_tensor
from bellwerner.quantum import seesaw_fixed_state
from helpers import effective_pair_reference as _effective_pair
from helpers import stack_reference as _stack
from helpers import (
    bounded_reference,
    equatorial_lower,
    kron_bell_operator,
    kron_effective_operator,
    max_abs_eigenvalue,
    observable_matrix,
    random_expression,
    run_python,
    seesaw_run_reference,
    stop_label_reference,
)

ROOT2 = math.sqrt(2.0)


def _random_hermitian(rng, n, complex_entries=True):
    a = rng.standard_normal((n, n))
    if complex_entries:
        a = a + 1j * rng.standard_normal((n, n))
    return (a + a.conj().T) / 2.0


def test_eigensolver_against_dense():
    rng = np.random.default_rng(31)
    for n in (2, 3, 5, 8, 16, 33, 64):
        for _ in range(4):
            h = _random_hermitian(rng, n, complex_entries=bool(rng.integers(2)))
            w = np.linalg.eigvalsh(h)
            expected = max(abs(w[0]), abs(w[-1]))
            got = max_abs_eigenvalue(h)
            assert abs(got - expected) <= 1e-8 * max(1.0, expected)


def test_eigensolver_negative_dominant():
    h = np.diag([-5.0, 1.0, 2.0])
    assert max_abs_eigenvalue(h) == pytest.approx(5.0, abs=1e-10)


def test_eigensolver_validates_input():
    with pytest.raises(ValueError):
        max_abs_eigenvalue(np.ones((2, 3)))


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan)])
def test_eigensolver_rejects_nonfinite_entries(bad):
    one = np.array([[bad, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="non-finite"):
        quantum._dominant_eig(one)
    stack = np.array([np.eye(2), one, np.eye(2)])  # one bad matrix in a stack
    with pytest.raises(ValueError, match="non-finite"):
        quantum._dominant_eig(stack)
    with pytest.raises(ValueError, match="non-finite"):
        quantum._finite(stack)


def test_eigensolver_stack_matches_single_calls():
    rng = np.random.default_rng(30)
    for n in (2, 4, 16, 128):
        stack = np.array([_random_hermitian(rng, n) for _ in range(5)])
        values, vectors = quantum._dominant_eig(stack)
        for h, value, vector in zip(stack, values, vectors):
            single_value, single_vector = quantum._dominant_eig(h)
            assert value == single_value
            assert np.array_equal(vector, single_vector)


def _one_party_operator(obs):
    """The observable's matrix, as the Bell operator of the one-party expression "0"."""
    return bell_operator(new_expression(1, [("0", 1.0)]), ObservableAssignment(((obs, obs),)))


def test_observable_validation():
    with pytest.raises(ValueError):
        QubitObservable((1.0, 1.0, 0.0), 1.0, -1.0)  # axis not unit
    with pytest.raises(ValueError):
        QubitObservable((0.0, 0.0, 1.0), 2.0, -1.0)  # eigenvalue out of range
    obs = QubitObservable((0.0, 0.0, 1.0), 1.0, -1.0)
    assert np.allclose(_one_party_operator(obs), np.diag([1.0, -1.0]))
    const = QubitObservable((0.0, 0.0, 1.0), -1.0, -1.0)
    assert np.allclose(_one_party_operator(const), -np.eye(2))


_Z = QubitObservable((0.0, 0.0, 1.0), 1.0, -1.0)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: QubitObservable((0.0, math.nan, 1.0), 1.0, -1.0),
         "axis must be a finite 3-vector"),
        (lambda: ObservableAssignment(()), "assignment needs at least one party"),
        (lambda: ObservableAssignment(((_Z,),)), "each party needs exactly two observables"),
    ],
    ids=["NaN axis", "no party", "one observable"],
)
def test_observable_inputs_are_checked(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_observable_matrix_spectrum():
    rng = np.random.default_rng(32)
    for _ in range(20):
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        obs = QubitObservable(tuple(axis), 1.0, -1.0)
        w = np.linalg.eigvalsh(_one_party_operator(obs))
        assert np.allclose(w, [-1.0, 1.0], atol=1e-12)


def _chsh_optimal_assignment():
    z = (0.0, 0.0, 1.0)
    x = (1.0, 0.0, 0.0)
    zp = (1 / ROOT2, 0.0, 1 / ROOT2)
    zm = (-1 / ROOT2, 0.0, 1 / ROOT2)
    return ObservableAssignment(
        (
            (QubitObservable(z, 1.0, -1.0), QubitObservable(x, 1.0, -1.0)),
            (QubitObservable(zp, 1.0, -1.0), QubitObservable(zm, 1.0, -1.0)),
        )
    )


def test_bell_operator_chsh_norm():
    b = bell_operator(builtin("CHSH"), _chsh_optimal_assignment())
    assert np.array_equal(b, b.conj().T)
    w = np.linalg.eigvalsh(b)
    assert max(abs(w[0]), abs(w[-1])) == pytest.approx(2 * ROOT2, abs=1e-12)


def test_bell_operator_hermitian_exactly():
    rng = np.random.default_rng(33)
    for _ in range(10):
        m = int(rng.integers(1, 4))
        expr = random_expression(rng, m)
        observables = []
        for _ in range(m):
            pair = []
            for _ in range(2):
                axis = rng.standard_normal(3)
                axis /= np.linalg.norm(axis)
                pair.append(QubitObservable(tuple(axis), 1.0, -1.0))
            observables.append(tuple(pair))
        b = bell_operator(expr, ObservableAssignment(tuple(observables)))
        assert np.array_equal(b, b.conj().T)


def _kernel_cases(rng):
    """Dense, full-correlation and sparse expressions, one with a party absent."""
    for m in range(1, 6):
        yield random_expression(rng, m, max_terms=3 ** m)
        yield random_expression(rng, m, max_terms=2 ** m, homogeneous=True)
        yield random_expression(rng, m)
        if m > 1:
            gone = int(rng.integers(m))
            pats = [p for p in canonical_patterns(m) if p[gone] == "_"]
            picks = rng.choice(len(pats), size=min(5, len(pats)), replace=False)
            yield new_expression(m, [(pats[i], float(rng.normal())) for i in picks])


def test_contraction_matches_kron_reference():
    rng = np.random.default_rng(36)
    for expr in _kernel_cases(rng):
        m = expr.parties
        pairs = []
        for _ in range(m):
            pair = []
            for _ in range(2):
                axis = rng.standard_normal(3)
                axis /= np.linalg.norm(axis)
                eig_plus, eig_minus = rng.uniform(-1.0, 1.0, 2)
                pair.append(QubitObservable(tuple(axis), eig_plus, eig_minus))
            pairs.append(tuple(pair))
        mats = [[observable_matrix(o) for o in pair] for pair in pairs]
        psi = rng.standard_normal(2 ** m) + 1j * rng.standard_normal(2 ** m)
        psi /= np.linalg.norm(psi)

        b = bell_operator(expr, ObservableAssignment(tuple(pairs)))
        assert np.abs(b - kron_bell_operator(expr, mats)).max() <= 1e-12

        # diagonal +-1 observables: equal to the per-term sum bit for bit
        signs = rng.choice([-1.0, 1.0], size=(m, 2, 3))
        diagonal = [
            tuple(QubitObservable((0.0, 0.0, z), p, q) for z, p, q in row) for row in signs
        ]
        exact = bell_operator(expr, ObservableAssignment(tuple(diagonal)))
        diagonal_mats = [[observable_matrix(o) for o in pair] for pair in diagonal]
        assert np.array_equal(exact, kron_bell_operator(expr, diagonal_mats))

        coeffs = coefficient_tensor(expr, complex)
        stacks = [_stack(pair) for pair in pairs]
        for j in range(m):
            f = _effective_pair(coeffs, stacks, j, psi)
            for setting in (0, 1):
                ref = kron_effective_operator(expr, mats, j, setting, psi)
                assert np.abs(f[setting] - ref).max() <= 1e-12


def test_bell_operator_party_mismatch():
    with pytest.raises(ValueError):
        bell_operator(builtin("MERMIN"), _chsh_optimal_assignment())


def test_bell_matrix_is_exactly_hermitian():
    # np.linalg.eigh reads one triangle only; the see-saw trusts this without a check
    rng = np.random.default_rng(40)
    for m in range(1, 8):
        expr = random_expression(rng, m, max_terms=3 ** m)
        general = []
        for _ in range(m):
            axes = rng.standard_normal((2, 3))
            axes /= np.linalg.norm(axes, axis=1, keepdims=True)
            eigs = rng.uniform(-1.0, 1.0, (2, 2)).tolist()
            general.append([(tuple(a), *e) for a, e in zip(axes.tolist(), eigs)])
        diagonal = [[((0.0, 0.0, z), p, q) for z, p, q in row]
                    for row in rng.choice([-1.0, 1.0], size=(m, 2, 3)).tolist()]
        starts = [quantum._random_assignment(m, rng), general, diagonal]
        stacks = [quantum._stacks([start[j] for start in starts]) for j in range(m)]
        b = quantum._bell_matrix(expr, coefficient_tensor(expr, complex), stacks)
        assert np.array_equal(b, b.conj().swapaxes(-1, -2))
        assert np.array_equal(b[2], np.diag(np.diag(b[2])))  # the diagonal +-1 branch


def test_seesaw_chsh():
    res = seesaw_lower(builtin("CHSH"), restarts=8, seed=0)
    assert res.value == pytest.approx(2 * ROOT2, abs=1e-3)
    assert 0 <= res.restart_index < 9  # 8 random + 1 deterministic start


def test_seesaw_mermin():
    res = seesaw_lower(builtin("MERMIN"), restarts=8, seed=0)
    assert res.value == pytest.approx(4.0, abs=1e-3)


def test_seesaw_sweeps_monotone():
    rng = np.random.default_rng(34)
    for _ in range(8):
        m = int(rng.integers(1, 4))
        expr = random_expression(rng, m)
        res = seesaw_lower(expr, restarts=3, seed=int(rng.integers(10_000)))
        values = res.sweep_values
        assert len(values) >= 1
        for a, b in zip(values, values[1:]):
            assert b >= a - 1e-9 * max(1.0, abs(a))
        assert res.value == values[-1]


def test_seesaw_never_below_classical_bound():
    # the warm start sweeps through diagonal observables, whose operator must
    # hold the classical values exactly, not to rounding
    rng = np.random.default_rng(7)
    for t in range(40):
        expr = random_expression(rng, int(rng.integers(1, 5)), max_terms=81)
        assert seesaw_lower(expr, restarts=1, seed=t).value >= lhv_bound(expr).value


def test_seesaw_sandwich_homogeneous():
    rng = np.random.default_rng(35)
    for _ in range(6):
        m = int(rng.integers(1, 4))
        expr = random_expression(rng, m, homogeneous=True)
        res = seesaw_lower(expr, restarts=4, seed=7)
        lower = lhv_bound(expr).value
        upper = math.sqrt(3.0) * closed_form_classical(expr)
        assert res.value >= lower - 1e-9
        assert res.value <= upper + 1e-9


def test_seesaw_scaling_equivariance():
    expr = builtin("CHSH")
    scaled = new_expression(2, [(p, 2.5 * c) for p, c in expr.terms()])
    a = seesaw_lower(expr, restarts=5, seed=3)
    b = seesaw_lower(scaled, restarts=5, seed=3)
    assert b.value == pytest.approx(2.5 * a.value, rel=1e-6)


def test_seesaw_rerun_determinism():
    expr = builtin("MERMIN")
    first = seesaw_lower(expr, restarts=6, seed=11)
    rerun = seesaw_lower(expr, restarts=6, seed=11)
    assert first.value == rerun.value
    assert first.restart_index == rerun.restart_index
    assert first.sweep_values == rerun.sweep_values
    assert np.array_equal(first.state, rerun.state)


def test_seesaw_validation():
    with pytest.raises(ValueError):
        seesaw_lower(new_expression(2, []), restarts=1)
    with pytest.raises(ValueError):
        seesaw_lower(builtin("CHSH"), restarts=0)


def _benchmark_full_correlation_expressions():
    """The six full-correlation see-saw inputs of input set 0 of seesaw_mix.

    One generator draws standard normal coefficients in the benchmark's
    order: two dense expressions (all 3^m - 1 patterns) for each of
    m = 2, 3, 4, then two full-correlation ones (all 2^m patterns) for each
    of m = 3, 4, 5.  Only the full-correlation ones are kept; the shifted
    power iteration once failed to converge on every one of them.
    """
    rng = np.random.default_rng([0, 0, 0])
    cases = []
    for alphabet, ms in (("_01", (2, 3, 4)), ("01", (3, 4, 5))):
        for m in ms:
            for k in range(2):
                patterns = [
                    "".join(p)
                    for p in itertools.product(alphabet, repeat=m)
                    if set(p) != {"_"}
                ]
                terms = [(p, float(rng.standard_normal())) for p in patterns]
                if alphabet == "01":
                    cases.append(pytest.param(new_expression(m, terms), id=f"fc{m}_{k}"))
    return cases


@pytest.mark.parametrize("expr", _benchmark_full_correlation_expressions())
def test_seesaw_full_correlation_sandwich(expr):
    res = seesaw_lower(expr, restarts=3)
    assert res.value >= lhv_bound(expr).value - 1e-9
    assert res.value <= math.sqrt(3.0) * closed_form_classical(expr) + 1e-9
    w = np.linalg.eigvalsh(bell_operator(expr, res.witness))
    assert max(abs(w[0]), abs(w[-1])) == pytest.approx(res.value, abs=1e-9)


@pytest.mark.parametrize(
    "name, optimum",
    [("CHSH", 2 * ROOT2), ("MERMIN(3)", 4.0), ("MERMIN(5)", 16.0), ("MERMIN(7)", 64.0)],
)
def test_seesaw_known_optima(name, optimum):
    res = seesaw_lower(builtin(name), restarts=3)
    assert res.value == pytest.approx(optimum, abs=1e-9)


def test_seesaw_stop_reasons(monkeypatch):
    converged = seesaw_lower(builtin("CHSH"), restarts=3)
    assert converged.stop_reasons == ("converged",) * 4
    assert len(converged.sweeps) == 4
    assert converged.sweeps[converged.restart_index] == len(converged.sweep_values) - 1
    for name in ("MERMIN(3)", "MERMIN(5)"):
        assert set(seesaw_lower(builtin(name), restarts=20).stop_reasons) == {"converged"}
    # CH creeps about 1e-9 per sweep towards its classical bound on most
    # restarts; the geometric limit shows early that they cannot beat it
    creeping = seesaw_lower(builtin("CH"), restarts=20, seed=0)
    assert creeping.stop_reasons.count("bounded") == 12
    assert creeping.stop_reasons.count("converged") == 9
    assert sum(creeping.sweeps) <= 200
    monkeypatch.setattr(quantum, "_MAX_SWEEPS", 1)
    capped = seesaw_lower(builtin("MERMIN"), restarts=3)
    assert len(capped.stop_reasons) == 4
    assert "max_sweeps" in capped.stop_reasons
    assert set(capped.stop_reasons) <= {"converged", "max_sweeps"}
    assert len(capped.sweep_values) <= 2


_CREEP = [0.5] * 7  # six sweeps that gained nothing, then a tail of four values
_TAIL = [0.75, 0.875, 0.9375, 0.96875]  # gains 1/8, 1/16, 1/32: r = 0.5, limit 1.0
_GAINING = [1.0 + k / 1024 for k in range(quantum._MAX_SWEEPS + 1)]  # r = 1 exactly


def _limit_at_c1_plus_tol(values):
    """A c1 with c1 + _TOL equal, float for float, to the geometric limit of values."""
    last, middle = values[-1] - values[-2], values[-2] - values[-3]
    r = last / middle
    limit = values[-1] + last * r / (1.0 - r)
    c1 = limit - quantum._TOL
    while c1 + quantum._TOL > limit:
        c1 = np.nextafter(c1, -math.inf)
    while c1 + quantum._TOL < limit:
        c1 = np.nextafter(c1, math.inf)
    assert c1 + quantum._TOL == limit
    return float(c1)


def _reference_reason(values, c1):
    """The stop reason from the independent label and "bounded" references."""
    if values[-1] - values[-2] < quantum._TOL:
        return stop_label_reference(values)
    if bounded_reference(values, c1):
        return "bounded"
    return "max_sweeps" if len(values) > quantum._MAX_SWEEPS else None


def _check_stop_reason(values, c1, reason):
    if reason is RuntimeError:
        with pytest.raises(RuntimeError, match="^see-saw objective decreased"):
            quantum._stop_reason(values, c1)
        return
    assert quantum._stop_reason(values, c1) == reason
    assert _reference_reason(values, c1) == reason


@pytest.mark.parametrize(
    "values, label",
    [
        ([1.0, 1.0 - 5e-10], "converged"),  # a fall within 1e-9 max(1, v) is no gain
        ([1.0, 1.0], "converged"),
        ([1.0, 1.5, 1.5 + 5e-10], "converged"),  # tail 5e-10 * 1e-9 / (1 - 1e-9)
        ([1.0, 1.0 + 1e-9, 1.0 + 1e-9 + 9e-10], "stalled"),  # r = 0.9, tail 8.1e-9
        ([1.0, 1.0 + 2e-10, 1.0 + 5e-10], "stalled"),  # r >= 1
        ([1.0, 1.0, 1.0 + 5e-10], "converged"),  # one positive gain
        ([1.0, 1.0 + 5e-10, 1.0 + 5e-10], "converged"),  # last gain zero
    ],
)
def test_stop_label(values, label):
    # a gain below _TOL: the label does not depend on c1
    _check_stop_reason(values, 9.0, label)


@pytest.mark.parametrize(
    "values, c1, bounded",
    [
        (_CREEP + _TAIL, 1.0, True),  # 10 sweeps, limit exactly 1.0
        (_CREEP[1:] + _TAIL, 1.0, False),  # 9 sweeps
        (_CREEP + _TAIL, 1.0 - 2e-9, False),  # limit above c1 + _TOL
        (_CREEP + _TAIL, None, True),  # limit exactly at c1 + _TOL
        (_CREEP + _TAIL[:3] + [0.9375 + 0.54 / 16], 2.0, True),  # r = 0.54, r0 = 0.5
        (_CREEP + _TAIL[:3] + [0.9375 + 0.56 / 16], 2.0, False),  # 12% apart
        (_CREEP + _TAIL[:3] + [0.9375 + 0.455 / 16], 2.0, True),  # 9% below r0
        (_CREEP + _TAIL[:3] + [0.9375 + 0.44 / 16], 2.0, False),  # 12% below r0
        (_CREEP + [0.5, 0.625, 0.75, 0.875], 5.0, False),  # r = 1
        (_CREEP + [0.5, 0.53125, 0.59375, 0.71875], 5.0, False),  # r = 2
        (_CREEP + [0.75, 0.875, 0.875, 0.9], 5.0, False),  # a zero gain
    ],
)
def test_bounded_stop(values, c1, bounded):
    # every last gain here is at least _TOL, so the restart either stops as
    # "bounded" or sweeps on
    if c1 is None:
        c1 = _limit_at_c1_plus_tol(values)
    _check_stop_reason(values, c1, "bounded" if bounded else None)


@pytest.mark.parametrize(
    "values, reason",
    [
        ([1.0, 1.0 - 2e-9], RuntimeError),
        ([1000.0, 1000.0 - 5e-7], "converged"),
        ([1000.0, 1000.0 - 2e-6], RuntimeError),
        (_GAINING, "max_sweeps"),  # still gaining 1/1024 a sweep at the cap
        (_GAINING[:-1], None),
    ],
)
def test_stop_reason(values, reason):
    _check_stop_reason(values, 1.0, reason)


def _reference_cases():
    rng = np.random.default_rng(38)
    for name in ("CHSH", "CH", "MERMIN(3)", "MERMIN(5)", "MERMIN(7)"):
        yield builtin(name)
    for m in range(1, 7):
        yield random_expression(rng, m, max_terms=3 ** m)
        yield random_expression(rng, m, max_terms=2 ** m, homogeneous=True)


@pytest.mark.parametrize("fixed", [False, True], ids=["lower", "fixed_state"])
def test_seesaw_run_matches_reference(fixed, monkeypatch):
    rng = np.random.default_rng(39)
    for expr in _reference_cases():
        m = expr.parties
        psi = None
        if fixed:
            psi = rng.standard_normal(2 ** m) + 1j * rng.standard_normal(2 ** m)
            psi /= np.linalg.norm(psi)
        classical = lhv_bound(expr)
        c1 = classical.value
        starts = [
            quantum._random_assignment(m, np.random.default_rng([int(rng.integers(100)), 0])),
            quantum._witness_assignment(classical),
        ]
        refs = [seesaw_run_reference(expr, start, c1, fixed_state=psi) for start in starts]
        # one stack of both restarts, then one group per restart
        for budget in (quantum._GROUP_ENTRIES, 1):
            monkeypatch.setattr(quantum, "_GROUP_ENTRIES", budget)
            runs = dict(quantum._seesaw_runs(expr, iter(starts), c1, fixed_state=psi))
            assert sorted(runs) == [0, 1]
            for i, ref in enumerate(refs):
                got = runs[i]
                assert got.value == ref.value
                assert got.sweep_values == ref.sweep_values
                assert np.array_equal(got.state, ref.state)
                assert got.witness == ref.witness  # axes and eigenvalues, float by float
                assert got.stop_reason == ref.stop_reason


def test_restarts_are_drawn_one_group_at_a_time(monkeypatch):
    expr, m = builtin("CH"), 2
    starts = [quantum._random_assignment(m, np.random.default_rng([0, r])) for r in range(5)]
    whole = dict(quantum._seesaw_runs(expr, starts, 4.0))
    monkeypatch.setattr(quantum, "_GROUP_ENTRIES", 2 * 2 ** 11)  # two restarts per group
    drawn, drawn_at_advance = [], []
    advance = quantum._advance

    def spy(*args):
        drawn_at_advance.append(list(drawn))
        return advance(*args)

    def draw():
        for r, start in enumerate(starts):
            drawn.append(r)
            yield start

    monkeypatch.setattr(quantum, "_advance", spy)
    grouped = {}
    for i, run in quantum._seesaw_runs(expr, draw(), 4.0):
        grouped[i] = run, len(drawn)
    # the second group is not drawn before the first runs, and its runs come
    # back before the third is drawn
    assert drawn_at_advance == [[0, 1], [0, 1, 2, 3], [0, 1, 2, 3, 4]]
    assert {i: at for i, (_, at) in grouped.items()} == {0: 2, 1: 2, 2: 4, 3: 4, 4: 5}
    assert sorted(grouped) == sorted(whole) == list(range(5))
    for i, run in whole.items():  # groups of two, two and one: the same runs
        got = grouped[i][0]
        assert got.value == run.value
        assert got.sweep_values == run.sweep_values
        assert np.array_equal(got.state, run.state)
        assert got.witness == run.witness
        assert got.stop_reason == run.stop_reason


def test_seesaw_memory_does_not_grow_with_restarts():
    # only the best run is kept, and a group holds at most 256 restarts;
    # keeping every finished run peaked at 3.59 MiB for 1000 restarts
    # against 0.91 MiB for 250
    expr = builtin("CHSH")
    seesaw_lower(expr, restarts=1)  # a first call's one-time allocations stay out of the peaks
    peaks = []
    for restarts in (250, 1000):
        tracemalloc.start()
        try:
            seesaw_lower(expr, restarts=restarts)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.25 * peaks[0]


@pytest.mark.parametrize("fixed", [False, True], ids=["lower", "fixed_state"])
def test_witness_observables_are_built_once(fixed, monkeypatch):
    # starts and stopped restarts stay plain triples; only the returned witness is built
    built = []
    post_init = QubitObservable.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(QubitObservable, "__post_init__", counting)
    expr = builtin("CH")
    if fixed:
        res = seesaw_fixed_state(expr, np.full(4, 0.5, dtype=complex), restarts=20)
    else:
        res = seesaw_lower(expr, restarts=20)
    assert len(built) == 2 * expr.parties
    assert [o for pair in res.witness.observables for o in pair] == built


def test_seesaw_does_not_follow_blas_threads():
    # eigh of a 128 x 128 operator or larger gives other last bits on other
    # OpenBLAS thread counts; the see-saw's eigensolve runs on one thread
    code = """
import hashlib
import numpy as np
from bellwerner import builtin, new_expression
from bellwerner.quantum import seesaw_fixed_state, seesaw_lower
def show(parties, res):
    print(parties, [v.hex() for v in res.sweep_values], res.stop_reasons,
          hashlib.sha256(res.state.tobytes()).hexdigest(), repr(res.witness))
rng = np.random.default_rng(41)
exprs = [builtin(name) for name in ("CH", "MERMIN(3)", "MERMIN(5)")]
for m in (4, 6):
    patterns = [format(i, "b").zfill(m) for i in range(2 ** m)]
    exprs.append(new_expression(m, [(p, float(rng.standard_normal())) for p in patterns]))
for expr in exprs:
    psi = rng.standard_normal(2 ** expr.parties) + 1j * rng.standard_normal(2 ** expr.parties)
    psi /= np.linalg.norm(psi)
    for res in (seesaw_lower(expr, restarts=2), seesaw_fixed_state(expr, psi, restarts=2)):
        show(expr.parties, res)
dense = np.random.default_rng([42, 1]).standard_normal(2 ** 8)
patterns = [format(i, "b").zfill(8) for i in range(2 ** 8)]
for expr, restarts in ((builtin("MERMIN(7)"), 2), (new_expression(8, zip(patterns, dense)), 1)):
    show(expr.parties, seesaw_lower(expr, restarts=restarts))
# the fixed-state see-saw solves no eigenproblem, but its ops @ psi runs on the default thread
# count; with a random state MERMIN(7) runs every restart to the sweep cap, this expression not
rng = np.random.default_rng([42, 2])
patterns = [format(i, "b").zfill(7) for i in range(2 ** 7)]
expr = new_expression(7, [(p, float(rng.standard_normal())) for p in patterns])
psi = rng.standard_normal(2 ** 7) + 1j * rng.standard_normal(2 ** 7)
show(7, seesaw_fixed_state(expr, psi / np.linalg.norm(psi), restarts=2))
"""
    default = run_python(code)
    assert len(default.splitlines()) == 13
    assert "('bounded', 'bounded', 'converged')" in default.splitlines()[-1]
    assert run_python(code, OPENBLAS_NUM_THREADS="1") == default


def test_seesaw_restores_the_blas_thread_count(monkeypatch):
    blas = quantum._openblas_threads()
    if blas is None:
        pytest.skip("no OpenBLAS thread setter in this process")
    get, put = blas
    before = get()
    eigh = np.linalg.eigh
    inside = []

    def spy(h):
        inside.append(get())
        return eigh(h)

    def fails(h):
        raise np.linalg.LinAlgError("eigh failed")

    try:
        put(2)
        monkeypatch.setattr(np.linalg, "eigh", spy)
        seesaw_lower(builtin("MERMIN(3)"), restarts=1)
        assert get() == 2 and inside and set(inside) == {1}
        monkeypatch.setattr(np.linalg, "eigh", fails)
        with pytest.raises(np.linalg.LinAlgError):
            seesaw_lower(builtin("MERMIN(3)"), restarts=1)
        assert get() == 2
    finally:
        put(before)


def test_openblas_is_found_under_a_path_with_spaces(monkeypatch, tmp_path):
    with open("/proc/self/maps") as fh:
        lines = [ln for ln in fh if "openblas" in ln.lower() and "/" in ln]
    if not lines:
        pytest.skip("no OpenBLAS loaded in this process")
    lib = lines[0].split(maxsplit=5)[-1].strip()
    link = tmp_path / "dir with space" / os.path.basename(lib)
    link.parent.mkdir()
    link.symlink_to(lib)
    maps = lines[0].replace(lib, str(link))

    def fake_open(path, *args, **kwargs):
        return io.StringIO(maps) if path == "/proc/self/maps" else open(path, *args, **kwargs)

    monkeypatch.setattr(quantum, "open", fake_open, raising=False)
    assert len(quantum._openblas_threads.__wrapped__()) == 2


def test_concurrent_eigensolves_leave_the_blas_thread_count_as_found(monkeypatch):
    # two threads' eigensolves try to overlap; unguarded, the second saves the
    # first's 1 and restores it after the first restored 2
    count = [2]
    eigh = np.linalg.eigh
    seen, arrivals = [], itertools.count()
    overlap = threading.Barrier(2, timeout=0.5)
    first_restored = threading.Event()

    def fake_eigh(h):
        second = next(arrivals) == 1
        seen.append(count[0])
        with contextlib.suppress(threading.BrokenBarrierError):
            overlap.wait()
        if second:  # let the first caller restore its count before this one returns
            first_restored.wait(timeout=5.0)
        return eigh(h)

    def put_spy(n):
        count[0] = n
        if n != 1:
            first_restored.set()

    monkeypatch.setattr(quantum, "_openblas_threads", lambda: (lambda: count[0], put_spy))
    monkeypatch.setattr(np.linalg, "eigh", fake_eigh)
    threads = [threading.Thread(target=quantum._dominant_eig, args=(np.eye(2),))
               for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10.0)
    assert not any(thread.is_alive() for thread in threads)
    assert seen == [1, 1]
    assert count[0] == 2


def test_nonfinite_update_raises_in_its_sweep(monkeypatch):
    calls = []
    effective_pair = quantum._effective_pair

    def poisoned(*args):
        calls.append(None)
        f = effective_pair(*args)
        return f * np.nan if len(calls) == 5 else f

    monkeypatch.setattr(quantum, "_effective_pair", poisoned)
    with pytest.raises(ValueError, match="not finite"):
        seesaw_lower(builtin("MERMIN(3)"), restarts=1)
    assert len(calls) == 5  # the sweep stopped at the update that went non-finite


@pytest.mark.parametrize(
    "expr",
    [builtin("CHSH"), builtin("MERMIN(3)"), builtin("MERMIN(5)")]
    + [
        random_expression(np.random.default_rng([40, m, i]), m, max_terms=2 ** m,
                          homogeneous=True)
        for m in (2, 3, 4)
        for i in range(2)
    ],
)
def test_seesaw_reaches_ghz_equatorial_value(expr):
    assert seesaw_lower(expr, 20, 0).value >= equatorial_lower(expr) - 1e-9


def test_fixed_state_seesaw_on_maximally_entangled():
    psi = np.zeros(4, dtype=complex)
    psi[0] = psi[3] = 1 / ROOT2
    res = seesaw_fixed_state(builtin("CHSH"), psi, restarts=8, seed=0)
    assert res.value == pytest.approx(2 * ROOT2, abs=1e-3)
    assert np.array_equal(res.state, psi)


def test_fixed_state_dimension_check():
    with pytest.raises(ValueError):
        seesaw_fixed_state(builtin("CHSH"), np.ones(3) / math.sqrt(3.0))


@pytest.mark.parametrize("state", [np.zeros(8), 5 * np.ones(8), np.full(8, np.nan)])
def test_fixed_state_must_be_a_unit_vector(state, monkeypatch):
    # a zero state gave 0.0, 5 * ones 400.0 (above MERMIN's quantum maximum
    # of 4) and NaN a misleading "see-saw update is not finite"
    monkeypatch.setattr(quantum, "_advance", None)  # no sweep may run
    with pytest.raises(ValueError, match="^state must be a finite unit vector, got norm"):
        seesaw_fixed_state(builtin("MERMIN"), state)


def _ldexp(expr, k):
    return new_expression(expr.parties, [(p, math.ldexp(c, k)) for p, c in expr.terms()])


def test_seesaw_scales_exactly_with_its_expression():
    # the stop tolerances are absolute, so an expression with c1 below 1 runs
    # as its power-of-two multiple with c1 in [1, 2): 2^-k E takes E's path
    from bellwerner.werner import GhzFamily, detect_visibility

    expr = random_expression(np.random.default_rng(3), 3, max_terms=27)
    expr = _ldexp(expr, 1 - math.frexp(lhv_bound(expr).value)[1])
    assert 1.0 <= lhv_bound(expr).value < 2.0
    family = GhzFamily(3, 0.6)
    psi = family.state_vector()
    runs = (lambda e: seesaw_lower(e, restarts=3, seed=2),
            lambda e: seesaw_fixed_state(e, psi, restarts=3, seed=2))
    want = [run(expr) for run in runs]
    visibility = detect_visibility(expr, family, 2, restarts=3).visibility
    assert visibility is not None
    for k in (1, 10, 40, 1000):
        scaled = _ldexp(expr, -k)
        for a, b in zip(want, (run(scaled) for run in runs)):
            assert b.value == math.ldexp(a.value, -k)
            assert b.sweep_values == tuple(math.ldexp(v, -k) for v in a.sweep_values)
            assert b.classical.value == math.ldexp(a.classical.value, -k)
            assert b.witness == a.witness and np.array_equal(b.state, a.state)
            assert (b.restart_index, b.stop_reasons, b.sweeps) == (
                a.restart_index, a.stop_reasons, a.sweeps
            )
        assert detect_visibility(scaled, family, 2, restarts=3).visibility == visibility



def test_composite_ratio():
    assert composite_ratio_upper([]) == 1.0
    assert composite_ratio_upper([4 / 3, 4.0]) == pytest.approx(
        1.0 + math.sqrt(3.0), abs=1e-12
    )
    assert composite_ratio_upper([1.0, math.inf]) == pytest.approx(
        1.0 + math.sqrt(3.0), abs=1e-12
    )
    with pytest.raises(ValueError):
        composite_ratio_upper([0.0])
    with pytest.raises(ValueError):
        composite_ratio_upper([-2.0])


def test_analytic_uppers():
    uppers = analytic_quantum_upper(builtin("CHSH"))
    assert uppers.general == pytest.approx(2 * math.sqrt(3.0), abs=1e-12)
    assert uppers.anticommuting == pytest.approx(2 * math.sqrt(2.5), abs=1e-12)
    assert uppers.anticommuting < uppers.general
    with pytest.raises(ValueError):
        analytic_quantum_upper(builtin("CH"))


@pytest.mark.parametrize("solve", [
    lambda expr: seesaw_lower(expr, restarts=1),
    lambda expr: seesaw_fixed_state(expr, np.eye(2**9)[0], restarts=1),
], ids=["seesaw_lower", "seesaw_fixed_state"])
def test_seesaw_states_the_operator_cap(solve):
    with pytest.raises(CapExceeded, match=r"^parties for a 2\^m x 2\^m operator: 9 exceeds"):
        solve(builtin("MERMIN(9)"))
