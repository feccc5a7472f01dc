"""Quantum bounds: analytic upper bounds and a see-saw lower-bound search.

Upper bounds come in two analytic flavors for full-correlation expressions
(factor sqrt(3) for general single-qubit observables, sqrt(5/2) for
anticommuting ones, both applied to the closed-form classical value) plus a
composite bound assembled from block ratios.

Lower bounds come from a see-saw: alternate between the optimal state of the
current Bell operator and, party by party, the optimal pair of observables
given everyone else.  Each observable is a norm-at-most-one Hermitian qubit
operator A = ((l+ + l-)/2) I + ((l+ - l-)/2) n.sigma; for a fixed state the
best A for a party/setting is available in closed form (sign decomposition of
the effective 2x2 operator), so sweeps are exact coordinate ascent and the
objective is nondecreasing by construction.

Each sweep refreshes the state with a dense Hermitian eigensolve
(np.linalg.eigh) of the current operator, at most 256 x 256 under the
8-party cap; the extreme eigenpair of larger magnitude gives the objective.
Every restart records why it stopped: "max_sweeps" when it reaches the fixed
cap of 500 sweeps (_MAX_SWEEPS); once a sweep gains less than the fixed
tolerance 1e-9 (_TOL), "stalled" when the last two gains shrink too slowly
for the remaining geometric tail to stay under _TOL, else "converged".

Cost model.  An expression is held once as a (3,)*m coefficient tensor C
(slot 0 for "_", 1 for "0", 2 for "1") and each party's observables as a
stack [I, A_0, A_1].  The Bell operator is C contracted with every stack,
one (size/3, 3) x (3, 4) matmul of the partial result per party, O(4^m)
work whatever the number of terms.  Party j's effective operators, for
both settings at once, come from one contraction that skips party j, from
a layout of C with slot j last built once per restart, and two O(4^m)
products with the state.  Inside a restart observables are plain (axis,
eig_plus, eig_minus) numbers and stacks use QubitObservable.matrix()'s
arithmetic; QubitObservable objects are built for the witness only.  A
sweep is thus O(m 4^m) in about m^2 NumPy calls plus one O(8^m) eigensolve,
which dominates from about six parties on.  Diagonal +-1 observables, such
as the classical warm start, give a diagonal operator of strategy values,
summed term by term in O(terms 2^m) like the classical bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple, Optional, Sequence

import numpy as np

from ._workers import ordered_map
from .classical import MAX_PARTIES, _ordered_values, closed_form_classical, lhv_bound
from .errors import check_cap
from .expressions import BellExpression, coefficient_tensor, term_slots

DEFAULT_RESTARTS = 20
_TOL = 1e-9
_MAX_SWEEPS = 500
_OPERATOR = "parties for a 2^m x 2^m operator"

_IDENTITY = [[1.0, 0.0], [0.0, 1.0]]


def _sign(x: float) -> float:
    return 1.0 if x >= 0.0 else -1.0


@dataclass(frozen=True)
class QubitObservable:
    """Hermitian qubit observable with operator norm at most one.

    Parametrized by a Bloch axis and the eigenvalue pair (eig_plus for the
    +axis eigenvector, eig_minus for the -axis one), both in [-1, 1].
    """

    axis: tuple[float, float, float]
    eig_plus: float
    eig_minus: float

    def __post_init__(self):
        ax = tuple(float(v) for v in self.axis)
        if len(ax) != 3 or not all(math.isfinite(v) for v in ax):
            raise ValueError("axis must be a finite 3-vector")
        norm = math.sqrt(sum(v * v for v in ax))
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"axis must be a unit vector, got norm {norm!r}")
        for eig in (self.eig_plus, self.eig_minus):
            if not math.isfinite(eig) or abs(eig) > 1.0 + 1e-12:
                raise ValueError(f"eigenvalues must lie in [-1, 1], got {eig!r}")
        object.__setattr__(self, "axis", ax)
        object.__setattr__(self, "eig_plus", float(self.eig_plus))
        object.__setattr__(self, "eig_minus", float(self.eig_minus))

    @classmethod
    def projective(cls, axis) -> "QubitObservable":
        """The +-1-outcome observable n.sigma along the given axis."""
        return cls(tuple(axis), 1.0, -1.0)

    @classmethod
    def constant(cls, value: float) -> "QubitObservable":
        """A multiple of the identity (a deterministic assignment)."""
        return cls((0.0, 0.0, 1.0), value, value)

    def matrix(self) -> np.ndarray:
        return np.array(_entries(self.axis, self.eig_plus, self.eig_minus), dtype=complex)


def _entries(axis, eig_plus: float, eig_minus: float) -> list:
    """The 2x2 entries of ((l+ + l-)/2) I + ((l+ - l-)/2) n.sigma, as Python numbers."""
    nx, ny, nz = axis
    a0 = (eig_plus + eig_minus) / 2.0
    h = (eig_plus - eig_minus) / 2.0
    return [[a0 + h * nz, h * (nx - 1j * ny)], [h * (nx + 1j * ny), a0 - h * nz]]


@dataclass(frozen=True)
class ObservableAssignment:
    """Per party, the pair of observables used for settings 0 and 1."""

    observables: tuple[tuple[QubitObservable, QubitObservable], ...]

    def __post_init__(self):
        obs = tuple(tuple(pair) for pair in self.observables)
        if not obs:
            raise ValueError("assignment needs at least one party")
        for pair in obs:
            if len(pair) != 2 or not all(isinstance(o, QubitObservable) for o in pair):
                raise ValueError("each party needs exactly two observables")
        object.__setattr__(self, "observables", obs)

    @property
    def parties(self) -> int:
        return len(self.observables)


class AnalyticUppers(NamedTuple):
    general: float
    anticommuting: float


@dataclass(frozen=True, eq=False)
class SeesawResult:
    """The best restart's value, witness, state and sweep trace.

    stop_reasons has one entry per restart, the classical warm start last:
    "converged", "stalled" or "max_sweeps", as the module docstring defines them.
    """

    value: float
    witness: ObservableAssignment
    state: np.ndarray
    sweep_values: tuple[float, ...]
    restart_index: int
    stop_reasons: tuple[str, ...]


def analytic_quantum_upper(expr: BellExpression) -> AnalyticUppers:
    """(sqrt(3), sqrt(5/2)) multiples of the closed-form classical value.

    Only full-correlation expressions qualify; closed_form_classical raises
    otherwise.
    """
    cf = closed_form_classical(expr)
    return AnalyticUppers(math.sqrt(3.0) * cf, math.sqrt(2.5) * cf)


def composite_ratio_upper(gammas: Sequence[float]) -> float:
    """sqrt(3) * sum(1/gamma) + 1 over the supplied block ratios.

    Infinite entries contribute zero; an empty list gives the homogeneous
    limit 1.
    """
    return math.sqrt(3.0) * _sum_inverse_gammas(gammas) + 1.0


def _sum_inverse_gammas(gammas: Sequence[float]) -> float:
    """sum(1/gamma) over positive ratios, infinite ones contributing zero."""
    total = 0.0
    for g in gammas:
        if not g > 0.0:
            raise ValueError(f"ratios must be positive, got {g!r}")
        total += 0.0 if math.isinf(g) else 1.0 / g
    return total


def _coefficient_tensor(expr: BellExpression) -> np.ndarray:
    """The expression as a complex (3,)*m tensor: slot 0 is "_", 1 is "0", 2 is "1"."""
    return coefficient_tensor(expr, complex)


def _stack(pair: Sequence[tuple]) -> np.ndarray:
    """The (3, 2, 2) stack [I, A_0, A_1] of a party's two (axis, eig_plus, eig_minus)."""
    return np.array([_IDENTITY, _entries(*pair[0]), _entries(*pair[1])], dtype=complex)


def _contract(coeffs: np.ndarray, stacks: Sequence[np.ndarray]) -> np.ndarray:
    """sum over s of coeffs[s] * kron_k stacks[k][s_k], one matmul per party.

    The leading len(stacks) axes of coeffs are contracted, party 0 first, so
    party 0 is the most significant qubit as in np.kron.  Any further axes
    of coeffs stay as leading batch axes of the (..., out, in) result.
    """
    t = coeffs
    for s in stacks:
        t = t.reshape(3, -1).T @ s.reshape(3, 4)
    t = t.reshape(coeffs.shape[len(stacks):] + (2, 2) * len(stacks))
    batch = t.ndim - 2 * len(stacks)
    perm = [*range(batch), *range(batch, t.ndim, 2), *range(batch + 1, t.ndim, 2)]
    dim = 2 ** len(stacks)
    return t.transpose(perm).reshape(t.shape[:batch] + (dim, dim))


def _classical_diagonal(expr: BellExpression, outcomes: np.ndarray) -> np.ndarray:
    """The Bell operator's diagonal when every observable is diagonal with +-1 entries.

    outcomes[k, x, bit] is party k's entry for setting x at that bit, so each
    basis state is a deterministic strategy; its value is the classical
    bound's term-ordered sum, bit for bit.
    """
    m = expr.parties
    bits = (np.arange(2 ** m) >> np.arange(m - 1, -1, -1)[:, None]) & 1
    codes = np.zeros(2 ** m, dtype=np.int64)
    for k in range(m):
        for x in range(2):
            codes |= (outcomes[k, x, bits[k]] < 0).astype(np.int64) << (2 * k + x)
    return _ordered_values(*term_slots(expr), codes)


def _bell_matrix(
    expr: BellExpression, coeffs: np.ndarray, stacks: Sequence[np.ndarray]
) -> np.ndarray:
    """The Bell operator for the per-party stacks, exactly Hermitian.

    Observables that are all diagonal with +-1 entries commute, and the
    operator is the diagonal of deterministic strategy values, summed as the
    classical bound sums them: the see-saw's classical warm start then sits
    at the classical bound exactly, not one rounding below it.  Otherwise
    the contraction, symmetrised so that no BLAS summation order breaks
    Hermiticity.
    """
    if not any(s[1:, 0, 1].any() for s in stacks):
        outcomes = np.array([s[1:, [0, 1], [0, 1]] for s in stacks])
        if np.all(np.abs(outcomes) == 1.0):
            return np.diag(_classical_diagonal(expr, outcomes.real)).astype(complex)
    b = _contract(coeffs, stacks)
    return (b + b.conj().T) / 2.0


def bell_operator(expr: BellExpression, obs: ObservableAssignment) -> np.ndarray:
    """The 2^m x 2^m operator sum of coeff * tensor products of observables.

    Absent parties contribute identity factors.  The result is exactly
    Hermitian; for diagonal +-1 observables its diagonal holds the
    strategy values exactly as the classical bound computes them.
    """
    if obs.parties != expr.parties:
        raise ValueError(
            f"assignment has {obs.parties} parties, expression has {expr.parties}"
        )
    check_cap(_OPERATOR, expr.parties, MAX_PARTIES)
    pairs = [[(o.axis, o.eig_plus, o.eig_minus) for o in pair] for pair in obs.observables]
    return _bell_matrix(expr, _coefficient_tensor(expr), [_stack(pair) for pair in pairs])


def _validate_hermitian(matrix: np.ndarray) -> np.ndarray:
    h = np.asarray(matrix, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    scale = max(1.0, float(np.abs(h).max()) if h.size else 1.0)
    if float(np.abs(h - h.conj().T).max()) > 1e-12 * scale:
        raise ValueError("matrix is not Hermitian")
    return h


def _dominant_eig(h: np.ndarray) -> tuple[float, np.ndarray]:
    """Signed eigenvalue of largest magnitude and its eigenvector.

    A tie in magnitude goes to the largest eigenvalue.
    """
    w, v = np.linalg.eigh(_validate_hermitian(h))
    if abs(w[-1]) >= abs(w[0]):
        return float(w[-1]), v[:, -1]
    return float(w[0]), v[:, 0]


def _effective_pair(
    layout: np.ndarray, stacks: list[np.ndarray], j: int, psi: np.ndarray
) -> np.ndarray:
    """F_{j,0}, F_{j,1}: Tr(A F_{j,x}) is the part of <psi|B|psi> linear in A_{j,x}.

    layout is the coefficient tensor with slot j moved last and its "_"
    entry dropped.  One contraction over every party but j gives D_{j,x}, the
    terms with party j at setting x and an identity in slot j; then
    F_{j,x}[p, q] = <psi_q|D_{j,x}|psi_p> with psi_p the state at slot j = p.
    Neither depends on party j's own observables.
    """
    d = _contract(layout, stacks[:j] + stacks[j + 1:])
    slices = psi.reshape(2 ** j, 2, -1).swapaxes(1, 2).reshape(-1, 2)
    g = slices.conj().T @ d @ slices  # g[x, q, p] = F_{j,x}[p, q]
    return (g.swapaxes(1, 2) + g.conj()) / 2.0


def _optimal_observable(f: list, axis: tuple) -> tuple:
    """(axis, eig_plus, eig_minus) maximizing Tr(A F) over norm-at-most-one observables.

    F is a 2x2 nested list.  Decompose F = f0 I + fvec.sigma; the maximizer
    aligns the axis with fvec and picks each eigenvalue as the sign of
    f0 +- |fvec|.  A vanishing fvec leaves the axis free; keep the given one.
    """
    (f00, _), (f10, f11) = f
    f0 = (f00.real + f11.real) / 2.0
    fx, fy, fz = f10.real, f10.imag, (f00.real - f11.real) / 2.0
    norm = math.sqrt(fx * fx + fy * fy + fz * fz)
    if norm < 1e-14:
        return axis, _sign(f0), _sign(f0)
    if not math.isfinite(norm):
        raise ValueError("see-saw update is not finite")
    return (fx / norm, fy / norm, fz / norm), _sign(f0 + norm), _sign(f0 - norm)


def _stop_label(values: list[float]) -> str:
    """Stop label: "stalled" if the last two gains are positive and, with r =
    last / previous, r >= 1 or last * r / (1 - r) > _TOL; else "converged"."""
    if len(values) < 3 or not values[-1] > values[-2] > values[-3]:
        return "converged"
    last = values[-1] - values[-2]
    r = last / (values[-2] - values[-3])
    return "stalled" if r >= 1.0 or last * r / (1.0 - r) > _TOL else "converged"


class _Run(NamedTuple):
    value: float
    witness: ObservableAssignment
    state: np.ndarray
    sweep_values: tuple[float, ...]
    stop_reason: str


def _seesaw_run(
    expr: BellExpression,
    initial: ObservableAssignment,
    fixed_state: Optional[np.ndarray] = None,
) -> _Run:
    """Coordinate-ascent sweeps from one starting assignment.

    With fixed_state the objective is |<psi|B|psi>| for that state, which is
    also the returned state; otherwise the state is refreshed each sweep to
    the extreme eigenvector of the current operator and the objective is the
    spectral radius.  Sweeps stop once one gains less than _TOL, or after
    _MAX_SWEEPS of them; both are read at call time.
    """
    m = expr.parties
    coeffs = _coefficient_tensor(expr)
    layouts = [np.ascontiguousarray(np.moveaxis(coeffs, j, -1)[..., 1:]) for j in range(m)]
    obs = [[(o.axis, o.eig_plus, o.eig_minus) for o in pair] for pair in initial.observables]
    stacks = [_stack(pair) for pair in obs]

    if fixed_state is not None:
        state = np.asarray(fixed_state, dtype=complex).reshape(-1)
        if state.shape[0] != 2 ** m:
            raise ValueError(f"state must have dimension 2^{m}")
        signed = float(np.vdot(state, _bell_matrix(expr, coeffs, stacks) @ state).real)
    else:
        signed, state = _dominant_eig(_bell_matrix(expr, coeffs, stacks))
    value = abs(signed)
    sign = _sign(signed)
    sweep_values = [value]
    stop_reason = "max_sweeps"

    for _ in range(_MAX_SWEEPS):
        for j in range(m):
            f = (sign * _effective_pair(layouts[j], stacks, j, state)).tolist()
            obs[j] = [_optimal_observable(f[x], obs[j][x][0]) for x in (0, 1)]
            stacks[j] = _stack(obs[j])
        op = _bell_matrix(expr, coeffs, stacks)
        if fixed_state is not None:
            signed = float(np.vdot(state, op @ state).real)
        else:
            signed, state = _dominant_eig(op)
        new_value = abs(signed)
        if new_value < value - 1e-9 * max(1.0, value):
            raise RuntimeError(
                "see-saw objective decreased; eigensolver or update fault"
            )
        sign = _sign(signed)
        sweep_values.append(new_value)
        improvement = new_value - value
        value = new_value
        if improvement < _TOL:
            stop_reason = _stop_label(sweep_values)
            break

    witness = tuple(tuple(QubitObservable(*o) for o in pair) for pair in obs)
    return _Run(value, ObservableAssignment(witness), state, tuple(sweep_values), stop_reason)


def _random_assignment(parties: int, rng: np.random.Generator) -> ObservableAssignment:
    pairs = []
    for _ in range(parties):
        settings = []
        for _ in range(2):
            vec = rng.standard_normal(3)
            while np.linalg.norm(vec) < 1e-9:
                vec = rng.standard_normal(3)
            vec = vec / np.linalg.norm(vec)
            settings.append(QubitObservable.projective(tuple(vec)))
        pairs.append(tuple(settings))
    return ObservableAssignment(tuple(pairs))


def _witness_assignment(expr: BellExpression) -> ObservableAssignment:
    """Commuting warm start: the best deterministic strategy as identity multiples.

    Its operator is (strategy value) times identity, so the first sweep already
    attains the classical bound and ascent can only improve on it.
    """
    strategy = lhv_bound(expr).witness
    pairs = tuple(
        (QubitObservable.constant(float(a0)), QubitObservable.constant(float(a1)))
        for a0, a1 in strategy.assignments
    )
    return ObservableAssignment(pairs)


def _best_of_restarts(
    expr: BellExpression,
    restarts: int,
    seed: int,
    threads: Optional[int],
    fixed_state: Optional[np.ndarray] = None,
) -> SeesawResult:
    """The restart loop shared by seesaw_lower and seesaw_fixed_state."""
    if len(expr) == 0:
        raise ValueError("zero expression has no quantum bound")
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    check_cap(_OPERATOR, expr.parties, MAX_PARTIES)

    starts = [
        _random_assignment(expr.parties, np.random.default_rng([seed, r]))
        for r in range(restarts)
    ]
    starts.append(_witness_assignment(expr))
    sweep_from = partial(_seesaw_run, expr, fixed_state=fixed_state)
    runs = ordered_map(sweep_from, starts, threads)
    # max() keeps the first of equal values, which is the lowest index
    best = max(range(len(runs)), key=lambda idx: runs[idx].value)
    return SeesawResult(
        value=runs[best].value,
        witness=runs[best].witness,
        state=runs[best].state,
        sweep_values=runs[best].sweep_values,
        restart_index=best,
        stop_reasons=tuple(run.stop_reason for run in runs),
    )


def seesaw_lower(
    expr: BellExpression,
    restarts: int = DEFAULT_RESTARTS,
    seed: int = 0,
    *,
    threads: Optional[int] = None,
) -> SeesawResult:
    """Best see-saw value over seeded random restarts plus a classical warm start.

    Restart r draws its starting axes from a substream keyed by (seed, r), so
    results do not depend on worker count or execution order; ties go to the
    lowest restart index.  The warm start runs last and guarantees
    value >= classical bound.  The state is the extreme eigenvector of the
    best restart's final operator.
    """
    return _best_of_restarts(expr, restarts, seed, threads)


def seesaw_fixed_state(
    expr: BellExpression,
    state: np.ndarray,
    restarts: int = DEFAULT_RESTARTS,
    seed: int = 0,
    *,
    threads: Optional[int] = None,
) -> SeesawResult:
    """Best |<psi|B|psi>| over assignments for a fixed pure state.

    Same restart discipline as seesaw_lower; the warm start pins the result at
    or above the classical bound for any state.
    """
    return _best_of_restarts(expr, restarts, seed, threads, fixed_state=state)
