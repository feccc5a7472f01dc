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
An operator that is not finite raises ValueError.  A restart
stops as "converged" or "stalled" once a sweep gains less than 1e-9 (_TOL):
stalled when the last two gains shrink too slowly for the geometric tail
to stay under _TOL.  It stops as "bounded" (_bounded) once its gains show
it cannot beat the classical bound c1, known before any restart runs, and
as "max_sweeps" at the fixed cap of 500 sweeps (_MAX_SWEEPS).  These
thresholds and the 1e-14 test for a vanishing axis are absolute, so with
c1 below 1 the restarts run on the expression times the power of two 2^e
that puts c1 in [1, 2), exact for finite coefficients, and the values
they return are scaled back by 2^-e.

Cost model.  An expression is held once as a (3,)*m coefficient tensor C
(slot 0 for "_", 1 for "0", 2 for "1"), and each party's observables as a
stack [I, A_0, A_1] per restart.  The R restarts of a group advance as
stacks: C contracted with every party's stacks, one stacked (size/3, 3) x
(3, 4) matmul per party, gives all R operators in O(R 4^m) whatever the
number of terms, and one np.linalg.eigh solves them.  Party j's effective
operators come from one contraction that skips party j, from a layout of
C with slot j last built once per call, and two products with the states.
A sweep is thus about m^2 NumPy calls for all R restarts plus R O(8^m)
eigensolves, which dominate from about six parties on.  Stacked matmul and
eigh on one OpenBLAS thread (_openblas_threads) give each restart the floats
it would get alone; a restart leaves the stack when it stops.  Observables
are plain (axis, eig_plus, eig_minus) triples from the drawn start on; only
the best restart's 2m become QubitObservable objects, for the witness.
Diagonal +-1 observables, such as the classical warm start, give a diagonal
operator of strategy values, summed term by term like the classical bound.
A group takes max(1, _GROUP_ENTRIES // 4^m) restarts: all 21 default
restarts up to seven parties, 8 at the cap, each restart peaking at about
two complex 2^m x 2^m matrices (10.97 MiB for MERMIN(7) at 21 restarts).
Starts are drawn one group at a time; runs return in start order.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .classical import (
    MAX_PARTIES, ClassicalBoundResult, _outcome_values, closed_form_classical, lhv_bound
)
from .errors import check_cap
from .expressions import BellExpression, coefficient_tensor, term_slots

DEFAULT_RESTARTS = 20
_TOL = 1e-9
_NORM_TOL = 1e-12  # how far a unit vector's norm may stray from 1
_MAX_SWEEPS = 500
_BOUNDED_AFTER = 10  # sweeps a restart runs before the "bounded" stop may end it
_GROUP_ENTRIES = 2 ** 19  # a group's restarts times 4^m, the entries of a 2^m x 2^m matrix
_OPERATOR = "parties for a 2^m x 2^m operator"
_BLAS_THREADS = ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
                 "openblas_{}_num_threads")  # OpenBLAS thread-count functions, {} get or set

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
        if abs(norm - 1.0) > _NORM_TOL:
            raise ValueError(f"axis must be a unit vector, got norm {norm!r}")
        for eig in (self.eig_plus, self.eig_minus):
            if not math.isfinite(eig) or abs(eig) > 1.0 + 1e-12:
                raise ValueError(f"eigenvalues must lie in [-1, 1], got {eig!r}")
        object.__setattr__(self, "axis", ax)
        object.__setattr__(self, "eig_plus", float(self.eig_plus))
        object.__setattr__(self, "eig_minus", float(self.eig_minus))


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

    stop_reasons and sweeps have one entry per restart, the classical warm
    start last: why it stopped ("converged", "stalled", "bounded" or
    "max_sweeps", as the module docstring defines them) and how many sweeps
    it ran.  classical is the classical bound c1, computed once per call.
    """

    value: float
    witness: ObservableAssignment
    state: np.ndarray
    sweep_values: tuple[float, ...]
    restart_index: int
    stop_reasons: tuple[str, ...]
    sweeps: tuple[int, ...]
    classical: ClassicalBoundResult


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


def _stacks(pairs: Sequence[Sequence[tuple]]) -> np.ndarray:
    """The (R, 3, 2, 2) stacks [I, A_0, A_1] of R pairs of (axis, eig_plus, eig_minus)."""
    return np.array(
        [[_IDENTITY, _entries(*pair[0]), _entries(*pair[1])] for pair in pairs], dtype=complex
    )


def _contract(coeffs: np.ndarray, stacks: Sequence[np.ndarray]) -> np.ndarray:
    """Per restart, sum over s of coeffs[s] * kron_k stacks[k][s_k]; one matmul per party.

    stacks[k] holds party k's (R, 3, 2, 2) stacks for R restarts.  The
    leading len(stacks) axes of coeffs are contracted, party 0 first, so
    party 0 is the most significant qubit as in np.kron.  Any further axes
    of coeffs stay as batch axes after the restart axis of the
    (R, ..., out, in) result; with no stacks that restart axis has size 1.
    """
    t = coeffs[np.newaxis]
    for s in stacks:
        t = t.reshape(len(t), 3, -1).swapaxes(1, 2) @ s.reshape(-1, 3, 4)
    t = t.reshape(t.shape[:1] + coeffs.shape[len(stacks):] + (2, 2) * len(stacks))
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
    bits = (np.arange(2 ** m) >> np.arange(m - 1, -1, -1)[:, None]) & 1  # party 0 the leading bit
    return _outcome_values(expr, outcomes[np.arange(m)[:, None], :, bits].swapaxes(0, 1))


def _bell_matrix(expr: BellExpression, coeffs: np.ndarray, stacks: Sequence) -> np.ndarray:
    """The (R, 2^m, 2^m) Bell operators of the per-party stacks, each exactly Hermitian.

    A restart whose observables are all diagonal with +-1 entries has
    commuting observables, and its operator is the diagonal of
    deterministic strategy values, summed as the classical bound sums them:
    the see-saw's classical warm start then sits at the classical bound
    exactly, not one rounding below it.  Otherwise the contraction,
    symmetrised so that no BLAS summation order breaks Hermiticity.
    """
    b = _contract(coeffs, stacks)
    b += b.conj().swapaxes(-1, -2)
    b /= 2.0
    flat = np.stack(stacks, axis=1).reshape(len(b), len(stacks), 3, 4)
    outcomes = flat[:, :, 1:, [0, 3]]  # outcomes[r, k, x, bit]
    diagonal = ~flat[:, :, 1:, 1].any(axis=(1, 2)) & (np.abs(outcomes) == 1.0).all(axis=(1, 2, 3))
    for r in np.flatnonzero(diagonal):
        b[r] = np.diag(_classical_diagonal(expr, outcomes[r].real))
    return b


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
    stacks = [_stacks([[(o.axis, o.eig_plus, o.eig_minus) for o in p]]) for p in obs.observables]
    return _bell_matrix(expr, coefficient_tensor(expr, complex), stacks)[0]


def _finite(h: np.ndarray) -> np.ndarray:
    """h, or ValueError if an entry is NaN or infinite (an expression that overflows)."""
    if not np.isfinite(h).all():
        raise ValueError("matrix has non-finite entries")
    return h


@functools.cache
def _openblas_threads() -> Optional[tuple]:
    """(get, set) of this process's OpenBLAS thread count by ctypes, found once; else None."""
    with contextlib.suppress(OSError), open("/proc/self/maps") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln})
        for lib, name in itertools.product(libs, _BLAS_THREADS):
            with contextlib.suppress(AttributeError, OSError):
                get, put = (getattr(ctypes.CDLL(lib), name.format(verb)) for verb in ("get", "set"))
                get.restype, put.argtypes, put.restype = ctypes.c_int, [ctypes.c_int], None
                return get, put


def _dominant_eig(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Signed eigenvalues of largest magnitude and their eigenvectors.

    One np.linalg.eigh serves a matrix or a (R, n, n) stack, reading one
    triangle: the operators come from _bell_matrix, exactly Hermitian by
    construction, so only finiteness is checked.  A tie in magnitude goes
    to the largest eigenvalue.  eigh runs on one OpenBLAS thread if it can.
    """
    get, put = _openblas_threads() or (lambda: None, lambda threads: None)
    threads, _ = get(), put(1)
    try:
        w, v = np.linalg.eigh(_finite(h))
    finally:
        put(threads)
    top = np.abs(w[..., -1]) >= np.abs(w[..., 0])
    return np.where(top, w[..., -1], w[..., 0]), np.where(top[..., None], v[..., -1], v[..., 0])


def _effective_pair(layout: np.ndarray, stacks: list, j: int, states: np.ndarray) -> np.ndarray:
    """(R, 2, 2, 2) F_{j,x}: Tr(A F_{j,x}) is the part of <psi|B|psi> linear in A_{j,x}.

    layout is the coefficient tensor with slot j moved last and its "_"
    entry dropped; states holds one state per restart.  One contraction over
    every party but j gives D_{j,x}, the terms with party j at setting x and
    an identity in slot j; then F_{j,x}[p, q] = <psi_q|D_{j,x}|psi_p> with
    psi_p the state at slot j = p.  Neither depends on party j's own
    observables.
    """
    d = _contract(layout, stacks[:j] + stacks[j + 1:])
    slices = states.reshape(len(states), 2 ** j, 2, -1).swapaxes(2, 3).reshape(len(states), -1, 2)
    g = slices.conj().swapaxes(1, 2)[:, None] @ d @ slices[:, None]  # g[r, x, q, p] = F[p, q]
    return (g.swapaxes(-1, -2) + g.conj()) / 2.0


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


def _bounded(values: list[float], c1: float) -> bool:
    """Stop as "bounded": after _BOUNDED_AFTER sweeps or more, the last three
    gains are positive, their ratios r0 then r agree to within 0.1 r0 with
    r < 1, and the geometric limit v + last * r / (1 - r) is <= c1 + _TOL."""
    if len(values) <= _BOUNDED_AFTER or not values[-1] > values[-2] > values[-3] > values[-4]:
        return False
    last, middle = values[-1] - values[-2], values[-2] - values[-3]
    r0, r = middle / (values[-3] - values[-4]), last / middle
    return r < 1.0 and abs(r - r0) <= 0.1 * r0 and values[-1] + last * r / (1.0 - r) <= c1 + _TOL


class _Run(NamedTuple):
    value: float
    witness: list  # per party, two (axis, eig_plus, eig_minus) triples
    state: np.ndarray
    sweep_values: tuple[float, ...]
    stop_reason: str


def _objective(expr, coeffs, stacks, psi) -> tuple[list, np.ndarray]:
    """Each restart's signed objective and state: the extreme eigenpair, or <psi|B|psi>."""
    ops = _bell_matrix(expr, coeffs, stacks)
    if psi is None:
        signed, states = _dominant_eig(ops)
        return signed.tolist(), states
    applied = _finite(ops) @ psi
    return [float(np.vdot(psi, row).real) for row in applied], np.broadcast_to(psi, applied.shape)


def _seesaw_runs(
    expr: BellExpression, starts: Iterable, c1: float, fixed_state: Optional[np.ndarray] = None
) -> list[_Run]:
    """One run per start (per party, a pair of triples), in start order.

    With fixed_state the objective is |<psi|B|psi>| for that state, which is
    also the returned state; otherwise the state is refreshed each sweep to
    the extreme eigenvector of the current operator and the objective is the
    spectral radius.  c1 is the classical bound that "bounded" compares
    with; _MAX_SWEEPS and _GROUP_ENTRIES are read at call time.
    """
    m = expr.parties
    psi = None if fixed_state is None else np.asarray(fixed_state, dtype=complex).reshape(-1)
    if psi is not None and psi.shape[0] != 2 ** m:
        raise ValueError(f"state must have dimension 2^{m}")
    norm = 1.0 if psi is None else float(np.linalg.norm(psi))
    if not abs(norm - 1.0) <= _NORM_TOL:  # a NaN or infinite norm fails this too
        raise ValueError(f"state must be a finite unit vector, got norm {norm!r}")
    coeffs = coefficient_tensor(expr, complex)
    layouts = [np.ascontiguousarray(np.moveaxis(coeffs, j, -1)[..., 1:]) for j in range(m)]
    size = max(1, _GROUP_ENTRIES // 4 ** m)
    starts, runs = iter(starts), []
    while group := [list(start) for start in itertools.islice(starts, size)]:
        runs += _advance(expr, coeffs, layouts, group, c1, psi)
    return runs


def _advance(expr, coeffs, layouts, obs, c1, psi) -> list[_Run]:
    """Sweeps of one group, obs[r] being restart r's observables, as stacks; runs in order."""
    m = expr.parties
    active = list(range(len(obs)))
    runs = [None] * len(obs)
    stacks = [_stacks([pairs[j] for pairs in obs]) for j in range(m)]
    signed, states = _objective(expr, coeffs, stacks, psi)
    values = [[abs(s)] for s in signed]

    def stop(i: int, reason: str) -> None:
        state = states[i] if psi is None else psi
        runs[active[i]] = _Run(values[i][-1], obs[active[i]], state, tuple(values[i]), reason)

    for _ in range(_MAX_SWEEPS):
        sign = np.array([_sign(s) for s in signed])[:, None, None, None]
        for j in range(m):
            f = (sign * _effective_pair(layouts[j], stacks, j, states)).tolist()
            for i, r in enumerate(active):
                obs[r][j] = [_optimal_observable(f[i][x], obs[r][j][x][0]) for x in (0, 1)]
            stacks[j] = _stacks([obs[r][j] for r in active])
        signed, states = _objective(expr, coeffs, stacks, psi)
        keep = []
        for i, s in enumerate(signed):
            value = values[i][-1]
            values[i].append(abs(s))
            if abs(s) < value - 1e-9 * max(1.0, value):
                raise RuntimeError("see-saw objective decreased; eigensolver or update fault")
            if abs(s) - value < _TOL:
                stop(i, _stop_label(values[i]))
            elif _bounded(values[i], c1):
                stop(i, "bounded")
            else:
                keep.append(i)
        if not keep:
            return runs
        if len(keep) < len(active):  # the stopped restarts leave the stack
            stacks, states = [s[keep] for s in stacks], states[keep]
            signed, values = [signed[i] for i in keep], [values[i] for i in keep]
            active = [active[i] for i in keep]
    for i in range(len(active)):
        stop(i, "max_sweeps")
    return runs


def _random_assignment(parties: int, rng: np.random.Generator) -> list:
    """Per party, two projective triples (axis, 1.0, -1.0) along standard
    normal draws, each redrawn while its norm is below 1e-9."""
    triples = []
    while len(triples) < 2 * parties:
        vec = rng.standard_normal(3)
        norm = np.linalg.norm(vec)
        if norm >= 1e-9:
            triples.append((tuple((vec / norm).tolist()), 1.0, -1.0))
    return [triples[k:k + 2] for k in range(0, 2 * parties, 2)]


def _witness_assignment(outcome: ClassicalBoundResult) -> list:
    """The commuting warm start: the classical witness strategy as identity
    multiples (triples with equal eigenvalues), whose operator is c1 times identity."""
    return [[((0.0, 0.0, 1.0), float(a), float(a)) for a in pair]
            for pair in outcome.witness.assignments]


def _best_of_restarts(
    expr: BellExpression, restarts: int, seed: int, fixed_state: Optional[np.ndarray] = None
) -> SeesawResult:
    """The restart loop shared by seesaw_lower and seesaw_fixed_state."""
    # rejects a zero expression and checks the party cap before anything is allocated
    classical = lhv_bound(expr)
    if restarts < 1:
        raise ValueError("restarts must be at least 1")

    # the stop tests are absolute, so a c1 below 1 runs at 2^e c1 in [1, 2)
    e = 0 if classical.value >= 1.0 else 1 - math.frexp(classical.value)[1]
    slots, coeffs = term_slots(expr)
    scaled = BellExpression(expr.parties, slots, np.ldexp(coeffs, e))
    randoms = (_random_assignment(expr.parties, np.random.default_rng([seed, r]))
               for r in range(restarts))
    starts = itertools.chain(randoms, [_witness_assignment(classical)])
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite sweeps raise ValueError
        runs = _seesaw_runs(scaled, starts, math.ldexp(classical.value, e), fixed_state)
    idx, run = max(enumerate(runs), key=lambda item: (item[1].value, -item[0]))  # ties: lowest
    reasons = tuple(r.stop_reason for r in runs)
    sweeps = tuple(len(r.sweep_values) - 1 for r in runs)
    witness = ObservableAssignment(
        tuple(tuple(QubitObservable(*o) for o in pair) for pair in run.witness)
    )
    values = tuple(math.ldexp(v, -e) for v in run.sweep_values)
    return SeesawResult(values[-1], witness, run.state, values, idx, reasons, sweeps, classical)


def seesaw_lower(
    expr: BellExpression, restarts: int = DEFAULT_RESTARTS, seed: int = 0
) -> SeesawResult:
    """Best see-saw value over seeded random restarts plus a classical warm start.

    Restart r draws its starting axes from a substream keyed by (seed, r), so
    results do not depend on how restarts are grouped; ties go to the lowest
    restart index.  The warm start runs last and guarantees
    value >= classical bound.  The state is the extreme eigenvector of the
    best restart's final operator.
    """
    return _best_of_restarts(expr, restarts, seed)


def seesaw_fixed_state(
    expr: BellExpression, state: np.ndarray, restarts: int = DEFAULT_RESTARTS, seed: int = 0
) -> SeesawResult:
    """Best |<psi|B|psi>| over assignments for a fixed pure state.

    Same restart discipline as seesaw_lower; the warm start pins the result at
    or above the classical bound for any state.  The state must have 2^m
    entries and a norm within 1e-12 of 1; any other raises ValueError first.
    """
    return _best_of_restarts(expr, restarts, seed, fixed_state=state)
