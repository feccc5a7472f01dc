"""Shared test utilities: seeded random expressions, independent bounds and file writers."""

import itertools
import json
import math
import numbers
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import bellwerner
from bellwerner import (
    QubitObservable,
    block,
    block_sizes,
    canonical_patterns,
    lhv_bound,
    new_expression,
    quantum,
)
from bellwerner.errors import ParseError, check_cap
from bellwerner.expressions import _from_lists, canonical_tensor, coefficient_tensor
from bellwerner.fileio import _require_dict, _require_parties
from bellwerner.gamma import _BLOCK_EPS
from bellwerner.classical import (
    MAX_PARTIES, _strategy_values, block_strategy_matrix, strategy_matrix
)
from bellwerner.quantum import _OPERATOR, _dominant_eig
from bellwerner.werner import _MC_CHUNK, _necessary_holds, _validated_probabilities

_MIN_NORM = 1e-12  # sample_vector redraws below this norm
_SLOT = str.maketrans("_01", "012")
_TAIL_RANK = {"_": 0, "0": 1, "1": 2}


def validate_pattern(pattern, parties):
    """Raise ValueError unless pattern is a valid length-`parties` term.

    The per-pattern check that the package's vectorised one replaced.
    """
    if not isinstance(pattern, str):
        raise ValueError(f"pattern must be a string, got {type(pattern).__name__}")
    if len(pattern) != parties:
        raise ValueError(f"pattern {pattern!r} does not have length {parties}")
    if not set(pattern) <= set("_01"):
        raise ValueError(f"pattern {pattern!r} contains invalid symbols")
    if pattern.count("_") == parties:
        raise ValueError("all-absent pattern (constant term) is not allowed")


def canonical_key(item):
    """Sort key of a (pattern, coeff) pair in canonical slot order.

    The leading "_" count is the block; within a block the translated
    pattern compares as the base-3 slot, which is the canonical order.
    """
    pattern = item[0]
    return len(pattern) - len(pattern.lstrip("_")), pattern.translate(_SLOT)


def reference_terms(parties, terms):
    """Canonical (pattern, coeff) pairs by the dict-based constructor.

    The construction the term arrays replaced: validate each entry, add
    duplicates in input order as acc.get(p, 0.0) + c, drop zero sums and
    sort by canonical_key.  The sum of |coeff| over the result, as np.sum
    takes it in that order, must be finite.
    """
    if not isinstance(parties, int) or parties < 1:
        raise ValueError("parties must be a positive integer")
    acc = {}
    for pattern, coeff in terms:
        validate_pattern(pattern, parties)
        c = float(coeff)
        if not math.isfinite(c):
            raise ValueError(f"coefficient for {pattern!r} is not finite")
        acc[pattern] = acc.get(pattern, 0.0) + c
    result = tuple(sorted(((p, c) for p, c in acc.items() if c != 0.0), key=canonical_key))
    with np.errstate(over="ignore"):
        total = np.abs([c for _, c in result]).sum()
    if not math.isfinite(total):
        raise ValueError("the sum of |coeff| overflows the float range")
    return result


class BlockView:
    """The terms of `parent` whose first present party is `first_party`.

    The per-block scan of the pattern dict that block slices replaced;
    reduced() strips the leading "_" run and rebuilds through
    reference_terms.
    """

    def __init__(self, parent, first_party):
        if not 1 <= first_party <= parent.parties:
            raise ValueError(f"block index must be in [1, {parent.parties}]")
        self.parties = parent.parties
        self.first_party = first_party
        lead = first_party - 1
        self.coeffs = {
            p: c
            for p, c in parent.coeffs.items()
            if p[:lead] == "_" * lead and p[lead] != "_"
        }

    def reduced(self):
        lead = self.first_party - 1
        return reference_terms(
            self.parties - lead, [(p[lead:], c) for p, c in self.coeffs.items()]
        )


def term_index(pattern, parties):
    """Canonical slot of a pattern, a bijection onto [0, 3^m - 1)."""
    validate_pattern(pattern, parties)
    lead = next(k for k, ch in enumerate(pattern) if ch != "_")
    _, offsets = block_sizes(parties)
    idx = offsets[lead]
    if pattern[lead] == "1":
        idx += 3 ** (parties - lead - 1)
    for k in range(lead + 1, parties):
        idx += _TAIL_RANK[pattern[k]] * 3 ** (parties - k - 1)
    return idx


def to_vector(expr):
    """The expression's canonical vector of length 3^m - 1."""
    vec = np.zeros(3**expr.parties - 1)
    for pattern, coeff in expr.terms():
        vec[term_index(pattern, expr.parties)] = coeff
    return vec


def from_vector(parties, vector):
    """Inverse of to_vector: nonzero slots become terms."""
    vec = np.asarray(vector, dtype=float)
    dim = 3**parties - 1
    if vec.shape != (dim,):
        raise ValueError(f"vector must have shape ({dim},), got {vec.shape}")
    patterns = canonical_patterns(parties)
    return new_expression(parties, [(patterns[i], float(vec[i])) for i in np.nonzero(vec)[0]])


def strategy_value(expr, strategy):
    """Sum over terms of coeff times the product of assigned outcomes."""
    if strategy.parties != expr.parties:
        raise ValueError(
            f"strategy has {strategy.parties} parties, expression has {expr.parties}"
        )
    total = 0.0
    for pattern, coeff in expr.terms():
        prod = 1
        for j, ch in enumerate(pattern):
            if ch != "_":
                prod *= strategy.assignments[j][0 if ch == "0" else 1]
        total += coeff * prod
    return total


def closed_form_loop(expr):
    """max(sum |a_p0 + a_p1|, sum |a_p0 - a_p1|) by a loop over prefix strings.

    The loop `closed_form_classical` replaced; it must agree bit for bit.
    """
    coeffs = expr.coeffs
    odd = 0.0
    even = 0.0
    for prefix in itertools.product("01", repeat=expr.parties - 1):
        p = "".join(prefix)
        a0 = coeffs.get(p + "0", 0.0)
        a1 = coeffs.get(p + "1", 0.0)
        odd += abs(a0 + a1)
        even += abs(a0 - a1)
    return max(odd, even)


def gamma_for(expr, i):
    """lhv_bound(expr) / lhv_bound(block i), infinite for an empty block."""
    part = block(expr, i)
    total = lhv_bound(expr).value
    if len(part) == 0:
        return math.inf
    return total / lhv_bound(part).value


def max_abs_eigenvalue(matrix):
    """Spectral radius of a Hermitian matrix from a dense eigensolve."""
    value, _ = _dominant_eig(matrix)
    return abs(float(value))


def werner_density(family, v):
    """rho_v = (1 - v)/2^m * I + v |Psi><Psi| for v in [0, 1].

    The dense matrix is capped like every 2^m x 2^m operator (8 parties).
    """
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"mixing weight must lie in [0, 1], got {v!r}")
    check_cap(_OPERATOR, family.parties, MAX_PARTIES)
    psi = family.state_vector()
    dim = psi.shape[0]
    return (1.0 - v) / dim * np.eye(dim, dtype=complex) + v * np.outer(psi, psi.conj())


def random_expression(rng, parties, *, max_terms=6, homogeneous=False, integer=False):
    """Random nonzero expression with coefficients from a seeded generator."""
    pats = canonical_patterns(parties)
    if homogeneous:
        pats = [p for p in pats if "_" not in p]
    count = int(rng.integers(1, min(max_terms, len(pats)) + 1))
    chosen = rng.choice(len(pats), size=count, replace=False)
    terms = []
    for i in chosen:
        if integer:
            c = 0
            while c == 0:
                c = int(rng.integers(-3, 4))
            terms.append((pats[i], float(c)))
        else:
            c = float(rng.normal())
            if c == 0.0:
                c = 1.0
            terms.append((pats[i], c))
    return new_expression(parties, terms)


def brute_force_bound(expr):
    """Max |value| over all +-1 assignments, written independently of the
    package's enumeration kernel."""
    m = expr.parties
    best = 0.0
    for assign in itertools.product((1, -1), repeat=2 * m):
        total = 0.0
        for pattern, coeff in expr.terms():
            prod = coeff
            for j, ch in enumerate(pattern):
                if ch == "_":
                    continue
                prod *= assign[2 * j + (0 if ch == "0" else 1)]
            total += prod
        best = max(best, abs(total))
    return best


def matrix_bound_blas(expr):
    """max |M alpha| through the library matmul."""
    m = strategy_matrix(expr.parties).astype(float)
    return float(np.abs(m @ to_vector(expr)).max())


def matrix_bound_ordered(expr):
    """max |M alpha| accumulated column by column in canonical slot order.

    Mirrors the enumeration kernel's float addition order, so agreement is
    expected bit for bit, not merely to rounding.
    """
    m = strategy_matrix(expr.parties)
    alpha = to_vector(expr)
    vals = np.zeros(m.shape[0])
    for k in np.nonzero(alpha)[0]:
        vals += alpha[k] * m[:, k]
    return float(np.abs(vals).max())


def kron_bell_operator(expr, mats):
    """sum of coeff * kron over parties, one np.kron chain per term.

    mats[k][x] is party k's 2x2 observable for setting x; absent parties
    get the identity.  The per-term reference for the contraction kernel.
    """
    dim = 2 ** expr.parties
    out = np.zeros((dim, dim), dtype=complex)
    for pattern, coeff in expr.terms():
        factor = np.ones((1, 1), dtype=complex)
        for k, ch in enumerate(pattern):
            factor = np.kron(factor, np.eye(2) if ch == "_" else mats[k][int(ch)])
        out += coeff * factor
    return out


def kron_effective_operator(expr, mats, j, setting, psi):
    """Partial trace over every party but j of D |psi><psi|, by per-term kron.

    D sums the terms with party j at `setting`, an identity in slot j.
    """
    m = expr.parties
    dim = 2 ** m
    d = np.zeros((dim, dim), dtype=complex)
    for pattern, coeff in expr.terms():
        if pattern[j] != str(setting):
            continue
        factor = np.ones((1, 1), dtype=complex)
        for k, ch in enumerate(pattern):
            absent = k == j or ch == "_"
            factor = np.kron(factor, np.eye(2) if absent else mats[k][int(ch)])
        d += coeff * factor
    dl, dr = 2 ** j, 2 ** (m - 1 - j)
    g = (d @ np.outer(psi, psi.conj())).reshape(dl, 2, dr, dl, 2, dr)
    return np.einsum("apbaqb->pq", g)


_PAULIS = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def observable_matrix(o):
    """((l+ + l-)/2) I + ((l+ - l-)/2) n.sigma of a QubitObservable, from the Pauli matrices."""
    mean, half = (o.eig_plus + o.eig_minus) / 2.0, (o.eig_plus - o.eig_minus) / 2.0
    return mean * np.eye(2) + half * np.tensordot(np.array(o.axis), _PAULIS, axes=1)


def stack_reference(pair, real=False):
    """The (3, 2, 2) stack [I, A_0, A_1] of a pair of QubitObservables; with real, the
    real part of it, the whole stack when both axes lie in the xz plane."""
    stack = np.stack([np.eye(2, dtype=complex), *(observable_matrix(o) for o in pair)])
    return stack.real if real else stack


def contract_tensordot(coeffs, stacks):
    """The see-saw contraction with one np.tensordot per party, as it first was."""
    t = coeffs
    for s in stacks:
        t = np.tensordot(t, s, axes=(0, 0))
    batch = t.ndim - 2 * len(stacks)
    perm = [*range(batch), *range(batch, t.ndim, 2), *range(batch + 1, t.ndim, 2)]
    dim = 2 ** len(stacks)
    return t.transpose(perm).reshape(t.shape[:batch] + (dim, dim))


def bell_matrix_reference(expr, coeffs, stacks):
    """quantum._bell_matrix with the contraction by np.tensordot."""
    outcomes = np.array([s[1:, [0, 1], [0, 1]] for s in stacks])
    if not any(s[1:, 0, 1].any() for s in stacks) and np.all(np.abs(outcomes) == 1.0):
        return np.diag(quantum._classical_diagonal(expr, outcomes.real)).astype(coeffs.dtype)
    b = contract_tensordot(coeffs, stacks)
    return (b + b.conj().T) / 2.0


def effective_pair_reference(coeffs, stacks, j, psi):
    """F_{j,0}, F_{j,1} from the whole tensor, its layout rebuilt on every call."""
    m = coeffs.ndim
    d = contract_tensordot(np.moveaxis(coeffs, j, -1)[..., 1:], stacks[:j] + stacks[j + 1:])
    slices = np.moveaxis(psi.reshape((2,) * m), j, -1).reshape(-1, 2)
    g = slices.conj().T @ d @ slices
    return (g.swapaxes(1, 2) + g.conj()) / 2.0


def optimal_observable_reference(f, previous):
    """The closed-form best observable for F, as a validated QubitObservable."""
    f0 = (f[0, 0].real + f[1, 1].real) / 2.0
    fx = f[1, 0].real
    fy = f[1, 0].imag
    fz = (f[0, 0].real - f[1, 1].real) / 2.0
    norm = math.sqrt(fx * fx + fy * fy + fz * fz)
    if norm < 1e-14:
        lam = quantum._sign(f0)
        return QubitObservable(previous.axis, lam, lam)
    axis = (fx / norm, fy / norm, fz / norm)
    return QubitObservable(axis, quantum._sign(f0 + norm), quantum._sign(f0 - norm))


def stop_label_reference(values):
    """The label of a restart that stopped on a gain below the tolerance.

    Stalled: the last two gains are positive and their ratio r is at least 1,
    or the geometric tail last * r / (1 - r) exceeds the tolerance.
    """
    gains = [b - a for a, b in zip(values, values[1:])][-2:]
    if len(gains) < 2 or not (gains[0] > 0 and gains[1] > 0):
        return "converged"
    r = gains[1] / gains[0]
    stalled = r >= 1.0 or gains[1] * r / (1.0 - r) > quantum._TOL
    return "stalled" if stalled else "converged"


def bounded_reference(values, c1):
    """Whether a restart that gained at least the tolerance cannot beat c1.

    After 10 sweeps or more, the last three gains g1, g2, g3 are positive,
    the ratios r0 = g2 / g1 and r = g3 / g2 agree within 10% of r0 with
    r < 1, and the geometric limit v + g3 * r / (1 - r) is at most c1 + tol.
    """
    gains = [b - a for a, b in zip(values, values[1:])]
    if len(gains) < 10 or not all(g > 0 for g in gains[-3:]):
        return False
    g1, g2, g3 = gains[-3:]
    r0, r = g2 / g1, g3 / g2
    if not (r < 1.0 and abs(r - r0) <= 0.1 * r0):
        return False
    return values[-1] + g3 * r / (1.0 - r) <= c1 + quantum._TOL


def dominant_eig_reference(h):
    """The signed eigenvalue of largest magnitude of one matrix, ties to the largest.

    eigh runs on one OpenBLAS thread, as in the see-saw: from 128 x 128 on,
    its last bits follow the thread count.
    """
    get, put = quantum._openblas_threads() or (lambda: None, lambda threads: None)
    threads = get()
    put(1)
    try:
        w, v = np.linalg.eigh(h)
    finally:
        put(threads)
    if abs(w[-1]) >= abs(w[0]):
        return float(w[-1]), v[:, -1]
    return float(w[0]), v[:, 0]


def seesaw_run_reference(expr, initial, c1, fixed_state=None, frame=True):
    """One see-saw restart as the sweep first ran it, alone, from per-party
    pairs of (axis, eig_plus, eig_minus) triples.

    Contraction by np.tensordot, each party's coefficient layout rebuilt in
    every sweep, one eigensolve per matrix and a QubitObservable built for
    every update; after a sweep that gains less than the tolerance the label
    follows stop_label_reference, and otherwise the restart stops as
    "bounded" once bounded_reference holds for the classical bound c1.
    Without a fixed state it runs in the see-saw's real frame: each pair
    turned into the xz plane by quantum._plane_frame, every matrix real,
    and the run turned back by quantum._out_of_plane.  frame=False runs it
    complex in the caller's frame, an oracle with no frame at all.
    Returns a quantum._Run, its witness as triples.
    """
    m = expr.parties
    real = frame and fixed_state is None
    framed = [quantum._plane_frame(pair) if real else (None, pair) for pair in initial]
    frames, initial = [f for f, _ in framed], [pair for _, pair in framed]
    coeffs = coefficient_tensor(expr, float if real else complex)
    obs = [[QubitObservable(*pair[0]), QubitObservable(*pair[1])] for pair in initial]
    stacks = [stack_reference(pair, real) for pair in obs]
    if fixed_state is not None:
        psi = np.asarray(fixed_state, dtype=complex).reshape(-1)
        signed = float(np.vdot(psi, bell_matrix_reference(expr, coeffs, stacks) @ psi).real)
        state = psi
    else:
        signed, state = dominant_eig_reference(bell_matrix_reference(expr, coeffs, stacks))
    value = abs(signed)
    sign = quantum._sign(signed)
    sweep_values = [value]
    stop_reason = "max_sweeps"
    for _ in range(quantum._MAX_SWEEPS):
        for j in range(m):
            f = sign * effective_pair_reference(coeffs, stacks, j, state)
            for setting in (0, 1):
                obs[j][setting] = optimal_observable_reference(f[setting], obs[j][setting])
            stacks[j] = stack_reference(obs[j], real)
        op = bell_matrix_reference(expr, coeffs, stacks)
        if fixed_state is not None:
            signed = float(np.vdot(psi, op @ psi).real)
        else:
            signed, state = dominant_eig_reference(op)
        new_value = abs(signed)
        if new_value < value - 1e-9 * max(1.0, value):
            raise RuntimeError("see-saw objective decreased; eigensolver or update fault")
        sign = quantum._sign(signed)
        sweep_values.append(new_value)
        improvement = new_value - value
        value = new_value
        if improvement < quantum._TOL:
            stop_reason = stop_label_reference(sweep_values)
            break
        if bounded_reference(sweep_values, c1):
            stop_reason = "bounded"
            break
    witness = [[(o.axis, o.eig_plus, o.eig_minus) for o in pair] for pair in obs]
    if real:
        witness, state = quantum._out_of_plane(frames, witness, state)
    return quantum._Run(value, witness, state, tuple(sweep_values), stop_reason)


def equatorial_lower(expr):
    """max over angles of |sum_s beta_s exp(i sum_k phi_{k, s_k})|, by gradient ascent.

    For a full-correlation expression this is the value of the GHZ state
    with equatorial observables cos(phi) X + sin(phi) Y (Werner and Wolf,
    Zukowski and Brukner), which any quantum lower bound must reach.  64
    random angle sets climb |Z|^2 at once for 300 steps, each step the
    longest of 2s, s, s/2, ... (s the last one taken) that gains at least
    half the first-order prediction (Armijo).
    """
    starts, steps = 64, 300
    m = expr.parties
    beta = coefficient_tensor(expr, complex)[(slice(1, 3),) * m].reshape(-1)
    bits = (np.arange(2 ** m) >> np.arange(m - 1, -1, -1)[:, None]) & 1  # bits[k, s]
    chosen = bits[None, :, :] == np.arange(2)[:, None, None]  # chosen[x, k, s]

    def terms_at(phi):
        theta = np.take_along_axis(phi, np.broadcast_to(bits, phi.shape[:1] + bits.shape), 2)
        return beta * np.exp(1j * theta.sum(axis=1))  # (starts, 2^m)

    phi = np.random.default_rng(0).uniform(0.0, 2.0 * math.pi, (starts, m, 2))
    terms = terms_at(phi)
    value = np.abs(terms.sum(axis=1)) ** 2
    step = np.ones(starts)
    for _ in range(steps):
        partial = np.einsum("xks,ns->nkx", chosen, terms)  # sum over s with s_k = x
        grad = 2.0 * (np.conj(terms.sum(axis=1))[:, None, None] * 1j * partial).real
        slope = (grad ** 2).sum(axis=(1, 2))
        step = step * 2.0
        pending = slope > 0.0
        for _ in range(60):
            trial = phi + step[:, None, None] * grad
            trial_terms = terms_at(trial)
            trial_value = np.abs(trial_terms.sum(axis=1)) ** 2
            take = pending & (trial_value >= value + 0.5 * step * slope)
            phi = np.where(take[:, None, None], trial, phi)
            terms = np.where(take[:, None], trial_terms, terms)
            value = np.where(take, trial_value, value)
            pending &= ~take
            if not pending.any():
                break
            step = np.where(pending, step / 2.0, step)
    return float(np.sqrt(value.max()))


def separability_upper_bound_loop(amplitudes):
    """The pair bound by a full scan of every light i against every j.

    The reference for werner.separability_upper_bound, which evaluates only
    the two extreme j and must agree bit for bit.
    """
    p = np.abs(np.asarray(amplitudes, dtype=complex).reshape(-1)) ** 2
    parties = p.shape[0].bit_length() - 1
    pair_sum = p + p[::-1]
    light = np.flatnonzero(pair_sum <= 2.0 ** (1 - parties) + 1e-12)
    if light.size == 0:
        light = np.array([int(np.argmin(pair_sum))])
    products = p * p[::-1]
    best = 1.0
    four_m = float(4 ** parties)
    two_m = float(2 ** parties)
    for i in light:
        f = four_m * products - four_m * products[i] + two_m * pair_sum[i] - 1.0
        usable = np.abs(f) > 1e-12
        if np.any(usable):
            best = min(best, float(1.0 / math.sqrt(np.abs(f[usable]).max())))
    return best


def pair_bound_holds(parties, t):
    """(1 - t)^(d/2 - 2) (1 + (d - 2) t) >= 1, d = 2^m, decided in integers.

    The float t in (0, 1) is a/2^e exactly, so the test is
    (2^e - a)^(d/2 - 2) (2^e + (d - 2) a) >= 2^(e (d/2 - 1)): the closed-form
    measure bound (1 - t)^(d/2) lies below the exact share
    (1 - t)^(d - 2) (1 + (d - 2) t).  werner._pair_bound_root's table holds
    the largest float for which it is true.
    """
    a, b = t.as_integer_ratio()
    d = 2 ** parties
    return (b - a) ** (d // 2 - 2) * (b + (d - 2) * a) >= b ** (d // 2 - 1)


def separability_necessary_check(amplitudes, v):
    """Diagonal-dominance condition every fully separable mixture satisfies.

    Checks min_i sqrt(d_i d_ic) >= max_j |alpha_j||alpha_jc| * v where
    d_i are the diagonal entries of rho_v.  A False verdict certifies
    entanglement at that v.  The package bisects the same condition in
    werner.necessary_check_first_failure.
    """
    p = _validated_probabilities(amplitudes)
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"mixing weight must lie in [0, 1], got {v!r}")
    return _necessary_holds(p, v)


def lhv_bound_loop(expr):
    """(value, witness encoding, sign) by the full term-ordered 4^m loop.

    The dense enumeration `lhv_bound` replaced: every strategy's value summed
    term by term in canonical order, argmax of |value| with ties to the
    lowest encoding.  The shortlisted kernel must agree bit for bit.
    """
    m = expr.parties
    codes = np.arange(4**m, dtype=np.int64)
    values = np.zeros(4**m)
    for pattern, coeff in expr.terms():
        col = np.ones(4**m, dtype=np.int8)
        for j, ch in enumerate(pattern):
            if ch != "_":
                bits = (codes >> (2 * j + int(ch))) & 1
                col = col * (1 - 2 * bits).astype(np.int8)
        values += coeff * col
    k = int(np.argmax(np.abs(values)))
    signed = float(values[k])
    return abs(signed), k, 1 if signed >= 0.0 else -1


def sample_vector(seed, index, dim):
    """Sample `index` of the gamma scan through its own default_rng([seed, index]).

    The per-sample generator the batched state derivation replaced: draw
    standard normals until the norm is at least _MIN_NORM, then divide by it.
    The scan's rows must equal this bit for bit.
    """
    rng = np.random.default_rng([seed, index])
    while True:
        x = rng.standard_normal(dim)
        norm = float(np.linalg.norm(x))
        if norm >= _MIN_NORM:
            return x / norm


def bounds_per_block(x, m):
    """Full and per-block bounds of sample rows x, each block through its own transform.

    The body `gamma._bounds` had before it read every block off the full
    transform: block i + 1 is zero-padded to an expression over parties
    i+1..m, and its leading party's two halves are contracted as a batch.
    The fused scan must equal this bit for bit.
    """
    _, offsets = block_sizes(m)
    total = np.abs(_strategy_values(canonical_tensor(x, m), m)).max(axis=-1)
    blocks = np.empty((len(x), m))
    for i in range(m):
        reduced = np.zeros((len(x), 3 ** (m - i) - 1))
        reduced[:, : offsets[i + 1] - offsets[i]] = x[:, offsets[i] : offsets[i + 1]]
        halves = canonical_tensor(reduced, m - i)[:, 1:]
        values = np.abs(_strategy_values(halves, m - i - 1))
        blocks[:, i] = (values[:, 0] + values[:, 1]).max(axis=-1)
    return total, blocks


def scan_chunk_dense(config, start, chunk):
    """Per-index (ratio, sample) minima and skip counts, one sample at a time.

    The dense per-sample scan `gamma_scan` replaced: max |M x| through the
    float strategy matrix and each block's reduced matrix.
    """
    m = config.parties
    _, offsets = block_sizes(m)
    full = strategy_matrix(m).astype(np.float64)
    blocks = [block_strategy_matrix(m, i + 1).astype(np.float64) for i in range(m)]
    minima = [None] * m
    skipped = [0] * m
    for k in range(start, min(start + chunk, config.samples)):
        x = sample_vector(config.seed, k, full.shape[1])
        total = float(np.abs(full @ x).max())
        for i in range(m):
            block_value = float(np.abs(blocks[i] @ x[offsets[i] : offsets[i + 1]]).max())
            if block_value < _BLOCK_EPS:
                skipped[i] += 1
                continue
            ratio = total / block_value
            if minima[i] is None or ratio < minima[i][0]:
                minima[i] = (ratio, k)
    return minima, skipped


def mc_chunk_pairs_dense(parties, seed, samples, chunk_index):
    """Pair weights of one Monte Carlo chunk from two full (count, 2^m) draws.

    The dense chunk the streamed `_mc_chunk_hits` replaced: real and
    imaginary parts drawn whole from the (seed, chunk) substream, squared
    and added in place, pair = (w_0 + w_last) / sum w.  Its hits at a
    threshold t are the count of pair > t, which the streamed code must
    match exactly.
    """
    count = min(_MC_CHUNK, samples - chunk_index * _MC_CHUNK)
    rng = np.random.default_rng([seed, chunk_index])
    dim = 2**parties
    re = rng.standard_normal((count, dim))
    im = rng.standard_normal((count, dim))
    np.square(re, out=re)
    np.square(im, out=im)
    re += im
    total = re.sum(axis=1)
    return (re[:, 0] + re[:, -1]) / total


def _term_problem(pattern, coeff, parties):
    """Why a document entry's pattern or coefficient is bad, or "" if neither is."""
    if not isinstance(pattern, str):
        return f"pattern must be a string, got {type(pattern).__name__}"
    if len(pattern) != parties:
        return f"pattern {pattern!r} does not have length {parties}"
    if set(pattern) - set("_01"):
        return f"pattern {pattern!r} contains invalid symbols {sorted(set(pattern) - set('_01'))}"
    if set(pattern) == {"_"}:
        return "all-absent pattern (constant term) is not allowed"
    if isinstance(coeff, bool) or not isinstance(coeff, numbers.Real):
        return f"coefficient for {pattern!r} must be a real number, got {type(coeff).__name__}"
    try:
        finite = math.isfinite(float(coeff))
    except OverflowError:
        finite = False
    return "" if finite else f"coefficient for {pattern!r} is not finite"


def expression_from_document_loop(doc):
    """expression_from_document by per-entry loops over `terms`.

    The loader the whole-array checks replaced.  Each entry must be a dict,
    and the first that is not is named; then each must have a valid pattern
    and a finite real, non-bool coefficient, and the first bad entry is named
    as terms[i], whatever its problem.  Messages must match.
    """
    doc = _require_dict(doc, "expression document")
    parties = _require_parties(doc, "expression document")
    terms = doc.get("terms")
    if not isinstance(terms, list) or not terms:
        raise ParseError("expression document: field 'terms' must be a non-empty array")
    for idx, entry in enumerate(terms):
        if not isinstance(entry, dict):
            raise ParseError(f"terms[{idx}]: must be an object")
    for idx, entry in enumerate(terms):
        problem = _term_problem(entry.get("pattern"), entry.get("coeff"), parties)
        if problem:
            raise ParseError(f"terms[{idx}]: {problem}")
    patterns = [entry["pattern"] for entry in terms]
    coeffs = [float(entry["coeff"]) for entry in terms]
    try:
        return _from_lists(parties, patterns, coeffs)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def parse_report(text):
    """The report dict of a structured (JSON) rendering; ParseError if malformed."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid report JSON: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ParseError("report must be a JSON object")
    missing = {"command", "version", "seed", "timestamp", "inputs", "results", "warnings"} - set(doc)
    if missing:
        raise ParseError(f"report is missing fields: {sorted(missing)}")
    if not isinstance(doc["inputs"], dict) or not isinstance(doc["results"], dict):
        raise ParseError("report fields 'inputs' and 'results' must be objects")
    if not isinstance(doc["warnings"], list):
        raise ParseError("report field 'warnings' must be an array")
    return doc


def expression_to_document(expr):
    """The expression document that fileio.expression_from_document reads back."""
    return {
        "parties": expr.parties,
        "terms": [
            {"pattern": pattern, "coeff": coeff} for pattern, coeff in expr.terms()
        ],
    }


def save_expression(expr, path):
    Path(path).write_text(json.dumps(expression_to_document(expr), indent=2) + "\n")


def state_to_document(family):
    """The state document of a PureFamily; zero amplitudes are left out."""
    parties = family.parties
    entries = []
    for idx, amp in enumerate(family.amplitudes):
        if amp == 0:
            continue
        entries.append(
            {
                "index": format(idx, f"0{parties}b"),
                "re": float(amp.real),
                "im": float(amp.imag),
            }
        )
    return {"parties": parties, "amplitudes": entries}


def save_state(family, path):
    Path(path).write_text(json.dumps(state_to_document(family), indent=2) + "\n")


def run_python(code, **environ):
    """stdout of `code` run by this interpreter in a fresh process that imports this
    bellwerner, with the given environment variables set."""
    env = dict(os.environ, PYTHONPATH=str(Path(bellwerner.__file__).parents[1]), **environ)
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return done.stdout
