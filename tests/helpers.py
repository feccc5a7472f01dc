"""Shared test utilities: seeded random expressions and independent bounds."""

import itertools
import math

import numpy as np

from bellwerner import (
    block_sizes,
    block_strategy_matrix,
    canonical_patterns,
    new_expression,
    strategy_matrix,
)
from bellwerner.gamma import _BLOCK_EPS, _sample_vector


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
    return float(np.abs(m @ expr.to_vector()).max())


def matrix_bound_ordered(expr):
    """max |M alpha| accumulated column by column in canonical slot order.

    Mirrors the enumeration kernel's float addition order, so agreement is
    expected bit for bit, not merely to rounding.
    """
    m = strategy_matrix(expr.parties)
    alpha = expr.to_vector()
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
        x = _sample_vector(config.seed, k, full.shape[1])
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
