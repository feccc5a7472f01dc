"""Exact classical (LHV) bounds by exhaustive enumeration of deterministic strategies.

A deterministic strategy fixes, for every party j, the pair of outcomes
(a_{j,0}, a_{j,1}) in {-1,+1}^2 it returns under the two settings.  The
classical bound of an expression is the maximum of |value| over all 4^m
strategies; it is always attained at such extremal points.

Strategies are encoded as 2m-bit integers: bit (2j + x) holds party
j's outcome under setting x (0-based j, bit 0 -> +1, bit 1 -> -1), so
enumeration order and witness tie-breaks are reproducible.

Floating-point accumulation is term-ordered (canonical slot order) for
every strategy; the same order is used by the scalar evaluator, the
vectorized enumeration, and the strategy matrix, so the three agree bit
for bit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import check_cap
from .expressions import ABSENT, BellExpression, block_sizes, canonical_patterns, is_homogeneous

DEFAULT_MAX_PARTIES = 8
_ENUMERATION = "parties to enumerate (4^m strategies)"


@dataclass(frozen=True)
class DeterministicStrategy:
    """Per-party outcome pairs (a_{j,0}, a_{j,1}), each value +-1."""

    assignments: tuple[tuple[int, int], ...]

    def __post_init__(self):
        for pair in self.assignments:
            if len(pair) != 2 or any(v not in (-1, 1) for v in pair):
                raise ValueError(f"assignments must be +-1 pairs, got {pair}")

    @property
    def parties(self) -> int:
        return len(self.assignments)

    @property
    def encoding(self) -> int:
        code = 0
        for j, (a0, a1) in enumerate(self.assignments):
            if a0 == -1:
                code |= 1 << (2 * j)
            if a1 == -1:
                code |= 1 << (2 * j + 1)
        return code

    @classmethod
    def from_encoding(cls, parties: int, encoding: int) -> "DeterministicStrategy":
        if not 0 <= encoding < 4 ** parties:
            raise ValueError(f"encoding out of range for {parties} parties")
        pairs = []
        for j in range(parties):
            a0 = -1 if (encoding >> (2 * j)) & 1 else 1
            a1 = -1 if (encoding >> (2 * j + 1)) & 1 else 1
            pairs.append((a0, a1))
        return cls(tuple(pairs))


@dataclass(frozen=True)
class ClassicalBoundResult:
    value: float
    witness: DeterministicStrategy
    achieved_sign: int


@lru_cache(maxsize=None)
def _sign_table(parties: int) -> np.ndarray:
    """(parties, 2, 4^m) int8 array of outcomes per strategy encoding.

    Cached and shared; callers must not mutate.
    """
    codes = np.arange(4 ** parties, dtype=np.int64)
    table = np.empty((parties, 2, codes.size), dtype=np.int8)
    for j in range(parties):
        for x in range(2):
            bits = (codes >> (2 * j + x)) & 1
            table[j, x] = (1 - 2 * bits).astype(np.int8)
    return table


def strategy_value(expr: BellExpression, strategy: DeterministicStrategy) -> float:
    """Sum over terms of coeff times the product of assigned outcomes."""
    if strategy.parties != expr.parties:
        raise ValueError(
            f"strategy has {strategy.parties} parties, expression has {expr.parties}"
        )
    total = 0.0
    for pattern, coeff in expr.terms():
        prod = 1
        for j, ch in enumerate(pattern):
            if ch != ABSENT:
                prod *= strategy.assignments[j][0 if ch == "0" else 1]
        total += coeff * prod
    return total


def lhv_bound(
    expr: BellExpression, *, max_parties: int = DEFAULT_MAX_PARTIES
) -> ClassicalBoundResult:
    """Exact classical bound with a deterministic witness strategy.

    Ties are broken by the smallest strategy encoding.  The returned value
    equals |strategy_value(expr, witness)| bit for bit.
    """
    if len(expr) == 0:
        raise ValueError("zero expression has no classical bound")
    m = expr.parties
    check_cap(_ENUMERATION, m, max_parties, "raise max_parties to override")
    table = _sign_table(m)
    values = np.zeros(4 ** m)
    for pattern, coeff in expr.terms():
        col: np.ndarray | None = None
        for j, ch in enumerate(pattern):
            if ch == ABSENT:
                continue
            arr = table[j, 0 if ch == "0" else 1]
            col = arr if col is None else col * arr
        values += coeff * col
    k = int(np.argmax(np.abs(values)))
    signed = float(values[k])
    return ClassicalBoundResult(
        value=abs(signed),
        witness=DeterministicStrategy.from_encoding(m, k),
        achieved_sign=1 if signed >= 0.0 else -1,
    )


def closed_form_classical(expr: BellExpression) -> float:
    """Pairing value over the last party for full-correlation expressions.

    For each setting prefix p of the first m-1 parties, pair the two
    last-party coefficients into a_odd = a_{p0} + a_{p1} and
    a_even = a_{p0} - a_{p1}; the result is
    max(sum |a_odd|, sum |a_even|).  This is an upper bound on the
    enumerated classical bound and can strictly exceed it.
    """
    if len(expr) == 0:
        raise ValueError("zero expression has no classical bound")
    if not is_homogeneous(expr):
        raise ValueError("closed form requires a homogeneous (full-correlation) expression")
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


def strategy_matrix(
    parties: int, *, max_parties: int = DEFAULT_MAX_PARTIES
) -> np.ndarray:
    """The 4^m x (3^m - 1) matrix of strategy values per canonical slot.

    Entry [k, s] is the product of strategy k's outcomes over the parties
    present in slot s's pattern; every entry is +-1 (int8).
    """
    check_cap(_ENUMERATION, parties, max_parties, "raise max_parties to override")
    table = _sign_table(parties)
    patterns = canonical_patterns(parties)
    out = np.empty((4 ** parties, len(patterns)), dtype=np.int8)
    for col, pattern in enumerate(patterns):
        acc = np.ones(4 ** parties, dtype=np.int8)
        for j, ch in enumerate(pattern):
            if ch != ABSENT:
                acc = acc * table[j, 0 if ch == "0" else 1]
        out[:, col] = acc
    return out


def block_strategy_matrix(
    parties: int, first_party: int, *, max_parties: int = DEFAULT_MAX_PARTIES
) -> np.ndarray:
    """Strategy matrix of block j reduced to parties j..m.

    Block j's patterns ignore parties before j, so the full matrix's rows
    collapse in groups of 4^(j-1); this returns the collapsed
    4^(m+1-j) x l_j matrix directly.
    """
    if not 1 <= first_party <= parties:
        raise ValueError(f"block index must be in [1, {parties}]")
    reduced_parties = parties - first_party + 1
    lengths, _ = block_sizes(parties)
    full = strategy_matrix(reduced_parties, max_parties=max_parties)
    return full[:, : lengths[first_party - 1]]
