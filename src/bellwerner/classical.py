"""Exact classical (LHV) bounds by exhaustive enumeration of deterministic strategies.

A deterministic strategy fixes, for every party j, the pair of outcomes
(a_{j,0}, a_{j,1}) in {-1,+1}^2 it returns under the two settings.  The
classical bound of an expression is the maximum of |value| over all 4^m
strategies; it is always attained at such extremal points.

Strategies are encoded as 2m-bit integers: bit (2j + x) holds party
j's outcome under setting x (0-based j, bit 0 -> +1, bit 1 -> -1), so
enumeration order and witness tie-breaks are reproducible.

A strategy's value is defined as the term-ordered sum: start from 0 and
add coeff * (product of outcomes) term by term in canonical slot order.
`lhv_bound` reports the maximum of exactly these sums.

Cost model.  Including the constant slot, the 4^m x 3^m strategy matrix is
the Kronecker product over parties of the 4 x 3 matrix
W[b0 + 2 b1] = [1, (-1)^b0, (-1)^b1], so all 4^m values of a (3,)*m
coefficient tensor come from m products with W, O(m 4^m) work whatever
the number of terms T (`_strategy_values`; its loop `_contraction_steps`
takes a batch of tensors and yields the array before each product, which
the gamma scan reads its bounds from).  That transform adds in another
order, so `lhv_bound` uses it only to shortlist the strategies within a
rounding bound of the maximum and re-evaluates those term by term, O(T)
each, in blocks of 2^15 (term, strategy) pairs.  A dense random
expression shortlists one or two strategies; the worst case is a
shortlist of all 4^m, as for MERMIN(7), whose 16384 strategies all tie,
and costs O(T 4^m) like a full scan.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import check_cap
from .expressions import (
    BellExpression,
    _pattern_slots,
    block_sizes,
    canonical_patterns,
    coefficient_tensor,
    is_homogeneous,
    term_slots,
)

MAX_PARTIES = 8
_ENUMERATION = "parties to enumerate (4^m strategies)"

# Row b0 + 2 b1: one party's factor under the slots "_", "0", "1" when it
# answers (-1)^b0 to setting 0 and (-1)^b1 to setting 1.
_PARTY_SIGNS = np.array(
    [[1.0, 1.0, 1.0], [1.0, -1.0, 1.0], [1.0, 1.0, -1.0], [1.0, -1.0, -1.0]]
)
_EXACT_BLOCK = 1 << 15


# (-1)^popcount(x) for every 16-bit x, as sign(x + 2^b) = -sign(x): the sign of
# term t at strategy k is _PARITY_SIGN[mask_t & k].  Under the 8-party cap every
# code and mask is below 2^16, and a wider one raises IndexError.
_PARITY_SIGN = np.ones(1)
for _ in range(16):
    _PARITY_SIGN = np.concatenate([_PARITY_SIGN, -_PARITY_SIGN])


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
        return int(_strategy_codes(np.reshape(self.assignments, (-1, 2))))

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


def _check_enumeration(parties: int) -> None:
    check_cap(_ENUMERATION, parties, MAX_PARTIES)


def _contraction_steps(coeffs: np.ndarray, parties: int, buffers=()) -> Iterator[np.ndarray]:
    """The loop of `_strategy_values`: the array before each contraction, then the result.

    Before party p = m-1-done it is (4^done, 3, rest): the strategies of
    parties p+1..m-1, party p's slot, then the slots of parties p-1..0 and
    the batch, flattened with the batch fastest, so the first (batch size)
    entries of the last axis have every earlier party at slot 0.  The
    result is (4^(m-1), 4, batch size).  Given two flat float64 buffers,
    product `done` goes into the head of buffers[done % 2] (a short one raises).
    """
    batch = coeffs.shape[: coeffs.ndim - parties]
    t = coeffs.transpose([*range(coeffs.ndim - 1, len(batch) - 1, -1), *range(len(batch))])
    for done in range(parties):
        t = t.reshape(4**done, 3, -1)
        yield t
        out = buffers[done % 2][: 4 * (t.size // 3)].reshape(4**done, 4, -1) if buffers else None
        t = np.matmul(_PARTY_SIGNS, t, out=out)
    yield t


def _strategy_values(coeffs: np.ndarray, parties: int) -> np.ndarray:
    """Values of all 4^m strategies for (..., 3, ..., 3) coefficient tensors.

    The last `parties` axes are contracted with W by m np.matmul calls,
    party m-1 first, so the (..., 4^m) result has party j as base-4 digit
    j: the encoding order.  Leading axes are a batch, kept as the last
    axis of every product, so a batch widens the products instead of
    adding to their number.  Each value passes through at most 2m roundings
    (a three-term sum with +-1 weights per party).  The result is a view of
    a (4^m, ...) array.
    """
    for t in _contraction_steps(coeffs, parties):
        pass
    batch = coeffs.shape[: coeffs.ndim - parties]
    return np.moveaxis(t.reshape((4**parties,) + batch), 0, -1)


def _base4(digits: np.ndarray) -> np.ndarray:
    """Sum over j of digits[..., j] << 2j: a strategy's code from its per-party b0 + 2 b1,
    a term's mask from its slots, so slot 1 ("0") reads bit 2j and slot 2 ("1") bit 2j + 1."""
    return (digits << (2 * np.arange(digits.shape[-1]))).sum(axis=-1)


def _strategy_codes(outcomes: np.ndarray) -> np.ndarray:
    """Encodings of the strategies whose +-1 outcomes[..., j, x] party j gives to setting x."""
    bits = (outcomes < 0).astype(np.int64)
    return _base4(bits[..., 0] + 2 * bits[..., 1])


def _outcome_values(expr: BellExpression, outcomes: np.ndarray) -> np.ndarray:
    """Term-ordered values of the strategies outcomes[n] ((m, 2) arrays of +-1), bit
    for bit those that `lhv_bound` compares."""
    return _ordered_values(*term_slots(expr), _strategy_codes(outcomes))


def _ordered_values(slots: np.ndarray, coeffs: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Term-ordered values at the strategy encodings `codes`, bit for bit.

    slots and coeffs are those of `term_slots`.  The sign of term t at
    strategy k is `_PARITY_SIGN[k & mask_t]`, with mask_t = `_base4(slots[t])`.  A
    block of strategies becomes a (terms, strategies) array of signed
    coefficients, summed down axis 0 by np.add.accumulate, which adds row
    after row in term order (np.sum is pairwise), as `closed_form_classical` sums.
    """
    masks = _base4(slots)
    step = max(1, _EXACT_BLOCK // coeffs.size)
    out = np.empty(codes.size)
    for lo in range(0, codes.size, step):
        signed = _PARITY_SIGN[masks[:, None] & codes[None, lo : lo + step]]
        signed *= coeffs[:, None]
        out[lo : lo + step] = np.add.accumulate(signed, axis=0, out=signed)[-1]
    return out


def lhv_bound(expr: BellExpression) -> ClassicalBoundResult:
    """Exact classical bound with a deterministic witness strategy.

    Ties are broken by the smallest strategy encoding.  The returned value
    equals the absolute term-ordered sum at the witness bit for bit.

    The transform (`_strategy_values`) gives fast_k; only strategies with
    |fast_k| >= max |fast| - 2 delta are re-evaluated term by term, where
    delta = (T + 2m + 2) 2^-52 S for T terms and S = sum |c|.  Why that
    suffices: with u = 2^-53 and gamma_n = n u / (1 - n u), the term-ordered
    value v_k differs from the exact e_k by at most gamma_{T-1} S (T - 1
    roundings of partial sums bounded by S) and fast_k by at most
    gamma_{2m} S (2m roundings per value), so |v_k - fast_k| <= delta'
    with delta' = (gamma_{T-1} + gamma_{2m}) S < (T + 2m) 2u S.  If k* maximises
    |v|, then |fast_k*| >= |v_k*| - delta' >= |v_k| - delta' >= |fast_k| - 2 delta'
    for every k, so k* is shortlisted; the extra 2 in delta's factor
    (4u S and more) absorbs the roundings of S, of max - 2 delta and the
    1 / (1 - n u).  Every strategy that ties k* is shortlisted too, so the
    lowest encoding among the exact maxima wins as in a full scan.

    Integer coefficients with S < 2^53 are the case delta = 0: every partial
    sum, in either order, is an integer of magnitude at most S and so exact,
    so fast_k equals v_k and the shortlist, the set of exact maxima, needs no
    term-ordered re-evaluation.  (A float sum of nonnegative integers that
    comes out below 2^53 never rounded, so the computed S decides this soundly.)
    """
    if len(expr) == 0:
        raise ValueError("zero expression has no classical bound")
    m = expr.parties
    _check_enumeration(m)
    slots, coeffs = term_slots(expr)
    fast = _strategy_values(coefficient_tensor(expr), m)
    scale = float(np.abs(coeffs).sum())
    exact = scale < 2.0**53 and np.array_equal(coeffs, np.round(coeffs))
    delta = 0.0 if exact else (len(coeffs) + 2 * m + 2) * 2.0**-52 * scale
    magnitude = np.abs(fast)
    # negated so that a NaN bound keeps every strategy
    shortlist = np.flatnonzero(~(magnitude < magnitude.max() - 2.0 * delta))
    values = fast[shortlist] if exact else _ordered_values(slots, coeffs, shortlist)
    best = int(np.argmax(np.abs(values)))
    witness = int(shortlist[best])
    signed = float(values[best])
    return ClassicalBoundResult(
        value=abs(signed),
        witness=DeterministicStrategy.from_encoding(m, witness),
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
    # canonical rows of a homogeneous expression are sorted with the last party
    # fastest, so a prefix's "0" and "1" terms are adjacent: row g of pairs holds
    # a_{p0}, a_{p1} of the g-th present prefix p (an absent one would add 0.0)
    slots, coeffs = term_slots(expr)
    prefix = slots[:, :-1]
    starts = np.concatenate([[True], (prefix[1:] != prefix[:-1]).any(axis=1)])
    pairs = np.zeros((int(starts.sum()), 2))
    pairs[np.cumsum(starts) - 1, slots[:, -1] - 1] = coeffs
    a0, a1 = pairs.T
    # accumulate adds prefix after prefix, as the sums are defined (np.sum is pairwise)
    odd = float(np.add.accumulate(np.abs(a0 + a1))[-1])
    even = float(np.add.accumulate(np.abs(a0 - a1))[-1])
    return max(odd, even)


# Not package API: the two strategy matrices keep these names in this module
# only because bench/spans.py looks them up here.
def strategy_matrix(parties: int) -> np.ndarray:
    """The 4^m x (3^m - 1) matrix of strategy values per canonical slot.

    Entry [k, s] is the product of strategy k's outcomes over the parties
    present in slot s's pattern; every entry is +-1 (int8).
    """
    _check_enumeration(parties)
    masks = _base4(_pattern_slots(canonical_patterns(parties), parties))
    codes = np.arange(4**parties)
    out = np.empty((codes.size, masks.size), dtype=np.int8)
    for col, mask in enumerate(masks):
        out[:, col] = _PARITY_SIGN[codes & mask]
    return out


def block_strategy_matrix(parties: int, first_party: int) -> np.ndarray:
    """Strategy matrix of block j reduced to parties j..m.

    Block j's patterns ignore parties before j, so the full matrix's rows
    collapse in groups of 4^(j-1); this returns the collapsed
    4^(m+1-j) x l_j matrix directly.
    """
    if not 1 <= first_party <= parties:
        raise ValueError(f"block index must be in [1, {parties}]")
    reduced_parties = parties - first_party + 1
    lengths, _ = block_sizes(parties)
    full = strategy_matrix(reduced_parties)
    return full[:, : lengths[first_party - 1]]
