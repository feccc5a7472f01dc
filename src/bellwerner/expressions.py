"""Bell expressions over m parties with two settings and two outcomes per party.

Conventions
-----------
A term is a pattern string of length m over the alphabet {_, 0, 1}: "_"
means the party is absent from the term (identity slot), "0" and "1"
select the party's first or second measurement setting.  The all-"_"
pattern (a constant) is excluded, leaving 3^m - 1 admissible patterns.

Canonical slot order is block-major.  Block j collects the patterns
whose first non-"_" symbol sits at party j (1-based); it has
l_j = 2 * 3^(m-j) slots and occupies the contiguous index range
[L_{j-1}, L_j) with L_0 = 0 and L_j = l_1 + ... + l_j.  Inside a block,
patterns sort by the leading party's setting ("0" before "1") and then
lexicographically over the remaining parties with "_" < "0" < "1".

Tensor layout.  An expression is also a (3,)*m coefficient tensor: party
j's symbol is axis j's index, 0 for "_", 1 for "0" and 2 for "1", and the
constant slot (all zeros) is zero.  Read as a base-3 number with party 1
most significant, a pattern's slot orders the blocks backwards: block j
fills [3^(m-j), 3^(m-j+1)) in canonical order, so the flattened tensor is
the constant slot followed by blocks m, m-1, ..., 1 (`term_slots`,
`coefficient_tensor`, `canonical_tensor`).
"""

from __future__ import annotations

import itertools
import math
from types import MappingProxyType
from typing import Iterable, Mapping

import numpy as np

ABSENT = "_"

_ALPHABET = frozenset("_01")
_TAIL_RANK = {"_": 0, "0": 1, "1": 2}
_SLOT = str.maketrans("_01", "012")


def validate_pattern(pattern: str, parties: int) -> None:
    """Raise ValueError unless pattern is a valid length-`parties` term."""
    if not isinstance(pattern, str):
        raise ValueError(f"pattern must be a string, got {type(pattern).__name__}")
    if len(pattern) != parties:
        raise ValueError(f"pattern {pattern!r} does not have length {parties}")
    if not set(pattern) <= _ALPHABET:
        bad = sorted(set(pattern) - _ALPHABET)
        raise ValueError(f"pattern {pattern!r} contains invalid symbols {bad}")
    if pattern.count(ABSENT) == parties:
        raise ValueError("all-absent pattern (constant term) is not allowed")


def block_sizes(parties: int) -> tuple[list[int], list[int]]:
    """Return (lengths, offsets): l_j for j=1..m and L_0..L_m with L_0 = 0."""
    if parties < 1:
        raise ValueError("parties must be >= 1")
    lengths = [2 * 3 ** (parties - j) for j in range(1, parties + 1)]
    offsets = [0]
    for n in lengths:
        offsets.append(offsets[-1] + n)
    return lengths, offsets


def term_index(pattern: str, parties: int) -> int:
    """Canonical slot of a pattern, a bijection onto [0, 3^m - 1)."""
    validate_pattern(pattern, parties)
    lead = next(k for k, ch in enumerate(pattern) if ch != ABSENT)
    _, offsets = block_sizes(parties)
    idx = offsets[lead]
    if pattern[lead] == "1":
        idx += 3 ** (parties - lead - 1)
    for k in range(lead + 1, parties):
        idx += _TAIL_RANK[pattern[k]] * 3 ** (parties - k - 1)
    return idx


def canonical_patterns(parties: int) -> list[str]:
    """All 3^m - 1 patterns in canonical slot order."""
    if parties < 1:
        raise ValueError("parties must be >= 1")
    out: list[str] = []
    for lead in range(parties):
        head = ABSENT * lead
        for s in "01":
            for tail in itertools.product("_01", repeat=parties - lead - 1):
                out.append(head + s + "".join(tail))
    return out


def _canonical_key(item: tuple[str, float]) -> tuple[int, str]:
    """Sort key of a (pattern, coeff) pair in canonical slot order.

    The leading "_" count is the block; within a block the translated
    pattern compares as the base-3 slot, which is the canonical order.
    """
    pattern = item[0]
    return len(pattern) - len(pattern.lstrip(ABSENT)), pattern.translate(_SLOT)


class BellExpression:
    """Immutable real coefficient map over canonical term patterns.

    Zero coefficients are never stored, so two expressions are equal
    exactly when their canonical vectors match entry for entry.
    """

    __slots__ = ("_parties", "_coeffs", "_ordered")

    def __init__(self, parties: int, coeffs: Mapping[str, float]):
        self._parties = parties
        self._coeffs = dict(coeffs)
        self._ordered = tuple(sorted(self._coeffs.items(), key=_canonical_key))

    @property
    def parties(self) -> int:
        return self._parties

    @property
    def coeffs(self) -> Mapping[str, float]:
        return MappingProxyType(self._coeffs)

    @property
    def dimension(self) -> int:
        return 3 ** self._parties - 1

    def terms(self) -> tuple[tuple[str, float], ...]:
        """(pattern, coefficient) pairs in canonical slot order."""
        return self._ordered

    def to_vector(self) -> np.ndarray:
        vec = np.zeros(self.dimension)
        for pattern, coeff in self._ordered:
            vec[term_index(pattern, self._parties)] = coeff
        return vec

    def __len__(self) -> int:
        return len(self._coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BellExpression):
            return NotImplemented
        return self._parties == other._parties and self._coeffs == other._coeffs

    def __repr__(self) -> str:
        shown = ", ".join(f"{p}:{c:g}" for p, c in self._ordered[:4])
        more = "" if len(self._ordered) <= 4 else f", ... ({len(self._ordered)} terms)"
        return f"BellExpression(parties={self._parties}, {{{shown}{more}}})"


def new_expression(parties: int, terms: Iterable[tuple[str, float]]) -> BellExpression:
    """Build an expression, merging duplicate patterns and dropping zero sums."""
    if not isinstance(parties, int) or parties < 1:
        raise ValueError("parties must be a positive integer")
    acc: dict[str, float] = {}
    for pattern, coeff in terms:
        validate_pattern(pattern, parties)
        c = float(coeff)
        if not math.isfinite(c):
            raise ValueError(f"coefficient for {pattern!r} is not finite")
        acc[pattern] = acc.get(pattern, 0.0) + c
    coeffs = {p: c for p, c in acc.items() if c != 0.0}
    return BellExpression(parties, coeffs)


def term_slots(expr: BellExpression) -> tuple[np.ndarray, np.ndarray]:
    """Tensor slots and coefficients of the terms, in term order.

    Row t of the (terms, m) integer array is term t's index into the (3,)*m
    coefficient tensor: per party 0 for "_", 1 for "0", 2 for "1".
    """
    terms = expr.terms()
    text = "".join(p for p, _ in terms).translate(_SLOT).encode("ascii")
    digits = np.frombuffer(text, dtype=np.uint8).reshape(len(terms), expr.parties)
    return digits.astype(np.intp) - ord("0"), np.array([c for _, c in terms], dtype=float)


def coefficient_tensor(expr: BellExpression, dtype=float) -> np.ndarray:
    """The expression as a (3,)*m tensor indexed by `term_slots`."""
    slots, coeffs = term_slots(expr)
    out = np.zeros((3,) * expr.parties, dtype=dtype)
    out[tuple(slots.T)] = coeffs
    return out


def canonical_tensor(vectors: np.ndarray, parties: int) -> np.ndarray:
    """Canonical vectors (..., 3^m - 1) as (..., 3, ..., 3) coefficient tensors.

    The constant slot is zero and the blocks go in reverse order (see the
    module docstring), so this is one concatenation of slices.
    """
    vectors = np.asarray(vectors, dtype=float)
    _, offsets = block_sizes(parties)
    batch = vectors.shape[:-1]
    pieces = [vectors[..., offsets[j] : offsets[j + 1]] for j in reversed(range(parties))]
    flat = np.concatenate([np.zeros(batch + (1,)), *pieces], axis=-1)
    return flat.reshape(batch + (3,) * parties)


def from_vector(parties: int, vector: np.ndarray) -> BellExpression:
    """Inverse of to_vector: nonzero slots become stored terms."""
    vec = np.asarray(vector, dtype=float)
    dim = 3 ** parties - 1
    if vec.shape != (dim,):
        raise ValueError(f"vector must have shape ({dim},), got {vec.shape}")
    patterns = canonical_patterns(parties)
    coeffs = {patterns[i]: float(vec[i]) for i in np.nonzero(vec)[0]}
    return BellExpression(parties, coeffs)


class BlockView:
    """The terms of an expression whose first present party is `first_party`."""

    __slots__ = ("_parent", "_first_party", "_coeffs")

    def __init__(self, parent: BellExpression, first_party: int):
        m = parent.parties
        if not 1 <= first_party <= m:
            raise ValueError(f"block index must be in [1, {m}], got {first_party}")
        self._parent = parent
        self._first_party = first_party
        lead = first_party - 1
        self._coeffs = {
            p: c
            for p, c in parent.coeffs.items()
            if p[:lead] == ABSENT * lead and p[lead] != ABSENT
        }

    @property
    def parent(self) -> BellExpression:
        return self._parent

    @property
    def first_party(self) -> int:
        return self._first_party

    @property
    def coeffs(self) -> Mapping[str, float]:
        return MappingProxyType(self._coeffs)

    @property
    def is_empty(self) -> bool:
        return not self._coeffs

    @property
    def slot_range(self) -> tuple[int, int]:
        _, offsets = block_sizes(self._parent.parties)
        return offsets[self._first_party - 1], offsets[self._first_party]

    def to_vector(self) -> np.ndarray:
        """Full-length canonical vector, zero outside this block's slot range."""
        m = self._parent.parties
        vec = np.zeros(3 ** m - 1)
        for pattern, coeff in self._coeffs.items():
            vec[term_index(pattern, m)] = coeff
        return vec

    def reduced(self) -> BellExpression:
        """Same terms as an expression over parties first_party..m only.

        Valid because every pattern in block j is absent on parties < j,
        so slicing off the leading "_" run keeps patterns well formed.
        """
        lead = self._first_party - 1
        m = self._parent.parties - lead
        return new_expression(m, [(p[lead:], c) for p, c in self._coeffs.items()])

    def __repr__(self) -> str:
        return (
            f"BlockView(first_party={self._first_party}, "
            f"terms={len(self._coeffs)}, parties={self._parent.parties})"
        )


def block(expr: BellExpression, j: int) -> BlockView:
    """Block j of the expression; empty blocks are permitted and flagged."""
    return BlockView(expr, j)


def is_homogeneous(expr: BellExpression) -> bool:
    """True iff every term involves all parties (no ABSENT symbols)."""
    return all(ABSENT not in p for p in expr.coeffs)


def _mermin_terms(parties: int) -> list[tuple[str, float]]:
    # Parity-style construction: keep patterns with an odd number of "1"
    # settings; sign alternates with that count mod 4.
    out = []
    for pat in itertools.product("01", repeat=parties):
        ones = sum(ch == "1" for ch in pat)
        if ones % 2 == 1:
            out.append(("".join(pat), 1.0 if ones % 4 == 1 else -1.0))
    return out


def builtin(name: str) -> BellExpression:
    """Well-known expressions by name: CHSH, CH, SASA, MERMIN or MERMIN(m).

    MERMIN defaults to three parties; MERMIN(m) accepts odd m >= 3.
    CH uses party order (A, B); SASA is the four-party cluster-state
    witness with party order (A, B, C, D).
    """
    key = name.strip().upper().replace(" ", "")
    if key == "CHSH":
        return new_expression(2, [("00", 1.0), ("01", 1.0), ("10", 1.0), ("11", -1.0)])
    if key == "CH":
        return new_expression(
            2,
            [
                ("1_", 1.0),
                ("_0", 1.0),
                ("01", 1.0),
                ("11", -1.0),
                ("10", -1.0),
                ("00", -1.0),
            ],
        )
    if key == "SASA":
        return new_expression(
            4,
            [("0_10", 1.0), ("0_01", 1.0), ("1000", 1.0), ("1011", -1.0)],
        )
    if key == "MERMIN":
        return new_expression(3, _mermin_terms(3))
    if key.startswith("MERMIN(") and key.endswith(")"):
        body = key[len("MERMIN(") : -1]
        try:
            m = int(body)
        except ValueError:
            raise ValueError(f"unknown builtin expression {name!r}") from None
        if m < 3 or m % 2 == 0:
            raise ValueError("MERMIN(m) requires odd m >= 3")
        return new_expression(m, _mermin_terms(m))
    raise ValueError(f"unknown builtin expression {name!r}")
