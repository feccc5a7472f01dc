"""Bell expressions over m parties with two settings and two outcomes per party.

Conventions
-----------
A term is a pattern string of length m over the alphabet {_, 0, 1}: "_"
means the party is absent from the term (identity slot), "0" and "1"
select the party's first or second measurement setting.  The all-"_"
pattern (a constant) is excluded, leaving 3^m - 1 admissible patterns.

Storage.  An expression holds two arrays in canonical term order, built
once by `new_expression`: the slots, a (terms, m) integer array whose
column j is party j's symbol as 0 for "_", 1 for "0" and 2 for "1", and
the nonzero coefficients (`term_slots`).  Patterns exist only for I/O and
display: `terms()`, `coeffs` and `repr` spell them out on demand.

Canonical order is block-major.  Block j collects the terms whose first
non-"_" symbol sits at party j (1-based).  Inside a block, terms sort by
their slots read as a base-3 number with party 1 most significant: by the
leading party's setting ("0" before "1") and then lexicographically over
the remaining parties with "_" < "0" < "1".  A block is therefore a
contiguous row range, and `block` returns it by slicing.  Over all 3^m - 1
patterns (`canonical_patterns`), block j has l_j = 2 * 3^(m-j) slots and
occupies the index range [L_{j-1}, L_j) with L_0 = 0 and
L_j = l_1 + ... + l_j (`block_sizes`); a canonical vector lists the
coefficients of all patterns in that order.

Tensor layout.  An expression is also a (3,)*m coefficient tensor indexed
by the slots, whose constant slot (all zeros) is zero.  Read as a base-3
number with party 1 most significant, a pattern's slot orders the blocks
backwards: block j fills [3^(m-j), 3^(m-j+1)) in canonical order, so the
flattened tensor is the constant slot followed by blocks m, m-1, ..., 1
(`coefficient_tensor`, `canonical_tensor`).
"""

from __future__ import annotations

import contextlib
import itertools
import math
import numbers
from typing import Iterable, Mapping

import numpy as np

from .errors import check_cap

ABSENT = "_"
STATE_MAX_PARTIES = 16  # the parties of a 2^m state vector

# slot of each ASCII code: "_" 0, "0" 1, "1" 2, any other 3
_SLOT_OF = np.full(128, 3, dtype=np.intp)
_SLOT_OF[[ord(ABSENT), ord("0"), ord("1")]] = [0, 1, 2]
_SYMBOLS = np.frombuffer(b"_01", dtype=np.uint8)


def _pattern_problem(pattern, parties: int) -> str:
    """Why pattern is not a valid length-`parties` term, or "" if it is."""
    if not isinstance(pattern, str):
        return f"pattern must be a string, got {type(pattern).__name__}"
    if len(pattern) != parties:
        return f"pattern {pattern!r} does not have length {parties}"
    bad = sorted(set(pattern) - set("_01"))
    if bad:
        return f"pattern {pattern!r} contains invalid symbols {bad}"
    if pattern.count(ABSENT) == parties:
        return "all-absent pattern (constant term) is not allowed"
    return ""


def _number_problem(value, name: str) -> str:
    """Why value, called name (a coefficient or an amplitude), is not a finite real, or ""."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return f"{name} must be a real number, got {type(value).__name__}"
    with contextlib.suppress(OverflowError):  # an int or a fraction beyond the float range
        if math.isfinite(value):
            return ""
    return f"{name} is not finite"


def _pattern_slots(patterns: list, parties: int):
    """(terms, m) slots of the patterns, checked all at once; None if one is invalid."""
    try:
        codes = np.frombuffer("".join(patterns).encode("ascii"), dtype=np.uint8)
    except (TypeError, UnicodeEncodeError):  # a pattern is not an ASCII string
        return None
    if set(map(len, patterns)) <= {parties}:
        slots = _SLOT_OF[codes].reshape(len(patterns), parties)
        if not (slots == 3).any() and (slots != 0).any(axis=1).all():
            return slots
    return None


def _spell(slots: np.ndarray) -> list[str]:
    """The pattern strings of slot rows."""
    width = slots.shape[1]
    text = _SYMBOLS[slots].tobytes().decode("ascii")
    return [text[i : i + width] for i in range(0, len(text), width)]


def block_sizes(parties: int) -> tuple[list[int], list[int]]:
    """Return (lengths, offsets): l_j for j=1..m and L_0..L_m with L_0 = 0."""
    if parties < 1:
        raise ValueError("parties must be >= 1")
    lengths = [2 * 3 ** (parties - j) for j in range(1, parties + 1)]
    offsets = [0]
    for n in lengths:
        offsets.append(offsets[-1] + n)
    return lengths, offsets


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


class BellExpression:
    """Immutable expression held as canonical term arrays (see the module docstring).

    The constructor trusts its arrays: rows distinct and in canonical
    order, coefficients nonzero.  `new_expression` and `block` build them,
    so two expressions are equal exactly when their arrays match.
    """

    __slots__ = ("_parties", "_slots", "_coeffs")

    def __init__(self, parties: int, slots: np.ndarray, coeffs: np.ndarray):
        slots.flags.writeable = False
        coeffs.flags.writeable = False
        self._parties = parties
        self._slots = slots
        self._coeffs = coeffs

    @property
    def parties(self) -> int:
        return self._parties

    @property
    def coeffs(self) -> Mapping[str, float]:
        """Pattern -> coefficient, spelled out on demand."""
        return dict(self.terms())

    def terms(self) -> tuple[tuple[str, float], ...]:
        """(pattern, coefficient) pairs in canonical slot order."""
        return tuple(zip(_spell(self._slots), self._coeffs.tolist()))

    def __len__(self) -> int:
        return len(self._coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BellExpression):
            return NotImplemented
        return (
            self._parties == other._parties
            and np.array_equal(self._slots, other._slots)
            and np.array_equal(self._coeffs, other._coeffs)
        )

    def __repr__(self) -> str:
        shown = ", ".join(
            f"{p}:{c:g}" for p, c in zip(_spell(self._slots[:4]), self._coeffs[:4].tolist())
        )
        more = "" if len(self) <= 4 else f", ... ({len(self)} terms)"
        return f"BellExpression(parties={self._parties}, {{{shown}{more}}})"


def _from_lists(parties: int, patterns: list, coeffs: list) -> BellExpression:
    """The expression of parallel pattern and coefficient lists (see new_expression).

    Every term, from a file or a library call, is checked here; when the array
    checks fail, one loop names the first bad entry as terms[i].

    Rows sort by block (the first present party), then by slot party by
    party, which is the canonical order.  Each coefficient is added onto
    its row's zero in input order, so a merged duplicate is the same sum
    as accumulating the entries one by one.  The merged |coeff| sum must be finite.
    """
    slots = _pattern_slots(patterns, parties)
    values = None
    if {type(c) for c in coeffs} <= {int, float}:
        with contextlib.suppress(OverflowError):  # an int beyond the float range
            values = np.array(coeffs, dtype=float)
    if slots is None or values is None or not np.isfinite(values).all():
        for i, (pattern, coeff) in enumerate(zip(patterns, coeffs)):
            name = f"coefficient for {pattern!r}"
            problem = _pattern_problem(pattern, parties) or _number_problem(coeff, name)
            if problem:
                raise ValueError(f"terms[{i}]: {problem}")
        values = np.fromiter(map(float, coeffs), dtype=float, count=len(coeffs))
    # lexsort's last key is the primary one: block, then party 1, 2, ..., m
    # (one base-3 key per row would overflow int64 past 39 parties)
    lead = np.argmax(slots != 0, axis=1)
    order = np.lexsort((*slots.T[::-1], lead))
    ordered = slots[order]
    starts = np.ones(len(order), dtype=bool)
    starts[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    group = np.empty(len(order), dtype=np.intp)
    group[order] = np.cumsum(starts) - 1
    sums = np.zeros(int(starts.sum()))
    with np.errstate(over="ignore"):  # an overflowing merge or sum is reported below
        np.add.at(sums, group, values)
        keep = sums != 0.0
        merged = sums[keep]
        total = np.abs(merged).sum()
    if not np.isfinite(total):  # the bounds' rounding margins scale with it
        raise ValueError("the sum of |coeff| overflows the float range")
    return BellExpression(parties, ordered[starts][keep], merged)


def new_expression(parties: int, terms: Iterable[tuple[str, float]]) -> BellExpression:
    """Build an expression, merging duplicate patterns and dropping zero sums.

    Each term is a (pattern, coeff) pair whose coefficient is a finite real
    number (numbers.Real, such as np.float64 or Fraction; not a bool), checked
    as a file's terms are.  Raises ValueError naming the first bad term as
    terms[i], for a party count that is not a positive int (a bool is not
    one) and when the sum of |coeff| after merging overflows the float range.
    """
    if isinstance(parties, bool) or not isinstance(parties, int) or parties < 1:
        raise ValueError("parties must be a positive integer")
    patterns, coeffs = [], []
    for i, term in enumerate(terms):
        try:
            if isinstance(term, (str, bytes, bytearray)):  # it would unpack into characters
                raise TypeError
            pattern, coeff = term
        except (TypeError, ValueError):
            raise ValueError(f"terms[{i}]: must be a (pattern, coeff) pair") from None
        patterns.append(pattern)
        coeffs.append(coeff)
    return _from_lists(parties, patterns, coeffs)


def term_slots(expr: BellExpression) -> tuple[np.ndarray, np.ndarray]:
    """The expression's read-only slot and coefficient arrays, in term order.

    Row t of the (terms, m) integer array is term t's index into the (3,)*m
    coefficient tensor: per party 0 for "_", 1 for "0", 2 for "1".
    """
    return expr._slots, expr._coeffs


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


def block(expr: BellExpression, j: int) -> BellExpression:
    """Block j as an expression over parties j..m; it may have no terms.

    The block's rows are contiguous and absent on parties before j, so the
    slice without those columns is already a valid canonical expression.
    """
    m = expr.parties
    if not 1 <= j <= m:
        raise ValueError(f"block index must be in [1, {m}], got {j}")
    slots, coeffs = term_slots(expr)
    lo, hi = np.searchsorted(np.argmax(slots != 0, axis=1), [j - 1, j])
    return BellExpression(m - j + 1, slots[lo:hi, j - 1 :], coeffs[lo:hi])


def is_homogeneous(expr: BellExpression) -> bool:
    """True iff every term involves all parties (no ABSENT symbols)."""
    return bool((term_slots(expr)[0] != 0).all())


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

    MERMIN defaults to three parties; MERMIN(m) accepts odd m in [3, STATE_MAX_PARTIES].
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
        check_cap("parties of MERMIN(m)", m, STATE_MAX_PARTIES)  # before its 2^m settings
        return new_expression(m, _mermin_terms(m))
    raise ValueError(f"unknown builtin expression {name!r}")
