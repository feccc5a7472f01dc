import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from bellwerner import (
    ABSENT,
    BellExpression,
    CapExceeded,
    block,
    block_sizes,
    builtin,
    canonical_patterns,
    is_homogeneous,
    new_expression,
)
from bellwerner import expressions
from bellwerner.expressions import canonical_tensor, coefficient_tensor, term_slots
from helpers import (
    BlockView,
    from_vector,
    random_expression,
    reference_terms,
    term_index,
    to_vector,
    validate_pattern,
)


def test_dimension_counts():
    for m in range(1, 6):
        assert len(canonical_patterns(m)) == 3 ** m - 1


def test_term_index_anchors():
    assert term_index("0_", 2) == 0
    assert term_index("_1", 2) == 7


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: block_sizes(0), "parties must be >= 1"),
        (lambda: canonical_patterns(0), "parties must be >= 1"),
        (lambda: builtin("MERMIN(x)"), "unknown builtin expression 'MERMIN(x)'"),
    ],
    ids=["block_sizes", "canonical_patterns", "builtin"],
)
def test_public_inputs_are_checked(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_expression_does_not_equal_its_name():
    # __eq__ returns NotImplemented, so Python falls back to identity
    assert (builtin("CHSH") == "CHSH") is False


def test_block_sizes_three_parties():
    lengths, offsets = block_sizes(3)
    assert lengths == [18, 6, 2]
    assert offsets == [0, 18, 24, 26]


def test_block_sizes_partition_dimension():
    for m in range(1, 7):
        lengths, offsets = block_sizes(m)
        assert len(lengths) == m
        assert len(offsets) == m + 1
        assert offsets[0] == 0
        assert offsets[-1] == 3 ** m - 1
        assert all(offsets[j + 1] - offsets[j] == lengths[j] for j in range(m))


def test_canonical_patterns_index_bijection():
    for m in range(1, 5):
        pats = canonical_patterns(m)
        assert len(set(pats)) == len(pats)
        for slot, pat in enumerate(pats):
            assert term_index(pat, m) == slot


def test_block_major_layout():
    # first non-absent party never decreases along the canonical order
    for m in range(2, 5):
        firsts = [len(p) - len(p.lstrip(ABSENT)) for p in canonical_patterns(m)]
        assert firsts == sorted(firsts)


@given(st.integers(min_value=1, max_value=4), st.data())
def test_term_index_roundtrip(m, data):
    pats = canonical_patterns(m)
    pat = data.draw(st.sampled_from(pats))
    assert pats[term_index(pat, m)] == pat


def test_pattern_validation():
    with pytest.raises(ValueError):
        term_index("012", 3)
    with pytest.raises(ValueError):
        term_index("0", 2)
    with pytest.raises(ValueError):
        term_index("__", 2)  # constant term has no slot
    with pytest.raises(ValueError):
        term_index(7, 2)


def test_new_expression_merges_and_drops():
    e = new_expression(2, [("00", 1.0), ("00", 2.0), ("01", 1.0), ("01", -1.0)])
    assert len(e) == 1
    assert e.coeffs["00"] == 3.0
    with pytest.raises(ValueError):
        new_expression(2, [("00", float("nan"))])
    with pytest.raises(ValueError):
        new_expression(0, [])


def test_new_expression_rejects_a_bool_party_count():
    with pytest.raises(ValueError, match="^parties must be a positive integer$"):
        new_expression(True, [("0", 1.0)])


@pytest.mark.parametrize(
    "term, problem",
    [
        (("11", "1.5"), "coefficient for '11' must be a real number, got str"),
        (("11", True), "coefficient for '11' must be a real number, got bool"),
        (("11", np.bool_(True)), "coefficient for '11' must be a real number, got bool"),
        (("11", b"2"), "coefficient for '11' must be a real number, got bytes"),
        (("11", None), "coefficient for '11' must be a real number, got NoneType"),
        (("11", 1 + 0j), "coefficient for '11' must be a real number, got complex"),
        (("11", 10**400), "coefficient for '11' is not finite"),
        (("11", Fraction(10**400)), "coefficient for '11' is not finite"),
        (("11", 1.0, 2.0), "must be a (pattern, coeff) pair"),
        (None, "must be a (pattern, coeff) pair"),
        ("00", "must be a (pattern, coeff) pair"),
        (b"0a", "must be a (pattern, coeff) pair"),
        (bytearray(b"0a"), "must be a (pattern, coeff) pair"),
    ],
    ids=["str", "bool", "np.bool_", "bytes", "None", "complex", "int-overflow",
         "fraction-overflow", "3-tuple", "not-iterable", "str-term", "bytes-term",
         "bytearray-term"],
)
def test_new_expression_names_a_bad_term(term, problem):
    # the second entry is bad; a third, also bad, is not the one named
    terms = [("00", 1.0), term, ("11", "x")]
    with pytest.raises(ValueError) as err:
        new_expression(2, terms)
    assert type(err.value) is ValueError
    assert str(err.value) == f"terms[1]: {problem}"


@pytest.mark.parametrize(
    "coeff", [np.float64(0.5), np.int64(3), np.float32(0.25), Fraction(1, 3), 2**80],
    ids=["np.float64", "np.int64", "np.float32", "Fraction", "big-int"],
)
def test_new_expression_converts_other_reals_with_float(coeff):
    expr = new_expression(2, [("00", 1.0), ("11", coeff)])
    assert expr.terms() == (("00", 1.0), ("11", float(coeff)))


@pytest.mark.parametrize("patterns", [("00", "00"), ("00", "11")], ids=["merged", "distinct"])
def test_overflowing_coefficient_sum_is_rejected(patterns):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^the sum of \|coeff\| overflows the float range$"):
            new_expression(2, [(p, 1e308) for p in patterns])


def test_vector_roundtrip():
    rng = np.random.default_rng(11)
    for _ in range(30):
        m = int(rng.integers(1, 5))
        e = random_expression(rng, m)
        back = from_vector(m, to_vector(e))
        assert back == e
    with pytest.raises(ValueError):
        from_vector(2, np.zeros(5))


def test_block_slices_partition_terms():
    rng = np.random.default_rng(5)
    for _ in range(20):
        m = int(rng.integers(2, 5))
        e = random_expression(rng, m, max_terms=10)
        slots, coeffs = term_slots(e)
        lengths, offsets = block_sizes(m)
        full = to_vector(e)
        lo = 0
        for j in range(1, m + 1):
            part = block(e, j)
            part_slots, part_coeffs = term_slots(part)
            hi = lo + len(part)
            # the next row range: absent before party j, present at party j
            assert not slots[lo:hi, : j - 1].any() and slots[lo:hi, j - 1].all()
            assert np.array_equal(slots[lo:hi, j - 1 :], part_slots)
            assert np.array_equal(coeffs[lo:hi], part_coeffs)
            # and block j's range of the canonical vector
            vec = to_vector(part)
            assert np.array_equal(vec[: lengths[j - 1]], full[offsets[j - 1] : offsets[j]])
            assert not vec[lengths[j - 1] :].any()
            lo = hi
        assert lo == len(e)


def test_block_reduction_strips_leading_absent():
    e = new_expression(4, [("__1_", 1.0), ("__01", 2.0), ("0___", 3.0)])
    reduced = block(e, 3)
    assert reduced.parties == 2
    assert reduced.coeffs == {"1_": 1.0, "01": 2.0}
    assert reduced == new_expression(2, [("1_", 1.0), ("01", 2.0)])
    assert block(e, 1) == new_expression(4, [("0___", 3.0)])
    assert len(block(e, 2)) == 0 and block(e, 2).parties == 3
    for j in (0, 5):
        with pytest.raises(ValueError):
            block(e, j)


# coefficients that collide: duplicates cancel, -0.0 and tiny ones underflow
_COEFFS = st.sampled_from([1.0, -1.0, 0.5, 3.0, 0.0, -0.0, 1e-310, 0.1, 0.2]) | st.floats(
    allow_nan=False, allow_infinity=False
)


@st.composite
def _term_lists(draw):
    """(m, terms): picks with repeats from a pool of patterns, sometimes one invalid."""
    m = draw(st.integers(1, 8))
    pattern = st.text("_01", min_size=m, max_size=m).filter(lambda p: p != "_" * m)
    pool = draw(st.lists(pattern, min_size=1, max_size=8))
    picks = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=16))
    if draw(st.integers(0, 3)) == 0:
        base = draw(st.sampled_from(pool))
        k = draw(st.integers(0, m - 1))
        symbol = draw(st.sampled_from("x2\u00df"))
        bad = [base[:k] + symbol + base[k + 1 :], base[:k], base + "0", "_" * m, None]
        picks.insert(draw(st.integers(0, len(picks))), draw(st.sampled_from(bad)))
    return m, [(p, draw(_COEFFS)) for p in picks]


def _valid(pattern, parties):
    try:
        validate_pattern(pattern, parties)
    except ValueError:
        return False
    return True


@given(_term_lists())
@example((3, [("010", 1.0), ("01", 1.0)]))
@example((2, [("00", 1.0), ("000", 1.0), ("11", 2.0)]))
@example((3, [("010", 1.0), ("0x1", 1.0), ("01", 1.0)]))
@example((2, [("1_", 1.0), ("0\u00df", 1.0)]))
@example((1, [("\ud800", 1.0)]))
@example((3, [("010", 1.0), ("___", 1.0)]))
@example((2, [("00", 1.0), (None, 1.0)]))
@example((2, [("0", 1.0), ("000", 1.0)]))  # ragged, yet its total length is count * parties
@example((2, [("0\x00", 1.0)]))  # an ASCII control character
@example((1, [("0", 1.0)] * 11 + [("0", 8.988465674311579e307), ("0", 8.98846567431158e307)]))
@example((2, [("00", 1e308), ("11", 1e308)]))
def test_array_construction_matches_reference(case):
    m, terms = case
    try:
        expected = reference_terms(m, terms)
    except ValueError as exc:
        with pytest.raises(ValueError) as err:
            new_expression(m, terms)
        if all(_valid(p, m) for p, _ in terms):  # only the |coeff| sum is at fault
            assert str(err.value) == str(exc)
            return
        first = next(i for i, (p, _) in enumerate(terms) if not _valid(p, m))
        assert str(err.value).startswith(f"terms[{first}]: ")
        return
    e = new_expression(m, terms)
    assert e.terms() == expected
    assert [c.hex() for _, c in e.terms()] == [c.hex() for _, c in expected]
    assert e.coeffs == dict(expected)
    flipped = new_expression(m, terms[::-1])
    assert (e == flipped) == (dict(reference_terms(m, terms[::-1])) == dict(expected))
    assert e == new_expression(m, expected[::-1])
    for j in range(1, m + 1):
        part = block(e, j)
        assert part.parties == m - j + 1
        assert part.terms() == BlockView(e, j).reduced()


def test_homogeneity_flags():
    assert is_homogeneous(builtin("CHSH"))
    assert is_homogeneous(builtin("MERMIN"))
    assert not is_homogeneous(builtin("CH"))
    assert not is_homogeneous(builtin("SASA"))


def test_builtins():
    assert builtin("CHSH").parties == 2
    assert builtin("chsh") == builtin("CHSH")
    assert builtin("CH").parties == 2
    assert builtin("SASA").parties == 4
    assert builtin("MERMIN") == builtin("MERMIN(3)")
    assert builtin("MERMIN(5)").parties == 5
    with pytest.raises(ValueError):
        builtin("MERMIN(4)")
    with pytest.raises(ValueError):
        builtin("nope")


def test_mermin_term_structure():
    e = builtin("MERMIN(5)")
    assert is_homogeneous(e)
    for pattern, coeff in e.terms():
        ones = pattern.count("1")
        assert ones % 2 == 1
        assert coeff == (1.0 if ones % 4 == 1 else -1.0)


def test_mermin_parties_are_capped_before_its_settings(monkeypatch):
    # MERMIN(21) enumerated its 2^21 settings (7.6 s, about 1 GB) before any
    # cap applied; int() reads "5_1" as 51
    with monkeypatch.context() as patched:
        patched.setattr(expressions, "_mermin_terms", None)  # nothing may be enumerated
        for name in ("MERMIN(17)", "MERMIN(5_1)"):
            with pytest.raises(CapExceeded, match=r"^parties of MERMIN\(m\): \d+ exceeds the cap"):
                builtin(name)
    e = builtin("MERMIN(15)")
    assert e.parties == 15
    assert len(term_slots(e)[1]) == 2 ** 14


def test_equality_and_repr():
    a = new_expression(2, [("00", 1.0)])
    b = new_expression(2, [("00", 1.0)])
    assert a == b and a != new_expression(2, [("00", 2.0)])
    assert "BellExpression" in repr(a)
    assert isinstance(a, BellExpression)


def test_canonical_sort_matches_term_index():
    rng = np.random.default_rng(11)
    for m in range(1, 7):
        patterns = canonical_patterns(m)
        chosen = rng.choice(len(patterns), size=min(len(patterns), 60), replace=False)
        expr = new_expression(m, [(patterns[i], 1.0 + i) for i in chosen])
        ordered = [p for p, _ in expr.terms()]
        assert ordered == sorted(ordered, key=lambda p: term_index(p, m))


def test_tensor_layout():
    rng = np.random.default_rng(12)
    for m in range(1, 5):
        expr = random_expression(rng, m, max_terms=12)
        slots, coeffs = term_slots(expr)
        assert slots.shape == (len(expr), m)
        for row, (pattern, coeff) in zip(slots, expr.terms()):
            assert "".join("_01"[k] for k in row) == pattern
        assert list(coeffs) == [c for _, c in expr.terms()]
        tensor = coefficient_tensor(expr)
        assert tensor.shape == (3,) * m
        assert np.array_equal(canonical_tensor(to_vector(expr), m), tensor)
        assert tensor.flat[0] == 0.0
        for pattern, coeff in expr.terms():
            assert tensor[tuple("_01".index(ch) for ch in pattern)] == coeff
