import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bellwerner import CapExceeded, ParseError, builtin, new_expression
from bellwerner.fileio import (
    expression_from_document,
    load_expression,
    load_state,
    state_from_document,
)
from bellwerner.werner import STATE_MAX_PARTIES, PureFamily, ghz_amplitudes
from helpers import (
    expression_from_document_loop,
    expression_to_document,
    save_expression,
    save_state,
    state_to_document,
    term_index,
)


def test_expression_roundtrip(tmp_path):
    for name in ("CHSH", "CH", "SASA", "MERMIN"):
        expr = builtin(name)
        path = tmp_path / f"{name}.json"
        save_expression(expr, path)
        assert load_expression(path) == expr


def test_expression_document_is_canonical():
    doc = expression_to_document(builtin("CH"))
    patterns = [t["pattern"] for t in doc["terms"]]
    assert patterns == sorted(patterns, key=lambda p: term_index(p, 2))
    assert doc["parties"] == 2


def test_expression_document_merges_duplicates():
    doc = {
        "parties": 2,
        "terms": [{"pattern": "00", "coeff": 1}, {"pattern": "00", "coeff": 2.5}],
    }
    expr = expression_from_document(doc)
    assert expr.coeffs["00"] == 3.5


@pytest.mark.parametrize(
    "doc",
    [
        [],
        {"terms": [{"pattern": "00", "coeff": 1}]},
        {"parties": "2", "terms": [{"pattern": "00", "coeff": 1}]},
        {"parties": True, "terms": [{"pattern": "00", "coeff": 1}]},
        {"parties": 0, "terms": [{"pattern": "0", "coeff": 1}]},
        {"parties": 2, "terms": []},
        {"parties": 2, "terms": "00"},
        {"parties": 2, "terms": [["00", 1.0]]},
        {"parties": 2, "terms": [{"pattern": 7, "coeff": 1}]},
        {"parties": 2, "terms": [{"pattern": "00"}]},
        {"parties": 2, "terms": [{"pattern": "00", "coeff": "x"}]},
        {"parties": 2, "terms": [{"pattern": "00", "coeff": True}]},
        {"parties": 2, "terms": [{"pattern": "02", "coeff": 1}]},
        {"parties": 2, "terms": [{"pattern": "0", "coeff": 1}]},
        {"parties": 2, "terms": [{"pattern": "__", "coeff": 1}]},
    ],
)
def test_expression_document_rejects(doc):
    with pytest.raises(ParseError):
        expression_from_document(doc)


def test_expression_parse_error_nonfinite():
    with pytest.raises(ParseError):
        expression_from_document(
            {"parties": 1, "terms": [{"pattern": "0", "coeff": math.inf}]}
        )


@pytest.mark.parametrize("patterns", [("00", "11"), ("00", "00")], ids=["distinct", "merged"])
def test_expression_coefficient_sum_must_be_finite(patterns):
    # each coefficient is finite, but their sum of magnitudes is not
    doc = {"parties": 2, "terms": [{"pattern": p, "coeff": 1e308} for p in patterns]}
    with pytest.raises(ParseError, match=r"sum of \|coeff\|"):
        expression_from_document(doc)
    half = {"parties": 2, "terms": [{"pattern": p, "coeff": 5e307} for p in patterns]}
    assert len(expression_from_document(half)) == len(set(patterns))


_BAD_ENTRIES = [
    ["00", 1.0],
    None,
    "00",
    {"coeff": 1.0},
    {"pattern": 7, "coeff": 1.0},
    {"pattern": None, "coeff": 1.0},
    {"pattern": "00"},
    {"pattern": "00", "coeff": "1"},
    {"pattern": "00", "coeff": True},
    {"pattern": "00", "coeff": None},
    {"pattern": "00", "coeff": math.nan},
    {"pattern": "00", "coeff": -math.inf},
    {"pattern": "02", "coeff": 1.0},
    {"pattern": "0", "coeff": 1.0},
    {"pattern": "000", "coeff": 1.0},
    {"pattern": "__", "coeff": 1.0},
]


def _valid_terms(rng, count):
    patterns = ["_0", "_1", "0_", "1_", "00", "01", "10", "11"]
    terms = []
    for _ in range(count):
        pattern = patterns[int(rng.integers(len(patterns)))]
        coeff = int(rng.integers(-3, 4)) if rng.random() < 0.3 else float(rng.normal())
        terms.append({"pattern": pattern, "coeff": coeff})
    return terms


def _outcome(load, doc):
    try:
        expr = load(doc)
    except ParseError as exc:
        return "error", str(exc)
    return "ok", expr.terms()


def test_expression_document_matches_entry_loop():
    # a bad entry at several indices, alone or ahead of a second bad entry,
    # against the per-entry loop the whole-array check replaced
    rng = np.random.default_rng(71)
    for bad in _BAD_ENTRIES:
        for index in (0, 1, 17, 39):
            for second in (None, {"pattern": "0", "coeff": math.inf}):
                terms = _valid_terms(rng, 40)
                terms[index] = bad
                if second is not None and index < 39:
                    terms[39] = second
                doc = {"parties": 2, "terms": terms}
                got = _outcome(expression_from_document, doc)
                assert got[0] == "error"
                assert got == _outcome(expression_from_document_loop, doc)


def test_expression_document_valid_matches_entry_loop():
    rng = np.random.default_rng(72)
    extra = [2**64 + 1, -(2**80), 2**63, np.float64(0.25), 0, -0.0]
    for count in (1, 5, 200):
        terms = _valid_terms(rng, count)
        for value in extra:
            terms.append({"pattern": "11", "coeff": value})
            doc = {"parties": 2, "terms": terms}
            got = expression_from_document(doc)
            ref = expression_from_document_loop(doc)
            assert [(p, float(c).hex()) for p, c in got.terms()] == [
                (p, float(c).hex()) for p, c in ref.terms()
            ]


def test_expression_document_int_beyond_float_range():
    # float() of such an int overflows; it is reported like an infinity
    for value in (10**400, -(2**1024)):
        terms = [{"pattern": "0", "coeff": 1.0}, {"pattern": "1", "coeff": value}]
        doc = {"parties": 1, "terms": terms}
        with pytest.raises(ParseError, match=r"terms\[1\]: field 'coeff' must be finite"):
            expression_from_document(doc)


def test_load_expression_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ParseError) as err:
        load_expression(path)
    assert "line" in str(err.value)


def test_load_expression_missing_file(tmp_path):
    with pytest.raises(ParseError):
        load_expression(tmp_path / "absent.json")


@pytest.mark.parametrize(
    "load, kind, data",
    [
        (load_expression, "expression",
         b'{"parties": 1, "terms": [{"pattern": "\xff", "coeff": 1}]}'),
        (load_state, "state", b'{"parties": 1, "amplitudes": [{"index": "\xff", "re": 1}]}'),
    ],
    ids=["expression", "state"],
)
def test_load_file_not_utf8(tmp_path, load, kind, data):
    path = tmp_path / "latin1.json"
    path.write_bytes(data)
    with pytest.raises(ParseError) as err:
        load(path)
    assert str(err.value) == f"{kind} file {path}: not UTF-8 at byte {data.index(0xFF)}"


_DEEP = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize(
    "load, kind, text",
    [
        (load_expression, "expression", "[" * 100_000),
        (load_expression, "expression", '{"parties": 1, "terms": %s}' % _DEEP),
        (load_state, "state", "[" * 100_000),
        (load_state, "state", '{"parties": 1, "amplitudes": %s}' % _DEEP),
    ],
    ids=["expression", "expression-terms", "state", "state-amplitudes"],
)
def test_load_file_nested_too_deeply(tmp_path, load, kind, text):
    # json.loads raises RecursionError, a RuntimeError, which the CLI keeps for failed self-checks
    path = tmp_path / "deep.json"
    path.write_text(text)
    with pytest.raises(ParseError) as err:
        load(path)
    assert str(err.value) == f"{kind} file {path}: JSON nested too deeply"


def test_state_roundtrip(tmp_path):
    fam = PureFamily(ghz_amplitudes(3, 0.7))
    path = tmp_path / "ghz3.json"
    save_state(fam, path)
    back = load_state(path)
    assert back.parties == 3
    assert np.allclose(back.amplitudes, fam.amplitudes)


def test_state_document_skips_zeros():
    doc = state_to_document(PureFamily(ghz_amplitudes(2, 0.4)))
    assert {e["index"] for e in doc["amplitudes"]} == {"00", "11"}


def test_state_document_complex_and_default_im():
    doc = {
        "parties": 1,
        "amplitudes": [
            {"index": "0", "re": 0.6},
            {"index": "1", "re": 0.0, "im": 0.8},
        ],
    }
    fam = state_from_document(doc)
    assert fam.amplitudes[0] == 0.6
    assert fam.amplitudes[1] == 0.8j


@pytest.mark.parametrize(
    "doc",
    [
        {"parties": 2, "amplitudes": []},
        {"parties": 2, "amplitudes": [{"index": "0", "re": 1.0}]},
        {"parties": 2, "amplitudes": [{"index": "02", "re": 1.0}]},
        {"parties": 2, "amplitudes": [{"index": 3, "re": 1.0}]},
        {"parties": 2, "amplitudes": [{"index": "00", "re": "big"}]},
        {"parties": 2, "amplitudes": [{"index": "00", "re": 1.0, "im": 10**400}]},
        {
            "parties": 2,
            "amplitudes": [
                {"index": "00", "re": 1.0},
                {"index": "00", "re": 0.0},
            ],
        },
    ],
)
def test_state_document_rejects(doc):
    with pytest.raises(ParseError):
        state_from_document(doc)


def test_state_document_names_an_entry_that_is_not_an_object():
    with pytest.raises(ParseError, match=r"^amplitudes\[0\]: must be an object$"):
        state_from_document({"parties": 1, "amplitudes": [["0", 1.0]]})


# half the draws stay within the 16-party state cap, half go up to 64
_PARTIES = st.integers(1, STATE_MAX_PARTIES) | st.integers(STATE_MAX_PARTIES + 1, 64)


def _documents(parties, list_field, key, alphabet, value_key):
    """Documents declaring `parties` whose entries mostly have keys of that
    length, with malformed keys and values mixed in."""
    number = st.sampled_from([1.0, -1.0, 0.0]) | st.floats(width=32) | st.text(max_size=1)
    entry = st.fixed_dictionaries(
        {
            key: st.text(alphabet, min_size=parties, max_size=parties)
            | st.text(alphabet + "2", max_size=parties + 1),
            value_key: number,
        },
        optional={"im": number},
    )
    return st.fixed_dictionaries(
        {
            "parties": st.just(parties),
            list_field: st.lists(entry, max_size=3) | st.none(),
        }
    )


@given(_PARTIES, st.data())
def test_state_document_fuzz(parties, data):
    doc = data.draw(_documents(parties, "amplitudes", "index", "01", "re"))
    try:
        family = state_from_document(doc)
    except (ValueError, CapExceeded):  # ParseError is a ValueError
        return
    assert family.parties == doc["parties"] <= STATE_MAX_PARTIES


@given(_PARTIES, st.data())
def test_expression_document_fuzz(parties, data):
    doc = data.draw(_documents(parties, "terms", "pattern", "_01", "coeff"))
    try:
        expr = expression_from_document(doc)
    except (ValueError, CapExceeded):  # ParseError is a ValueError
        return
    assert expr.parties == doc["parties"]


def test_state_norm_violation_is_domain_error():
    doc = {"parties": 1, "amplitudes": [{"index": "0", "re": 0.9}]}
    with pytest.raises(ValueError) as err:
        state_from_document(doc)
    assert not isinstance(err.value, ParseError)


def test_save_expression_writes_plain_json(tmp_path):
    path = tmp_path / "e.json"
    save_expression(new_expression(1, [("0", 0.5)]), path)
    doc = json.loads(path.read_text())
    assert doc == {"parties": 1, "terms": [{"pattern": "0", "coeff": 0.5}]}
