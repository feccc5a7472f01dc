import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bellwerner import CapExceeded, ParseError, builtin, new_expression
from bellwerner.fileio import (
    expression_from_document,
    expression_to_document,
    load_expression,
    load_state,
    save_expression,
    save_state,
    state_from_document,
    state_to_document,
)
from bellwerner.werner import STATE_MAX_PARTIES, PureFamily, ghz_amplitudes
from helpers import term_index


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


def test_load_expression_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ParseError) as err:
        load_expression(path)
    assert "line" in str(err.value)


def test_load_expression_missing_file(tmp_path):
    with pytest.raises(ParseError):
        load_expression(tmp_path / "absent.json")


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
