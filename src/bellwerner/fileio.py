"""Loading of expressions and pure states from structured-text (JSON) files.

Expression documents: {"parties": m, "terms": [{"pattern": "...", "coeff": x}]}
with patterns over {_, 0, 1}.  State documents: {"parties": m, "amplitudes":
[{"index": "<m bits>", "re": x, "im": y}]}; omitted indices are zero.

This module checks a document's shape.  One number rule, in
expressions._number_problem, holds for both kinds: each coefficient x and each
re and im is a finite real number, not a bool; _from_lists checks the terms as
for new_expression.  Structural problems (a file that is not UTF-8, malformed
or too deeply nested JSON, a wrong shape, a bad amplitude named as
amplitudes[i], and every ValueError of _from_lists: a bad term named as
terms[i], a sum of |coeff| beyond the float range) raise
ParseError; domain problems a well-formed document can still have (for
states, a non-unit norm) keep their ValueError so callers can distinguish
the two.  A state document with more than STATE_MAX_PARTIES (16) parties
raises CapExceeded before its 2^m amplitude vector is allocated.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from .errors import ParseError, check_cap
from .expressions import STATE_MAX_PARTIES, BellExpression, _from_lists, _number_problem
from .werner import PureFamily

PathLike = Union[str, Path]


def _require_dict(doc, what: str) -> dict:
    if not isinstance(doc, dict):
        raise ParseError(f"{what} must be an object, got {type(doc).__name__}")
    return doc


def _require_parties(doc: dict, what: str) -> int:
    parties = doc.get("parties")
    if isinstance(parties, bool) or not isinstance(parties, int):
        raise ParseError(f"{what}: field 'parties' must be an integer")
    if parties < 1:
        raise ParseError(f"{what}: field 'parties' must be at least 1")
    return parties


def expression_from_document(doc) -> BellExpression:
    doc = _require_dict(doc, "expression document")
    parties = _require_parties(doc, "expression document")
    terms = doc.get("terms")
    if not isinstance(terms, list) or not terms:
        raise ParseError("expression document: field 'terms' must be a non-empty array")
    for idx, entry in enumerate(terms):
        if not isinstance(entry, dict):
            raise ParseError(f"terms[{idx}]: must be an object")
    try:
        return _from_lists(parties, [t.get("pattern") for t in terms], [t.get("coeff") for t in terms])
    except ValueError as exc:  # a bad term, named as terms[i], or an overflowing |coeff| sum
        raise ParseError(str(exc)) from exc


def _read_json(path: PathLike, kind: str):
    """The decoded JSON document of a `kind` ("expression" or "state") file."""
    if path == "":  # Path("") would name the current directory
        raise ParseError(f"cannot read {kind} file: the path is empty")
    try:
        text = Path(path).read_text(encoding="utf-8")  # JSON is UTF-8 (RFC 8259)
    except OSError as exc:
        raise ParseError(f"cannot read {kind} file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{kind} file {path}: not UTF-8 at byte {exc.start}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{kind} file {path}: invalid JSON at line {exc.lineno}, "
            f"column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError as exc:  # a RuntimeError, which would exit as a failed self-check
        raise ParseError(f"{kind} file {path}: JSON nested too deeply") from exc


def load_expression(path: PathLike) -> BellExpression:
    return expression_from_document(_read_json(path, "expression"))


def state_from_document(doc) -> PureFamily:
    doc = _require_dict(doc, "state document")
    parties = _require_parties(doc, "state document")
    check_cap("parties of a state vector", parties, STATE_MAX_PARTIES)
    entries = doc.get("amplitudes")
    if not isinstance(entries, list) or not entries:
        raise ParseError("state document: field 'amplitudes' must be a non-empty array")
    vec = [0j] * (2 ** parties)
    seen = set()
    for idx, entry in enumerate(entries):
        where = f"amplitudes[{idx}]"
        if not isinstance(entry, dict):
            raise ParseError(f"{where}: must be an object")
        index = entry.get("index")
        if not isinstance(index, str) or len(index) != parties or set(index) - {"0", "1"}:
            raise ParseError(
                f"{where}: field 'index' must be a bit string of length {parties}"
            )
        if index in seen:
            raise ParseError(f"{where}: duplicate index {index!r}")
        seen.add(index)
        re, im = entry.get("re"), entry.get("im", 0.0)
        problem = _number_problem(re, "field 're'") or _number_problem(im, "field 'im'")
        if problem:
            raise ParseError(f"{where}: {problem}")
        vec[int(index, 2)] = complex(float(re), float(im))
    return PureFamily(vec)  # non-unit norm raises ValueError, by design


def load_state(path: PathLike) -> PureFamily:
    return state_from_document(_read_json(path, "state"))
