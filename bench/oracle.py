"""Correctness oracle for the structured reports of the benchmark's CLI calls.

A report splits into three kinds of fields:

- exact: deterministic values (LHV and block values, closed forms, gamma
  minima, Monte Carlo hits and thresholds).  They must equal the committed
  reference (reference.json: the fixed see-saw pool at every seed, seeded
  inputs at seed 0) and every repeat of an input within a run, to 12
  significant digits.
- see-saw values: lower bounds found by search.  They must lie in
  [LHV - 1e-9, sqrt(3) * closed form + 1e-9] (the upper end only for
  full-correlation expressions) and be no more than 1e-6 below the
  reference.
- visibilities: found with the fixed-state see-saw, so a better search can
  only lower them; they must not exceed the reference by more than 1e-5.

timestamp, seesaw_sweeps and seesaw_restart_index are not checked.
check() returns a list of problems; an empty list means the report passed.
"""

import json
import math
from pathlib import Path

SQRT3 = math.sqrt(3.0)
_UNCHECKED = {"seesaw_lower", "seesaw_sweeps", "seesaw_restart_index"}


def _digits(value):
    if isinstance(value, float):
        return format(value, ".12g")
    if isinstance(value, list):
        return [_digits(v) for v in value]
    if isinstance(value, dict):
        return {k: _digits(v) for k, v in value.items()}
    return value


def facts(report: dict) -> dict:
    """{"exact": ..., "seesaw": {name: value}, "visibility": {name: value}}."""
    command = report["command"]
    results = report["results"]
    seesaw, visibility = {}, {}
    if command == "bounds":
        exact = {k: v for k, v in results.items() if k not in _UNCHECKED}
        if "seesaw_lower" in results:
            seesaw["seesaw_lower"] = results["seesaw_lower"]
    elif command == "examples":
        exact = json.loads(json.dumps(results))
        bounds = exact["tables"][0]
        col = bounds["columns"].index("seesaw")
        for row in bounds["rows"]:
            seesaw[row[0]] = row.pop(col)
    elif command == "werner":
        exact = json.loads(json.dumps(results))
        if "detection" in exact:
            del exact["detection"]["expr_file"]  # where the run keeps its inputs
            visibility["detect_visibility"] = exact["detection"].pop("detect_visibility")
    else:
        exact = results
    return {"exact": _digits(exact), "seesaw": seesaw, "visibility": visibility}


def _expression_terms(path):
    doc = json.loads(Path(path).read_text())
    return doc["parties"], [(t["pattern"], t["coeff"]) for t in doc["terms"]]


def _strategy_value(terms, assignments) -> float:
    total = 0.0
    for pattern, coeff in terms:
        prod = 1
        for j, ch in enumerate(pattern):
            if ch != "_":
                prod *= assignments[j][0 if ch == "0" else 1]
        total += coeff * prod
    return total


def _closed_form(parties, terms) -> float:
    coeffs = dict(terms)
    odd = even = 0.0
    for bits in range(2 ** (parties - 1)):
        prefix = format(bits, f"0{parties - 1}b") if parties > 1 else ""
        a0 = coeffs.get(prefix + "0", 0.0)
        a1 = coeffs.get(prefix + "1", 0.0)
        odd += abs(a0 + a1)
        even += abs(a0 - a1)
    return max(odd, even)


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def _invariants(argv, report) -> list:
    """Checks that need no reference: they hold for every seed."""
    command = report["command"]
    results = report["results"]
    problems = []
    if command == "bounds":
        parties, terms = _expression_terms(argv[1])
        lhv = results["lhv_bound"]
        witness = abs(_strategy_value(terms, results["witness_assignments"]))
        if not _close(witness, lhv, 1e-9):
            problems.append(f"witness value {witness!r} != lhv_bound {lhv!r}")
        cf = None
        if results["homogeneous"]:
            cf = _closed_form(parties, terms)
            if _digits(cf) != _digits(results["closed_form"]):
                problems.append(f"closed_form {results['closed_form']!r} != {cf!r}")
            if lhv > cf + 1e-9:
                problems.append("lhv_bound exceeds the closed form")
        if "seesaw_lower" in results:
            problems += _seesaw_range("seesaw_lower", results["seesaw_lower"], lhv, cf)
    elif command == "examples":
        table = report["results"]["tables"][0]
        cols = table["columns"]
        for row in table["rows"]:
            cf = row[cols.index("closed_form")]
            problems += _seesaw_range(
                row[0], row[cols.index("seesaw")], row[cols.index("lhv")],
                None if cf == "-" else cf,
            )
    elif command == "gamma":
        for i, gamma_min, _, skipped in results["tables"][0]["rows"]:
            problems += _gamma_ok(i, gamma_min)
            if not 0 <= skipped <= results["samples"]:
                problems.append(f"gamma_{i}: skipped {skipped} out of range")
    elif command == "tables":
        for row in results["tables"][0]["rows"]:
            for i, gamma_min in enumerate(row[2:], start=1):
                if gamma_min != "-":
                    problems += _gamma_ok(i, gamma_min)
    elif command == "measure":
        if results["bound_consistent"] is not True:
            problems.append("bound_consistent is false")
        if not 0 <= results["hits"] <= results["samples"]:
            problems.append("hits out of range")
        if _digits(results["hits"] / results["samples"]) != _digits(results["fraction"]):
            problems.append("fraction != hits / samples")
    elif command == "werner":
        detection = results.get("detection", {})
        v = detection.get("detect_visibility")
        if v is not None and not 0.0 < v <= 1.0:
            problems.append(f"detect_visibility {v!r} outside (0, 1]")
    return problems


def _seesaw_range(name, value, lhv, closed_form) -> list:
    problems = []
    if value < lhv - 1e-9:
        problems.append(f"{name}: see-saw {value!r} below the LHV bound {lhv!r}")
    if closed_form is not None and value > SQRT3 * closed_form + 1e-9:
        problems.append(f"{name}: see-saw {value!r} above sqrt(3) * closed form")
    return problems


def _gamma_ok(i, gamma_min) -> list:
    if gamma_min == "-":
        return []
    if gamma_min <= 0.0:
        return [f"gamma_{i} = {gamma_min!r} is not positive"]
    if i == 1 and gamma_min < 1.0 - 1e-12:
        return [f"gamma_1 = {gamma_min!r} is below 1"]
    return []


def compare(found: dict, expected: dict) -> list:
    """Problems in found facts against reference facts of the same input."""
    problems = []
    if found["exact"] != expected["exact"]:
        problems.append("deterministic fields differ from the expected values")
    for name, ref in expected["seesaw"].items():
        value = found["seesaw"].get(name)
        if value is None or value < ref - 1e-6:
            problems.append(f"{name}: see-saw {value!r} more than 1e-6 below {ref!r}")
    for name, ref in expected["visibility"].items():
        value = found["visibility"].get(name)
        if ref is not None and (value is None or value > ref + 1e-5):
            problems.append(f"{name}: visibility {value!r} above reference {ref!r}")
    return problems


def check(argv, report: dict, expected=None) -> list:
    """All problems of one report: invariants, then the reference if given."""
    problems = _invariants(argv, report)
    if expected is not None:
        problems += compare(facts(report), expected)
    return problems
