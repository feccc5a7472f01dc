import json
import math
from datetime import datetime
from pathlib import Path

import numpy as np
import pytest

from bellwerner import ParseError, __version__, reports
from bellwerner.reports import (
    clean_value,
    new_report,
    render,
    render_csv,
    render_markdown,
    serialize_report,
)
from helpers import parse_report

GOLDEN = Path(__file__).resolve().parent / "golden"


def test_clean_value_significant_digits():
    assert clean_value(math.pi) == float(format(math.pi, ".12g"))
    assert clean_value(0.1 + 0.2) == 0.3
    assert clean_value(4.0) == 4.0
    assert clean_value(123) == 123
    assert clean_value(True) is True
    assert clean_value(None) is None


def test_clean_value_non_finite():
    assert clean_value(math.inf) == "inf"
    assert clean_value(-math.inf) == "-inf"
    assert clean_value(math.nan) == "nan"


def test_clean_value_containers_and_numpy():
    cleaned = clean_value({"a": (1.0, np.float64(2.5)), "b": np.arange(3)})
    assert cleaned == {"a": [1.0, 2.5], "b": [0, 1, 2]}
    with pytest.raises(TypeError):
        clean_value(object())


def test_report_roundtrip():
    rep = new_report(
        "demo",
        seed=7,
        inputs={"m": 3, "x": 1 / 3},
        results={"value": 2 * math.sqrt(2), "gamma": math.inf},
        warnings=[("some-name", "some message")],
    )
    back = parse_report(serialize_report(rep))
    assert back == rep
    assert back["results"]["gamma"] == "inf"
    assert back["warnings"] == [{"name": "some-name", "message": "some message"}]


def test_parse_report_rejects_malformed():
    with pytest.raises(ParseError):
        parse_report("{nope")
    with pytest.raises(ParseError):
        parse_report(json.dumps([1, 2]))
    with pytest.raises(ParseError):
        parse_report(json.dumps({"command": "x"}))
    ok = json.loads(serialize_report(new_report("x")))
    ok["results"] = []
    with pytest.raises(ParseError):
        parse_report(json.dumps(ok))


def _table_report():
    return new_report(
        "demo",
        seed=0,
        inputs={"n": 2},
        results={
            "scalar": 1.25,
            "tables": [
                {
                    "title": "Stuff",
                    "columns": ["a", "b"],
                    "rows": [[1, 0.5], [2, math.inf]],
                }
            ],
        },
        warnings=[("w-name", "w message")],
    )


def test_render_markdown():
    text = render_markdown(_table_report())
    assert "# demo" in text
    assert "## Stuff" in text
    assert "| a | b |" in text
    assert "| 2 | inf |" in text
    assert "**w-name**" in text
    assert "scalar: 1.25" in text


def test_render_csv():
    text = render_csv(_table_report())
    lines = text.splitlines()
    assert lines[0] == "command,demo"
    assert "a,b" in lines
    assert "2,inf" in lines
    assert any(line.startswith("warning,w-name") for line in lines)


def test_render_structured_is_serialization():
    rep = _table_report()
    assert render(rep, "structured") == serialize_report(rep)
    with pytest.raises(ValueError):
        render(rep, "html")


def test_timestamp_format():
    rep = new_report("demo")
    assert rep["timestamp"].endswith("+00:00")
    assert list(rep) == [
        "command", "version", "seed", "timestamp", "inputs", "results", "warnings",
    ]


_PINNED_STRUCTURED = """\
{
  "command": "demo",
  "version": "VERSION",
  "seed": 0,
  "timestamp": "2017-01-02T03:04:05+00:00",
  "inputs": {
    "n": 2
  },
  "results": {
    "scalar": 1.25,
    "tables": [
      {
        "title": "Stuff",
        "columns": [
          "a",
          "b"
        ],
        "rows": [
          [
            1,
            0.5
          ],
          [
            2,
            "inf"
          ]
        ]
      }
    ]
  },
  "warnings": [
    {
      "name": "w-name",
      "message": "w message"
    }
  ]
}
"""

_PINNED_MARKDOWN = """\
# demo

- version: VERSION
- seed: 0
- timestamp: 2017-01-02T03:04:05+00:00
- n: 2

## Results

- scalar: 1.25

## Stuff

| a | b |
| --- | --- |
| 1 | 0.5 |
| 2 | inf |

## Warnings

- **w-name**: w message
"""

_PINNED_CSV = """\
command,demo
version,VERSION
seed,0
timestamp,2017-01-02T03:04:05+00:00
n,2
scalar,1.25

table,Stuff
a,b
1,0.5
2,inf
warning,w-name,w message
"""


_PINNED = {"structured": _PINNED_STRUCTURED, "markdown": _PINNED_MARKDOWN, "csv": _PINNED_CSV}


@pytest.mark.parametrize("fmt", list(_PINNED))
def test_rendering_bytes_are_pinned(monkeypatch, fmt):
    class FixedClock:
        @staticmethod
        def now(tz):
            return datetime(2017, 1, 2, 3, 4, 5, 678, tzinfo=tz)

    monkeypatch.setattr(reports, "datetime", FixedClock)
    assert render(_table_report(), fmt) == _PINNED[fmt].replace("VERSION", __version__)


def _nested_report():
    report = new_report("werner", results={
        "parties": 3,
        "detection": {"expr_file": "e.json", "classical_bound": 2 / 3, "detect_visibility": None,
                      "undetectable_window": True},
    })
    report["timestamp"] = "T"
    return report


_PINNED_NESTED = {
    "markdown": """\
# werner

- version: VERSION
- timestamp: T

## Results

- parties: 3
- detection.expr_file: e.json
- detection.classical_bound: 0.666666666667
- detection.detect_visibility: None
- detection.undetectable_window: True
""",
    "csv": """\
command,werner
version,VERSION
seed,
timestamp,T
parties,3
detection.expr_file,e.json
detection.classical_bound,0.666666666667
detection.detect_visibility,None
detection.undetectable_window,True
""",
}


@pytest.mark.parametrize("fmt", list(_PINNED_NESTED))
def test_nested_mapping_renders_key_by_key(fmt):
    # a nested mapping in results, such as a werner report's detection, was
    # printed as one Python repr
    want = _PINNED_NESTED[fmt].replace("VERSION", __version__)
    assert render(_nested_report(), fmt) == want


@pytest.mark.parametrize("position", range(4))
def test_table_prints_a_missing_cell_as_a_dash(position):
    kept = [0, False, "inf", 2.5]
    row = list(kept)
    row[position] = None
    built = reports.table("T", ("a", "b", "c", "d"), [kept, row])
    assert built["title"] == "T" and built["columns"] == ["a", "b", "c", "d"]
    first, second = built["rows"]
    # 0 and False are values, not missing cells, and keep their types
    assert [(type(v), v) for v in first] == [(int, 0), (bool, False), (str, "inf"), (float, 2.5)]
    assert second == [("-" if i == position else v) for i, v in enumerate(kept)]


def test_golden_tables_have_no_null_cell():
    tables = [t for path in sorted(GOLDEN.glob("*.json"))
              for t in json.loads(path.read_text()).get("results", {}).get("tables", [])]
    assert len(tables) >= 10
    assert ["-", "-", "-"] in [row[1:] for t in tables for row in t["rows"]]  # Table III, m = 2
    assert not [row for t in tables for row in t["rows"] if None in row]
