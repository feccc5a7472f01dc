"""The golden-report corpus: tests/golden/ against a fresh run of its writer.

tools/write_golden.py runs each corpus operation once and renders its report
three ways.  Markdown, csv and stderr must match the committed files byte for
byte; structured output is parsed and its floats compared at 12 significant
digits, as bench/oracle.py compares reports.  After a change that moves a
report on purpose, rewrite the corpus with the writer and list the rewritten
files.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"


def _module(path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_digits = _module(ROOT / "bench" / "oracle.py")._digits  # floats as 12-digit strings


@pytest.fixture(scope="module")
def written():
    return _module(ROOT / "tools" / "write_golden.py").corpus()


def test_writer_makes_the_committed_files(written):
    assert sorted(written) == sorted(p.name for p in GOLDEN.iterdir())


def _matches(name, text):
    path = GOLDEN / name
    if not path.is_file():
        return False
    if name.endswith(".json"):
        return _digits(json.loads(text)) == _digits(json.loads(path.read_text()))
    return text == path.read_text()


def test_reports_match_the_corpus(written):
    assert [name for name, text in sorted(written.items()) if not _matches(name, text)] == []


def test_writer_prints_what_it_changed_and_removed(tmp_path, monkeypatch, capsys):
    writer = _module(ROOT / "tools" / "write_golden.py")
    (tmp_path / "same.md").write_text("kept\n")
    (tmp_path / "moved.csv").write_text("old\n")
    (tmp_path / "stale.json").write_text("{}\n")
    files = {"same.md": "kept\n", "moved.csv": "new\n", "made.json": "{}\n"}
    monkeypatch.setattr(writer, "GOLDEN", tmp_path)
    monkeypatch.setattr(writer, "corpus", lambda: files)
    assert writer.main() == 0
    assert capsys.readouterr().out == "removed stale.json\nchanged made.json\nchanged moved.csv\n"
    assert {p.name: p.read_text() for p in tmp_path.iterdir()} == files
