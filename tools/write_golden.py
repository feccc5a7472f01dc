"""Write the golden-report corpus that tests/test_golden.py checks.

    PYTHONPATH=src python3 tools/write_golden.py

Run from anywhere inside the repository.  The corpus covers every operation
of input set 0 of the three benchmark workloads at seed 0, with inputs from
bench/workloads.write_inputs in a temporary directory, plus `tables I`,
`tables III` and five error paths: an empty expression path, a gamma scan
over its sample cap, a malformed expression file, an expression file whose
coefficient is a string and a state file whose amplitude is a string.  Each operation runs once through
bellwerner.cli.main with --format structured; its report is rendered again
as structured, markdown and csv through reports.render.

tests/golden/ then holds, for each successful operation NAME, NAME.json (the
structured output), NAME.md and NAME.csv, and index.json holds every
operation's argv, exit code and stderr.  The report's timestamp is written
as <timestamp> and the inputs directory as <inputs>.  Files of the corpus
that the writer no longer makes are removed.  The writer prints "changed
NAME" for each file whose content it changed (or made) and "removed NAME"
for each file it removed, so a change that moves the corpus can list them.
"""

import contextlib
import importlib.util
import io
import json
import sys
import tempfile
from pathlib import Path

from bellwerner import cli
from bellwerner.reports import render

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
SEED = 0
SET_INDEX = 0


def _workloads():
    """bench/workloads.py, imported from its file."""
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def operations(inputs: Path) -> list:
    """(name, argv without --format) of every corpus operation; writes the inputs."""
    workloads = _workloads()
    ops = []
    for workload in workloads.WORKLOADS:
        folder = inputs / workload
        workloads.write_inputs(workload, SEED, folder)
        for i, op in enumerate(workloads.operations(workload, SEED, SET_INDEX, folder)):
            ops.append((f"{workload}-{i:02d}-{op.label[:-2]}", op.argv))
    malformed = inputs / "malformed.json"
    malformed.write_text('{"parties": 2, "terms": [')
    bad_term = inputs / "bad_term.json"
    bad_term.write_text('{"parties": 2, "terms": [{"pattern": "00", "coeff": "1.5"}]}')
    bad_amplitude = inputs / "bad_amplitude.json"
    bad_amplitude.write_text('{"parties": 1, "amplitudes": [{"index": "0", "re": "0.5"}]}')
    ops += [
        ("tables_i", ["tables", "I"]),
        ("tables_iii", ["tables", "III"]),
        ("error-empty_path", ["bounds", ""]),
        ("error-gamma_cap", ["gamma", "--m", "2", "--samples", "4294967297"]),
        ("error-malformed", ["bounds", str(malformed)]),
        ("error-bad_term", ["bounds", str(bad_term)]),
        ("error-bad_amplitude", ["werner", "pure", "--state", str(bad_amplitude)]),
    ]
    return ops


def run(argv: list) -> tuple:
    """(exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def corpus() -> dict:
    """File name -> text of every corpus file."""
    files, index = {}, {}
    with tempfile.TemporaryDirectory(prefix="golden-") as tmp:
        inputs = Path(tmp)

        def mask(text: str) -> str:
            return text.replace(str(inputs), "<inputs>")

        for name, argv in operations(inputs):
            code, out, err = run(argv + ["--format", "structured"])
            index[name] = {"argv": [mask(a) for a in argv], "exit": code, "stderr": mask(err)}
            if code != 0:
                continue
            report = json.loads(out)
            report["timestamp"] = "<timestamp>"
            for suffix, fmt in ((".json", "structured"), (".md", "markdown"), (".csv", "csv")):
                files[name + suffix] = mask(render(report, fmt))
    files["index.json"] = json.dumps(index, indent=1) + "\n"
    return files


def main() -> int:
    files = corpus()
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for stale in sorted(set(p.name for p in GOLDEN.iterdir()) - set(files)):
        (GOLDEN / stale).unlink()
        print(f"removed {stale}")
    for name, text in sorted(files.items()):
        path = GOLDEN / name
        if not path.is_file() or path.read_text() != text:
            path.write_text(text)
            print(f"changed {name}")
    print(f"the corpus in {GOLDEN} has {len(files)} files", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
