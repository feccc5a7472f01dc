"""The benchmark's own checks, at tiny sizes (about half a minute).

    python3 bench/smoke.py

1. Each workload, untraced and traced, emits every metric BENCHMARK.json
   names and judges its tiny outputs correct.
2. A report with one deterministic value perturbed is a failed operation
   and makes the run incorrect.
3. An exception injected into the CLI is a failed operation, recorded
   under its exception name.
"""

import json
import math
import sys

import run
import workloads


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"FAIL: {message}")
    print(f"ok: {message}")


def metrics_emitted() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for workload in workloads.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = run.measure(workload, 0, 0.01, trace, tiny=True)
            units = {m["name"]: m["unit"] for m in spec[key]}
            emitted = {name: m["unit"] for name, m in result["metrics"].items()}
            check(emitted == units,
                  f"{workload} trace={trace} emits exactly the {key} metrics with their units "
                  f"(differing: {sorted(set(units.items()) ^ set(emitted.items()))})")
            check(result["correct"],
                  f"{workload} trace={trace}: {result['attempted']} tiny ops, no wrong "
                  f"output, failures {result['failures']}")
            bad = [n for n, m in result["metrics"].items() if not math.isfinite(m["value"])]
            check(not bad, f"{workload} trace={trace}: every metric is a finite number {bad}")


def perturbed_report_fails() -> None:
    cli = run.import_cli()
    inputs = run.OUT / "inputs" / "enumeration_scan-0-tiny"
    workloads.write_inputs("enumeration_scan", 0, inputs, tiny=True)
    op = workloads.operations("enumeration_scan", 0, 0, inputs, tiny=True)[0]
    runner = run.Runner(cli, "enumeration_scan", 0, inputs, None, tiny=True)
    first = runner.judge(op, (0, 0), run.run_op(cli, op.argv, op.limit_s), 0, False)
    check(not run.is_failed(first), "an unperturbed bounds report passes the oracle")
    outcome = run.run_op(cli, op.argv, op.limit_s)
    rows = outcome["report"]["results"]["tables"][0]["rows"]
    rows[-1][1] = rows[-1][1] * (1.0 + 1e-9)  # last block's LHV value, 10th digit
    record = runner.judge(op, (0, 0), outcome, 1, False)
    check(run.is_failed(record) and bool(record["problems"]),
          f"a report with one block value perturbed fails: {record['problems']}")


def injected_exception_fails() -> None:
    cli = run.import_cli()
    original = cli.lhv_bound

    def broken(*args, **kwargs):
        raise ZeroDivisionError("injected")

    cli.lhv_bound = broken
    try:
        result = run.measure("enumeration_scan", 0, 0.01, 0, tiny=True)
    finally:
        cli.lhv_bound = original
    check(result["failures"].get("ZeroDivisionError", 0) >= 1 and result["failed"] >= 1,
          f"an injected exception counts as a failed op: {result['failures']}")
    check(result["correct"], "an exception is a failure, not a wrong answer")


def main() -> int:
    metrics_emitted()
    perturbed_report_fails()
    injected_exception_fails()
    print("smoke check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
