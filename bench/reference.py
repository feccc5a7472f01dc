"""Write bench/reference.json: the oracle's expected facts.

    python3 bench/reference.py

Runs every operation of every input set of each workload once at seed 0
and stores the facts of its report (see oracle.facts), or the name of the
exception it raised.  The facts of see-saw operations hold for every seed,
since their inputs come from the fixed pool; the others hold for seed 0.
Regenerate only when a change is meant to alter deterministic results, and
say so in the change.
"""

import json
import sys

import run
import workloads


def main() -> int:
    cli = run.import_cli()
    document = {}
    for workload in workloads.WORKLOADS:
        inputs = run.OUT / "inputs" / f"{workload}-0"
        workloads.write_inputs(workload, 0, inputs)
        entries = {}
        for s in range(workloads.SETS):
            for i, op in enumerate(workloads.operations(workload, 0, s, inputs)):
                outcome = run.run_op(cli, op.argv, op.limit_s)
                entry = {"command": " ".join(op.argv).replace(str(inputs) + "/", ""),
                         "error": outcome["error"]}
                if outcome["error"] is None:
                    problems = run.oracle.check(op.argv, outcome["report"])
                    if problems:
                        raise SystemExit(f"{entry['command']}: {problems}")
                    entry["facts"] = run.oracle.facts(outcome["report"])
                entries[f"{s}/{i}"] = entry
                print(workload, f"{s}/{i}", f"{outcome['seconds']:.2f}s", entry["error"],
                      entry["command"], flush=True)
        document[workload] = entries
    (run.BENCH / "reference.json").write_text(json.dumps(document, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
