"""Record the benchmark's end-to-end metrics as one JSON file, optionally
against a parent revision measured on the same host in alternating runs.

    python3 tools/record_bench.py --out BENCH.json [--parent REV] [--seeds N]
    python3 tools/record_bench.py --compare OLD.json NEW.json

Run from anywhere inside the repository.  It drives bench/run.py unchanged,
always with --trace 0.  For each workload a first calibration run makes one
pass per input set on this tree; its mean pass time sets --seconds (through
workloads.NOMINAL_PASS_S) so that every recorded run makes a whole number of
rounds over the input sets and measures at least MIN_WORK_S seconds of
operations.  Then seeds 0 .. N-1 each give one run per side.  With --parent,
REV's committed files are extracted with `git archive` into a temporary
directory, which is removed at the end, and the side that runs first
alternates from seed to seed, so that host drift falls on both sides alike.

The output holds the machine block (cores, Python, NumPy, BLAS), and per
workload and side the median and quartiles of ok_ops_per_s, peak_rss_mb and
setup_s, every run's values, whether every run was correct, and the failed
and attempted operation counts.  Under "commands" it holds, per command
label (such as bounds_seesaw_s), the median and quartiles of the command's
seconds per pass: the seconds of the run's operations with that label,
read from the result file's ops and divided by its pass count as
bench/run.py's command_times does.  With --parent it also holds, per metric,
the number of pairs in which this tree did better than the parent, by the
direction that BENCHMARK.json gives for the metric.

--compare reads two such records and runs nothing.  Per workload and
metric it prints the two change-side medians, their ratio NEW/OLD, and
whether NEW is within the bound that BENCHMARK.json gives for the metric in
its better direction.  Below those rows it prints, per workload and command
that both records hold, the two change-side medians of seconds per pass and
their ratio; no bound applies to them.  It exits 0 either way.
"""

import argparse
import contextlib
import json
import math
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))
import workloads  # noqa: E402

METRICS = ("ok_ops_per_s", "peak_rss_mb", "setup_s")
MIN_WORK_S = 5.0  # seconds of operations each recorded run measures at least


def _git(*args) -> str:
    done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True,
                          check=True)
    return done.stdout.strip()


def run_bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One bench/run.py run in tree; its full result document."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", repr(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} in {tree} exited {done.returncode}: "
                           f"{done.stderr.strip()[-2000:]}")
    path = tree / "bench" / "out" / f"result-{workload}-{seed}-trace0.json"
    return json.loads(path.read_text())


def calibrate(tree: Path, workload: str) -> tuple[float, int]:
    """(--seconds, passes) for runs of at least MIN_WORK_S seconds of operations."""
    nominal = workloads.NOMINAL_PASS_S[workload]
    first = run_bench(tree, workload, 0, workloads.SETS * nominal)
    mean = statistics.fmean(first["pass_times"])
    rounds = max(1, math.ceil(MIN_WORK_S / (workloads.SETS * mean)))
    passes = rounds * workloads.SETS
    return passes * nominal, passes


def quartiles(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def command_seconds(result: dict) -> dict:
    """Seconds per pass of each command label in one result file, in order of first use."""
    out = {}
    for op in result["ops"]:
        out[op["label"]] = out.get(op["label"], 0.0) + op["seconds"] / len(result["pass_times"])
    return out


def summary(runs: list) -> dict:
    out = {name: quartiles([r["metrics"][name]["value"] for r in runs]) for name in METRICS}
    out["correct"] = all(r["correct"] for r in runs)
    out["failed"] = [r["failed"] for r in runs]
    out["attempted"] = [r["attempted"] for r in runs]
    times = [command_seconds(r) for r in runs]
    labels = dict.fromkeys(label for t in times for label in t)
    out["commands"] = {label: quartiles([t.get(label, 0.0) for t in times]) for label in labels}
    return out


def end_to_end() -> dict:
    """BENCHMARK.json's end-to-end metrics by name: unit, better direction and bound."""
    return {m["name"]: m for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}


def pairs_won(change: list, parent: list) -> dict:
    """Per metric, in how many seed pairs this tree beat the parent."""
    metrics = end_to_end()
    won = {}
    for name in METRICS:
        sign = 1.0 if metrics[name]["better"] == "higher" else -1.0
        won[name] = sum(sign * (c["metrics"][name]["value"] - p["metrics"][name]["value"]) > 0
                        for c, p in zip(change, parent))
    return won


@contextlib.contextmanager
def checkout(rev: str):
    """The committed files of rev in a temporary directory, removed on exit."""
    with tempfile.TemporaryDirectory(prefix="record-bench-") as tmp:
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev], capture_output=True,
                                 check=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        yield Path(tmp)


def record(args, parent) -> dict:
    trees = {"change": ROOT} if parent is None else {"change": ROOT, "parent": parent}
    doc = {"sides": {"change": {"commit": _git("rev-parse", "HEAD"), "dirty": bool(
        _git("status", "--porcelain", "--untracked-files=no"))}},
        "seeds": list(range(args.seeds)), "min_work_s": MIN_WORK_S, "workloads": {}}
    if parent is not None:
        doc["sides"]["parent"] = {"rev": args.parent, "commit": _git("rev-parse", args.parent)}
    for workload in workloads.WORKLOADS:
        seconds, passes = calibrate(ROOT, workload)
        runs = {side: [] for side in trees}
        for seed in range(args.seeds):
            order = list(trees) if seed % 2 else list(reversed(trees))
            for side in order:
                result = run_bench(trees[side], workload, seed, seconds)
                runs[side].append(result)
                doc.setdefault("machine", {k: result["meta"][k]
                                           for k in ("nproc", "machine", "python", "numpy",
                                                     "blas")})
                ok = result["metrics"]["ok_ops_per_s"]["value"]
                print(f"{workload} seed {seed} {side}: ok_ops_per_s {ok:.4g}", file=sys.stderr)
        entry = {"seconds": seconds, "passes": passes}
        entry.update({side: summary(side_runs) for side, side_runs in runs.items()})
        if parent is not None:
            entry["pairs"] = args.seeds
            entry["pairs_won"] = pairs_won(runs["change"], runs["parent"])
        doc["workloads"][workload] = entry
    return doc


def compare(old_path: Path, new_path: Path) -> None:
    """Print the change-side medians of two records, their ratio and the bound check."""
    old, new = (json.loads(Path(p).read_text())["workloads"] for p in (old_path, new_path))
    metrics = end_to_end()
    print(f"{'workload':<18}{'metric':<14}{'old':>12}{'new':>12}{'new/old':>9}  within bound")
    for workload in (w for w in workloads.WORKLOADS if w in old and w in new):
        for name in METRICS:
            before = old[workload]["change"][name]["median"]
            after = new[workload]["change"][name]["median"]
            bound = metrics[name]["bound"]
            if metrics[name]["better"] == "higher":
                within, rule = after >= before * (1.0 - bound), f">= {1.0 - bound:g}"
            else:
                within, rule = after <= before * (1.0 + bound), f"<= {1.0 + bound:g}"
            print(f"{workload:<18}{name:<14}{before:>12.5g}{after:>12.5g}{after / before:>9.3f}  "
                  f"{'yes' if within else 'NO'} (ratio {rule})")
    rows = []
    for workload in (w for w in workloads.WORKLOADS if w in old and w in new):
        before, after = (r[workload]["change"].get("commands", {}) for r in (old, new))
        for label in (label for label in after if label in before):
            rows.append((workload, label, before[label]["median"], after[label]["median"]))
    if rows:
        print(f"\n{'workload':<18}{'command s/pass':<18}{'old':>12}{'new':>12}{'new/old':>9}")
        for workload, label, before, after in rows:
            print(f"{workload:<18}{label:<18}{before:>12.5g}{after:>12.5g}{after / before:>9.3f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--out", type=Path)
    action.add_argument("--compare", nargs=2, type=Path, metavar=("OLD", "NEW"),
                        help="print the change-side medians of two records; runs nothing")
    parser.add_argument("--parent", help="revision to measure against, in alternating runs")
    parser.add_argument("--seeds", type=int, default=10)
    args = parser.parse_args(argv)
    if args.compare:
        compare(*args.compare)
        return 0
    if args.seeds < 2:
        parser.error("--seeds must be at least 2")
    with contextlib.ExitStack() as stack:
        parent = None if args.parent is None else stack.enter_context(checkout(args.parent))
        doc = record(args, parent)
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
