"""Record the benchmark's end-to-end metrics as one JSON file, optionally
against a parent revision measured on the same host in alternating runs.

    python3 tools/record_bench.py --out BENCH.json [--parent REV] [--seeds N]
    python3 tools/record_bench.py --compare OLD.json NEW.json

Run from anywhere inside the repository.  Each side runs its own
bench/run.py unchanged, with --trace 0, in a temporary `git archive` extract
(see sides); nothing runs in the working tree.  Per workload a calibration
run of one pass per input set on the change side sets the pass count of
every run: whole rounds over the input sets, of at least MIN_WORK_S seconds.
Each side turns that count into --seconds with its own
bench/workloads.NOMINAL_PASS_S, and a pair whose sides made unequal passes
or attempted counts stops the recorder.  Seeds 0 .. N-1 give one run per
side, alternating which side runs first, so that host drift falls on both
sides alike.

Per workload and side the record holds the quartiles of each metric in
METRICS and of each command's seconds per pass (as bench/run.py's
command_times computes them), whether every run was correct, the failed,
attempted and pass counts and the --seconds given; with --parent, per
metric, the pairs in which the change side did better by BENCHMARK.json's
direction.  It also holds each side's rev and commit, and the machine
(cores, Python, NumPy, BLAS).

--compare reads two records and runs nothing.  Per workload and metric it
prints the two change-side medians, their ratio NEW/OLD and whether NEW is
within BENCHMARK.json's bound; then the change-side medians of seconds per
pass of the commands both records hold, and their ratio.  It always exits 0.
"""

import argparse
import contextlib
import importlib.util
import json
import math
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
METRICS = ("ok_ops_per_s", "peak_rss_mb", "setup_s")
MIN_WORK_S = 5.0  # seconds of operations each recorded run measures at least


def _git(*args) -> str:
    done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True,
                          check=True)
    return done.stdout.strip()


def load_workloads(tree: Path):
    """tree's bench/workloads.py, imported from its file."""
    spec = importlib.util.spec_from_file_location("workloads", tree / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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


def calibrate(tree: Path, workload: str) -> int:
    """Passes per run: whole rounds over the input sets of at least MIN_WORK_S seconds."""
    workloads = load_workloads(tree)
    first = run_bench(tree, workload, 0, workloads.SETS * workloads.NOMINAL_PASS_S[workload])
    return workloads.SETS * max(1, math.ceil(MIN_WORK_S / sum(first["pass_times"])))


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
    out["seconds"] = runs[0]["seconds"]
    out["passes"] = [r["notes"]["passes"] for r in runs]
    times = [command_seconds(r) for r in runs]
    labels = dict.fromkeys(label for t in times for label in t)
    out["commands"] = {label: quartiles([t.get(label, 0.0) for t in times]) for label in labels}
    return out


def end_to_end() -> dict:
    """BENCHMARK.json's end-to-end metrics by name: unit, better direction and bound."""
    return {m["name"]: m for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}


def pairs_won(change: list, parent: list) -> dict:
    """Per metric, in how many seed pairs the change side beat the parent."""
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
        _git("archive", "--prefix", "tree/", "--output", f"{tmp}/tree.tar", rev)
        subprocess.run(["tar", "-xf", "tree.tar"], cwd=tmp, check=True)
        yield Path(tmp) / "tree"


def sides(parent: str | None) -> dict:
    """Each side's rev and commit: the change side's is the commit `git stash create` makes of
    edited tracked files, or HEAD if none are.  Untracked files under src/ or bench/ stop it."""
    untracked = _git("ls-files", "--others", "--exclude-standard", "--", "src", "bench")
    if untracked:
        sys.exit(f"record_bench: untracked files would be left out: {untracked.splitlines()}")
    revs = {"change": _git("stash", "create") or "HEAD", "parent": parent}
    return {side: {"rev": rev, "commit": _git("rev-parse", rev)} for side, rev in revs.items()
            if rev is not None}


def record(trees: dict, seeds: int) -> dict:
    """Calibrate each workload on trees["change"], then run every seed once per side."""
    doc = {"seeds": list(range(seeds)), "min_work_s": MIN_WORK_S, "workloads": {}}
    for workload in load_workloads(trees["change"]).WORKLOADS:
        passes = calibrate(trees["change"], workload)
        # bench/run.py makes round(--seconds / NOMINAL_PASS_S) passes with its own constant
        seconds = {side: passes * load_workloads(tree).NOMINAL_PASS_S[workload]
                   for side, tree in trees.items()}
        runs = {side: [] for side in trees}
        for seed in range(seeds):
            for side in (list(trees) if seed % 2 else list(reversed(trees))):
                result = run_bench(trees[side], workload, seed, seconds[side])
                runs[side].append(result)
                ok = result["metrics"]["ok_ops_per_s"]["value"]
                print(f"{workload} seed {seed} {side}: ok_ops_per_s {ok:.4g}", file=sys.stderr)
            work = {s: (r[-1]["notes"]["passes"], r[-1]["attempted"]) for s, r in runs.items()}
            if len(set(work.values())) > 1:
                sys.exit(f"record_bench: {workload} seed {seed}: the sides made unequal work, "
                         f"(passes, attempted) = {work}")
        entry = doc["workloads"][workload] = {"passes": passes}
        entry.update({side: summary(side_runs) for side, side_runs in runs.items()})
        if "parent" in trees:
            entry["pairs_won"] = pairs_won(runs["change"], runs["parent"])
    doc["machine"] = {k: result["meta"][k] for k in ("nproc", "machine", "python", "numpy", "blas")}
    return doc


def compare(old_path: Path, new_path: Path) -> None:
    """Print the change-side medians of two records, their ratio and the bound check."""
    old, new = (json.loads(Path(p).read_text())["workloads"] for p in (old_path, new_path))
    metrics = end_to_end()
    rows = []
    print(f"{'workload':<18}{'metric':<14}{'old':>12}{'new':>12}{'new/old':>9}  within bound")
    for workload in (w for w in new if w in old):
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
    doc = {"sides": sides(args.parent)}
    with contextlib.ExitStack() as stack:
        trees = {side: stack.enter_context(checkout(rev["commit"]))
                 for side, rev in doc["sides"].items()}
        doc.update(record(trees, args.seeds))
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
