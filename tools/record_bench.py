"""Record the benchmark's end-to-end metrics of a change against a parent revision, measured on
the same host in alternating runs, as one JSON file, and print the record's verdict.

    python3 tools/record_bench.py --out BENCH.json --parent REV [--seeds N]

Run from anywhere inside the repository; --parent is required.  Each side runs its own
bench/run.py unchanged, with --trace 0, in a temporary `git archive` extract (see sides);
nothing runs in the working tree.  Per workload a calibration run of one pass per input set on
the change side sets the pass count of every run: whole rounds over the input sets, of at
least MIN_WORK_S seconds.  Each side turns that count into --seconds with its own
bench/workloads.NOMINAL_PASS_S, and a pair whose sides made unequal passes or attempted counts
stops the recorder.  Seeds 0 .. N-1 give one run per side, alternating which side runs first,
so that host drift falls on both sides alike.

Per workload and side the record holds each metric in METRICS, run by run in seed order, with
its quartiles, the quartiles of each command's seconds per pass (as bench/run.py's
command_times computes them), the failed, attempted and pass counts and the --seconds given.
Every run it holds was correct: an incorrect run stops the recorder.  It also holds each side's
rev and commit, and the machine (cores, Python, NumPy, BLAS).

After writing the record it prints its verdict, computed from the record alone.  Per workload,
each end-to-end metric reads yes or NO by BENCHMARK.json's bound and direction, or unresolved
where the parent's (q3 - q1) / median exceeds the bound and not every change run beats every
parent run; its won column counts the seed pairs in which the change side did better by that
direction, from the stored runs.  The failed share (failed / attempted) reads NO where the
change side's is larger.  Below, each command's seconds per pass, where the record holds them.
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
    """One bench/run.py run in a side's extract; its result document, which must be correct."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", repr(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} in {tree} exited {done.returncode}: "
                           f"{done.stderr.strip()[-2000:]}")
    path = tree / "bench" / "out" / f"result-{workload}-{seed}-trace0.json"
    result = json.loads(path.read_text())
    if not result["correct"]:
        sys.exit(f"record_bench: {workload} seed {seed} on the {tree.name} side: incorrect results")
    return result


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
    out["failed"] = [r["failed"] for r in runs]
    out["attempted"] = [r["attempted"] for r in runs]
    out["seconds"] = runs[0]["seconds"]
    out["passes"] = [r["notes"]["passes"] for r in runs]
    times = [command_seconds(r) for r in runs]
    labels = dict.fromkeys(label for t in times for label in t)
    out["commands"] = {label: quartiles([t.get(label, 0.0) for t in times]) for label in labels}
    return out


@contextlib.contextmanager
def checkout(rev: str, side: str):
    """The committed files of rev in a temporary directory named side, removed on exit."""
    with tempfile.TemporaryDirectory(prefix="record-bench-") as tmp:
        _git("archive", "--prefix", f"{side}/", "--output", f"{tmp}/tree.tar", rev)
        subprocess.run(["tar", "-xf", "tree.tar"], cwd=tmp, check=True)
        yield Path(tmp) / side


def sides(parent: str) -> dict:
    """Each side's rev and commit: the change side's is the commit `git stash create` makes of
    edited tracked files, or HEAD if none are.  Untracked files under src/ or bench/ stop it."""
    untracked = _git("ls-files", "--others", "--exclude-standard", "--", "src", "bench")
    if untracked:
        sys.exit(f"record_bench: untracked files would be left out: {untracked.splitlines()}")
    revs = {"change": _git("stash", "create") or "HEAD", "parent": parent}
    return {side: {"rev": rev, "commit": _git("rev-parse", rev)} for side, rev in revs.items()}


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
    doc["machine"] = {k: result["meta"][k] for k in ("nproc", "machine", "python", "numpy", "blas")}
    return doc


def verdict(workloads: dict) -> str:
    """A record's judgement of its change side against its parent side, as printed rows
    (see the module docstring)."""
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in benchmark["end_to_end"]}
    columns = f"{'parent':>12}{'change':>12}{'change/parent':>15}"
    judged, timed = [f"{'workload':<18}{'metric':<16}{columns}{'won':>7}  verdict"], []
    for workload, entry in workloads.items():
        parent, change = entry["parent"], entry["change"]
        for name in METRICS:
            p, c, bound = parent[name], change[name], metrics[name]["bound"]
            sign = 1.0 if metrics[name]["better"] == "higher" else -1.0
            spread = (p["q3"] - p["q1"]) / p["median"]
            overlap = min(sign * v for v in c["runs"]) <= max(sign * v for v in p["runs"])
            if spread > bound and overlap:
                reading = f"unresolved (parent spread {spread:.3f} > {bound:g})"
            else:
                within = sign * (c["median"] - p["median"]) >= -bound * p["median"]
                rule = f"ratio {'>=' if sign > 0 else '<='} {1.0 - sign * bound:g}"
                reading = f"{'yes' if within else 'NO'} ({rule})"
            wins = sum(sign * (a - b) > 0 for a, b in zip(c["runs"], p["runs"]))
            won = f"{wins}/{len(c['runs'])}"
            judged.append(f"{workload:<18}{name:<16}{p['median']:>12.5g}{c['median']:>12.5g}"
                          f"{c['median'] / p['median']:>15.3f}{won:>7}  {reading}")
        b, a = (sum(s["failed"]) / sum(s["attempted"]) for s in (parent, change))
        judged.append(f"{workload:<18}{'failed_share':<16}{b:>12.5g}{a:>12.5g}{'-':>15}{'-':>7}"
                      f"  {'NO' if a > b else 'yes'}")
        before, after = parent.get("commands", {}), change.get("commands", {})
        for label in (label for label in after if label in before):
            b, a = before[label]["median"], after[label]["median"]
            timed.append(f"{workload:<18}{label:<16}{b:>12.5g}{a:>12.5g}{a / b:>15.3f}")
    if timed:
        judged += ["", f"{'workload':<18}{'command s/pass':<16}{columns}", *timed]
    return "\n".join(judged)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--parent", required=True, help="revision to measure against")
    parser.add_argument("--seeds", type=int, default=10)
    args = parser.parse_args(argv)
    if args.seeds < 2:
        parser.error("--seeds must be at least 2")
    doc = {"sides": sides(args.parent)}
    with contextlib.ExitStack() as stack:
        trees = {side: stack.enter_context(checkout(rev["commit"], side))
                 for side, rev in doc["sides"].items()}
        doc.update(record(trees, args.seeds))
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    print(verdict(doc["workloads"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
