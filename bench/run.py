"""bellwerner benchmark: seeded CLI workloads, timed end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each operation is one in-process call of
bellwerner.cli.main(argv + ["--format", "structured"]), made serially, with
BELLWERNER_THREADS cleared and no --threads flag.  Every report is checked
by bench/oracle.py.  An exception escaping main, a nonzero exit and a report
the oracle rejects each count as a failed operation; a rejected report also
makes the run incorrect.

Both modes make round(S / nominal pass time) untraced passes, at least one
(see workloads.NOMINAL_PASS_S).  --trace 0 reports the end-to-end metrics.
--trace 1 then replays the last half of those passes, at least one, with
spans around the package's public functions (bench/spans.py) and reports
the per-layer metrics.  attempted counts the operations of the untraced
passes, so it is the same in both modes; an operation is failed if it
failed untraced or in its replay.  The last line of standard output is one
JSON object with correct, attempted, failed and metrics; the full result,
with the machine metadata and every operation, goes to bench/out/.
"""

import argparse
import contextlib
import ctypes
import io
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 7
# No operation starts once a run has lasted RUN_LIMIT_S; with the latency
# limits of workloads.py this keeps every run inside 180 s.
RUN_LIMIT_S = 110.0

sys.path.insert(0, str(BENCH))
import oracle  # noqa: E402
import workloads  # noqa: E402

COMMAND_TIMES = ("examples_s", "bounds_seesaw_s", "bounds_s", "gamma_s", "tables_ii_s",
                 "werner_ghz_s", "werner_pure_s", "measure_s")


def _environment() -> dict:
    env = dict(os.environ)
    env.pop("BELLWERNER_THREADS", None)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def set_up(workload: str, seed: int, inputs: Path, tiny: bool) -> list:
    """Import the package and write the inputs in fresh interpreters; seconds each."""
    argv = [sys.executable, str(BENCH / "workloads.py"), "--workload", workload,
            "--seed", str(seed), "--out", str(inputs)] + (["--tiny"] if tiny else [])
    times = []
    for _ in range(1 if tiny else SETUP_REPEATS):
        done = subprocess.run(argv, env=_environment(), capture_output=True, text=True,
                              timeout=120, check=False)
        if done.returncode != 0:
            raise RuntimeError(f"input generation failed: {done.stderr.strip()}")
        times.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return times


class OpTimeout(Exception):
    """The operation reached its latency limit."""


def _expire(signum, frame):
    raise OpTimeout("latency limit reached")


def run_op(cli, argv, limit_s: float) -> dict:
    """One CLI call: seconds, exit code or exception name, and the parsed report."""
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _expire)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            signal.setitimer(signal.ITIMER_REAL, limit_s)
            try:
                code = cli.main(argv + ["--format", "structured"])
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
    except SystemExit as exc:  # argparse rejects arguments this way
        return {"seconds": time.perf_counter() - start, "error": f"SystemExit({exc.code})"}
    except Exception as exc:  # the CLI boundary: anything escaping main is a failed op
        return {"seconds": time.perf_counter() - start, "error": type(exc).__name__}
    finally:
        signal.signal(signal.SIGALRM, previous)
    seconds = time.perf_counter() - start
    if code != 0:
        return {"seconds": seconds, "error": f"exit {code}: {err.getvalue().strip()[:200]}"}
    return {"seconds": seconds, "error": None, "report": json.loads(out.getvalue())}


def is_failed(record) -> bool:
    return bool(record["error"] or record["problems"])


class Runner:
    """Passes over one workload's operations, with the oracle applied to each."""

    def __init__(self, cli, workload, seed, inputs, reference, tiny=False):
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.inputs = inputs
        self.reference = reference
        self.tiny = tiny
        self.first = {}  # (set, op index) -> facts of the first result this run
        self.records = []
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.cut = False

    def run_pass(self, index: int, tracer=None) -> float:
        set_index = index % workloads.SETS
        ops = workloads.operations(self.workload, self.seed, set_index, self.inputs, tiny=self.tiny)
        total = 0.0
        for i, op in enumerate(ops):
            if time.perf_counter() > self.deadline:
                self.cut = True
                break
            if tracer is not None:
                tracer.op = len(self.records)
            outcome = run_op(self.cli, op.argv, op.limit_s)
            total += outcome["seconds"]
            record = self.judge(op, (set_index, i), outcome, index, tracer is not None)
            record["op"] = i
            self.records.append(record)
        return total

    def judge(self, op, key, outcome, pass_index, traced) -> dict:
        record = {"pass": pass_index, "traced": traced, "label": op.label, "argv": op.argv,
                  "seconds": outcome["seconds"], "error": outcome["error"], "problems": []}
        if outcome["error"] is not None:
            return record
        report = outcome["report"]
        expected = self.first.get(key)
        if expected is None and self.reference is not None and (self.seed == 0 or not op.seeded):
            expected = self.reference.get(f"{key[0]}/{key[1]}", {}).get("facts")
        problems = oracle.check(op.argv, report, expected)
        record["problems"] = problems
        self.first.setdefault(key, oracle.facts(report))
        return record


def _tail(times):
    """Highest whole percentile with at least 10 samples beyond it, and its value.

    With fewer than 20 samples no percentile above the median qualifies, so
    the median (nearest rank) stands in.
    """
    ordered = sorted(times)
    n = len(ordered)
    pct = max(50, math.floor(100 * (n - 10) / n))
    return pct, ordered[max(0, math.ceil(pct / 100 * n) - 1)]


def end_to_end(records, setup_times) -> dict:
    ok = sum(not is_failed(r) for r in records)
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "ok_ops_per_s": (ok / sum(r["seconds"] for r in records), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def latency(records) -> dict:
    """Median and tail of the time a caller waited, failed operations included."""
    waited = [r["seconds"] for r in records]
    pct, tail = _tail(waited)
    return {"op_p50_s": statistics.median(waited), "op_tail_s": tail,
            "op_tail_percentile": pct, "op_samples": len(waited)}


def command_times(records, passes) -> dict:
    out = {name: 0.0 for name in COMMAND_TIMES}
    for r in records:
        out[r["label"]] += r["seconds"] / passes
    return out


def _blas() -> dict:
    import numpy as np

    info = {"name": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (KeyError, TypeError):
        pass
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref = text[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def metadata() -> dict:
    import numpy as np

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "git_commit": _git_commit(),
    }


def load_reference(workload, tiny):
    """Expected facts per "set/op": for every seed where the inputs are the
    fixed see-saw pool, for seed 0 where they follow the seed."""
    if tiny:
        return None
    return json.loads((BENCH / "reference.json").read_text())[workload]


def import_cli():
    if not (SRC / "bellwerner" / "cli.py").is_file():
        raise FileNotFoundError(f"no package source under {SRC}")
    os.environ.pop("BELLWERNER_THREADS", None)
    sys.path.insert(0, str(SRC))
    import bellwerner.cli

    if Path(bellwerner.cli.__file__).resolve().parent != SRC / "bellwerner":
        raise ImportError(f"imported bellwerner from {bellwerner.cli.__file__}, not {SRC}")
    return bellwerner.cli


def measure(workload, seed, seconds, trace, *, tiny=False) -> dict:
    """One benchmark run; returns the full result document."""
    cli = import_cli()
    inputs = OUT / "inputs" / f"{workload}-{seed}{'-tiny' if tiny else ''}"
    setup_times = set_up(workload, seed, inputs, tiny)
    runner = Runner(cli, workload, seed, inputs, load_reference(workload, tiny), tiny)
    passes = max(1, round(seconds / workloads.NOMINAL_PASS_S[workload]))
    pass_times = [runner.run_pass(index) for index in range(passes)]
    untraced = list(runner.records)
    waits = latency(untraced)
    result = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "tiny": tiny, "meta": metadata(), "setup_times": setup_times,
              "pass_times": pass_times}
    if trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        traced_times = []
        origin = time.perf_counter()
        # Replay the last passes, which run warm like their replays.
        replayed = max(1, passes // 2)
        try:
            for index in range(passes - replayed, passes):
                traced_times.append(runner.run_pass(index, tracer))
        finally:
            tracer.uninstall()
        metrics = {k: (v, _unit(k)) for k, v in tracer.layer_metrics(replayed).items()}
        metrics["trace.overhead_s"] = (
            (sum(traced_times) - sum(pass_times[-replayed:])) / replayed, "s")
        for name, value in command_times(untraced, len(pass_times)).items():
            metrics[name] = (value, "s")
        failed = sum(map(is_failed, untraced))
        metrics["failed_ops_ratio"] = (failed / len(untraced), "ratio")
        metrics["op_p50_s"] = (waits["op_p50_s"], "s")
        metrics["op_tail_s"] = (waits["op_tail_s"], "s")
        spans_path = OUT / f"spans-{workload}-{seed}.jsonl"
        tracer.write(spans_path, origin)
        result["traced_pass_times"] = traced_times
        result["spans"] = str(spans_path.relative_to(ROOT))
    else:
        metrics = end_to_end(untraced, setup_times)
    records = runner.records
    failures = {}
    for r in filter(is_failed, records):
        key = r["error"].split(":")[0] if r["error"] else "wrong output"
        failures[key] = failures.get(key, 0) + 1
    # An operation is one (pass, op) of the untraced passes; a replay repeats it.
    attempted_ops = {(r["pass"], r["op"]) for r in untraced}
    failed_ops = {(r["pass"], r["op"]) for r in records if is_failed(r)} & attempted_ops
    result.update(
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        notes={"passes": passes, "untraced_ops": len(untraced),
               "op_tail_percentile": waits["op_tail_percentile"]},
        correct=not any(r["problems"] for r in records),
        attempted=len(attempted_ops),
        failed=len(failed_ops),
        cut=runner.cut,
        failures=failures,
        ops=records,
    )
    return result


def _unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="bellwerner benchmark")
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        result = measure(args.workload, args.seed, args.seconds, args.trace)
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(f"notes {json.dumps(result['notes'])} failures {json.dumps(result['failures'])}")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
