"""tools/record_bench.py without bench/run.py: the verdict on committed and synthetic records,
the sides and their checkout, and record() over fake trees with a fake run_bench."""

import contextlib
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("record_bench", ROOT / "tools" / "record_bench.py")
record_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record_bench)


def _result(ok=1.0, rss=40.0, setup=0.1, passes=8, attempted=56, seconds=1.0):
    """A bench/run.py result document with the fields the recorder reads."""
    return {"metrics": {"ok_ops_per_s": {"value": ok}, "peak_rss_mb": {"value": rss},
                        "setup_s": {"value": setup}},
            "failed": 0, "attempted": attempted, "seconds": seconds,
            "notes": {"passes": passes}, "pass_times": [1.0] * passes,
            "ops": [{"label": "bounds_s", "seconds": 0.5}] * passes,
            "meta": dict.fromkeys(("nproc", "machine", "python", "numpy", "blas"), "x")}


def _verdict(workloads):
    """verdict's judged rows, split into fields, and its command rows."""
    judged, _, timed = record_bench.verdict(workloads).partition("\n\n")
    return [row.split() for row in judged.splitlines()[1:]], timed.splitlines()[1:]


def _committed(name):
    return json.loads((ROOT / name).read_text())["workloads"]


@pytest.mark.parametrize("name", [
    "BENCH_33.json", "BENCH_35.json", "BENCH_37.json", "BENCH_37_AA.json", "BENCH_38.json",
    "BENCH_39.json", "BENCH_40.json", "BENCH_41.json", "BENCH_42.json", "BENCH_42_AA.json",
    "BENCH_43.json"])
def test_verdict_counts_the_pairs_won_these_records_stored(name):
    # records made before the verdict counted the won pairs from the runs also stored the count
    workloads = _committed(name)
    rows, _ = _verdict(workloads)
    stored = {(workload, metric): f"{won}/{len(entry['change'][metric]['runs'])}"
              for workload, entry in workloads.items()
              for metric, won in entry["pairs_won"].items()}
    assert {(row[0], row[1]): row[5] for row in rows if row[1] in record_bench.METRICS} == stored


@pytest.mark.parametrize("name", ["BENCH_41.json", "BENCH_42.json"])
def test_verdict_on_a_settled_record_reads_yes_on_every_row(name):
    rows, commands = _verdict(_committed(name))
    assert len([row for row in rows if row[1] in record_bench.METRICS]) == 9
    assert [row[1] for row in rows if row[1] not in record_bench.METRICS] == ["failed_share"] * 3
    assert all(row[6] == "yes" for row in rows)
    assert len(commands) == 8


@pytest.mark.parametrize("name, unresolved", [
    ("BENCH_42_AA.json", {("enumeration_scan", "ok_ops_per_s")}),
    ("BENCH_40.json", {("enumeration_scan", "ok_ops_per_s"), ("enumeration_scan", "setup_s"),
                       ("werner_detect", "setup_s")}),
])
def test_verdict_reads_unresolved_where_the_parent_spreads_past_the_bound(name, unresolved):
    rows, _ = _verdict(_committed(name))
    assert {(row[0], row[1]) for row in rows if row[6] == "unresolved"} == unresolved
    assert all(row[6] == "yes" for row in rows if (row[0], row[1]) not in unresolved)


def test_verdict_on_the_unresolved_row_of_the_aa_record():
    rows, _ = _verdict(_committed("BENCH_42_AA.json"))
    row = next(row for row in rows if row[6] == "unresolved")
    # parent q1, median, q3: 42.83, 47.79, 56.48 ok ops/s; the change side is ahead in 3 of 6 pairs
    assert row[5] == "3/6" and " ".join(row[6:]) == "unresolved (parent spread 0.286 > 0.25)"


@pytest.mark.parametrize("name", ["BENCH_33.json", "BENCH_35.json"])
def test_verdict_skips_command_rows_a_record_does_not_hold(name):
    rows, commands = _verdict(_committed(name))
    assert len(rows) == 12 and commands == []


def _workload(change, parent):
    """A record's workloads entry from fake change and parent results, as record() builds it."""
    return {"w": {"change": record_bench.summary(change), "parent": record_bench.summary(parent)}}


def _readings(workloads):
    return {row[1]: row[6] for row in _verdict(workloads)[0]}


def test_verdict_counts_wins_in_each_metrics_better_direction():
    # ok_ops_per_s is better higher, peak_rss_mb and setup_s lower; a tie counts for neither
    change = [_result(ok=2.0, rss=41.0, setup=0.1), _result(ok=1.0, rss=39.0, setup=0.2),
              _result(ok=3.0, rss=40.0, setup=0.3)]
    parent = [_result(ok=1.0, rss=40.0, setup=0.1)] * 3
    won = {row[1]: row[5] for row in _verdict(_workload(change, parent))[0]}
    assert won == {"ok_ops_per_s": "2/3", "peak_rss_mb": "1/3", "setup_s": "0/3",
                   "failed_share": "-"}


def test_verdict_reads_no_for_a_change_thirty_percent_slower_with_tight_spreads():
    parent = [_result(ok=10.0 + 0.01 * i) for i in range(10)]
    change = [_result(ok=7.0 + 0.01 * i) for i in range(10)]
    assert _readings(_workload(change, parent)) == {
        "ok_ops_per_s": "NO", "peak_rss_mb": "yes", "setup_s": "yes", "failed_share": "yes"}


def test_verdict_reads_yes_for_wide_spreads_with_every_change_run_ahead():
    parent = [_result(ok=ok) for ok in (5.0, 8.0, 10.0, 12.0, 15.0)]
    change = [_result(ok=ok) for ok in (16.0, 20.0, 24.0, 28.0, 32.0)]
    assert _readings(_workload(change, parent))["ok_ops_per_s"] == "yes"
    # the same spread with one change run behind the best parent run is unresolved
    change[0] = _result(ok=14.0)
    assert _readings(_workload(change, parent))["ok_ops_per_s"] == "unresolved"


def test_verdict_reads_no_for_a_larger_failed_share():
    parent = [_result() for _ in range(4)]
    change = [_result() for _ in range(4)]
    change[2]["failed"] = 1
    assert _readings(_workload(change, parent))["failed_share"] == "NO"
    assert _readings(_workload(parent, change))["failed_share"] == "yes"


def _fake_git(untracked="", stash=""):
    answers = {"ls-files": untracked, "stash": stash}
    return lambda *args: f"commit-of-{args[1]}" if args[0] == "rev-parse" else answers[args[0]]


@pytest.mark.parametrize("stash, rev", [("", "HEAD"), ("f00d", "f00d")])
def test_change_side_is_the_stash_commit_or_head(monkeypatch, stash, rev):
    monkeypatch.setattr(record_bench, "_git", _fake_git(stash=stash))
    both = record_bench.sides("HEAD~1")
    assert both["change"] == {"rev": rev, "commit": f"commit-of-{rev}"}
    assert both["parent"] == {"rev": "HEAD~1", "commit": "commit-of-HEAD~1"}


def test_untracked_source_stops_the_recorder_before_any_checkout(monkeypatch, tmp_path):
    monkeypatch.setattr(record_bench, "_git", _fake_git(untracked="src/bellwerner/new.py"))
    monkeypatch.setattr(record_bench, "checkout", lambda rev, side: pytest.fail("checked out"))
    with pytest.raises(SystemExit, match="src/bellwerner/new.py"):
        record_bench.main(["--out", str(tmp_path / "BENCH.json"), "--parent", "HEAD"])
    assert not (tmp_path / "BENCH.json").exists()


def test_parent_is_required_before_any_git_call(monkeypatch, tmp_path):
    monkeypatch.setattr(record_bench, "_git", lambda *args: pytest.fail(f"git {args}"))
    with pytest.raises(SystemExit) as stop:
        record_bench.main(["--out", str(tmp_path / "BENCH.json")])
    assert stop.value.code == 2
    assert not (tmp_path / "BENCH.json").exists()


def test_checkout_holds_the_committed_tree_and_removes_it():
    with record_bench.checkout("HEAD", "parent") as tree:
        assert tree.name == "parent"
        assert (tree / "bench" / "run.py").is_file()
        assert (tree / "src" / "bellwerner" / "cli.py").is_file()
    assert not tree.exists()


NOMINAL = {"change": 2.0, "parent": 0.5}


def _fake_trees(tmp_path):
    trees = {}
    for side, nominal in NOMINAL.items():
        (tmp_path / side / "bench").mkdir(parents=True)
        (tmp_path / side / "bench" / "workloads.py").write_text(
            f"SETS = 2\nWORKLOADS = ('w',)\nNOMINAL_PASS_S = {{'w': {nominal}}}\n")
        trees[side] = tmp_path / side
    return trees


def _fake_run_bench(calls, skew=None):
    """bench/run.py's pass count from --seconds and the tree's own constant; one pass is 1 s.
    skew changes the parent side's passes or attempted count."""
    def run_bench(tree, workload, seed, seconds):
        calls.append((tree.name, seconds))
        passes = max(1, round(seconds / NOMINAL[tree.name]))
        result = _result(passes=passes, attempted=7 * passes, seconds=seconds)
        if tree.name == "parent" and skew == "passes":
            result["notes"]["passes"] += 1
        if tree.name == "parent" and skew == "attempted":
            result["attempted"] -= 1
        return result
    return run_bench


def test_each_side_gets_the_seconds_for_the_same_pass_count(monkeypatch, tmp_path):
    calls = []
    monkeypatch.setattr(record_bench, "run_bench", _fake_run_bench(calls))
    entry = record_bench.record(_fake_trees(tmp_path), 2)["workloads"]["w"]
    # calibration: 2 passes of 1 s, so 3 rounds of 2 sets reach MIN_WORK_S = 5 s
    assert entry["passes"] == 6
    assert calls[1:] == [("parent", 3.0), ("change", 12.0), ("change", 12.0), ("parent", 3.0)]
    assert entry["change"]["passes"] == entry["parent"]["passes"] == [6, 6]
    # each measured number is held once, in the per-metric runs of each side
    assert set(entry) == {"passes", "change", "parent"}
    assert set(entry["change"]) == {*record_bench.METRICS, "failed", "attempted", "seconds",
                                    "passes", "commands"}
    assert (entry["change"]["seconds"], entry["parent"]["seconds"]) == (12.0, 3.0)


@pytest.mark.parametrize("skew", ["passes", "attempted"])
def test_a_pair_of_unequal_work_stops_the_recorder(monkeypatch, tmp_path, skew):
    monkeypatch.setattr(record_bench, "run_bench", _fake_run_bench([], skew))
    with pytest.raises(SystemExit, match="^record_bench: w seed 0: the sides made unequal work"):
        record_bench.record(_fake_trees(tmp_path), 2)


FAKE_RUN = """import json, pathlib, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
out = pathlib.Path("bench", "out")
out.mkdir(exist_ok=True)
name = f"result-{args['--workload']}-{args['--seed']}-trace0.json"
(out / name).write_text(json.dumps({"correct": False, "pass_times": [1.0]}))
"""


def test_an_incorrect_run_stops_the_recorder_before_the_record_is_written(monkeypatch, tmp_path):
    trees = _fake_trees(tmp_path)
    for tree in trees.values():
        (tree / "bench" / "run.py").write_text(FAKE_RUN)
    monkeypatch.setattr(record_bench, "_git", _fake_git())
    monkeypatch.setattr(record_bench, "checkout",
                        lambda rev, side: contextlib.nullcontext(trees[side]))
    out = tmp_path / "BENCH.json"
    # the calibration run is the first to stop it
    with pytest.raises(SystemExit, match="^record_bench: w seed 0 on the change side: incorrect"):
        record_bench.main(["--out", str(out), "--parent", "HEAD~1"])
    assert not out.exists()
    with pytest.raises(SystemExit, match="^record_bench: w seed 3 on the parent side: incorrect"):
        record_bench.run_bench(trees["parent"], "w", 3, 1.0)
