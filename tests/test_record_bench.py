"""tools/record_bench.py without bench/run.py: --compare on committed records, pairs_won,
the sides and their checkout, and record() over fake trees with a fake run_bench."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("record_bench", ROOT / "tools" / "record_bench.py")
record_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record_bench)


def test_compare_prints_every_metric_and_shared_command(capsys):
    assert record_bench.main(["--compare", str(ROOT / "BENCH_40.json"),
                              str(ROOT / "BENCH_41.json")]) == 0
    metric_table, command_table = capsys.readouterr().out.strip().split("\n\n")
    metric_rows = metric_table.splitlines()[1:]
    assert len(metric_rows) == 9
    assert all(row.split()[1] in record_bench.METRICS and row.split()[5] == "yes"
               for row in metric_rows)
    assert len(command_table.splitlines()[1:]) == 8


def _result(ok=1.0, rss=40.0, setup=0.1, passes=8, attempted=56, seconds=1.0):
    """A bench/run.py result document with the fields the recorder reads."""
    return {"metrics": {"ok_ops_per_s": {"value": ok}, "peak_rss_mb": {"value": rss},
                        "setup_s": {"value": setup}},
            "correct": True, "failed": 0, "attempted": attempted, "seconds": seconds,
            "notes": {"passes": passes}, "pass_times": [1.0] * passes,
            "ops": [{"label": "bounds_s", "seconds": 0.5}] * passes,
            "meta": dict.fromkeys(("nproc", "machine", "python", "numpy", "blas"), "x")}


def test_pairs_won_counts_wins_in_each_metrics_better_direction():
    # ok_ops_per_s is better higher, peak_rss_mb and setup_s lower; a tie counts for neither
    change = [_result(ok=2.0, rss=41.0, setup=0.1), _result(ok=1.0, rss=39.0, setup=0.2),
              _result(ok=3.0, rss=40.0, setup=0.3)]
    parent = [_result(ok=1.0, rss=40.0, setup=0.1)] * 3
    assert record_bench.pairs_won(change, parent) == {
        "ok_ops_per_s": 2, "peak_rss_mb": 1, "setup_s": 0}


def _fake_git(untracked="", stash=""):
    answers = {"ls-files": untracked, "stash": stash}
    return lambda *args: f"commit-of-{args[1]}" if args[0] == "rev-parse" else answers[args[0]]


@pytest.mark.parametrize("stash, rev", [("", "HEAD"), ("f00d", "f00d")])
def test_change_side_is_the_stash_commit_or_head(monkeypatch, stash, rev):
    monkeypatch.setattr(record_bench, "_git", _fake_git(stash=stash))
    assert record_bench.sides(None) == {"change": {"rev": rev, "commit": f"commit-of-{rev}"}}
    both = record_bench.sides("HEAD~1")
    assert both["parent"] == {"rev": "HEAD~1", "commit": "commit-of-HEAD~1"}
    assert both["change"].keys() == both["parent"].keys()


def test_untracked_source_stops_the_recorder_before_any_checkout(monkeypatch, tmp_path):
    monkeypatch.setattr(record_bench, "_git", _fake_git(untracked="src/bellwerner/new.py"))
    monkeypatch.setattr(record_bench, "checkout", lambda rev: pytest.fail("checked out"))
    with pytest.raises(SystemExit, match="src/bellwerner/new.py"):
        record_bench.main(["--out", str(tmp_path / "BENCH.json")])
    assert not (tmp_path / "BENCH.json").exists()


def test_checkout_holds_the_committed_tree_and_removes_it():
    with record_bench.checkout("HEAD") as tree:
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
    assert (entry["change"]["seconds"], entry["parent"]["seconds"]) == (12.0, 3.0)


@pytest.mark.parametrize("skew", ["passes", "attempted"])
def test_a_pair_of_unequal_work_stops_the_recorder(monkeypatch, tmp_path, skew):
    monkeypatch.setattr(record_bench, "run_bench", _fake_run_bench([], skew))
    with pytest.raises(SystemExit, match="^record_bench: w seed 0: the sides made unequal work"):
        record_bench.record(_fake_trees(tmp_path), 2)
