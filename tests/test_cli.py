import contextlib
import inspect
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellwerner import builtin, canonical_patterns, new_expression
from bellwerner import cli, gamma, quantum, werner
from bellwerner.cli import main
from bellwerner.werner import PureFamily, ghz_amplitudes
from helpers import pair_bound_holds, parse_report, save_expression, save_state


@pytest.fixture
def ch_file(tmp_path):
    path = tmp_path / "ch.json"
    save_expression(builtin("CH"), path)
    return str(path)


@pytest.fixture
def chsh_file(tmp_path):
    path = tmp_path / "chsh.json"
    save_expression(builtin("CHSH"), path)
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def _structured(capsys, argv):
    code, out, err = _run(capsys, argv + ["--format", "structured"])
    assert code == 0, err
    return parse_report(out)


def test_bounds_ch(capsys, ch_file):
    rep = _structured(capsys, ["bounds", ch_file])
    res = rep["results"]
    assert res["lhv_bound"] == 4.0
    assert res["homogeneous"] is False
    rows = res["tables"][0]["rows"]
    assert rows[0][1:] == [3.0, pytest.approx(4 / 3)]
    assert rows[1][1:] == [1.0, 4.0]
    assert res["composite_ratio_upper"] == pytest.approx(1 + math.sqrt(3), abs=1e-10)


def test_bounds_closed_form_and_seesaw(capsys, chsh_file):
    rep = _structured(
        capsys,
        ["bounds", chsh_file, "--seesaw", "--restarts", "6"],
    )
    res = rep["results"]
    assert res["closed_form"] == 2.0
    assert res["analytic_upper"] == pytest.approx(2 * math.sqrt(3), abs=1e-9)
    assert res["seesaw_lower"] == pytest.approx(2 * math.sqrt(2), abs=1e-3)


def test_bounds_reports_no_closed_form_for_marginal_terms(capsys, ch_file):
    res = _structured(capsys, ["bounds", ch_file])["results"]
    assert res["homogeneous"] is False
    for key in ("closed_form", "analytic_upper", "anticommuting_upper"):
        assert key not in res


@pytest.mark.parametrize("m, i", [(m, i) for m in range(2, 7) for i in range(1, m + 1)])
def test_bounds_gamma_of_an_expression_inside_one_block_is_one(capsys, tmp_path, m, i):
    # gamma_i >= 1 at every index, and an expression equal to its own block i attains 1
    rng = np.random.default_rng(100 * m + i)
    patterns = [p for p in canonical_patterns(m) if len(p) - len(p.lstrip("_")) == i - 1]
    path = tmp_path / "block.json"
    save_expression(new_expression(m, zip(patterns, rng.normal(size=len(patterns)))), path)
    rep = _structured(capsys, ["bounds", str(path)])
    gammas = [row[2] for row in rep["results"]["tables"][0]["rows"]]
    assert gammas == ["inf"] * (i - 1) + [1.0] + ["inf"] * (m - i)


def test_bounds_missing_file(capsys, tmp_path):
    code, _, err = _run(capsys, ["bounds", str(tmp_path / "nope.json")])
    assert code == 2


def test_bounds_bad_json(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{oops")
    code, _, err = _run(capsys, ["bounds", str(path)])
    assert code == 2
    assert "line" in err


def test_bounds_file_not_utf8(capsys, tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"parties": 1, "terms": [{"pattern": "\xff", "coeff": 1}]}')
    code, out, err = _run(capsys, ["bounds", str(path)])
    assert code == 2 and out == ""
    assert err == f"error: expression file {path}: not UTF-8 at byte 38\n"


@pytest.mark.parametrize("argv, kind", [(["bounds"], "expression"),
                                         (["werner", "pure", "--state"], "state")],
                         ids=["bounds", "werner pure"])
def test_file_nested_too_deeply_exits_2(capsys, tmp_path, argv, kind):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    code, out, err = _run(capsys, argv + [str(path)])
    assert (code, out) == (2, "")
    assert err == f"error: {kind} file {path}: JSON nested too deeply\n"


@pytest.mark.parametrize(
    "pattern, problem",
    [
        ("01", "does not have length 3"),
        ("0x1", "contains invalid symbols"),
        ("___", "all-absent pattern"),
        (7, "pattern must be a string, got int"),
    ],
)
def test_bounds_bad_pattern_names_its_entry(capsys, tmp_path, pattern, problem):
    path = tmp_path / "bad.json"
    terms = [{"pattern": "010", "coeff": 1.0}, {"pattern": pattern, "coeff": 1.0}]
    path.write_text(json.dumps({"parties": 3, "terms": terms}))
    code, out, err = _run(capsys, ["bounds", str(path)])
    assert code == 2 and out == ""
    assert err.startswith("error: terms[1]: ") and problem in err


def test_bounds_empty_terms(capsys, tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"parties": 2, "terms": []}))
    code, _, err = _run(capsys, ["bounds", str(path)])
    assert code == 2


def test_mermin_closed_form_warning(capsys, tmp_path):
    path = tmp_path / "mermin.json"
    save_expression(builtin("MERMIN"), path)
    rep = _structured(capsys, ["bounds", str(path)])
    names = {w["name"] for w in rep["warnings"]}
    assert "closed-form-exceeds-enumeration" in names


def test_seesaw_above_composite_warning(capsys, tmp_path):
    # MERMIN(5) is one block, so its composite ratio is sqrt(3) + 1; the see-saw reaches 4 c1
    path = tmp_path / "mermin5.json"
    save_expression(builtin("MERMIN(5)"), path)
    rep = _structured(capsys, ["bounds", str(path), "--seesaw", "--restarts", "2"])
    assert rep["results"]["seesaw_lower"] == pytest.approx(4 * rep["results"]["lhv_bound"])
    assert [w for w in rep["warnings"] if w["name"] == "seesaw-above-composite"] == [{
        "name": "seesaw-above-composite",
        "message": "seesaw_lower / lhv_bound = 4 exceeds the paper's composite ratio "
                   "2.73205080757",
    }]


def test_tables_i(capsys):
    rep = _structured(capsys, ["tables", "I"])
    rows = rep["results"]["tables"][0]["rows"]
    assert [r[0] for r in rows] == [2, 3, 4, 5, 6]
    assert rows[0][1] == pytest.approx(0.0811, abs=5e-5)
    assert rows[2][3] == pytest.approx(96.89, abs=0.02)
    assert {w["name"] for w in rep["warnings"]} == {"table-i-m3-r-cell"}


def test_tables_iii_m2_empty(capsys):
    code, out, _ = _run(capsys, ["tables", "III"])
    assert code == 0
    assert "| 2 | - | - | - |" in out


def test_tables_ii_small(capsys):
    rep = _structured(capsys, ["tables", "II", "--samples", "400", "--max-m", "3"])
    rows = rep["results"]["tables"][0]["rows"]
    assert len(rows) == 2
    for row in rows:
        assert row[2] >= 1.0  # gamma_1 column


def test_tables_ii_zero_samples(capsys):
    # a non-positive count is rejected while parsing
    with pytest.raises(SystemExit) as exc:
        main(["tables", "II", "--samples", "0"])
    assert exc.value.code == 2


def test_tables_ii_runs_past_the_default_max_m(capsys):
    # the paper's table runs to six parties; no option guards the time it takes
    code, out, err = _run(capsys, ["tables", "II", "--max-m", "5"])
    assert (code, err) == (0, "")
    assert "| 5 | 1000 |" in out


def test_tables_ii_warns_of_skipped_block_evaluations(capsys, monkeypatch):
    # with the magnitude floor above every block bound, each m skips all m blocks of every sample
    monkeypatch.setattr(gamma, "_BLOCK_EPS", 1e300)
    rep = _structured(capsys, ["tables", "II", "--samples", "20"])
    assert rep["results"]["tables"][0]["rows"] == [[m, 20] + ["-"] * 6 for m in (2, 3, 4)]
    assert rep["warnings"] == [
        {"name": "skipped-samples",
         "message": f"m={m}: {20 * m} block evaluations fell below the magnitude floor and "
                    "were skipped"}
        for m in (2, 3, 4)
    ]


@pytest.mark.parametrize(
    "argv",
    [
        ["werner", "pure", "--state", "STATE40"],
        ["werner", "ghz", "--m", "40", "--theta", "0.6"],
        ["measure", "--m", "40", "--poly", "3", "--samples", "100"],
        ["measure", "--m", "1100", "--poly", "3"],
        ["bounds", "EXPR9"],
        ["gamma", "--m", "9", "--samples", "10"],
        ["werner", "ghz", "--m", "9", "--theta", "0.6", "--expr", "EXPR9"],
    ],
)
def test_oversize_inputs_hit_a_cap(capsys, tmp_path, argv):
    # the first four would allocate 2^40 amplitudes or more without their cap
    files = {"STATE40": tmp_path / "state40.json", "EXPR9": tmp_path / "expr9.json"}
    files["STATE40"].write_text(
        json.dumps({"parties": 40, "amplitudes": [{"index": "0" * 40, "re": 1.0}]})
    )
    save_expression(new_expression(9, [("0" * 9, 1.0)]), files["EXPR9"])
    argv = [str(files.get(arg, arg)) for arg in argv]
    code, out, err = _run(capsys, argv)
    assert code == 4
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "exceeds the cap of" in err


@pytest.mark.parametrize(
    "argv",
    [["gamma", "--m", "2", "--samples", "4294967297"], ["tables", "II", "--samples", "4294967297"]],
)
def test_gamma_sample_cap_exits_before_drawing(capsys, monkeypatch, argv):
    def no_draws(*args):
        raise AssertionError("a sample was drawn")

    monkeypatch.setattr(gamma, "_substream_states", no_draws)
    code, out, err = _run(capsys, argv)
    assert (code, out) == (4, "")
    assert err == "error: samples per gamma scan: 4294967297 exceeds the cap of 4294967296\n"


@pytest.mark.parametrize("samples", [2 ** 53 + 1, 10 ** 312], ids=["2^53+1", "10^312"])
def test_measure_sample_cap_exits_before_drawing(capsys, monkeypatch, samples):
    # 2^53 is the largest count a float holds exactly; 10^312 does not convert to one at all
    def no_draws(*args):
        raise AssertionError("a sample was drawn")

    monkeypatch.setattr(werner, "summed", no_draws)
    code, out, err = _run(capsys, ["measure", "--m", "3", "--poly", "3", "--samples", str(samples)])
    assert (code, out) == (4, "")
    assert err == f"error: samples per Monte Carlo run: {samples} exceeds the cap of {2 ** 53}\n"


def test_tables_bad_selector(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["tables", "IV"])
    assert exc.value.code == 2


def test_werner_ghz(capsys):
    rep = _structured(capsys, ["werner", "ghz", "--m", "2", "--theta", "0.7854"])
    res = rep["results"]
    assert res["separability_threshold"] == pytest.approx(1 / 3, abs=1e-9)
    assert res["separability_upper_bound"] == pytest.approx(1 / math.sqrt(3), abs=1e-9)


def test_werner_ghz_domain_error(capsys):
    code, _, err = _run(capsys, ["werner", "ghz", "--m", "2", "--theta", "0"])
    assert code == 3


def test_werner_ghz_with_expression(capsys, chsh_file):
    rep = _structured(
        capsys,
        [
            "werner", "ghz", "--m", "2", "--theta", "0.785398",
            "--expr", chsh_file, "--restarts", "5",
        ],
    )
    detection = rep["results"]["detection"]
    assert detection["classical_bound"] == 2.0
    assert detection["detect_visibility"] == pytest.approx(0.7071, abs=1e-3)
    assert detection["visibility_lower_bound"] == pytest.approx(
        6 / (8 * math.sqrt(3) - 2), abs=1e-9
    )
    assert detection["undetectable_window"] is True


def test_werner_pure(capsys, tmp_path):
    path = tmp_path / "ghz2.json"
    save_state(PureFamily(ghz_amplitudes(2, math.pi / 4)), path)
    rep = _structured(capsys, ["werner", "pure", "--state", str(path)])
    res = rep["results"]
    assert res["separability_upper_bound"] == pytest.approx(0.5774, abs=1e-4)
    assert res["max_pair_product"] == pytest.approx(0.25, abs=1e-12)


def test_werner_pure_bad_norm(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps({"parties": 1, "amplitudes": [{"index": "0", "re": 0.5}]})
    )
    code, _, err = _run(capsys, ["werner", "pure", "--state", str(path)])
    assert code == 3
    assert "norm" in err


def test_measure_command(capsys):
    rep = _structured(capsys, ["measure", "--m", "3", "--poly", "3", "--samples", "5000"])
    res = rep["results"]
    assert res["lower_bound"] == 0.31640625
    assert res["bound_consistent"] is True
    assert {w["name"] for w in rep["warnings"]} == {"membership-pair-weight"}


def test_measure_warns_when_the_bound_is_inconsistent(capsys):
    # the exact share 0.00093 lies below the bound 0.0030; the report says
    # so by name and still exits 0
    rep = _structured(capsys, ["measure", "--m", "3", "--poly", "6", "--samples", "200000"])
    assert rep["results"]["bound_consistent"] is False
    assert [w["name"] for w in rep["warnings"]] == [
        "membership-pair-weight",
        "measure-bound-inconsistent",
    ]


@pytest.mark.parametrize("samples", [100, 20000])
@pytest.mark.parametrize("m, poly, consistent", [
    (3, 4.7, False), (3, 4.6, True), (3, 3.0, True), (6, 3.0, True), (10, 3.0, True),
])
def test_measure_decides_bound_consistent_from_the_exact_share(capsys, samples, m, poly,
                                                                consistent):
    # at m = 3, poly 4.6 and 4.7 sit on either side of 4 sqrt(2) - 1, where t = c^2 = 1/2 = t*(3),
    # whatever the sample; the warning names t = c * c against t*(3), not the exact share
    argv = ["measure", "--m", str(m), "--poly", str(poly), "--samples", str(samples)]
    rep = _structured(capsys, argv)
    assert rep["results"]["bound_consistent"] is consistent
    inconsistent = [w["message"] for w in rep["warnings"]
                    if w["name"] == "measure-bound-inconsistent"]
    if consistent:
        assert inconsistent == []
    else:
        assert inconsistent == ["t = c * c = 0.50765625 exceeds t*(3) = 0.5, so the exact share "
                                "lies below the closed-form lower bound (see bound_consistent); "
                                "the bound holds up to poly = 4.65685"]


@pytest.mark.parametrize("m", range(3, 16))
def test_measure_bound_consistent_flips_at_the_pair_bound_root(capsys, m):
    # poly*(m) = 2^m sqrt(t*(m)) - 1; a relative step of 1e-9 either side decides the verdict
    root = werner._pair_bound_root(m)
    poly = 2 ** m * math.sqrt(root) - 1
    for step, consistent in ((-1e-9, True), (1e-9, False)):
        c = (poly * (1 + step) + 1.0) / 2 ** m
        argv = ["measure", "--m", str(m), "--poly", repr(poly * (1 + step)), "--samples", "100"]
        rep = _structured(capsys, argv)
        assert rep["results"]["bound_consistent"] is consistent
        inconsistent = [w["message"] for w in rep["warnings"]
                        if w["name"] == "measure-bound-inconsistent"]
        assert len(inconsistent) == (not consistent)
        assert all(f"t = c * c = {c * c!r} exceeds t*({m}) = {root!r}, " in w
                   and w.endswith(f"poly = {poly:.6g}") for w in inconsistent)


@pytest.mark.parametrize("m", range(3, 16))
def test_measure_bound_consistent_flips_once_within_30_ulps_of_the_root(capsys, monkeypatch, m):
    # the verdict is t = c * c <= t*(m), with c as the sampler computes it, so it turns false
    # exactly once in poly; a stub sampler draws nothing
    estimate = werner.MonteCarloEstimate(0.5, 0.05, 50, 100)
    monkeypatch.setattr(cli, "measure_monte_carlo", lambda m, poly, samples, seed: estimate)
    root = werner._pair_bound_root(m)
    polys = [2 ** m * math.sqrt(root) - 1]
    for _ in range(30):
        polys = [math.nextafter(polys[0], 0.0), *polys, math.nextafter(polys[-1], math.inf)]
    verdicts = []
    for poly in polys:
        argv = ["measure", "--m", str(m), "--poly", repr(poly), "--samples", "100"]
        rep = _structured(capsys, argv)
        verdicts.append(rep["results"]["bound_consistent"])
        notes = [w["message"] for w in rep["warnings"] if w["name"] == "measure-bound-inconsistent"]
        assert len(notes) == (not verdicts[-1])
        c = (poly + 1.0) / 2 ** m
        assert all(f"t = c * c = {c * c!r} exceeds t*({m}) = {root!r}, " in note
                   for note in notes)
    assert verdicts[0] and not verdicts[-1]
    assert sum(a != b for a, b in zip(verdicts, verdicts[1:])) == 1
    # the flip is where the exact integer test turns false
    last = verdicts.index(False) - 1
    for poly, holds in ((polys[last], True), (polys[last + 1], False)):
        c = (poly + 1.0) / 2 ** m
        assert pair_bound_holds(m, c * c) is holds


@pytest.mark.parametrize("m, poly", [
    (4, "6.137242056848778"), (4, "6.137242056848779"), (4, "6.1372420568487795"),
    (7, "17.198260444684788"), (8, "24.54877264780327"), (8, "24.548772647803272"),
    (11, "70.8033207596543"), (13, "142.50866120158034"),
])
def test_measure_bound_inconsistent_just_above_the_exact_root(capsys, m, poly):
    # t = c * c lies above t*(m) by the exact integer test; a float root of the log1p form,
    # a few ulps above the exact one, read these as consistent
    c = (float(poly) + 1.0) / 2 ** m
    assert not pair_bound_holds(m, c * c)
    rep = _structured(capsys, ["measure", "--m", str(m), "--poly", poly, "--samples", "100"])
    assert rep["results"]["bound_consistent"] is False


def test_measure_bound_inconsistent_where_share_and_bound_underflow(capsys):
    # at t = (1801/2048)^2 > t*(11) both the exact share and the bound round to 0.0, which
    # compared as floats would read consistent; the warning names t and t*(11), not the two 0s
    rep = _structured(capsys, ["measure", "--m", "11", "--poly", "1800", "--samples", "100"])
    assert rep["results"]["lower_bound"] == 0.0
    assert werner.exact_pair_fraction(11, 1800.0) == 0.0
    assert rep["results"]["bound_consistent"] is False
    [note] = [w["message"] for w in rep["warnings"] if w["name"] == "measure-bound-inconsistent"]
    t, root = (1801 / 2048) ** 2, werner._pair_bound_root(11)
    assert note.startswith(f"t = c * c = {t!r} exceeds t*(11) = {root!r}, ")
    assert "0 lies below" not in note


def test_measure_rejects_saturated_constant(capsys):
    code, _, err = _run(capsys, ["measure", "--m", "2", "--poly", "3", "--samples", "5000"])
    assert code == 3


def test_gamma_command(capsys):
    rep = _structured(capsys, ["gamma", "--m", "2", "--samples", "500", "--seed", "7"])
    rows = rep["results"]["tables"][0]["rows"]
    assert rows[0][0] == 1
    assert 1.0 <= rows[0][1] <= 1.05


def test_gamma_eight_parties(capsys):
    # eight parties are under the enumeration cap; the scan must not need a
    # dense 4^8 x 3^8 matrix (3.2 GiB as float64) to run
    rep = _structured(capsys, ["gamma", "--m", "8", "--samples", "2"])
    rows = rep["results"]["tables"][0]["rows"]
    assert [row[0] for row in rows] == list(range(1, 9))
    assert all(row[3] == 0 for row in rows)


def test_examples_command(capsys):
    rep = _structured(capsys, ["examples", "--restarts", "2"])
    tables = {t["title"]: t for t in rep["results"]["tables"]}
    bounds = {row[0]: row for row in tables["Bounds"]["rows"]}
    assert bounds["CH"][2] == 4.0
    assert bounds["CH"][6] == pytest.approx(1 + math.sqrt(3), abs=1e-9)
    ratios = {(r[0], r[1]): r[2] for r in tables["Block ratios"]["rows"]}
    assert ratios[("CH", 1)] == pytest.approx(4 / 3)
    assert ratios[("CH", 2)] == 4.0
    assert ratios[("CHSH", 2)] == "inf"
    names = {w["name"] for w in rep["warnings"]}
    assert "closed-form-exceeds-enumeration" in names
    assert "seesaw-above-composite" not in names  # no example's see-saw exceeds its composite
    variant = [w["message"] for w in rep["warnings"] if w["name"] == "loose-threshold-variant"]
    assert [message.split(":")[0] for message in variant] == ["CH"]
    # the verdict columns the note names exist; no `satisfied` field does
    assert "`measure_condition`" in variant[0] and "`measure_condition_variant`" in variant[0]
    assert "satisfied" not in variant[0]


def test_examples_rows_are_what_bounds_seesaw_reports(capsys, tmp_path):
    # each built-in's examples rows are its `bounds --seesaw` results, so a check
    # added to one command cannot leave the other behind
    rep = _structured(capsys, ["examples", "--restarts", "2"])
    tables = {t["title"]: t["rows"] for t in rep["results"]["tables"]}
    for name in ("CHSH", "MERMIN", "CH", "SASA"):
        path = tmp_path / f"{name}.json"
        save_expression(builtin(name), path)
        bounds = _structured(capsys, ["bounds", str(path), "--seesaw", "--restarts", "2"])
        res = bounds["results"]
        assert [row for row in tables["Bounds"] if row[0] == name] == [[
            name, res["parties"], res["lhv_bound"], res.get("closed_form", "-"),
            res["seesaw_lower"], res.get("analytic_upper", "-"), res["composite_ratio_upper"],
        ]]
        assert [row[1:] for row in tables["Block ratios"] if row[0] == name] == [
            [i, gamma] for i, _, gamma in res["tables"][0]["rows"]
        ]
        assert [
            w for w in rep["warnings"]
            if w["message"].startswith(f"{name}: ") and w["name"] != "loose-threshold-variant"
        ] == [{"name": w["name"], "message": f"{name}: {w['message']}"} for w in bounds["warnings"]]


def test_seesaw_sweep_cap_warning(capsys, monkeypatch, tmp_path, chsh_file):
    rep = _structured(capsys, ["bounds", chsh_file, "--seesaw", "--restarts", "2"])
    assert "seesaw-sweep-cap" not in {w["name"] for w in rep["warnings"]}
    results = rep["results"]

    monkeypatch.setattr(quantum, "_MAX_SWEEPS", 1)
    rep = _structured(capsys, ["bounds", chsh_file, "--seesaw", "--restarts", "2"])
    assert "seesaw-sweep-cap" in {w["name"] for w in rep["warnings"]}
    assert rep["results"].keys() == results.keys()
    rep = _structured(capsys, ["examples", "--restarts", "1"])
    assert "seesaw-sweep-cap" in {w["name"] for w in rep["warnings"]}
    # per expression: closed form, then sweep cap, then (examples only) the variant
    assert [(w["message"].split(":")[0], w["name"]) for w in rep["warnings"]] == [
        ("CHSH", "seesaw-sweep-cap"),
        ("MERMIN", "closed-form-exceeds-enumeration"),
        ("MERMIN", "seesaw-sweep-cap"),
        ("CH", "seesaw-sweep-cap"),
        ("CH", "loose-threshold-variant"),
        ("SASA", "seesaw-sweep-cap"),
    ]
    path = tmp_path / "mermin.json"
    save_expression(builtin("MERMIN"), path)
    rep = _structured(capsys, ["bounds", str(path), "--seesaw"])
    assert [w["name"] for w in rep["warnings"]] == [
        "closed-form-exceeds-enumeration",
        "seesaw-sweep-cap",
    ]


def test_werner_warns_when_its_seesaw_hits_the_sweep_cap(capsys, tmp_path):
    rng = np.random.default_rng(1)
    v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    state, expr = tmp_path / "state.json", tmp_path / "mermin3.json"
    save_state(PureFamily(v / np.linalg.norm(v)), state)
    save_expression(builtin("MERMIN(3)"), expr)
    argv = ["werner", "pure", "--state", str(state), "--expr", str(expr)]
    for restarts, capped in (("3", "3 of 4"), ("20", "18 of 21")):
        rep = _structured(capsys, argv + ["--restarts", restarts])
        assert rep["results"]["detection"]["detect_visibility"] == 0.651329994202
        assert rep["warnings"] == [{
            "name": "seesaw-sweep-cap",
            "message": f"{capped} see-saw restarts stopped at the sweep cap before "
            "converging; the lower bound may not be the best reachable",
        }]


@pytest.fixture
def lhv_calls(monkeypatch):
    """The expressions lhv_bound is called on, wherever the package binds it."""
    calls = []
    for module in (cli, quantum, werner):
        if hasattr(module, "lhv_bound"):
            def spy(expr, original=getattr(module, "lhv_bound")):
                calls.append(expr)
                return original(expr)

            monkeypatch.setattr(module, "lhv_bound", spy)
    return calls


def test_one_classical_bound_per_seesaw_op(capsys, tmp_path, lhv_calls, chsh_file, ch_file):
    mermin = tmp_path / "mermin3.json"
    save_expression(builtin("MERMIN(3)"), mermin)
    state = tmp_path / "state.json"
    save_state(PureFamily(ghz_amplitudes(3, 0.6)), state)
    for argv in (
        ["werner", "ghz", "--m", "2", "--theta", "0.6", "--expr", chsh_file],
        ["werner", "ghz", "--m", "3", "--theta", "0.6", "--expr", str(mermin)],
        ["werner", "pure", "--state", str(state), "--expr", str(mermin)],
    ):
        lhv_calls.clear()
        _structured(capsys, argv + ["--restarts", "2"])
        assert len(lhv_calls) == 1, argv  # the see-saw's, which detection reads c1 off
    # bounds --seesaw: the see-saw's bound of the whole expression, then one per
    # non-empty block: one for CHSH, two for CH, one for MERMIN(3)
    for path, blocks in ((chsh_file, 1), (ch_file, 2), (str(mermin), 1)):
        lhv_calls.clear()
        _structured(capsys, ["bounds", path, "--seesaw", "--restarts", "2"])
        assert len(lhv_calls) == 1 + blocks, path


def test_internal_fault_exit_code(capsys, monkeypatch, chsh_file):
    def fault(*args, **kwargs):
        raise RuntimeError("see-saw objective decreased; eigensolver or update fault")

    monkeypatch.setattr(cli, "seesaw_lower", fault)
    code, out, err = _run(capsys, ["bounds", chsh_file, "--seesaw"])
    assert code == 5
    assert out == ""
    assert err == "error: see-saw objective decreased; eigensolver or update fault\n"


@pytest.fixture
def overflow_file(tmp_path):
    path = tmp_path / "overflow.json"
    terms = [{"pattern": p, "coeff": 1e308} for p in ("00", "11")]
    path.write_text(json.dumps({"parties": 2, "terms": terms}))
    return str(path)


@pytest.mark.parametrize(
    "argv",
    [["bounds", "FILE"], ["bounds", "FILE", "--seesaw"],
     ["werner", "ghz", "--m", "2", "--theta", "0.6", "--expr", "FILE"]],
    ids=["bounds", "bounds seesaw", "werner ghz"],
)
def test_overflowing_coefficient_sum_is_an_input_error(capsys, overflow_file, argv):
    argv = [overflow_file if a == "FILE" else a for a in argv]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = _run(capsys, argv)
    assert code == 2
    assert out == "" and caught == []
    assert err == "error: the sum of |coeff| overflows the float range\n"


def test_nine_parties_name_the_operator_cap(capsys, tmp_path):
    # bounds --seesaw and werner --expr reach the see-saw's own cap check
    path = tmp_path / "nine.json"
    save_expression(builtin("MERMIN(9)"), path)
    seesaw = _run(capsys, ["bounds", str(path), "--seesaw"])
    werner = _run(capsys, ["werner", "ghz", "--m", "9", "--theta", "0.6", "--expr", str(path)])
    line = "error: parties for a 2^m x 2^m operator: 9 exceeds the cap of 8\n"
    assert seesaw == werner == (4, "", line)


@pytest.mark.parametrize(
    "argv",
    [["bounds", "FILE", "--seesaw"],
     ["werner", "ghz", "--m", "2", "--theta", "0.6", "--expr", "FILE"]],
    ids=["bounds seesaw", "werner ghz"],
)
def test_nonfinite_operator_in_a_sweep_is_an_error(capsys, monkeypatch, chsh_file, argv):
    calls = []
    bell_matrix = quantum._bell_matrix

    def poisoned(*args):
        calls.append(None)
        ops = bell_matrix(*args)
        if len(calls) == 3:  # the second sweep
            ops[-1, 0, 0] = np.nan
        return ops

    monkeypatch.setattr(quantum, "_bell_matrix", poisoned)
    argv = [chsh_file if a == "FILE" else a for a in argv]
    code, out, err = _run(capsys, argv + ["--restarts", "2"])
    assert code == 3
    assert out == ""
    assert err == "error: matrix has non-finite entries\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["bounds", "FILE", "--seesaw"], "matrix has non-finite entries"),
        (["werner", "pure", "--state", "STATE", "--expr", "FILE"], "see-saw update is not finite"),
    ],
    ids=["bounds seesaw", "werner pure"],
)
def test_overflowing_seesaw_is_one_error_line(capsys, tmp_path, argv, message):
    # the coefficient sum is finite, but the operator's symmetrisation and the
    # observable update overflow; the see-saw names that, with no RuntimeWarning.
    # seesaw_lower's axes, turned into the xz plane, make a first operator's
    # symmetrisation overflow before any update; the fixed-state see-saw keeps
    # the caller's frame, where the update overflows first
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"parties": 2, "terms": [{"pattern": "00", "coeff": 1e308}]}))
    save_state(PureFamily(ghz_amplitudes(2, 0.0)), tmp_path / "state.json")
    argv = [{"FILE": str(path), "STATE": str(tmp_path / "state.json")}.get(a, a) for a in argv]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = _run(capsys, argv)
    assert (code, out, err, caught) == (3, "", f"error: {message}\n", [])


def test_seed_reproducibility_across_threads(capsys, monkeypatch):
    # 3 chunks, on 1, 2 and 3 workers and on more cores than chunks
    def run(cores):
        monkeypatch.setattr(werner, "usable_cores", lambda: cores)
        argv = ["measure", "--m", "2", "--poly", "2", "--samples", "9000", "--seed", "3"]
        return _structured(capsys, argv)["results"]

    assert run(1) == run(2) == run(3) == run(8)


def test_gamma_reproducibility(capsys):
    def run():
        return _structured(capsys, ["gamma", "--m", "2", "--samples", "600"])["results"]

    assert run() == run()


def test_markdown_is_default_format(capsys, ch_file):
    code, out, _ = _run(capsys, ["bounds", ch_file])
    assert code == 0
    assert out.startswith("# bounds")


def test_csv_format(capsys, ch_file):
    code, out, _ = _run(capsys, ["bounds", ch_file, "--format", "csv"])
    assert code == 0
    assert out.splitlines()[0] == "command,bounds"


def test_structured_roundtrip_and_timestamp_exclusion(capsys, ch_file):
    first = _structured(capsys, ["bounds", ch_file])
    second = _structured(capsys, ["bounds", ch_file])
    assert first["results"] == second["results"]
    assert first["inputs"] == second["inputs"]
    assert first["warnings"] == second["warnings"]


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_main_runs_the_command_bound_at_call_time(capsys, monkeypatch, ch_file):
    # the parser is built once per process; the cmd_* it dispatches to is not
    assert _run(capsys, ["bounds", ch_file])[0] == 0
    seen = []

    def stand_in(args):
        seen.append(args.expr_file)
        return {}, []

    monkeypatch.setattr(cli, "cmd_bounds", stand_in)
    code, out, _ = _run(capsys, ["bounds", ch_file, "--format", "structured"])
    assert (code, seen) == (0, [ch_file])
    assert parse_report(out)["results"] == {}
    assert cli.build_parser() is cli.build_parser()


# argv with EXPR and STATE for the fixture files, and the inputs echoed in order
_INPUT_ECHOES = [
    (["bounds", "EXPR"],
     [("expr_file", "EXPR"), ("seesaw", False), ("restarts", quantum.DEFAULT_RESTARTS)]),
    (["bounds", "EXPR", "--seesaw", "--restarts", "2"],
     [("expr_file", "EXPR"), ("seesaw", True), ("restarts", 2)]),
    (["tables", "i"], [("which", "I"), ("samples", 10000), ("max_m", 4)]),
    (["tables", "II", "--samples", "100", "--max-m", "3"],
     [("which", "II"), ("samples", 100), ("max_m", 3)]),
    (["werner", "ghz", "--m", "2", "--theta", "0.7"],
     [("family", "ghz"), ("m", 2), ("theta", 0.7), ("restarts", quantum.DEFAULT_RESTARTS)]),
    (["werner", "ghz", "--m", "2", "--theta", "0.7", "--expr", "EXPR", "--restarts", "1"],
     [("family", "ghz"), ("m", 2), ("theta", 0.7), ("expr_file", "EXPR"), ("restarts", 1)]),
    (["werner", "pure", "--state", "STATE", "--expr", "EXPR", "--restarts", "1"],
     [("family", "pure"), ("state_file", "STATE"), ("expr_file", "EXPR"), ("restarts", 1)]),
    (["measure", "--m", "3", "--poly", "3", "--samples", "1000"],
     [("m", 3), ("poly", 3.0), ("samples", 1000)]),
    (["gamma", "--m", "2", "--samples", "100"], [("m", 2), ("samples", 100)]),
    (["examples", "--restarts", "1"], [("restarts", 1)]),
]


@pytest.mark.parametrize(
    "argv, inputs", _INPUT_ECHOES, ids=[" ".join(argv) for argv, _ in _INPUT_ECHOES]
)
def test_report_inputs_echo_the_parsed_options(capsys, tmp_path, ch_file, argv, inputs):
    # every option but --seed and --format, in parser order; an unset --expr is left out
    state = tmp_path / "ghz2.json"
    save_state(PureFamily(ghz_amplitudes(2, math.pi / 4)), state)
    files = {"EXPR": ch_file, "STATE": str(state)}
    rep = _structured(capsys, [files.get(a, a) for a in argv] + ["--seed", "3"])
    assert rep["seed"] == 3
    assert list(rep["inputs"].items()) == [(key, files.get(v, v)) for key, v in inputs]


def test_werner_empty_expression_path_is_an_input_error(capsys):
    # an empty --expr names a file like any other, rather than no expression;
    # so does an empty bounds argument, which Path would read as "."
    for argv in (["werner", "ghz", "--m", "3", "--theta", "0.6", "--expr", ""], ["bounds", ""]):
        code, out, err = _run(capsys, argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "the path is empty" in err


@pytest.mark.parametrize(
    "argv, code, out, err",
    [
        (["tables", "I", "--format", "structured"], 0,
         ["command", "version", "seed", "timestamp", "inputs", "results", "warnings"], ""),
        (["bounds", ""], 2, None, "error: cannot read expression file: the path is empty\n"),
    ],
    ids=["tables I", "bounds ''"],
)
def test_module_run_exits_with_mains_return_code(argv, code, out, err):
    # `python -m bellwerner.cli` ends in sys.exit(main()), as the console script does
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-m", "bellwerner.cli", *argv],
                          env=env, capture_output=True, text=True)
    assert (done.returncode, done.stderr) == (code, err)
    assert (list(json.loads(done.stdout)) if done.stdout else None) == out


def test_unknown_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


_EVERY_COMMAND = [
    ["bounds", "expr.json", "--seesaw"],
    ["tables", "II"],
    ["werner", "ghz", "--m", "2", "--theta", "0.5"],
    ["werner", "pure", "--state", "state.json"],
    ["measure", "--m", "3", "--poly", "3"],
    ["gamma", "--m", "2"],
    ["examples"],
]


@pytest.mark.parametrize("argv", _EVERY_COMMAND, ids=lambda a: " ".join(a[:2]))
def test_seesaw_commands_take_no_thread_count(capsys, argv):
    # the see-saw runs its restarts as stacks and the gamma scan one sub-batch
    # after another; measure sizes its workers by the usable cores
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--threads", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err
    for fn in (
        quantum.seesaw_lower,
        quantum.seesaw_fixed_state,
        werner.detect_visibility,
        werner.measure_monte_carlo,
        gamma.gamma_scan,
    ):
        assert "threads" not in inspect.signature(fn).parameters


@pytest.mark.parametrize(
    "argv",
    [["bounds", "expr.json", "--closed-form"], ["tables", "II", "--force"]],
    ids=["bounds --closed-form", "tables --force"],
)
def test_options_that_change_no_result_are_refused(capsys, argv):
    # bounds reports the closed form whenever it applies, and tables II runs
    # every --max-m it accepts
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {argv[-1]}" in capsys.readouterr().err


def test_restarts_default_is_the_seesaw_default():
    parser = cli.build_parser()
    for argv in (["bounds", "expr.json"], ["werner", "ghz", "--m", "2", "--theta", "1"],
                 ["examples"]):
        assert parser.parse_args(argv).restarts == quantum.DEFAULT_RESTARTS


@pytest.mark.parametrize(
    "argv, flag, value",
    [pytest.param(argv, "--seed", "-3", id=" ".join(argv[:2])) for argv in _EVERY_COMMAND]
    + [
        pytest.param(["gamma", "--m", "2"], "--samples", "-5", id="samples"),
        pytest.param(["bounds", "expr.json", "--seesaw"], "--restarts", "-1", id="restarts"),
    ],
)
def test_negative_seed_is_an_input_error(capsys, argv, flag, value):
    # rejected while parsing, before any file is read or stream drawn
    with pytest.raises(SystemExit) as exc:
        main(argv + [flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    kind = "non-negative" if flag == "--seed" else "positive"
    assert f"argument {flag}: must be a {kind} integer, got '{value}'" in err


# Edge values for the options: NaN, infinities, the float range's ends, zero
# and -1, values at and past the caps (8 and 16 parties, 256 MiB a chunk),
# 2^64 and non-numbers.  A quarter of each option's values are edge values.
_EDGE = ["nan", "inf", "-inf", "1e308", "-1e308", "5e-324", "0", "-0.0", "-1", "9", "17",
         "18446744073709551616", "x", ""]
_EDGE_COEFFS = [1e308, -1e308, 5e-324, 1e-300, 10**400, math.inf, math.nan, "1", None]


def _option(*valid, edge=_EDGE):
    return st.sampled_from(list(valid) * (3 * len(edge) // len(valid)) + edge)


def _count(*valid):  # 2^64 samples or restarts would run until stopped
    return _option(*valid, edge=[e for e in _EDGE if e != "18446744073709551616"])


_COEFF = st.one_of(st.sampled_from([1.0, -1.0, 0.5, 0.0, 2]), st.sampled_from(_EDGE_COEFFS))


@st.composite
def _documents(draw, entry):
    """A small expression or state document, truncated JSON, or a bare value."""
    parties = draw(st.sampled_from([9, 0, "2", True] + [1, 2, 3] * 4))
    width = parties if type(parties) is int and 0 <= parties <= 9 else 2
    text = json.dumps({"parties": parties, **draw(entry(width))})
    kind = draw(st.sampled_from(["valid"] * 6 + ["truncated", "bare"]))
    if kind == "truncated":
        return text[: draw(st.integers(0, len(text) - 1))]
    if kind == "bare":
        return json.dumps(draw(st.sampled_from([None, [], "terms", 3.5, {"parties": 2}])))
    return text


def _terms(width):
    pattern = st.text("01_", min_size=width, max_size=width) | st.sampled_from(["", "0x", 7])
    term = st.fixed_dictionaries({"pattern": pattern, "coeff": _COEFF})
    return st.fixed_dictionaries({"terms": st.lists(term, min_size=1, max_size=4)})


def _amplitudes(width):
    unit = st.just([{"index": "0" * width, "re": 1.0, "im": 0.0}])
    index = st.text("01", min_size=width, max_size=width) | st.sampled_from(["", "2" * width])
    entry = st.fixed_dictionaries({"index": index, "re": _COEFF, "im": _COEFF})
    return st.fixed_dictionaries({"amplitudes": unit | st.lists(entry, max_size=3)})


@st.composite
def _argvs(draw, expr_file, state_file):
    commands = ["bounds", "tables", "werner ghz", "werner pure", "measure", "gamma", "examples"]
    command = draw(st.sampled_from(commands * 2 + ["nope"]))
    argv = command.split()
    if command == "bounds":
        argv += [expr_file] + draw(st.sampled_from([[], ["--seesaw"]]))
    elif command == "tables":
        argv += [draw(st.sampled_from(["I", "ii", "III", "IV"]))]
        argv += ["--samples", draw(_count("1", "20")), "--max-m", draw(_option("2", "5", "6"))]
    elif command == "werner ghz":
        argv += ["--m", draw(_option("2", "3", "8", "16")), "--theta", draw(_option("0.6", "1.5"))]
        argv += draw(st.sampled_from([[], ["--expr", expr_file]]))
    elif command == "werner pure":
        argv += ["--state", state_file] + draw(st.sampled_from([[], ["--expr", expr_file]]))
    elif command == "measure":
        argv += ["--m", draw(_option("1", "3", "13", "64")), "--poly", draw(_option("3", "5.5"))]
        argv += ["--samples", draw(_count("1", "100"))]
    elif command == "gamma":
        argv += ["--m", draw(_option("1", "2", "4", "8")), "--samples", draw(_count("1", "30"))]
    if command in ("bounds", "werner ghz", "werner pure", "examples"):
        argv += draw(st.sampled_from([[], ["--restarts", draw(_count("1", "2"))]]))
    argv += ["--seed", draw(_option("0", "7", "18446744073709551616"))]
    return argv + ["--format", draw(_option("markdown", "csv", "structured"))]


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    folder = tmp_path_factory.mktemp("fuzz")
    return folder / "expr.json", folder / "state.json"


@settings(derandomize=True, max_examples=150, deadline=None)
@given(data=st.data())
def test_every_cli_run_ends_in_a_documented_exit_code(fuzz_files, data):
    # no traceback and no warning: a report, or one error line (argparse
    # adds its usage text on exit 2)
    expr_file, state_file = fuzz_files
    expr_file.write_text(data.draw(_documents(_terms), label="expression"))
    state_file.write_text(data.draw(_documents(_amplitudes), label="state"))
    argv = data.draw(_argvs(str(expr_file), str(state_file)), label="argv")
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's own exit
                code = exc.code
    assert caught == []
    err = err.getvalue()
    assert code in (0, 2, 3, 4, 5), err
    if code == 0:
        assert err == "" and out.getvalue()
    elif err.startswith("usage: "):
        assert code == 2 and ": error: " in err.splitlines()[-1]
    else:
        assert out.getvalue() == ""
        assert err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1, err
