"""Command-line front end.

Subcommands: bounds, tables, werner, measure, gamma, examples.  Each
command returns its results and warnings; `main` builds the run's report
(the dict of reports.py), whose inputs echo every option the command
parsed, and prints it as markdown (default), csv, or structured JSON.
Each examples row is what `bounds --seesaw` reports for that built-in.

Exit status: 0 success, 2 parse errors (bad files, bad arguments, a
negative seed or a non-positive count), 3 domain errors (invalid parameter
values), 4 cap violations, 5 a failed internal self-check (the see-saw
objective decreased, a first-block ratio fell below 1, or PCG64 asked a
gamma substream's seed for other than its four uint64 words).

The solvers run at fixed settings that no option changes: the see-saw stops
a restart once a sweep gains less than 1e-9 ("converged", or "stalled" when
the gains shrink too slowly), once its gains show it cannot beat the
classical bound ("bounded") or after 500 sweeps (the `seesaw-sweep-cap`
warning), and visibilities are bisected to 1e-6.  A see-saw computes the
classical bound once, and its command reports that value.  measure runs
its Monte Carlo chunks on min(usable cores, chunks) workers, so the CPU
affinity sets the count; the gamma scan (gamma, tables II) runs one
sub-batch after another and the see-saw its restarts as stacks.
Table II scans all its party counts together, drawing each sample once at
the widest count that uses it; its rows equal separate `gamma` runs.
"""

from __future__ import annotations

import argparse
import math
import sys
from functools import lru_cache

from . import __version__
from .classical import closed_form_classical, lhv_bound
from .errors import CapExceeded, ParseError
from .expressions import BellExpression, block, builtin, is_homogeneous
from .fileio import load_expression, load_state
from .gamma import GammaScanConfig, gamma_scan, gamma_scans
from .quantum import (
    DEFAULT_RESTARTS,
    SeesawResult,
    analytic_quantum_upper,
    composite_ratio_upper,
    seesaw_lower,
)
from .reports import new_report, render, table
from .werner import (
    GhzFamily,
    _check_sampler_size,
    _pair_bound_root,
    detect_visibility,
    ghz_separability_threshold,
    max_pair_product,
    measure_lower_bound,
    measure_monte_carlo,
    necessary_check_first_failure,
    separability_upper_bound,
    undetectable_measure_condition,
    undetectable_range_general,
    undetectable_range_homogeneous,
    visibility_lower_bound,
)

_TABLE_MS = (2, 3, 4, 5, 6)
_EXAMPLE_NAMES = ("CHSH", "MERMIN", "CH", "SASA")
# the examples' Bounds columns after "example", each with the `bounds` result it
# shows; closed_form and analytic_upper are absent, shown "-", off full correlation
_BOUND_KEYS = {"m": "parties", "lhv": "lhv_bound", "closed_form": "closed_form",
               "seesaw": "seesaw_lower", "analytic_upper": "analytic_upper",
               "composite_ratio_upper": "composite_ratio_upper"}
# subclasses before their bases: ParseError is a ValueError, CapExceeded a RuntimeError
_EXIT_CODES = ((ParseError, 2), (CapExceeded, 4), (ValueError, 3), (RuntimeError, 5))

_M3_R_CELL_NOTE = (
    "for m=3 the computed undetectable fraction is 93.29% while the published "
    "table prints 83.29%; the computed value is shown"
)
_PAIR_WEIGHT_NOTE = (
    "sampled membership uses the reference pair weight p(0..0) + p(1..1) > c^2, "
    "which the closed-form lower bound covers; the per-pair product variant is "
    "vacuous whenever poly + 1 >= 2^(m-1)"
)
_VARIANT_NOTE = (
    "the looser threshold (poly - 1)/sqrt(3) in `measure_condition_variant` changes the "
    "verdict; the stricter poly/sqrt(3) - 1 form decides `measure_condition`"
)
_CLOSED_FORM_NOTE = (
    "closed form exceeds the enumerated bound; it is an upper envelope, not "
    "an equality, for this expression"
)


def _analyse(expr: BellExpression, *, seed, restarts=None) -> tuple[dict, list]:
    """The `bounds` results and warnings of expr: its classical bound, block
    ratios, composite ratio and, when restarts is given, see-saw.

    Block i is an expression over parties i..m, so its bound enumerates
    4^(m+1-i) strategies; the absent leading parties cannot change it.
    The see-saw runs only when restarts is given, and then its classical
    bound is the one reported.
    """
    found = None if restarts is None else seesaw_lower(expr, restarts=restarts, seed=seed)
    outcome = lhv_bound(expr) if found is None else found.classical
    values = []
    for i in range(1, expr.parties + 1):
        part = block(expr, i)
        values.append(lhv_bound(part).value if len(part) else 0.0)
    gammas = [outcome.value / v if v else math.inf for v in values]
    composite = composite_ratio_upper(gammas)
    homogeneous = is_homogeneous(expr)
    results = {
        "parties": expr.parties,
        "terms": len(expr),
        "lhv_bound": outcome.value,
        "witness_encoding": outcome.witness.encoding,
        "witness_assignments": [list(pair) for pair in outcome.witness.assignments],
        "achieved_sign": outcome.achieved_sign,
        "composite_ratio_upper": composite,
        "tables": [
            table(
                "Blocks",
                ["i", "block_lhv", "gamma_i"],
                [[i, *row] for i, row in enumerate(zip(values, gammas), 1)],
            )
        ],
        "homogeneous": homogeneous,
    }
    warnings = []
    if homogeneous:
        results["closed_form"] = closed_form_classical(expr)
        uppers = analytic_quantum_upper(expr)
        results["analytic_upper"] = uppers.general
        results["anticommuting_upper"] = uppers.anticommuting
        if results["closed_form"] > outcome.value + 1e-9:
            warnings.append(("closed-form-exceeds-enumeration", _CLOSED_FORM_NOTE))
    if found is not None:
        results["seesaw_lower"] = found.value
        results["seesaw_sweeps"] = len(found.sweep_values) - 1
        results["seesaw_restart_index"] = found.restart_index
        warnings.extend(_sweep_cap_warnings(found))
        ratio = found.value / outcome.value
        if ratio > composite * (1 + 1e-9):
            warnings.append(("seesaw-above-composite", f"seesaw_lower / lhv_bound = {ratio:.12g} "
                             f"exceeds the paper's composite ratio {composite:.12g}"))
    return results, warnings


def _sweep_cap_warnings(found: SeesawResult) -> list:
    """The seesaw-sweep-cap warning when any restart of found stopped at the sweep cap."""
    capped = found.stop_reasons.count("max_sweeps")
    note = (f"{capped} of {len(found.stop_reasons)} see-saw restarts stopped at the sweep cap "
            "before converging; the lower bound may not be the best reachable")
    return [("seesaw-sweep-cap", note)] if capped else []


def cmd_bounds(args) -> tuple[dict, list]:
    restarts = args.restarts if args.seesaw else None
    return _analyse(load_expression(args.expr_file), restarts=restarts, seed=args.seed)


def _window_cells(window) -> list:
    """theta_lower/pi and theta_upper/pi of a GHZ window; None for both when there is none."""
    if window is None:
        return [None, None]
    return [window.theta_lower / math.pi, window.theta_upper / math.pi]


def _window_table(kind: str, window, last_column: str, scale: float) -> dict:
    """Table I or III: the GHZ window window(m) of each m, its measure times scale."""
    rows = []
    for m in _TABLE_MS:
        w = window(m)
        rows.append([m, *_window_cells(w), None if w is None else scale * w.measure])
    title = f"Undetectable GHZ windows ({kind})"
    columns = ["m", "theta_lower/pi", "theta_upper/pi", last_column]
    return {"tables": [table(title, columns, rows)]}


def _table_ii(args) -> tuple[dict, list]:
    warnings = []
    rows = []
    configs = [
        GammaScanConfig(m, args.samples if m <= 4 else max(1, args.samples // 10), args.seed)
        for m in range(2, args.max_m + 1)
    ]
    for scanned in gamma_scans(configs):
        m = scanned.parties
        minima = [est.gamma_min for est in scanned.estimates]  # one per block index 1..m
        rows.append([m, scanned.samples, *minima] + [None] * (6 - m))
        skipped = sum(est.skipped for est in scanned.estimates)
        if skipped:
            warnings.append(
                (
                    "skipped-samples",
                    f"m={m}: {skipped} block evaluations fell below the "
                    "magnitude floor and were skipped",
                )
            )
    columns = ["m", "samples"] + [f"gamma_{i}" for i in range(1, 7)]
    return {"tables": [table("Sampled block-ratio minima", columns, rows)]}, warnings


def cmd_tables(args) -> tuple[dict, list]:
    if args.which == "I":
        results = _window_table(
            "full-correlation expressions", undetectable_range_homogeneous, "r_percent", 100.0
        )
        return results, [("table-i-m3-r-cell", _M3_R_CELL_NOTE)]
    if args.which == "II":
        return _table_ii(args)

    def unit(m):  # every block ratio 1
        return undetectable_range_general(m, [1.0] * (m - 1))

    return _window_table("unit block ratios", unit, "measure", 1.0), []


def _detection_block(expr_file, family, args) -> tuple[dict, list]:
    """The detection entry of a werner report, and its see-saw's warnings."""
    expr = load_expression(expr_file)
    found = detect_visibility(expr, family, args.seed, restarts=args.restarts)
    c1 = found.seesaw.classical.value
    out = {
        "expr_file": expr_file,
        "classical_bound": c1,
        "detect_visibility": found.visibility,
    }
    if is_homogeneous(expr):
        upper = analytic_quantum_upper(expr).general
        if upper > c1:
            out["visibility_lower_bound"] = visibility_lower_bound(expr.parties, c1, upper)
    return out, _sweep_cap_warnings(found.seesaw)


def cmd_werner(args) -> tuple[dict, list]:
    warnings = []
    if args.family == "ghz":
        family = GhzFamily(args.m, args.theta)
        amps = family.state_vector()
        rng = undetectable_range_homogeneous(args.m)
        results = {
            "parties": args.m,
            "theta": args.theta,
            "separability_threshold": ghz_separability_threshold(args.m, args.theta),
            "separability_upper_bound": separability_upper_bound(amps),
            "necessary_check_first_failure": necessary_check_first_failure(amps),
            "undetectable_theta_lower": rng.theta_lower,
            "undetectable_theta_upper": rng.theta_upper,
            "undetectable_measure": rng.measure,
        }
    else:
        family = load_state(args.state_file)
        amps = family.state_vector()
        results = {
            "parties": family.parties,
            "separability_upper_bound": separability_upper_bound(amps),
            "max_pair_product": max_pair_product(amps),
            "necessary_check_first_failure": necessary_check_first_failure(amps),
        }
    if args.expr_file is not None:
        detection, warnings = _detection_block(args.expr_file, family, args)
        vlb = detection.get("visibility_lower_bound")
        if vlb is not None and "separability_threshold" in results:
            # a gap between the two certifies Werner states no expression
            # of this strength can flag
            detection["undetectable_window"] = vlb > results["separability_threshold"]
        results["detection"] = detection
    return results, warnings


def cmd_measure(args) -> tuple[dict, list]:
    _check_sampler_size(args.m, args.samples)  # before the closed form overflows
    bound = measure_lower_bound(args.m, args.poly)
    est = measure_monte_carlo(args.m, args.poly, args.samples, args.seed)
    c = (args.poly + 1.0) / 2 ** args.m  # the sampler's own threshold is t = c * c
    root = _pair_bound_root(args.m)
    results = {
        "lower_bound": bound,
        "fraction": est.fraction,
        "std_error": est.std_error,
        "hits": est.hits,
        "samples": est.samples,
        "fraction_plus_3se": est.fraction + 3.0 * est.std_error,
        "bound_consistent": root is None or c * c <= root,
    }
    warnings = [("membership-pair-weight", _PAIR_WEIGHT_NOTE)]
    if not results["bound_consistent"]:
        warnings.append(("measure-bound-inconsistent",
                         f"t = c * c = {c * c!r} exceeds t*({args.m}) = {root!r}, so the exact "
                         f"share lies below the closed-form lower bound (see bound_consistent); "
                         f"the bound holds up to poly = {2 ** args.m * math.sqrt(root) - 1:.6g}"))
    return results, warnings


def cmd_gamma(args) -> tuple[dict, list]:
    scanned = gamma_scan(GammaScanConfig(parties=args.m, samples=args.samples, seed=args.seed))
    rows = [[e.index, e.gamma_min, e.witness_sample, e.skipped] for e in scanned.estimates]
    columns = ["i", "gamma_min", "witness_sample", "skipped"]
    results = {
        "parties": scanned.parties,
        "samples": scanned.samples,
        "tables": [table("Sampled block-ratio minima", columns, rows)],
    }
    return results, []


def cmd_examples(args) -> tuple[dict, list]:
    warnings = []
    bound_rows = []
    ratio_rows = []
    verdict_rows = []
    for name in _EXAMPLE_NAMES:
        results, notes = _analyse(builtin(name), restarts=args.restarts, seed=args.seed)
        warnings.extend((kind, f"{name}: {note}") for kind, note in notes)
        bound_rows.append([name, *(results.get(key) for key in _BOUND_KEYS.values())])
        blocks = results["tables"][0]["rows"]  # [i, block_lhv, gamma_i]
        ratio_rows.extend([name, i, gamma] for i, _, gamma in blocks)

        m = results["parties"]
        gammas = [gamma for _, _, gamma in blocks[: m - 1]]
        condition = undetectable_measure_condition(m, gammas, results["composite_ratio_upper"])
        window = undetectable_range_general(m, gammas)
        verdict_rows.append(
            [
                name,
                condition.sum_inverse_gammas,
                condition.strict_form,
                condition.loose_form,
                *_window_cells(window),
            ]
        )
        if condition.strict_form != condition.loose_form:
            warnings.append(("loose-threshold-variant", f"{name}: {_VARIANT_NOTE}"))

    verdict_columns = ["example", "sum_inverse_gammas", "measure_condition",
                       "measure_condition_variant", "theta_lower/pi", "theta_upper/pi"]
    tables = [
        table("Bounds", ["example", *_BOUND_KEYS], bound_rows),
        table("Block ratios", ["example", "i", "gamma_i"], ratio_rows),
        table("Condition verdicts", verdict_columns, verdict_rows),
    ]
    return {"tables": tables}, warnings


def _int_at_least(low: int):
    """An argparse type for integers >= low (0 or 1), rejected at parse time (exit 2)."""
    kind = "non-negative" if low == 0 else "positive"

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < low:
            raise argparse.ArgumentTypeError(f"must be a {kind} integer, got {text!r}")
        return value

    return parse


_NON_NEGATIVE = _int_at_least(0)
_POSITIVE = _int_at_least(1)


def _add_common(p, *, restarts=False) -> None:
    if restarts:  # a see-saw command; the others are scans
        p.add_argument(
            "--restarts", type=_POSITIVE, default=DEFAULT_RESTARTS, help="see-saw restarts"
        )
    # the (seed, k) substreams take non-negative integers only
    p.add_argument("--seed", type=_NON_NEGATIVE, default=0, help="base RNG seed (non-negative)")
    p.add_argument(
        "--format",
        choices=("markdown", "csv", "structured"),
        default="markdown",
        help="output format (structured = machine-readable JSON)",
    )


@lru_cache(maxsize=None)  # built at the first main call, then shared by the later ones
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bellwerner",
        description="Bounds, detectability, and block-ratio analysis for "
        "two-setting Bell expressions.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", help="classical/quantum bounds for an expression file")
    p.add_argument("expr_file", metavar="EXPR-FILE", help="expression JSON file")
    p.add_argument("--seesaw", action="store_true", help="run the see-saw lower bound")
    _add_common(p, restarts=True)

    p = sub.add_parser("tables", help="reproduce the summary tables")
    p.add_argument(
        "which", type=str.upper, choices=("I", "II", "III"), help="table selector"
    )
    p.add_argument("--samples", type=_POSITIVE, default=10000, help="samples per m (table II)")
    p.add_argument(
        "--max-m",
        type=int,
        default=4,
        choices=range(2, 7),
        help="largest party count for table II",
    )
    _add_common(p)

    p = sub.add_parser("werner", help="Werner-state detectability analysis")
    fam = p.add_subparsers(dest="family", required=True)
    g = fam.add_parser("ghz", help="GHZ-type family cos(theta)|0..0> + sin(theta)|1..1>")
    g.add_argument("--m", type=int, required=True, help="party count")
    g.add_argument("--theta", type=float, required=True, help="angle in (0, pi/2)")
    q = fam.add_parser("pure", help="arbitrary pure state from a state file")
    q.add_argument("--state", dest="state_file", metavar="STATE", required=True,
                   help="state JSON file")
    for f in (g, q):
        f.add_argument("--expr", dest="expr_file", metavar="EXPR",
                       help="optional expression file to test against")
        _add_common(f, restarts=True)

    p = sub.add_parser("measure", help="sampled share of states past the pair-weight mark")
    p.add_argument("--m", type=int, required=True, help="party count")
    p.add_argument("--poly", type=float, required=True, help="expression value at the target")
    p.add_argument("--samples", type=_POSITIVE, default=100000, help="Monte Carlo samples")
    _add_common(p)

    p = sub.add_parser("gamma", help="sampled block-ratio minima over random vectors")
    p.add_argument("--m", type=int, required=True, help="party count")
    p.add_argument("--samples", type=_POSITIVE, default=10000, help="random vectors to draw")
    _add_common(p)

    p = sub.add_parser("examples", help="run the built-in expressions end to end")
    _add_common(p, restarts=True)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # the parsed options in parser order, less seed (its own field), format and unset ones
    skip = ("command", "seed", "format")
    inputs = {key: v for key, v in vars(args).items() if key not in skip and v is not None}
    try:
        # looked up per call, so a cmd_* rebound on the module is the one run
        results, warnings = globals()[f"cmd_{args.command}"](args)
        report = new_report(args.command, seed=args.seed, inputs=inputs,
                            results=results, warnings=warnings)
        text = render(report, args.format)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
