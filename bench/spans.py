"""Spans around the package's public functions, recorded from outside it.

Tracer.install() replaces each traced function at every binding site: the
defining module and every bellwerner module (or the package itself) that
imported the name, so `lhv_bound` is wrapped in classical, cli, quantum,
werner, gamma and bellwerner alike.  The package source is not edited.
Spans stay in memory as [name, start, end, parent, op id, error] and are
written out by the caller when the run ends.
"""

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

FUNCTIONS = {
    "cli": ("main", "cmd_bounds", "cmd_tables", "cmd_werner", "cmd_measure",
            "cmd_gamma", "cmd_examples"),
    "fileio": ("load_expression", "load_state"),
    "expressions": ("builtin", "new_expression", "block"),
    "classical": ("lhv_bound", "closed_form_classical", "strategy_matrix",
                  "block_strategy_matrix"),
    "quantum": ("seesaw_lower", "seesaw_fixed_state", "bell_operator",
                "analytic_quantum_upper"),
    "gamma": ("gamma_scan",),
    "werner": ("measure_monte_carlo", "detect_visibility", "separability_upper_bound",
               "necessary_check_first_failure"),
    "reports": ("new_report", "render"),
}

# These only build or render values from valid input, so no workload makes
# them raise; their error counts are left out to stay within the metric cap.
NO_ERROR_METRIC = {
    "expressions.builtin", "expressions.new_expression", "expressions.block",
    "reports.new_report", "reports.render",
}

# Work counts derived from a call's arguments and result.
WORK_COUNTS = (
    "classical.lhv_bound.strategy_terms",
    "quantum.seesaw_lower.restarts",
    "quantum.seesaw_lower.best_sweeps",
    "quantum.seesaw_fixed_state.restarts",
    "quantum.seesaw_fixed_state.best_sweeps",
    "gamma.gamma_scan.samples",
    "gamma.gamma_scan.skipped",
    "werner.measure_monte_carlo.samples",
)

NAME, START, END, PARENT, OP, ERROR = range(6)


def _count_lhv(args, result, add):
    expr = args["expr"]
    add("classical.lhv_bound.strategy_terms", 4**expr.parties * len(expr))


def _count_seesaw(name):
    def count(args, result, add):
        # every random restart plus the classical warm start runs to the end
        add(f"{name}.restarts", args["restarts"] + 1)
        add(f"{name}.best_sweeps", len(result.sweep_values) - 1)

    return count


def _count_gamma(args, result, add):
    add("gamma.gamma_scan.samples", result.samples)
    add("gamma.gamma_scan.skipped", sum(e.skipped for e in result.estimates))


def _count_monte_carlo(args, result, add):
    add("werner.measure_monte_carlo.samples", result.samples)


_COUNTERS = {
    "classical.lhv_bound": _count_lhv,
    "quantum.seesaw_lower": _count_seesaw("quantum.seesaw_lower"),
    "quantum.seesaw_fixed_state": _count_seesaw("quantum.seesaw_fixed_state"),
    "gamma.gamma_scan": _count_gamma,
    "werner.measure_monte_carlo": _count_monte_carlo,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        # time of the calls a work count was taken from, per function
        self.counted_s = defaultdict(float)
        self.op = None
        self._stack = []
        self._restore = []

    def _wrap(self, name, fn):
        counter = _COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), None, self._stack[-1] if self._stack else -1,
                    self.op, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[ERROR] = type(exc).__name__
                raise
            finally:
                span[END] = time.perf_counter()
                self._stack.pop()
            if counter:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counter(bound.arguments, result, self._add)
                self.counted_s[name] += span[END] - span[START]
            return result

        return traced

    def _add(self, key, amount):
        self.counts[key] += amount

    def install(self):
        """Wrap every traced function wherever the package binds it."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "bellwerner" or n.startswith("bellwerner.")]
        for module_name, names in FUNCTIONS.items():
            home = sys.modules[f"bellwerner.{module_name}"]
            for fn_name in names:
                original = getattr(home, fn_name)
                traced = self._wrap(f"{module_name}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, traced)
                            self._restore.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def layer_metrics(self, passes: int) -> dict:
        """Per-pass calls, total and self seconds, errors and work counts."""
        calls = defaultdict(int)
        total = defaultdict(float)
        self_s = defaultdict(float)
        errors = defaultdict(int)
        for span in self.spans:
            duration = span[END] - span[START]
            calls[span[NAME]] += 1
            total[span[NAME]] += duration
            self_s[span[NAME]] += duration
            if span[ERROR]:
                errors[span[NAME]] += 1
            if span[PARENT] >= 0:
                self_s[self.spans[span[PARENT]][NAME]] -= duration
        out = {}
        for module_name, names in FUNCTIONS.items():
            for fn_name in names:
                name = f"{module_name}.{fn_name}"
                out[f"{name}.calls"] = calls[name] / passes
                out[f"{name}.total_s"] = total[name] / passes
                out[f"{name}.self_s"] = self_s[name] / passes
                if name not in NO_ERROR_METRIC:
                    out[f"{name}.errors"] = errors[name] / passes
        for key in WORK_COUNTS:
            out[key] = self.counts[key] / passes
        rates = (
            ("classical.lhv_bound.strategy_terms_per_s", "classical.lhv_bound.strategy_terms"),
            ("quantum.seesaw_lower.restarts_per_s", "quantum.seesaw_lower.restarts"),
            ("quantum.seesaw_fixed_state.restarts_per_s", "quantum.seesaw_fixed_state.restarts"),
            ("gamma.gamma_scan.samples_per_s", "gamma.gamma_scan.samples"),
            ("werner.measure_monte_carlo.samples_per_s", "werner.measure_monte_carlo.samples"),
        )
        for rate, key in rates:
            seconds = self.counted_s[key.rsplit(".", 1)[0]]
            out[rate] = self.counts[key] / seconds if seconds > 0 else 0.0
        return out

    def write(self, path, origin: float):
        """Spans as JSON lines, times in seconds from origin."""
        with open(path, "w") as fh:
            for name, start, end, parent, op, error in self.spans:
                fh.write(json.dumps({"name": name, "start": start - origin, "end": end - origin,
                                     "parent": parent, "op": op, "error": error}) + "\n")
