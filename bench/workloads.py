"""Seeded inputs and operation lists for the three benchmark workloads.

Every workload is a closed loop: one client in one process sends the next
CLI call only after the previous one returned.  A pass is one run through a
workload's operation list; pass p uses input set p % SETS.

Which inputs follow the workload seed:

- The sampled inputs do: the dense expressions of enumeration_scan and the
  `--seed` of gamma, tables II and measure.  Their cost does not depend on
  the draw, only their values do.
- The expressions and states fed to the see-saw do not; they are a fixed
  pool drawn with POOL_SEED.  The see-saw's time on a random expression
  varies tenfold from one draw to the next (0.1 s to 40 s for one call), so
  with per-seed draws a 30-second run measured which expressions it drew,
  not the program: run-to-run spreads were 0.2 to 0.6 of the median.  To
  check a see-saw claim on other expressions, change POOL_SEED.
- The see-saw restart seed of the CLI is left at its default, 0.

Run as a script it writes the input files of one workload and prints the
seconds spent importing the package and writing them (the set-up time):

    PYTHONPATH=src python3 bench/workloads.py --workload seesaw_mix --seed 0 --out DIR
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

SETS = 8
POOL_SEED = 0
WORKLOADS = ("seesaw_mix", "enumeration_scan", "werner_detect")

# Latency limits in seconds: an operation still running at its limit is
# abandoned and counted as failed (OpTimeout).  They guard the 180-second
# limit of a run against a hang and are set well above the slowest pooled
# operation (about 9 s), so that whether an operation fails never depends
# on the speed of the machine: a see-saw call that fails raises its own
# error in every run.
LIMIT_S = 30.0
EXAMPLES_LIMIT_S = 60.0

# Mean seconds of a pass over the first input sets when the benchmark was
# defined (2 vCPUs, Python 3.11, NumPy 2.4).  A run makes
# round(seconds / NOMINAL_PASS_S) passes, at least one, so two commits
# measured with the same --seconds do the same work.
NOMINAL_PASS_S = {"seesaw_mix": 19.7, "enumeration_scan": 3.1, "werner_detect": 6.0}

# Integer tag per workload so the three draw from disjoint random streams.
_STREAM = {name: i for i, name in enumerate(WORKLOADS)}


class Op(NamedTuple):
    """One CLI call of a pass."""

    label: str  # the per-command time it adds to, such as bounds_seesaw_s
    argv: list  # without --format, which the runner appends
    limit_s: float  # latency limit
    seeded: bool  # whether its inputs follow the workload seed


def _rng(workload: str, seed: int, set_index: int):
    import numpy as np

    return np.random.default_rng([_STREAM[workload], seed, set_index])


def dense_doc(rng, m: int) -> dict:
    """All 3^m - 1 terms, standard normal coefficients."""
    patterns = [
        "".join(p) for p in itertools.product("_01", repeat=m) if set(p) != {"_"}
    ]
    return {
        "parties": m,
        "terms": [{"pattern": p, "coeff": float(rng.standard_normal())} for p in patterns],
    }


def full_correlation_doc(rng, m: int) -> dict:
    """All 2^m terms in which every party takes part."""
    patterns = ["".join(p) for p in itertools.product("01", repeat=m)]
    return {
        "parties": m,
        "terms": [{"pattern": p, "coeff": float(rng.standard_normal())} for p in patterns],
    }


def mermin_doc(m: int) -> dict:
    """MERMIN(m): patterns with an odd number of 1s, sign by that count mod 4."""
    terms = []
    for p in itertools.product("01", repeat=m):
        ones = p.count("1")
        if ones % 2 == 1:
            terms.append({"pattern": "".join(p), "coeff": 1.0 if ones % 4 == 1 else -1.0})
    return {"parties": m, "terms": terms}


def state_doc(rng, m: int) -> dict:
    """Haar-random pure state: normalized complex Gaussian amplitudes."""
    re = rng.standard_normal(2**m)
    im = rng.standard_normal(2**m)
    norm = float((re * re + im * im).sum()) ** 0.5
    return {
        "parties": m,
        "amplitudes": [
            {"index": format(i, f"0{m}b"), "re": float(a / norm), "im": float(b / norm)}
            for i, (a, b) in enumerate(zip(re, im))
        ],
    }


def _sizes(workload: str, tiny: bool) -> dict:
    if workload == "seesaw_mix":
        if tiny:
            return {"dense": (2,), "fc": (3,), "restarts": "1", "mermin": (5,),
                    "mermin_restarts": "1", "examples": "1"}
        return {"dense": (2, 3, 4), "fc": (3, 4, 5), "restarts": "3", "mermin": (5, 7),
                "mermin_restarts": "2", "examples": "2"}
    if workload == "enumeration_scan":
        if tiny:
            return {"dense": (3,), "gamma": ((3, 50),), "tables": "100"}
        return {"dense": (6, 7, 8), "gamma": ((4, 4000), (5, 2000), (6, 200)), "tables": "2000"}
    if tiny:
        return {"ghz": (3,), "pure": 2, "restarts": "1", "measure": ((3, 1000),)}
    return {
        "ghz": (3, 4, 5),
        "pure": 4,
        "restarts": "3",
        "measure": ((3, 200000), (6, 200000), (10, 20000)),
    }


def write_inputs(workload: str, seed: int, out: Path, *, tiny: bool = False) -> None:
    """Write the JSON input files of every input set into out."""
    out.mkdir(parents=True, exist_ok=True)
    size = _sizes(workload, tiny)
    docs = {}
    for s in range(SETS):
        if workload == "seesaw_mix":
            rng = _rng(workload, POOL_SEED, s)
            for kind, make in (("dense", dense_doc), ("fc", full_correlation_doc)):
                for m in size[kind]:
                    for k in range(2):
                        docs[f"s{s}_{kind}{m}_{k}.json"] = make(rng, m)
        elif workload == "enumeration_scan":
            rng = _rng(workload, seed, s)
            for m in size["dense"]:
                docs[f"s{s}_dense{m}.json"] = dense_doc(rng, m)
        else:
            rng = _rng(workload, POOL_SEED, s)
            for m in size["ghz"]:
                docs[f"s{s}_fc{m}.json"] = full_correlation_doc(rng, m)
            docs[f"s{s}_state{size['pure']}.json"] = state_doc(rng, size["pure"])
            docs[f"s{s}_dense{size['pure']}.json"] = dense_doc(rng, size["pure"])
    if workload == "seesaw_mix":
        for m in size["mermin"]:
            docs[f"mermin{m}.json"] = mermin_doc(m)
    for name, doc in docs.items():
        (out / name).write_text(json.dumps(doc))


def operations(workload: str, seed: int, set_index: int, inputs: Path, *, tiny: bool = False):
    """The operations of one pass over input set set_index."""
    size = _sizes(workload, tiny)
    s = set_index
    sample_seed = str(seed * SETS + s)
    ops = []
    if workload == "seesaw_mix":
        for kind in ("dense", "fc"):
            for m in size[kind]:
                for k in range(2):
                    path = str(inputs / f"s{s}_{kind}{m}_{k}.json")
                    argv = ["bounds", path, "--seesaw", "--restarts", size["restarts"]]
                    ops.append(Op("bounds_seesaw_s", argv, LIMIT_S, False))
        for m in size["mermin"]:
            path = str(inputs / f"mermin{m}.json")
            argv = ["bounds", path, "--seesaw", "--restarts", size["mermin_restarts"]]
            ops.append(Op("bounds_seesaw_s", argv, LIMIT_S, False))
        argv = ["examples", "--restarts", size["examples"]]
        ops.append(Op("examples_s", argv, EXAMPLES_LIMIT_S, False))
    elif workload == "enumeration_scan":
        for m in size["dense"]:
            ops.append(Op("bounds_s", ["bounds", str(inputs / f"s{s}_dense{m}.json")], LIMIT_S, True))
        for m, n in size["gamma"]:
            argv = ["gamma", "--m", str(m), "--samples", str(n), "--seed", sample_seed]
            ops.append(Op("gamma_s", argv, LIMIT_S, True))
        argv = ["tables", "II", "--samples", size["tables"], "--seed", sample_seed]
        ops.append(Op("tables_ii_s", argv, LIMIT_S, True))
    else:
        for m in size["ghz"]:
            expr = str(inputs / f"s{s}_fc{m}.json")
            argv = ["werner", "ghz", "--m", str(m), "--theta", "0.6", "--expr", expr,
                    "--restarts", size["restarts"]]
            ops.append(Op("werner_ghz_s", argv, LIMIT_S, False))
        m = size["pure"]
        argv = ["werner", "pure", "--state", str(inputs / f"s{s}_state{m}.json"),
                "--expr", str(inputs / f"s{s}_dense{m}.json"), "--restarts", size["restarts"]]
        ops.append(Op("werner_pure_s", argv, LIMIT_S, False))
        for m, n in size["measure"]:
            argv = ["measure", "--m", str(m), "--poly", "3", "--samples", str(n),
                    "--seed", sample_seed]
            ops.append(Op("measure_s", argv, LIMIT_S, True))
    return ops


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--tiny", action="store_true", help="the smoke-check sizes")
    args = parser.parse_args()
    import bellwerner.cli  # noqa: F401  -- importing the package is part of set-up

    write_inputs(args.workload, args.seed, args.out, tiny=args.tiny)
    print(json.dumps({"setup_s": time.perf_counter() - _T0}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
