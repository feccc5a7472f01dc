"""Werner-state detectability: thresholds, ranges, and sampling experiments.

A Werner mixture of a pure m-qubit state Psi is
rho_v = (1 - v)/2^m * I + v |Psi><Psi|.  This module collects the closed-form
thresholds that decide when such mixtures stay undetectable by two-setting
Bell expressions (separability thresholds, visibility lower bounds,
undetectable theta ranges), a pairwise upper bound on the separability
threshold of arbitrary pure states with its companion necessary check, the
measure machinery for how common undetectable-yet-entangled states are, and
an empirical visibility detector driven by the see-saw.

Index conventions: amplitudes are ordered by m-bit strings read as integers
(|0...0> first); the complement of index j is 2^m - 1 - j, so complement
lookups are array reversals.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple, Optional, Sequence, Union

import numpy as np

from .errors import check_cap
from .expressions import STATE_MAX_PARTIES, BellExpression
from .quantum import (
    _NORM_TOL,
    DEFAULT_RESTARTS,
    SeesawResult,
    _sum_inverse_gammas,
    bell_operator,
    seesaw_fixed_state,
)

_BISECTION_TOL = 1e-6
_MC_CHUNK = 4096
_MC_CHUNK_BYTES = 2 ** 28
_MC_BLOCK = 2 ** 16  # values per streamed draw: each worker's one 512 KiB float64 buffer


class ThetaRange(NamedTuple):
    """A symmetric undetectable window (theta_lower, pi - theta_lower)."""

    theta_lower: float
    theta_upper: float
    measure: float  # (theta_upper - theta_lower) / pi


class Detection(NamedTuple):
    """detect_visibility's result; seesaw.classical.value is the classical bound c1."""

    visibility: Optional[float]  # None when even v = 1 shows no violation
    seesaw: SeesawResult  # the fixed-state see-saw at v = 1


class MonteCarloEstimate(NamedTuple):
    fraction: float
    std_error: float
    hits: int
    samples: int


@dataclass(frozen=True)
class MeasureConditionVerdict:
    """Outcome of the block-ratio smallness test for measure arguments.

    strict_form (the tighter threshold) is the verdict; the looser
    rearranged form is reported alongside, never used for the verdict.
    """

    strict_form: bool
    loose_form: bool
    sum_inverse_gammas: float
    threshold_strict: float
    threshold_loose: float


def ghz_amplitudes(parties: int, theta: float) -> np.ndarray:
    """cos(theta)|0...0> + sin(theta)|1...1> as a 2^m amplitude vector."""
    if parties < 1:
        raise ValueError("parties must be at least 1")
    check_cap("parties of a state vector", parties, STATE_MAX_PARTIES)
    vec = np.zeros(2 ** parties, dtype=complex)
    vec[0] = math.cos(theta)
    vec[-1] = math.sin(theta)
    return vec


def _check_theta(theta: float) -> None:
    if not 0.0 < theta < math.pi / 2:
        raise ValueError(f"theta must lie strictly inside (0, pi/2), got {theta!r}")


@dataclass(frozen=True)
class GhzFamily:
    """Generalized GHZ family with theta strictly inside (0, pi/2)."""

    parties: int
    theta: float

    def __post_init__(self):
        if self.parties < 2:
            raise ValueError("parties must be at least 2")
        _check_theta(self.theta)

    def state_vector(self) -> np.ndarray:
        return ghz_amplitudes(self.parties, self.theta)


@dataclass(frozen=True, eq=False)
class PureFamily:
    """Arbitrary pure m-qubit state given by its 2^m amplitude vector."""

    amplitudes: np.ndarray

    def __post_init__(self):
        vec = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        n = vec.shape[0]
        parties = n.bit_length() - 1
        if n < 2 or 2 ** parties != n:
            raise ValueError(f"amplitude count must be a power of two >= 2, got {n}")
        norm = float(np.linalg.norm(vec))
        if not abs(norm - 1.0) <= _NORM_TOL:  # a NaN norm fails this too
            raise ValueError(f"amplitudes must be unit norm, got {norm!r}")
        object.__setattr__(self, "amplitudes", vec)

    @property
    def parties(self) -> int:
        return self.amplitudes.shape[0].bit_length() - 1

    def state_vector(self) -> np.ndarray:
        return self.amplitudes


WernerFamily = Union[GhzFamily, PureFamily]


def _two_to(k: int, parties: int) -> float:
    """2^k as an exact float; a ValueError naming the party count once k > 1023 overflows."""
    if k > 1023:
        raise ValueError(f"{parties} parties is too many: 2^{k} does not fit in a float")
    return 2.0**k


def visibility_lower_bound(parties: int, c1: float, c2: float) -> float:
    """Least visibility that any detecting expression can certify.

    (2^m c1 - c1) / (2^m c2 - c1), clamped to [0, 1]; requires c2 > c1 > 0
    (equal bounds cannot detect anything).
    """
    if not c1 > 0.0:
        raise ValueError("classical bound must be positive")
    if not c2 > c1:
        raise ValueError("quantum bound must exceed the classical bound")
    d = _two_to(parties, parties)
    value = (d * c1 - c1) / (d * c2 - c1)
    return min(max(value, 0.0), 1.0)


def ghz_separability_threshold(parties: int, theta: float) -> float:
    """Exact full-separability threshold 1/(2^(m-1) sin(2 theta) + 1)."""
    _check_theta(theta)
    return 1.0 / (_two_to(parties - 1, parties) * math.sin(2.0 * theta) + 1.0)


def _window(arg: float) -> Optional[ThetaRange]:
    """The window theta_lower = arcsin(arg)/2 to pi - theta_lower, or None once arg >= 1."""
    if arg >= 1.0:
        return None
    lower = 0.5 * math.asin(arg)
    upper = math.pi - lower
    return ThetaRange(lower, upper, (upper - lower) / math.pi)


def undetectable_range_homogeneous(parties: int) -> ThetaRange:
    """GHZ theta window undetectable by any full-correlation expression.

    theta_lower = arcsin((2 sqrt(3) - 2)/(2^m - 1))/2; the window is symmetric
    about pi/2 and its argument stays below 1 for every m >= 2.
    """
    if parties < 2:
        raise ValueError("parties must be at least 2")
    return _window((2.0 * math.sqrt(3.0) - 2.0) / (_two_to(parties, parties) - 1.0))


def undetectable_range_general(
    parties: int, gammas: Sequence[float]
) -> Optional[ThetaRange]:
    """GHZ theta window undetectable by an expression with given block ratios.

    With S = sum(1/gamma): arcsin argument 2 sqrt(3) S / (2^m - 1).  An
    argument of 1 or more certifies no window; None is returned.
    """
    if parties < 2:
        raise ValueError("parties must be at least 2")
    scale = _two_to(parties, parties) - 1.0
    return _window(2.0 * math.sqrt(3.0) * _sum_inverse_gammas(gammas) / scale)


def _validated_probabilities(amplitudes) -> np.ndarray:
    """|a_i|^2 of a valid PureFamily's amplitudes, of which there must be at least 4."""
    vec = PureFamily(amplitudes).amplitudes
    if vec.shape[0] < 4:
        raise ValueError(f"amplitude count must be at least 4, got {vec.shape[0]}")
    return np.abs(vec) ** 2


def separability_upper_bound(amplitudes) -> float:
    """Pairwise upper bound on the separability threshold of a pure state.

    Scan light pairs i (those with p_i + p_ic <= 2^(1-m), guaranteed to exist)
    against all pairs j through
    f(i, j) = 4^m p_j p_jc - 4^m p_i p_ic + 2^m (p_i + p_ic) - 1
    and return min(1/sqrt(|f|)) over |f| > 1e-12, capped at 1.

    Rounding is monotone, so the computed f(i, j) never decreases as p_j p_jc
    grows: for each i the largest |f| sits at the smallest or the largest
    product, and only those two j are evaluated, in the same operation order
    as the full scan, so the result is identical to it bit for bit.
    """
    p = _validated_probabilities(amplitudes)
    n = p.shape[0]
    parties = n.bit_length() - 1
    pc = p[::-1]
    pair_sum = p + pc
    light = np.flatnonzero(pair_sum <= 2.0 ** (1 - parties) + 1e-12)
    if light.size == 0:  # pigeonhole says this cannot happen; guard anyway
        light = np.array([int(np.argmin(pair_sum))])
    products = p * pc
    four_m = float(4 ** parties)
    two_m = float(2 ** parties)
    ends = products[[np.argmin(products), np.argmax(products)]]
    f = (
        four_m * ends
        - (four_m * products[light])[:, None]
        + (two_m * pair_sum[light])[:, None]
        - 1.0
    )
    peak = np.abs(f).max(axis=1)
    usable = peak > 1e-12
    if not np.any(usable):
        return 1.0
    return min(1.0, float((1.0 / np.sqrt(peak[usable])).min()))


def _necessary_holds(p: np.ndarray, v: float) -> bool:
    d = (1.0 - v) / p.shape[0] + v * p
    lhs = float(np.sqrt(d * d[::-1]).min())
    rhs = v * float(np.sqrt(p * p[::-1]).max())
    return lhs >= rhs


def _bisect(turns_true) -> float:
    """The upper end of [0, 1] halved to width _BISECTION_TOL around where the monotone
    turns_true turns true; turns_true(1.0) must hold."""
    lo, hi = 0.0, 1.0
    while hi - lo > _BISECTION_TOL:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if turns_true(mid) else (mid, hi)
    return hi


def necessary_check_first_failure(amplitudes) -> Optional[float]:
    """Smallest v at which the necessary check starts failing, by bisection.

    None when the check holds all the way to v = 1.  Assumes a single
    crossing, which holds for the families treated here (the check is exact
    for GHZ states, where the crossing is the separability threshold).
    """
    p = _validated_probabilities(amplitudes)
    if _necessary_holds(p, 1.0):
        return None
    return _bisect(lambda v: not _necessary_holds(p, v))


def undetectable_measure_condition(
    parties: int, gammas: Sequence[float], poly_value: float
) -> MeasureConditionVerdict:
    """Test whether block ratios are large enough for the measure argument.

    Strict form: sum(1/gamma) < poly_value/sqrt(3) - 1 (the verdict).  The
    rearranged variant sum(1/gamma) < (poly_value - 1)/sqrt(3) is looser and
    reported for reference only.
    """
    if parties < 2:
        raise ValueError("parties must be at least 2")
    if len(gammas) != parties - 1:
        raise ValueError(f"expected {parties - 1} ratios, got {len(gammas)}")
    if not poly_value > math.sqrt(3.0):
        raise ValueError("poly_value must exceed sqrt(3)")
    total = _sum_inverse_gammas(gammas)
    threshold_strict = poly_value / math.sqrt(3.0) - 1.0
    threshold_loose = (poly_value - 1.0) / math.sqrt(3.0)
    return MeasureConditionVerdict(
        strict_form=total < threshold_strict,
        loose_form=total < threshold_loose,
        sum_inverse_gammas=total,
        threshold_strict=threshold_strict,
        threshold_loose=threshold_loose,
    )


def measure_lower_bound(parties: int, poly_value: float) -> float:
    """(1 - c^2)^(2^(m-1)) with c = 2^-m (poly_value + 1); needs 0 < c < 1."""
    if parties < 1:
        raise ValueError("parties must be at least 1")
    if not math.isfinite(poly_value):
        raise ValueError(f"poly_value must be finite, got {poly_value!r}")
    c = (poly_value + 1.0) / _two_to(parties, parties)
    if not 0.0 < c < 1.0:
        raise ValueError(f"derived constant c = {c!r} must lie in (0, 1)")
    return (1.0 - c * c) ** _two_to(parties - 1, parties)


def exact_pair_fraction(parties: int, poly_value: float) -> float:
    """Share of uniform pure states with p_{0...0} + p_{1...1} > t = c^2, c = 2^-m (poly_value + 1).

    The pair weight is Beta(2, d - 2), d = 2^m, so the share is (1 - t)^(d-2) (1 + (d - 2) t),
    0 once t >= 1.  measure_lower_bound bounds it from below exactly when t <= _pair_bound_root(m).
    """
    if parties < 1:
        raise ValueError("parties must be at least 1")
    if not math.isfinite(poly_value):
        raise ValueError(f"poly_value must be finite, got {poly_value!r}")
    d = _two_to(parties, parties)
    c = (poly_value + 1.0) / d
    t = c * c
    return 0.0 if t >= 1.0 else (1.0 - t) ** (d - 2.0) * (1.0 + (d - 2.0) * t)


_PAIR_BOUND_ROOTS = tuple(map(float.fromhex, """0x1p-1 0x1.97859440fd196p-3 0x1.69cf8327a3596p-4
    0x1.550b2b2af38e6p-5 0x1.4b2d3b1c6bc75p-6 0x1.465eb13c612f2p-7 0x1.43ff6f0847101p-8
    0x1.42d1cb474029fp-9 0x1.423b784ee4c31p-10 0x1.41f06e7ecb427p-11 0x1.41caf18001c26p-12
    0x1.41b834fab5687p-13 0x1.41aed7368e44cp-14 0x1.41aa287419930p-15 0x1.41a7d11ac6d5ep-16
    0x1.41a6a570175abp-17""".split()))


def _pair_bound_root(parties: int) -> Optional[float]:
    """t*(m), m = 3...18 (measure's chunk cap at 100 samples): the largest float t = a/2^e with
    (2^e - a)^(d/2 - 2) (2^e + (d - 2) a) >= 2^(e (d/2 - 1)), d = 2^m, i.e. (1 - t)^(d/2 - 2)
    (1 + (d - 2) t) >= 1 exactly, found stepping down from a float root; None for m <= 2."""
    return None if parties <= 2 else _PAIR_BOUND_ROOTS[parties - 3]


def max_pair_product(amplitudes) -> float:
    """max_j p_j p_jc over complementary index pairs."""
    p = _validated_probabilities(amplitudes)
    return float((p * p[::-1]).max())


def _check_sampler_size(parties: int, samples: int) -> None:
    """Check the sample count and the chunk size before anything is drawn.

    At least 100 samples and at most 2^53, the largest count a float holds
    exactly (std_error divides by it); one chunk's (min(samples, 4096), 2^m)
    float64 draw may take at most 256 MiB.  The streamed sampler never holds
    that draw, but the cap bounds the values drawn per chunk and the rows a
    chunk's exact recheck may keep in the worst case.
    """
    if samples < 100:
        raise ValueError("at least 100 samples are required")
    check_cap("samples per Monte Carlo run", samples, 2 ** 53)
    count = min(samples, _MC_CHUNK)
    # the largest m whose chunk draw fits in _MC_CHUNK_BYTES
    limit = (_MC_CHUNK_BYTES // (8 * count)).bit_length() - 1
    check_cap(f"parties for Monte Carlo chunks of {count} samples", parties, limit)


def _chunk_squares(parties: int, seed: int, chunk_index: int, count: int, buf: np.ndarray):
    """(start, rows) blocks of the squares of one Monte Carlo chunk's stream.

    The stream, np.random.default_rng([seed, chunk_index]), draws the real
    parts, (count, 2^m) standard normals, then the imaginary parts; each part
    comes squared, in row blocks of at most _MC_BLOCK values (one row when a
    row is longer) that overwrite buf, max(_MC_BLOCK, 2^m) doubles.  The hit
    count and its exact recheck both read it here, so a recheck redraws
    exactly what the count drew.
    """
    dim = 2 ** parties
    rng = np.random.default_rng([seed, chunk_index])
    step = max(1, _MC_BLOCK // dim)
    for _part in range(2):  # the real parts, then the imaginary parts
        for start in range(0, count, step):
            rows = buf[: min(step, count - start) * dim].reshape(-1, dim)
            rng.standard_normal(out=rows)
            np.square(rows, out=rows)
            yield start, rows


def _mc_chunk_hits(
    parties: int, threshold: float, seed: int, samples: int, buf: np.ndarray, chunk_index: int
) -> int:
    """Samples of one chunk whose pair weight exceeds threshold, streamed.

    The squares a, b of the chunk's real and imaginary parts come in row
    blocks (`_chunk_squares`); per sample only w_0 = a_0 + b_0, w_last and
    the two row sums A = sum a, B = sum b are kept.  The numerator
    N = w_0 + w_last is the dense one bit for bit; T' = A + B differs from
    the dense T = sum (a + b) by rounding only.

    Margin.  With u = 2^-53, gamma_k = k u / (1 - k u), n = 2^m terms and
    E = sum (a + b) exactly: every term of T passes through one rounding of
    a + b and at most n - 1 of the sum, every term of T' through n - 1 of
    its row sum and one of A + B, so |T - E| and |T' - E| are both at most
    gamma_n E, in whatever order the nonnegative terms are added (NumPy's
    pairwise sum, einsum's unfixed one), |T' / T - 1| <= 2 gamma_n / (1 - gamma_n),
    and with one rounding per quotient |pair - pair'| is (n + 1) 2^-52 pair'
    to first order, plus an absolute 2^-1074 per subnormal quotient.  The
    margin (2n + 8) 2^-52 pair' + 2^-1022 is twice that, which absorbs the
    higher-order terms and its own roundings, so a sample whose pair'
    clears the threshold by more than it has the dense verdict (a rounded
    difference compared with the float threshold keeps the order of the
    exact one).  The rare samples inside the margin, and a NaN pair', are
    redrawn and decided exactly as the dense code decides them (`_mc_recheck`).
    """
    count = min(_MC_CHUNK, samples - chunk_index * _MC_CHUNK)
    dim = 2 ** parties
    head, tail, total = np.zeros((3, count))
    for start, rows in _chunk_squares(parties, seed, chunk_index, count, buf):
        span = slice(start, start + rows.shape[0])
        head[span] += rows[:, 0]
        tail[span] += rows[:, -1]
        total[span] += np.einsum("ij->i", rows)  # no BLAS call, so no BLAS threads
    pair = (head + tail) / total
    margin = (2 * dim + 8) * 2.0**-52 * pair + 2.0**-1022
    above = pair - margin > threshold
    unsure = np.flatnonzero(~(above | (pair + margin < threshold)))
    hits = int(np.count_nonzero(above))
    if unsure.size:
        hits += _mc_recheck(parties, threshold, seed, chunk_index, count, buf, unsure)
    return hits


def _mc_recheck(
    parties: int, threshold: float, seed: int, chunk_index: int, count: int,
    buf: np.ndarray, picked: np.ndarray,
) -> int:
    """Hits among the sorted sample rows `picked`, decided as the dense code.

    Redraws the chunk's stream (`_chunk_squares`) and keeps only the picked
    rows of the weights w = a + b, in one C-contiguous array whose row sums
    do not depend on how many rows it has; pair = (w_0 + w_last) / sum w.
    """
    weights = np.zeros((picked.size, 2 ** parties))
    for start, rows in _chunk_squares(parties, seed, chunk_index, count, buf):
        lo, hi = np.searchsorted(picked, [start, start + rows.shape[0]])
        weights[lo:hi] += rows[picked[lo:hi] - start]
    pair = (weights[:, 0] + weights[:, -1]) / weights.sum(axis=1)
    return int(np.count_nonzero(pair > threshold))


def summed(make_work: Callable[[], Callable[[int], int]], count: int, workers: int) -> int:
    """sum(work(i) for i in range(count)) on `workers` workers, each with work = make_work().

    The caller is one worker, the others plain threads; each takes the next index when free.
    After a call raises no index is taken, and the first exception is raised here at the end.
    """
    lock = threading.Lock()
    indices = iter(range(count))
    sums, failures = [], []

    def take():
        with lock:
            return None if failures else next(indices, None)

    def run() -> None:
        try:
            sums.append(sum(map(make_work(), iter(take, None))))
        except BaseException as exc:  # raised in the caller, not lost in a thread
            failures.append(exc)

    helpers = [threading.Thread(target=run) for _ in range(workers - 1)]
    for thread in helpers:
        thread.start()
    run()
    for thread in helpers:
        thread.join()
    if failures:
        raise failures[0]
    return sum(sums)


def usable_cores() -> int:
    """CPUs this process may run on: its affinity set, else the CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def measure_monte_carlo(
    parties: int, poly_value: float, samples: int, seed: int = 0
) -> MonteCarloEstimate:
    """Fraction of uniform pure states whose reference pair outweighs c^2.

    Draws amplitude vectors as normalized independent complex Gaussians and
    counts states with p_{0...0} + p_{1...1} > c^2, c = 2^-m (poly_value + 1).
    The per-pair product form of the test is unattainable once poly_value + 1
    >= 2^(m-1) (pair products never exceed 1/4), so it is not used.  By
    symmetry of the uniform measure, any fixed complementary pair gives the
    same distribution, whose exact share exact_pair_fraction gives.

    Sampling is chunked with substreams keyed by (seed, chunk index) and hit
    counts are integers, so the estimate is identical for any worker count.
    It runs min(usable cores, chunk count) workers, the caller one of them,
    so the CPU affinity sets the count (`taskset -c 0` starts no thread).
    A chunk of min(samples, 4096) vectors of 2^m amplitudes is drawn in
    blocks of at most 2^16 values (512 KiB, or one row of 2^m values when
    longer) into its worker's one buffer, kept for all that worker's chunks
    and rechecks; the 256 MiB cap on a (min(samples, 4096), 2^m) float64
    draw bounds the work per chunk and the rows its exact recheck may keep.
    """
    if parties < 1:
        raise ValueError("parties must be at least 1")
    if not math.isfinite(poly_value):
        raise ValueError(f"poly_value must be finite, got {poly_value!r}")
    _check_sampler_size(parties, samples)
    c = (poly_value + 1.0) / 2 ** parties
    chunks = math.ceil(samples / _MC_CHUNK)
    workers = min(usable_cores(), chunks)
    chunk_hits = partial(_mc_chunk_hits, parties, c * c, seed, samples)
    block = max(_MC_BLOCK, 2 ** parties)
    hits = summed(lambda: partial(chunk_hits, np.empty(block)), chunks, workers)
    fraction = hits / samples
    std_error = math.sqrt(fraction * (1.0 - fraction) / samples)
    return MonteCarloEstimate(fraction, std_error, hits, samples)


def detect_visibility(
    expr: BellExpression,
    family: WernerFamily,
    seed: int = 0,
    *,
    restarts: int = DEFAULT_RESTARTS,
) -> Detection:
    """Empirical visibility at which the Werner family starts violating expr.

    Optimizes the observable assignment for the pure state (v = 1) with the
    fixed-state see-saw, then bisects the linear-in-v value
    (1-v) Tr(B)/2^m + v <Psi|B|Psi> against the classical bound c1, which
    the see-saw computed for its warm start.  The visibility is None when
    even v = 1 shows no violation.  The maximally mixed end never violates,
    so the crossing is bracketed whenever it exists.  A family with another
    party count raises ValueError first; the see-saw then checks the
    operator cap (CapExceeded) before it builds any operator.
    """
    if family.parties != expr.parties:
        raise ValueError(f"family has {family.parties} parties, expression has {expr.parties}")
    psi = family.state_vector()
    result = seesaw_fixed_state(expr, psi, restarts=restarts, seed=seed)
    c1 = result.classical.value
    operator = bell_operator(expr, result.witness)
    mixed_value = float(np.trace(operator).real) / psi.shape[0]
    pure_value = float(np.vdot(psi, operator @ psi).real)

    def violates(v: float) -> bool:
        return abs((1.0 - v) * mixed_value + v * pure_value) > c1

    return Detection(_bisect(violates) if violates(1.0) else None, result)
