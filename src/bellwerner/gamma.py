"""Sampled minima of block ratios over random Bell expressions.

For an expression B and party index i, the ratio gamma_i is the classical
bound of B over the classical bound of its i-th block (terms whose first
participating party is i).  The scan draws unit coefficient vectors, reads
each as a full expression, and tracks the smallest ratio seen per index.

Every sample's gamma_1 is provably at least 1: flipping party 1's two
outcomes negates exactly the block-1 contribution and fixes the rest, so
max(|b + r|, |b - r|) >= |b| strategy by strategy.  The scan asserts this for
each sample as a self-check.

Determinism: sample k draws from the substream keyed by (seed, k); samples
are partitioned into fixed-size chunks whatever the worker count; chunks
merge in index order with ties going to the lowest sample index; witnesses
are regenerated from their substream rather than stored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from ._workers import ordered_map
from .classical import DEFAULT_MAX_PARTIES, block_strategy_matrix, lhv_bound, strategy_matrix
from .expressions import BellExpression, block, block_sizes

_BLOCK_EPS = 1e-9
_CHUNK = 256
_GAMMA1_SLACK = 1e-12


@dataclass(frozen=True)
class GammaScanConfig:
    parties: int
    samples: int
    seed: int = 0
    max_parties: int = DEFAULT_MAX_PARTIES

    def __post_init__(self):
        if self.parties < 2:
            raise ValueError("parties must be at least 2")
        if self.samples < 1:
            raise ValueError("samples must be at least 1")


@dataclass(frozen=True, eq=False)
class GammaIndexEstimate:
    """Scan outcome for one block index (gamma_min None when all skipped)."""

    index: int
    gamma_min: Optional[float]
    witness_coefficients: Optional[np.ndarray]
    witness_sample: Optional[int]
    skipped: int


@dataclass(frozen=True, eq=False)
class GammaScanResult:
    parties: int
    samples: int
    seed: int
    estimates: tuple[GammaIndexEstimate, ...]


def gamma_for(expr: BellExpression, i: int) -> float:
    """lhv_bound(expr) / lhv_bound(block i), infinite for an empty block.

    The block bound is evaluated on the reduced expression over parties
    i..m, which enumerates 4^(m+1-i) strategies instead of 4^m; absent
    leading parties cannot change the bound.
    """
    view = block(expr, i)
    total = lhv_bound(expr).value
    if view.is_empty:
        return math.inf
    return total / lhv_bound(view.reduced()).value


def _sample_vector(seed: int, index: int, dim: int) -> np.ndarray:
    rng = np.random.default_rng([seed, index])
    while True:
        x = rng.standard_normal(dim)
        norm = float(np.linalg.norm(x))
        if norm >= 1e-12:
            return x / norm


def _scan_chunk(
    config: GammaScanConfig,
    full: np.ndarray,
    blocks: list[np.ndarray],
    offsets: list[int],
    start: int,
):
    """Per-index minima and skip counts over samples start .. start + _CHUNK."""
    m = config.parties
    dim = full.shape[1]
    minima: list[Optional[tuple[float, int]]] = [None] * m
    skipped = [0] * m
    for k in range(start, min(start + _CHUNK, config.samples)):
        x = _sample_vector(config.seed, k, dim)
        total = float(np.abs(full @ x).max())
        for i in range(m):
            xi = x[offsets[i] : offsets[i + 1]]
            block_value = float(np.abs(blocks[i] @ xi).max())
            if block_value < _BLOCK_EPS:
                skipped[i] += 1
                continue
            ratio = total / block_value
            if i == 0 and ratio < 1.0 - _GAMMA1_SLACK:
                raise RuntimeError(
                    f"sample {k}: first-block ratio {ratio!r} fell below 1; "
                    "enumeration kernels disagree"
                )
            if minima[i] is None or ratio < minima[i][0]:
                minima[i] = (ratio, k)
    return minima, skipped


def _merge(into, minima, skipped):
    """Fold one chunk into the running minima and skip counts.

    Chunks arrive in index order, so an equal value never replaces the
    current entry and ties keep the lowest sample index.
    """
    merged_minima, merged_skips = into
    for i, entry in enumerate(minima):
        current = merged_minima[i]
        if entry is not None and (current is None or entry[0] < current[0]):
            merged_minima[i] = entry
    for i, n in enumerate(skipped):
        merged_skips[i] += n
    return merged_minima, merged_skips


def gamma_scan(
    config: GammaScanConfig, *, threads: Optional[int] = None
) -> GammaScanResult:
    """Minimum sampled ratio per block index over seeded unit vectors.

    Each sample is one full coefficient vector; all m ratios are read off it.
    Block bounds below 1e-9 are skipped (counted per index); an index with
    every sample skipped reports gamma_min None rather than raising.
    """
    m = config.parties
    _, offsets = block_sizes(m)
    full = strategy_matrix(m, max_parties=config.max_parties).astype(np.float64)
    blocks = [
        block_strategy_matrix(m, i + 1, max_parties=config.max_parties).astype(np.float64)
        for i in range(m)
    ]
    dim = full.shape[1]

    scan = partial(_scan_chunk, config, full, blocks, offsets)
    state = ([None] * m, [0] * m)
    for minima, skipped in ordered_map(scan, range(0, config.samples, _CHUNK), threads):
        state = _merge(state, minima, skipped)
    minima, skipped = state
    estimates = []
    for i in range(m):
        if minima[i] is None:
            estimates.append(
                GammaIndexEstimate(
                    index=i + 1,
                    gamma_min=None,
                    witness_coefficients=None,
                    witness_sample=None,
                    skipped=skipped[i],
                )
            )
            continue
        value, sample_index = minima[i]
        witness = _sample_vector(config.seed, sample_index, dim)
        estimates.append(
            GammaIndexEstimate(
                index=i + 1,
                gamma_min=value,
                witness_coefficients=witness,
                witness_sample=sample_index,
                skipped=skipped[i],
            )
        )
    return GammaScanResult(
        parties=m,
        samples=config.samples,
        seed=config.seed,
        estimates=tuple(estimates),
    )
