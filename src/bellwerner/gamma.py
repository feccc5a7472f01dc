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

Cost model.  A chunk stacks its sample vectors and reads every classical
bound off the Kronecker transform `classical._strategy_values`, batched
over the samples: the full expressions as (3,)*m tensors, O(m 4^m) per
sample, and block i from the two halves of its slice (leading party at
setting 0 or 1) as tensors over the m - i later parties, which sums to
about half the full cost over all blocks.  Rows go through in sub-batches
whose value array (rows x 4^m doubles) stays within 16 MiB, so memory
does not grow with the chunk at eight parties.  Ratios, skips, the
gamma_1 self-check and the minima are array operations on the chunk; what
remains per sample is its own generator, about 26 us to construct.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from ._workers import ordered_map
from .classical import DEFAULT_MAX_PARTIES, _check_enumeration, _strategy_values
from .expressions import block_sizes, canonical_tensor

_BLOCK_EPS = 1e-9
_CHUNK = 256
_GAMMA1_SLACK = 1e-12
_VALUE_BYTES = 16 << 20  # one sub-batch's strategy values


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


def _sample_vector(seed: int, index: int, dim: int) -> np.ndarray:
    rng = np.random.default_rng([seed, index])
    while True:
        x = rng.standard_normal(dim)
        norm = float(np.linalg.norm(x))
        if norm >= 1e-12:
            return x / norm


def _bounds(x: np.ndarray, m: int, offsets: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Classical bounds of the sample rows x: the full ones and (rows, m) per block.

    Block i + 1 is the first block of an expression over parties i+1..m,
    whose tensor holds it in the leading party's slots 1 and 2.  Rather than
    contract that party, whose two outcomes are free signs on the two
    halves a and b, the bound is read off as max (|a| + |b|) over the
    strategies of the other parties.
    """
    total = np.abs(_strategy_values(canonical_tensor(x, m), m)).max(axis=-1)
    blocks = np.empty((len(x), m))
    for i in range(m):
        reduced = np.zeros((len(x), 3 ** (m - i) - 1))
        reduced[:, : offsets[i + 1] - offsets[i]] = x[:, offsets[i] : offsets[i + 1]]
        halves = canonical_tensor(reduced, m - i)[:, 1:]
        values = np.abs(_strategy_values(halves, m - i - 1))
        blocks[:, i] = (values[:, 0] + values[:, 1]).max(axis=-1)
    return total, blocks


def _scan_chunk(config: GammaScanConfig, offsets: list[int], start: int):
    """Per-index minima and skip counts over samples start .. start + _CHUNK."""
    m = config.parties
    indices = np.arange(start, min(start + _CHUNK, config.samples))
    x = np.stack([_sample_vector(config.seed, int(k), offsets[-1]) for k in indices])
    rows = max(1, _VALUE_BYTES // (8 * 4**m))
    total = np.empty(len(x))
    blocks = np.empty((len(x), m))
    for lo in range(0, len(x), rows):
        total[lo : lo + rows], blocks[lo : lo + rows] = _bounds(x[lo : lo + rows], m, offsets)

    skip = blocks < _BLOCK_EPS
    ratios = np.where(skip, np.inf, total[:, None] / np.where(skip, 1.0, blocks))
    low = np.flatnonzero(~skip[:, 0] & (ratios[:, 0] < 1.0 - _GAMMA1_SLACK))
    if low.size:
        raise RuntimeError(
            f"sample {int(indices[low[0]])}: first-block ratio {ratios[low[0], 0]!r} "
            "fell below 1; enumeration kernels disagree"
        )
    minima: list[Optional[tuple[float, int]]] = [None] * m
    for i in range(m):
        if not skip[:, i].all():
            best = int(np.argmin(ratios[:, i]))  # the lowest sample index on ties
            minima[i] = (float(ratios[best, i]), int(indices[best]))
    return minima, skip.sum(axis=0).tolist()


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
    _check_enumeration(m, config.max_parties)
    _, offsets = block_sizes(m)
    dim = offsets[-1]

    scan = partial(_scan_chunk, config, offsets)
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
