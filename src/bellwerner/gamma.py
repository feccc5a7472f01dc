"""Sampled minima of block ratios over random Bell expressions.

For an expression B and party index i, the ratio gamma_i is the classical
bound of B over the classical bound of its i-th block (terms whose first
participating party is i).  The scan draws unit coefficient vectors, reads
each as a full expression, and tracks the smallest ratio seen per index.

Every sample's gamma_1 is at least 1, with no rounding slack.  Per strategy
of parties 2..m, `_bounds` reads the full bound, fl(fl(|c| + |a|) + |b|), and
block 1's, fl(|a| + |b|), off one product (c the later blocks, a and b block
1's halves).  Rounding is monotone, so the first is never below the second,
and the quotient of their maxima rounds to at least 1.  The scan checks this.
In exact arithmetic gamma_i >= 1 at every i >= 2 too.  Write B = B_1 + ... +
B_m and c for the classical bound.  Averaging B over the strategies of parties
1..i-1 zeroes every term with one of them, leaving T_i = B_i + ... + B_m, so
c(B) >= c(T_i); flipping party i's outcomes negates B_i and fixes the later
blocks, so c(T_i) >= c(B_i).  B = B_i attains 1, so the minima are sample
statistics whose infimum is 1.

Determinism: sample k draws from the substream keyed by (seed, k), which
is NumPy's default_rng([seed, k]): standard normals from that stream,
redrawn while the norm is below 1e-12, then divided by the norm.  A scan
takes at most 2^32 samples (CapExceeded when its config is built, as is
ValueError for a negative seed), so k is one uint32 word.  Rather than
build a SeedSequence per sample, the scan derives the words
SeedSequence([seed, k]).generate_state(4, uint64) of 4096 samples in one
pass, running its seed_seq_fe hash as uint32 array operations over their
indices, and hands each sample's words to PCG64 through NumPy's
ISeedSequence interface; PCG64 asking for anything else is an internal
fault (RuntimeError).  A sub-batch's norms are one stacked
(1, n) @ (n, 1) product: NumPy computes it as the dot product
np.linalg.norm takes.  NEP 19 fixes PCG64's bit stream but not what
Generator methods such as standard_normal make of it; the tests that pin
the derived words, generator states and drawn vectors against
default_rng would catch a change.  No result depends on how the samples
are grouped: sub-batches fold in index order with ties going to the
lowest sample index, and each new minimum's row is kept as its witness.
`gamma_scans` draws sample k once, as wide as the widest scan that has
it; a narrower scan normalizes a copy of the prefix, its own first draws
from that substream.

Cost model.  One loop walks the samples in sub-batches of about 1 MiB of
4^m doubles, but at least 8 rows and at most 256 (with several scans,
the smallest sub-batch among those still running).  A sub-batch draws its
rows and reads every classical bound off one Kronecker transform of the
full expressions as (3,)*m tensors, batched over the rows (`_bounds`): the
block bounds from slices taken before each party is contracted, the full
bound in place of the last contraction.  So a sample costs about 70% of
one full transform, O(m 4^m), and its 4^m values are never formed.  The
transform's input and products go into two buffers allocated once per
call (`_workspace`), so the heap does not shrink and regrow between
sub-batches, faulting its pages in afresh each time (7k faults a
2000-sample scan at five parties), and memory is the workspace, one
sub-batch and m witness rows whatever the sample count (under 8 MiB at
eight parties).  Ratios, skips, the gamma_1 self-check and the minima
are array operations on the sub-batch.
What remains per sample is its draw: on one core of a 2 GHz Xeon about
5 us at four parties (80 coefficients), of which about 1 us derives the
words, 0.2 us takes the norm and the rest builds the generator and draws.
A derivation pass also has a fixed cost of about 0.3 ms, which is why it
covers 4096 samples rather than one sub-batch of 8: one pass of 4096
takes about 0.7 ms, sixteen passes of 256 about 5 ms.  Their words are 32
bytes a sample, 128 KiB a pass.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .classical import _check_enumeration, _contraction_steps
from .errors import check_cap
from .expressions import canonical_tensor

_BLOCK_EPS = 1e-9
_MIN_NORM = 1e-12  # a draw below this norm is redrawn
_VALUE_BYTES = 1 << 20  # sub-batch rows: this many bytes of 4^m doubles,
_MIN_ROWS = 8  # but at least this many (fewer slow the matmuls at m = 8)
_MAX_ROWS = 256  # and at most this many (more gain no time at m <= 4 and fault a fresh workspace)
_STATE_ROWS = 4096  # substream states derived per pass
_MAX_SAMPLES = 2**32  # so that every sample index is one uint32 entropy word

# NumPy's SeedSequence (seed_seq_fe, pool of four uint32 words)
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)


@dataclass(frozen=True)
class GammaScanConfig:
    parties: int
    samples: int
    seed: int = 0

    def __post_init__(self):
        if self.parties < 2:
            raise ValueError("parties must be at least 2")
        if self.samples < 1:
            raise ValueError("samples must be at least 1")
        check_cap("samples per gamma scan", self.samples, _MAX_SAMPLES)
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


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


def _uint32_words(n: int) -> list[int]:
    """n >= 0 as SeedSequence reads it: uint32 words, least significant first."""
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


def _seed_seq_words(entropy: list[np.ndarray]) -> np.ndarray:
    """SeedSequence(entropy).generate_state(4, uint64), one row per sample.

    entropy holds one uint32 array per entropy word, all of one length.  The
    hash constants advance the same way whatever the values, so the pool
    mixing of seed_seq_fe runs elementwise over the samples.
    """
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * _MULT_A & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> _XSHIFT)

    def mix(x, y):
        value = _MIX_MULT_L * x - _MIX_MULT_R * y
        return value ^ (value >> _XSHIFT)

    zero = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    const = _INIT_B
    state = []
    for i in range(8):
        value = pool[i % 4] ^ np.uint32(const)
        const = const * _MULT_B & _MASK32
        value = value * np.uint32(const)
        state.append((value ^ (value >> _XSHIFT)).astype(np.uint64))
    return np.stack(state[0::2], axis=1) | np.stack(state[1::2], axis=1) << np.uint64(32)


def _substream_states(seed: int, indices: np.ndarray) -> np.ndarray:
    """SeedSequence([seed, k]).generate_state(4, uint64) for each k in indices, one row each.

    The entropy words are the seed's, then k's one word (k < _MAX_SAMPLES).
    """
    entropy = [np.full(len(indices), w, dtype=np.uint32) for w in _uint32_words(seed)]
    return _seed_seq_words(entropy + [np.asarray(indices, dtype=np.uint32)])


# built at first use: on NumPy 2 and later, subclassing ISeedSequence is what imports numpy.random
@lru_cache(maxsize=None)
def _seeded_words() -> type:
    from numpy.random.bit_generator import ISeedSequence

    class SeededWords(ISeedSequence):
        """A SeedSequence's generate_state(4, uint64), computed: a C-contiguous row of 4 uint64."""

        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise RuntimeError(f"PCG64 asked its seed for {n_words} words of {np.dtype(dtype)}")
            return self.words

    return SeededWords


def _generator(words: np.ndarray) -> np.random.Generator:
    """default_rng([seed, k]), built from the row of `_substream_states` for k."""
    return np.random.Generator(np.random.PCG64(_seeded_words()(words)))


def _sample_rows(states: np.ndarray, dim: int) -> np.ndarray:
    """The first `dim` standard normals of each substream, one row each."""
    x = np.empty((len(states), dim))
    for row, words in zip(x, states):
        _generator(words).standard_normal(out=row)
    return x


def _unit_rows(x: np.ndarray, states: np.ndarray) -> np.ndarray:
    """C-contiguous first draws x of `states` divided by their norms, in place (see Determinism)."""
    norms = np.sqrt(np.matmul(x[:, None, :], x[:, :, None])[:, 0, 0])
    for r in np.flatnonzero(norms < _MIN_NORM).tolist():
        generator = _generator(states[r])
        while norms[r] < _MIN_NORM:  # the first draw falls short again, then the next ones
            norms[r] = np.linalg.norm(generator.standard_normal(out=x[r]))
    x /= norms[:, None]
    return x


def _workspace(scans) -> tuple[np.ndarray, np.ndarray]:
    """`_bounds`'s buffers for up to `rows` samples of each (m, rows) in scans.

    Product k goes into buffer k % 2, and the transform's input into buffer
    1, so each is sized for the largest it takes.
    """
    sizes = ([0], [0])
    for m, rows in scans:
        sizes[1].append(3**m * rows)
        for k in range(m - 1):  # products 0..m-2
            sizes[k % 2].append(4 ** (k + 1) * 3 ** (m - 1 - k) * rows)
    return np.empty(max(sizes[0])), np.empty(max(sizes[1]))


def _bounds(x: np.ndarray, m: int, workspace: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Classical bounds of the sample rows x: the full ones and (rows, m) per block.

    All are read off one transform of the full tensors, its products in
    `workspace`.  Just before party i is contracted, the slice with party i
    at slot 1 or 2 and every earlier party at slot 0 holds block i over the
    later parties' strategies as two halves a and b; party i's outcomes are
    free signs on them, so block i's bound is max(|a| + |b|), the sums a
    transform of the block alone takes.  Party 0's slots 0, 1, 2 hold c, a
    and b, which its contraction would round as (c + u a) + v b for signs
    u, v; rounding is odd and monotone, so the full bound is
    max((|c| + |a|) + |b|) bit for bit, summed in place in the last product.
    The input, the full tensors with parties reversed and the batch last as
    `_contraction_steps` reads them, is gathered once into the head of
    buffer 1, which product 0 reads before product 1 overwrites it.
    """
    n = len(x)
    blocks = np.empty((n, m))
    full = workspace[1][: 3**m * n].reshape((3,) * m + (n,))
    order = canonical_tensor(np.arange(3**m - 1), m).T.astype(np.intp)
    np.take(x.T, order, axis=0, out=full, mode="clip")  # clip: "raise" would buffer out
    full[(0,) * m] = 0.0  # the constant slot, gathered from column 0
    steps = _contraction_steps(full.T, m, workspace)
    for done, t in enumerate(itertools.islice(steps, m - 1)):
        a = np.abs(t[:, 1, :n])
        blocks[:, m - 1 - done] = np.add(a, np.abs(t[:, 2, :n]), out=a).max(axis=0)
    t = next(steps)
    c, a, b = np.abs(t, out=t).transpose(1, 0, 2)
    np.add(np.add(c, a, out=c), b, out=c)  # (|c| + |a|) + |b|, before a turns into |a| + |b|
    blocks[:, 0] = np.add(a, b, out=a).max(axis=0)
    return c.max(axis=0), blocks


class _Minima:
    """One scan's running minimum per block index, with its sample, row and skips."""

    def __init__(self, config: GammaScanConfig):
        m = config.parties
        self.config, self.dim = config, 3**m - 1
        self.rows = min(_MAX_ROWS, max(_MIN_ROWS, _VALUE_BYTES // (8 * 4**m)), config.samples)
        self.low = np.full(m, np.inf)
        self.sample = np.zeros(m, dtype=np.int64)
        self.witness = np.empty((m, self.dim))
        self.skipped = np.zeros(m, dtype=np.int64)

    def fold(self, x: np.ndarray, start: int, workspace: tuple) -> None:
        """Fold in the unit rows x of samples start, start + 1, ..."""
        m = self.config.parties
        total, blocks = _bounds(x, m, workspace)
        skip = blocks < _BLOCK_EPS
        ratios = np.where(skip, np.inf, total[:, None] / np.where(skip, 1.0, blocks))
        bad = np.flatnonzero(~skip[:, 0] & (ratios[:, 0] < 1.0))
        if bad.size:
            raise RuntimeError(
                f"sample {start + int(bad[0])}: first-block ratio {float(ratios[bad[0], 0])!r} "
                "fell below 1; enumeration kernels disagree"
            )
        self.skipped += skip.sum(axis=0)
        best = ratios.argmin(axis=0)  # the lowest sample index on ties
        value = ratios[best, np.arange(m)]
        # sub-batches come in index order, so the strict < keeps ties at the
        # lowest index; an index skipped so far stays at inf
        better = value < self.low
        self.low[better] = value[better]
        self.sample[better] = start + best[better]
        self.witness[better] = x[best[better]]

    def result(self) -> GammaScanResult:
        estimates = []
        found = zip(self.low.tolist(), self.witness, self.sample.tolist(), self.skipped.tolist())
        for i, (value, witness, sample, skips) in enumerate(found, start=1):
            if value == math.inf:
                value = witness = sample = None
            estimates.append(GammaIndexEstimate(i, value, witness, sample, skips))
        c = self.config
        return GammaScanResult(c.parties, c.samples, c.seed, tuple(estimates))


def gamma_scan(config: GammaScanConfig) -> GammaScanResult:
    """Minimum sampled ratio per block index over seeded unit vectors.

    Each sample is one full coefficient vector; all m ratios are read off it.
    Block bounds below 1e-9 are skipped (counted per index); an index with
    every sample skipped reports gamma_min None rather than raising.
    """
    return gamma_scans([config])[0]


def gamma_scans(configs: list[GammaScanConfig]) -> list[GammaScanResult]:
    """`gamma_scan` of each config, all of one seed, drawing each sample once."""
    for c in configs:
        _check_enumeration(c.parties)
    if len({c.seed for c in configs}) != 1:
        raise ValueError("scans drawn together must share one seed")
    scans = [_Minima(c) for c in configs]
    n = max(c.samples for c in configs)
    states = itertools.chain.from_iterable(
        _substream_states(configs[0].seed, np.arange(lo, min(lo + _STATE_ROWS, n)))
        for lo in range(0, n, _STATE_ROWS)
    )
    workspace = _workspace([(s.config.parties, s.rows) for s in scans])
    start = 0
    while start < n:
        live = sorted((s for s in scans if s.config.samples > start), key=lambda s: s.dim)
        # a sub-batch of each live scan, ending where the first of them ends
        stop = min(start + min(s.rows for s in live), min(s.config.samples for s in live))
        batch = list(itertools.islice(states, stop - start))
        drawn = _sample_rows(batch, live[-1].dim)
        for scan in live[:-1]:  # copied before the widest scan divides the draws in place
            scan.fold(_unit_rows(drawn[:, : scan.dim].copy(), batch), start, workspace)
        live[-1].fold(_unit_rows(drawn, batch), start, workspace)
        start = stop
    return [scan.result() for scan in scans]
