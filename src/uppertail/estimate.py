"""Tail and point-probability estimators for induced edge counts.

Exact enumeration aggregates an integer (vertex count, edge count) histogram
so every probability is a short compensated sum; Monte Carlo variants share
chunked Philox streams (see uppertail.rng) and merge by summing hit counts,
making results independent of worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Sequence

import numpy as np
from scipy.stats import binom

from .families import Witness
from .hypergraph import CapacityError, Hypergraph
from .rng import chunk_layout, stream_generator

__all__ = [
    "CleanConfig",
    "TailEstimate",
    "Z99",
    "clean_config_point_lower",
    "conditioned_tail",
    "edge_count_histogram",
    "enumerate_clean_configs",
    "exact_point_mass",
    "exact_tail",
    "mc_tail",
    "planted_tail",
    "superset_counts",
    "wilson_interval",
]

EXACT_VERTEX_BUDGET = 26
CLEAN_COMBO_BUDGET = 10**7
LOW_BITS = 20  # vertices enumerated inside one block of codes

METHODS = ("exact", "mc", "planted", "conditioned")

Z99 = 2.5758293035489004  # two-sided 99% normal quantile


def wilson_interval(hits: int, total: int, z: float = Z99) -> tuple[float, float]:
    """Wilson score interval; well behaved when hits is 0 or total."""
    if total <= 0:
        raise ValueError("total must be positive")
    if not 0 <= hits <= total:
        raise ValueError("hits must lie in [0, total]")
    p_hat = hits / total
    z2 = z * z
    denom = 1.0 + z2 / total
    center = p_hat + z2 / (2.0 * total)
    half = z * math.sqrt(p_hat * (1.0 - p_hat) / total + z2 / (4.0 * total * total))
    return max(0.0, (center - half) / denom), min(1.0, (center + half) / denom)


@dataclass(frozen=True)
class TailEstimate:
    """Estimate of Pr(X >= threshold) with a 99% Wilson interval.

    The exact method reports ci_low == p_hat == ci_high; scaled Monte Carlo
    variants scale the interval by their certified factor.  `extra` carries
    method-specific metadata and never affects comparisons.
    """

    threshold: float
    p_hat: float
    method: str
    samples: int
    ci_low: float
    ci_high: float
    extra: dict | None = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}")
        if self.samples < 0:
            raise ValueError("samples must be nonnegative")
        if not (
            -1e-12 <= self.ci_low <= self.p_hat + 1e-12
            and self.p_hat <= self.ci_high + 1e-12
            and self.ci_high <= 1.0 + 1e-12
        ):
            raise ValueError("interval must satisfy 0 <= ci_low <= p_hat <= ci_high <= 1")


_HIST_CACHE: dict[Hypergraph, np.ndarray] = {}
_HIST_CACHE_LIMIT = 8


def _superset_counts(masks: Sequence[int], low: int, high: int) -> np.ndarray:
    """counts[c] = number of masks inside code (high << low) | c, for one block.

    The block is a [2]*low array whose axis i is bit low-1-i, so the codes
    containing a mask's low bits are the strided view fixing those axes at 1:
    each mask costs 2^(low - |its low bits|) in-place adds, not 2^low.
    """
    counts = np.zeros((2,) * low, dtype=np.min_scalar_type(len(masks)))
    for m in masks:
        if (m >> low) & ~high == 0:
            counts[tuple(1 if (m >> b) & 1 else slice(None) for b in range(low - 1, -1, -1))] += 1
    return counts.reshape(-1)


def superset_counts(n: int, masks: Sequence[int]) -> np.ndarray:
    """counts[code] = number of masks inside code, over all 2^n codes (small n)."""
    low = min(n, LOW_BITS)
    return np.concatenate([_superset_counts(masks, low, high) for high in range(1 << (n - low))])


def _subset_histogram(n: int, masks: Sequence[int], workers: int = 1) -> np.ndarray:
    """hist[j, x] = number of j-subsets of range(n) containing exactly x masks.

    Block `high` holds the 2^low codes (high << low) | c.  Blocks are counted
    independently (over a thread pool when workers > 1) and their integer
    histograms summed, so every worker count agrees.
    """
    low = min(n, LOW_BITS)
    width = len(masks) + 1
    row_starts = np.bitwise_count(np.arange(1 << low, dtype=np.uint32)).astype(np.int32) * width

    def block(high: int) -> np.ndarray:
        flat = row_starts + _superset_counts(masks, low, high)
        return np.bincount(flat, minlength=(low + 1) * width).reshape(low + 1, width)

    blocks = range(1 << (n - low))
    if workers > 1 and len(blocks) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(block, blocks))
    else:
        parts = map(block, blocks)
    hist = np.zeros((n + 1, width), dtype=np.int64)
    for high, part in zip(blocks, parts):
        offset = high.bit_count()
        hist[offset : offset + low + 1] += part
    return hist


def edge_count_histogram(h: Hypergraph, workers: int = 1) -> np.ndarray:
    """counts[j, x] = number of vertex subsets of size j inducing exactly x edges.

    Enumerates all 2^n subsets (n <= 26) in blocks of 2^LOW_BITS codes.  The
    cache keeps the last _HIST_CACHE_LIMIT results, least recently used out.
    """
    hist = _HIST_CACHE.pop(h, None)
    if hist is None:
        if h.n > EXACT_VERTEX_BUDGET:
            raise CapacityError(f"{h.n} vertices exceed budget {EXACT_VERTEX_BUDGET}")
        hist = _subset_histogram(h.n, h.edge_masks, workers)
        hist.setflags(write=False)
        if len(_HIST_CACHE) >= _HIST_CACHE_LIMIT:
            del _HIST_CACHE[next(iter(_HIST_CACHE))]
    _HIST_CACHE[h] = hist
    return hist


def _subset_weights(n: int, p: float) -> list[float]:
    return [p**j * (1.0 - p) ** (n - j) for j in range(n + 1)]


def exact_tail(h: Hypergraph, p: float, threshold: float, workers: int = 1) -> TailEstimate:
    """Exact Pr(X >= threshold) by complete subset enumeration (n <= 26)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    hist = edge_count_histogram(h, workers)
    cols = np.arange(len(h.edges) + 1, dtype=float) >= threshold
    per_size = hist[:, cols].sum(axis=1).tolist()
    weights = _subset_weights(h.n, p)
    p_hat = math.fsum(c * w for c, w in zip(per_size, weights) if c)
    p_hat = min(max(p_hat, 0.0), 1.0)
    return TailEstimate(float(threshold), p_hat, "exact", 1 << h.n, p_hat, p_hat)


def exact_point_mass(h: Hypergraph, p: float, m: int, workers: int = 1) -> float:
    """Exact Pr(X = m) by complete subset enumeration (n <= 26)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if m < 0 or m > len(h.edges):
        return 0.0
    hist = edge_count_histogram(h, workers)
    weights = _subset_weights(h.n, p)
    column = hist[:, m].tolist()
    return min(max(math.fsum(c * w for c, w in zip(column, weights) if c), 0.0), 1.0)


def _padded_edge_positions(h: Hypergraph, keep: list[int], edge_ids: list[int]) -> np.ndarray | None:
    """Positions of each edge's kept vertices in `keep`, padded with a sentinel
    column index (len(keep)) that is always True in the sample matrix."""
    if not edge_ids:
        return None
    pos = {v: i for i, v in enumerate(keep)}
    sentinel = len(keep)
    rows = []
    for idx in edge_ids:
        cols = [pos[v] for v in h.edges[idx] if v in pos]
        rows.append(cols + [sentinel] * (h.k - len(cols)))
    return np.asarray(rows, dtype=np.int64)


def _forced_hits_chunk(
    h: Hypergraph,
    free: list[int],
    base: int,
    positions: np.ndarray | None,
    p: float,
    threshold: float,
    seed: int,
    stream: int,
    count: int,
) -> int:
    rng = stream_generator(seed, stream)
    draws = rng.random((count, len(free))) < p
    aug = np.ones((count, len(free) + 1), dtype=bool)
    aug[:, : len(free)] = draws
    if positions is None:
        totals = np.full(count, base, dtype=np.int64)
    else:
        totals = base + aug[:, positions].all(axis=2).sum(axis=1)
    return int((totals >= threshold).sum())


def _run_hit_chunks(worker, samples: int, workers: int) -> int:
    tasks = list(chunk_layout(samples))
    if workers > 1 and len(tasks) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return sum(pool.map(lambda sc: worker(*sc), tasks))
    return sum(worker(*sc) for sc in tasks)


def mc_tail(
    h: Hypergraph, p: float, threshold: float, samples: int, seed: int, workers: int = 1
) -> TailEstimate:
    """Monte Carlo Pr(X >= threshold) over independent p-samples of vertices."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if samples <= 0:
        raise ValueError("samples must be positive")
    free = list(range(h.n))
    positions = _padded_edge_positions(h, free, list(range(len(h.edges))))

    def worker(stream: int, count: int) -> int:
        return _forced_hits_chunk(h, free, 0, positions, p, threshold, seed, stream, count)

    hits = _run_hit_chunks(worker, samples, workers)
    lo, hi = wilson_interval(hits, samples)
    return TailEstimate(float(threshold), hits / samples, "mc", samples, lo, hi)


def _planting_target(mu: float, t: float, k: int, alpha: float | None) -> tuple[int, float]:
    if alpha is None:
        alpha = min(1.0, t / mu) if mu > 0 and t > 0 else 1.0
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    lam = 4.0 / (1.0 - (1.0 - alpha) ** k)
    target = min(lam * t, mu + t) if t > 0 else 0.0
    return math.ceil(target), lam


def planted_tail(
    h: Hypergraph,
    p: float,
    threshold: float,
    samples: int,
    seed: int,
    witness: Witness,
    workers: int = 1,
    alpha: float | None = None,
) -> TailEstimate:
    """Certified lower-bound estimate p^|W| * Pr(X >= threshold | W kept).

    The witness vertices are forced into every sample; only the conditional
    frequency is estimated, and the Wilson interval is scaled by p^|W|.
    With an empty witness this is exactly mc_tail.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if samples <= 0:
        raise ValueError("samples must be positive")
    if witness.subset.n != h.n:
        raise ValueError("witness lives on a different vertex set")
    w_bits = witness.subset.bits
    w_size = len(witness.subset)
    free = [v for v in range(h.n) if not (w_bits >> v) & 1]
    inside = [i for i, m in enumerate(h.edge_masks) if m & w_bits == m]
    partial = [i for i, m in enumerate(h.edge_masks) if m & w_bits != m]
    positions = _padded_edge_positions(h, free, partial)
    base = len(inside)

    def worker(stream: int, count: int) -> int:
        return _forced_hits_chunk(h, free, base, positions, p, threshold, seed, stream, count)

    hits = _run_hit_chunks(worker, samples, workers)
    factor = p**w_size
    lo, hi = wilson_interval(hits, samples)
    mu = len(h.edges) * p**h.k
    target, lam = _planting_target(mu, float(threshold) - mu, h.k, alpha)
    extra = {
        "witness_size": w_size,
        "factor": factor,
        "conditional_hits": hits,
        "planting_target_edges": target,
        "planting_lambda": lam,
    }
    return TailEstimate(
        float(threshold),
        factor * (hits / samples),
        "planted",
        samples,
        factor * lo,
        factor * hi,
        extra,
    )


def _vm_hits_chunk(
    h: Hypergraph,
    m: int,
    positions: np.ndarray | None,
    threshold: float,
    seed: int,
    stream: int,
    count: int,
) -> int:
    rng = stream_generator(seed, stream)
    n = h.n
    arr = np.tile(np.arange(n, dtype=np.int64), (count, 1))
    rows = np.arange(count)
    for i in range(m):
        j = rng.integers(i, n, size=count)
        picked = arr[rows, j]
        arr[rows, j] = arr[:, i]
        arr[:, i] = picked
    member = np.zeros((count, n + 1), dtype=bool)
    member[:, n] = True
    if m:
        member[rows[:, None], arr[:, :m]] = True
    if positions is None:
        totals = np.zeros(count, dtype=np.int64)
    else:
        totals = member[:, positions].all(axis=2).sum(axis=1)
    return int((totals >= threshold).sum())


def conditioned_tail(
    h: Hypergraph,
    p: float,
    threshold: float,
    samples: int,
    seed: int,
    eps: float = 0.0,
    workers: int = 1,
) -> TailEstimate:
    """Certified lower bound Pr_m(X >= threshold) * Pr(Bin(n, p) >= m).

    m = ceil((1+eps) n p) is the slightly supercritical vertex count; the
    first factor is estimated on uniform m-subsets, the second is the exact
    binomial tail.  Validity rests on Pr_j(X >= threshold) being nondecreasing
    in j.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    if samples <= 0:
        raise ValueError("samples must be positive")
    raw = (1.0 + eps) * h.n * p
    m = round(raw) if abs(raw - round(raw)) < 1e-9 else math.ceil(raw)
    if m > h.n:
        raise ValueError(f"m = {m} exceeds the {h.n} available vertices")
    # positions over all vertices; free list is the full vertex range
    positions = _padded_edge_positions(h, list(range(h.n)), list(range(len(h.edges))))

    def worker(stream: int, count: int) -> int:
        return _vm_hits_chunk(h, m, positions, threshold, seed, stream, count)

    hits = _run_hit_chunks(worker, samples, workers)
    factor = float(binom.sf(m - 1, h.n, p))
    lo, hi = wilson_interval(hits, samples)
    extra = {"m": m, "binomial_factor": factor, "conditional_hits": hits}
    return TailEstimate(
        float(threshold),
        factor * (hits / samples),
        "conditioned",
        samples,
        factor * lo,
        factor * hi,
        extra,
    )


@dataclass(frozen=True)
class CleanConfig:
    """m edges whose vertex union induces no edge outside the configuration."""

    edge_ids: tuple[int, ...]
    vertex_bits: int


def enumerate_clean_configs(h: Hypergraph, m: int) -> list[CleanConfig]:
    """All clean m-edge configurations, in lexicographic edge-id order."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    ecount = len(h.edges)
    if m > ecount:
        return []
    if comb(ecount, m) > CLEAN_COMBO_BUDGET:
        raise CapacityError(f"C({ecount}, {m}) combinations exceed budget")
    masks = h.edge_masks
    out = []
    for combo in combinations(range(ecount), m):
        union = 0
        for i in combo:
            union |= masks[i]
        chosen = set(combo)
        clean = True
        for g, gm in enumerate(masks):
            if g not in chosen and gm & union == gm:
                clean = False
                break
        if clean:
            out.append(CleanConfig(combo, union))
    return out


def _no_outside_edge_prob(h: Hypergraph, config: CleanConfig, p: float) -> float:
    """Pr(no edge outside the configuration is induced | its vertices kept)."""
    u = config.vertex_bits
    pos = {v: i for i, v in enumerate(v for v in range(h.n) if not (u >> v) & 1)}
    chosen = set(config.edge_ids)
    free_masks = [
        sum(1 << pos[v] for v in edge if v in pos)
        for idx, edge in enumerate(h.edges)
        if idx not in chosen
    ]
    clean = _subset_histogram(len(pos), free_masks)[:, 0].tolist()
    weights = _subset_weights(len(pos), p)
    return math.fsum(cnt * w for cnt, w in zip(clean, weights) if cnt)


def clean_config_point_lower(
    h: Hypergraph, p: float, m: int, disjoint_only: bool = True
) -> float:
    """Certified lower bound on Pr(X = m) from clean configurations.

    Sums Pr(the induced edge set equals the configuration) over clean
    (by default vertex-disjoint) m-edge configurations.  Exact per-config
    probabilities via complement enumeration when n <= 26; otherwise the
    closed-form product (1-p^k)^f0 (1-p^(k-1))^f1 (1-p)^f2 grouping outside
    edges by their overlap (0, 1, or in [2, k)) with the configuration.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    configs = enumerate_clean_configs(h, m)
    if disjoint_only:
        configs = [c for c in configs if c.vertex_bits.bit_count() == h.k * m]
    exact_mode = h.n <= EXACT_VERTEX_BUDGET
    contributions = []
    for config in configs:
        base = p ** config.vertex_bits.bit_count()
        if base == 0.0:
            continue
        if exact_mode:
            contributions.append(base * _no_outside_edge_prob(h, config, p))
        else:
            f0 = f1 = f2 = 0
            chosen = set(config.edge_ids)
            for idx, em in enumerate(h.edge_masks):
                if idx in chosen:
                    continue
                overlap = (em & config.vertex_bits).bit_count()
                if overlap == 0:
                    f0 += 1
                elif overlap == 1:
                    f1 += 1
                else:
                    f2 += 1
            contributions.append(
                base
                * (1.0 - p**h.k) ** f0
                * (1.0 - p ** (h.k - 1)) ** f1
                * (1.0 - p) ** f2
            )
    return min(max(math.fsum(contributions), 0.0), 1.0)
