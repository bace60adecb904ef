"""Tail and point-probability estimators for induced edge counts.

Exact enumeration aggregates an integer (vertex count, edge count) histogram
so every probability is a short compensated sum; Monte Carlo variants share
chunked Philox streams (see uppertail.rng) and merge by summing hit counts,
making results independent of worker count.  The three samplers differ only
in how a chunk draws its vertex sets; one kernel counts their induced edges
EDGE_BLOCK edges at a time, so memory per worker is O(CHUNK * (n + EDGE_BLOCK)),
independent of e(H).
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
    "planting_target",
    "size_weighted_sum",
    "superset_counts",
    "wilson_interval",
]

EXACT_VERTEX_BUDGET = 26
CLEAN_COMBO_BUDGET = 10**7
LOW_BITS = 20  # vertices enumerated inside one block of codes
EDGE_BLOCK = 512  # edges ANDed per sampling-kernel step; < 2**16 (uint16 sums)
DRAW_BLOCK = 512  # samples per step of a p-sampler's membership draw

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


def _subset_histogram(
    n: int, masks: Sequence[int], workers: int = 1, groups: Sequence[Sequence[int]] = ()
) -> np.ndarray:
    """hist[j, x] = number of j-subsets of range(n) containing exactly x masks.

    Block `high` holds the 2^low codes (high << low) | c.  Blocks are counted
    independently (over a thread pool when workers > 1) and their integer
    histograms summed, so every worker count agrees.  With groups, a code
    counts only if it contains at most one mask of every group.
    """
    low = min(n, LOW_BITS)
    width = len(masks) + 1
    row_starts = np.bitwise_count(np.arange(1 << low, dtype=np.uint32)).astype(np.int32) * width
    groups = [g for g in groups if len(g) > 1]

    def block(high: int) -> np.ndarray:
        flat = row_starts + _superset_counts(masks, low, high)
        if groups:
            keep = np.ones(1 << low, dtype=bool)
            for g in groups:
                keep &= _superset_counts(g, low, high) <= 1
            flat = flat[keep]
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


def size_weighted_sum(counts: Sequence[int], p: float) -> float:
    """fsum of counts[j] p^j (1-p)^(n-j), n = len(counts) - 1: the p-weight of
    counts[j] subsets of size j each, unclamped so moments can use it too."""
    n = len(counts) - 1
    return math.fsum(
        c * (p**j * (1.0 - p) ** (n - j)) for j, c in enumerate(np.asarray(counts).tolist()) if c
    )


def exact_tail(h: Hypergraph, p: float, threshold: float, workers: int = 1) -> TailEstimate:
    """Exact Pr(X >= threshold) by complete subset enumeration (n <= 26)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    hist = edge_count_histogram(h, workers)
    cols = np.arange(h.num_edges + 1, dtype=float) >= threshold
    p_hat = min(max(size_weighted_sum(hist[:, cols].sum(axis=1), p), 0.0), 1.0)
    return TailEstimate(float(threshold), p_hat, "exact", 1 << h.n, p_hat, p_hat)


def exact_point_mass(h: Hypergraph, p: float, m: int, workers: int = 1) -> float:
    """Exact Pr(X = m) by complete subset enumeration (n <= 26)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if m < 0 or m > h.num_edges:
        return 0.0
    column = edge_count_histogram(h, workers)[:, m]
    return min(max(size_weighted_sum(column, p), 0.0), 1.0)


def _tail_hits(h: Hypergraph, draw, threshold: float, samples: int, workers: int) -> int:
    """Number of samples inducing at least `threshold` edges of h.

    draw(stream, count) returns chunk `stream`'s n x count boolean membership
    matrix.  Edges are ANDed EDGE_BLOCK at a time from their k member rows, so
    a chunk's working set is O(count * (n + EDGE_BLOCK)) whatever e(H) is.
    Chunks run over a thread pool when workers > 1; their hit counts add up
    the same in any order.
    """
    edges = h.edge_array

    def chunk(stream: int, count: int) -> int:
        member = draw(stream, count)
        totals = np.zeros(count, dtype=np.int64)
        for start in range(0, len(edges), EDGE_BLOCK):
            block = edges[start : start + EDGE_BLOCK]
            hit = member[block[:, 0]]
            for col in block.T[1:]:
                hit &= member[col]
            totals += hit.sum(axis=0, dtype=np.uint16)
        return int((totals >= threshold).sum())

    tasks = list(chunk_layout(samples))
    if workers > 1 and len(tasks) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return sum(pool.map(lambda sc: chunk(*sc), tasks))
    return sum(chunk(*sc) for sc in tasks)


def _vp_draw(n: int, free: list[int], p: float, seed: int):
    """Membership draw keeping each free vertex with probability p, the rest always."""

    def draw(stream: int, count: int) -> np.ndarray:
        # DRAW_BLOCK samples at a time: the same doubles as one (count, |free|)
        # draw, without its count * |free| * 8-byte temporary.
        member = np.ones((n, count), dtype=bool)
        gen = stream_generator(seed, stream)
        for lo in range(0, count, DRAW_BLOCK):
            rows = min(DRAW_BLOCK, count - lo)
            member[free, lo : lo + rows] = (gen.random((rows, len(free))) < p).T
        return member

    return draw


def mc_tail(
    h: Hypergraph, p: float, threshold: float, samples: int, seed: int, workers: int = 1
) -> TailEstimate:
    """Monte Carlo Pr(X >= threshold) over independent p-samples of vertices."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if samples <= 0:
        raise ValueError("samples must be positive")
    hits = _tail_hits(h, _vp_draw(h.n, list(range(h.n)), p, seed), threshold, samples, workers)
    lo, hi = wilson_interval(hits, samples)
    return TailEstimate(float(threshold), hits / samples, "mc", samples, lo, hi)


def planting_target(mu: float, t: float, k: int, alpha: float | None) -> tuple[int, float]:
    """(edges a planted witness must carry, lambda) for threshold mu + t.

    lambda = 4 / (1 - (1 - alpha)^k), with alpha = min(1, t / mu) by default;
    the target is ceil(min(lambda * t, mu + t)), or 0 when t <= 0.
    """
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
    hits = _tail_hits(h, _vp_draw(h.n, free, p, seed), threshold, samples, workers)
    factor = p**w_size
    lo, hi = wilson_interval(hits, samples)
    mu = h.num_edges * p**h.k
    target, lam = planting_target(mu, float(threshold) - mu, h.k, alpha)
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

    def draw(stream: int, count: int) -> np.ndarray:
        # Batched partial Fisher-Yates: row r's first m entries are its m-subset.
        rng = stream_generator(seed, stream)
        arr = np.tile(np.arange(h.n, dtype=np.int64), (count, 1))
        rows = np.arange(count)
        for i in range(m):
            j = rng.integers(i, h.n, size=count)
            picked = arr[rows, j]
            arr[rows, j] = arr[:, i]
            arr[:, i] = picked
        member = np.zeros((h.n, count), dtype=bool)
        member[arr[:, :m], rows[:, None]] = True
        return member

    hits = _tail_hits(h, draw, threshold, samples, workers)
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
    ecount = h.num_edges
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


def clean_config_point_lower(
    h: Hypergraph, p: float, m: int, disjoint_only: bool = True
) -> float:
    """Certified lower bound on Pr(X = m) from clean configurations.

    Sums Pr(the induced edge set equals C) over clean (by default vertex-
    disjoint) m-edge configurations C.  Every induced edge set is itself clean,
    since an edge inside its vertex union lies inside S, so for n <= 26 the sum
    is exactly Pr(X = m and the m induced edges are pairwise disjoint): Pr(X = m)
    when m <= 1 or disjoint_only is False, else column m of one subset pass
    keeping only the codes where every vertex has induced degree <= 1.  Above
    26 vertices each configuration contributes the closed-form product
    (1-p^k)^f0 (1-p^(k-1))^f1 (1-p)^f2 grouping outside edges by their overlap
    (0, 1, or in [2, k)) with it; only that path enumerates configurations, so
    CLEAN_COMBO_BUDGET binds only above 26 vertices.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if m < 0:
        raise ValueError("m must be nonnegative")
    if m > h.num_edges:
        return 0.0
    if h.n <= EXACT_VERTEX_BUDGET:
        if m <= 1 or not disjoint_only:
            return exact_point_mass(h, p, m)
        masks = h.edge_masks
        groups = [[masks[i] for i in inc] for inc in h.incidence]
        column = _subset_histogram(h.n, masks, groups=groups)[:, m]
        return min(max(size_weighted_sum(column, p), 0.0), 1.0)
    configs = enumerate_clean_configs(h, m)
    if disjoint_only:
        configs = [c for c in configs if c.vertex_bits.bit_count() == h.k * m]
    contributions = []
    for config in configs:
        base = p ** config.vertex_bits.bit_count()
        if base == 0.0:
            continue
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
            base * (1.0 - p**h.k) ** f0 * (1.0 - p ** (h.k - 1)) ** f1 * (1.0 - p) ** f2
        )
    return min(max(math.fsum(contributions), 0.0), 1.0)
