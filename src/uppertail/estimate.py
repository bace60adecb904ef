"""Tail and point-probability estimators for induced edge counts.

Exact enumeration aggregates a p-free integer (vertex count, edge count)
histogram, and every exact probability is one clamped compensated sum over
its columns (histogram_tail, histogram_point_mass).  Nothing is cached: a
caller evaluating many probabilities on one graph holds the histogram, and
exact_tail / exact_point_mass enumerate once per call.  The enumeration walks
the 2^n codes in blocks of 2^LOW_BITS; edges inside the low LOW_BITS vertices
are counted once per histogram, and only the edges reaching above them once
per block.  Counting M edges over a block is one superset-sum (zeta)
transform along whole rows: M * 2^(LOW_BITS/2) indicator entries plus
LOW_BITS/2 contiguous half-block adds, whatever the edges' vertices.  A block
then bincounts its codes SLICE at a time, each slice's keys added into one
reused intp buffer: its working set is its counts (1 MB below 256 edges) and
that 512 KB buffer, beside the 4 MB of int32 row offsets every block shares.
Monte Carlo variants share chunked Philox streams and merge by summing the
integer sample histogram counts[x] (the number of samples inducing exactly x
edges).  Both passes hand their items, blocks of codes or chunks of samples,
to uppertail.workers.spread, which runs them in forked processes at
--workers > 1 and returns their integer counts in item order, so every worker
count gives the same bytes.  The histogram is threshold-free, so a caller
evaluating many thresholds holds one pass (a SampleHistogram) and reads each
from it.  The three samplers differ only in which uppertail.rng draw fills a
chunk's vertex sets (p_subset_members or m_subset_members); one bit-packed
kernel counts their induced edges.  It packs a chunk's samples 64 to a uint64
word, gathers and ANDs the member rows of EDGE_BLOCK edges at a time, and
sums the hits with a bit-sliced adder that folds them in place, into buffers
made once per chunk, so a forked worker does not map and trim fresh heap
blocks at every step.  A worker's working set is one chunk's draw (CHUNK * n
bytes, plus a CHUNK * n int32 table for the conditioned sampler) and two row
buffers of CHUNK * EDGE_BLOCK bits (512 KB each) plus smaller ones,
independent of e(H): 3.5 MB per chunk at n = 300, 6 MB with the conditioned
table.  Each pass checks those 5 * CHUNK * n bytes against
SAMPLER_BYTE_BUDGET before it builds anything per vertex.  The conditioned
estimator's exact binomial factor Pr(Bin(n, p) >= m) is
scipy.special.betainc, the regularized incomplete beta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.special import betainc

from .hypergraph import CapacityError, Hypergraph, VertexSet, check_count, check_finite
from .hypergraph import check_probability, check_threshold
from .rng import CHUNK, chunk_layout, m_subset_members, p_subset_members, stream_generator
from .workers import spread

__all__ = [
    "METHODS",
    "SampleHistogram",
    "TailEstimate",
    "Z99",
    "clean_config_histogram",
    "conditioned_histogram",
    "conditioned_size",
    "conditioned_tail",
    "edge_count_histogram",
    "exact_point_mass",
    "exact_tail",
    "histogram_point_mass",
    "histogram_tail",
    "mc_histogram",
    "mc_tail",
    "planted_histogram",
    "planted_tail",
    "planting_target",
    "size_weighted_sum",
    "wilson_interval",
]

EXACT_VERTEX_BUDGET = 26
SAMPLER_BYTE_BUDGET = 1 << 28  # one chunk's membership plus the conditioned draw's int32 table
LOW_BITS = 20  # vertices enumerated inside one block of codes
SLICE = 1 << 16  # codes per bincount, a power of two: one 512 KB intp key buffer
EDGE_BLOCK = 1024  # edges gathered and ANDed per sampling-kernel step

METHODS = ("exact", "mc", "planted", "conditioned")

Z99 = 2.5758293035489004  # two-sided 99% normal quantile


def wilson_interval(hits: int, total: int) -> tuple[float, float]:
    """Wilson score interval at the nominal 99% two-sided level (z = Z99); its
    ends are exactly 0 at hits == 0 and 1 at hits == total, where center -/+
    half would leave a rounding residue of about 3e-18."""
    if total <= 0:
        raise ValueError("total must be positive")
    if not 0 <= hits <= total:
        raise ValueError("hits must lie in [0, total]")
    p_hat = hits / total
    z2 = Z99 * Z99
    denom = 1.0 + z2 / total
    center = p_hat + z2 / (2.0 * total)
    half = Z99 * math.sqrt(p_hat * (1.0 - p_hat) / total + z2 / (4.0 * total * total))
    lo = 0.0 if hits == 0 else max(0.0, (center - half) / denom)
    hi = 1.0 if hits == total else min(1.0, (center + half) / denom)
    return lo, hi


@dataclass(frozen=True)
class TailEstimate:
    """Estimate of Pr(X >= threshold) with a nominal 99% two-sided Wilson interval.

    The exact method reports ci_low == p_hat == ci_high; scaled Monte Carlo
    variants scale the interval by their certified factor.  For the planted
    and conditioned methods ci_low is the lower-bound column, but Wilson's
    one-sided coverage falls short near one or two hits: on Schur(12) with
    p = 0.3, m = 11, threshold 25 and 1 sample, ci_low exceeds the truth with
    probability 8.3% (ROADMAP item 1).  p_hat only estimates a lower quantity
    and can exceed the truth at small sample counts.  `extra` carries
    method-specific metadata and never affects comparisons or hashing.
    """

    threshold: float
    p_hat: float
    method: str
    samples: int
    ci_low: float
    ci_high: float
    extra: dict | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}")
        if self.samples < 0:
            raise ValueError("samples must be nonnegative")
        # Relative slack: an absolute one would pass any inverted interval on
        # tails below it, and planted / conditioned tails reach 1e-26.
        if not (
            0.0 <= self.ci_low <= self.p_hat * (1.0 + 1e-12)
            and self.p_hat <= self.ci_high * (1.0 + 1e-12)
            and self.ci_high <= 1.0 + 1e-12
        ):
            raise ValueError("interval must satisfy 0 <= ci_low <= p_hat <= ci_high <= 1")


def _superset_counts(masks: Sequence[int], low: int, high: int) -> np.ndarray:
    """counts[c] = number of masks inside code (high << low) | c, for one block.

    Yates's superset-sum (zeta) transform, run along whole rows: code c splits
    into its inner h1 = low // 2 bits c1 and outer h2 = low - h1 bits c2, and
    a mask with low parts (m1, m2) lies in c exactly when m1 is in c1 and m2
    in c2.  Each mask reaching no bit above `low` outside `high` adds its
    2^h1-entry indicator row [m1 in c1] into row m2 of a (2^h2, 2^h1) array;
    h2 in-place passes then fold row T2 into every row containing it, each one
    contiguous half-block add.  A block costs M * 2^h1 indicator entries plus
    h2 * 2^(low-1) adds for M such masks, whatever their low bits, and
    nothing beyond a zeroed result when M = 0.  Every
    partial sum counts distinct masks, so the result's dtype holds them all.
    """
    h1 = low // 2
    h2 = low - h1
    dtype = np.min_scalar_type(len(masks))
    kept = [m for m in masks if (m >> low) & ~high == 0]
    if not kept:
        return np.zeros(1 << low, dtype=dtype)
    parts = np.array(kept, dtype=np.int64) & ((1 << low) - 1)
    inner = parts & ((1 << h1) - 1)
    cols = np.arange(1 << h1)
    rows = (cols & inner[:, None]) == inner[:, None]
    counts = np.zeros((1 << h2, 1 << h1), dtype=dtype)
    # Row m2 starts at flat index m2 << h1 == parts - inner; np.add.at takes
    # its fast path on flat indices, not on (row, column) pairs.
    cells = ((parts - inner)[:, None] | cols).reshape(-1)
    np.add.at(counts.reshape(-1), cells, rows.astype(dtype).reshape(-1))
    for i in range(h2):
        v = counts.reshape(1 << (h2 - 1 - i), 2, (1 << i) << h1)
        v[:, 1] += v[:, 0]
    return counts.reshape(-1)


def _subset_histogram(
    n: int, masks: Sequence[int], workers: int = 1, groups: Sequence[Sequence[int]] = ()
) -> np.ndarray:
    """Read-only hist[j, x] = number of j-subsets of range(n) containing exactly
    x masks (n <= EXACT_VERTEX_BUDGET, else CapacityError).

    Block `high` holds the 2^low codes (high << low) | c.  A mask below bit
    `low` lies in code (high << low) | c exactly when it lies in c, so these
    inside masks are counted once, into the read-only row offsets every block
    shares; each block adds only the masks reaching above bit `low` ("across"
    masks) before its bincount.  Each count is one _superset_counts call:
    M * 2^(low // 2) indicator entries plus low - low // 2 contiguous adds of
    2^(low-1) entries for M masks, so the hoist saves the inside masks' rows
    in every block but one.  The row offsets, subset size times row width
    plus the inside counts, are the pass's one 2^low-entry int32 array (4 MB);
    the sizes are filled by doubling in uint8.

    A block's working set is its across counts (2^low entries of the
    smallest dtype that holds M: 1 MB for M < 256) and one intp key buffer of
    SLICE codes (512 KB).  Each slice of offsets plus counts is added into
    that buffer and bincounted there, so bincount makes no cast copy and no
    block makes a 2^low-entry int32 or intp array.  Blocks are counted
    independently, in forked workers at workers > 1 (uppertail.workers.spread;
    a worker reads the row offsets the caller built before the fork), and
    their integer histograms are summed in block order, so every worker count
    agrees.  With groups, a code counts only if it contains at most one mask
    of every group, and each slice bincounts only its kept keys.  The keep
    mask stays per block, since hoisting it would hold one 2^low count array
    per group, i.e. per vertex (26 MB at n = 26).
    """
    if n > EXACT_VERTEX_BUDGET:
        raise CapacityError(f"{n} vertices exceed budget {EXACT_VERTEX_BUDGET}")
    low = min(n, LOW_BITS)
    width = len(masks) + 1
    sizes = np.zeros(1 << low, dtype=np.uint8)
    for i in range(low):
        np.add(sizes[: 1 << i], 1, out=sizes[1 << i : 2 << i])
    row_starts = np.multiply(sizes, width, dtype=np.int32)
    row_starts += _superset_counts([m for m in masks if m >> low == 0], low, 0)
    across = [m for m in masks if m >> low]
    row_starts.setflags(write=False)
    groups = [g for g in groups if len(g) > 1]
    bins = (low + 1) * width

    def block(high: int) -> np.ndarray:
        counts = _superset_counts(across, low, high)
        keep = None
        if groups:
            keep = np.ones(1 << low, dtype=bool)
            for g in groups:
                keep &= _superset_counts(g, low, high) <= 1
        step = min(SLICE, 1 << low)
        keys = np.empty(step, dtype=np.intp)
        out = np.zeros(bins, dtype=np.intp)
        for start in range(0, 1 << low, step):
            s = slice(start, start + step)
            np.add(row_starts[s], counts[s], out=keys)
            out += np.bincount(keys if keep is None else keys[keep[s]], minlength=bins)
        return out.reshape(low + 1, width)

    parts = spread(block, 1 << (n - low), workers)
    hist = np.zeros((n + 1, width), dtype=np.int64)
    for high, part in enumerate(parts):
        offset = high.bit_count()
        hist[offset : offset + low + 1] += part
    hist.setflags(write=False)
    return hist


def edge_count_histogram(h: Hypergraph, workers: int = 1) -> np.ndarray:
    """counts[j, x] = number of vertex subsets of size j inducing exactly x edges.

    Enumerates all 2^n subsets (n <= 26) in blocks of 2^LOW_BITS codes on every
    call and returns the read-only counts.  They do not depend on p, so a
    caller evaluating many probabilities on one graph holds them and reads
    each through histogram_tail or histogram_point_mass.
    """
    return _subset_histogram(h.n, h.edge_masks, workers)


def size_weighted_sum(counts: Sequence[int], p: float) -> float:
    """fsum of counts[j] p^j (1-p)^(n-j), n = len(counts) - 1: the p-weight of
    counts[j] subsets of size j each, unclamped so moments can use it too."""
    check_probability(p)  # every exact read weighs through here
    n = len(counts) - 1
    return math.fsum(
        c * (p**j * (1.0 - p) ** (n - j)) for j, c in enumerate(np.asarray(counts).tolist()) if c
    )


def _column_weight(hist: np.ndarray, p: float, cols: np.ndarray) -> float:
    """The p-weight of the subsets counted in hist's selected columns, clamped to [0, 1]."""
    return min(max(size_weighted_sum(hist[:, cols].sum(axis=1), p), 0.0), 1.0)


def _float_threshold(threshold: float) -> float:
    """threshold as a TailEstimate holds it.  The tail entry points call this
    before any enumeration or draw, so NaN or an int past the float range
    fails at once, not after the pass."""
    check_threshold(threshold=threshold)
    try:
        return float(threshold)
    except OverflowError:
        raise ValueError("threshold lies outside the float range") from None


def histogram_tail(hist: np.ndarray, p: float, threshold: float) -> float:
    """Pr(X >= threshold) from hist[j, x] = number of j-subsets with X = x,
    such as edge_count_histogram(h)."""
    check_threshold(threshold=threshold)
    return _column_weight(hist, p, np.arange(hist.shape[1]) >= threshold)


def histogram_point_mass(hist: np.ndarray, p: float, m: int) -> float:
    """Pr(X = m) from hist[j, x] = number of j-subsets with X = x (0 for m
    outside the columns)."""
    check_threshold(m=m)
    return _column_weight(hist, p, np.arange(hist.shape[1]) == m)


def exact_tail(h: Hypergraph, p: float, threshold: float, workers: int = 1) -> TailEstimate:
    """Exact Pr(X >= threshold) by one complete subset enumeration (n <= 26)."""
    thr = _float_threshold(threshold)  # the threshold, then p, fail before the 2^n pass
    check_probability(p)
    p_hat = histogram_tail(edge_count_histogram(h, workers), p, threshold)
    return TailEstimate(thr, p_hat, "exact", 1 << h.n, p_hat, p_hat)


def exact_point_mass(h: Hypergraph, p: float, m: int, workers: int = 1) -> float:
    """Exact Pr(X = m) by one complete subset enumeration (n <= 26)."""
    check_threshold(m=m)  # m, then p, fail before the 2^n pass
    check_probability(p)
    return histogram_point_mass(edge_count_histogram(h, workers), p, m)


def _add_planes(
    x: list[np.ndarray], y: list[np.ndarray], carry: np.ndarray, tmp: np.ndarray
) -> None:
    """Bit-sliced x += y in place, over equal-shape uint64 planes.

    x and y are lists of bit planes, least significant first: bit b of word w
    of plane i is bit i of number 64 w + b.  y may have fewer planes than x
    and is overwritten.  The carry out of x's top plane is left in `carry`
    when y has as many planes as x and dropped otherwise, so a sum known to
    fit passes just the planes it needs.  Every ufunc call writes into x, y,
    carry or tmp: nothing is allocated.
    """
    for i, a in enumerate(x):
        if i < len(y):
            b = y[i]
            if i == 0:
                np.bitwise_and(a, b, out=carry)
                np.bitwise_xor(a, b, out=a)
            else:
                np.bitwise_xor(a, b, out=tmp)
                np.bitwise_and(a, b, out=b)
                np.bitwise_xor(tmp, carry, out=a)
                np.bitwise_and(tmp, carry, out=tmp)
                np.bitwise_or(b, tmp, out=carry)
        else:
            np.bitwise_and(a, carry, out=tmp)
            np.bitwise_xor(a, carry, out=a)
            carry, tmp = tmp, carry


def _induced_totals(edges: np.ndarray, member: np.ndarray) -> np.ndarray:
    """totals[s] = number of rows of the (e, k) `edges` inside column s of the
    n x count boolean membership matrix.

    The columns are packed 64 to a uint64 word.  For each block of EDGE_BLOCK
    edges, the k member rows of every edge are gathered and ANDed into one hit
    row, and the block is padded with zero rows to a power of two >= 64.  A
    bit-sliced adder folds the hit rows in place, adding the upper half of
    every plane into its lower half, down to 64 rows, and adds them into
    running 64-row bit planes capped at the bound's bit length.  Stopping at
    64 rows keeps the numpy calls per block few and large.  Every buffer is
    made once per chunk and written with out=, so the block loop allocates
    nothing: each fold level's new top plane goes into rows half to height of
    the gathered-column buffer, idle during the fold.  The planes are
    unpacked once per chunk.
    """
    n, count = member.shape
    words = -(-count // 64)
    packed = np.zeros((n, 8 * words), dtype=np.uint8)
    packed[:, : -(-count // 8)] = np.packbits(member, axis=1, bitorder="little")
    packed = packed.view(np.uint64)
    rows = max(64, 1 << (min(EDGE_BLOCK, len(edges)) - 1).bit_length())
    blocks = -(-len(edges) // EDGE_BLOCK)
    index = np.empty((edges.shape[1], rows), dtype=np.intp)
    hit = np.zeros((rows, words), dtype=np.uint64)
    col = np.empty((rows, words), dtype=np.uint64)
    carry = np.empty((64, words), dtype=np.uint64)
    tmp = np.empty((max(64, rows // 2), words), dtype=np.uint64)
    # Each block adds at most rows / 64 to every number in the running planes.
    running = list(np.zeros(((blocks * (rows // 64)).bit_length(), 64, words), dtype=np.uint64))
    bound = 0  # every number in the running planes is at most bound
    for start in range(0, len(edges), EDGE_BLOCK):
        size = min(EDGE_BLOCK, len(edges) - start)
        np.copyto(index[:, :size], edges[start : start + size].T)
        np.take(packed, index[0, :size], axis=0, out=hit[:size], mode="clip")
        for cols in index[1:, :size]:
            np.take(packed, cols, axis=0, out=col[:size], mode="clip")
            np.bitwise_and(hit[:size], col[:size], out=hit[:size])
        hit[size:] = 0  # a short last block must not count the rows before it
        planes, height = [hit], rows
        while height > 64:
            half = height // 2
            lower, top = [p[:half] for p in planes], col[half:height]
            _add_planes(lower, [p[half:height] for p in planes], top, tmp[:half])
            planes, height = lower + [top], half
        bound += rows // 64
        _add_planes(running[: bound.bit_length()], planes, carry, tmp[:64])
    totals = np.zeros(count, dtype=np.int64)
    for i, plane in enumerate(running):
        bits = np.unpackbits(plane.view(np.uint8), axis=1, count=count, bitorder="little")
        # 64 rows of one bit sum to at most 64, so uint8 holds the row sums.
        totals += bits.sum(axis=0, dtype=np.uint8).astype(np.int64) << i
    return totals


def _check_samples(n: int, samples: int) -> None:
    """Refuse a sample count that is not a positive integer, then a pass whose
    chunk of samples over n vertices exceeds SAMPLER_BYTE_BUDGET."""
    check_count(samples=samples)
    if samples <= 0:
        raise ValueError("samples must be positive")
    need = 5 * min(samples, CHUNK) * n
    if need > SAMPLER_BYTE_BUDGET:
        raise CapacityError(f"a chunk needs {need} bytes, over budget {SAMPLER_BYTE_BUDGET}")


def _sample_histogram(h: Hypergraph, seed: int, draw, samples: int, workers: int) -> np.ndarray:
    """Read-only counts[x] = number of samples inducing exactly x edges of h.

    draw(gen, count) returns a chunk's n x count boolean membership matrix
    from the chunk's generator stream_generator(seed, stream), and
    _induced_totals counts each sample's edges in it.  A chunk's working set
    is O(count * n) bytes for the draw plus O(count * EDGE_BLOCK) bits for the
    kernel, whatever e(H) is.  Each chunk contributes the bincount of its
    totals; chunks run in forked workers at workers > 1
    (uppertail.workers.spread), and their integer counts add up the same in
    any order.
    """
    edges = h.edge_array
    layout = list(chunk_layout(samples))

    def chunk(i: int) -> np.ndarray:
        stream, count = layout[i]
        member = draw(stream_generator(seed, stream), count)
        return np.bincount(_induced_totals(edges, member))

    parts = spread(chunk, len(layout), workers)
    counts = np.zeros(max(map(len, parts), default=0), dtype=np.int64)
    for part in parts:
        counts[: len(part)] += part
    counts.setflags(write=False)
    return counts


def _scaled_tail(
    threshold: float, method: str, hits: int, samples: int, factor: float, extra: dict | None
) -> TailEstimate:
    """hits / samples and its Wilson interval, each multiplied by factor."""
    lo, hi = wilson_interval(hits, samples)
    p_hat = factor * (hits / samples)
    return TailEstimate(threshold, p_hat, method, samples, factor * lo, factor * hi, extra)


@dataclass(frozen=True, eq=False)
class SampleHistogram:
    """One sampling pass of a Monte Carlo method, read at any threshold.

    counts[x] is the read-only number of samples inducing exactly x edges.
    It depends on the draw (p, seed, sample count, and the forced set or m),
    not on a threshold, so a caller evaluating many thresholds holds one pass
    and reads each through tail().  factor scales every estimate: 1 for mc,
    p^|W| for planted, Pr(Bin(n, p) >= m) for conditioned.  extra is the
    method's metadata, to which tail() adds the threshold's conditional_hits.
    """

    method: str
    counts: np.ndarray
    factor: float = 1.0
    extra: dict | None = None

    def hits(self, threshold: float) -> int:
        """Number of samples inducing at least `threshold` edges."""
        check_threshold(threshold=threshold)
        return int(self.counts[np.arange(len(self.counts)) >= threshold].sum())

    def tail(self, threshold: float) -> TailEstimate:
        """The method's estimate of Pr(X >= threshold) from this pass."""
        thr = _float_threshold(threshold)
        hits = self.hits(threshold)
        extra = None if self.extra is None else {**self.extra, "conditional_hits": hits}
        samples = int(self.counts.sum())
        return _scaled_tail(thr, self.method, hits, samples, self.factor, extra)


def mc_histogram(
    h: Hypergraph, p: float, samples: int, seed: int, workers: int = 1
) -> SampleHistogram:
    """mc_tail's sampling pass: independent p-samples of vertices, which is
    planted_histogram's pass with no vertex forced (same draws, factor 1)."""
    return SampleHistogram("mc", planted_histogram(h, p, samples, seed, VertexSet(h.n), workers).counts)


def mc_tail(
    h: Hypergraph, p: float, threshold: float, samples: int, seed: int, workers: int = 1
) -> TailEstimate:
    """Monte Carlo Pr(X >= threshold) over independent p-samples of vertices."""
    _float_threshold(threshold)
    return mc_histogram(h, p, samples, seed, workers).tail(threshold)


def planting_target(mu: float, t: float, k: int, alpha: float | None) -> int:
    """Edges a planted witness must carry for threshold mu + t.

    The target is ceil(min(lambda * t, mu + t)), or 0 when t <= 0, with
    lambda = 4 / (1 - (1 - alpha)^k) and alpha = min(1, t / mu) by default.
    """
    check_finite(mu=mu, t=t)
    if alpha is None:
        alpha = min(1.0, t / mu) if mu > 0 and t > 0 else 1.0
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    denom = 1.0 - (1.0 - alpha) ** k
    if denom == 0.0:  # (1 - alpha)^k rounded to 1; only then the log1p form
        denom = -math.expm1(k * math.log1p(-alpha))
    lam = 4.0 / denom
    target = min(lam * t, mu + t) if t > 0 else 0.0
    return math.ceil(target)


def planted_histogram(
    h: Hypergraph, p: float, samples: int, seed: int, forced: VertexSet, workers: int = 1
) -> SampleHistogram:
    """planted_tail's sampling pass: p-samples of the vertices outside the
    forced set W, with every vertex of W in.  Any W will do; only the closed
    form lb_cluster_bound needs W's certificate (a families.Witness)."""
    check_probability(p)
    if forced.n != h.n:
        raise ValueError("forced set lives on a different vertex set")
    _check_samples(h.n, samples)
    w_size = len(forced)
    free = [v for v in range(h.n) if not (forced.bits >> v) & 1]
    counts = _sample_histogram(
        h, seed, lambda gen, count: p_subset_members(gen, h.n, free, p, count), samples, workers
    )
    factor = p**w_size
    return SampleHistogram("planted", counts, factor, {"witness_size": w_size, "factor": factor})


def planted_tail(
    h: Hypergraph,
    p: float,
    threshold: float,
    samples: int,
    seed: int,
    forced: VertexSet,
    workers: int = 1,
) -> TailEstimate:
    """Lower-bound estimate p^|W| * Pr(X >= threshold | W kept) for the forced set W.

    The vertices of W are forced into every sample; only the conditional
    frequency is estimated, and the Wilson interval is scaled by p^|W|.
    Since p^|W| * Pr(X >= threshold | W kept) <= Pr(X >= threshold) for every
    W, ci_low is a lower bound whenever the interval covers (see TailEstimate
    for how often it does not); p_hat is not, and can exceed the true tail.
    With W empty this is exactly mc_tail.
    """
    _float_threshold(threshold)
    return planted_histogram(h, p, samples, seed, forced, workers).tail(threshold)


def conditioned_size(n: int, p: float, eps: float) -> int | float:
    """The conditioned estimator's vertex count m = ceil((1+eps) n p), taking
    (1+eps) n p within 1e-9 of an integer as that integer.  A product that
    overflows a float gives m = inf, which exceeds every n."""
    check_finite(eps=eps)
    check_probability(p)
    raw = (1.0 + eps) * n * p
    if math.isinf(raw):
        return raw
    return round(raw) if abs(raw - round(raw)) < 1e-9 else math.ceil(raw)


def conditioned_histogram(
    h: Hypergraph, p: float, samples: int, seed: int, eps: float = 0.0, workers: int = 1
) -> SampleHistogram:
    """conditioned_tail's sampling pass: uniform m-subsets of the vertices,
    m = conditioned_size(n, p, eps)."""
    check_probability(p)
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    m = conditioned_size(h.n, p, eps)
    if m > h.n:
        raise ValueError(f"m = {m} exceeds the {h.n} available vertices")
    _check_samples(h.n, samples)
    counts = _sample_histogram(
        h, seed, lambda gen, count: m_subset_members(gen, h.n, m, count), samples, workers
    )
    # Pr(Bin(n, p) >= m) as the regularized incomplete beta I_p(m, n - m + 1).
    factor = 1.0 if m <= 0 else float(betainc(m, h.n - m + 1, p))
    return SampleHistogram("conditioned", counts, factor, {"m": m, "binomial_factor": factor})


def conditioned_tail(
    h: Hypergraph,
    p: float,
    threshold: float,
    samples: int,
    seed: int,
    eps: float = 0.0,
    workers: int = 1,
) -> TailEstimate:
    """Lower-bound estimate Pr_m(X >= threshold) * Pr(Bin(n, p) >= m).

    m = conditioned_size(n, p, eps) is the slightly supercritical vertex
    count; the first factor is estimated on uniform m-subsets, the second is
    the exact binomial tail.  The product lies below the true tail because
    Pr_j(X >= threshold) is nondecreasing in j, so ci_low is a lower bound
    whenever the interval covers (see TailEstimate for how often it does not);
    p_hat is not, and can exceed the true tail.
    """
    _float_threshold(threshold)
    return conditioned_histogram(h, p, samples, seed, eps, workers).tail(threshold)


def clean_config_histogram(h: Hypergraph) -> np.ndarray:
    """counts[j, x] = number of j-subsets inducing exactly x edges, all pairwise
    vertex-disjoint (n <= 26): edge_count_histogram restricted to the codes in
    which every vertex has induced degree <= 1.  Columns 0 and 1 equal the
    unrestricted ones.  Read-only and p-free, like edge_count_histogram; read
    by histogram_point_mass, column m is the clean-configuration lower bound
    Pr(X = m and the m induced edges are pairwise disjoint).
    """
    masks = h.edge_masks
    return _subset_histogram(h.n, masks, groups=[[masks[i] for i in inc] for inc in h.incidence])

