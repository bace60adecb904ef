"""Bounded-degree subhypergraphs, star matchings, and dyadic degree pruning.

All routines operate on the subhypergraph induced by a vertex set S.  Exact
searches raise CapacityError past a module budget rather than degrade
silently: XR_EDGE_BUDGET counts X_r's induced edges, MR_NODE_BUDGET the nodes
M_r's branch-and-bound visits.  Each search reads its budget when called.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

from .hypergraph import CapacityError, Hypergraph, VertexSet, induced_edges

__all__ = [
    "CascadeCheck",
    "CascadeLevel",
    "CascadeLevelCheck",
    "CascadeParams",
    "CascadeResult",
    "PruneResult",
    "Star",
    "StarMatching",
    "cascade_prune",
    "check_cascade_event",
    "degree_prune_on",
    "greedy_star_matching",
    "induced_max_degree",
    "mr_exact",
    "mr_exact_on",
    "xr_exact",
    "xr_exact_on",
    "xr_or_lower",
    "xr_or_lower_on",
]

XR_EDGE_BUDGET = 22
MR_NODE_BUDGET = 100_000


@dataclass(frozen=True)
class Star:
    """A center vertex together with ceil(r) distinct edges through it."""

    center: int
    edge_ids: tuple[int, ...]

    def __post_init__(self):
        if self.center < 0:
            raise ValueError("center must be a vertex id")
        if not self.edge_ids:
            raise ValueError("a star needs at least one edge")
        if any(a >= b for a, b in zip(self.edge_ids, self.edge_ids[1:])):
            raise ValueError("edge ids must be strictly increasing")


@dataclass(frozen=True)
class StarMatching:
    """Stars whose vertex sets are pairwise disjoint, all with the same number
    of edges; vertex_bits is the union of their vertex sets.  Built only by
    the greedy scan, which blocks each star's vertices as it takes it."""

    stars: tuple[Star, ...]
    vertex_bits: int

    @property
    def size(self) -> int:
        return len(self.stars)


def _check_radius(r: float) -> None:
    if not (math.isfinite(r) and r > 0):
        raise ValueError(f"r must be finite and positive, not {r}")


@dataclass(frozen=True)
class CascadeParams:
    """Dyadic cascade parameters; level j uses radius r_j = 2^j * r.

    The soft scale s = log(e / p^gamma) separates the two per-level
    matching thresholds.
    """

    beta: float
    gamma: float
    r: float
    t: float
    p: float

    def __post_init__(self):
        if not 0.0 < self.beta <= 1.0:
            raise ValueError("beta must lie in (0, 1]")
        if not 0.0 < self.gamma <= 0.125:
            raise ValueError("gamma must lie in (0, 1/8]")
        if not (math.isfinite(self.r) and math.isfinite(self.t) and self.r > 0 and self.t > 0):
            raise ValueError("r and t must be finite and positive")
        if not 0.0 < self.p < 1.0:
            raise ValueError("p must lie in (0, 1)")

    @property
    def s(self) -> float:
        return 1.0 + self.gamma * math.log(1.0 / self.p)

    def r_level(self, j: int) -> float:
        return math.ldexp(self.r, j)

    @property
    def level_count(self) -> int:
        """Smallest J >= 0 with r * 2^J >= sqrt(t)."""
        target = math.sqrt(self.t)
        j = 0
        while self.r_level(j) < target:
            j += 1
        return j


def _local_incidence(h: Hypergraph, edge_ids: tuple[int, ...]) -> dict[int, list[int]]:
    edges = h.edges
    inc: dict[int, list[int]] = {}
    for i in edge_ids:
        for v in edges[i]:
            inc.setdefault(v, []).append(i)
    return inc


def induced_max_degree(h: Hypergraph, edge_ids: tuple[int, ...]) -> int:
    """Maximum vertex degree of the subhypergraph formed by the given edge ids."""
    return int(np.bincount(h.edge_array.take(edge_ids, axis=0).ravel(), minlength=1).max())


def xr_exact(h: Hypergraph, s: VertexSet, r: float) -> int:
    """Maximum edges of a subhypergraph of H[S] with max degree <= r.

    Exhaustive branch-and-bound over the induced edges (see xr_exact_on);
    refuses instances with more than XR_EDGE_BUDGET induced edges, except
    that r < 1 admits no edge and gives 0 at any size.
    """
    return xr_exact_on(h, induced_edges(h, s), r)


def xr_exact_on(h: Hypergraph, ids: tuple[int, ...], r: float) -> int:
    """xr_exact over the given edge ids instead of H[S], with the same budget.

    Depth-first over the edges in order, taking each feasible edge before
    skipping it, so the first descent is the greedy pass.  A node prunes once
    count + (edges left) or potential // k cannot beat the best, where
    potential = sum over v of min(chosen[v] + left[v], floor(r)) and left[v]
    counts v among the undecided edges.  The potential is carried down as an
    argument: taking an edge leaves it unchanged, and skipping one lowers it
    by the number of the edge's vertices with chosen + left < floor(r) once
    the edge has left `left`.  One loop over the edge's vertices updates
    `left`, decides whether the edge fits and counts that drop; counting it
    before the take branch is safe, since that branch restores `chosen`.
    """
    _check_radius(r)
    cap = math.floor(r)
    if cap < 1 or not ids:
        return 0
    if len(ids) > XR_EDGE_BUDGET:
        raise CapacityError(f"{len(ids)} induced edges exceed budget {XR_EDGE_BUDGET}")
    vid = {v: loc for loc, v in enumerate(sorted({v for i in ids for v in h.edges[i]}))}
    local = [tuple(vid[v] for v in h.edges[i]) for i in ids]
    m = len(local)
    left = [0] * len(vid)
    for e in local:
        for v in e:
            left[v] += 1
    chosen = [0] * len(vid)
    k = h.k
    best = 0

    def dfs(idx: int, count: int, potential: int) -> None:
        nonlocal best
        if count > best:
            best = count
        if idx == m or count + (m - idx) <= best or potential // k <= best:
            return
        e = local[idx]
        fits = True
        drop = 0
        for v in e:
            left[v] -= 1
            if chosen[v] >= cap:
                fits = False
            elif chosen[v] + left[v] < cap:
                drop += 1
        if fits:
            for v in e:
                chosen[v] += 1
            dfs(idx + 1, count + 1, potential)
            for v in e:
                chosen[v] -= 1
        dfs(idx + 1, count, potential - drop)
        for v in e:
            left[v] += 1

    dfs(0, 0, sum(min(d, cap) for d in left))
    return best


def xr_or_lower(h: Hypergraph, s: VertexSet, r: float) -> tuple[int, bool]:
    """X_r when it is cheap, else a certified lower bound, with an exactness flag.

    Delta_1(H[S]) <= r forces X_r = e(H[S]); small instances, and r < 1
    (X_r = 0), go through the exhaustive search; beyond XR_EDGE_BUDGET
    induced edges the greedy pruned-edge count stands in (every pruned
    subgraph is feasible, so it never exceeds X_r).
    """
    return xr_or_lower_on(h, induced_edges(h, s), r)


def xr_or_lower_on(h: Hypergraph, ids: tuple[int, ...], r: float) -> tuple[int, bool]:
    """xr_or_lower over the given edge ids instead of H[S]."""
    _check_radius(r)
    if induced_max_degree(h, ids) <= r:
        return len(ids), True
    if r < 1 or len(ids) <= XR_EDGE_BUDGET:
        return xr_exact_on(h, ids, r), True
    return len(degree_prune_on(h, ids, r).kept_edge_ids), False


def _greedy_matching_on(h: Hypergraph, edge_ids: tuple[int, ...], r: float) -> StarMatching:
    c = math.ceil(r)
    masks = h.edge_masks
    inc = _local_incidence(h, edge_ids)
    blocked = 0
    stars = []
    for v in sorted(inc):
        if (blocked >> v) & 1:
            continue
        avail = [i for i in inc[v] if masks[i] & blocked == 0]
        if len(avail) >= c:
            stars.append(Star(v, tuple(avail[:c])))
            for i in avail[:c]:
                blocked |= masks[i]
    return StarMatching(tuple(stars), blocked)


def greedy_star_matching(h: Hypergraph, s: VertexSet, r: float) -> StarMatching:
    """Scan centers in increasing id order, taking the ceil(r) lowest-indexed
    unblocked induced edges at each eligible center and blocking their vertices.

    The result is maximal: afterwards no vertex has ceil(r) induced edges
    avoiding all blocked vertices.
    """
    _check_radius(r)
    return _greedy_matching_on(h, induced_edges(h, s), r)


@dataclass(frozen=True)
class PruneResult:
    """Greedy matching plus the induced edges avoiding its vertices."""

    matching: StarMatching
    kept_edge_ids: tuple[int, ...]


def degree_prune_on(h: Hypergraph, edge_ids: tuple[int, ...], r: float) -> PruneResult:
    """Remove every given edge meeting the greedy stars' vertices.

    The remainder has max degree <= ceil(r) - 1 <= r by maximality of the
    greedy matching; violated expectations raise.
    """
    _check_radius(r)
    matching = _greedy_matching_on(h, edge_ids, r)
    blocked = matching.vertex_bits
    kept = tuple(i for i in edge_ids if h.edge_masks[i] & blocked == 0)
    cap = math.ceil(r) - 1
    worst = induced_max_degree(h, kept)
    if worst > cap:
        raise AssertionError(f"pruned degree {worst} exceeds {cap}")
    return PruneResult(matching, kept)


@dataclass(frozen=True)
class CascadeLevel:
    j: int
    r_j: float
    matching_size: int
    removed: int
    kept: int
    delta1_before: int


@dataclass(frozen=True)
class CascadeResult:
    levels: tuple[CascadeLevel, ...]
    kept_edge_ids: tuple[int, ...]
    level_count: int


def cascade_prune(h: Hypergraph, edge_ids: tuple[int, ...], params: CascadeParams) -> CascadeResult:
    """Prune the given edge ids greedily at radii r_{J-1}, ..., r_0 (just r_0 when J = 0).

    The final edge set has max degree <= floor(r); per-level matching sizes
    are reported for the removal accounting.  H[S]'s ids are induced_edges(h, s).
    """
    current = edge_ids
    big_j = params.level_count
    levels = []
    for j in (range(big_j - 1, -1, -1) if big_j > 0 else [0]):
        r_j = params.r_level(j)
        result = degree_prune_on(h, current, r_j)
        kept = result.kept_edge_ids
        levels.append(
            CascadeLevel(
                j=j,
                r_j=r_j,
                matching_size=result.matching.size,
                removed=len(current) - len(kept),
                kept=len(kept),
                delta1_before=induced_max_degree(h, current),
            )
        )
        current = kept
    final_cap = math.floor(params.r)
    worst = induced_max_degree(h, current)
    if worst > final_cap:
        raise AssertionError(f"final degree {worst} exceeds floor(r) = {final_cap}")
    return CascadeResult(tuple(levels), current, big_j)


def mr_exact_on(h: Hypergraph, edge_ids: tuple[int, ...], r: float) -> int:
    """mr_exact over the given edge ids instead of H[S].

    Each node keeps the live centers: the later centers that are unblocked and
    still have ceil(r) edges avoiding the blocked vertices.  It branches on the
    first live center, taking each ceil(r)-set of its edges or dropping it as a
    center (its vertex stays free for later stars), and prunes once even
    min(#live, |union of live edges| // star width) more stars cannot beat
    the best.  The two halves of that minimum are tested in turn, and the
    union is built only when #live does not prune, so the search visits the
    same nodes as one that recounts the minimum.  Raises CapacityError past
    MR_NODE_BUDGET search nodes.
    """
    _check_radius(r)
    c = math.ceil(r)
    masks = h.edge_masks
    inc = _local_incidence(h, edge_ids)
    root = [(v, ids) for v, ids in sorted(inc.items()) if len(ids) >= c]
    if not root:
        return 0
    # A star of c distinct k-edges covers its center and at least m others,
    # the least m with C(m, k - 1) >= c.  That m is at most k + c - 2; the cap
    # also ends the loop for k = 1, where no vertex has two edges.  A root
    # center has c edges, so c <= e(H) bounds the loop.
    width = h.k
    while width < h.k + c - 1 and comb(width - 1, h.k - 1) < c:
        width += 1
    best = 0
    nodes = 0

    def dfs(live: list[tuple[int, list[int]]], count: int) -> None:
        # live: (center, its edges avoiding the blocked vertices), ascending.
        nonlocal best, nodes
        nodes += 1
        if nodes > MR_NODE_BUDGET:
            raise CapacityError(f"M_r search exceeds {MR_NODE_BUDGET} nodes")
        if count > best:
            best = count
        if count + len(live) <= best:
            return
        union = 0
        for _, ids in live:
            for i in ids:
                union |= masks[i]
        if count + union.bit_count() // width <= best:
            return
        (_, avail), rest = live[0], live[1:]
        for chosen in combinations(avail, c):
            bits = 0
            for i in chosen:
                bits |= masks[i]
            kept = []
            for u, ids in rest:
                if not (bits >> u) & 1:
                    free = [i for i in ids if not masks[i] & bits]
                    if len(free) >= c:
                        kept.append((u, free))
            dfs(kept, count + 1)
        # Drop the center as a center only: it can still be a leaf of a later star.
        dfs(rest, count)

    dfs(root, 0)
    return best


def mr_exact(h: Hypergraph, s: VertexSet, r: float) -> int:
    """Maximum number of vertex-disjoint stars of ceil(r) induced edges.

    Branch-and-bound over the centers in increasing order (see mr_exact_on);
    its first descent is the greedy matching.  Refuses, with CapacityError, a
    search that visits more than MR_NODE_BUDGET nodes.
    """
    return mr_exact_on(h, induced_edges(h, s), r)


@dataclass(frozen=True)
class CascadeLevelCheck:
    j: int
    r_j: float
    threshold: float
    matching_value: int
    exact: bool
    passed: bool | None


@dataclass(frozen=True)
class CascadeCheck:
    """verdict True/False, or None when a level was indeterminate."""

    verdict: bool | None
    levels: tuple[CascadeLevelCheck, ...]


def check_cascade_event(h: Hypergraph, s: VertexSet, params: CascadeParams) -> CascadeCheck:
    """Test the per-level matching thresholds on the sample S.

    Level j requires M_{r_j} < beta * sqrt(t) * s / r_j while r_j < sqrt(t)/s
    and M_{r_j} < beta * sqrt(t) / r_j afterwards.  The greedy matching is a
    lower bound for M, so a greedy violation falsifies outright; a greedy pass
    whose exact search visits more than MR_NODE_BUDGET nodes leaves that level
    indeterminate.  The scan stops once r_j > max(2 sqrt(t), Delta_1(H[S])),
    beyond which M = 0.
    """
    ids = induced_edges(h, s)
    delta1 = induced_max_degree(h, ids)
    sqrt_t = math.sqrt(params.t)
    scan_cap = max(2.0 * sqrt_t, float(delta1))
    levels = []
    saw_indeterminate = False
    j = 0
    while True:
        r_j = params.r_level(j)
        if r_j > scan_cap:
            break
        if r_j < sqrt_t / params.s:
            threshold = params.beta * sqrt_t * params.s / r_j
        else:
            threshold = params.beta * sqrt_t / r_j
        greedy_size = _greedy_matching_on(h, ids, r_j).size
        if greedy_size >= threshold:
            levels.append(CascadeLevelCheck(j, r_j, threshold, greedy_size, False, False))
            return CascadeCheck(False, tuple(levels))
        try:
            exact_val = mr_exact_on(h, ids, r_j)
        except CapacityError:
            levels.append(CascadeLevelCheck(j, r_j, threshold, greedy_size, False, None))
            saw_indeterminate = True
        else:
            passed = exact_val < threshold
            levels.append(CascadeLevelCheck(j, r_j, threshold, exact_val, True, passed))
            if not passed:
                return CascadeCheck(False, tuple(levels))
        j += 1
    return CascadeCheck(None if saw_indeterminate else True, tuple(levels))
