"""Naive reference implementations used to cross-check the library.

Everything here favors obviousness over speed: plain Python loops,
exhaustive enumeration, and the simpler numpy paths that faster kernels
replaced, sharing no code with the package under test.  Vertices are
0-based; edges are sorted tuples.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from itertools import combinations

import numpy as np


# ------------------------------------------------------------- families


def ap_edges(n: int, k: int) -> list[tuple[int, ...]]:
    """k-term arithmetic progressions inside {1..n}, as 0-based sorted tuples."""
    found = set()
    for a in range(1, n + 1):
        for d in range(1, n):
            terms = [a + i * d for i in range(k)]
            if terms[-1] <= n:
                found.add(tuple(sorted(v - 1 for v in terms)))
    return sorted(found)


def schur_edges(n: int) -> list[tuple[int, ...]]:
    """Triples {x, y, x+y} with x < y and x + y <= n, 0-based."""
    found = set()
    for x in range(1, n + 1):
        for y in range(x + 1, n + 1):
            if x + y <= n:
                found.add(tuple(sorted((x - 1, y - 1, x + y - 1))))
    return sorted(found)


def ell_sum_edges(n: int, ell: int) -> list[tuple[int, ...]]:
    """Distinct triples {x, y, z} in {1..n} with x + y = ell * z, 0-based."""
    found = set()
    for x in range(1, n + 1):
        for y in range(1, n + 1):
            if x == y:
                continue
            s = x + y
            if s % ell:
                continue
            z = s // ell
            if 1 <= z <= n and z != x and z != y:
                found.add(tuple(sorted((x - 1, y - 1, z - 1))))
    return sorted(found)


def loop_ap_edges(n: int, k: int) -> list[tuple[int, ...]]:
    """k-APs by an (a, d) loop, in generation order (the first list builder)."""
    edges = []
    for d in range(1, (n - 1) // (k - 1) + 1 if n >= 1 else 0):
        for a in range(1, n - (k - 1) * d + 1):
            edges.append(tuple(a - 1 + i * d for i in range(k)))
    return edges


def loop_schur_edges(n: int) -> list[tuple[int, ...]]:
    edges = []
    for x in range(1, n // 2 + 1):
        for y in range(x + 1, n - x + 1):
            edges.append((x - 1, y - 1, x + y - 1))
    return edges


def loop_ell_sum_edges(n: int, ell: int) -> list[tuple[int, ...]]:
    edges = set()
    for z in range(1, n + 1):
        s = ell * z
        for x in range(max(1, s - n), (s - 1) // 2 + 1):
            y = s - x
            if z != x and z != y:
                edges.add(tuple(sorted((x - 1, y - 1, z - 1))))
    return list(edges)


# ------------------------------------------------------ canonical edge views


def canonical_edges(k: int, n: int, edges) -> tuple[tuple[int, ...], ...]:
    """Sorted tuples of sorted edges, duplicates dropped; ValueError on a bad edge."""
    seen = set()
    for edge in edges:
        tup = tuple(sorted(int(v) for v in edge))
        if len(tup) != k:
            raise ValueError(f"edge {tup} does not have exactly {k} vertices")
        if any(a == b for a, b in zip(tup, tup[1:])):
            raise ValueError(f"edge {tup} repeats a vertex")
        if tup[0] < 0 or tup[-1] >= n:
            raise ValueError(f"edge {tup} leaves range({n})")
        seen.add(tup)
    return tuple(sorted(seen))


def incidence_lists(n: int, edges) -> tuple[tuple[int, ...], ...]:
    """Ascending ids of the edges through each vertex."""
    incidence = [[] for _ in range(n)]
    for idx, edge in enumerate(edges):
        for v in edge:
            incidence[v].append(idx)
    return tuple(tuple(ids) for ids in incidence)


def codegree_variance(edges: list[tuple[int, ...]], k: int, p: float) -> float:
    """Var X from Counter codegrees, term for term as the first formula had it."""
    return math.fsum(
        p ** (2 * k - j) * (1.0 - p) ** j
        * sum(c * c for c in Counter(t for e in edges for t in combinations(e, j)).values())
        for j in range(1, k + 1)
    )


# ------------------------------------------------- induced-count probability


def edge_bitmasks(edges: list[tuple[int, ...]]) -> list[int]:
    return [sum(1 << v for v in e) for e in edges]


def induced_edge_sets(edges: list[tuple[int, ...]], n: int) -> tuple[list[tuple[int, ...]], list[int]]:
    """The distinct induced edge-id sets over all 2^n subset codes, in order of
    first appearance, and index[code] = the position of code's set among them,
    walking the codes one at a time."""
    masks = edge_bitmasks(edges)
    position: dict[tuple[int, ...], int] = {}
    index = [
        position.setdefault(
            tuple(i for i, mask in enumerate(masks) if code & mask == mask), len(position)
        )
        for code in range(1 << n)
    ]
    return list(position), index


def size_value_histogram(edges: list[tuple[int, ...]], n: int) -> dict[tuple[int, int], int]:
    """counts[(|S|, X(S))] over all 2^n subsets, via bitmask subset tests."""
    masks = edge_bitmasks(edges)
    hist: dict[tuple[int, int], int] = {}
    for bits in range(1 << n):
        x = 0
        for m in masks:
            if bits & m == m:
                x += 1
        key = (bin(bits).count("1"), x)
        hist[key] = hist.get(key, 0) + 1
    return hist


def clean_size_value_histogram(edges: list[tuple[int, ...]], n: int) -> dict[tuple[int, int], int]:
    """counts[(|S|, X(S))] over the subsets S whose induced edges are pairwise
    vertex-disjoint, via bitmask subset tests."""
    masks = edge_bitmasks(edges)
    hist: dict[tuple[int, int], int] = {}
    for bits in range(1 << n):
        inside = [m for m in masks if bits & m == m]
        union = 0
        for m in inside:
            union |= m
        if bin(union).count("1") == sum(bin(m).count("1") for m in inside):
            key = (bin(bits).count("1"), len(inside))
            hist[key] = hist.get(key, 0) + 1
    return hist


def superset_counts_brute(masks: list[int], low: int, high: int) -> np.ndarray:
    """counts[c] = number of masks m with code & m == m, code = (high << low) | c,
    one whole-array subset test per mask, in the count's smallest dtype."""
    codes = (high << low) | np.arange(1 << low, dtype=np.int64)
    counts = np.zeros(1 << low, dtype=np.int64)
    for m in masks:
        counts += (codes & m) == m
    return counts.astype(np.min_scalar_type(len(masks)))


def tail_from_histogram(
    hist: dict[tuple[int, int], int], n: int, p: float, threshold: float
) -> float:
    return math.fsum(
        c * p**j * (1.0 - p) ** (n - j) for (j, x), c in hist.items() if x >= threshold
    )


def naive_moments(hist: dict[tuple[int, int], int], n: int, p: float) -> tuple[float, float]:
    """(mean, variance) of the induced edge count from a size-value histogram."""
    weights = {j: p**j * (1.0 - p) ** (n - j) for j in range(n + 1)}
    mean = math.fsum(c * weights[j] * x for (j, x), c in hist.items())
    second = math.fsum(c * weights[j] * x * x for (j, x), c in hist.items())
    return mean, second - mean * mean


def clean_config_point_sum(
    edges: list[tuple[int, ...]], n: int, p: float, m: int, disjoint_only: bool = True
) -> float:
    """Sum over clean m-edge configurations C (no other edge inside their vertex
    union U; pairwise disjoint ones only if asked) of p^|U| times the complement
    sum Pr(no edge outside C is induced | U kept), over all subsets of the rest."""
    masks = edge_bitmasks(edges)
    total = []
    for combo in combinations(range(len(masks)), m):
        union = 0
        for i in combo:
            union |= masks[i]
        others = [mask for i, mask in enumerate(masks) if i not in combo]
        if any(mask & union == mask for mask in others):
            continue
        if disjoint_only and bin(union).count("1") != sum(len(edges[i]) for i in combo):
            continue
        comp = [v for v in range(n) if not (union >> v) & 1]
        inner = []
        for code in range(1 << len(comp)):
            bits = union | sum(1 << v for i, v in enumerate(comp) if (code >> i) & 1)
            if all(bits & mask != mask for mask in others):
                j = bin(code).count("1")
                inner.append(p**j * (1.0 - p) ** (len(comp) - j))
        total.append(p ** bin(union).count("1") * math.fsum(inner))
    return math.fsum(total)


def naive_conditional_mean(edges: list[tuple[int, ...]], n: int, m: int) -> Fraction:
    """Average induced edge count over all m-subsets, as an exact fraction."""
    total = 0
    count = 0
    for combo in combinations(range(n), m):
        total += sum(set(e) <= set(combo) for e in edges)
        count += 1
    return Fraction(total, count)


def naive_codegrees(edges: list[tuple[int, ...]], n: int, j: int) -> dict[tuple[int, ...], int]:
    """codeg(T) for every j-subset T of range(n) that some edge contains."""
    out = {}
    for t in combinations(range(n), j):
        count = sum(1 for e in edges if set(t) <= set(e))
        if count:
            out[t] = count
    return out


def pair_scan_variances(edges: list[tuple[int, ...]], ps: list[float]) -> list[float]:
    """Var X at each p: the sum over ordered intersecting edge pairs (e = f
    included) of p^|e u f| - p^2k, walking each edge's intersecting partners."""
    if not edges:
        return [0.0] * len(ps)
    k = len(edges[0])
    incidence: dict[int, list[int]] = {}
    for idx, e in enumerate(edges):
        for v in e:
            incidence.setdefault(v, []).append(idx)
    counts: dict[int, int] = {k: len(edges)}
    for i, edge in enumerate(edges):
        partners = {j for v in edge for j in incidence[v] if j > i}
        for j in partners:
            union = len(set(edge) | set(edges[j]))
            counts[union] = counts.get(union, 0) + 2
    return [
        math.fsum(cnt * (p**u - p ** (2 * k)) for u, cnt in sorted(counts.items()))
        for p in ps
    ]


# ------------------------------------------------------ bounded-degree X_r


def naive_xr(edges: list[tuple[int, ...]], r: float) -> int:
    """Max size of an edge subset whose every vertex degree stays <= r."""
    best = 0
    m = len(edges)
    for mask in range(1 << m):
        deg: dict[int, int] = {}
        size = 0
        feasible = True
        for i in range(m):
            if not (mask >> i) & 1:
                continue
            size += 1
            for v in edges[i]:
                deg[v] = deg.get(v, 0) + 1
                if deg[v] > r:
                    feasible = False
                    break
            if not feasible:
                break
        if feasible and size > best:
            best = size
    return best


def xr_search(edges: list[tuple[int, ...]], r: float) -> tuple[int, int]:
    """(X_r, nodes visited) of the depth-first search over the edges in order
    that takes each feasible edge before skipping it and prunes on
    sum_v min(chosen[v] + left[v], floor(r)) // k, recounted at every node."""
    cap = math.floor(r)
    if cap < 1 or not edges:
        return 0, 0
    k = len(edges[0])
    verts = {v for e in edges for v in e}
    chosen: Counter = Counter()
    best = nodes = 0

    def dfs(idx: int, count: int) -> None:
        nonlocal best, nodes
        nodes += 1
        best = max(best, count)
        if idx == len(edges) or count + len(edges) - idx <= best:
            return
        left = Counter(v for e in edges[idx:] for v in e)
        if sum(min(chosen[v] + left[v], cap) for v in verts) // k <= best:
            return
        e = edges[idx]
        if all(chosen[v] < cap for v in e):
            chosen.update(e)
            dfs(idx + 1, count + 1)
            chosen.subtract(e)
        dfs(idx + 1, count)

    dfs(0, 0)
    return best, nodes


def naive_mr(edges: list[tuple[int, ...]], r: float) -> int:
    """Max number of vertex-disjoint stars of ceil(r) edges, by exhaustion."""
    c = math.ceil(r)
    by_center: dict[int, list[int]] = {}
    for i, e in enumerate(edges):
        for v in e:
            by_center.setdefault(v, []).append(i)
    stars = []
    for v, ids in sorted(by_center.items()):
        for combo in combinations(ids, c):
            verts = set()
            for i in combo:
                verts.update(edges[i])
            stars.append(verts)
    best = 0

    def extend(idx: int, used: set, count: int) -> None:
        nonlocal best
        if count > best:
            best = count
        if idx == len(stars) or count + (len(stars) - idx) <= best:
            return
        if not (stars[idx] & used):
            extend(idx + 1, used | stars[idx], count + 1)
        extend(idx + 1, used, count)

    extend(0, set(), 0)
    return best


def mr_search(edges: list[tuple[int, ...]], r: float) -> tuple[int, int]:
    """(M_r, nodes visited) of the branch-and-bound over centers in increasing
    id order: branch on the first live center, taking each ceil(r)-set of its
    free edges (in list order) and then dropping it as a center; prune once
    count + min(#live, |union of live edges| // width) cannot beat the best.

    A center is live when it lies past the last center branched on, is not
    covered by a taken star and keeps ceil(r) edges avoiding every covered
    vertex.  The live centers and the minimum are recounted from the covered
    vertices at every node.  width is the fewest vertices ceil(r) distinct
    k-edges through one center can cover: the least w with C(w - 1, k - 1)
    >= ceil(r), at most k + ceil(r) - 1.
    """
    c = math.ceil(r)
    by_center: dict[int, list[int]] = {}
    for i, e in enumerate(edges):
        for v in e:
            by_center.setdefault(v, []).append(i)
    centers = sorted(v for v, ids in by_center.items() if len(ids) >= c)
    if not centers:
        return 0, 0
    k = len(edges[0])
    width = next(w for w in range(k, k + c) if w == k + c - 1 or math.comb(w - 1, k - 1) >= c)
    verts = [set(e) for e in edges]
    best = nodes = 0

    def dfs(pos: int, covered: set, count: int) -> None:
        nonlocal best, nodes
        nodes += 1
        best = max(best, count)
        live = []
        for v in centers[pos:]:
            free = [i for i in by_center[v] if not verts[i] & covered]
            if v not in covered and len(free) >= c:
                live.append((v, free))
        union = set().union(*(verts[i] for _, free in live for i in free))
        if count + min(len(live), len(union) // width) <= best:
            return
        v, free = live[0]
        after = centers.index(v) + 1
        for star in combinations(free, c):
            dfs(after, covered.union(*(verts[i] for i in star)), count + 1)
        dfs(after, covered, count)

    dfs(0, set(), 0)
    return best, nodes


# ------------------------------------------------------ disjoint occurrence


def cylinder_forces(omega: int, coord_mask: int, outcomes: set[int], m: int) -> bool:
    """True when every outcome agreeing with omega on coord_mask is in outcomes."""
    free = [i for i in range(m) if not (coord_mask >> i) & 1]
    for assign in range(1 << len(free)):
        w = omega
        for pos, i in enumerate(free):
            if (assign >> pos) & 1:
                w |= 1 << i
            else:
                w &= ~(1 << i)
        if w not in outcomes:
            return False
    return True


def naive_box(a: set[int], b: set[int], m: int) -> set[int]:
    """Disjoint occurrence of two outcome sets, straight from the definition.

    Certificate tables are precomputed per (outcome, coordinate set) so the
    disjoint-pair scan stays quadratic in 2^m rather than cubic.
    """
    forces_a = {
        (w, k): cylinder_forces(w, k, a, m)
        for w in range(1 << m)
        for k in range(1 << m)
    }
    forces_b = {
        (w, k): cylinder_forces(w, k, b, m)
        for w in range(1 << m)
        for k in range(1 << m)
    }
    out = set()
    for omega in range(1 << m):
        if any(
            forces_a[(omega, i)] and forces_b[(omega, j)]
            for i in range(1 << m)
            for j in range(1 << m)
            if i & j == 0
        ):
            out.add(omega)
    return out


def naive_minimal_certificates(outcomes: set[int], omega: int, m: int) -> list[int]:
    """The coordinate sets that certify omega for the outcome set while no set
    one coordinate smaller does, in ascending order."""
    ok = [cylinder_forces(omega, k, outcomes, m) for k in range(1 << m)]
    return [
        k
        for k in range(1 << m)
        if ok[k] and not any(ok[k & ~(1 << i)] for i in range(m) if (k >> i) & 1)
    ]


def naive_z_disjoint(events: list[set[int]], omega: int, m: int) -> int:
    """Max events certifiable at omega on pairwise-disjoint coordinate sets.

    Any working certificate contains a minimal one, so searching over minimal
    certificates only is still exact.
    """
    minimal = [naive_minimal_certificates(ev, omega, m) for ev in events]
    best = 0

    def extend(idx: int, used: int, count: int) -> None:
        nonlocal best
        if count > best:
            best = count
        if idx == len(minimal) or count + (len(minimal) - idx) <= best:
            return
        for k in minimal[idx]:
            if k & used == 0:
                extend(idx + 1, used | k, count + 1)
        extend(idx + 1, used, count)

    extend(0, 0, 0)
    return best


def naive_event_probability(outcomes: set[int], probs: list[float]) -> float:
    m = len(probs)
    total = 0.0
    for omega in outcomes:
        w = 1.0
        for i in range(m):
            w *= probs[i] if (omega >> i) & 1 else 1.0 - probs[i]
        total += w
    return total


# ------------------------------------------------------- sampling kernels


def byte_edge_totals(edges: np.ndarray, member: np.ndarray, block: int = 512) -> np.ndarray:
    """totals[s] = number of rows of the (e, k) index array `edges` inside
    column s of the n x count boolean `member` matrix.

    One byte per sample: the k member rows of `block` edges at a time are
    ANDed and summed in uint16 (block < 2**16).
    """
    totals = np.zeros(member.shape[1], dtype=np.int64)
    for start in range(0, len(edges), block):
        part = edges[start : start + block]
        hit = member[part[:, 0]]
        for col in part.T[1:]:
            hit &= member[col]
        totals += hit.sum(axis=0, dtype=np.uint16)
    return totals


def int64_m_subset_member(n: int, m: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """n x count membership of `count` uniform m-subsets of range(n), by a
    batched partial Fisher-Yates over an int64 (count, n) table."""
    arr = np.tile(np.arange(n, dtype=np.int64), (count, 1))
    rows = np.arange(count)
    for i in range(m):
        j = rng.integers(i, n, size=count)
        picked = arr[rows, j]
        arr[rows, j] = arr[:, i]
        arr[:, i] = picked
    member = np.zeros((n, count), dtype=bool)
    member[arr[:, :m], rows[:, None]] = True
    return member


def scalar_sample_vm(n: int, m: int, rng) -> tuple[int, ...]:
    """Sorted members of a uniform m-subset of range(n), by the scalar partial
    Fisher-Yates: step i swaps position i with position rng.integers(i, n)."""
    arr = list(range(n))
    for i in range(m):
        j = int(rng.integers(i, n))
        arr[i], arr[j] = arr[j], arr[i]
    return tuple(sorted(arr[:m]))


def float_sample_vp(n: int, p: float, rng: np.random.Generator) -> tuple[int, ...]:
    """Sorted members of a p-subset of range(n) by the float compare
    rng.random(n) < p: one double per vertex, kept below p."""
    return tuple(np.flatnonzero(rng.random(n) < p).tolist())


# ---------------------------------------------------------------- scalars


def naive_phi(x: float) -> float:
    return (1.0 + x) * math.log(1.0 + x) - x


def binom_pmf(m: int, n: int, q: float) -> Fraction:
    """Exact Pr(Bin(n, q) = m) for the binary value of q, in
    scipy.stats.binom.pmf's argument order (0 off [0, n])."""
    if not 0 <= m <= n:
        return Fraction(0)
    fq = Fraction(q)
    return math.comb(n, m) * fq**m * (1 - fq) ** (n - m)


def binom_sf(k: int, n: int, q: float) -> Fraction:
    """Exact Pr(Bin(n, q) > k) = 1 - Pr(Bin(n, q) <= k) for the binary value
    of q, in scipy.stats.binom.sf's argument order.  The pmfs over [0, n]
    sum to exactly 1, and at the small k the tests ask about the sum up to k
    is short where the sum above k is not (n = 500 in ACCEPT-14)."""
    return 1 - sum((binom_pmf(j, n, q) for j in range(min(k, n) + 1)), Fraction(0))
