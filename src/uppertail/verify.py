"""Named verification suites: phi, variance, sandwich, bk, cascade, lowerbounds.

Each suite re-derives its claims from scratch (exact enumeration wherever the
instance is small enough) and returns one CheckResult per named check.  The
CLI `verify` subcommand and the test suite both run these.

Frozen regression constants below were measured once on the exact grids the
suites replay; they are rounded outward (intervals) or inward (lower bounds)
by about 0.5% so reruns only fail on a real regression, not float noise.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from .bounds import (
    exact_mean,
    exact_variance,
    exponent_hg,
    hypergeom_conditional_mean,
    lb_cluster_bound,
    binomial_point_lower,
    binomial_point_lower_refined,
    paley_zygmund_lower,
    phi,
    theorem_c_bound,
)
from .decompose import (
    CascadeParams,
    cascade_prune,
    check_cascade_event,
    degree_prune,
    induced_max_degree,
    mr_exact,
    mr_exact_on,
    xr_exact,
    xr_exact_on,
    xr_or_lower,
)
from .disjointness import (
    EventTable,
    box,
    degree_event,
    event_probability,
    mr_le_z_check,
    z_disjoint,
)
from .estimate import (
    clean_config_histogram,
    conditioned_tail,
    edge_count_histogram,
    histogram_point_mass,
    histogram_tail,
    mc_tail,
    planted_tail,
    planting_target,
    size_weighted_sum,
)
from .families import FamilySpec, Witness, build, build_ap, build_schur, interval_witness
from .hypergraph import (
    Hypergraph,
    VertexSet,
    delta_j,
    induced_edge_count,
    induced_edges,
    max_degree,
    sample_vp,
)

__all__ = [
    "CheckResult",
    "SUITES",
    "bk_suite",
    "cascade_suite",
    "lowerbounds_suite",
    "phi_suite",
    "run_suites",
    "sandwich_suite",
    "variance_suite",
]

# Frozen regression constants (see module docstring).
# Variance ratio exact_variance / ((1-p) * lam) over AP(n,3),
# n in VAR_RATIO_NS, p in GRID_PS: measured range [1.31475..., 2.30215...].
VAR_RATIO_LOW = 1.30
VAR_RATIO_HIGH = 2.31
# Per-eps minimum of -ln(exact tail) / min(mu, sqrt(mu) * ln(e/p)) over
# AP(n,3), n in TAIL_SANDWICH_NS, p in GRID_PS, rows with tail >= 1e-9:
# measured minima 0.23347 / 0.35292 / 0.61757.
TAIL_SANDWICH_C = {0.5: 0.2323, 1.0: 0.3511, 2.0: 0.6144}

VAR_RATIO_NS = (50, 100, 150, 200)
GRID_PS = tuple(round(0.05 * i, 2) for i in range(1, 11))
TAIL_SANDWICH_NS = (16, 20, 24)
TAIL_SANDWICH_EPS = (0.5, 1.0, 2.0)
# (kind, n, r) combos whose T-condition probability cap is large enough to
# leave the degree-tail check non-vacuous (positive left side at y <= 1).
MRH_COMBOS = (
    ("ap", 12, 10.0),
    ("ap", 12, 8.0),
    ("schur", 12, 10.0),
    ("schur", 12, 8.0),
    ("schur", 12, 5.0),
)

VARIANCE_INSTANCES = (
    FamilySpec("ap", 10, 3),
    FamilySpec("ap", 12, 4),
    FamilySpec("schur", 11),
    FamilySpec("ell_sum", 12, ell=2),
    FamilySpec("ell_sum", 9, ell=3),
)


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    ok: bool
    detail: str = ""


def _ge(a: float, b: float, rel: float = 1e-12) -> bool:
    """a >= b up to relative float slack."""
    return a >= b - rel * max(abs(a), abs(b))


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1.0)


def _histogram(h: Hypergraph, hists: dict | None) -> np.ndarray:
    """h's edge_count_histogram, from which every exact probability a check
    needs is read.  run_suites passes one memo (hists) to all its suites, so
    each distinct graph is enumerated once per run; without one, once per call.
    """
    if hists is None:
        return edge_count_histogram(h)
    if h not in hists:
        hists[h] = edge_count_histogram(h)
    return hists[h]


# ---------------------------------------------------------------- phi suite


def phi_suite(points: int = 10_000) -> list[CheckResult]:
    xs = np.logspace(-8.0, 4.0, points)
    quad = half = square = third = logx = True
    for x in xs:
        x = float(x)
        f = phi(x)
        if not _ge(f, x * x / (2.0 + 2.0 * x / 3.0)):
            quad = False
        if not _ge(phi(x / 2.0), f / 4.0):
            half = False
        if not _ge(x * x, f):
            square = False
        if not _ge(f, min(x, x * x) / 3.0):
            third = False
        if x >= math.e**2 and not _ge(f, 0.5 * x * math.log(x)):
            logx = False

    chain = True
    hg_consistent = True
    for mu in (0.25, 1.0, 7.5, 120.0):
        for cap in (1.0, 2.0, 8.0):
            for t in (0.1, 1.0, 10.0, 300.0):
                main = theorem_c_bound(mu, cap, t).log_value
                other = (
                    theorem_c_bound(mu, cap, t, form="quadratic").log_value,
                    theorem_c_bound(mu, cap, t, form="ratio_log").log_value,
                )
                if any(main > o + 1e-9 for o in other):
                    chain = False
                if not _ge(t * t, phi(t / mu) * mu * mu):
                    hg_consistent = False
                if exponent_hg(mu, 1.0, 0.5, t) < 0:
                    hg_consistent = False

    grid = f"{points} log-grid points in [1e-8, 1e4]"
    return [
        CheckResult("phi", "lower_quadratic", quad, grid),
        CheckResult("phi", "half_argument", half, grid),
        CheckResult("phi", "upper_square", square, grid),
        CheckResult("phi", "lower_min_third", third, grid),
        CheckResult("phi", "lower_half_xlogx", logx, grid + ", x >= e^2"),
        CheckResult("phi", "bennett_chain", chain, "48 (mu, C, t) combinations"),
        CheckResult("phi", "degree_exponent_consistency", hg_consistent, ""),
    ]


# ----------------------------------------------------------- variance suite


def _enumerated_moments(hist: np.ndarray, p: float) -> tuple[float, float]:
    x = np.arange(hist.shape[1])
    mean = size_weighted_sum(hist @ x, p)
    return mean, size_weighted_sum(hist @ (x * x), p) - mean * mean


def variance_suite(
    instances: Sequence[FamilySpec] = VARIANCE_INSTANCES, hists: dict | None = None
) -> list[CheckResult]:
    out = []
    for spec in instances:
        h = build(spec)
        hist = _histogram(h, hists)
        worst = 0.0
        ok = True
        for i in range(11):
            p = i / 10.0
            mean_e, var_e = _enumerated_moments(hist, p)
            mean_a = exact_mean(h, p)
            var_a = exact_variance(h, p)
            err = max(
                abs(mean_a - mean_e) / max(abs(mean_e), 1.0),
                abs(var_a - var_e) / max(abs(var_e), 1.0),
            )
            worst = max(worst, err)
            if err > 1e-10:
                ok = False
        name = f"moments_{spec.kind}_{spec.n}_{spec.k if spec.kind == 'ap' else spec.ell}"
        out.append(CheckResult("variance", name, ok, f"worst rel err {worst:.2e} over 11 p"))
    return out


# ----------------------------------------------------------- sandwich suite


def sandwich_sample_check(seed: int, count: int) -> tuple[int, int, int]:
    """Sample (H, S, r) triples; return (violations, checked, exact_xr_count)."""
    rng = np.random.default_rng(seed)
    hs = {n: build_ap(n, 3) for n in (10, 16, 22, 28, 34, 40)}
    ns = tuple(hs)
    rs = (1.0, 2.0, 3.0, 5.0)
    ps = (0.15, 0.3, 0.5)
    violations = 0
    exact_count = 0
    for i in range(count):
        h = hs[ns[i % len(ns)]]
        r = rs[(i // len(ns)) % len(rs)]
        p = ps[(i // (len(ns) * len(rs))) % len(ps)]
        s = sample_vp(h, p, rng)
        ids = induced_edges(h, s)
        x = len(ids)
        delta1 = induced_max_degree(h, ids)
        pruned = degree_prune(h, s, r)
        g0 = len(pruned.kept_edge_ids)
        msize = pruned.matching.size
        xr, exact = xr_or_lower(h, s, r)
        exact_count += exact
        slack = h.k * math.ceil(r) * msize * delta1
        lower_ok = g0 <= xr <= x
        upper_ok = x <= xr + (slack if delta1 > r else 0)
        greedy_ok = x <= g0 + slack
        if not (lower_ok and upper_ok and greedy_ok):
            violations += 1
    return violations, count, exact_count


def _induced_edge_sets(h: Hypergraph) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """The distinct induced edge-id sets over all 2^n subsets, in order of first
    appearance, and index[code] = the position of code's set among them."""
    position: dict[tuple[int, ...], int] = {}
    index = [
        position.setdefault(induced_edges(h, VertexSet(h.n, code)), len(position))
        for code in range(1 << h.n)
    ]
    return list(position), np.array(index, dtype=np.int64)


def degree_matching_equivalence_check(ns: Iterable[int] = (10,)) -> tuple[int, int]:
    """All subsets, z in {1,2,3}: Delta_1 >= ceil(z) iff M_z >= 1."""
    violations = 0
    checked = 0
    for n in ns:
        for h in (build_ap(n, 3), build_schur(n)):
            sets, index = _induced_edge_sets(h)
            for ids, subsets in zip(sets, np.bincount(index).tolist()):
                d1 = induced_max_degree(h, ids)
                for z in (1, 2, 3):
                    checked += subsets
                    if (d1 >= z) != (mr_exact_on(h, ids, float(z)) >= 1):
                        violations += subsets
    return violations, checked


def _mr_by_code(h: Hypergraph, r: float) -> np.ndarray:
    """m[S] = M_r(H[S]) for every subset code S, by one exact set-packing pass.

    A star's vertex mask is the union of ceil(r) edges at one vertex; it lies
    in S iff all its edges are induced.  In a best packing of S the lowest
    vertex v of S is either uncovered or covered by exactly one star X, whose
    lowest vertex is then v, so m[S] = max(m[S ^ v], 1 + m[S ^ X]) over those
    X inside S.  S ^ v and S ^ X have lowest vertex above v, so the pass fills
    the codes with lowest vertex v for v from n - 1 down to 0.
    """
    if r <= 0:
        raise ValueError("r must be positive")
    c = math.ceil(r)
    n = h.n
    masks = h.edge_masks
    stars = set()
    for v in range(n):
        for chosen in combinations(h.incidence[v], c):
            bits = 0
            for i in chosen:
                bits |= masks[i]
            stars.add(bits)
    # Each star by its lowest vertex v, as its bits above v.
    above = [[] for _ in range(n)]
    for x in stars:
        v = (x & -x).bit_length() - 1
        above[v].append(x >> (v + 1))
    m = np.zeros(1 << n, dtype=np.int64)
    for v in range(n - 1, -1, -1):
        # Row j of the grid holds the codes whose bits above v read j: column 0
        # has v and every lower vertex out, column 1 << v has v as lowest vertex.
        grid = m.reshape(-1, 2 << v)
        rest, here = grid[:, 0], grid[:, 1 << v]
        here[:] = rest
        rows = np.arange(len(rest))
        for hi in above[v]:
            inside = rows[(rows & hi) == hi]
            here[inside] = np.maximum(here[inside], rest[inside ^ hi] + 1)
    return m


def _size_value_hist(values: np.ndarray) -> np.ndarray:
    """hist[j, v] = number of j-subsets S with values[S] = v, over all 2^n codes."""
    n = len(values).bit_length() - 1
    width = int(values.max()) + 1
    sizes = np.bitwise_count(np.arange(len(values)))
    flat = np.bincount(sizes.astype(np.int64) * width + values, minlength=(n + 1) * width)
    return flat.reshape(n + 1, width)


def xr_tail_check(n: int = 10) -> tuple[int, int, int]:
    """Exact Pr(X_r >= mu + t/2) against the Bennett-over-4kr bound."""
    violations = 0
    active = 0
    checked = 0
    for h in (build_ap(n, 3), build_schur(n)):
        sets, index = _induced_edge_sets(h)
        for r in (1.0, 2.0, 3.0):
            hist = _size_value_hist(np.array([xr_exact_on(h, ids, r) for ids in sets])[index])
            for p in (0.1, 0.3, 0.5, 0.7):
                mu = exact_mean(h, p)
                for t in (1.0, 3.0, 9.0, 27.0):
                    lhs = histogram_tail(hist, p, mu + t / 2.0)
                    main = math.exp(-phi(t / mu) * mu / (4.0 * h.k * r))
                    weak = math.exp(-min(t, t * t / mu) / (12.0 * h.k * r))
                    checked += 1
                    active += lhs > 0.0
                    if lhs > main * (1.0 + 1e-9) or main > weak * (1.0 + 1e-9):
                        violations += 1
    return violations, checked, active


def mr_tail_check(n: int = 12) -> tuple[int, int, int]:
    """Exact Pr(M_r >= y) against Phi_r^ceil(y)/ceil(y)! and its Stirling form.

    M_r of every subset comes from one set-packing pass over all 2^n codes
    (_mr_by_code), not from a branch-and-bound search per induced edge set;
    degree_matching_equivalence_check still runs that search on every subset.
    """
    violations = 0
    active = 0
    checked = 0
    for h in (build_ap(n, 3), build_schur(n)):
        for r in (1.0, 2.0, 3.0):
            # degree_event refuses n > BOX_COORD_BUDGET before the 2^n pass.
            events = [degree_event(h, v, math.ceil(r)) for v in range(n)]
            hist = _size_value_hist(_mr_by_code(h, r))
            for p in (0.1, 0.3, 0.5, 0.7):
                probs = [p] * n
                phi_r = math.fsum(event_probability(ev, probs) for ev in events)
                for y in (0.5, 1.0, 2.0, 3.0):
                    cy = math.ceil(y)
                    lhs = histogram_tail(hist, p, y)
                    mid = phi_r**cy / math.factorial(cy)
                    stirling = (math.e * phi_r / cy) ** cy / math.sqrt(2.0 * math.pi * cy)
                    checked += 1
                    active += lhs > 0.0
                    if lhs > mid * (1.0 + 1e-9) or mid > stirling * (1.0 + 1e-9):
                        violations += 1
    return violations, checked, active


def mrh_conditional_check() -> tuple[int, int, int]:
    """Degree-tail bound for M_x under the (B n p^{k-1} / r)^r <= n^{-8kD}
    precondition, with B = 1 and p chosen at 90% of the cap."""
    violations = 0
    active = 0
    checked = 0
    for kind, n, r in MRH_COMBOS:
        h = build(FamilySpec(kind, n))
        k = h.k
        d = max(delta_j(h, 2), 1)
        p = 0.9 * math.sqrt(r * n ** (-8.0 * k * d / r) / n)
        if (n * p ** (k - 1) / r) ** r > n ** (-8.0 * k * d):
            violations += 1
            continue
        cr = math.ceil(r)
        union = EventTable.empty(n)
        for v in range(n):
            union = EventTable(n, union.table | degree_event(h, v, cr).table)
        pr_ge_1 = event_probability(union, [p] * n)
        full = VertexSet(n, (1 << n) - 1)
        mr_full = mr_exact(h, full, r)
        for y in (0.5, 1.0, 2.0, 3.0):
            if y <= 1.0:
                lhs = pr_ge_1
            elif mr_full < y:
                lhs = 0.0
            else:  # pragma: no cover - combos chosen so two stars cannot fit
                raise AssertionError("unexpected feasible multi-star instance")
            rhs = (
                (n * p ** (k - 1) / (math.e * r)) ** (r * y / (2.0 * k * d))
                / (n * n * max(y, 1.0) ** 1.5)
            )
            checked += 1
            active += lhs > 0.0
            if lhs > rhs * (1.0 + 1e-9):
                violations += 1
    return violations, checked, active


def variance_ratio_range() -> tuple[float, float]:
    lo, hi = math.inf, -math.inf
    for n in VAR_RATIO_NS:
        h = build_ap(n, 3)
        for p in GRID_PS:
            mu = exact_mean(h, p)
            lam = mu * (1.0 + n * p * p)
            ratio = exact_variance(h, p) / ((1.0 - p) * lam)
            lo = min(lo, ratio)
            hi = max(hi, ratio)
    return lo, hi


def tail_exponent_minima(hists: dict | None = None) -> dict[float, float]:
    """Per-eps minimum of -ln(exact tail) / min(mu, sqrt(mu) ln(e/p))."""
    minima = {eps: math.inf for eps in TAIL_SANDWICH_EPS}
    for n in TAIL_SANDWICH_NS:
        h = build_ap(n, 3)
        hist = _histogram(h, hists)
        for p in GRID_PS:
            mu = exact_mean(h, p)
            expo = min(mu, math.sqrt(mu) * math.log(math.e / p))
            if expo <= 0:
                continue
            for eps in TAIL_SANDWICH_EPS:
                tail = histogram_tail(hist, p, (1.0 + eps) * mu)
                if not 1e-9 <= tail < 1.0:
                    continue
                minima[eps] = min(minima[eps], -math.log(tail) / expo)
    return minima


def sandwich_suite(
    seed: int = 7, triples: int = 2000, hists: dict | None = None
) -> list[CheckResult]:
    out = []

    v, c, ex = sandwich_sample_check(seed, triples)
    out.append(
        CheckResult(
            "sandwich",
            "degree_prune_sandwich",
            v == 0,
            f"{c} sampled triples, {ex} with exact X_r, {v} violations",
        )
    )

    v, c = degree_matching_equivalence_check()
    out.append(
        CheckResult(
            "sandwich", "degree_matching_equivalence", v == 0, f"{c} subset checks"
        )
    )

    v, c, a = xr_tail_check()
    out.append(
        CheckResult(
            "sandwich", "xr_tail_bound", v == 0, f"{c} grid rows, {a} with positive tail"
        )
    )

    v, c, a = mr_tail_check()
    out.append(
        CheckResult(
            "sandwich", "mr_tail_bound", v == 0, f"{c} grid rows, {a} with positive tail"
        )
    )

    v, c, a = mrh_conditional_check()
    out.append(
        CheckResult(
            "sandwich",
            "mr_degree_tail_conditional",
            v == 0 and a > 0,
            f"{c} grid rows, {a} with positive tail",
        )
    )

    lo, hi = variance_ratio_range()
    out.append(
        CheckResult(
            "sandwich",
            "variance_ratio_interval",
            VAR_RATIO_LOW <= lo and hi <= VAR_RATIO_HIGH,
            f"measured [{lo:.6f}, {hi:.6f}] within [{VAR_RATIO_LOW}, {VAR_RATIO_HIGH}]",
        )
    )

    minima = tail_exponent_minima(hists)
    ok = all(
        minima[eps] >= TAIL_SANDWICH_C[eps] and math.isfinite(minima[eps])
        for eps in TAIL_SANDWICH_EPS
    )
    detail = ", ".join(
        f"eps={eps}: {minima[eps]:.5f} >= {TAIL_SANDWICH_C[eps]}" for eps in TAIL_SANDWICH_EPS
    )
    out.append(CheckResult("sandwich", "tail_exponent_floor", ok, detail))
    return out


# ----------------------------------------------------------------- bk suite


def bk_random_pairs(seed: int, pairs: int, coords: int = 8) -> tuple[int, int]:
    """Random event pairs under three product measures; returns (violations, checked)."""
    rng = np.random.default_rng(seed)
    nbytes = (1 << coords) // 8
    measures = [
        [0.5] * coords,
        [0.3] * coords,
        [float(x) for x in rng.uniform(0.1, 0.9, size=coords)],
    ]
    violations = 0
    checked = 0
    for _ in range(pairs):
        a = EventTable(coords, int.from_bytes(rng.bytes(nbytes), "little"))
        b = EventTable(coords, int.from_bytes(rng.bytes(nbytes), "little"))
        ab = box(a, b)
        if ab.table & ~(a.table & b.table):
            violations += 1
        if ab != box(b, a):
            violations += 1
        # bk_check's inequality, on the box product already held.
        for probs in measures:
            checked += 1
            p_ab = event_probability(ab, probs)
            p_a = event_probability(a, probs)
            p_b = event_probability(b, probs)
            if not p_ab <= p_a * p_b + 1e-12:
                violations += 1
    return violations, checked


def box_identity_checks() -> list[tuple[str, bool]]:
    m = 3
    omega_full = EventTable.full(m)
    single = EventTable.from_indicator(m, lambda w: bool(w & 1))
    other = EventTable.from_indicator(m, lambda w: bool(w & 2))
    some = EventTable.from_indicator(m, lambda w: w in (1, 3, 6, 7))
    checks = [
        ("box_with_full_left", box(omega_full, some) == some),
        ("box_with_full_right", box(some, omega_full) == some),
        ("box_single_coordinate_self", box(single, single) == EventTable.empty(m)),
        (
            "box_disjoint_coordinates",
            box(
                EventTable.from_indicator(2, lambda w: bool(w & 1)),
                EventTable.from_indicator(2, lambda w: bool(w & 2)),
            )
            == EventTable.from_indicator(2, lambda w: w == 3),
        ),
        ("box_with_empty", box(EventTable.empty(m), some) == EventTable.empty(m)),
        ("z_all_full", z_disjoint([omega_full] * 3, 0) == 3),
        ("z_repeated_coordinate", z_disjoint([single, single], 1) == 1),
        ("z_two_coordinates", z_disjoint([single, other], 3) == 2),
    ]
    rng = np.random.default_rng(3)
    mono = True
    for _ in range(30):
        a = EventTable(6, int.from_bytes(rng.bytes(8), "little"))
        b = EventTable(6, int.from_bytes(rng.bytes(8), "little"))
        bigger = EventTable(6, a.table | int.from_bytes(rng.bytes(8), "little"))
        if box(a, b).table & ~box(bigger, b).table:
            mono = False
    checks.append(("box_monotone", mono))
    return checks


def mr_z_sample_check(seed: int, count: int) -> tuple[int, int]:
    rng = np.random.default_rng(seed)
    hs = (build_ap(8, 3), build_schur(8))
    rs = (1.0, 2.0, 3.0)
    violations = 0
    for i in range(count):
        h = hs[i % 2]
        r = rs[(i // 2) % 3]
        s = sample_vp(h, 0.6, rng)
        if not mr_le_z_check(h, s, r).ok:
            violations += 1
    return violations, count


def bk_suite(seed: int = 10, pairs: int = 200) -> list[CheckResult]:
    out = []
    v, c = bk_random_pairs(seed, pairs)
    out.append(
        CheckResult("bk", "random_pairs", v == 0, f"{pairs} pairs, {c} measure checks")
    )
    for name, ok in box_identity_checks():
        out.append(CheckResult("bk", name, ok))
    v, c = mr_z_sample_check(seed + 1, 200)
    out.append(CheckResult("bk", "mr_le_z_sampled", v == 0, f"{c} sampled (H,S,r)"))
    return out


# ------------------------------------------------------------ cascade suite


def cascade_consistency_check(seed: int, samples: int) -> tuple[int, int, int, int]:
    """Whenever the cascade event holds (beta = 1/(32k), r >= 1), X <= X_r + t/2.

    Returns (violations, true_verdicts, indeterminate, checked).
    """
    rng = np.random.default_rng(seed)
    hs = (build_ap(10, 3), build_schur(10))
    combos = ((1.0, 4.0), (1.0, 9.0), (2.0, 4.0), (1.5, 6.25))
    ps = (0.15, 0.25, 0.35)
    beta = 1.0 / (32.0 * 3)
    violations = trues = indet = 0
    for i in range(samples):
        h = hs[i % 2]
        r, t = combos[(i // 2) % len(combos)]
        p = ps[(i // 8) % len(ps)]
        params = CascadeParams(beta=beta, gamma=0.125, r=r, t=t, p=p)
        s = sample_vp(h, p, rng)
        check = check_cascade_event(h, s, params)
        if check.verdict is None:
            indet += 1
        elif check.verdict:
            trues += 1
            x = induced_edge_count(h, s)
            if x > xr_exact(h, s, r) + t / 2.0 + 1e-9:
                violations += 1
    return violations, trues, indet, samples


def cascade_accounting_check(seed: int, samples: int) -> tuple[int, int, int]:
    """Per-level removal accounting on AP(40,3); returns
    (violations, fully_dyadic_samples, checked)."""
    rng = np.random.default_rng(seed)
    h = build_ap(40, 3)
    violations = 0
    fully_dyadic = 0
    for i in range(samples):
        t = (16.0, 36.0)[i % 2]
        params = CascadeParams(beta=1.0, gamma=0.125, r=1.5, t=t, p=0.2)
        s = sample_vp(h, 0.2, rng)
        res = cascade_prune(h, s, params)
        ids = induced_edges(h, s)
        if sum(level.removed for level in res.levels) != len(ids) - len(res.kept_edge_ids):
            violations += 1
        all_dyadic = True
        for level in res.levels:
            cap = level.matching_size * h.k * math.ceil(level.r_j) * level.delta1_before
            if level.removed > cap:
                violations += 1
            if level.delta1_before <= 2.0 * level.r_j and level.r_j >= 0.5:
                if level.removed > level.matching_size * 4.0 * h.k * level.r_j**2:
                    violations += 1
            else:
                all_dyadic = False
        fully_dyadic += all_dyadic
        if induced_max_degree(h, res.kept_edge_ids) > math.floor(params.r):
            violations += 1
    return violations, fully_dyadic, samples


def cascade_trivial_checks(seed: int = 5) -> list[tuple[str, bool]]:
    rng = np.random.default_rng(seed)
    h = build_ap(14, 3)
    s = sample_vp(h, 0.5, rng)
    params = CascadeParams(beta=0.5, gamma=0.1, r=2.0, t=4.0, p=0.5)
    res = cascade_prune(h, s, params)
    single = (
        res.level_count == 0
        and len(res.levels) == 1
        and res.levels[0].r_j == 2.0
        and res.kept_edge_ids == degree_prune(h, s, 2.0).kept_edge_ids
    )

    sparse = None
    for _ in range(200):
        cand = sample_vp(h, 0.25, rng)
        ids = induced_edges(h, cand)
        if ids and induced_max_degree(h, ids) == 1:
            sparse = cand
            break
    if sparse is None:
        identity = False
    else:
        params2 = CascadeParams(beta=0.5, gamma=0.1, r=1.5, t=9.0, p=0.25)
        res2 = cascade_prune(h, sparse, params2)
        identity = (
            res2.kept_edge_ids == induced_edges(h, sparse)
            and all(level.matching_size == 0 for level in res2.levels)
        )
    return [("single_level_when_t_le_r_squared", single), ("identity_below_degree", identity)]


def cascade_suite(seed: int = 13, samples: int = 400) -> list[CheckResult]:
    out = []
    v, trues, indet, c = cascade_consistency_check(seed, samples)
    out.append(
        CheckResult(
            "cascade",
            "event_implies_xr_bound",
            v == 0 and trues > 0,
            f"{c} samples, {trues} true verdicts, {indet} indeterminate, {v} violations",
        )
    )
    v, dyadic, c = cascade_accounting_check(seed + 1, 50)
    out.append(
        CheckResult(
            "cascade",
            "removal_accounting",
            v == 0 and dyadic > 0,
            f"{c} samples, {dyadic} fully within the dyadic form",
        )
    )
    for name, ok in cascade_trivial_checks():
        out.append(CheckResult("cascade", name, ok))
    return out


# -------------------------------------------------------- lowerbounds suite


def lower_estimates_check(seed: int, samples: int, hists: dict | None = None) -> tuple[int, int]:
    """planted/conditioned estimates never exceed the exact tail."""
    cases = (
        (FamilySpec("ap", 12, 3), 0.3, 3.0),
        (FamilySpec("schur", 12), 0.25, 2.0),
        (FamilySpec("ell_sum", 12, ell=2), 0.4, 2.0),
    )
    violations = 0
    checked = 0
    for i, (spec, p, t) in enumerate(cases):
        h = build(spec)
        hist = _histogram(h, hists)
        mu = exact_mean(h, p)
        thr = mu + t
        tail = histogram_tail(hist, p, thr)
        w = interval_witness(spec, planting_target(mu, t, h.k, None), h)
        planted = planted_tail(h, p, thr, samples, seed=seed + i, witness=w)
        checked += 1
        if planted.p_hat > tail + 1e-12:
            violations += 1
        for eps in (0.0, 0.5):
            cond = conditioned_tail(h, p, thr, samples, seed=seed + 10 + i, eps=eps)
            checked += 1
            if cond.p_hat > tail + 1e-12:
                violations += 1
    return violations, checked


def witness_tail_check(
    ns: Iterable[int] = (16, 20, 24), hists: dict | None = None
) -> tuple[int, int]:
    """Exact tail >= exp(-D sqrt(mu+t) ln(1/p)) from the interval witness."""
    violations = 0
    checked = 0
    for n in ns:
        spec = FamilySpec("ap", n, 3)
        h = build(spec)
        hist = _histogram(h, hists)
        for p in (0.2, 0.35, 0.5):
            mu = exact_mean(h, p)
            for eps in (1.0, 2.0):
                t = eps * mu
                if mu + t < 1.0:
                    continue
                w = interval_witness(spec, mu + t, h)
                if w is None:
                    continue
                bound = lb_cluster_bound(w.d_used, mu, t, p)
                tail = histogram_tail(hist, p, mu + t)
                checked += 1
                if tail < math.exp(bound.log_value) * (1.0 - 1e-9):
                    violations += 1
    return violations, checked


def clean_config_check(
    ns: Iterable[int] = (12,), ms: Iterable[int] = (0, 1, 2), hists: dict | None = None
) -> tuple[int, int, tuple[float, float]]:
    """exact Pr(X=m) >= clean-config bound; also recovers the per-instance b."""
    violations = 0
    checked = 0
    b_lo, b_hi = math.inf, -math.inf
    for n in ns:
        for h in (build_ap(n, 3), build_schur(n)):
            hist = _histogram(h, hists)
            clean = clean_config_histogram(h)
            for p in (0.1, 0.2, 0.3):
                q = p**h.k
                for m in ms:
                    lower = histogram_point_mass(clean, p, m)
                    pm = histogram_point_mass(hist, p, m)
                    checked += 1
                    if pm < lower * (1.0 - 1e-9):
                        violations += 1
                    binom0 = binomial_point_lower(h.num_edges, q, m, b=0.0).log_value
                    if lower > 0.0:
                        b = binom0 - math.log(lower)
                        b_lo = min(b_lo, b)
                        b_hi = max(b_hi, b)
                        if pm < math.exp(-b + binom0) * (1.0 - 1e-9):
                            violations += 1
    return violations, checked, (b_lo, b_hi)


def _binomial_pmf(n: int, q: float, m: int) -> Fraction:
    """Exact Pr(Bin(n, q) = m) for the binary value of q."""
    fq = Fraction(q)
    return math.comb(n, m) * fq**m * (1 - fq) ** (n - m)


def binomial_floor_check() -> tuple[int, int]:
    violations = 0
    checked = 0
    for n in (10, 50, 100):
        for q in (0.1, 0.37, 0.5):
            base = math.ceil(n * q)
            for m in range(base, min(n - 1, base + 5) + 1):
                pmf = float(_binomial_pmf(n, q, m))
                exact_log = binomial_point_lower(n, q, m, b=0.0).log_value
                refined = binomial_point_lower_refined(n, q, m).log_value
                checked += 1
                if not _close(math.exp(exact_log), pmf, 1e-12):
                    violations += 1
                if refined > math.log(pmf) + 1e-9:
                    violations += 1
    return violations, checked


def paley_zygmund_check(hists: dict | None = None) -> tuple[int, int]:
    violations = 0
    checked = 0
    n, q = 20, 0.3
    mean, var = n * q, n * q * (1 - q)
    for t in (1.0, 2.0, 3.0, 6.0):
        tail = range(math.ceil(mean - t), n + 1)
        lhs = float(sum(_binomial_pmf(n, q, j) for j in tail))
        checked += 1
        if lhs < paley_zygmund_lower(var, t) * (1.0 - 1e-12):
            violations += 1
    h = build_ap(10, 3)
    hist = _histogram(h, hists)
    for p in (0.3, 0.5):
        mu = exact_mean(h, p)
        var = exact_variance(h, p)
        for frac in (0.25, 0.5, 1.0):
            t = frac * mu
            if t <= 0:
                continue
            lhs = histogram_tail(hist, p, mu - t)
            checked += 1
            if lhs < paley_zygmund_lower(var, t) * (1.0 - 1e-12):
                violations += 1
    return violations, checked


def hypergeom_mean_check(ns: Iterable[int] = (10,), hists: dict | None = None) -> tuple[int, int]:
    """E[X | m kept] against the average of X over the m-subsets, from the histogram."""
    violations = 0
    checked = 0
    for n in ns:
        h = build_ap(n, 3)
        hist = _histogram(h, hists)
        for m in range(n + 1):
            total = sum(x * int(c) for x, c in enumerate(hist[m]))
            avg = total / math.comb(n, m)
            checked += 1
            if not _close(hypergeom_conditional_mean(h, m), avg, 1e-12):
                violations += 1
    return violations, checked


def mc_coverage_check(
    seed: int = 29, runs: int = 100, hists: dict | None = None
) -> tuple[int, int]:
    """99% Wilson CI covers the exact tail in >= 98% of seeded runs."""
    hits = 0
    h = build_ap(10, 3)
    hist = _histogram(h, hists)
    p, surplus = 0.3, 2.0
    thr = exact_mean(h, p) + surplus
    tail = histogram_tail(hist, p, thr)
    for i in range(runs):
        est = mc_tail(h, p, thr, 2000, seed=seed + i)
        if est.ci_low <= tail <= est.ci_high:
            hits += 1
    return hits, runs


def estimator_edge_checks(seed: int = 31) -> list[tuple[str, bool]]:
    spec = FamilySpec("ap", 10, 3)
    h = build(spec)
    p = 0.35
    mu = exact_mean(h, p)

    empty = Witness(hypergraph=h, subset=VertexSet(h.n), d_used=0.0, x=0.0)
    a = planted_tail(h, p, mu + 1, 4000, seed=seed, witness=empty)
    b = mc_tail(h, p, mu + 1, 4000, seed=seed)
    reduces = (a.p_hat, a.ci_low, a.ci_high) == (b.p_hat, b.ci_low, b.ci_high)

    w = interval_witness(spec, 3.0, h)
    sat = planted_tail(h, p, 3.0, 1000, seed=seed, witness=w)
    saturated = math.isclose(sat.p_hat, p ** len(w.subset), rel_tol=1e-12)

    eps_full = h.n / (h.n * p) - 1.0
    cond = conditioned_tail(h, p, float(h.num_edges), 500, seed=seed, eps=eps_full)
    full_set = math.isclose(cond.p_hat, p**h.n, rel_tol=1e-12)

    cond0 = conditioned_tail(h, p, 0.0, 500, seed=seed, eps=0.0)
    trivial = cond0.extra["conditional_hits"] == 500 and cond0.p_hat <= 1.0
    return [
        ("planted_empty_witness_is_mc", reduces),
        ("planted_saturated_witness", saturated),
        ("conditioned_full_vertex_set", full_set),
        ("conditioned_zero_threshold", trivial),
    ]


def lowerbounds_suite(
    seed: int = 17, samples: int = 20_000, hists: dict | None = None
) -> list[CheckResult]:
    out = []
    v, c = lower_estimates_check(seed, samples, hists)
    out.append(
        CheckResult("lowerbounds", "certified_below_exact", v == 0, f"{c} estimates")
    )
    v, c = witness_tail_check(hists=hists)
    out.append(
        CheckResult("lowerbounds", "witness_cluster_bound", v == 0, f"{c} grid rows")
    )
    v, c, (b_lo, b_hi) = clean_config_check(hists=hists)
    out.append(
        CheckResult(
            "lowerbounds",
            "clean_config_point_mass",
            v == 0,
            f"{c} rows, recovered b in [{b_lo:.3f}, {b_hi:.3f}]",
        )
    )
    v, c = binomial_floor_check()
    out.append(CheckResult("lowerbounds", "binomial_point_floor", v == 0, f"{c} rows"))
    v, c = paley_zygmund_check(hists)
    out.append(CheckResult("lowerbounds", "paley_zygmund_floor", v == 0, f"{c} rows"))
    v, c = hypergeom_mean_check(hists=hists)
    out.append(CheckResult("lowerbounds", "hypergeometric_mean", v == 0, f"{c} rows"))
    hits, runs = mc_coverage_check(hists=hists)
    out.append(
        CheckResult(
            "lowerbounds", "mc_ci_coverage", hits >= 98, f"{hits}/{runs} CIs covered"
        )
    )
    for name, ok in estimator_edge_checks():
        out.append(CheckResult("lowerbounds", name, ok))
    return out


SUITES: dict[str, Callable[[], list[CheckResult]]] = {
    "phi": phi_suite,
    "variance": variance_suite,
    "sandwich": sandwich_suite,
    "bk": bk_suite,
    "cascade": cascade_suite,
    "lowerbounds": lowerbounds_suite,
}


# The suites that read exact histograms; run_suites hands them one shared memo.
_READS_EXACT = ("variance", "sandwich", "lowerbounds")


def run_suites(names: Iterable[str] | None = None) -> list[CheckResult]:
    """Run the named suites (all by default) in order; each distinct graph is
    enumerated at most once per call."""
    # A repeated name runs once, at its first place.
    picked = tuple(dict.fromkeys(names)) if names is not None else tuple(SUITES)
    hists: dict = {}
    results = []
    for name in picked:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
        suite = SUITES[name]
        results.extend(suite(hists=hists) if name in _READS_EXACT else suite())
    return results
