"""Named verification suites: phi, variance, sandwich, bk, cascade, lowerbounds.

Each suite re-derives its claims from scratch (exact enumeration wherever the
instance is small enough).  CHECKS gives each suite its tuple of checks, in
printed order: zero-argument callables, each returning a list of
CheckResult; SUITES[name]() is run_suites([name]).  A CheckResult holds
the pass verdict and detail line and, for a check that counts cases, how
many it checked, how many violated its claim and how many were active
(non-vacuous).  A counted check hands its cases to one tally
(_tally), which sums their counts, applies the pass rule and fills one
str.format template with the totals and any figure the check names; only
mc_coverage_check, whose rule allows two misses, counts for itself.  The CLI
`verify` subcommand and the test suite both run these.

No check takes a memo argument: run_suites installs one (_RUN_MEMO) for the
length of a run and drops it when the run ends; outside a run, a check
computes its own exact tables.  run_suites spreads the checks of the named
suites, one item each, over forked worker processes
(uppertail.workers.spread), each with its own memo, and joins their results
in CHECKS order; the results, and so the CLI's output, are the same at any
worker count.

The five sampled checks (sandwich, M_r <= Z, three cascade) draw every
p-subset through _sampled: one raw-word draw from stream 0 of the check's
seed, split over its cases in order, and one induced-edge pass per graph.

Frozen regression constants below were measured once on the exact grids the
suites replay; they are rounded outward (intervals) or inward (lower bounds)
by about 0.5% so reruns only fail on a real regression, not float noise.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, cycle, islice, product

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
    xr_exact,
    xr_or_lower,
)
from .disjointness import (
    EventTable,
    box,
    degree_events,
    event_probabilities,
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
from .families import FamilySpec, build, build_ap, build_schur, interval_witness
from .hypergraph import (
    Hypergraph,
    VertexSet,
    check_positive,
    delta_j,
    induced_mask,
    membership_table,
)
from .rng import p_keep, stream_generator
from .workers import spread

__all__ = ["CHECKS", "CheckResult", "SUITES", "run_suites"]

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
    """One named check.  A check that counts cases also reports how many it
    checked, how many broke its claim, and how many were active (non-vacuous: a
    positive tail, an exact X_r, a true cascade verdict, a fully dyadic sample).
    """

    suite: str
    name: str
    ok: bool
    detail: str = ""
    checked: int | None = None
    violations: int | None = None
    active: int | None = None


def _ge(a: float, b: float, rel: float = 1e-12) -> bool:
    """a >= b up to relative float slack."""
    return a >= b - rel * max(abs(a), abs(b))


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1.0)


def _tally(
    suite: str, name: str, cases: Iterable[tuple[int, int, int]], detail: str,
    need_active: bool | None = None, **figures: float,
) -> CheckResult:
    """The result of a counted check, from its cases.

    Each case is (checked, violations, active), in CheckResult's order: the
    cases it stands for (1, or a weight), how many of them break the check's
    claim and how many are active.  The check passes when none breaks it and,
    with need_active, some case is active; need_active None counts no active
    cases (active None).  detail is a str.format template over the totals and
    the figures named.
    """
    checked = violations = active = 0
    for case_checked, case_violations, case_active in cases:
        checked += case_checked
        violations += case_violations
        active += case_active
    totals = {"checked": checked, "violations": violations, "active": None if need_active is None else active}
    ok = violations == 0 and (not need_active or active > 0)
    return CheckResult(suite, name, ok, detail.format(**totals, **figures), **totals)


_POSITIVE_ROWS = "{checked} grid rows, {active} with positive tail"


_RUN_MEMO: dict | None = None  # (fn, h) -> fn(h) while run_suites runs, else None


def _memoized(fn: Callable, h: Hypergraph):
    """fn(h), kept under (fn, h) in _RUN_MEMO, so each distinct graph's exact
    histogram (edge_count_histogram) and induced edge sets (_induced_edge_sets)
    are computed once per run in each process; outside a run, once per call.
    Callers pass fn as looked up in this module, so a patched global computes
    and keys it."""
    memo = _RUN_MEMO  # read once: a run ending meanwhile only costs a recomputation
    if memo is None:
        return fn(h)
    key = (fn, h)
    if key not in memo:
        memo[key] = fn(h)
    return memo[key]


# ---------------------------------------------------------------- phi suite


def phi_grid_checks() -> list[CheckResult]:
    quad = half = square = third = logx = True
    for x in np.logspace(-8.0, 4.0, 10_000):
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
    grid = "10000 log-grid points in [1e-8, 1e4]"
    return [
        CheckResult("phi", "lower_quadratic", quad, grid),
        CheckResult("phi", "half_argument", half, grid),
        CheckResult("phi", "upper_square", square, grid),
        CheckResult("phi", "lower_min_third", third, grid),
        CheckResult("phi", "lower_half_xlogx", logx, grid + ", x >= e^2"),
    ]


def bennett_chain_checks() -> list[CheckResult]:
    chain = True
    hg_consistent = True
    for mu in (0.25, 1.0, 7.5, 120.0):
        for cap in (1.0, 2.0, 8.0):
            for t in (0.1, 1.0, 10.0, 300.0):
                main, *other = (rep.log_value for rep in theorem_c_bound(mu, cap, t))
                if any(main > o + 1e-9 for o in other):
                    chain = False
                if not _ge(t * t, phi(t / mu) * mu * mu):
                    hg_consistent = False
                if exponent_hg(mu, 1.0, 0.5, t)[0] < 0:
                    hg_consistent = False
    return [
        CheckResult("phi", "bennett_chain", chain, "48 (mu, C, t) combinations"),
        CheckResult("phi", "degree_exponent_consistency", hg_consistent),
    ]


# ----------------------------------------------------------- variance suite


def moments_check(spec: FamilySpec) -> CheckResult:
    """exact_mean and exact_variance against the enumerated moments at 11 p."""
    h = build(spec)
    hist = _memoized(edge_count_histogram, h)
    x = np.arange(hist.shape[1])
    first, second = hist @ x, hist @ (x * x)
    errs = []
    for i in range(11):
        p = i / 10.0
        mean_e = size_weighted_sum(first, p)
        var_e = size_weighted_sum(second, p) - mean_e * mean_e
        mean_err = abs(exact_mean(h, p) - mean_e) / max(abs(mean_e), 1.0)
        var_err = abs(exact_variance(h, p) - var_e) / max(abs(var_e), 1.0)
        errs.append(max(mean_err, var_err))
    name = f"moments_{spec.kind}_{spec.n}_{spec.k if spec.kind == 'ap' else spec.ell}"
    cases = [(1, err > 1e-10, 0) for err in errs]
    return _tally("variance", name, cases, "worst rel err {worst:.2e} over 11 p", worst=max(errs))


# ----------------------------------------------------------- sandwich suite


def _sampled(seed: int, cases: Iterable[tuple]) -> list[tuple[tuple, int, tuple[int, ...]]]:
    """Each (p, ..., h) case with the vertex bits of a p-subset of h and the
    ids of the edges that subset induces, drawn in case order from stream 0
    of seed: the one path by which every sampled check draws.

    One raw-word draw, split per case, reads the words successive sample_vp
    calls would, and rng.p_keep keeps a vertex by their compare; each graph's
    cases then go through one induced pass as a stack of masks.
    """
    cases = list(cases)
    sizes = [case[-1].n for case in cases]
    raw = stream_generator(seed, 0).bit_generator.random_raw(sum(sizes))
    draws = np.split(raw, np.cumsum(sizes)[:-1])
    by_graph: dict[Hypergraph, list[int]] = {}
    for i, case in enumerate(cases):
        by_graph.setdefault(case[-1], []).append(i)
    out: list = [None] * len(cases)
    for h, picked in by_graph.items():
        member = np.array([p_keep(draws[i], cases[i][0]) for i in picked])
        packed = np.packbits(member, axis=1, bitorder="little")
        for i, row, inside in zip(picked, packed, induced_mask(h, member)):
            bits = int.from_bytes(row.tobytes(), "little")
            out[i] = (cases[i], bits, tuple(np.flatnonzero(inside).tolist()))
    return out


def sandwich_sample_check(seed: int, count: int) -> CheckResult:
    """Sampled (H, S, r) triples obey the degree-prune sandwich; active counts
    the triples whose X_r is exact."""
    hs = [build_ap(n, 3) for n in (10, 16, 22, 28, 34, 40)]
    picks = islice(cycle(product((0.15, 0.3, 0.5), (1.0, 2.0, 3.0, 5.0), hs)), count)

    def cases():
        for (_, r, h), _, ids in _sampled(seed, picks):
            x = len(ids)
            delta1 = induced_max_degree(h, ids)
            pruned = degree_prune(h, ids, r)
            g0 = len(pruned.kept_edge_ids)
            xr, exact = xr_or_lower(h, ids, r)
            slack = h.k * math.ceil(r) * pruned.matching.size * delta1
            lower_ok = g0 <= xr <= x
            upper_ok = x <= xr + (slack if delta1 > r else 0)
            greedy_ok = x <= g0 + slack
            yield 1, not (lower_ok and upper_ok and greedy_ok), exact

    detail = "{checked} sampled triples, {active} with exact X_r, {violations} violations"
    return _tally("sandwich", "degree_prune_sandwich", cases(), detail, need_active=False)


def _induced_edge_sets(h: Hypergraph) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """The distinct induced edge-id sets over all 2^n subsets, and
    index[code] = the position of code's set among them.

    One array pass: row code of the (2^n, e) inside-matrix, induced_mask of
    code's membership mask, marks the edges inside code, and np.unique groups
    equal rows.  The sets come back in np.unique's sorted row order, not in
    order of first appearance; callers only add integer counts per set.
    """
    rows, index = np.unique(induced_mask(h, membership_table(h.n)), axis=0, return_inverse=True)
    index.flags.writeable = False  # a run's checks share it, like the histograms
    return [tuple(np.flatnonzero(row).tolist()) for row in rows], index.reshape(-1)


def degree_matching_equivalence_check(ns: Iterable[int] = (10,)) -> CheckResult:
    """All subsets, z in {1,2,3}: Delta_1 >= ceil(z) iff M_z >= 1.  A case is
    one induced edge set at one z, weighted by the subsets that induce it."""
    def cases():
        for n in ns:
            for h in (build_ap(n, 3), build_schur(n)):
                sets, index = _memoized(_induced_edge_sets, h)
                for ids, subsets in zip(sets, np.bincount(index).tolist()):
                    d1 = induced_max_degree(h, ids)
                    for z in (1, 2, 3):
                        yield subsets, subsets * ((d1 >= z) != (mr_exact(h, ids, float(z)) >= 1)), 0

    return _tally("sandwich", "degree_matching_equivalence", cases(), "{checked} subset checks")


def _mr_by_code(h: Hypergraph, r: float) -> np.ndarray:
    """m[S] = M_r(H[S]) for every subset code S, by one exact set-packing pass.

    A star's vertex mask is the union of ceil(r) edges at one vertex; it lies
    in S iff all its edges are induced.  In a best packing of S the lowest
    vertex v of S is either uncovered or covered by exactly one star X, whose
    lowest vertex is then v, so m[S] = max(m[S ^ v], 1 + m[S ^ X]) over those
    X inside S.  S ^ v and S ^ X have lowest vertex above v, so the pass fills
    the codes with lowest vertex v for v from n - 1 down to 0.
    """
    check_positive(r=r)
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


def xr_tail_check() -> CheckResult:
    """Exact Pr(X_r >= mu + t/2) against the Bennett-over-4kr bound."""
    def cases():
        for h in (build_ap(10, 3), build_schur(10)):
            sets, index = _memoized(_induced_edge_sets, h)
            for r in (1.0, 2.0, 3.0):
                hist = _size_value_hist(np.array([xr_exact(h, ids, r) for ids in sets])[index])
                for p in (0.1, 0.3, 0.5, 0.7):
                    mu = exact_mean(h, p)
                    for t in (1.0, 3.0, 9.0, 27.0):
                        lhs = histogram_tail(hist, p, mu + t / 2.0)
                        main = math.exp(-phi(t / mu) * mu / (4.0 * h.k * r))
                        weak = math.exp(-min(t, t * t / mu) / (12.0 * h.k * r))
                        yield 1, lhs > main * (1.0 + 1e-9) or main > weak * (1.0 + 1e-9), lhs > 0.0

    return _tally("sandwich", "xr_tail_bound", cases(), _POSITIVE_ROWS, need_active=False)


def mr_tail_check(n: int = 12) -> CheckResult:
    """Exact Pr(M_r >= y) against Phi_r^ceil(y)/ceil(y)! and its Stirling form.

    M_r of every subset comes from one set-packing pass over all 2^n codes
    (_mr_by_code), not from a branch-and-bound search per induced edge set;
    degree_matching_equivalence_check still runs that search on every subset.
    """
    def cases():
        for h in (build_ap(n, 3), build_schur(n)):
            for r in (1.0, 2.0, 3.0):
                # degree_events refuses n > BOX_COORD_BUDGET before the 2^n pass.
                events = degree_events(h, math.ceil(r))
                hist = _size_value_hist(_mr_by_code(h, r))
                for p in (0.1, 0.3, 0.5, 0.7):
                    phi_r = math.fsum(event_probabilities(events, [p] * n))
                    for y in (0.5, 1.0, 2.0, 3.0):
                        cy = math.ceil(y)
                        lhs = histogram_tail(hist, p, y)
                        mid = phi_r**cy / math.factorial(cy)
                        stirling = (math.e * phi_r / cy) ** cy / math.sqrt(2.0 * math.pi * cy)
                        yield 1, lhs > mid * (1.0 + 1e-9) or mid > stirling * (1.0 + 1e-9), lhs > 0.0

    return _tally("sandwich", "mr_tail_bound", cases(), _POSITIVE_ROWS, need_active=False)


def mrh_conditional_check() -> CheckResult:
    """Degree-tail bound for M_x under the (B n p^{k-1} / r)^r <= n^{-8kD}
    precondition, with B = 1 and p chosen at 90% of the cap."""
    def cases():
        for kind, n, r in MRH_COMBOS:
            h = build(FamilySpec(kind, n))
            k = h.k
            d = max(delta_j(h, 2), 1)
            p = 0.9 * math.sqrt(r * n ** (-8.0 * k * d / r) / n)
            if (n * p ** (k - 1) / r) ** r > n ** (-8.0 * k * d):
                yield 0, 1, 0  # a p off its precondition: one violation, no grid row
                continue
            union = 0
            for event in degree_events(h, math.ceil(r)):
                union |= event.table
            pr_ge_1 = event_probabilities([EventTable(n, union)], [p] * n)[0]
            mr_full = mr_exact(h, tuple(range(h.num_edges)), r)
            for y in (0.5, 1.0, 2.0, 3.0):
                if y <= 1.0:
                    lhs = pr_ge_1
                elif mr_full < y:
                    lhs = 0.0
                else:  # pragma: no cover - combos chosen so two stars cannot fit
                    raise AssertionError("unexpected feasible multi-star instance")
                rhs = (n * p ** (k - 1) / (math.e * r)) ** (r * y / (2.0 * k * d))
                rhs /= n * n * max(y, 1.0) ** 1.5
                yield 1, lhs > rhs * (1.0 + 1e-9), lhs > 0.0

    return _tally("sandwich", "mr_degree_tail_conditional", cases(), _POSITIVE_ROWS, need_active=True)


def variance_ratio_check() -> CheckResult:
    """exact_variance / ((1-p) lam) over AP(n,3) lies in the frozen interval."""
    lo, hi = math.inf, -math.inf
    for n in VAR_RATIO_NS:
        h = build_ap(n, 3)
        for p in GRID_PS:
            mu = exact_mean(h, p)
            lam = mu * (1.0 + n * p * p)
            ratio = exact_variance(h, p) / ((1.0 - p) * lam)
            lo = min(lo, ratio)
            hi = max(hi, ratio)
    return CheckResult(
        "sandwich",
        "variance_ratio_interval",
        VAR_RATIO_LOW <= lo and hi <= VAR_RATIO_HIGH,
        f"measured [{lo:.6f}, {hi:.6f}] within [{VAR_RATIO_LOW}, {VAR_RATIO_HIGH}]",
    )


def tail_exponent_check() -> CheckResult:
    """Per-eps minimum of -ln(exact tail) / min(mu, sqrt(mu) ln(e/p)) stays
    above its frozen floor."""
    minima = {eps: math.inf for eps in TAIL_SANDWICH_EPS}
    for n in TAIL_SANDWICH_NS:
        h = build_ap(n, 3)
        hist = _memoized(edge_count_histogram, h)
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
    ok = all(
        minima[eps] >= TAIL_SANDWICH_C[eps] and math.isfinite(minima[eps])
        for eps in TAIL_SANDWICH_EPS
    )
    detail = ", ".join(
        f"eps={eps}: {minima[eps]:.5f} >= {TAIL_SANDWICH_C[eps]}" for eps in TAIL_SANDWICH_EPS
    )
    return CheckResult("sandwich", "tail_exponent_floor", ok, detail)


# ----------------------------------------------------------------- bk suite


def bk_random_pairs() -> CheckResult:
    """200 random event pairs on 8 coordinates under three product measures.  A
    box product outside the intersection of A and B, or one that depends on
    argument order, is a case of weight 0; each BK comparison is a case."""
    rng = stream_generator(10, 0)
    measures = [[0.5] * 8, [0.3] * 8, [float(x) for x in rng.uniform(0.1, 0.9, size=8)]]
    cases, triples = [], []
    for _ in range(200):
        a = EventTable(8, int.from_bytes(rng.bytes(32), "little"))
        b = EventTable(8, int.from_bytes(rng.bytes(32), "little"))
        ab = box(a, b)
        cases.append((0, bool(ab.table & ~(a.table & b.table)) + (ab != box(b, a)), 0))
        triples += [ab, a, b]
    # The BK inequality Pr(A box B) <= Pr(A) Pr(B) + 1e-12, on the box products held.
    for probs in measures:
        probabilities = iter(event_probabilities(triples, probs))
        cases += [(1, not p_ab <= p_a * p_b + 1e-12, 0) for p_ab, p_a, p_b in zip(*[probabilities] * 3)]
    return _tally("bk", "random_pairs", cases, "200 pairs, {checked} measure checks")


def box_identity_checks() -> list[CheckResult]:
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
    rng = stream_generator(3, 0)
    mono = True
    for _ in range(30):
        a = EventTable(6, int.from_bytes(rng.bytes(8), "little"))
        b = EventTable(6, int.from_bytes(rng.bytes(8), "little"))
        bigger = EventTable(6, a.table | int.from_bytes(rng.bytes(8), "little"))
        if box(a, b).table & ~box(bigger, b).table:
            mono = False
    checks.append(("box_monotone", mono))
    return [CheckResult("bk", name, ok) for name, ok in checks]


def mr_z_sample_check() -> CheckResult:
    """M_r <= Z on 200 sampled (H, S, r) over AP(8,3) and Schur(8)."""
    hs = (build_ap(8, 3), build_schur(8))
    rs = (1.0, 2.0, 3.0)
    # Stars certify their centers' degree events on disjoint vertex sets: M_r <= Z.
    by_case = {(h, r): degree_events(h, math.ceil(r)) for h in hs for r in rs}

    def cases():
        for (_, r, h), bits, ids in _sampled(11, islice(cycle(product((0.6,), rs, hs)), 200)):
            yield 1, mr_exact(h, ids, r) > z_disjoint(by_case[h, r], bits), 0

    return _tally("bk", "mr_le_z_sampled", cases(), "{checked} sampled (H,S,r)")


# ------------------------------------------------------------ cascade suite


def cascade_consistency_check(seed: int, samples: int) -> CheckResult:
    """Whenever the cascade event holds (beta = 1/(32k), r >= 1), X <= X_r + t/2.

    active counts the true verdicts; the detail also gives the indeterminate ones.
    """
    hs = (build_ap(10, 3), build_schur(10))
    combos = ((1.0, 4.0), (1.0, 9.0), (2.0, 4.0), (1.5, 6.25))
    picks = islice(cycle(product((0.15, 0.25, 0.35), combos, hs)), samples)
    beta = 1.0 / (32.0 * 3)
    verdicts, cases = [], []
    for (p, (r, t), h), _, ids in _sampled(seed, picks):
        params = CascadeParams(beta=beta, gamma=0.125, r=r, t=t, p=p)
        verdicts.append(verdict := check_cascade_event(h, ids, params).verdict)
        cases.append((1, bool(verdict) and len(ids) > xr_exact(h, ids, r) + t / 2.0 + 1e-9, bool(verdict)))
    detail = "{checked} samples, {active} true verdicts, {indet} indeterminate, {violations} violations"
    indet = verdicts.count(None)
    return _tally("cascade", "event_implies_xr_bound", cases, detail, need_active=True, indet=indet)


def cascade_accounting_check() -> CheckResult:
    """Per-level removal accounting on 50 samples of AP(40,3); active counts the
    samples whose every level is within the dyadic form."""
    picks = islice(cycle(product((0.2,), (16.0, 36.0), (build_ap(40, 3),))), 50)

    def cases():
        for (_, t, h), _, ids in _sampled(14, picks):
            params = CascadeParams(beta=1.0, gamma=0.125, r=1.5, t=t, p=0.2)
            res = cascade_prune(h, ids, params)
            dyadic = [lv.delta1_before <= 2.0 * lv.r_j and lv.r_j >= 0.5 for lv in res.levels]
            broken = [
                sum(lv.removed for lv in res.levels) != len(ids) - len(res.kept_edge_ids),
                induced_max_degree(h, res.kept_edge_ids) > math.floor(params.r),
            ]
            for lv, form in zip(res.levels, dyadic):
                broken.append(lv.removed > lv.matching_size * h.k * math.ceil(lv.r_j) * lv.delta1_before)
                broken.append(form and lv.removed > lv.matching_size * 4.0 * h.k * lv.r_j**2)
            yield 1, sum(broken), all(dyadic)

    detail = "{checked} samples, {active} fully within the dyadic form"
    return _tally("cascade", "removal_accounting", cases(), detail, need_active=True)


def cascade_trivial_checks() -> list[CheckResult]:
    h = build_ap(14, 3)
    # One p = 0.5 subset, then up to 200 at p = 0.25, all on one stream.
    (_, _, ids), *sparse = _sampled(5, [(0.5, h)] + [(0.25, h)] * 200)
    params = CascadeParams(beta=0.5, gamma=0.1, r=2.0, t=4.0, p=0.5)
    res = cascade_prune(h, ids, params)
    single = (
        res.level_count == 0
        and len(res.levels) == 1
        and res.levels[0].r_j == 2.0
        and res.kept_edge_ids == degree_prune(h, ids, 2.0).kept_edge_ids
    )

    # On the first sampled subset whose induced edges are disjoint, nothing is pruned.
    identity = False
    for _, _, ids in sparse:
        if ids and induced_max_degree(h, ids) == 1:
            params2 = CascadeParams(beta=0.5, gamma=0.1, r=1.5, t=9.0, p=0.25)
            res2 = cascade_prune(h, ids, params2)
            identity = res2.kept_edge_ids == ids and all(
                level.matching_size == 0 for level in res2.levels
            )
            break
    return [
        CheckResult("cascade", "single_level_when_t_le_r_squared", single),
        CheckResult("cascade", "identity_below_degree", identity),
    ]


# -------------------------------------------------------- lowerbounds suite


def lower_estimates_check() -> CheckResult:
    """planted/conditioned estimates (20,000 samples) never exceed the exact tail."""
    instances = (
        (FamilySpec("ap", 12, 3), 0.3, 3.0),
        (FamilySpec("schur", 12), 0.25, 2.0),
        (FamilySpec("ell_sum", 12, ell=2), 0.4, 2.0),
    )

    def cases():
        for i, (spec, p, t) in enumerate(instances):
            h = build(spec)
            mu = exact_mean(h, p)
            thr = mu + t
            tail = histogram_tail(_memoized(edge_count_histogram, h), p, thr)
            w = interval_witness(spec, planting_target(mu, t, h.k, None), h)
            yield 1, planted_tail(h, p, thr, 20_000, seed=17 + i, forced=w.subset).p_hat > tail + 1e-12, 0
            for eps in (0.0, 0.5):
                yield 1, conditioned_tail(h, p, thr, 20_000, seed=27 + i, eps=eps).p_hat > tail + 1e-12, 0

    return _tally("lowerbounds", "certified_below_exact", cases(), "{checked} estimates")


def witness_tail_check() -> CheckResult:
    """Exact tail >= exp(-D sqrt(mu+t) ln(1/p)) from the interval witness."""
    def cases():
        for n in (16, 20, 24):
            spec = FamilySpec("ap", n, 3)
            h = build(spec)
            hist = _memoized(edge_count_histogram, h)
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
                    yield 1, tail < math.exp(bound.log_value) * (1.0 - 1e-9), 0

    return _tally("lowerbounds", "witness_cluster_bound", cases(), "{checked} grid rows")


def clean_config_check(ns: Iterable[int] = (12,), ms: Iterable[int] = (0, 1, 2)) -> CheckResult:
    """exact Pr(X=m) >= clean-config bound; also recovers the per-instance b."""
    cases, bs = [], []
    for n in ns:
        for h in (build_ap(n, 3), build_schur(n)):
            hist = _memoized(edge_count_histogram, h)
            clean = clean_config_histogram(h)
            for p in (0.1, 0.2, 0.3):
                for m in ms:
                    lower = histogram_point_mass(clean, p, m)
                    cases.append((1, histogram_point_mass(hist, p, m) < lower * (1.0 - 1e-9), 0))
                    if lower > 0.0:
                        binom0 = binomial_point_lower(h.num_edges, p**h.k, m, b=0.0).log_value
                        bs.append(binom0 - math.log(lower))  # the b at which the floor equals lower
    detail = "{checked} rows, recovered b in [{lo:.3f}, {hi:.3f}]"
    return _tally("lowerbounds", "clean_config_point_mass", cases, detail, lo=min(bs, default=math.inf),
                  hi=max(bs, default=-math.inf))


def _binomial_pmf(n: int, q: float, m: int) -> Fraction:
    """Exact Pr(Bin(n, q) = m) for the binary value of q."""
    fq = Fraction(q)
    return math.comb(n, m) * fq**m * (1 - fq) ** (n - m)


def binomial_floor_check() -> CheckResult:
    def cases():
        for n in (10, 50, 100):
            for q in (0.1, 0.37, 0.5):
                base = math.ceil(n * q)
                for m in range(base, min(n - 1, base + 5) + 1):
                    pmf = float(_binomial_pmf(n, q, m))
                    exact_log = binomial_point_lower(n, q, m, b=0.0).log_value
                    refined = binomial_point_lower_refined(n, q, m).log_value
                    broken = not _close(math.exp(exact_log), pmf, 1e-12)
                    yield 1, broken + (refined > math.log(pmf) + 1e-9), 0

    return _tally("lowerbounds", "binomial_point_floor", cases(), "{checked} rows")


def paley_zygmund_check() -> CheckResult:
    def cases():
        n, q = 20, 0.3
        mean, var = n * q, n * q * (1 - q)
        for t in (1.0, 2.0, 3.0, 6.0):
            lhs = float(sum(_binomial_pmf(n, q, j) for j in range(math.ceil(mean - t), n + 1)))
            yield 1, lhs < paley_zygmund_lower(var, t) * (1.0 - 1e-12), 0
        h = build_ap(10, 3)
        hist = _memoized(edge_count_histogram, h)
        for p in (0.3, 0.5):
            mu = exact_mean(h, p)
            var = exact_variance(h, p)
            for frac in (0.25, 0.5, 1.0):
                t = frac * mu
                if t <= 0:
                    continue
                lhs = histogram_tail(hist, p, mu - t)
                yield 1, lhs < paley_zygmund_lower(var, t) * (1.0 - 1e-12), 0

    return _tally("lowerbounds", "paley_zygmund_floor", cases(), "{checked} rows")


def hypergeom_mean_check(ns: Iterable[int] = (10,)) -> CheckResult:
    """E[X | m kept] against the average of X over the m-subsets, from the histogram."""
    def cases():
        for n in ns:
            h = build_ap(n, 3)
            hist = _memoized(edge_count_histogram, h)
            for m in range(n + 1):
                avg = sum(x * int(c) for x, c in enumerate(hist[m])) / math.comb(n, m)
                yield 1, not _close(hypergeom_conditional_mean(h, m), avg, 1e-12), 0

    return _tally("lowerbounds", "hypergeometric_mean", cases(), "{checked} rows")


def mc_coverage_check() -> CheckResult:
    """99% Wilson CI covers the exact tail in >= 98 of 100 seeded runs."""
    misses = 0
    h = build_ap(10, 3)
    hist = _memoized(edge_count_histogram, h)
    p, surplus = 0.3, 2.0
    thr = exact_mean(h, p) + surplus
    tail = histogram_tail(hist, p, thr)
    for i in range(100):
        est = mc_tail(h, p, thr, 2000, seed=29 + i)
        if not est.ci_low <= tail <= est.ci_high:
            misses += 1
    detail = f"{100 - misses}/100 CIs covered"
    return CheckResult("lowerbounds", "mc_ci_coverage", misses <= 2, detail, 100, misses)


def estimator_edge_checks() -> list[CheckResult]:
    seed = 31
    spec = FamilySpec("ap", 10, 3)
    h = build(spec)
    p = 0.35
    mu = exact_mean(h, p)

    a = planted_tail(h, p, mu + 1, 4000, seed=seed, forced=VertexSet(h.n))
    b = mc_tail(h, p, mu + 1, 4000, seed=seed)
    reduces = (a.p_hat, a.ci_low, a.ci_high) == (b.p_hat, b.ci_low, b.ci_high)

    w = interval_witness(spec, 3.0, h)
    sat = planted_tail(h, p, 3.0, 1000, seed=seed, forced=w.subset)
    saturated = math.isclose(sat.p_hat, p ** len(w.subset), rel_tol=1e-12)

    eps_full = h.n / (h.n * p) - 1.0
    cond = conditioned_tail(h, p, float(h.num_edges), 500, seed=seed, eps=eps_full)
    full_set = math.isclose(cond.p_hat, p**h.n, rel_tol=1e-12)

    cond0 = conditioned_tail(h, p, 0.0, 500, seed=seed, eps=0.0)
    trivial = cond0.extra["conditional_hits"] == 500 and cond0.p_hat <= 1.0
    return [
        CheckResult("lowerbounds", "planted_empty_witness_is_mc", reduces),
        CheckResult("lowerbounds", "planted_saturated_witness", saturated),
        CheckResult("lowerbounds", "conditioned_full_vertex_set", full_set),
        CheckResult("lowerbounds", "conditioned_zero_threshold", trivial),
    ]


def _one(check: Callable[..., CheckResult], *args) -> Callable[[], list[CheckResult]]:
    """check(*args) as a zero-argument check that returns a list."""
    return lambda: [check(*args)]


# Each suite's checks, in printed order: the one list of what a suite runs.
CHECKS: dict[str, tuple[Callable[[], list[CheckResult]], ...]] = {
    "phi": (phi_grid_checks, bennett_chain_checks),
    "variance": tuple(_one(moments_check, spec) for spec in VARIANCE_INSTANCES),
    "sandwich": (
        _one(sandwich_sample_check, 7, 2000),
        _one(degree_matching_equivalence_check),
        _one(xr_tail_check),
        _one(mr_tail_check),
        _one(mrh_conditional_check),
        _one(variance_ratio_check),
        _one(tail_exponent_check),
    ),
    "bk": (_one(bk_random_pairs), box_identity_checks, _one(mr_z_sample_check)),
    "cascade": (
        _one(cascade_consistency_check, 13, 400),
        _one(cascade_accounting_check),
        cascade_trivial_checks,
    ),
    "lowerbounds": (
        _one(lower_estimates_check),
        _one(witness_tail_check),
        _one(clean_config_check),
        _one(binomial_floor_check),
        _one(paley_zygmund_check),
        _one(hypergeom_mean_check),
        _one(mc_coverage_check),
        estimator_edge_checks,
    ),
}


def _serial(name: str) -> Callable[[], list[CheckResult]]:
    """run_suites([name]) as a plain zero-argument function."""
    def suite() -> list[CheckResult]:
        return run_suites([name])

    return suite


SUITES: dict[str, Callable[[], list[CheckResult]]] = {name: _serial(name) for name in CHECKS}


def run_suites(names: Iterable[str] | None = None, workers: int = 1) -> list[CheckResult]:
    """Run the named suites (all by default); their results, in the order
    named and, within a suite, in CHECKS order.  The checks of every named
    suite are spread one by one over min(workers, cpu count, checks)
    processes (uppertail.workers.spread), so one suite's checks may run in
    several; the results are the same at any count.  Each distinct graph is
    enumerated, and its induced edge sets grouped, at most once per process
    in a call.  Every name is checked before any check runs."""
    global _RUN_MEMO
    # A repeated name runs once, at its first place.
    picked = tuple(dict.fromkeys(names)) if names is not None else tuple(CHECKS)
    for name in picked:
        if name not in CHECKS:
            raise ValueError(f"unknown suite {name!r}; choose from {sorted(CHECKS)}")
    checks = [check for name in picked for check in CHECKS[name]]
    _RUN_MEMO = {}
    try:
        done = spread(lambda i: checks[i](), len(checks), workers)
        return [result for results in done for result in results]
    finally:
        _RUN_MEMO = None
