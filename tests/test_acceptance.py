"""Acceptance gate: one test per criterion, each printing an ACCEPT-nn line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines on a passing run.  The randomized instance pool is seeded, so every
run checks the same instances.
"""

import functools
import io
import math
import random
import time
from contextlib import redirect_stdout

from scipy.stats import binom

import oracles
from uppertail.bounds import exact_mean, exact_variance, phi, theorem_c_bound
from uppertail.cli import main as cli_main
from uppertail.estimate import (
    conditioned_tail,
    edge_count_histogram,
    exact_tail,
    histogram_tail,
    planted_tail,
    planting_target,
)
from uppertail.families import FamilySpec, build, interval_witness
from uppertail.hypergraph import Hypergraph
from uppertail.verify import (
    SUITES,
    bk_random_pairs,
    box_identity_checks,
    cascade_consistency_check,
    clean_config_check,
    degree_matching_equivalence_check,
    hypergeom_mean_check,
    mr_tail_check,
    sandwich_sample_check,
    witness_tail_check,
)

INSTANCE_SEED = 20250825
INSTANCE_COUNT = 50
REL_TOL = 1e-10


def _report(num: int, ok: bool, detail: str = "") -> None:
    line = f"ACCEPT-{num:02d} {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  {detail}"
    print(line)
    assert ok, line


@functools.lru_cache(maxsize=1)
def _instances() -> tuple[tuple[FamilySpec, float], ...]:
    """50 seeded (family, p) instances on at most 16 vertices."""
    rng = random.Random(INSTANCE_SEED)
    kinds = ("ap3", "ap4", "schur", "ell1", "ell2", "ell3")
    out = []
    while len(out) < INSTANCE_COUNT:
        kind = rng.choice(kinds)
        n = rng.randint(8, 16)
        if kind == "ap3":
            spec = FamilySpec("ap", n, 3)
        elif kind == "ap4":
            spec = FamilySpec("ap", n, 4)
        elif kind == "schur":
            spec = FamilySpec("schur", n)
        else:
            spec = FamilySpec("ell_sum", n, ell=int(kind[-1]))
        if build(spec).num_edges < 2:
            continue
        p = rng.choice((0.1, 0.2, 0.3, 0.4, 0.5, 0.6))
        out.append((spec, p))
    return tuple(out)


@functools.lru_cache(maxsize=None)
def _oracle_hist(spec: FamilySpec):
    h = build(spec)
    return oracles.size_value_histogram([tuple(e) for e in h.edges], h.n)


def _rel_err(a: float, b: float) -> float:
    big = max(abs(a), abs(b))
    return 0.0 if big == 0.0 else abs(a - b) / big


def test_accept_01_exact_oracle_agreement():
    start = time.perf_counter()
    worst = 0.0
    checked = 0
    for spec, p in _instances():
        h = build(spec)
        hist = _oracle_hist(spec)
        counts = edge_count_histogram(h)  # one enumeration per instance
        for twice in range(0, 2 * h.num_edges + 3):
            thr = twice / 2.0
            want = oracles.tail_from_histogram(hist, h.n, p, thr)
            # One threshold per instance goes through the one-shot exact_tail.
            one_shot = twice == h.num_edges
            got = exact_tail(h, p, thr).p_hat if one_shot else histogram_tail(counts, p, thr)
            worst = max(worst, _rel_err(got, want))
            checked += 1
    elapsed = time.perf_counter() - start
    _report(
        1,
        worst <= REL_TOL and elapsed <= 60.0,
        f"{len(_instances())} instances, {checked} thresholds, "
        f"max rel err {worst:.2e}, {elapsed:.1f}s",
    )


def test_accept_02_variance_identity():
    worst = 0.0
    checked = 0
    for spec, _ in _instances():
        h = build(spec)
        hist = _oracle_hist(spec)
        for i in range(11):
            p = i / 10.0
            _, want = oracles.naive_moments(hist, h.n, p)
            got = exact_variance(h, p)
            worst = max(worst, _rel_err(got, want) if max(abs(got), abs(want)) > 1e-12 else 0.0)
            checked += 1
    _report(2, worst <= REL_TOL, f"{checked} (instance, p) pairs, max rel err {worst:.2e}")


def test_accept_03_phi_suite_fast():
    start = time.perf_counter()
    results = SUITES["phi"]()
    elapsed = time.perf_counter() - start
    bad = [r.name for r in results if not r.ok]
    _report(3, not bad and elapsed < 1.0, f"{len(results)} checks in {elapsed:.2f}s")


def test_accept_04_deterministic_sandwich():
    res = sandwich_sample_check(seed=41, count=10_000)
    _report(
        4,
        res.violations == 0,
        f"{res.checked} sampled triples, {res.active} with exact X_r, "
        f"{res.violations} violations",
    )


def test_accept_05_degree_matching_equivalence():
    res = degree_matching_equivalence_check(ns=(12,))
    _report(
        5, res.violations == 0, f"{res.checked} (subset, z) pairs, {res.violations} violations"
    )


def test_accept_06_star_matching_tail():
    res = mr_tail_check(n=12)
    _report(
        6,
        res.violations == 0 and res.active > 0,
        f"{res.checked} grid points, {res.active} with positive tails, "
        f"{res.violations} violations",
    )


def test_accept_07_bk_inequality():
    start = time.perf_counter()
    pairs = bk_random_pairs()
    identities = box_identity_checks()
    elapsed = time.perf_counter() - start
    bad = [r.name for r in identities if not r.ok]
    _report(
        7,
        pairs.violations == 0 and not bad and elapsed <= 120.0,
        f"{pairs.checked} random pairs, {len(identities)} identities, {elapsed:.1f}s",
    )


def test_accept_08_chernoff_subsumption():
    violations = 0
    checked = 0
    crossed = 0
    for m, exact_route in ((4, True), (8, True), (30, False), (120, False)):
        k = 3
        h = Hypergraph(k, m * k, [tuple(range(i * k, (i + 1) * k)) for i in range(m)])
        counts = edge_count_histogram(h) if exact_route else None
        one_shot = exact_route  # the first cross-check per instance uses exact_tail
        for p in (0.2, 0.5, 0.8):
            q = p**k
            mu = m * q
            for eps in (0.25, 0.5, 1.0, 2.0, 4.0):
                t = eps * mu
                thr = mu + t
                if math.ceil(thr) > m:
                    continue
                tail = float(binom.sf(math.ceil(thr) - 1, m, q))
                bound = math.exp(theorem_c_bound(mu, 1.0, t)[0].log_value)
                checked += 1
                if tail > bound * (1.0 + 1e-9):
                    violations += 1
                if exact_route:
                    if one_shot:
                        via_subsets = exact_tail(h, p, thr).p_hat
                        one_shot = False
                    else:
                        via_subsets = histogram_tail(counts, p, thr)
                    crossed += 1
                    if _rel_err(via_subsets, tail) > 1e-9:
                        violations += 1
    _report(
        8,
        violations == 0 and checked > 20,
        f"{checked} grid points, {crossed} cross-checked by enumeration, "
        f"{violations} violations",
    )


def test_accept_09_lower_bound_certification():
    start = time.perf_counter()
    violations = 0
    checked = 0
    for i, (spec, p) in enumerate(_instances()):
        h = build(spec)
        mu = exact_mean(h, p)
        t = max(1.0, 0.75 * mu)
        thr = mu + t
        exact = exact_tail(h, p, thr).p_hat
        witness = interval_witness(spec, planting_target(mu, t, h.k, None))
        planted = planted_tail(h, p, thr, 100_000, seed=900 + i, forced=witness.subset)
        conditioned = conditioned_tail(h, p, thr, 100_000, seed=1900 + i)
        for est in (planted, conditioned):
            checked += 1
            if est.p_hat > exact + 1e-12:
                violations += 1
    witness = witness_tail_check()
    elapsed = time.perf_counter() - start
    _report(
        9,
        violations == 0 and witness.violations == 0 and witness.checked > 0,
        f"{checked} estimates at 1e5 samples, {witness.checked} witness bounds, "
        f"{violations + witness.violations} violations, {elapsed:.1f}s",
    )


def test_accept_10_clean_configuration_bound():
    res = clean_config_check(ns=(12, 15, 18), ms=(0, 1, 2, 3))
    _report(10, res.violations == 0, f"{res.detail}, {res.violations} violations")


def test_accept_11_cascade_consistency():
    res = cascade_consistency_check(seed=13, samples=600)
    _report(11, res.violations == 0 and res.active > 0, res.detail)


def test_accept_12_hypergeometric_mean():
    res = hypergeom_mean_check(ns=(4, 7, 10, 12))
    _report(12, res.violations == 0, f"{res.checked} (n, m) pairs, {res.violations} violations")


def test_accept_13_reproducibility():
    argv_base = [
        "tail", "--family", "ap", "--n", "24", "--p", "0.3", "--t", "2,6",
        "--method", "mc", "--samples", "40000", "--seed", "77",
    ]
    outputs = []
    for workers in ("1", "2", "4", "1"):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli_main(argv_base + ["--workers", workers])
        assert code == 0
        outputs.append(buf.getvalue())
    identical = len(set(outputs)) == 1
    _report(
        13,
        identical,
        f"{len(outputs)} runs across worker counts 1/2/4, "
        f"{'byte-identical' if identical else 'diverged'}",
    )


def test_accept_14_certified_column():
    """ci_low, the certified column of planted and conditioned, lies above the
    exact tail in a share of seeds consistent with at most 1 %, at sample
    counts small enough that p_hat overshoots the truth."""
    spec = FamilySpec("ap", 12, 3)
    h = build(spec)
    p, thr, seeds = 0.5, 11.0, 500
    mu = exact_mean(h, p)
    exact = exact_tail(h, p, thr).p_hat
    witness = interval_witness(spec, planting_target(mu, thr - mu, h.k, None))
    estimators = {
        "planted": lambda samples, seed: planted_tail(h, p, thr, samples, seed, witness.subset),
        "conditioned": lambda samples, seed: conditioned_tail(h, p, thr, samples, seed, eps=0.5),
    }
    ok = True
    parts = []
    for samples in (5, 20):
        for name, estimate in estimators.items():
            ests = [estimate(samples, seed) for seed in range(seeds)]
            above = sum(e.ci_low > exact for e in ests)
            # One-sided binomial test of a rate <= 1 % at the 1 % level.
            ok &= bool(binom.sf(above - 1, seeds, 0.01) >= 0.01)
            overshoot = sum(e.p_hat > exact for e in ests)
            parts.append(f"{name}@{samples}: ci_low {above}, p_hat {overshoot}")
    _report(14, ok, f"seeds above exact of {seeds}: " + "; ".join(parts))
