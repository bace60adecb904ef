import math
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binom

import oracles
from uppertail import estimate
from uppertail.bounds import exact_mean
from uppertail.disjointness import degree_event
from uppertail.estimate import (
    clean_config_point_lower,
    conditioned_tail,
    edge_count_histogram,
    enumerate_clean_configs,
    exact_point_mass,
    exact_tail,
    mc_tail,
    planted_tail,
    wilson_interval,
)
from uppertail.families import FamilySpec, Witness, build, build_ap, build_schur, interval_witness
from uppertail.hypergraph import CapacityError, Hypergraph, VertexSet, induced_edge_count
from uppertail.rng import stream_generator

AP4 = build_ap(4, 3)


class TestWilson:
    def test_extremes_clamped(self):
        lo, hi = wilson_interval(0, 100)
        assert lo == 0.0 and 0.0 < hi < 0.1
        lo, hi = wilson_interval(100, 100)
        assert 0.9 < lo < 1.0 and hi == 1.0

    def test_contains_point_estimate(self):
        for hits, total in ((1, 10), (37, 200), (999, 1000)):
            lo, hi = wilson_interval(hits, total)
            assert lo <= hits / total <= hi

    def test_narrows_with_samples(self):
        w1 = wilson_interval(50, 100)
        w2 = wilson_interval(5000, 10000)
        assert (w2[1] - w2[0]) < (w1[1] - w1[0])

    def test_validation(self):
        with pytest.raises(ValueError):
            wilson_interval(1, 0)
        with pytest.raises(ValueError):
            wilson_interval(5, 4)


class TestHistogram:
    def test_matches_oracle(self):
        for h, n in ((build_ap(8, 3), 8), (build_schur(8), 8)):
            hist = edge_count_histogram(h)
            edges = [tuple(e) for e in h.edges]
            want = oracles.size_value_histogram(edges, n)
            for j in range(n + 1):
                for x in range(h.num_edges + 1):
                    assert hist[j, x] == want.get((j, x), 0)

    def test_row_sums_binomial(self):
        h = build_ap(9, 3)
        hist = edge_count_histogram(h)
        for j in range(10):
            assert hist[j].sum() == math.comb(9, j)

    def test_workers_identical(self, monkeypatch):
        h = build_schur(11)
        a = edge_count_histogram(h).copy()
        # 7 low bits split the 2^11 codes into 16 blocks for the thread pool.
        monkeypatch.setattr(estimate, "LOW_BITS", 7)
        monkeypatch.setattr(estimate, "_HIST_CACHE", {})
        b = edge_count_histogram(h, workers=3)
        assert np.array_equal(a, b)

    def test_capacity(self):
        with pytest.raises(CapacityError):
            edge_count_histogram(build_ap(27, 3))


@st.composite
def blocked_instances(draw):
    """A random hypergraph with k in 1..4 and n <= 12, plus a block width in 0..n."""
    k = draw(st.integers(1, 4))
    n = draw(st.integers(k, 12))
    edge = st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True)
    h = Hypergraph(k, n, draw(st.lists(edge, max_size=24)))
    return h, draw(st.integers(0, n))


class TestSupersetKernel:
    """Every consumer of the block kernel, at block widths that split the codes."""

    @given(blocked_instances(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_consumers_match_brute_force(self, instance, data):
        h, low = instance
        with mock.patch.object(estimate, "LOW_BITS", low), mock.patch.object(
            estimate, "_HIST_CACHE", {}
        ):
            want = oracles.size_value_histogram([tuple(e) for e in h.edges], h.n)
            for workers in (1, 3):
                estimate._HIST_CACHE.clear()
                hist = edge_count_histogram(h, workers=workers)
                got = {(j, x): int(c) for (j, x), c in np.ndenumerate(hist) if c}
                assert got == want

            v = data.draw(st.integers(0, h.n - 1))
            c = data.draw(st.integers(1, 3))
            event = degree_event(h, v, c)
            for code in range(1 << h.n):
                deg = sum(code & h.edge_masks[i] == h.edge_masks[i] for i in h.incidence[v])
                assert event.contains(code) == (deg >= c)

    @given(blocked_instances(), st.sampled_from([0.2, 0.5, 0.9]))
    @settings(max_examples=40, deadline=None)
    def test_clean_bound_matches_config_sum(self, instance, p):
        h, low = instance
        edges = [tuple(e) for e in h.edges]
        with mock.patch.object(estimate, "LOW_BITS", low), mock.patch.object(
            estimate, "_HIST_CACHE", {}
        ):
            for m in range(4):
                for disjoint_only in (True, False):
                    want = oracles.clean_config_point_sum(edges, h.n, p, m, disjoint_only)
                    got = clean_config_point_lower(h, p, m, disjoint_only)
                    assert got == pytest.approx(want, rel=1e-12, abs=1e-300)


class TestHistogramCache:
    def test_verify_order_computes_large_instances_once(self, monkeypatch):
        """Replays the order in which verify asks for exact histograms."""
        from uppertail import verify

        calls = []

        def counting(n, masks, workers=1):
            calls.append(masks)
            return np.zeros((n + 1, len(masks) + 1), dtype=np.int64)

        monkeypatch.setattr(estimate, "_subset_histogram", counting)
        monkeypatch.setattr(estimate, "_HIST_CACHE", {})
        specs = (
            list(verify.VARIANCE_INSTANCES)  # variance suite
            + [FamilySpec("ap", n, 3) for n in verify.TAIL_SANDWICH_NS]  # tail_exponent_floor
            # certified_below_exact
            + [FamilySpec("ap", 12, 3), FamilySpec("schur", 12), FamilySpec("ell_sum", 12, ell=2)]
            + [FamilySpec("ap", n, 3) for n in (16, 20, 24)]  # witness_cluster_bound
            + [FamilySpec("ap", 12, 3), FamilySpec("schur", 12)]  # clean_config_point_mass
            # paley_zygmund_floor, hypergeometric_mean, mc_ci_coverage
            + [FamilySpec("ap", 10, 3)] * 3
        )
        for spec in specs:
            edge_count_histogram(build(spec))
        assert len(estimate._HIST_CACHE) == estimate._HIST_CACHE_LIMIT
        # Only AP(10,3), the least recently used entry once the lower-bound
        # instances arrive, is computed twice; AP(16..24,3) are computed once.
        repeated = {m: c for m, c in Counter(calls).items() if c > 1}
        assert repeated == {build_ap(10, 3).edge_masks: 2}


class TestExact:
    def test_frozen_quarter_example(self):
        est = exact_tail(AP4, 0.5, 1.0)
        assert est.p_hat == pytest.approx(3.0 / 16.0, rel=1e-15)
        assert est.ci_low == est.p_hat == est.ci_high
        assert est.method == "exact" and est.samples == 16

    def test_threshold_extremes(self):
        assert exact_tail(AP4, 0.3, 0.0).p_hat == pytest.approx(1.0, rel=1e-12)
        assert exact_tail(AP4, 0.3, -2.5).p_hat == pytest.approx(1.0, rel=1e-12)
        assert exact_tail(AP4, 0.3, AP4.num_edges + 0.5).p_hat == 0.0

    def test_matches_naive_random(self):
        rng = np.random.default_rng(12)
        for _ in range(6):
            n = int(rng.integers(6, 11))
            h = build_schur(n) if rng.random() < 0.5 else build_ap(n, 3)
            edges = [tuple(e) for e in h.edges]
            hist = oracles.size_value_histogram(edges, n)
            p = float(rng.choice([0.2, 0.45, 0.7]))
            for thr in (1.0, 2.0, 3.5):
                want = oracles.tail_from_histogram(hist, n, p, thr)
                got = exact_tail(h, p, thr).p_hat
                assert got == pytest.approx(want, rel=1e-11, abs=1e-15)

    def test_point_mass_sums_to_one(self):
        h = build_schur(9)
        total = math.fsum(exact_point_mass(h, 0.4, m) for m in range(h.num_edges + 1))
        assert total == pytest.approx(1.0, rel=1e-12)
        assert exact_point_mass(h, 0.4, -1) == 0.0
        assert exact_point_mass(h, 0.4, h.num_edges + 1) == 0.0

    def test_tail_is_point_mass_suffix(self):
        h = build_ap(8, 3)
        for thr in (1, 3, 5):
            suffix = math.fsum(
                exact_point_mass(h, 0.35, m) for m in range(thr, h.num_edges + 1)
            )
            assert exact_tail(h, 0.35, float(thr)).p_hat == pytest.approx(
                suffix, rel=1e-12, abs=1e-16
            )


class TestMonteCarlo:
    def test_same_seed_reproduces(self):
        h = build_ap(14, 3)
        a = mc_tail(h, 0.3, 2.0, 4000, seed=5)
        b = mc_tail(h, 0.3, 2.0, 4000, seed=5)
        assert a == b

    def test_worker_count_invariant(self):
        h = build_ap(14, 3)
        single = mc_tail(h, 0.3, 2.0, 20000, seed=6, workers=1)
        multi = mc_tail(h, 0.3, 2.0, 20000, seed=6, workers=4)
        assert single == multi

    def test_interval_covers_exact(self):
        h = build_ap(12, 3)
        exact = exact_tail(h, 0.3, 2.0).p_hat
        est = mc_tail(h, 0.3, 2.0, 30000, seed=7)
        assert est.ci_low <= exact <= est.ci_high

    def test_validation(self):
        with pytest.raises(ValueError):
            mc_tail(AP4, 1.2, 1.0, 10, seed=0)
        with pytest.raises(ValueError):
            mc_tail(AP4, 0.5, 1.0, 0, seed=0)


@st.composite
def sampled_instances(draw):
    """A random hypergraph with k in 1..4 and n <= 14 (possibly edgeless), plus an
    n x samples membership matrix whose columns are drawn vertex sets."""
    k = draw(st.integers(1, 4))
    n = draw(st.integers(k, 14))
    edge = st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True)
    h = Hypergraph(k, n, draw(st.lists(edge, max_size=40)))
    codes = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=50))
    member = np.array([[(c >> v) & 1 for c in codes] for v in range(n)], dtype=bool)
    return h, member


class TestSamplingKernel:
    @given(sampled_instances())
    @settings(max_examples=60, deadline=None)
    def test_hits_match_induced_edge_count(self, instance):
        h, member = instance
        counts = [induced_edge_count(h, VertexSet.from_bool_array(col)) for col in member.T]

        def draw(stream, count):
            assert (stream, count) == (0, member.shape[1])
            return member

        for block in (1, 2, h.num_edges + 1):
            with mock.patch.object(estimate, "EDGE_BLOCK", block):
                for thr in range(h.num_edges + 2):
                    got = estimate._tail_hits(h, draw, thr, member.shape[1], workers=1)
                    assert got == sum(c >= thr for c in counts), (block, thr)

    def test_memory_independent_of_edge_count(self):
        """A 4096-sample chunk on AP(300,3) (22,350 edges) stays far below the
        samples x e x k bytes that gathering every edge at once would take."""
        h = build_ap(300, 3)
        tracemalloc.start()
        try:
            mc_tail(h, 0.05, 10.0, 4096, seed=1, workers=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


    @pytest.mark.parametrize("count", [1, 511, 512, 1300])
    def test_blocked_draw_is_one_big_draw(self, count):
        free = [0, 2, 3, 7]
        got = estimate._vp_draw(9, free, 0.3, seed=4)(stream=2, count=count)
        want = np.ones((9, count), dtype=bool)
        want[free] = (stream_generator(4, 2).random((count, len(free))) < 0.3).T
        assert np.array_equal(got, want)


class TestPlanted:
    def test_empty_witness_equals_mc(self):
        h = build_ap(10, 3)
        w = Witness(h, VertexSet(10, 0), 0.0, 0.0)
        a = planted_tail(h, 0.4, 2.0, 5000, seed=8, witness=w)
        b = mc_tail(h, 0.4, 2.0, 5000, seed=8)
        assert a.p_hat == b.p_hat
        assert (a.ci_low, a.ci_high) == (b.ci_low, b.ci_high)

    def test_full_witness_saturates(self):
        h = build_ap(6, 3)
        w = Witness(h, VertexSet(6, (1 << 6) - 1), 6.0, float(h.num_edges))
        est = planted_tail(h, 0.5, float(h.num_edges), 100, seed=9, witness=w)
        assert est.p_hat == pytest.approx(0.5**6, rel=1e-15)
        assert est.extra["conditional_hits"] == 100

    def test_never_exceeds_exact(self):
        spec = FamilySpec("ap", 12, 3)
        h = build(spec)
        p, t = 0.3, 2.0
        mu = exact_mean(h, p)
        exact = exact_tail(h, p, mu + t).p_hat
        w = interval_witness(spec, math.ceil(mu + t))
        for seed in (10, 11, 12):
            est = planted_tail(h, p, mu + t, 20000, seed=seed, witness=w)
            assert est.p_hat <= exact + 1e-12

    def test_witness_universe_check(self):
        w = Witness(AP4, VertexSet(4, 0b0111), 3.0, 1.0)
        h6 = build_ap(6, 3)
        with pytest.raises(ValueError):
            planted_tail(h6, 0.5, 1.0, 10, seed=0, witness=w)


class TestConditioned:
    def test_reports_m_and_factor(self):
        h = build_ap(10, 3)
        est = conditioned_tail(h, 0.3, 1.0, 2000, seed=13)
        assert est.extra["m"] == 3  # 10 * 0.3
        assert est.extra["binomial_factor"] == pytest.approx(
            float(binom.sf(2, 10, 0.3)), rel=1e-12
        )

    def test_trivial_threshold_gives_factor(self):
        h = build_ap(10, 3)
        est = conditioned_tail(h, 0.3, 0.0, 500, seed=14)
        assert est.p_hat == pytest.approx(est.extra["binomial_factor"], rel=1e-12)

    def test_never_exceeds_exact(self):
        h = build_schur(12)
        p = 0.25
        mu = exact_mean(h, p)
        thr = mu + 2.0
        exact = exact_tail(h, p, thr).p_hat
        for eps in (0.0, 0.5):
            est = conditioned_tail(h, p, thr, 20000, seed=15, eps=eps)
            assert est.p_hat <= exact + 1e-12

    def test_eps_too_large(self):
        with pytest.raises(ValueError):
            conditioned_tail(AP4, 0.9, 1.0, 10, seed=0, eps=0.5)


class TestCleanConfigs:
    def test_ap4_m1_frozen(self):
        configs = enumerate_clean_configs(AP4, 1)
        assert [(c.edge_ids, c.vertex_bits) for c in configs] == [
            ((0,), 0b0111),
            ((1,), 0b1110),
        ]

    def test_ap4_m2_overlapping_config(self):
        configs = enumerate_clean_configs(AP4, 2)
        assert [(c.edge_ids, c.vertex_bits) for c in configs] == [((0, 1), 0b1111)]

    def test_ap4_point_lower_is_exact(self):
        # Both single-edge configurations are vertex disjoint unions of one
        # edge, so the clean bound equals Pr(X = 1) = 2 p^3 (1 - p).
        for p in (0.2, 0.5):
            lower = clean_config_point_lower(AP4, p, 1)
            assert lower == pytest.approx(2 * p**3 * (1 - p), rel=1e-12)
            assert exact_point_mass(AP4, p, 1) == pytest.approx(lower, rel=1e-12)

    def test_m_zero_equals_point_mass(self):
        h = build_schur(10)
        for p in (0.15, 0.3):
            assert clean_config_point_lower(h, p, 0) == pytest.approx(
                exact_point_mass(h, p, 0), rel=1e-12
            )

    def test_disjoint_filter(self):
        # The lone clean 2-configuration of AP(4,3) shares vertices, so the
        # disjoint-only bound is zero but the unfiltered one is positive.
        assert clean_config_point_lower(AP4, 0.4, 2) == 0.0
        assert clean_config_point_lower(AP4, 0.4, 2, disjoint_only=False) > 0.0

    def test_lower_bounds_exact_on_families(self):
        for h in (build_ap(10, 3), build_schur(10)):
            for p in (0.1, 0.25):
                for m in (0, 1, 2):
                    lower = clean_config_point_lower(h, p, m)
                    assert exact_point_mass(h, p, m) >= lower * (1 - 1e-9)

    def test_m_out_of_range(self):
        for h in (AP4, Hypergraph(3, 30, AP4.edges)):
            with pytest.raises(ValueError):
                clean_config_point_lower(h, 0.4, -1)
            assert clean_config_point_lower(h, 0.4, h.num_edges + 1) == 0.0
            assert clean_config_point_lower(h, 0.4, h.num_edges + 1, disjoint_only=False) == 0.0

    def test_combination_budget(self):
        h = build_ap(24, 3)
        with pytest.raises(CapacityError):
            enumerate_clean_configs(h, 5)

    def test_closed_form_fallback_matches_exact_mode(self):
        # Force the n > 26 branch with padding vertices; the closed-form
        # product must stay below the exact bound of the unpadded graph.
        base = build_schur(9)
        padded = Hypergraph(3, 30, base.edges)
        for p in (0.2, 0.4):
            exact_small = clean_config_point_lower(base, p, 1)
            fallback = clean_config_point_lower(padded, p, 1)
            assert fallback <= exact_small * (1 + 1e-12)
            assert fallback > 0.0