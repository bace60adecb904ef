import math
import os
import tracemalloc
from collections import Counter
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.stats import binom

import oracles
from shared_log import SharedLog
from uppertail import estimate
from uppertail.bounds import exact_mean
from uppertail.disjointness import degree_event
from uppertail.estimate import (
    clean_config_histogram,
    conditioned_histogram,
    conditioned_size,
    conditioned_tail,
    edge_count_histogram,
    exact_point_mass,
    exact_tail,
    histogram_point_mass,
    histogram_tail,
    mc_histogram,
    mc_tail,
    planted_histogram,
    planted_tail,
    planting_target,
    size_weighted_sum,
    wilson_interval,
)
from uppertail.families import FamilySpec, build, build_ap, build_schur, interval_witness
from uppertail.hypergraph import CapacityError, Hypergraph, VertexSet, induced_edge_count
from uppertail.rng import CHUNK, chunk_layout, m_subset_members, p_subset_members, stream_generator

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

    def test_endpoints_exact_at_every_sample_count(self):
        # center - half cancels to about 3e-18 instead of 0 at thousands of these totals.
        for total in range(1, 20_001):
            assert wilson_interval(0, total)[0] == 0.0
            assert wilson_interval(total, total)[1] == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            wilson_interval(1, 0)
        with pytest.raises(ValueError):
            wilson_interval(5, 4)


class TestIntervalOrder:
    """The interval check scales with the tail, so it sees inversions below 1e-12."""

    @pytest.mark.parametrize(
        "p_hat, ci_low, ci_high", [(1e-20, 0.0, 1e-22), (1e-20, 2e-20, 1e-20), (0.5, -1e-13, 0.6)]
    )
    def test_inverted_or_negative_interval_raises(self, p_hat, ci_low, ci_high):
        with pytest.raises(ValueError):
            estimate.TailEstimate(1.0, p_hat, "planted", 1, ci_low, ci_high)

    def test_rounding_above_ci_high_passes(self):
        # A factor times hits / samples can land one ulp above factor * hi.
        est = estimate.TailEstimate(30.0, 1.0000000000000003e-26, "planted", 142, 0.0, 1e-26)
        assert est.p_hat > est.ci_high


def test_extra_never_affects_equality_or_hash():
    a = estimate.TailEstimate(1.0, 0.5, "planted", 10, 0.1, 0.9, {"x": 1})
    b = estimate.TailEstimate(1.0, 0.5, "planted", 10, 0.1, 0.9, {"x": 2})
    assert a == b and hash(a) == hash(b)
    assert a != estimate.TailEstimate(1.0, 0.5, "planted", 11, 0.1, 0.9, {"x": 1})


@pytest.mark.parametrize("cores, forks", [(2, 1), (None, 0)])
def test_processes_bounded_by_cores(monkeypatch, cores, forks):
    # A million workers get one process per core, never one per block or chunk.
    children = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            children.append(pid)
        return pid

    h = build_ap(21, 3)  # 2 blocks of codes

    def draw(gen, count):
        return p_subset_members(gen, h.n, list(range(h.n)), 0.3, count)

    def passes(workers):
        samples = estimate._sample_histogram(h, 3, draw, 2 * CHUNK + 1, workers)  # 3 chunks
        return edge_count_histogram(h, workers), samples

    want = passes(1)
    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(os, "cpu_count", lambda: cores)
    got = passes(10**6)
    assert len(children) == 2 * forks
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


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
        # 7 low bits split the 2^11 codes into 16 blocks for the workers.
        monkeypatch.setattr(estimate, "LOW_BITS", 7)
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
        with mock.patch.object(estimate, "LOW_BITS", low):
            want = oracles.size_value_histogram([tuple(e) for e in h.edges], h.n)
            for workers in (1, 3):
                hist = edge_count_histogram(h, workers=workers)
                got = {(j, x): int(c) for (j, x), c in np.ndenumerate(hist) if c}
                assert got == want

            v = data.draw(st.integers(0, h.n - 1))
            c = data.draw(st.integers(1, 3))
            event = degree_event(h, v, c)
            for code in range(1 << h.n):
                deg = sum(code & h.edge_masks[i] == h.edge_masks[i] for i in h.incidence[v])
                assert bool((event.table >> code) & 1) == (deg >= c)

    @given(blocked_instances(), st.sampled_from([0.2, 0.5, 0.9]))
    @settings(max_examples=40, deadline=None)
    def test_clean_bound_matches_config_sum(self, instance, p):
        h, low = instance
        edges = [tuple(e) for e in h.edges]
        with mock.patch.object(estimate, "LOW_BITS", low):
            held = {True: clean_config_histogram(h), False: edge_count_histogram(h)}
            for m in range(4):
                for disjoint_only in (True, False):
                    want = oracles.clean_config_point_sum(edges, h.n, p, m, disjoint_only)
                    got = histogram_point_mass(held[disjoint_only], p, m)
                    assert got == pytest.approx(want, rel=1e-12, abs=1e-300)


@st.composite
def kernel_cases(draw):
    """(low, above, masks): a block width in 0..12, 0..3 bits above it, and
    masks built from a top part above `low` and an outer and inner half below
    it, each half possibly empty; the list may repeat, past 255 masks."""
    low = draw(st.integers(0, 12))
    above = draw(st.integers(0, 3))
    h1 = low // 2

    def part(bits: int):
        return st.one_of(st.just(0), st.integers(0, (1 << bits) - 1))

    mask = st.builds(
        lambda top, outer, inner: (top << low) | (outer << h1) | inner,
        part(above),
        part(low - h1),
        part(h1),
    )
    masks = draw(st.lists(mask, max_size=30)) * draw(st.sampled_from([1, 2, 10]))
    return low, above, masks


class TestZetaKernel:
    """The row-wise superset-sum kernel against a per-mask whole-array test."""

    @given(kernel_cases())
    @example((12, 2, [0b11 << 12, 1 << 13, 0b101, 1 << 11, (1 << 14) - 1] * 60))
    @example((0, 2, [0, 1, 2, 3] * 70))
    @example((1, 0, [0, 1, 1]))
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force_at_every_high(self, case):
        low, above, masks = case
        for high in range(1 << above):
            got = estimate._superset_counts(masks, low, high)
            want = oracles.superset_counts_brute(masks, low, high)
            assert got.dtype == want.dtype == np.min_scalar_type(len(masks))
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("masks", [[], [1 << 13, (1 << 12) | 0b101, (1 << 14) | 1] * 100])
    def test_no_kept_mask(self, masks):
        """No masks, or every mask reaching a bit above low outside high = 0."""
        got = estimate._superset_counts(masks, 12, 0)
        want = oracles.superset_counts_brute(masks, 12, 0)
        assert got.dtype == want.dtype == np.min_scalar_type(len(masks))
        assert np.array_equal(got, want) and not got.any()


class TestBlockSplit:
    """Masks inside the low bits are counted once per pass, the rest once per block."""

    @pytest.mark.parametrize("workers", [1, 3])
    def test_inside_masks_added_once(self, monkeypatch, workers):
        h = build_ap(12, 3)
        low = 8  # 16 blocks of 256 codes
        offered = SharedLog()  # blocks run in forked workers at workers > 1
        kernel = estimate._superset_counts

        def spy(masks, low, high):
            offered.extend(masks)
            return kernel(masks, low, high)

        monkeypatch.setattr(estimate, "LOW_BITS", low)
        monkeypatch.setattr(estimate, "_superset_counts", spy)
        hist = estimate._subset_histogram(h.n, h.edge_masks, workers)
        inside = [m for m in h.edge_masks if m >> low == 0]
        across = [m for m in h.edge_masks if m >> low]
        assert inside and across
        counts = Counter(offered)
        assert {counts[m] for m in inside} == {1}
        assert {counts[m] for m in across} == {1 << (h.n - low)}
        got = {(j, x): int(c) for (j, x), c in np.ndenumerate(hist) if c}
        assert got == oracles.size_value_histogram([tuple(e) for e in h.edges], h.n)

    @pytest.mark.parametrize("low", [0, 3, 6])  # 64 one-code blocks, 8 blocks, 1 block
    def test_edge_in_high_bits(self, monkeypatch, low):
        # At low = 3, (3, 4, 5) has no vertex in the low bits and (0, 1, 2) none above them.
        h = Hypergraph(3, 6, [(3, 4, 5), (0, 1, 2), (1, 3, 5), (0, 4, 5)])
        monkeypatch.setattr(estimate, "LOW_BITS", low)
        want = oracles.size_value_histogram([tuple(e) for e in h.edges], h.n)
        for workers in (1, 3):
            hist = estimate._subset_histogram(h.n, h.edge_masks, workers)
            assert {(j, x): int(c) for (j, x), c in np.ndenumerate(hist) if c} == want
        codes = np.arange(1 << h.n)
        brute = sum((codes & m) == m for m in h.edge_masks)
        blocks = [estimate._superset_counts(h.edge_masks, low, high) for high in range(1 << (h.n - low))]
        assert np.array_equal(np.concatenate(blocks), brute)

    def test_superset_dtype_holds_both_parts(self):
        # 286 masks, counted over 4 blocks of 2^11 codes: more than uint8 holds.
        masks = [sum(1 << v for v in e) for e in combinations(range(13), 3)]
        counts = np.concatenate([estimate._superset_counts(masks, 11, high) for high in range(4)])
        codes = np.arange(1 << 13)
        assert counts.dtype == np.uint16 and counts[-1] == len(masks) == 286
        assert np.array_equal(counts, sum((codes & m) == m for m in masks))

    @pytest.mark.parametrize("workers", [1, 3])
    def test_slices_match_oracle_and_unsliced_pass(self, monkeypatch, workers):
        """16 blocks of 2^8 codes, each bincounted in 32 slices of 2^3 keys,
        with and without the clean-configuration keep mask."""
        monkeypatch.setattr(estimate, "LOW_BITS", 8)
        for h in (build_ap(12, 3), build_schur(12)):
            edges = [tuple(e) for e in h.edges]
            masks = h.edge_masks
            clean = [[masks[i] for i in inc] for inc in h.incidence]
            wants = (
                oracles.size_value_histogram(edges, h.n),
                oracles.clean_size_value_histogram(edges, h.n),
            )
            got = []
            for groups, want in zip(((), clean), wants):
                monkeypatch.setattr(estimate, "SLICE", 1 << 8)  # one slice per block
                whole = estimate._subset_histogram(h.n, masks, workers, groups)
                monkeypatch.setattr(estimate, "SLICE", 1 << 3)
                sliced = estimate._subset_histogram(h.n, masks, workers, groups)
                assert sliced.dtype == whole.dtype and np.array_equal(sliced, whole)
                assert {(j, x): int(c) for (j, x), c in np.ndenumerate(sliced) if c} == want
                got.append(sliced)
            assert np.array_equal(edge_count_histogram(h, workers), got[0])
            assert np.array_equal(clean_config_histogram(h), got[1])

    @pytest.mark.parametrize("workers, limit_mib", [(1, 10), (2, 12)])
    def test_block_working_set(self, workers, limit_mib):
        """AP(24,3) is 16 blocks of 2^20 codes; a block holds its uint8 across
        counts and one SLICE-code key buffer, never a fresh 2^20-entry int32 or
        intp array, so the peak is about the shared 4 MB of row offsets plus
        a few MB per worker."""
        h = build_ap(24, 3)
        tracemalloc.start()
        try:
            edge_count_histogram(h, workers=workers)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit_mib * 2**20

    @pytest.mark.parametrize("builder", [lambda: build_ap(22, 3), lambda: build_schur(22)])
    def test_default_split_matches_single_block(self, monkeypatch, builder):
        h = builder()
        split = estimate._subset_histogram(h.n, h.edge_masks, workers=2)
        monkeypatch.setattr(estimate, "LOW_BITS", h.n)
        single = estimate._subset_histogram(h.n, h.edge_masks)
        assert split.dtype == single.dtype and np.array_equal(split, single)


class TestHeldHistogram:
    """The histogram is enumerated per call and held by callers; one evaluation
    reads every exact probability from it."""

    @staticmethod
    def spy_enumerations(monkeypatch) -> list:
        """Edge masks of every _subset_histogram call without groups."""
        calls = []
        kernel = estimate._subset_histogram

        def spy(n, masks, workers=1, groups=()):
            if not groups:
                calls.append(tuple(masks))
            return kernel(n, masks, workers, groups)

        monkeypatch.setattr(estimate, "_subset_histogram", spy)
        return calls

    def test_every_call_enumerates(self, monkeypatch):
        calls = self.spy_enumerations(monkeypatch)
        h = build_ap(10, 3)
        first, second = edge_count_histogram(h), edge_count_histogram(h)
        assert len(calls) == 2 and first is not second and np.array_equal(first, second)
        assert not first.flags.writeable
        assert not hasattr(estimate, "_HIST_CACHE")

    def test_one_evaluation_behind_the_wrappers(self):
        for h in (build_ap(11, 3), build_schur(10)):
            hist = edge_count_histogram(h)
            for p in (0.0, 0.3, 1.0):
                for thr in (-1.0, 0.0, 2.5, 4.0, h.num_edges + 0.5):
                    assert histogram_tail(hist, p, thr) == exact_tail(h, p, thr).p_hat
                for m in (-1, 0, 3, h.num_edges, h.num_edges + 1):
                    assert histogram_point_mass(hist, p, m) == exact_point_mass(h, p, m)
            with pytest.raises(ValueError):
                histogram_tail(hist, 1.5, 1.0)
            with pytest.raises(ValueError):
                histogram_point_mass(hist, -0.1, h.num_edges + 1)

    @pytest.mark.parametrize("p", [math.nan, 1.5, -0.1])
    def test_size_weighted_sum_refuses_p_outside_the_unit_interval(self, p):
        # Every exact read and verify's moments weigh through it: NaN would come
        # back as NaN, and 1.5 or -0.1 as the weight 1.0 of [1, 2, 1].
        with pytest.raises(ValueError, match=r"p must lie in \[0, 1\]"):
            size_weighted_sum([1, 2, 1], p)

    @pytest.mark.parametrize(
        "read",
        [
            lambda h: exact_tail(h, 1.5, 3.0),
            lambda h: exact_tail(h, math.nan, 3.0),
            lambda h: exact_point_mass(h, 0.3, math.nan),
            lambda h: exact_point_mass(h, -0.1, 2),
            lambda h: exact_point_mass(h, -0.5, 2),
        ],
        ids=["tail-p1.5", "tail-pnan", "point-mnan", "point-p-0.1", "point-p-0.5"],
    )
    def test_exact_readers_refuse_before_enumerating(self, monkeypatch, read):
        calls = self.spy_enumerations(monkeypatch)
        with pytest.raises(ValueError):
            read(build_ap(20, 3))
        assert calls == []

    def test_clean_bound_reads_the_clean_histogram(self):
        h = build_schur(12)
        clean, plain = clean_config_histogram(h), edge_count_histogram(h)
        assert not clean.flags.writeable
        # Subsets inducing at most one edge are all kept.
        assert np.array_equal(clean[:, :2], plain[:, :2])
        with pytest.raises(CapacityError):
            clean_config_histogram(build_ap(27, 3))

    def test_run_suites_enumerates_each_graph_once(self, monkeypatch):
        from uppertail import verify

        calls = self.spy_enumerations(monkeypatch)
        grouped = []
        edge_sets = verify._induced_edge_sets

        def spy(h):
            grouped.append(h)
            return edge_sets(h)

        monkeypatch.setattr(verify, "_induced_edge_sets", spy)
        tail_graphs = [tuple(build_ap(n, 3).edge_masks) for n in verify.TAIL_SANDWICH_NS]
        # The memo lives for one run: a second run enumerates and groups afresh.
        for _ in range(2):
            start, grouped_start = len(calls), len(grouped)
            assert all(r.ok for r in verify.run_suites())
            run = calls[start:]
            assert run and max(Counter(run).values()) == 1
            # AP(16/20/24,3) serve both tail_exponent_floor and witness_cluster_bound.
            assert all(masks in run for masks in tail_graphs)
            # AP(10,3) and Schur(10) serve degree_matching_equivalence and xr_tail_bound.
            run_grouped = grouped[grouped_start:]
            assert len(run_grouped) == len(set(run_grouped)) == 2
        assert verify._RUN_MEMO is None
        # Outside a run a check computes its own tables.
        start = len(calls)
        assert verify.tail_exponent_check().ok
        assert calls[start:] == tail_graphs


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


NAN_TAILS = {
    "exact_tail": lambda h: exact_tail(h, 0.3, math.nan),
    "exact_point_mass": lambda h: exact_point_mass(h, 0.3, math.nan),
    "mc_tail": lambda h: mc_tail(h, 0.3, math.nan, 100, seed=1),
    "planted_tail": lambda h: planted_tail(h, 0.3, math.nan, 100, seed=1,
                                           forced=VertexSet(h.n, 0b111)),
    "conditioned_tail": lambda h: conditioned_tail(h, 0.3, math.nan, 100, seed=1),
}


class TestNaNThreshold:
    @pytest.mark.parametrize("name", NAN_TAILS)
    def test_refused(self, name):
        # NaN compares false with every count; it must not read as probability 0.
        with pytest.raises(ValueError, match="NaN"):
            NAN_TAILS[name](build_ap(10, 3))

    def test_infinite_thresholds_keep_their_meaning(self):
        h = build_ap(10, 3)
        assert exact_tail(h, 0.3, math.inf).p_hat == 0.0
        assert exact_tail(h, 0.3, -math.inf).p_hat == pytest.approx(1.0, rel=1e-12)
        assert mc_tail(h, 0.3, math.inf, 100, seed=1).p_hat == 0.0
        assert mc_tail(h, 0.3, -math.inf, 100, seed=1).p_hat == 1.0

    def test_held_pass_refuses_nan(self):
        held = mc_histogram(build_ap(10, 3), 0.3, 100, seed=1)
        with pytest.raises(ValueError, match="NaN"):
            held.hits(math.nan)

    def test_point_masses_name_m(self):
        h = build_ap(10, 3)
        with pytest.raises(ValueError, match="^m must not be NaN$"):
            histogram_point_mass(edge_count_histogram(h), 0.3, math.nan)
        with pytest.raises(ValueError, match="^m must not be NaN$"):
            exact_point_mass(h, 0.3, math.nan)


# Every entry point that returns a TailEstimate, at a given threshold.
FLOAT_TAILS = {
    "exact_tail": lambda h, thr: exact_tail(h, 0.3, thr),
    "mc_tail": lambda h, thr: mc_tail(h, 0.3, thr, 100, seed=1),
    "planted_tail": lambda h, thr: planted_tail(h, 0.3, thr, 100, seed=1,
                                                forced=VertexSet(h.n, 0b111)),
    "conditioned_tail": lambda h, thr: conditioned_tail(h, 0.3, thr, 100, seed=1),
}


class TestUnrepresentableThreshold:
    @pytest.mark.parametrize(
        "threshold", [10**400, -(10**400), math.nan], ids=["1e400", "-1e400", "nan"]
    )
    @pytest.mark.parametrize("name", FLOAT_TAILS)
    def test_refused_before_any_pass(self, name, threshold, monkeypatch):
        # A TailEstimate holds its threshold as a float; the enumeration or
        # draw must not run first only to fail on the conversion.
        passes = []
        for kernel in ("_subset_histogram", "_sample_histogram"):
            monkeypatch.setattr(estimate, kernel, lambda *args, **kw: passes.append(args))
        with pytest.raises(ValueError, match="float range|NaN"):
            FLOAT_TAILS[name](build_ap(10, 3), threshold)
        assert passes == []

    def test_held_pass_refuses_it_too(self):
        held = mc_histogram(build_ap(10, 3), 0.3, 100, seed=1)
        for threshold in (10**400, -(10**400)):
            with pytest.raises(ValueError, match="float range"):
                held.tail(threshold)
        # Counts and point masses convert nothing, so any int reads as usual.
        assert held.hits(10**400) == 0 and held.hits(-(10**400)) == 100

    def test_counts_and_point_masses_accept_any_int(self):
        h = build_ap(10, 3)
        hist = edge_count_histogram(h)
        assert histogram_tail(hist, 0.3, 10**400) == 0.0
        assert histogram_tail(hist, 0.3, -(10**400)) == histogram_tail(hist, 0.3, 0)
        assert histogram_point_mass(hist, 0.3, 10**400) == 0.0
        assert exact_point_mass(h, 0.3, -(10**400)) == 0.0


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

    def test_ap300_two_workers_pinned(self):
        est = mc_tail(build_ap(300, 3), 0.05, 6.0, 8192, seed=1, workers=2)
        assert est.p_hat == 0.1419677734375

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


@st.composite
def packed_batches(draw):
    """A random hypergraph with k in 2..4 and n <= 12, from edgeless to complete
    (up to 495 edges), plus an n x count membership matrix with count in 1..200,
    often not a multiple of 64."""
    k = draw(st.integers(2, 4))
    n = draw(st.integers(k, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    keep = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
    h = Hypergraph(k, n, [c for c in combinations(range(n), k) if rng.random() < keep])
    count = draw(st.one_of(st.sampled_from([1, 63, 64, 65, 128, 129]), st.integers(1, 200)))
    return h, rng.random((n, count)) < draw(st.floats(0.0, 1.0))


def _chunk_zero_draw(seed, member):
    """A _sample_histogram draw that checks it gets one chunk of member.shape[1]
    samples with the generator of stream (seed, 0), and returns member."""

    def draw(gen, count):
        assert np.array_equal(gen.random(4), stream_generator(seed, 0).random(4))
        assert count == member.shape[1]
        return member

    return draw


class TestSamplingKernel:
    @given(packed_batches())
    @settings(max_examples=80, deadline=None)
    def test_packed_totals_match_byte_oracle(self, batch):
        h, member = batch
        e = h.num_edges
        want = [induced_edge_count(h, VertexSet.from_bool_array(col)) for col in member.T]
        assert oracles.byte_edge_totals(h.edge_array, member).tolist() == want
        draw = _chunk_zero_draw(5, member)
        # Blocks of 1, 2 and 100 edges, one block of e + 1, and the default.
        for block in (1, 2, 100, e + 1, estimate.EDGE_BLOCK):
            with mock.patch.object(estimate, "EDGE_BLOCK", block):
                got = estimate._induced_totals(h.edge_array, member)
                assert got.tolist() == want, block
        held = estimate.SampleHistogram("mc", estimate._sample_histogram(h, 5, draw, member.shape[1], 1))
        for thr in (-1, 0, 0.5, e / 2 + 0.25, e, e + 0.5, e + 1):
            assert held.hits(thr) == sum(c >= thr for c in want), thr

    @pytest.mark.parametrize("p", [0.05, 0.3, 1.0])
    @pytest.mark.parametrize("family", ["ap", "schur"])
    def test_full_chunk_on_n300_matches_byte_oracle(self, family, p):
        h = build(FamilySpec(family, 300, 3))
        member = p_subset_members(stream_generator(1, 0), h.n, list(range(h.n)), p, CHUNK)
        got = estimate._induced_totals(h.edge_array, member)
        assert np.array_equal(got, oracles.byte_edge_totals(h.edge_array, member))

    def test_short_block_counts_no_rows_of_the_block_before(self):
        """The kernel reuses one hit buffer across blocks.  With blocks of 100
        edges, the first block's 100 edges (0, 1, j) all hit and the short
        second block's 50 edges (1, 2, j) all miss, so any of the first
        block's rows left past the second's would be counted."""
        edges = [(0, 1, j) for j in range(2, 102)] + [(1, 2, j) for j in range(102, 152)]
        h = Hypergraph(3, 152, edges)
        member = np.zeros((h.n, 3), dtype=bool)
        member[:102, 0] = True  # every edge of the first block, none of the second
        member[:, 1] = True
        with mock.patch.object(estimate, "EDGE_BLOCK", 100):
            got = estimate._induced_totals(h.edge_array, member)
        assert got.tolist() == oracles.byte_edge_totals(h.edge_array, member).tolist() == [100, 150, 0]

    @pytest.mark.parametrize("count", [1, 63, 64, 65, CHUNK])
    def test_every_edge_inside_carries_through_every_plane(self, count):
        """All 9,880 edges of the complete 3-graph on 40 vertices inside every
        sample: over several blocks, each fold and running add carries
        through every plane, and the total needs 14 bits."""
        h = Hypergraph(3, 40, combinations(range(40), 3))
        member = np.ones((h.n, count), dtype=bool)
        got = estimate._induced_totals(h.edge_array, member)
        assert np.array_equal(got, oracles.byte_edge_totals(h.edge_array, member))
        assert got.tolist() == [9880] * count

    @given(sampled_instances())
    @settings(max_examples=60, deadline=None)
    def test_hits_match_induced_edge_count(self, instance):
        h, member = instance
        counts = [induced_edge_count(h, VertexSet.from_bool_array(col)) for col in member.T]
        draw = _chunk_zero_draw(6, member)
        for block in (1, 2, h.num_edges + 1):
            with mock.patch.object(estimate, "EDGE_BLOCK", block):
                hist = estimate._sample_histogram(h, 6, draw, member.shape[1], workers=1)
            for thr in range(h.num_edges + 2):
                got = estimate.SampleHistogram("mc", hist).hits(thr)
                assert got == sum(c >= thr for c in counts), (block, thr)

    @given(
        st.sampled_from([1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1]),
        st.integers(0, 2**64 - 1),
        st.floats(0.0, 1.0),
    )
    @settings(max_examples=15, deadline=None)
    def test_sample_histogram_pass(self, samples, seed, p):
        """One pass's counts[x] is the bincount of every sample's edge count,
        at 1 and 2 workers alike, and sums to the sample count."""
        h = build_ap(30, 3)
        free = list(range(h.n))

        def draw(gen, count):
            return p_subset_members(gen, h.n, free, p, count)

        one = estimate._sample_histogram(h, seed, draw, samples, workers=1)
        two = estimate._sample_histogram(h, seed, draw, samples, workers=2)
        assert one.dtype == two.dtype == np.int64 and not one.flags.writeable
        assert np.array_equal(one, two)
        assert one.sum() == samples
        totals = np.concatenate([
            oracles.byte_edge_totals(h.edge_array, draw(stream_generator(seed, stream), count))
            for stream, count in chunk_layout(samples)
        ])
        assert np.array_equal(one, np.bincount(totals))

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

    @pytest.mark.parametrize("method", ["mc", "planted", "conditioned"])
    def test_sampler_budget_refuses_before_drawing(self, monkeypatch, method):
        """A pass whose chunk needs one byte more than SAMPLER_BYTE_BUDGET is
        refused before anything per vertex is built."""
        h, samples = build_ap(20, 3), 100
        run = {
            "mc": lambda: mc_histogram(h, 0.3, samples, seed=1),
            "planted": lambda: planted_histogram(h, 0.3, samples, 1, VertexSet(h.n, 0b111)),
            "conditioned": lambda: conditioned_histogram(h, 0.3, samples, 1, eps=0.25),
        }[method]
        need = 5 * samples * h.n  # one byte of membership and four of int32 table
        monkeypatch.setattr(estimate, "SAMPLER_BYTE_BUDGET", need)
        assert run().counts.sum() == samples
        monkeypatch.setattr(estimate, "SAMPLER_BYTE_BUDGET", need - 1)
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match=f"needs {need} bytes, over budget {need - 1}"):
                run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


    @pytest.mark.parametrize("count", [1, 511, 512, 1300])
    def test_blocked_draw_is_one_big_draw(self, count):
        free = [0, 2, 3, 7]
        got = p_subset_members(stream_generator(4, 2), 9, free, 0.3, count)
        want = np.ones((9, count), dtype=bool)
        want[free] = (stream_generator(4, 2).random((count, len(free))) < 0.3).T
        assert np.array_equal(got, want)


class TestPlanted:
    def test_empty_witness_equals_mc(self):
        h = build_ap(10, 3)
        a = planted_tail(h, 0.4, 2.0, 5000, seed=8, forced=VertexSet(10, 0))
        b = mc_tail(h, 0.4, 2.0, 5000, seed=8)
        assert a.p_hat == b.p_hat
        assert (a.ci_low, a.ci_high) == (b.ci_low, b.ci_high)

    def test_full_witness_saturates(self):
        h = build_ap(6, 3)
        est = planted_tail(h, 0.5, float(h.num_edges), 100, seed=9, forced=VertexSet(6, (1 << 6) - 1))
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
            est = planted_tail(h, p, mu + t, 20000, seed=seed, forced=w.subset)
            assert est.p_hat <= exact + 1e-12

    def test_worker_count_invariant(self):
        spec = FamilySpec("ap", 40, 3)
        h = build(spec)
        w = interval_witness(spec, 12.0)
        samples = 2 * CHUNK + 123
        single = planted_tail(h, 0.2, 18.0, samples, seed=16, forced=w.subset, workers=1)
        multi = planted_tail(h, 0.2, 18.0, samples, seed=16, forced=w.subset, workers=2)
        assert single == multi and single.extra == multi.extra
        assert 0 < single.extra["conditional_hits"] < samples

    def test_any_forced_set_plants(self):
        """{1, 2, 4} induces no edge of AP(10,3), so no witness carries it;
        planting reads only the forced set, and scales by p^3."""
        h = build_ap(10, 3)
        forced = VertexSet(10, 0b1011)
        assert induced_edge_count(h, forced) == 0
        held = planted_histogram(h, 0.4, 500, 3, forced)
        assert held.factor == 0.4**3 and held.counts.sum() == 500
        est = planted_tail(h, 0.4, 2.0, 500, seed=3, forced=forced)
        assert est.extra == {"witness_size": 3, "factor": 0.4**3, "conditional_hits": held.hits(2.0)}

    def test_witness_universe_check(self):
        h6 = build_ap(6, 3)
        with pytest.raises(ValueError):
            planted_tail(h6, 0.5, 1.0, 10, seed=0, forced=VertexSet(4, 0b0111))


class TestConditioned:
    def test_reports_m_and_factor(self):
        h = build_ap(10, 3)
        est = conditioned_tail(h, 0.3, 1.0, 2000, seed=13)
        assert est.extra["m"] == 3  # 10 * 0.3
        assert est.extra["binomial_factor"] == pytest.approx(
            float(oracles.binom_sf(2, 10, 0.3)), rel=1e-14
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

    def test_worker_count_invariant(self):
        h = build_schur(40)
        samples = 2 * CHUNK + 123
        single = conditioned_tail(h, 0.2, 6.0, samples, seed=17, eps=0.25, workers=1)
        multi = conditioned_tail(h, 0.2, 6.0, samples, seed=17, eps=0.25, workers=2)
        assert single == multi and single.extra == multi.extra
        assert 0 < single.extra["conditional_hits"] < samples

    @pytest.mark.parametrize("n, m, count", [(1, 0, 5), (6, 6, 7), (9, 4, 1), (30, 7, 300)])
    def test_int32_draw_matches_int64_reference(self, n, m, count):
        got = m_subset_members(stream_generator(18, 3), n, m, count)
        want = oracles.int64_m_subset_member(n, m, count, stream_generator(18, 3))
        assert np.array_equal(got, want)
        assert (got.sum(axis=0) == m).all()

    def test_eps_too_large(self):
        with pytest.raises(ValueError):
            conditioned_tail(AP4, 0.9, 1.0, 10, seed=0, eps=0.5)

    def test_eps_overflowing_m_exceeds_n(self):
        # (1 + eps) n p overflows a float: m counts as exceeding n, not as an OverflowError.
        assert conditioned_size(10, 0.3, 1e308) == math.inf
        with pytest.raises(ValueError, match="exceeds the 10 available vertices"):
            conditioned_histogram(build_ap(10, 3), 0.3, 3, seed=1, eps=1e308)

    @given(
        n=st.integers(1, 3000),
        p=st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
        eps=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
    )
    @example(n=1, p=0.0, eps=0.0)  # m = 0
    @example(n=3000, p=1.0, eps=0.0)  # m = n
    @settings(max_examples=150, deadline=None)
    def test_factor_is_scipy_binomial_tail_bit_for_bit(self, n, p, eps):
        assume((1.0 + eps) * p <= 1.0)  # m <= n
        est = conditioned_tail(Hypergraph(3, n, []), p, 0.0, 1, seed=0, eps=eps)
        m = est.extra["m"]
        assert est.extra["binomial_factor"] == float(binom.sf(m - 1, n, p))

    @pytest.mark.parametrize("eps, m", [(0.0, 15), (0.25, 19)])
    def test_factor_bit_for_bit_on_ap300(self, eps, m):
        est = conditioned_tail(build_ap(300, 3), 0.05, 2.0, 1, seed=1, eps=eps)
        assert est.extra["m"] == m
        assert est.extra["binomial_factor"] == float(binom.sf(m - 1, 300, 0.05))


class TestCertifiedColumn:
    """Where the certified quantity equals the exact tail, every factor and
    endpoint is checked exactly; elsewhere, ci_low's one-sided coverage."""

    AP12 = build_ap(12, 3)  # 30 edges: threshold e(H) is met only by all 12 vertices

    @pytest.mark.parametrize("samples", [1, 5, 142, 4096])
    @pytest.mark.parametrize("p", [0.3, 0.5])
    def test_planted_full_witness_is_exact(self, p, samples):
        h, thr = self.AP12, float(self.AP12.num_edges)
        exact = histogram_tail(edge_count_histogram(h), p, thr)
        est = planted_tail(h, p, thr, samples, 1, VertexSet(12, 2**12 - 1))
        assert est.extra["conditional_hits"] == samples
        assert est.p_hat == exact
        assert est.ci_low <= exact and est.ci_high == est.p_hat

    @pytest.mark.parametrize("samples", [1, 5, 142, 4096])
    @pytest.mark.parametrize("p", [0.3, 0.5])
    def test_conditioned_all_vertices_is_exact(self, p, samples):
        h, thr = self.AP12, float(self.AP12.num_edges)
        exact = histogram_tail(edge_count_histogram(h), p, thr)
        est = conditioned_tail(h, p, thr, samples, 1, eps=1 / p - 1)
        assert est.extra["m"] == 12 and est.extra["conditional_hits"] == samples
        assert est.p_hat == pytest.approx(exact, rel=1e-15, abs=0)
        assert est.ci_low <= exact and est.ci_high == est.p_hat

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="the Wilson lower limit at one hit is far above the exact 0.5% limit; "
        "ROADMAP item 1 replaces it with the exact (Clopper-Pearson) interval",
    )
    def test_conditioned_one_sided_coverage_schur12(self):
        # hits ~ Bin(samples, c) with c the share of m-subsets meeting the
        # threshold, so Pr(ci_low > exact tail) is a finite sum over hit counts.
        h = build_schur(12)
        p, eps, thr, samples = 0.3, 2.0, 25.0, 1
        hist = edge_count_histogram(h)
        exact = histogram_tail(hist, p, thr)
        est = conditioned_tail(h, p, thr, samples, 1, eps=eps)
        m, factor = est.extra["m"], est.extra["binomial_factor"]
        c = hist[m, math.ceil(thr) :].sum() / math.comb(h.n, m)
        above = math.fsum(
            math.comb(samples, x) * c**x * (1 - c) ** (samples - x)
            for x in range(samples + 1)
            if estimate._scaled_tail(thr, "conditioned", x, samples, factor, None).ci_low > exact
        )
        assert above <= 0.01, f"Pr(ci_low > exact) = {above} at m = {m}, c = {c}"


class TestPlantingTarget:
    @given(
        mu=st.floats(0.0, 1e4),
        t=st.floats(-10.0, 1e4),
        k=st.integers(2, 5),
        alpha=st.one_of(st.none(), st.floats(1e-12, 1.0)),
    )
    @settings(max_examples=200, deadline=None)
    def test_closed_form_bit_for_bit(self, mu, t, k, alpha):
        a = alpha if alpha is not None else (min(1.0, t / mu) if mu > 0 and t > 0 else 1.0)
        assume((1.0 - a) ** k != 1.0)
        lam = 4.0 / (1.0 - (1.0 - a) ** k)
        assert planting_target(mu, t, k, alpha) == math.ceil(min(lam * t, mu + t) if t > 0 else 0.0)

    @pytest.mark.parametrize(
        "mu, t, alpha",
        # In the last row the default alpha = t / mu underflows to 0.
        [(16.25, 1e-17, None), (16.25, 1.0, 1e-17), (16.25, 1.0, 5e-324), (1e300, 1e-300, None)],
    )
    def test_alpha_below_rounding_stays_finite(self, mu, t, alpha):
        # (1 - alpha)^3 rounds to 1.0, so lambda * t is far above mu + t.
        assert planting_target(mu, t, 3, alpha) == math.ceil(mu + t)


class TestCleanConfigs:
    """The clean-configuration bound on Pr(X = m), read from the clean histogram."""

    @staticmethod
    def clean_point(h, p, m):
        return histogram_point_mass(clean_config_histogram(h), p, m)

    def test_ap4_point_lower_is_exact(self):
        # Both single-edge configurations are vertex disjoint unions of one
        # edge, so the clean bound equals Pr(X = 1) = 2 p^3 (1 - p).
        for p in (0.2, 0.5):
            lower = self.clean_point(AP4, p, 1)
            assert lower == pytest.approx(2 * p**3 * (1 - p), rel=1e-12)
            assert exact_point_mass(AP4, p, 1) == pytest.approx(lower, rel=1e-12)

    def test_m_zero_equals_point_mass(self):
        h = build_schur(10)
        for p in (0.15, 0.3):
            assert self.clean_point(h, p, 0) == pytest.approx(exact_point_mass(h, p, 0), rel=1e-12)

    def test_disjoint_filter(self):
        # The lone clean 2-configuration of AP(4,3) shares vertices, so the
        # clean histogram gives zero but the unfiltered one is positive.
        assert self.clean_point(AP4, 0.4, 2) == 0.0
        assert histogram_point_mass(edge_count_histogram(AP4), 0.4, 2) > 0.0

    def test_lower_bounds_exact_on_families(self):
        for h in (build_ap(10, 3), build_schur(10)):
            for p in (0.1, 0.25):
                for m in (0, 1, 2):
                    lower = self.clean_point(h, p, m)
                    assert exact_point_mass(h, p, m) >= lower * (1 - 1e-9)

    def test_m_out_of_range(self):
        for m in (-1, AP4.num_edges + 1):
            assert self.clean_point(AP4, 0.4, m) == 0.0

