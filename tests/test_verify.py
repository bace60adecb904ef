import math
import os
import time
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binom

import oracles
from shared_log import assert_no_child
from uppertail import disjointness, verify
from uppertail.decompose import mr_exact_on
from uppertail.families import FamilySpec, build, build_ap
from uppertail.hypergraph import (
    CapacityError,
    Hypergraph,
    VertexSet,
    delta_j,
    induced_edges,
    sample_vp,
)
from uppertail.rng import stream_generator
from uppertail.verify import (
    SUITES,
    TAIL_SANDWICH_C,
    VAR_RATIO_HIGH,
    VAR_RATIO_LOW,
    CheckResult,
    binomial_floor_check,
    paley_zygmund_check,
    run_suites,
)


def _counts(result):
    return result.violations, result.checked, result.active


def _assert_all_pass(results):
    failed = [r for r in results if not r.ok]
    assert not failed, "failed checks: " + "; ".join(
        f"{r.suite}:{r.name} ({r.detail})" for r in failed
    )


class TestSuiteRegistry:
    def test_expected_names(self):
        assert set(SUITES) == {
            "phi",
            "variance",
            "sandwich",
            "bk",
            "cascade",
            "lowerbounds",
        }

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError):
            run_suites(["phi", "nope"])

    def test_unknown_suite_rejected_before_any_suite_runs(self, monkeypatch):
        def spy():
            raise AssertionError("a suite ran before every name was checked")

        monkeypatch.setitem(SUITES, "sandwich", spy)
        with pytest.raises(ValueError, match="nope"):
            run_suites(["sandwich", "nope"])

    def test_results_are_labelled(self):
        results = run_suites(["phi"])
        assert all(isinstance(r, CheckResult) for r in results)
        assert all(r.suite == "phi" for r in results)
        names = [r.name for r in results]
        assert len(names) == len(set(names))

    def test_repeated_name_runs_once(self):
        assert run_suites(["phi", "phi"]) == run_suites(["phi"])
        assert len(run_suites(["phi", "phi"])) == 7


class TestSpreadSuites:
    """run_suites over forked workers returns what the serial loop returns.
    The worker layer's failure cases run on verify's suites in
    tests/test_workers.py::TestPasses."""

    @pytest.mark.parametrize(
        "names", [None, ["lowerbounds", "phi"], ["phi", "phi"]], ids=["all", "order-kept", "repeated"]
    )
    def test_two_workers_equal_one(self, names):
        assert run_suites(names, workers=2) == run_suites(names, workers=1)
        assert_no_child()

    def test_order_kept_when_processes_interleave(self, monkeypatch):
        # "slow" holds one process while the other takes "slower"; the first
        # then takes "quick", so neither process ran a prefix of the order.
        # run_suites looks the names up in SUITES at call time, so these
        # stand-ins are what the workers run.
        def suite(name, seconds):
            def run():
                time.sleep(seconds)
                return [CheckResult(name, "ran", name != "quick", str(os.getpid()))]

            return run

        for name, seconds in (("slow", 0.2), ("slower", 0.4), ("quick", 0.0)):
            monkeypatch.setitem(SUITES, name, suite(name, seconds))
        results = run_suites(["slow", "slower", "quick"], workers=2)
        assert [(r.suite, r.ok) for r in results] == [("slow", True), ("slower", True), ("quick", False)]
        assert len({r.detail for r in results}) == 2  # the suites ran in two processes
        assert_no_child()


class TestFastSuites:
    def test_phi(self):
        _assert_all_pass(SUITES["phi"]())

    def test_variance(self):
        _assert_all_pass(SUITES["variance"]())

    def test_bk(self):
        _assert_all_pass(SUITES["bk"]())

    def test_cascade(self):
        _assert_all_pass(SUITES["cascade"]())


class TestHeavySuites:
    def test_sandwich(self):
        _assert_all_pass(SUITES["sandwich"]())

    def test_lowerbounds(self):
        _assert_all_pass(SUITES["lowerbounds"]())


class TestFrozenConstants:
    def test_interval_orientation(self):
        assert 0.0 < VAR_RATIO_LOW < VAR_RATIO_HIGH

    def test_sandwich_floors_positive(self):
        assert set(TAIL_SANDWICH_C) == {0.5, 1.0, 2.0}
        assert all(v > 0 for v in TAIL_SANDWICH_C.values())
        # Larger relative deviation costs more rate.
        assert TAIL_SANDWICH_C[0.5] < TAIL_SANDWICH_C[1.0] < TAIL_SANDWICH_C[2.0]


# The (n, q, m) points at which the two binomial checks read a pmf.
FLOOR_GRID = [
    (n, q, m)
    for n in (10, 50, 100)
    for q in (0.1, 0.37, 0.5)
    for m in range(math.ceil(n * q), min(n - 1, math.ceil(n * q) + 5) + 1)
]
PZ_GRID = [(20, 0.3, j) for j in range(21)]


class TestBinomialReferences:
    def test_check_counts(self):
        assert _counts(binomial_floor_check()) == (0, 53, None)
        assert _counts(paley_zygmund_check()) == (0, 10, None)

    @pytest.mark.parametrize("n, q, m", FLOOR_GRID + PZ_GRID)
    def test_exact_pmf_matches_scipy(self, n, q, m):
        # scipy's pmf is up to 29 ulp (3.9e-15 relative) from the exact value here.
        exact = float(verify._binomial_pmf(n, q, m))
        assert exact == pytest.approx(float(binom.pmf(m, n, q)), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("t", [1.0, 2.0, 3.0, 6.0])
    def test_exact_tail_matches_scipy(self, t):
        lo = math.ceil(20 * 0.3 - t)
        exact = float(sum(verify._binomial_pmf(20, 0.3, j) for j in range(lo, 21)))
        assert exact == pytest.approx(float(binom.sf(lo - 1, 20, 0.3)), rel=1e-15, abs=0.0)


# (suite, name, ok, checked, violations, active) of every check run_suites() runs.
RESULT_TABLE = [
    ("phi", "lower_quadratic", True, None, None, None),
    ("phi", "half_argument", True, None, None, None),
    ("phi", "upper_square", True, None, None, None),
    ("phi", "lower_min_third", True, None, None, None),
    ("phi", "lower_half_xlogx", True, None, None, None),
    ("phi", "bennett_chain", True, None, None, None),
    ("phi", "degree_exponent_consistency", True, None, None, None),
    ("variance", "moments_ap_10_3", True, 11, 0, None),
    ("variance", "moments_ap_12_4", True, 11, 0, None),
    ("variance", "moments_schur_11_1", True, 11, 0, None),
    ("variance", "moments_ell_sum_12_2", True, 11, 0, None),
    ("variance", "moments_ell_sum_9_3", True, 11, 0, None),
    ("sandwich", "degree_prune_sandwich", True, 2000, 0, 1738),
    ("sandwich", "degree_matching_equivalence", True, 6144, 0, None),
    ("sandwich", "xr_tail_bound", True, 96, 0, 48),
    ("sandwich", "mr_tail_bound", True, 96, 0, 84),
    ("sandwich", "mr_degree_tail_conditional", True, 20, 0, 10),
    ("sandwich", "variance_ratio_interval", True, None, None, None),
    ("sandwich", "tail_exponent_floor", True, None, None, None),
    ("bk", "random_pairs", True, 600, 0, None),
    ("bk", "box_with_full_left", True, None, None, None),
    ("bk", "box_with_full_right", True, None, None, None),
    ("bk", "box_single_coordinate_self", True, None, None, None),
    ("bk", "box_disjoint_coordinates", True, None, None, None),
    ("bk", "box_with_empty", True, None, None, None),
    ("bk", "z_all_full", True, None, None, None),
    ("bk", "z_repeated_coordinate", True, None, None, None),
    ("bk", "z_two_coordinates", True, None, None, None),
    ("bk", "box_monotone", True, None, None, None),
    ("bk", "mr_le_z_sampled", True, 200, 0, None),
    ("cascade", "event_implies_xr_bound", True, 400, 0, 349),
    ("cascade", "removal_accounting", True, 50, 0, 50),
    ("cascade", "single_level_when_t_le_r_squared", True, None, None, None),
    ("cascade", "identity_below_degree", True, None, None, None),
    ("lowerbounds", "certified_below_exact", True, 9, 0, None),
    ("lowerbounds", "witness_cluster_bound", True, 17, 0, None),
    ("lowerbounds", "clean_config_point_mass", True, 18, 0, None),
    ("lowerbounds", "binomial_point_floor", True, 53, 0, None),
    ("lowerbounds", "paley_zygmund_floor", True, 10, 0, None),
    ("lowerbounds", "hypergeometric_mean", True, 11, 0, None),
    ("lowerbounds", "mc_ci_coverage", True, 100, 0, None),
    ("lowerbounds", "planted_empty_witness_is_mc", True, None, None, None),
    ("lowerbounds", "planted_saturated_witness", True, None, None, None),
    ("lowerbounds", "conditioned_full_vertex_set", True, None, None, None),
    ("lowerbounds", "conditioned_zero_threshold", True, None, None, None),
]


class TestCheckCounts:
    """The counts the checks report, pinned."""

    def test_every_result_pinned(self):
        got = [(r.suite, r.name, r.ok, r.checked, r.violations, r.active) for r in run_suites()]
        assert got == RESULT_TABLE

    def test_sandwich_counts(self):
        assert _counts(verify.mr_tail_check()) == (0, 96, 84)
        assert _counts(verify.xr_tail_check()) == (0, 96, 48)
        assert _counts(verify.degree_matching_equivalence_check()) == (0, 6144, None)

    def test_bk_pairs_build_one_box_per_ordered_pair(self, monkeypatch):
        calls = []
        tables = disjointness._universal_tables

        def spy(event):
            calls.append(event)
            return tables(event)

        monkeypatch.setattr(disjointness, "_universal_tables", spy)
        assert _counts(verify.bk_random_pairs()) == (0, 600, None)
        # box(a, b) and box(b, a) per pair, two tables each.
        assert len(calls) == 800

    def test_mr_z_sample_builds_each_degree_event_once(self, monkeypatch):
        calls, events = [], []
        tables = disjointness._degree_tables

        def spy(h, vertices, c):
            calls.append((h, c))
            events.extend((h, v, c) for v in vertices)
            return tables(h, vertices, c)

        monkeypatch.setattr(disjointness, "_degree_tables", spy)
        assert _counts(verify.mr_z_sample_check()) == (0, 200, None)
        # One induced-edge mask per (graph, c), 3 values of c x 2 graphs, and
        # 48 events (8 vertices x 3 values of c x 2 graphs), each built once.
        assert len(calls) == len(set(calls)) == 6
        assert len(events) == len(set(events)) == 48

    def test_run_groups_each_graphs_edge_sets_once(self, monkeypatch):
        calls = []
        edge_sets = verify._induced_edge_sets

        def spy(h):
            calls.append(h)
            return edge_sets(h)

        monkeypatch.setattr(verify, "_induced_edge_sets", spy)
        _assert_all_pass(run_suites(["sandwich"]))
        # degree_matching_equivalence and xr_tail_bound both read AP(10,3) and
        # Schur(10): one grouping each per run.
        assert len(calls) == len(set(calls)) == 2

    def test_mr_tail_refuses_past_box_budget_before_enumerating(self, monkeypatch):
        def unreachable(h, r):
            raise AssertionError("2^n pass reached past the budget")

        monkeypatch.setattr(verify, "_mr_by_code", unreachable)
        with pytest.raises(CapacityError):
            verify.mr_tail_check(disjointness.BOX_COORD_BUDGET + 1)


class TestSandwichSamples:
    @pytest.mark.parametrize("count", [0, 4, 2000])
    def test_split_draw_equals_successive_sample_vp_draws(self, count):
        # One draw split per triple reads the doubles count sample_vp calls
        # would, and the stacked induced pass gives each subset's edge ids.
        rng = stream_generator(7, 0)
        samples = verify._sandwich_samples(7, count)
        assert len(samples) == count
        for h, p, _, ids in samples:
            assert ids == induced_edges(h, sample_vp(h, p, rng))

    def test_split_draw_equals_the_float_compare(self, monkeypatch):
        # The raw-word compare keeps what random() < p keeps on the same
        # stream, sample by sample, and reads exactly as many words.
        held = stream_generator(7, 0)
        monkeypatch.setattr(verify, "stream_generator", lambda seed, stream: held)
        samples = verify._sandwich_samples(7, 2000)
        ref = stream_generator(7, 0)
        for h, p, _, ids in samples:
            kept = oracles.float_sample_vp(h.n, p, ref)
            assert ids == induced_edges(h, VertexSet(h.n, sum(1 << v for v in kept)))
        # Both read the same words, so the generators stay in step.
        assert held.bit_generator.random_raw(5).tolist() == ref.bit_generator.random_raw(5).tolist()


PACKING_GRAPHS = {
    "ap12_3": FamilySpec("ap", 12, 3),
    "schur12": FamilySpec("schur", 12),
    "ell_sum12_2": FamilySpec("ell_sum", 12, ell=2),
}


class TestInducedEdgeSets:
    @pytest.mark.parametrize(
        "h",
        [
            build_ap(10, 3),
            build(FamilySpec("schur", 12)),
            build(FamilySpec("ell_sum", 12, ell=2)),
            Hypergraph(3, 6, []),
            Hypergraph(2, 0, []),
        ],
        ids=["ap10_3", "schur12", "ell_sum12_2", "edgeless", "n0"],
    )
    def test_same_partition_as_per_code_walk(self, h):
        sets, index = verify._induced_edge_sets(h)
        want_sets, want_index = oracles.induced_edge_sets(list(h.edges), h.n)
        assert index.shape == (1 << h.n,)
        assert len(sets) == len(want_sets) == len(set(sets))
        assert [sets[i] for i in index.tolist()] == [want_sets[i] for i in want_index]


class TestMrPacking:
    """The one-pass M_r of every subset against the branch-and-bound and the oracle."""

    @pytest.mark.parametrize("name", sorted(PACKING_GRAPHS))
    def test_histogram_matches_branch_and_bound(self, name):
        h = build(PACKING_GRAPHS[name])
        sets, index = verify._induced_edge_sets(h)
        for r in (0.5, 1.0, 1.5, 2.0, 3.0):
            want = verify._size_value_hist(np.array([mr_exact_on(h, ids, r) for ids in sets])[index])
            got = verify._size_value_hist(verify._mr_by_code(h, r))
            assert got.dtype == want.dtype
            assert np.array_equal(got, want), r

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_every_code_matches_oracle(self, data):
        k = data.draw(st.integers(2, 4))
        n = data.draw(st.integers(k, 9))
        edge = st.sampled_from(list(combinations(range(n), k)))
        h = Hypergraph(k, n, data.draw(st.lists(edge, max_size=12)))
        r = data.draw(st.floats(0.0, 4.0, exclude_min=True))
        m = verify._mr_by_code(h, r)
        for code in range(1 << n):
            inside = [e for e, mask in zip(h.edges, h.edge_masks) if mask & ~code == 0]
            assert m[code] == oracles.naive_mr(inside, r), (code, r)

    @pytest.mark.parametrize(
        "h, r",
        [
            (Hypergraph(3, 7, []), 1.0),
            (build_ap(10, 3), delta_j(build_ap(10, 3), 1) + 0.5),
        ],
        ids=["edgeless", "star_wider_than_every_degree"],
    )
    def test_no_star_gives_one_column(self, h, r):
        hist = verify._size_value_hist(verify._mr_by_code(h, r))
        assert hist.shape == (h.n + 1, 1)
        assert hist[:, 0].tolist() == [math.comb(h.n, j) for j in range(h.n + 1)]

    def test_rejects_nonpositive_r(self):
        with pytest.raises(ValueError):
            verify._mr_by_code(build_ap(6, 3), 0.0)
