import inspect
import math
import os
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from shared_log import SharedLog, assert_no_child, spy_induced_edges
from uppertail import disjointness, verify
from uppertail.decompose import mr_exact
from uppertail.families import FamilySpec, build, build_ap
from uppertail.hypergraph import (
    CapacityError,
    Hypergraph,
    delta_j,
    induced_edges,
    sample_vp,
)
from uppertail.rng import stream_generator
from uppertail.verify import (
    CHECKS,
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

    def test_unknown_suite_rejected_before_any_check_runs(self, monkeypatch):
        def spy():
            raise AssertionError("a check ran before every name was checked")

        monkeypatch.setitem(CHECKS, "sandwich", (spy,))
        with pytest.raises(ValueError, match="nope"):
            run_suites(["sandwich", "nope"])

    @pytest.mark.parametrize("name", sorted(CHECKS))
    def test_suite_is_a_plain_function_over_run_suites(self, monkeypatch, name):
        # A plain function, so that perfbench's tracer can wrap it.
        monkeypatch.setattr(verify, "run_suites", lambda names: list(names))
        assert inspect.isfunction(SUITES[name]) and not inspect.signature(SUITES[name]).parameters
        assert SUITES[name]() == [name]

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
    Its items are checks, not suites.  The worker layer's failure cases run
    on verify's checks in tests/test_workers.py::TestPasses."""

    @pytest.mark.parametrize(
        "names", [None, ["lowerbounds", "phi"], ["phi", "phi"]], ids=["all", "order-kept", "repeated"]
    )
    def test_two_workers_equal_one(self, names):
        assert run_suites(names, workers=2) == run_suites(names, workers=1)
        assert_no_child()

    def test_order_kept_when_processes_interleave(self, monkeypatch):
        # "slow" holds one process while the other takes "slower", the next
        # check of the same suite; the first then takes "quick", the other
        # suite's check, so neither process ran a prefix of the order and
        # one suite's checks ran in two processes.  run_suites reads CHECKS
        # at call time, so these stand-ins are what the workers run.
        def check(suite, name, seconds):
            def run():
                time.sleep(seconds)
                return [CheckResult(suite, name, name != "quick", str(os.getpid()))]

            return run

        monkeypatch.setitem(CHECKS, "one", (check("one", "slow", 0.2), check("one", "slower", 0.4)))
        monkeypatch.setitem(CHECKS, "two", (check("two", "quick", 0.0),))
        results = run_suites(["one", "two"], workers=2)
        assert [(r.suite, r.name, r.ok) for r in results] == [
            ("one", "slow", True), ("one", "slower", True), ("two", "quick", False)]
        assert results[0].detail == results[2].detail != results[1].detail  # the checks ran in two processes
        assert_no_child()

    def test_each_process_computes_each_table_once(self, monkeypatch):
        # Each process keeps its own run memo: a table two processes both
        # need is computed once in each, never twice in one.
        want = run_suites(workers=1)
        log = SharedLog()

        def spied(kind, fn):
            def spy(h):
                log.append((os.getpid(), kind, tuple(h.edge_masks)))
                return fn(h)

            return spy

        monkeypatch.setattr(verify, "edge_count_histogram", spied("histogram", verify.edge_count_histogram))
        monkeypatch.setattr(verify, "_induced_edge_sets", spied("edge sets", verify._induced_edge_sets))
        assert run_suites(workers=2) == want
        calls = Counter(log)
        assert calls and max(calls.values()) == 1
        assert len({pid for pid, _, _ in calls}) <= 2
        assert_no_child()


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
    def test_exact_pmf_matches_oracle(self, n, q, m):
        assert verify._binomial_pmf(n, q, m) == oracles.binom_pmf(m, n, q)

    @pytest.mark.parametrize("t", [1.0, 2.0, 3.0, 6.0])
    def test_exact_tail_matches_oracle(self, t):
        lo = math.ceil(20 * 0.3 - t)
        assert sum(verify._binomial_pmf(20, 0.3, j) for j in range(lo, 21)) == oracles.binom_sf(lo - 1, 20, 0.3)

    @pytest.mark.parametrize("q", [0.0, 0.3, 0.5, 1.0])
    def test_oracles_follow_pascals_rule(self, q):
        # Bin(n, q) is Bin(n - 1, q) plus one more trial: a recursion the
        # oracles' closed forms never use.
        pmf, sf, fq = oracles.binom_pmf, oracles.binom_sf, Fraction(q)
        assert (pmf(0, 0, q), sf(-1, 0, q), sf(0, 0, q)) == (1, 1, 0)
        for n in range(1, 9):
            for m in range(-2, n + 2):
                assert pmf(m, n, q) == fq * pmf(m - 1, n - 1, q) + (1 - fq) * pmf(m, n - 1, q)
                assert sf(m, n, q) == fq * sf(m - 1, n - 1, q) + (1 - fq) * sf(m, n - 1, q)


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


class TestTally:
    """The one tally behind every counted check: its sums, pass rule and detail."""

    def test_no_cases_pass_with_zero_counts(self):
        r = verify._tally("s", "c", iter(()), "{checked} rows, {violations} violations")
        assert (r.ok, r.checked, r.violations, r.active, r.detail) == (True, 0, 0, None, "0 rows, 0 violations")

    def test_a_case_counts_each_of_its_violations(self):
        r = verify._tally("s", "c", [(1, 2, 0), (1, 0, 0)], "{violations} of {checked}")
        assert (r.ok, r.checked, r.violations, r.detail) == (False, 2, 2, "2 of 2")

    def test_need_active_fails_a_run_with_no_active_case(self):
        idle = [(1, 0, 0), (1, 0, 0)]
        assert not verify._tally("s", "c", idle, "", need_active=True).ok
        assert verify._tally("s", "c", idle, "", need_active=False).ok
        r = verify._tally("s", "c", [*idle, (1, 0, 1)], "{active} active", need_active=True)
        assert (r.ok, r.active, r.detail) == (True, 1, "1 active")

    def test_a_check_without_an_active_count_reports_none(self):
        r = verify._tally("s", "c", [(1, 0, 1)], "{active}")
        assert (r.active, r.detail) == (None, "None")

    def test_weighted_cases_and_named_figures(self):
        detail = "{checked}/{violations}/{active}, worst {worst:.2e}, b in [{lo:.1f}, {hi:.1f}]"
        cases = [(3, 3, 1), (0, 1, 0)]
        r = verify._tally("s", "c", cases, detail, need_active=False, worst=0.0015, lo=-1, hi=2)
        assert (r.ok, r.checked, r.violations, r.active) == (False, 3, 4, 1)
        assert r.detail == "3/4/1, worst 1.50e-03, b in [-1.0, 2.0]"

    def test_no_sampled_triples_still_count_active(self):
        assert _counts(verify.sandwich_sample_check(7, 0)) == (0, 0, 0)


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

    def test_cascade_check_derives_no_edge_ids(self, monkeypatch):
        # _sampled returns each sample's edge ids, and the event check and
        # X_r take them as they are: H[S] is never derived again.
        calls = spy_induced_edges(monkeypatch)
        assert _counts(verify.cascade_consistency_check(13, 400))[1] == 400
        assert calls == []

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


# A fault in one input of a counted check, and the violations the check must
# then report.  Exact counts, not just "some": the box fault breaks both of
# random_pairs' per-pair claims in each of its 200 pairs and BK under each
# measure (200 + 200 + 600), so a dropped claim shows as a smaller count.
FAULTS = {
    "random_pairs": ("box", lambda box: lambda a, b: disjointness.EventTable(a.m, a.table),
                     verify.bk_random_pairs, 1000),
    "clean_config": ("clean_config_histogram", lambda clean: lambda h: 2 * verify.edge_count_histogram(h),
                     verify.clean_config_check, 18),
    "moments": ("exact_variance", lambda var: lambda h, p: 1.01 * var(h, p),
                lambda: verify.moments_check(FamilySpec("ap", 10, 3)), 9),  # all but p = 0 and 1
    "cascade": ("check_cascade_event", lambda event: lambda *args: SimpleNamespace(verdict=True),
                lambda: verify.cascade_consistency_check(13, 400), 4),
}


@pytest.mark.parametrize("name", list(FAULTS))
def test_injected_fault_fails_its_check(name, monkeypatch):
    attr, fault, check, violations = FAULTS[name]
    monkeypatch.setattr(verify, attr, fault(getattr(verify, attr)))
    r = check()
    assert (r.ok, r.violations) == (False, violations)


def test_clean_config_forgives_float_noise(monkeypatch):
    # A bound 1e-10 above the exact mass in every row lies within the check's
    # 1e-9 relative slack: float noise, not a violation.
    hist = verify.edge_count_histogram
    monkeypatch.setattr(verify, "clean_config_histogram", lambda h: (1.0 + 1e-10) * hist(h))
    assert _counts(verify.clean_config_check()) == (0, 18, None)


# The five sampled checks as their suites call them, the sandwich check also at
# 0 and 4 cases, each with the number of cases it draws.
SAMPLED_CHECKS = {
    "sandwich-0": (lambda: verify.sandwich_sample_check(7, 0), 0),
    "sandwich-4": (lambda: verify.sandwich_sample_check(7, 4), 4),
    "sandwich-2000": (lambda: verify.sandwich_sample_check(7, 2000), 2000),
    "mr_z": (verify.mr_z_sample_check, 200),
    "cascade_consistency": (lambda: verify.cascade_consistency_check(13, 400), 400),
    "cascade_accounting": (verify.cascade_accounting_check, 50),
    "cascade_trivial": (verify.cascade_trivial_checks, 201),
}


@pytest.mark.parametrize("name", list(SAMPLED_CHECKS))
def test_sampled_cases_are_successive_sample_vp_draws(name, monkeypatch):
    # A sampled check draws once, through verify._sampled: each (p, ..., h)
    # case it reads holds the subset the next sample_vp call on stream 0 of
    # the seed draws, which keeps what the float compare random() < p keeps,
    # and the ids of the edges that subset induces.
    check, count = SAMPLED_CHECKS[name]
    made, calls = [], []
    sampled = verify._sampled

    def generator(seed, stream):
        made.append(stream_generator(seed, stream))
        return made[-1]

    def spy(seed, cases):
        calls.append((seed, sampled(seed, cases)))
        return calls[-1][1]

    monkeypatch.setattr(verify, "stream_generator", generator)
    monkeypatch.setattr(verify, "_sampled", spy)
    check()
    [(seed, got)] = calls
    assert len(made) == 1 and len(got) == count
    rng, ref = stream_generator(seed, 0), stream_generator(seed, 0)
    for (p, *_, h), bits, ids in got:
        s = sample_vp(h, p, rng)
        assert (bits, ids) == (s.bits, induced_edges(h, s))
        assert bits == sum(1 << v for v in oracles.float_sample_vp(h.n, p, ref))
    # All three read the same words, so the generators stay in step.
    words = [g.bit_generator.random_raw(5).tolist() for g in (made[0], rng, ref)]
    assert words[0] == words[1] == words[2]


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
            want = verify._size_value_hist(np.array([mr_exact(h, ids, r) for ids in sets])[index])
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
