"""A committed table of mutants and the semantic tests that must kill them.

Each row names a file under src/uppertail, one exact line of it, the line
that replaces it, and the pytest node ids that must fail once it is replaced.
Name tests that check meaning (a law, a bound, a closed form), never a test
that compares a whole output with a pinned file: a pin kills every mutant
that moves a byte, so it says nothing about whether the semantic tests are
still alive.  Never name a test that starts a fresh interpreter, such as
tests/test_pins.py or the subprocess checks of tests/test_imports.py: that
interpreter loads the unmutated source, so such a test can only make a row
survive.

    python tests/mutants.py

The script imports pytest, numpy, scipy and hypothesis once, but no uppertail
module, and forks one child per pytest run, one run at a time.  A row's
child loads its module from the real source file with the one line replaced,
in memory and under the file's own path, before anything else imports it;
no file is ever written, so src/ needs no copy and no restore.  Children
write no bytecode, no pytest cache and no hypothesis examples.  The named
tests first run once unmutated and must pass there.  The script exits 1 when
a mutant survives (a named test passes), when a child sends no result, when a
row's old line does not occur exactly once in its file, or when the named
tests fail before any mutation.  It does not collect under pytest (no test_
prefix).
"""

from __future__ import annotations

import gc
import importlib
import importlib.util
import os
import pickle
import sys
import time
import traceback
from pathlib import Path

import pytest
from hypothesis import settings

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

EST = "estimate.py"
T_EST = "tests/test_estimate.py::"
T_CLI = "tests/test_cli.py::"
ACCEPT_01 = "tests/test_acceptance.py::test_accept_01_exact_oracle_agreement"
PLANTED_EXACT = [T_EST + "TestPlanted::test_full_witness_saturates",
                 T_EST + "TestCertifiedColumn::test_planted_full_witness_is_exact[0.5-142]"]
CONDITIONED_EXACT = [T_EST + "TestConditioned::test_reports_m_and_factor",
                     T_EST + "TestCertifiedColumn::test_conditioned_all_vertices_is_exact[0.5-142]"]
MC_COVERS = T_EST + "TestMonteCarlo::test_interval_covers_exact"
T_XR = "tests/test_decompose.py::TestXr::"
T_IDS = "tests/test_decompose.py::TestEdgeIdForms::"
T_BOX = "tests/test_disjointness.py::TestBox::"
RUN_MEMO_SCOPE = T_EST + "TestHeldHistogram::test_run_suites_enumerates_each_graph_once"
EARLY_READ = T_EST + "TestHeldHistogram::test_exact_readers_refuse_before_enumerating"
WEIGHT_RANGE = T_EST + "TestHeldHistogram::test_size_weighted_sum_refuses_p_outside_the_unit_interval"
T_WORKERS = "tests/test_workers.py::"
P_DRAW = "tests/test_rng.py::TestPDrawLaw::"
P_REF = "tests/test_rng.py::TestSampleVpReference::test_draws_equal_the_float_compare"
CELL = "tests/test_bounds.py::test_boundary"  # CELL + "[entry-input-value]" is one boundary table cell
KERNEL = T_EST + "TestSamplingKernel::"
NAN_REFUSED = T_EST + "TestNaNThreshold::test_refused"
T_WITNESSES = "tests/test_families.py::TestWitnesses::"
SAMPLED = "tests/test_verify.py::test_sampled_cases_are_successive_sample_vp_draws"
TALLY = "tests/test_verify.py::TestTally::"
FAULT = "tests/test_verify.py::test_injected_fault_fails_its_check"
LAYOUT = "tests/test_rng.py::TestChunkLayout::test_streams_cover_the_total_in_order"

# (name, file, old line, new line, node ids that must fail)
MUTANTS = [
    ("planted factor x1.5", EST,
     "    factor = p**w_size",
     "    factor = 1.5 * p**w_size",
     PLANTED_EXACT),
    ("planted factor x8", EST,
     "    factor = p**w_size",
     "    factor = 8 * p**w_size",
     PLANTED_EXACT),
    ("planted pass ignores the forced set", EST,
     "    free = [v for v in range(h.n) if not (forced.bits >> v) & 1]",
     "    free = list(range(h.n))",
     PLANTED_EXACT),
    ("exact_tail enumerates before checking p", EST,
     "    thr = _float_threshold(threshold)  # the threshold, then p, fail before the 2^n pass",
     "    thr = _float_threshold(threshold); edge_count_histogram(h, workers)",
     [EARLY_READ + "[tail-p1.5]", EARLY_READ + "[tail-pnan]"]),
    ("exact_point_mass enumerates before checking m and p", EST,
     "    check_threshold(m=m)  # m, then p, fail before the 2^n pass",
     "    edge_count_histogram(h, workers); check_threshold(m=m)",
     [EARLY_READ + "[point-mnan]", EARLY_READ + "[point-p-0.1]", EARLY_READ + "[point-p-0.5]"]),
    ("size_weighted_sum without its p range check", EST,
     "    check_probability(p)  # every exact read weighs through here",
     "    pass",
     [WEIGHT_RANGE + "[nan]", WEIGHT_RANGE + "[1.5]"]),
    ("conditioned factor x1.5", EST,
     "    factor = 1.0 if m <= 0 else float(betainc(m, h.n - m + 1, p))",
     "    factor = 1.0 if m <= 0 else 1.5 * float(betainc(m, h.n - m + 1, p))",
     CONDITIONED_EXACT),
    ("conditioned factor x8", EST,
     "    factor = 1.0 if m <= 0 else float(betainc(m, h.n - m + 1, p))",
     "    factor = 1.0 if m <= 0 else 8 * float(betainc(m, h.n - m + 1, p))",
     CONDITIONED_EXACT + [T_EST + "TestConditioned::test_never_exceeds_exact"]),
    ("> for >= in SampleHistogram.hits", EST,
     "        return int(self.counts[np.arange(len(self.counts)) >= threshold].sum())",
     "        return int(self.counts[np.arange(len(self.counts)) > threshold].sum())",
     [T_EST + "TestSamplingKernel::test_hits_match_induced_edge_count", MC_COVERS]),
    ("SampleHistogram.hits without its NaN refusal", EST,
     "        check_threshold(threshold=threshold)",
     "        pass",
     [T_EST + "TestNaNThreshold::test_held_pass_refuses_nan"]),
    ("tail entry points accept a threshold past the float range", EST,
     '        raise ValueError("threshold lies outside the float range") from None',
     "        return threshold",
     [T_EST + "TestUnrepresentableThreshold::test_refused_before_any_pass[exact_tail-1e400]",
      T_EST + "TestUnrepresentableThreshold::test_refused_before_any_pass[mc_tail--1e400]",
      T_EST + "TestUnrepresentableThreshold::test_held_pass_refuses_it_too"]),
    ("> for >= in histogram_tail", EST,
     "    return _column_weight(hist, p, np.arange(hist.shape[1]) >= threshold)",
     "    return _column_weight(hist, p, np.arange(hist.shape[1]) > threshold)",
     [ACCEPT_01, T_EST + "TestExact::test_frozen_quarter_example"]),
    ("m - 1 in conditioned_size", EST,
     "    return round(raw) if abs(raw - round(raw)) < 1e-9 else math.ceil(raw)",
     "    return round(raw) - 1 if abs(raw - round(raw)) < 1e-9 else math.ceil(raw) - 1",
     CONDITIONED_EXACT),
    ("lambda = 3 / denom in planting_target", EST,
     "    lam = 4.0 / denom",
     "    lam = 3.0 / denom",
     [T_EST + "TestPlantingTarget::test_closed_form_bit_for_bit"]),
    ("planting_target without its NaN and infinity refusal", EST,
     "    check_finite(mu=mu, t=t)",
     "    pass",
     [CELL + "[planting_target-mu-nan]", CELL + "[planting_target-t-nan]",
      CELL + "[planting_target-mu-inf]", CELL + "[planting_target-t--inf]"]),
    ("kernel keeps the hit rows past a short block", EST,
     "        hit[size:] = 0  # a short last block must not count the rows before it",
     "        pass",
     [KERNEL + "test_short_block_counts_no_rows_of_the_block_before",
      KERNEL + "test_full_chunk_on_n300_matches_byte_oracle[ap-0.05]",
      KERNEL + "test_every_edge_inside_carries_through_every_plane[65]"]),
    ("kernel's running planes stop one plane short of the bound", EST,
     "        _add_planes(running[: bound.bit_length()], planes, carry, tmp[:64])",
     "        _add_planes(running[: bound.bit_length() - 1], planes, carry, tmp[:64])",
     [KERNEL + "test_every_edge_inside_carries_through_every_plane[1]",
      KERNEL + "test_every_edge_inside_carries_through_every_plane[4096]",
      KERNEL + "test_full_chunk_on_n300_matches_byte_oracle[schur-1.0]"]),
    ("no across-mask add in _subset_histogram", EST,
     "            np.add(row_starts[s], counts[s], out=keys)",
     "            np.add(row_starts[s], 0, out=keys)",
     [T_EST + "TestBlockSplit::test_slices_match_oracle_and_unsliced_pass[1]",
      T_EST + "TestSupersetKernel::test_consumers_match_brute_force"]),
    ("fixed stream index in chunk_layout", "rng.py",
     "        yield stream, min(CHUNK, total - start)",
     "        yield 0, min(CHUNK, total - start)",
     [MC_COVERS, LAYOUT]),
    ("chunk_layout refuses a total of 0", "rng.py",
     "    if total < 0:",
     "    if total <= 0:",
     [CELL + "[chunk_layout_head-total-0]", LAYOUT]),
    ("raw-word compare keeps each word at 1.05 p", "rng.py",
     "    c = math.ceil(p * 2.0**53)",
     "    c = math.ceil(1.05 * p * 2.0**53)",
     [T_EST + "TestSamplingKernel::test_blocked_draw_is_one_big_draw[512]", MC_COVERS,
      P_DRAW + "test_masks_equal_the_float_compare[300-0.05]", SAMPLED + "[sandwich-2000]"]),
    ("<= for < in the raw-word compare", "rng.py",
     "    return raw < np.uint64(c << 11) if c < 1 << 53 else np.ones(raw.shape, dtype=bool)",
     "    return raw <= np.uint64(c << 11) if c < 1 << 53 else np.ones(raw.shape, dtype=bool)",
     [P_DRAW + "test_every_tie_with_the_cut[0]", P_DRAW + "test_every_tie_with_the_cut[0.05]",
      P_DRAW + "test_every_tie_with_the_cut[1/3]"]),
    # One row per refusal helper.  The rows down to check_subset_size are each
    # killed by tests of two modules; the range kinds' rows by boundary table
    # cells, which call entry points of several modules.
    ("check_probability refuses nothing", "hypergraph.py",
     "    if not 0.0 <= p <= 1.0:",
     "    if False:",
     [WEIGHT_RANGE + "[nan]", WEIGHT_RANGE + "[1.5]", CELL + "[moment_report-p-nan]",
      "tests/test_hypergraph.py::TestSampling::test_rejects_invalid"]),
    ("check_threshold refuses nothing", "hypergraph.py",
     "        if value != value:",
     "        if False:",
     [NAN_REFUSED + "[exact_tail]", NAN_REFUSED + "[mc_tail]",
      T_EST + "TestNaNThreshold::test_held_pass_refuses_nan",
      T_WITNESSES + "test_interval_witness_refuses_nan", T_WITNESSES + "test_greedy_witness_refuses_nan"]),
    ("check_finite refuses nothing", "hypergraph.py",
     "        if not -math.inf < value < math.inf:",
     "        if False:",
     [CELL + "[theorem_c_bound-mu-inf]", CELL + "[MomentReport-lam-inf]",
      CELL + "[planting_target-mu-inf]", CELL + "[conditioned_size-eps-inf]"]),
    ("check_finite lets an int past the float range through", "hypergraph.py",
     "            float(value)",
     "            pass",
     [CELL + "[MomentReport-mu-1e400]", CELL + "[theorem_c_bound-t-1e400]",
      CELL + "[conditioned_size-eps-1e400]"]),
    ("check_count refuses nothing", "hypergraph.py",
     '        if not (hasattr(value, "__index__") and operator.index(value) >= 0):',
     "        if False:",
     ["tests/test_hypergraph.py::TestCounts::test_refused_by_name[hypergraph-n]",
      "tests/test_families.py::TestFamilySpec::test_counts_must_be_integers[n]",
      CELL + "[planted_tail-samples-2.5]", CELL + "[hypergeom_conditional_mean-m-2.5]"]),
    ("check_subset_size lets m past n through", "hypergraph.py",
     "    if not m <= n:",
     "    if False:",
     ["tests/test_hypergraph.py::TestSampling::test_rejects_invalid",
      "tests/test_bounds.py::TestHypergeom::test_extremes"]),
    ("check_positive lets 0 through", "hypergraph.py",
     "            if not value > 0:",
     "            if not value >= 0:",
     [CELL + "[theorem_c_bound-t-0]", CELL + "[xr_exact-r-0]", CELL + "[bounds_flags-capacity-0]"]),
    ("check_positive's float shortcut lets -0.0 through", "hypergraph.py",
     "        if not (type(value) is float and 0 < value < math.inf):  # X_r and M_r call this per sample",
     "        if not (type(value) is float and 0 <= value < math.inf):",
     [CELL + "[theorem_c_bound-t--0.0]", CELL + "[xr_exact-r--0.0]"]),
    ("check_positive's float shortcut takes an int past the float range", "hypergraph.py",
     "        if not (type(value) is float and 0 < value < math.inf):  # X_r and M_r call this per sample",
     "        if not 0 < value < math.inf:",
     [CELL + "[theorem_c_bound-t-1e400]", CELL + "[xr_exact-r-1e400]"]),
    ("check_nonnegative refuses 0", "hypergraph.py",
     "        if not value >= 0:",
     "        if not value > 0:",
     [CELL + "[MomentReport-mu-0]", CELL + "[exponent_apt-var-0]", CELL + "[lb_cluster_bound-d-0]"]),
    ("check_rate lets 0 through", "hypergraph.py",
     "        if not 0 < value <= 1:",
     "        if not 0 <= value <= 1:",
     [CELL + "[exponent_ap-p-0]", CELL + "[exponent_apt-p-0]", CELL + "[exponent_hg-p-0]",
      CELL + "[lb_cluster_bound-p-0]"]),
    ("check_open_rate lets 1 through", "hypergraph.py",
     "        if not 0 < value < 1:",
     "        if not 0 < value <= 1:",
     [CELL + "[binomial_point_lower-q-1]", CELL + "[CascadeParams-p-1]"]),
    ("sample_vp draws every vertex but 0", "hypergraph.py",
     "    return VertexSet.from_bool_array(p_keep(rng.bit_generator.random_raw(h.n), p))",
     "    return VertexSet.from_bool_array(np.r_[True, p_keep(rng.bit_generator.random_raw(h.n - 1), p)])",
     [P_REF + "[philox-1-0.5]", P_REF + "[philox-8-0.05]", P_REF + "[pcg64-60-1/3]"]),
    ("Fisher-Yates draws j from [0, n)", "rng.py",
     "        j = gen.integers(i, n, size=count)",
     "        j = gen.integers(0, n, size=count)",
     ["tests/test_hypergraph.py::TestSampling::test_vm_uniformity",
      T_EST + "TestConditioned::test_int32_draw_matches_int64_reference[30-7-300]"]),
    ("edge budget counts edges, not array entries", "families.py",
     "    cap = 3 * EDGE_BUDGET // max(k, 3)  # edges * max(k, 3) <= 3 * EDGE_BUDGET",
     "    cap = EDGE_BUDGET",
     ["tests/test_families.py::TestEdgeBudget::test_one_over_budget_allocates_nothing[ap-4-1]"]),
    ("sweep key without t", "cli.py",
     'SWEEP_KEY = ("family", "n", "k", "p", "t", "method", "samples", "seed")',
     'SWEEP_KEY = ("family", "n", "k", "p", "method", "samples", "seed")',
     [T_CLI + "TestSweep::test_key_changes_cover_every_key_column",
      T_CLI + "TestHeldSamples::test_resumed_mc_sweep_draws_once"]),
    ("quadratic and ratio-log tags swapped in theorem_c_bound", "bounds.py",
     '    forms = (("theorem_c", main), ("theorem_c_quadratic", quad), ("theorem_c_ratio_log", ratio))',
     '    forms = (("theorem_c", main), ("theorem_c_ratio_log", quad), ("theorem_c_quadratic", ratio))',
     [T_CLI + "TestFamilyAndBounds::test_each_bound_family_is_one_call_in_row_order",
      T_CLI + "TestFamilyAndBounds::test_bounds_at_t_past_float_squares"]),
    ("theorem_c_bound without its capacity and t refusal", "bounds.py",
     "    check_positive(capacity=capacity, t=t)",
     "    pass",
     [CELL + "[theorem_c_bound-capacity-inf]", CELL + "[theorem_c_bound-t-0]"]),
    ("the binomial bound takes a fractional n", "bounds.py",
     "    check_count(n=n)  # a fractional n would give a bound for fractional trials",
     "    pass",
     [CELL + "[binomial_point_lower-n-2.5]", CELL + "[binomial_point_lower-n-tiny]"]),
    ("the bound chain lets a +inf primary through", "bounds.py",
     "    if primary > weaker + slack or (primary == math.inf and weaker < math.inf):",
     "    if primary > weaker + slack:",
     ["tests/test_bounds.py::TestChainCheck::test_fails_an_infinite_primary"]),
    ("the bound chain fails when both ends are +inf", "bounds.py",
     "    if primary > weaker + slack or (primary == math.inf and weaker < math.inf):",
     "    if primary > weaker + slack or (primary == math.inf and weaker <= math.inf):",
     ["tests/test_bounds.py::TestChainCheck::test_passes_when_both_ends_are_infinite"]),
    ("moment_report's lam is mu at k = 1", "bounds.py",
     "    lam = mu * (1.0 + h.n * p ** (h.k - 1))",
     "    lam = mu * (1.0 + h.n * p ** (h.k - 1)) if h.k > 1 else mu",
     ["tests/test_bounds.py::TestMoments::test_moment_report_lambda_at_k_one"]),
    ("<= for < in the X_r skip branch's drop count", "decompose.py",
     "            elif chosen[v] + left[v] < cap:",
     "            elif chosen[v] + left[v] <= cap:",
     [T_XR + "test_matches_oracle_random", T_XR + "test_matches_oracle_any_uniformity"]),
    ("xr_or_lower guard without r < 1", "decompose.py",
     "    if r < 1 or len(ids) <= XR_EDGE_BUDGET:",
     "    if len(ids) <= XR_EDGE_BUDGET:",
     [T_XR + "test_radius_below_one_is_exactly_zero_past_the_budget[0.5]"]),
    ("repeated edge ids pass the id check", "decompose.py",
     "    if len(set(s)) < len(s) or not all(map(range(h.num_edges).__contains__, s)):",
     "    if not all(map(range(h.num_edges).__contains__, s)):",
     [T_IDS + "test_steps_refuse_ids_that_are_not_distinct_edge_ids[repeated]"]),
    ("< for <= in M_r's live-center prune", "decompose.py",
     "        if count + len(live) <= best:",
     "        if count + len(live) < best:",
     ["tests/test_decompose.py::TestStarMatching::test_mr_nodes_where_the_live_count_ties_the_best"]),
    ("degree_event takes a NaN c", "disjointness.py",
     "    check_count(c=c)  # a NaN or fractional c would give the empty event, or no events, silently",
     "    pass",
     [CELL + "[degree_event-c-nan]", CELL + "[degree_events-c-nan]",
      "tests/test_disjointness.py::TestHypergraphEvents::test_degree_events_refuse_a_count_that_is_not_an_integer"]),
    ("box pairs table K with table K, not full - K", "disjointness.py",
     "    for x, y in zip(ta, reversed(tb)):",
     "    for x, y in zip(ta, tb):",
     [T_BOX + "test_matches_naive_random",
      "tests/test_disjointness.py::TestZDisjoint::test_pair_consistency_with_box"]),
    ("table step without the coordinate-zero mask", "disjointness.py",
     "        tables = [(both := t & (t >> shift) & zero) | (both << shift) for t in tables] + tables",
     "        tables = [(both := t & (t >> shift)) | (both << shift) for t in tables] + tables",
     [T_BOX + "test_matches_naive_random", T_BOX + "test_universal_tables_match_cylinder_forces"]),
    ("the sampled-case helper draws from stream 1", "verify.py",
     "    raw = stream_generator(seed, 0).bit_generator.random_raw(sum(sizes))",
     "    raw = stream_generator(seed, 1).bit_generator.random_raw(sum(sizes))",
     [SAMPLED + "[sandwich-4]", SAMPLED + "[mr_z]", SAMPLED + "[cascade_trivial]",
      "tests/test_verify.py::TestCheckCounts::test_every_result_pinned"]),
    ("the tally ignores need_active", "verify.py",
     "    ok = violations == 0 and (not need_active or active > 0)",
     "    ok = violations == 0",
     [TALLY + "test_need_active_fails_a_run_with_no_active_case"]),
    ("the tally counts a case's violations as one", "verify.py",
     "        violations += case_violations",
     "        violations += bool(case_violations)",
     [TALLY + "test_a_case_counts_each_of_its_violations", TALLY + "test_weighted_cases_and_named_figures"]),
    ("the tally drops active", "verify.py",
     '    totals = {"checked": checked, "violations": violations, "active": None if need_active is None else active}',
     '    totals = {"checked": checked, "violations": violations, "active": None}',
     [TALLY + "test_no_sampled_triples_still_count_active",
      TALLY + "test_need_active_fails_a_run_with_no_active_case"]),
    ("random_pairs drops the order check", "verify.py",
     "        cases.append((0, bool(ab.table & ~(a.table & b.table)) + (ab != box(b, a)), 0))",
     "        cases.append((0, bool(ab.table & ~(a.table & b.table)), 0))",
     [FAULT + "[random_pairs]"]),
    ("clean_config compares without its 1e-9 slack", "verify.py",
     "                    cases.append((1, histogram_point_mass(hist, p, m) < lower * (1.0 - 1e-9), 0))",
     "                    cases.append((1, histogram_point_mass(hist, p, m) < lower, 0))",
     ["tests/test_verify.py::test_clean_config_forgives_float_noise"]),
    ("moments ignores the variance error", "verify.py",
     "        errs.append(max(mean_err, var_err))",
     "        errs.append(mean_err)",
     [FAULT + "[moments]"]),
    ("run_suites keeps its memo after the run", "verify.py",
     "        _RUN_MEMO = None",
     "        pass",
     [RUN_MEMO_SCOPE]),
    ("run_suites never installs its memo", "verify.py",
     "    _RUN_MEMO = {}",
     "    _RUN_MEMO = None",
     [RUN_MEMO_SCOPE, "tests/test_verify.py::TestSpreadSuites::test_each_process_computes_each_table_once"]),
    # Only the interleaving tests kill this row every time: with real items,
    # which process takes which item is a race, and a run in which each
    # process took a prefix of the order merges correctly even so.  The
    # sampler's chunks merge by a sum, so only the enumerator's and verify's
    # cases count.
    ("spread results merged in completion order, not item order", "workers.py",
     "        return [done[i] for i in range(count)]",
     "        return list(done.values())",
     [T_WORKERS + "TestSpread::test_order_kept_when_processes_interleave",
      T_WORKERS + "TestPasses::test_order_kept_when_processes_interleave[enumerator]",
      T_WORKERS + "TestPasses::test_order_kept_when_processes_interleave[verify]",
      "tests/test_verify.py::TestSpreadSuites::test_order_kept_when_processes_interleave"]),
    # Serially the checks end in item order, so only the interleaving tests,
    # whose stand-in or hooked checks end out of order, kill this row.
    ("verify merges check results in completion order", "verify.py",
     "        done = spread(lambda i: checks[i](), len(checks), workers)",
     "        done = [r for r, _ in sorted(spread(lambda i: (checks[i](), __import__('time').monotonic()),"
     " len(checks), workers), key=lambda d: d[1])]",
     [T_WORKERS + "TestPasses::test_order_kept_when_processes_interleave[verify]",
      "tests/test_verify.py::TestSpreadSuites::test_order_kept_when_processes_interleave"]),
    ("spread without the cpu-count cap", "workers.py",
     "    procs = min(workers, os.cpu_count() or 1, count)",
     "    procs = min(workers, count)",
     [T_EST + "test_processes_bounded_by_cores[2-1]", T_EST + "test_processes_bounded_by_cores[None-0]",
      T_WORKERS + "TestSpread::test_more_processes_than_cores"]),
]

# Mutants no test can kill, each with the reason it changes no result.
EQUIVALENT = [
    ("DRAW_BLOCK 128 -> 64", "rng.py",
     "DRAW_BLOCK = 128  # samples per step of p_subset_members",
     "DRAW_BLOCK = 64  # samples per step of p_subset_members",
     "p_subset_members reads the same raw words in the same order for any block "
     "size; the block only bounds the temporary's size"),
]

WARM = ("numpy", "scipy.special", "scipy.stats")
# hypothesis is loaded before pytest asks to rewrite its plugin's asserts.
PYTEST_ARGS = ["-q", "-p", "no:cacheprovider", "-W", "ignore::pytest.PytestAssertRewriteWarning"]


class _Failures:
    """pytest plugin: the node ids of every failed test or collection report."""

    def __init__(self) -> None:
        self.ids: set[str] = set()

    def pytest_runtest_logreport(self, report) -> None:
        if report.failed:
            self.ids.add(report.nodeid)

    pytest_collectreport = pytest_runtest_logreport


def _load(path: str, old: str, new: str) -> None:
    """Import uppertail's module path from its own file, with its line old
    replaced by new, before anything else imports it."""
    import uppertail

    file = SRC / "uppertail" / path
    lines = file.read_text(encoding="utf-8").split("\n")
    lines[lines.index(old)] = new
    name = f"uppertail.{file.stem}"
    module = importlib.util.module_from_spec(importlib.util.spec_from_file_location(name, file))
    sys.modules[name] = module
    setattr(uppertail, file.stem, module)
    # Compiled under the file's own path: a test may match code.co_filename
    # against the module's __file__.
    exec(compile("\n".join(lines), str(file), "exec"), module.__dict__)


def _pytest(nodes: list[str], mutant: tuple[str, str, str] | None = None) -> tuple[int, set[str]] | str:
    """pytest's exit code and failed node ids on nodes, run in a child forked
    from this process with the mutant (path, old line, new line) loaded, if
    any; or, when the child sends nothing, why.  A mutant run prints nothing."""
    sys.stdout.flush()
    sys.stderr.flush()
    reader, writer = os.pipe()
    if (pid := os.fork()) == 0:
        try:
            if mutant is not None:
                _load(*mutant)
                null = os.open(os.devnull, os.O_WRONLY)
                os.dup2(null, 1)
                os.dup2(null, 2)
            failures = _Failures()
            code = pytest.main([*PYTEST_ARGS, *nodes], plugins=[failures])
            with open(writer, "wb") as fh:
                pickle.dump((int(code), failures.ids), fh)
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(0)
    os.close(writer)
    with open(reader, "rb") as fh:
        payload = fh.read()
    _, status = os.waitpid(pid, 0)
    if not payload:
        return f"harness error: the child exited with code {os.waitstatus_to_exitcode(status)} and sent no result"
    return pickle.loads(payload)


def _fails(node: str, failed: set[str]) -> bool:
    """Whether node failed, or a collector above it failed to collect."""
    return any(node == f or node.startswith(f + "::") for f in failed)


def _check_rows(rows: list[tuple]) -> list[str]:
    """Each row's old line must occur exactly once in its file."""
    problems = []
    for name, path, old, _new, *_ in rows:
        lines = (SRC / "uppertail" / path).read_text(encoding="utf-8").splitlines()
        if (count := lines.count(old)) != 1:
            problems.append(f"{name}: old line occurs {count} times in {path}")
    return problems


def main(mutants: list[tuple] = MUTANTS, equivalent: list[tuple] = EQUIVALENT) -> int:
    loaded = sorted(name for name in sys.modules if name.partition(".")[0] == "uppertail")
    if loaded:
        raise RuntimeError(f"uppertail is already loaded ({loaded}), so no child could load a mutant")
    for name in WARM:  # once here, so that no forked child pays for them
        importlib.import_module(name)
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)
    settings.register_profile("mutants", database=None)  # no verdict reads saved examples
    settings.load_profile("mutants")
    # pytest collects garbage at the end of each session: leave these imports
    # out of it, or each child spends 0.3 s walking them.
    gc.freeze()
    problems = _check_rows(mutants + equivalent)
    if problems:
        print("\n".join(problems))
        return 1
    named = sorted({node for *_, nodes in mutants for node in nodes})
    result = _pytest(named)
    if isinstance(result, str) or result[0] != 0:
        print(f"named tests fail before any mutation: {result if isinstance(result, str) else sorted(result[1])}")
        return 1
    survivors = 0
    for name, path, old, new, nodes in mutants:
        start = time.perf_counter()
        result = _pytest(nodes, (path, old, new))
        if isinstance(result, str):
            verdict, note = "ERROR", f": {result}"
        else:
            alive = [node for node in nodes if not _fails(node, result[1])]
            verdict = "killed" if nodes and not alive else "SURVIVED"
            note = f": did not fail {alive}" if alive else ""
        survivors += verdict != "killed"
        print(f"{verdict:8s} {name} ({time.perf_counter() - start:.1f}s){note}")
    for name, *_, reason in equivalent:
        print(f"equivalent {name}: {reason}")
    print(f"{len(mutants) - survivors}/{len(mutants)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
