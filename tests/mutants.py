"""A committed table of mutants and the semantic tests that must kill them.

Each row names a file under src/uppertail, one exact line of it, the line
that replaces it, and the pytest node ids that must fail once it is replaced.
Name tests that check meaning (a law, a bound, a closed form), never a test
that compares a whole output with a pinned file: a pin kills every mutant
that moves a byte, so it says nothing about whether the semantic tests are
still alive.

    python tests/mutants.py

The rows are applied one at a time to a temporary copy of the repository's
src/, tests/, demos/ and perfbench/, so src/ itself is never written.  The
named tests first run once on the unmutated copy and must pass there.  The
script exits 1 when a mutant survives (a named test passes), when a row's old
line does not occur exactly once in its file, or when the named tests fail
before any mutation.  It does not collect under pytest (no test_ prefix).
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "demos", "perfbench", "pyproject.toml", "README.md")

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
T_BOX = "tests/test_disjointness.py::TestBox::"

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
     "        _check_threshold(threshold)",
     "        pass",
     [T_EST + "TestNaNThreshold::test_refused[mc_tail]",
      T_EST + "TestNaNThreshold::test_refused[conditioned_tail]"]),
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
    ("no across-mask add in _subset_histogram", EST,
     "            np.add(row_starts[s], counts[s], out=keys)",
     "            np.add(row_starts[s], 0, out=keys)",
     [T_EST + "TestBlockSplit::test_slices_match_oracle_and_unsliced_pass[1]",
      T_EST + "TestSupersetKernel::test_consumers_match_brute_force"]),
    ("fixed stream index in chunk_layout", "rng.py",
     "        yield stream, size",
     "        yield 0, size",
     [MC_COVERS]),
    ("p-draw keeps each vertex at 1.05 p", "rng.py",
     "        member[free, lo : lo + rows] = (gen.random((rows, len(free))) < p).T",
     "        member[free, lo : lo + rows] = (gen.random((rows, len(free))) < 1.05 * p).T",
     [T_EST + "TestSamplingKernel::test_blocked_draw_is_one_big_draw[512]", MC_COVERS]),
    ("Fisher-Yates draws j from [0, n)", "rng.py",
     "        j = gen.integers(i, n, size=count)",
     "        j = gen.integers(0, n, size=count)",
     ["tests/test_hypergraph.py::TestSampling::test_vm_uniformity",
      T_EST + "TestConditioned::test_int32_draw_matches_int64_reference[30-7-300]"]),
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
    ("<= for < in the X_r skip branch's drop count", "decompose.py",
     "            elif chosen[v] + left[v] < cap:",
     "            elif chosen[v] + left[v] <= cap:",
     [T_XR + "test_matches_oracle_random", T_XR + "test_matches_oracle_any_uniformity"]),
    ("xr_or_lower_on guard without r < 1", "decompose.py",
     "    if r < 1 or len(ids) <= XR_EDGE_BUDGET:",
     "    if len(ids) <= XR_EDGE_BUDGET:",
     [T_XR + "test_radius_below_one_is_exactly_zero_past_the_budget[0.5]"]),
    ("< for <= in M_r's live-center prune", "decompose.py",
     "        if count + len(live) <= best:",
     "        if count + len(live) < best:",
     ["tests/test_decompose.py::TestStarMatching::test_mr_nodes_where_the_live_count_ties_the_best"]),
    ("box pairs table K with table K, not full - K", "disjointness.py",
     "    for x, y in zip(ta, reversed(tb)):",
     "    for x, y in zip(ta, tb):",
     [T_BOX + "test_matches_naive_random",
      "tests/test_disjointness.py::TestZDisjoint::test_pair_consistency_with_box"]),
    ("table step without the coordinate-zero mask", "disjointness.py",
     "        tables = [(both := t & (t >> shift) & zero) | (both << shift) for t in tables] + tables",
     "        tables = [(both := t & (t >> shift)) | (both << shift) for t in tables] + tables",
     [T_BOX + "test_matches_naive_random", T_BOX + "test_universal_tables_match_cylinder_forces"]),
]

# Mutants no test can kill, each with the reason it changes no result.
EQUIVALENT = [
    ("DRAW_BLOCK 512 -> 256", "rng.py",
     "DRAW_BLOCK = 512  # samples per step of p_subset_members",
     "DRAW_BLOCK = 256  # samples per step of p_subset_members",
     "p_subset_members reads the same doubles in the same order for any block "
     "size; the block only bounds the temporary's size"),
]

FAILED = re.compile(r"^(?:FAILED|ERROR) (\S+?)(?: - .*)?$")


def _pytest(root: Path, args: list[str]) -> tuple[int, set[str], str]:
    """Run pytest in root on args; return its exit code, the failed node ids and its output."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *args],
        cwd=root, env=env, capture_output=True, text=True,
    )
    failed = {m.group(1) for line in run.stdout.splitlines() if (m := FAILED.match(line))}
    return run.returncode, failed, run.stdout + run.stderr


def _check_rows(root: Path) -> list[str]:
    """Each row's old line must occur exactly once in its file."""
    problems = []
    for name, path, old, _new, *_ in MUTANTS + EQUIVALENT:
        lines = (root / "src" / "uppertail" / path).read_text(encoding="utf-8").splitlines()
        if (count := lines.count(old)) != 1:
            problems.append(f"{name}: old line occurs {count} times in {path}")
    return problems


@contextmanager
def _mutated(root: Path, path: str, old: str, new: str):
    """The copy's file with its line old replaced by new, restored on exit."""
    target = root / "src" / "uppertail" / path
    original = target.read_text(encoding="utf-8")
    lines = original.split("\n")
    lines[lines.index(old)] = new
    target.write_text("\n".join(lines), encoding="utf-8")
    try:
        yield
    finally:
        target.write_text(original, encoding="utf-8")


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        root = Path(tmp)
        for name in COPIED:
            src = ROOT / name
            if src.is_dir():
                shutil.copytree(src, root / name, ignore=shutil.ignore_patterns("__pycache__", "out"))
            else:
                shutil.copy2(src, root / name)
        problems = _check_rows(root)
        if problems:
            print("\n".join(problems))
            return 1
        named = sorted({node for *_, nodes in MUTANTS for node in nodes})
        code, failed, out = _pytest(root, named)
        if code != 0:
            print(out)
            print(f"named tests fail before any mutation: {sorted(failed)}")
            return 1
        survivors = 0
        for name, path, old, new, nodes in MUTANTS:
            start = time.perf_counter()
            with _mutated(root, path, old, new):
                _, failed, _ = _pytest(root, nodes)
            alive = sorted(set(nodes) - failed)
            verdict = "killed" if nodes and not alive else "SURVIVED"
            survivors += verdict != "killed"
            print(f"{verdict:8s} {name} ({time.perf_counter() - start:.1f}s)"
                  + (f": did not fail {alive}" if alive else ""))
        for name, *_, reason in EQUIVALENT:
            print(f"equivalent {name}: {reason}")
        print(f"{len(MUTANTS) - survivors}/{len(MUTANTS)} mutants killed")
        return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
