import math

import pytest
from scipy.stats import binom

from uppertail import verify
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

    def test_results_are_labelled(self):
        results = run_suites(["phi"])
        assert all(isinstance(r, CheckResult) for r in results)
        assert all(r.suite == "phi" for r in results)
        names = [r.name for r in results]
        assert len(names) == len(set(names))


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
        assert binomial_floor_check() == (0, 53)
        assert paley_zygmund_check() == (0, 10)

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
