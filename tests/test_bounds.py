import copy
import math
import pickle
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binom

import oracles
from uppertail import bounds
from uppertail.bounds import (
    BoundReport,
    MomentReport,
    binomial_point_lower,
    binomial_point_lower_refined,
    et_bound,
    exact_mean,
    exact_variance,
    exponent_ap,
    exponent_appp,
    exponent_apt,
    exponent_hg,
    hypergeom_conditional_mean,
    lb_cluster_bound,
    moment_report,
    paley_zygmund_lower,
    phi,
    theorem_c_bound,
)
from uppertail.families import build_ap, build_ell_sum, build_schur
from uppertail.hypergraph import Hypergraph

AP4 = build_ap(4, 3)


class TestPhi:
    def test_anchor_values(self):
        assert phi(0.0) == 0.0
        assert phi(-1.0) == 1.0
        assert phi(1.0) == pytest.approx(2.0 * math.log(2.0) - 1.0, rel=1e-15)

    @given(st.floats(min_value=-0.999, max_value=1e6, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_matches_direct_form(self, x):
        # The direct form loses ~1e-16 absolute to cancellation near zero.
        assert phi(x) == pytest.approx(oracles.naive_phi(x), rel=1e-7, abs=1e-15)

    def test_series_branch_is_smooth(self):
        # Either side of the 1e-4 switch should agree to high precision.
        for x in (9.9e-5, 1.01e-4, -9.9e-5, -1.01e-4):
            assert phi(x) == pytest.approx(oracles.naive_phi(x), rel=1e-6)

    def test_nonnegative_and_monotone_right(self):
        values = [phi(x) for x in (0.0, 0.5, 1.0, 2.0, 8.0)]
        assert all(v >= 0 for v in values)
        assert values == sorted(values)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            phi(-1.0001)
        for x in (math.nan, -math.inf):
            with pytest.raises(ValueError, match=r"\[-1, inf\)"):
                phi(x)

    def test_at_infinity(self):
        # (1 + x) log1p(x) - x is inf - inf there.
        assert phi(math.inf) == math.inf


class TestMoments:
    def test_mean_formula(self):
        assert exact_mean(AP4, 0.5) == pytest.approx(2 * 0.5**3, rel=1e-15)
        assert exact_mean(AP4, 0.0) == 0.0
        assert exact_mean(AP4, 1.0) == 2.0

    def test_variance_frozen_quarter(self):
        # Two APs sharing two vertices: Var = 2(p^3-p^6) + 2(p^4-p^6) = 5/16 at 1/2.
        assert exact_variance(AP4, 0.5) == pytest.approx(5.0 / 16.0, rel=1e-14)

    def test_moments_match_enumeration(self):
        for h, n in ((build_ap(9, 3), 9), (build_schur(9), 9)):
            edges = [tuple(e) for e in h.edges]
            hist = oracles.size_value_histogram(edges, n)
            for p in (0.15, 0.4, 0.75):
                mean, var = oracles.naive_moments(hist, n, p)
                assert exact_mean(h, p) == pytest.approx(mean, rel=1e-11)
                assert exact_variance(h, p) == pytest.approx(var, rel=1e-10, abs=1e-13)

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_variance_matches_enumeration_random(self, data):
        k = data.draw(st.integers(min_value=1, max_value=4))
        n = data.draw(st.integers(min_value=k, max_value=10))
        pool = list(combinations(range(n), k))
        edges = sorted(data.draw(st.sets(st.sampled_from(pool), max_size=min(len(pool), 40))))
        p = data.draw(st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)))
        h = Hypergraph(k, n, edges)
        mean, var = oracles.naive_moments(oracles.size_value_histogram(edges, n), n, p)
        got = exact_variance(h, p)
        assert got >= 0.0
        # The oracle's E[X^2] - E[X]^2 loses about E[X^2] * 1e-16 absolute.
        assert got == pytest.approx(var, rel=1e-9, abs=1e-12 * (1.0 + mean * mean + var))

    @pytest.mark.parametrize(
        "h",
        [build_ap(60, 3), build_ap(40, 4), build_schur(60), build_ell_sum(60, 2)],
        ids=["ap60_3", "ap40_4", "schur60", "ell_sum60_2"],
    )
    def test_variance_matches_pair_scan(self, h):
        ps = [i / 20.0 for i in range(21)]
        want = oracles.pair_scan_variances([tuple(e) for e in h.edges], ps)
        got = [exact_variance(h, p) for p in ps]
        assert got == pytest.approx(want, rel=1e-12, abs=1e-300)

    def test_variance_edge_cases(self):
        assert exact_variance(AP4, 0.0) == 0.0
        assert exact_variance(AP4, 1.0) == pytest.approx(0.0, abs=1e-12)
        assert exact_variance(Hypergraph(3, 6, []), 0.3) == 0.0

    def test_moment_report_lambda(self):
        rep = moment_report(AP4, 0.5)
        assert rep.lam == pytest.approx(rep.mu * (1.0 + 4 * 0.5**2), rel=1e-15)

    @pytest.mark.parametrize("p", [math.nan, 1.5, -0.1])
    def test_moments_refuse_p_outside_the_unit_interval(self, p):
        for moment in (exact_mean, exact_variance, moment_report):
            with pytest.raises(ValueError, match=r"^p must lie in \[0, 1\]$"):
                moment(AP4, p)

    def test_moment_report_refuses_negative_and_nan(self):
        for args in ((-1.0, 0.0, 0.0), (0.0, -1.0, 0.0), (0.0, 0.0, -1.0),
                     (math.nan, 0.0, 0.0), (0.0, math.nan, 0.0), (0.0, 0.0, math.nan)):
            with pytest.raises(ValueError, match="moments must be nonnegative"):
                MomentReport(*args)


class TestUpperBounds:
    def test_theorem_c_forms_and_chain(self):
        mu, t = 2.5, 4.0
        main, quad, ratio = theorem_c_bound(mu, 1.0, t)
        assert main.tag == "theorem_c"
        assert main.log_value == pytest.approx(-phi(t / mu) * mu, rel=1e-15)
        assert quad.log_value == pytest.approx(-t * t / (2.0 * (mu + t / 3.0)), rel=1e-15)
        assert ratio.log_value == pytest.approx(
            -(t / 2.0) * math.log1p(t / (2.0 * mu)), rel=1e-15
        )
        assert main.log_value <= quad.log_value + 1e-12
        assert main.log_value <= ratio.log_value + 1e-12

    def test_theorem_c_capacity_scales(self):
        a = theorem_c_bound(2.0, 1.0, 3.0)[0].log_value
        b = theorem_c_bound(2.0, 4.0, 3.0)[0].log_value
        assert b == pytest.approx(a / 4.0, rel=1e-15)

    def test_reports_hash_and_hold_read_only_inputs(self):
        first, again = theorem_c_bound(2.0, 4.0, 3.0), theorem_c_bound(2.0, 4.0, 3.0)
        assert first == again
        assert [hash(r) for r in first] == [hash(r) for r in again]
        assert len({*first, *again, *et_bound(2.0, 4.0, 3.0)}) == 5
        rep = first[0]
        assert rep.inputs == {"mu": 2.0, "capacity": 4.0, "t": 3.0}
        with pytest.raises(TypeError):
            rep.inputs["mu"] = 0
        # The report keeps a copy: the caller's mapping cannot reach it either.
        given = {"d": 1.0}
        held = BoundReport("tag", -1.0, given)
        given["d"] = 2.0
        assert held.inputs == {"d": 1.0}
        assert BoundReport("tag", -1.0) == BoundReport("tag", -1.0, {})
        for copied in (pickle.loads(pickle.dumps(rep)), copy.deepcopy(rep)):
            assert copied == rep and hash(copied) == hash(rep)

    def test_theorem_c_zero_mean(self):
        assert theorem_c_bound(0.0, 1.0, 1.0)[0].log_value == -math.inf

    def test_theorem_c_rejects(self):
        with pytest.raises(ValueError):
            theorem_c_bound(1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            theorem_c_bound(1.0, 1.0, 0.0)
        # A NaN input, or an infinite t or x, is refused before any form is taken.
        bad = ((math.nan, 1.0, 1.0), (1.0, math.nan, 1.0), (1.0, 1.0, math.nan),
               (1.0, 1.0, math.inf), (1.0, 1.0, -math.inf))
        for args in bad:
            with pytest.raises(ValueError, match="need mu >= 0, t > 0, capacity > 0"):
                theorem_c_bound(*args)
        for args in bad:
            with pytest.raises(ValueError, match="need mu >= 0, capacity > 0, x > 0"):
                et_bound(*args)

    @pytest.mark.parametrize("mu, t", [(9e-110, 1e200), (2.43e-309, 1.0), (1e-300, 1e10), (1e-6, 1e300)])
    def test_overflowing_quotients_give_finite_bounds(self, mu, t):
        # t / mu or phi(t / mu) overflows: phi(t/mu) mu is (mu + t) log(t/mu) - t
        # and log1p(t/(2mu)) is log t - log(2mu), so no NaN reaches the chain check.
        main, quad, ratio = (rep.log_value for rep in theorem_c_bound(mu, 1.0, t))
        assert all(math.isfinite(v) for v in (main, quad, ratio))
        assert main <= quad and main <= ratio < 0
        assert main == pytest.approx(-((mu + t) * (math.log(t) - math.log(mu)) - t), rel=1e-12)
        assert math.isfinite(exponent_hg(mu, mu, 0.5, t)[0])

    @pytest.mark.parametrize("mu", [1e-300, 1e-30, 0.01, 2.5, 1e6])
    @pytest.mark.parametrize("t", [1e-3, 1.0, 1e5, 1e150, 1e290])
    def test_finite_direct_forms_keep_their_bits(self, mu, t):
        capacity, lam, p = 3.0, 2.0 * mu, 0.25
        main, _, ratio = theorem_c_bound(mu, capacity, t)
        direct = [
            (main, -phi(t / mu) * mu / capacity),
            (ratio, -(t / (2.0 * capacity)) * math.log1p(t / (2.0 * mu))),
        ]
        for rep, value in direct:
            if math.isfinite(value):
                assert rep.log_value == value
        first = phi(t / mu) * mu * mu / lam
        if math.isfinite(first):
            want = min(first, math.sqrt(t) * math.log(math.e / p))
            assert exponent_hg(mu, lam, p, t)[0] == want

    def test_et_bound_formula(self):
        rep, stir = et_bound(0.8, 1.0, 5)
        assert rep.log_value == pytest.approx(
            5 * math.log(0.8) - math.lgamma(6.0), rel=1e-14
        )
        assert stir.tag == "et_stirling"
        assert rep.log_value <= stir.log_value + 1e-12

    @pytest.mark.parametrize("t", [1e155, 1e300, 1e306, 1.7e308])
    def test_huge_t_gives_bounds_not_overflow_errors(self, t):
        # t^2 overflows past t ~ 1.34e154 and log(x!) past x ~ 2.6e305; the
        # bounds must not, and the chain still holds.
        mu = 2.5
        main, quad, ratio = (rep.log_value for rep in theorem_c_bound(mu, 1.0, t))
        assert math.isclose(quad, -1.5 * t, rel_tol=1e-12)  # t / (mu + t/3) -> 3
        assert main <= quad and main <= ratio < 0
        x = math.ceil(mu + t)
        et, stirling = (rep.log_value for rep in et_bound(mu, 1.0, x))
        assert et <= stirling < 0
        assert (et == -math.inf) == (x > 3e305)

    @pytest.mark.parametrize(
        "mu, capacity, x",
        [
            (0.54, 1e308, 2),  # x * C overflows: the Stirling quotient is 0
            (1e-300, 1e300, 3),  # mu / C underflows: the main quotient is 0
            (1e300, 1e-300, 2),  # mu / C overflows
        ],
    )
    def test_et_bound_quotients_past_the_float_range(self, mu, capacity, x):
        et, stirling = (rep.log_value for rep in et_bound(mu, capacity, x))
        assert math.isfinite(et) and math.isfinite(stirling)
        bounds._chain_check(et, stirling, "factorial vs stirling")
        log_ratio = math.log(mu) - math.log(capacity)
        assert et == pytest.approx(x * log_ratio - math.lgamma(x + 1.0), rel=1e-12)
        want = x * (1.0 + log_ratio - math.log(x)) - 0.5 * math.log(2.0 * math.pi * x)
        assert stirling == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("mu, capacity, x", [(0.8, 1.0, 5), (2.5, 3.0, 7), (1e-200, 1e100, 2)])
    def test_et_bound_keeps_finite_quotients_bit_for_bit(self, mu, capacity, x):
        et, stirling = et_bound(mu, capacity, x)
        assert et.log_value == (
            x * math.log(mu / capacity) - math.lgamma(x + 1.0)
        )
        assert stirling.log_value == (
            x * math.log(math.e * mu / (x * capacity)) - 0.5 * math.log(2.0 * math.pi * x)
        )

    def test_quadratic_form_unchanged_below_overflow(self):
        mu, t = 2.5, 1e154
        quad = theorem_c_bound(mu, 1.0, t)[1].log_value
        assert quad == -t * t / (2.0 * (mu + t / 3.0))

    def test_et_bound_is_honest_for_binomials(self):
        # Pr(Bin >= x) <= mu^x / x! for x well above the mean.
        n, q = 40, 0.05
        mu = n * q
        for x in (6, 9, 12):
            tail = float(binom.sf(x - 1, n, q))
            assert tail <= math.exp(et_bound(mu, 1.0, x)[0].log_value) * (1 + 1e-9)

    def test_exponent_formulas(self):
        mu, var, p, t = 3.0, 2.0, 0.3, 4.0
        assert exponent_appp(mu, p) == pytest.approx(
            min(mu, math.sqrt(mu) * math.log(1 / p)), rel=1e-15
        )
        assert exponent_ap(mu, var, p, 1.5) == pytest.approx(
            min(phi(1.5) * mu * mu / var, math.sqrt(1.5 * mu) * math.log(1 / p)),
            rel=1e-15,
        )
        assert exponent_apt(var, p, t) == pytest.approx(
            min(t * t / var, math.sqrt(t) * math.log(1 / p)), rel=1e-15
        )
        lam = 5.0
        hg, remark = exponent_hg(mu, lam, p, t)
        assert hg == pytest.approx(
            min(phi(t / mu) * mu * mu / lam, math.sqrt(t) * math.log(math.e / p)),
            rel=1e-15,
        )
        assert remark == pytest.approx(
            min(t * t / lam, math.sqrt(t) * math.log(math.e / p)), rel=1e-15
        )

    def test_exponent_zero_variance(self):
        assert exponent_ap(2.0, 0.0, 0.5, 1.0) == pytest.approx(
            math.sqrt(2.0) * math.log(2.0), rel=1e-15
        )
        assert exponent_apt(0.0, 0.5, 2.0) == pytest.approx(
            math.sqrt(2.0) * math.log(2.0), rel=1e-15
        )
        # lam = 0 leaves only the second term in both forms.
        assert exponent_hg(2.0, 0.0, 0.5, 4.0) == (2.0 * math.log(2.0 * math.e),) * 2

    @pytest.mark.parametrize("eps", [1e-3, 1.5, 1e200, 1e307])
    def test_exponent_ap_at_zero_mean(self, eps):
        # phi(eps) may overflow, and inf * 0 was NaN: a zero mean drops the
        # first term the way a zero variance does, and the exponent is 0.
        assert exponent_ap(0.0, 1.0, 0.5, eps) == 0.0

    @pytest.mark.parametrize("mu", [0.0, 1e-300, 0.01, 3.0, 1e6])
    @pytest.mark.parametrize("var", [1e-300, 0.5, 2.0, 1e300])
    @pytest.mark.parametrize("eps", [1e-6, 1e-3, 1.5, 1e100, 1e307])
    def test_exponent_ap_keeps_finite_first_terms_bit_for_bit(self, mu, var, eps):
        p = 0.3
        first = phi(eps) * mu * mu / var
        if math.isfinite(first):
            assert exponent_ap(mu, var, p, eps) == min(first, math.sqrt(eps * mu) * math.log(1.0 / p))

    def test_exponents_reject(self):
        with pytest.raises(ValueError):
            exponent_appp(-1.0, 0.5)
        with pytest.raises(ValueError):
            exponent_appp(1.0, 0.0)
        with pytest.raises(ValueError):
            exponent_apt(1.0, 0.5, 0.0)
        nan = math.nan
        with pytest.raises(ValueError, match="need mu >= 0 and p"):
            exponent_appp(nan, 0.5)
        inf = math.inf
        for args in ((nan, 1.0, 0.5, 1.0), (1.0, nan, 0.5, 1.0), (1.0, 1.0, nan, 1.0), (1.0, 1.0, 0.5, nan),
                     (1.0, 1.0, 0.5, inf), (1.0, 1.0, 0.5, -inf)):
            with pytest.raises(ValueError, match="need mu, var >= 0, eps > 0"):
                exponent_ap(*args)
        for args in ((nan, 0.5, 1.0), (1.0, 0.5, nan), (1.0, 0.5, inf), (1.0, 0.5, -inf)):
            with pytest.raises(ValueError, match="need var >= 0, t > 0"):
                exponent_apt(*args)
        for args in ((nan, 1.0, 0.5, 1.0), (1.0, nan, 0.5, 1.0), (1.0, 1.0, 0.5, nan),
                     (1.0, 1.0, 0.5, inf), (1.0, 1.0, 0.5, -inf)):
            with pytest.raises(ValueError, match="need mu, lam >= 0, t > 0"):
                exponent_hg(*args)


INF = math.inf
# (entry point, its arguments with one real input infinite, that input's name)
INFINITE_INPUTS = [
    (theorem_c_bound, (INF, 1.0, 1.0), "mu"),
    (theorem_c_bound, (1.0, INF, 1.0), "capacity"),
    (et_bound, (INF, 1.0, 2.0), "mu"),
    (et_bound, (1.0, INF, 2.0), "capacity"),
    (exponent_appp, (INF, 0.5), "mu"),
    (exponent_ap, (INF, 1.0, 0.5, 1.0), "mu"),
    (exponent_ap, (1.0, INF, 0.5, 1.0), "var"),
    (exponent_apt, (INF, 0.5, 1.0), "var"),
    (exponent_hg, (INF, 1.0, 1.0, 1.0), "mu"),
    (exponent_hg, (1.0, INF, 0.5, 1.0), "lam"),
    (lb_cluster_bound, (INF, 1.0, 1.0, 1.0), "d"),
    (lb_cluster_bound, (1.0, INF, 1.0, 0.5), "mu"),
    (binomial_point_lower, (10, 0.3, 4, INF), "b"),
    (binomial_point_lower, (10, 0.3, 4, -INF), "b"),
    (paley_zygmund_lower, (INF, 1.0), "var"),
    (MomentReport, (INF, 0.0, 0.0), "mu"),
    (MomentReport, (0.0, INF, 0.0), "var"),
    (MomentReport, (0.0, 0.0, INF), "lam"),
]


class TestInfiniteInputs:
    @pytest.mark.parametrize(
        "fn, args, name",
        INFINITE_INPUTS,
        ids=[f"{fn.__name__}-{'-' if -INF in args else ''}{name}" for fn, args, name in INFINITE_INPUTS],
    )
    def test_refused_by_name(self, fn, args, name):
        # Each gave a value: an infinite or NaN log bound or exponent, or a
        # finite one read off an infinite input.
        with pytest.raises(ValueError, match=f"^{name} must be finite, not -?inf$"):
            fn(*args)

    def test_chain_check_fails_an_infinite_primary(self):
        # The slack 1e-9 * max(|primary|, |weaker|, 1) is inf there as well.
        with pytest.raises(AssertionError, match="bound chain violated"):
            bounds._chain_check(INF, -2.0, "phi vs quadratic")
        bounds._chain_check(-INF, -2.0, "phi vs quadratic")  # a zero bound lies below every form


class TestLowerBounds:
    def test_lb_cluster_formula(self):
        rep = lb_cluster_bound(2.0, 1.0, 3.0, 0.25)
        assert rep.log_value == pytest.approx(-2.0 * 2.0 * math.log(4.0), rel=1e-15)
        with pytest.raises(ValueError):
            lb_cluster_bound(2.0, 0.3, 0.5, 0.25)  # mu + t < 1
        for args in ((math.nan, 1.0, 1.0, 0.5), (1.0, math.nan, 1.0, 0.5), (1.0, 1.0, math.nan, 0.5),
                     (1.0, 1.0, math.inf, 0.5), (1.0, 1.0, -math.inf, 0.5)):
            with pytest.raises(ValueError, match="need d, mu >= 0, t > 0"):
                lb_cluster_bound(*args)

    def test_binomial_point_exact_at_b_zero(self):
        for n, q, m in ((12, 0.3, 5), (30, 0.08, 4), (9, 0.55, 9 - 1)):
            log_lower = binomial_point_lower(n, q, m, b=0.0).log_value
            assert math.exp(log_lower) == pytest.approx(
                float(binom.pmf(m, n, q)), rel=1e-12
            )

    def test_binomial_point_default_shift(self):
        base = binomial_point_lower(10, 0.4, 6, b=0.0).log_value
        assert binomial_point_lower(10, 0.4, 6).log_value == pytest.approx(
            base - 1.0, rel=1e-15
        )

    def test_binomial_point_rejects(self):
        for args in ((10, 0.3, 11), (10, 0.3, -1)):
            with pytest.raises(ValueError, match="need 0 <= m <= n"):
                binomial_point_lower(*args)
        for q in (0.0, 1.0, math.nan):
            with pytest.raises(ValueError, match=r"q must lie in \(0, 1\)"):
                binomial_point_lower(10, q, 4)
        with pytest.raises(ValueError, match="b must be finite, not nan"):
            binomial_point_lower(10, 0.3, 4, b=math.nan)

    def test_refined_below_pmf(self):
        for n, q in ((25, 0.2), (60, 0.45)):
            start = math.ceil(n * q)
            for m in range(start, min(n - 1, start + 6)):
                refined = binomial_point_lower_refined(n, q, m).log_value
                assert refined <= math.log(float(binom.pmf(m, n, q))) + 1e-12

    def test_refined_rejects_below_mean(self):
        with pytest.raises(ValueError):
            binomial_point_lower_refined(20, 0.6, 5)

    def test_paley_zygmund_formula_and_honesty(self):
        assert paley_zygmund_lower(3.0, 2.0) == pytest.approx(4.0 / 7.0, rel=1e-15)
        for args in ((math.nan, 1.0), (1.0, math.nan), (1.0, math.inf), (1.0, -math.inf)):
            with pytest.raises(ValueError, match="need var >= 0 and t > 0"):
                paley_zygmund_lower(*args)
        n, q = 18, 0.35
        var = n * q * (1 - q)
        mu = n * q
        for t in (1.0, 2.5):
            lhs = float(binom.sf(math.ceil(mu - t) - 1, n, q))
            assert lhs >= paley_zygmund_lower(var, t) - 1e-12


class TestHypergeom:
    def test_frozen_half(self):
        assert hypergeom_conditional_mean(AP4, 3) == pytest.approx(0.5, rel=1e-15)

    def test_matches_enumeration(self):
        h = build_schur(10)
        edges = [tuple(e) for e in h.edges]
        for m in range(11):
            expected = float(oracles.naive_conditional_mean(edges, 10, m))
            assert hypergeom_conditional_mean(h, m) == pytest.approx(
                expected, rel=1e-12, abs=1e-15
            )

    def test_extremes(self):
        assert hypergeom_conditional_mean(AP4, 0) == 0.0
        assert hypergeom_conditional_mean(AP4, 2) == 0.0
        assert hypergeom_conditional_mean(AP4, 4) == 2.0
        with pytest.raises(ValueError):
            hypergeom_conditional_mean(AP4, 5)

    def test_non_integer_m_refused_by_name(self):
        # m = 2.5 on AP(10,3) returned 0.0.
        with pytest.raises(ValueError, match="^m must be a nonnegative integer, not 2.5$"):
            hypergeom_conditional_mean(build_ap(10, 3), 2.5)
