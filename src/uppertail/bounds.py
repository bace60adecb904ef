"""Closed-form moments, tail exponents, and point-probability bounds.

Everything is evaluated in natural-log space where a bound can underflow;
log-values of -inf denote a bound of zero.  Existential constants from the
underlying inequalities appear as caller parameters defaulting to 1.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

from .hypergraph import Hypergraph, check_count, check_finite, check_probability

__all__ = [
    "BoundReport",
    "MomentReport",
    "binomial_point_lower",
    "binomial_point_lower_refined",
    "et_bound",
    "exact_mean",
    "exact_variance",
    "exponent_ap",
    "exponent_appp",
    "exponent_apt",
    "exponent_hg",
    "hypergeom_conditional_mean",
    "lb_cluster_bound",
    "moment_report",
    "paley_zygmund_lower",
    "phi",
    "theorem_c_bound",
]

_REL_SLACK = 1e-9


def phi(x: float) -> float:
    """Rate function (1 + x) * log(1 + x) - x on [-1, inf).

    Uses the series x^2/2 - x^3/6 + x^4/12 for small |x| to avoid the
    cancellation in the direct form; log1p otherwise.
    """
    if not x >= -1.0:
        raise ValueError("phi is defined on [-1, inf)")
    if x == -1.0:
        return 1.0
    if x == math.inf:  # (1 + x) log1p(x) - x would be inf - inf
        return math.inf
    if abs(x) < 1e-4:
        return x * x * (0.5 - x / 6.0 + x * x / 12.0)
    return (1.0 + x) * math.log1p(x) - x


@dataclass(frozen=True)
class MomentReport:
    """First two moments plus the degree-weighted scale mu * (1 + n p^(k-1))."""

    mu: float
    var: float
    lam: float

    def __post_init__(self):
        if not (self.mu >= 0 and self.var >= 0 and self.lam >= 0):
            raise ValueError("moments must be nonnegative")
        check_finite(mu=self.mu, var=self.var, lam=self.lam)


@dataclass(frozen=True)
class BoundReport:
    """A named bound: tag, natural-log value, and the inputs that produced it.

    inputs is a read-only copy of the mapping given.  It takes part in
    equality but not in the hash, so a report can key a dict or join a set.
    """

    tag: str
    log_value: float
    inputs: Mapping = field(default_factory=dict, hash=False)

    def __post_init__(self):
        object.__setattr__(self, "inputs", MappingProxyType(dict(self.inputs)))

    def __reduce__(self):
        # A mappingproxy does not pickle; rebuild the report from a dict copy.
        return type(self), (self.tag, self.log_value, dict(self.inputs))


def exact_mean(h: Hypergraph, p: float) -> float:
    """E[X] = e(H) * p^k for the induced edge count under vertex density p."""
    check_probability(p)
    return h.num_edges * p**h.k


def exact_variance(h: Hypergraph, p: float) -> float:
    """Var[X] = sum_{j=1..k} p^(2k-j) (1-p)^j * sum_{|T|=j} codeg(T)^2.

    An ordered edge pair sharing i vertices adds p^(2k-i) - p^(2k), which is
    sum_{1<=j<=i} C(i, j) p^(2k-j) (1-p)^j; sum_T codeg(T)^2 counts each
    ordered pair (e = f included) once per shared j-set T.  Every term is
    nonnegative, so nothing cancels.  The codegree sums do not depend on p and
    are counted once per hypergraph (h.codegree_sums).
    """
    check_probability(p)
    k = h.k
    return math.fsum(
        p ** (2 * k - j) * (1.0 - p) ** j * a for j, a in enumerate(h.codegree_sums, start=1)
    )


def moment_report(h: Hypergraph, p: float) -> MomentReport:
    """Moments of the induced edge count, with lam = mu * (1 + v(H) p^(k-1))."""
    mu = exact_mean(h, p)
    lam = mu * (1.0 + h.n * p ** (h.k - 1)) if h.k >= 1 else mu
    return MomentReport(mu=mu, var=exact_variance(h, p), lam=lam)


def _phi_times_mu(t: float, mu: float) -> float:
    """phi(t/mu) * mu for mu > 0, or where that overflows (t/mu near the float
    range), (mu + t)(log t - log mu) - t: log(1 + t/mu) with the quotient logged."""
    value = phi(t / mu) * mu
    return value if value < math.inf else (mu + t) * (math.log(t) - math.log(mu)) - t


def _chain_check(primary: float, weaker: float, tags: str) -> None:
    if primary == -math.inf:
        return
    # At a +inf primary the slack is inf as well, so that case is tested on its own.
    slack = _REL_SLACK * max(abs(primary), abs(weaker), 1.0)
    if primary > weaker + slack or (primary == math.inf and weaker < math.inf):
        raise AssertionError(f"bound chain violated ({tags}): {primary} > {weaker}")


def theorem_c_bound(mu: float, capacity: float, t: float) -> tuple[BoundReport, ...]:
    """log Pr(X >= mu + t) bound -phi(t/mu) * mu / C and its two weaker forms.

    Returns the reports tagged theorem_c, theorem_c_quadratic
    (-t^2 / (2C(mu + t/3))) and theorem_c_ratio_log (-(t/(2C)) * log(1 + t/(2mu))),
    in that order.  The chain phi <= quadratic and phi <= ratio_log is asserted
    numerically on every call.
    """
    if not (mu >= 0 and math.inf > t > 0 and capacity > 0):
        raise ValueError("need mu >= 0, t > 0, capacity > 0 (t finite)")
    check_finite(mu=mu, capacity=capacity, t=t)
    if mu == 0.0:
        main = ratio = -math.inf
    else:
        main = -_phi_times_mu(t, mu) / capacity
        half = t / (2.0 * mu)  # logged as a difference of logs where it overflows
        log_half = math.log1p(half) if half < math.inf else math.log(t) - math.log(2.0 * mu)
        ratio = -(t / (2.0 * capacity)) * log_half
    if math.isinf(t * t):  # past t ~ 1.34e154, t^2 overflows where the form does not
        quad = -(t / (2.0 * capacity)) * (t / (mu + t / 3.0))
    else:
        quad = -t * t / (2.0 * capacity * (mu + t / 3.0))
    _chain_check(main, quad, "phi vs quadratic")
    _chain_check(main, ratio, "phi vs ratio_log")
    forms = (("theorem_c", main), ("theorem_c_quadratic", quad), ("theorem_c_ratio_log", ratio))
    return tuple(BoundReport(tag, v, {"mu": mu, "capacity": capacity, "t": t}) for tag, v in forms)


def et_bound(mu: float, capacity: float, x: float) -> tuple[BoundReport, ...]:
    """log Pr(X >= x * C) bound x*log(mu/C) - log(x!), then its Stirling form.

    Returns the reports tagged et and et_stirling, in that order; the chain
    factorial <= Stirling is asserted numerically on every call.
    """
    if not (mu >= 0 and capacity > 0 and math.inf > x > 0):
        raise ValueError("need mu >= 0, capacity > 0, x > 0 (x finite)")
    check_finite(mu=mu, capacity=capacity, x=x)
    if mu == 0.0:
        main = stirling = -math.inf
    else:
        # A quotient that under- or overflows is logged as a difference of logs.
        ratio, quotient = mu / capacity, math.e * mu / (x * capacity)
        log_ratio = math.log(ratio) if 0.0 < ratio < math.inf else math.log(mu) - math.log(capacity)
        try:
            main = x * log_ratio - math.lgamma(x + 1.0)
        except OverflowError:  # log(x!) beyond the float range, past x ~ 2.6e305
            main = -math.inf
        log_quotient = math.log(quotient) if 0.0 < quotient < math.inf else 1.0 + log_ratio - math.log(x)
        stirling = x * log_quotient - 0.5 * math.log(2.0 * math.pi * x)
        _chain_check(main, stirling, "factorial vs stirling")
    forms = (("et", main), ("et_stirling", stirling))
    return tuple(BoundReport(tag, v, {"mu": mu, "capacity": capacity, "x": x}) for tag, v in forms)


def exponent_appp(mu: float, p: float) -> float:
    """Tail exponent min(mu, sqrt(mu) * log(1/p)) at the doubled mean."""
    if not (mu >= 0 and 0.0 < p <= 1.0):
        raise ValueError("need mu >= 0 and p in (0, 1]")
    check_finite(mu=mu)
    return min(mu, math.sqrt(mu) * math.log(1.0 / p))


def exponent_ap(mu: float, var: float, p: float, eps: float) -> float:
    """Tail exponent min(phi(eps) mu^2 / var, sqrt(eps mu) log(1/p))."""
    if not (mu >= 0 and var >= 0 and math.inf > eps > 0 and 0.0 < p <= 1.0):
        raise ValueError("need mu, var >= 0, eps > 0, p in (0, 1] (eps finite)")
    check_finite(mu=mu, var=var, eps=eps)
    first = math.inf if var == 0.0 or mu == 0.0 else phi(eps) * mu * mu / var
    return min(first, math.sqrt(eps * mu) * math.log(1.0 / p))


def exponent_apt(var: float, p: float, t: float) -> float:
    """Tail exponent min(t^2 / var, sqrt(t) * log(1/p))."""
    if not (var >= 0 and math.inf > t > 0 and 0.0 < p <= 1.0):
        raise ValueError("need var >= 0, t > 0, p in (0, 1] (t finite)")
    check_finite(var=var, t=t)
    first = math.inf if var == 0.0 else t * t / var
    return min(first, math.sqrt(t) * math.log(1.0 / p))


def exponent_hg(mu: float, lam: float, p: float, t: float) -> tuple[float, float]:
    """Tail exponent min(phi(t/mu) mu^2 / lam, sqrt(t) * log(e/p)), then its
    remark form min(t^2 / lam, sqrt(t) * log(e/p)).  At lam = 0 both are the
    second term."""
    if not (mu >= 0 and lam >= 0 and math.inf > t > 0 and 0.0 < p <= 1.0):
        raise ValueError("need mu, lam >= 0, t > 0, p in (0, 1] (t finite)")
    check_finite(mu=mu, lam=lam, t=t)
    second = math.sqrt(t) * math.log(math.e / p)
    if lam == 0.0:
        return second, second
    first = math.inf if mu == 0.0 else _phi_times_mu(t, mu) * mu / lam
    return min(first, second), min(t * t / lam, second)


def lb_cluster_bound(d: float, mu: float, t: float, p: float) -> BoundReport:
    """Lower bound log Pr(X >= mu + t) >= -d * sqrt(mu + t) * log(1/p).

    Valid given a clustered witness certifying x = mu + t edges within
    d * sqrt(mu + t) vertices, for mu + t >= 1.
    """
    if not (d >= 0 and mu >= 0 and math.inf > t > 0 and 0.0 < p <= 1.0):
        raise ValueError("need d, mu >= 0, t > 0, p in (0, 1] (t finite)")
    check_finite(d=d, mu=mu, t=t)
    if mu + t < 1.0:
        raise ValueError("requires mu + t >= 1")
    log_value = -d * math.sqrt(mu + t) * math.log(1.0 / p)
    return BoundReport("lb_cluster", log_value, {"d": d, "mu": mu, "t": t, "p": p})


def binomial_point_lower(n: int, q: float, m: int, b: float = 1.0) -> BoundReport:
    """log of e^-b * C(n, m) * q^m * (1-q)^(n-m), via lgamma."""
    if not 0 <= m <= n:
        raise ValueError("need 0 <= m <= n")
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie in (0, 1)")
    check_finite(b=b)
    log_comb = math.lgamma(n + 1) - math.lgamma(m + 1) - math.lgamma(n - m + 1)
    log_value = -b + log_comb + m * math.log(q) + (n - m) * math.log1p(-q)
    return BoundReport("binomial_point", log_value, {"n": n, "q": q, "m": m, "b": b})


def binomial_point_lower_refined(n: int, q: float, m: int) -> BoundReport:
    """Stirling-refined point lower bound for the binomial pmf at m >= nq.

    log value: -1/6 - phi(j/mu) mu - j^2 / ((1-q) n) - log(sqrt(2 pi m)),
    with mu = nq and j = m - mu.
    """
    if not 0 < m < n:
        raise ValueError("need 0 < m < n")
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie in (0, 1)")
    mu = n * q
    j = m - mu
    if j < 0:
        raise ValueError("refined form requires m >= n * q")
    log_value = (
        -1.0 / 6.0
        - phi(j / mu) * mu
        - j * j / ((1.0 - q) * n)
        - 0.5 * math.log(2.0 * math.pi * m)
    )
    return BoundReport("binomial_point_stirling", log_value, {"n": n, "q": q, "m": m})


def paley_zygmund_lower(var: float, t: float) -> float:
    """Pr(Y >= E[Y] - t) >= t^2 / (var + t^2)."""
    if not (var >= 0 and math.inf > t > 0):
        raise ValueError("need var >= 0 and t > 0 (t finite)")
    check_finite(var=var, t=t)
    return t * t / (var + t * t)


def hypergeom_conditional_mean(h: Hypergraph, m: int) -> float:
    """E[X | exactly m vertices kept] = e(H) * prod_{i<k} (m - i) / (n - i)."""
    check_count(m=m)
    if not 0 <= m <= h.n:
        raise ValueError(f"m must lie in [0, {h.n}]")
    if m < h.k or not h.num_edges:
        return 0.0
    value = float(h.num_edges)
    for i in range(h.k):
        value *= (m - i) / (h.n - i)
    return value
