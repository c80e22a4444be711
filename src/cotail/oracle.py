"""Population ground truth for the simulation models.

For each model the joint survival P(X >= s, Y >= t) is available in closed
form (Logistic, Cauchy, Pareto2) or by one-dimensional conditional
quadrature (StudentT).  True CoVaR solves

    P(X >= c, Y >= VaR_Y(tau)) = (1 - tau)^2

by Brent's method on a doubled bracket, and true CoES adds the tail integral

    CoES = c + (1 - tau)^(-2) * int_c^inf P(X >= s, Y >= VaR_Y(tau)) ds

evaluated with the substitution s = c/u on u in (0, 1].  ``oracle_result``
computes both, memoized per (model, tau), and every other truth reads it.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

from scipy import integrate, optimize
from scipy.special import gammaln

from .models import ModelSpec, marginal_quantiles, pre_margin_survival, student_t_cdf, true_tail_copula


@dataclass(frozen=True)
class OracleResult:
    """True (VaR_Y, CoVaR, CoES) at one level, with the tolerance achieved.

    Invariants: covar >= VaR_X(tau) in the tail-dependent regime, and
    coes >= covar always.
    """

    tau: float
    var_y: float
    covar: float
    coes: float
    abs_tol: float


# relative tolerance of every oracle root
_RTOL = 1e-10

_CACHE: dict[tuple[ModelSpec, float], OracleResult] = {}
_CACHE_LOCK = threading.Lock()


def joint_survival(spec: ModelSpec, s: float, t: float) -> float:
    """P(X >= s, Y >= t) for the model, s, t >= 0."""
    if s < 0.0 or t < 0.0:
        raise ValueError("survival arguments must be nonnegative")
    if spec.family == "Logistic":
        # inclusion-exclusion 1 - e^-x - e^-y + e^-V on the logistic
        # max-stable CDF (x = 1/z, y = 1/t, V = x + y - R(x, y)), regrouped
        # into two nonnegative terms so tail probabilities do not cancel;
        # the s = 0 or t = 0 edges reduce to one Frechet margin
        z = s ** (1.0 / spec.x_exponent)
        if z == 0.0:
            return pre_margin_survival(spec, t)
        if t == 0.0:
            return pre_margin_survival(spec, z)
        x, y = 1.0 / z, 1.0 / t
        return math.expm1(-x) * math.expm1(-y) + math.exp(-x - y) * math.expm1(
            true_tail_copula(spec, x, y)
        )
    if spec.family == "Cauchy":
        return 4.0 * _cauchy_quadrant(s ** (1.0 / spec.x_exponent), t)
    if spec.family == "Pareto2":
        return (1.0 + s ** (1.0 / spec.x_exponent) + t) ** (-spec.theta)
    return _student_joint_survival(spec, s ** (1.0 / spec.x_exponent), t)


def _cauchy_quadrant(a: float, b: float) -> float:
    """P(C1 >= a, C2 >= b), a, b >= 0, spherical bivariate Cauchy.

    (C1, C2) is the central projection of a uniform direction in R^3, so
    the quadrant has probability Omega/(2 pi), Omega the solid angle of the
    cone spanned by (0, 1, 0), (0, 0, 1) and (1, a, b).  The Van
    Oosterom-Strackee formula gives tan(Omega/2) = 1/(a + b + |(1, a, b)|):
    a sum of positive terms, free of cancellation however deep the tail.
    """
    return math.atan2(1.0, a + b + math.hypot(1.0, a, b)) / math.pi


def _t_pdf(z: float, nu: float) -> float:
    log_norm = gammaln(0.5 * (nu + 1.0)) - gammaln(0.5 * nu) - 0.5 * math.log(nu * math.pi)
    return math.exp(log_norm - 0.5 * (nu + 1.0) * math.log1p(z * z / nu))


def _student_joint_survival(spec: ModelSpec, a: float, b: float) -> float:
    """P(|T1| >= a, |T2| >= b) for the correlated bivariate t pair.

    Conditioning on T1 = z, (T2 - rho z)/sigma(z) is t with nu + 1 degrees
    of freedom and sigma(z) = sqrt((nu + z^2)(1 - rho^2)/(nu + 1)), so one
    quadrature over z suffices; central symmetry contributes the factor 2.
    """
    nu, rho = spec.nu, spec.rho
    if a == 0.0 and b == 0.0:
        return 1.0
    if a == 0.0:
        return 2.0 * student_t_cdf(-b, nu)
    if b == 0.0:
        return 2.0 * student_t_cdf(-a, nu)
    coef = math.sqrt((1.0 - rho * rho) / (nu + 1.0))
    scale = max(a, 1.0)

    def integrand(u: float) -> float:
        # z = a + scale*((1 - u)/u)^2 folds [a, inf) onto (0, 1] with
        # polynomial endpoint behavior for the t tail, uniformly in a
        r = (1.0 - u) / u
        z = a + scale * r * r
        sigma = coef * math.sqrt(nu + z * z)
        upper = student_t_cdf((rho * z - b) / sigma, nu + 1.0)
        lower = student_t_cdf((-b - rho * z) / sigma, nu + 1.0)
        return _t_pdf(z, nu) * (upper + lower) * scale * 2.0 * r / (u * u)

    value, err = integrate.quad(integrand, 0.0, 1.0, epsabs=1e-13, epsrel=1e-10, limit=200)
    if not math.isfinite(value) or err > max(1e-10, 1e-6 * abs(value)):
        raise ValueError(f"StudentT survival quadrature did not converge (err={err:g})")
    return 2.0 * value


def true_covar(spec: ModelSpec, tau: float) -> float:
    """Root c of P(X >= c, Y >= VaR_Y(tau)) = (1 - tau)^2, rel. tol 1e-10."""
    return oracle_result(spec, tau).covar


def _root_above(g, lo: float, hi: float, what: str) -> float:
    """Root of g above lo, where g(lo) >= 0 and g turns negative further out.

    hi doubles (lo following it) until g(hi) < 0; Brent's method then
    narrows [lo, hi] to relative tolerance _RTOL.
    """
    for _ in range(200):
        if g(hi) < 0.0:
            # xtol ~ 0 leaves the relative tolerance in charge for small roots
            return optimize.brentq(g, lo, hi, xtol=1e-300, rtol=_RTOL)
        lo, hi = hi, 2.0 * hi
    raise ValueError(f"failed to bracket the {what} root")


def true_coes(spec: ModelSpec, tau: float) -> float:
    """c + (1 - tau)^(-2) * int_c^inf P(X >= s, Y >= VaR_Y) ds, c = true CoVaR."""
    return oracle_result(spec, tau).coes


def _tail_integral(spec: ModelSpec, c: float, var_y: float) -> tuple[float, float]:
    """(int_c^inf S(s) ds, quad error) via s = c/u, u in (0, 1]."""

    def integrand(u: float) -> float:
        return joint_survival(spec, c / u, var_y) * c / (u * u)

    value, err = integrate.quad(integrand, 0.0, 1.0, epsabs=1e-14, epsrel=1e-9, limit=200)
    if not math.isfinite(value):
        raise ValueError("CoES tail quadrature did not converge")
    return value, err


def oracle_result(spec: ModelSpec, tau: float) -> OracleResult:
    """Memoized (VaR_Y, CoVaR, CoES) truth for the model at level tau."""
    key = (spec, tau)
    with _CACHE_LOCK:
        hit = _CACHE.get(key)
    if hit is not None:
        return hit
    if not 0.0 < tau < 1.0:
        raise ValueError(f"tau must lie in (0, 1), got {tau}")
    var_x, var_y = marginal_quantiles(spec, tau)
    target = (1.0 - tau) ** 2
    s_lo = joint_survival(spec, var_x, var_y)
    if s_lo < target:
        # under exact independence the root sits at VaR_X itself and float
        # rounding can push the survival a hair below the target
        if s_lo < target * (1.0 - 1e-9):
            raise ValueError(
                f"no root at or above VaR_X: survival at {var_x:g} already below (1-tau)^2"
            )
        covar = var_x
    else:
        covar = _root_above(
            lambda c: joint_survival(spec, c, var_y) - target, var_x, 2.0 * var_x, "CoVaR"
        )
    tail, quad_err = _tail_integral(spec, covar, var_y)
    scale = (1.0 - tau) ** -2
    coes = covar + scale * tail
    result = OracleResult(
        tau=tau,
        var_y=var_y,
        covar=covar,
        coes=coes,
        abs_tol=max(_RTOL * covar, scale * quad_err),
    )
    with _CACHE_LOCK:
        _CACHE.setdefault(key, result)
    return result


def eta_true(spec: ModelSpec, tau: float) -> float:
    """Finite-level eta: F-bar_X(CoVaR)/(1 - tau), at the memoized true CoVaR."""
    c = true_covar(spec, tau)
    return pre_margin_survival(spec, c ** (1.0 / spec.x_exponent)) / (1.0 - tau)


def eta_star(spec: ModelSpec, tau: float) -> float:
    """Limit analogue: the root of R(eta, 1) = 1 - tau."""
    if not 0.0 < tau < 1.0:
        raise ValueError(f"tau must lie in (0, 1), got {tau}")
    target = 1.0 - tau
    return _root_above(lambda eta: target - true_tail_copula(spec, eta, 1.0), 0.0, 1.0, "eta*")
