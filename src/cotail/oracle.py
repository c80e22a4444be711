"""Population ground truth for the simulation models.

For each model the joint survival P(X >= s, Y >= t) is available in closed
form (Logistic, Cauchy, Pareto2) or by one-dimensional conditional
quadrature (StudentT).  True CoVaR solves

    P(X >= c, Y >= VaR_Y(tau)) = (1 - tau)^2

by Brent's method on a doubled bracket, and true CoES adds the tail integral

    CoES = c + (1 - tau)^(-2) * int_c^inf P(X >= s, Y >= VaR_Y(tau)) ds

For the closed-form families the tail integral is taken in s = c/u on
u in (0, 1].  For StudentT it is E[(X - c)+; Y >= VaR_Y(tau)]: the
survival's conditional quadrature over |T1| = z, weighted by
z^x_exponent - c, so one quadrature rather than one per node.  The tail is
finite iff X's extreme value index gamma_1 < 1; at gamma_1 >= 1 (StudentT
nu <= 1/2, Pareto2 theta <= 1/6) the oracle raises the tail error without
integrating, before the CoVaR root.  ``oracle_result`` computes both,
memoized per (model, tau): it is the one path to the truth.  Within a cell
no survival is evaluated twice.
"""

from __future__ import annotations

import functools
import math
import threading
from collections.abc import Callable
from dataclasses import dataclass

from scipy import integrate, optimize
from scipy.special import cython_special, gammaln

from .models import ModelSpec, marginal_quantiles, pre_margin_survival, true_tail_copula


@dataclass(frozen=True)
class OracleResult:
    """True (VaR_Y, CoVaR, CoES) at one level, with the tolerance achieved.

    Invariants: covar >= VaR_X(tau) in the tail-dependent regime, and
    coes >= covar always.
    """

    var_y: float
    covar: float
    coes: float
    abs_tol: float


# relative tolerance of every oracle root
_RTOL = 1e-10

_CACHE: dict[tuple[ModelSpec, float], OracleResult] = {}
_CACHE_LOCK = threading.Lock()


def joint_survival(spec: ModelSpec, s: float, t: float) -> float:
    """P(X >= s, Y >= t) for the model, s, t >= 0.

    Every family reads z = s^(1/x_exponent).  Where z (which a tiny s can
    underflow) or t is 0, the event is one margin's.
    """
    if s < 0.0 or t < 0.0:
        raise ValueError("survival arguments must be nonnegative")
    z = s ** (1.0 / spec.x_exponent)
    if z == 0.0 or t == 0.0:
        return pre_margin_survival(spec, max(z, t))
    if spec.family == "Logistic":
        # inclusion-exclusion 1 - e^-x - e^-y + e^-V on the logistic
        # max-stable CDF (x = 1/z, y = 1/t, V = x + y - R(x, y)), regrouped
        # into two nonnegative terms so tail probabilities do not cancel;
        # e^(R - x - y) <= 1 since R <= min(x, y), so neither term overflows
        x, y = 1.0 / z, 1.0 / t
        r = true_tail_copula(spec, x, y)
        return math.expm1(-x) * math.expm1(-y) - math.exp(r - x - y) * math.expm1(-r)
    if spec.family == "Cauchy":
        return 4.0 * _cauchy_quadrant(z, t)
    if spec.family == "Pareto2":
        return (1.0 + z + t) ** (-spec.theta)
    return _student_joint_survival(spec, z, t)


def _cauchy_quadrant(a: float, b: float) -> float:
    """P(C1 >= a, C2 >= b), a, b >= 0, spherical bivariate Cauchy.

    (C1, C2) is the central projection of a uniform direction in R^3, so
    the quadrant has probability Omega/(2 pi), Omega the solid angle of the
    cone spanned by (0, 1, 0), (0, 0, 1) and (1, a, b).  The Van
    Oosterom-Strackee formula gives tan(Omega/2) = 1/(a + b + |(1, a, b)|):
    a sum of positive terms, free of cancellation however deep the tail.
    """
    return math.atan2(1.0, a + b + math.hypot(1.0, a, b)) / math.pi


def _student_joint_survival(spec: ModelSpec, a: float, b: float) -> float:
    """P(|T1| >= a, |T2| >= b), a, b > 0, for the correlated bivariate t pair."""
    # epsabs 0: the CoVaR root compares this with (1 - tau)^2, as small as
    # 1e-8 at the study's levels, where any absolute floor would dominate
    value, err = integrate.quad(
        _student_integrand(spec, a, b), 0.0, 1.0, epsabs=0.0, epsrel=1e-10, limit=200
    )
    if not math.isfinite(value) or err > 1e-6 * abs(value):
        raise ValueError(f"StudentT survival quadrature did not converge (err={err:g})")
    return 2.0 * value


def _student_integrand(
    spec: ModelSpec, a: float, b: float, weight: Callable[[float], float] | None = None
) -> Callable[[float], float]:
    """Integrand on u in (0, 1] of E[w(|T1|); |T1| >= a, |T2| >= b] / 2, a, b > 0.

    Given T1 = z, (T2 - rho z)/sigma(z) is t with nu + 1 degrees of freedom,
    sigma(z) = sqrt((nu + z^2)(1 - rho^2)/(nu + 1)): one quadrature over
    z >= a, two compiled scalar t-CDF calls per node (``cython_special.stdtr``,
    the kernel of the ``stdtr`` ufunc without its per-call array overhead),
    one for each conditional tail; central symmetry gives the factor 2 the
    caller applies.  The weight w defaults to 1, which gives the joint
    survival.
    """
    nu, rho = spec.nu, spec.rho
    df = nu + 1.0
    coef = math.sqrt((1.0 - rho * rho) / df)
    scale = max(a, 1.0)
    log_norm = float(gammaln(0.5 * df) - gammaln(0.5 * nu)) - 0.5 * math.log(nu * math.pi)

    def integrand(u: float) -> float:
        # z = a + scale*((1 - u)/u)^2 folds [a, inf) onto (0, 1] with
        # polynomial endpoint behavior for the t tail, uniformly in a
        r = (1.0 - u) / u
        z = a + scale * r * r
        sigma = coef * math.sqrt(nu + z * z)
        upper = cython_special.stdtr(df, (rho * z - b) / sigma)
        lower = cython_special.stdtr(df, (-b - rho * z) / sigma)
        density = math.exp(log_norm - 0.5 * df * math.log1p(z * z / nu))
        w = 1.0 if weight is None else weight(z)
        return w * density * (upper + lower) * scale * 2.0 * r / (u * u)

    return integrand


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


def _tail_integral(spec: ModelSpec, c: float, var_y: float) -> tuple[float, float]:
    """(int_c^inf S(s) ds, quad error) for S(s) = P(X >= s, Y >= var_y).

    StudentT: the integral is E[(X - c)+; Y >= var_y], one conditional
    quadrature over |T1| = z >= c^(1/x_exponent) weighted by z^x_exponent - c.
    The closed-form families integrate S itself in s = c/u, u in (0, 1].
    """
    if spec.family == "StudentT":
        factor = 2.0  # central symmetry, as in the survival
        integrand = _student_integrand(
            spec, c ** (1.0 / spec.x_exponent), var_y, lambda z: z**spec.x_exponent - c
        )
    else:
        factor = 1.0

        def integrand(u: float) -> float:
            return joint_survival(spec, c / u, var_y) * c / (u * u)

    # full_output: QUADPACK appends a message, not a warning, iff ier != 0
    value, err, _, *message = integrate.quad(
        integrand, 0.0, 1.0, epsabs=1e-14, epsrel=1e-9, limit=200, full_output=1
    )
    if message or not math.isfinite(value):
        reason = message[0].splitlines()[0].rstrip() if message else "non-finite value"
        raise ValueError(f"CoES tail quadrature did not converge: {reason}")
    return factor * value, factor * err


def oracle_result(spec: ModelSpec, tau: float) -> OracleResult:
    """Memoized (VaR_Y, CoVaR, CoES) truth for the model at level tau."""
    key = (spec, tau)
    with _CACHE_LOCK:
        hit = _CACHE.get(key)
    if hit is not None:
        return hit
    var_x, var_y = marginal_quantiles(spec, tau)
    if spec.gamma_1 >= 1.0:
        # E[X; Y >= var_y] is infinite: no CoVaR root is solved for a CoES
        # that cannot be given
        raise ValueError(
            "CoES tail quadrature did not converge: The integral is divergent "
            f"({spec.family} gamma_1 = {spec.gamma_1:g} >= 1, CoES is infinite)"
        )
    target = (1.0 - tau) ** 2
    # one memo for the s_lo check, the doubling loop and brentq, which
    # evaluates both bracket ends again: no survival is computed twice
    survival = functools.cache(lambda c: joint_survival(spec, c, var_y))
    s_lo = survival(var_x)
    if s_lo < target:
        # under exact independence the root sits at VaR_X itself and float
        # rounding can push the survival a hair below the target
        if s_lo < target * (1.0 - 1e-9):
            raise ValueError(
                f"no root at or above VaR_X: survival at {var_x:g} already below (1-tau)^2"
            )
        covar = var_x
    else:
        covar = _root_above(lambda c: survival(c) - target, var_x, 2.0 * var_x, "CoVaR")
    tail, quad_err = _tail_integral(spec, covar, var_y)
    scale = (1.0 - tau) ** -2
    coes = covar + scale * tail
    result = OracleResult(
        var_y=var_y,
        covar=covar,
        coes=coes,
        abs_tol=max(_RTOL * covar, scale * quad_err),
    )
    with _CACHE_LOCK:
        _CACHE.setdefault(key, result)
    return result

