"""Population ground truth for the simulation models.

For each model the joint survival P(X >= s, Y >= t) is available in closed
form (Logistic, Cauchy, Pareto2) or by one-dimensional conditional
quadrature (StudentT).  True CoVaR solves

    P(X >= c, Y >= VaR_Y(tau)) = (1 - tau)^2

by Brent's method on a doubled bracket, and true CoES adds the tail integral

    CoES = c + (1 - tau)^(-2) * int_c^inf P(X >= s, Y >= VaR_Y(tau)) ds

The tail integral is an incomplete beta function for Pareto2.  Logistic and
Cauchy take it in s = c/u on u in (0, 1].  For StudentT it is
E[(X - c)+; Y >= VaR_Y(tau)]: the survival's conditional quadrature over
|T1| = z, weighted by z^x_exponent - c, in t = log(z/c^(1/x_exponent)) up
to z = 1e150, plus the exact power-law tail beyond.  The tail is finite iff
X's extreme value index gamma_1 < 1; at gamma_1 >= 1 (StudentT nu <= 1/2,
Pareto2 theta <= 1/6) the oracle raises the tail error right after the
level check, before any quantile, root or integral.  ``oracle_result``
computes both, memoized per (model, tau): it is the one path to the truth.
Within a cell no survival is evaluated twice.

The root is SciPy's ``brentq`` and the quadrature QUADPACK's 21-point
Gauss-Kronrod rule, both written out here, so the package imports only
``scipy.special`` from SciPy.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
from scipy import special

from .core import check_level
from .models import ModelSpec, marginal_quantiles, pre_margin_survival


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
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)
# the StudentT CoES tail is integrated up to |T1| = _Z_FAR, where z^2 is
# still finite and the power-law tail beyond is exact to double precision
_Z_FAR = 1e150

# QUADPACK's dqk21: Kronrod abscissae on (0, 1] (every second one a Gauss
# node), their weights and the centre's, and the 10-point Gauss weights
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
])
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208093005318, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
])
_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
])
# a panel's 21 nodes are centre + half * _NODES: the centre, then the 5
# Gauss and the 5 other Kronrod nodes on the left, then the same on the
# right, the order in which dqk21 adds them.  The pairs of left and right
# values are summed with the centre in both halves (_RIGHT), each copy
# weighing _WGK[10]/2 (_W11)
_PAIRS = np.concatenate([np.arange(1, 10, 2), np.arange(0, 10, 2)])
_NODES = np.concatenate([[0.0], -_XGK[_PAIRS], _XGK[_PAIRS]])
_RIGHT = np.concatenate([[0], np.arange(11, 21)])
_W11 = np.concatenate([[0.5 * _WGK[10]], _WGK[_PAIRS]])
_W21 = np.concatenate([_WGK[10:], _WGK[_PAIRS], _WGK[_PAIRS]])

_CACHE: dict[tuple[ModelSpec, float], OracleResult] = {}


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
        # e^(R - x - y) <= 1 since R <= min(x, y), so neither term overflows.
        # R(x, y) = x + y - (x^(1/a) + y^(1/a))^a is factored through the
        # larger argument so that the difference does not cancel
        x, y, a = 1.0 / z, 1.0 / t, spec.theta
        lo, hi = min(x, y), max(x, y)
        r = lo - hi * math.expm1(a * math.log1p((lo / hi) ** (1.0 / a))) if lo else 0.0
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
    conditional = _student_conditional(spec, b)
    # z = a + scale*((1 - u)/u)^2 folds [a, inf) onto (0, 1] with
    # polynomial endpoint behavior for the t tail, uniformly in a
    scale = max(a, 1.0)

    def integrand(u: np.ndarray) -> np.ndarray:
        r = (1.0 - u) / u
        # h * (2 scale) is (h * scale) * 2 to the bit
        return conditional(a + scale * r * r) * (2.0 * scale) * r / (u * u)

    # epsabs 0: the CoVaR root compares this with (1 - tau)^2, as small as
    # 1e-8 at the study's levels, where any absolute floor would dominate
    # two panels, as QUADPACK's first bisection of (0, 1]
    value, err, _ = _quad(integrand, (0.0, 0.5, 1.0), epsabs=0.0, epsrel=1e-10)
    if not math.isfinite(value) or err > 1e-6 * abs(value):
        raise ValueError(f"StudentT survival quadrature did not converge (err={err:g})")
    return 2.0 * value


def _student_conditional(spec: ModelSpec, b: float) -> Callable[[np.ndarray], np.ndarray]:
    """z -> f(z) P(|T2| >= b | T1 = z), elementwise, for the t density f.

    Given T1 = z, (T2 - rho z)/sigma(z) is t with nu + 1 degrees of freedom,
    sigma(z) = sqrt((nu + z^2)(1 - rho^2)/(nu + 1)), so the conditional
    tail is two t-CDF values.  Integrated over z >= a it is half of
    P(|T1| >= a, |T2| >= b); central symmetry gives the factor 2 the callers
    apply.
    """
    nu, rho = spec.nu, spec.rho
    df = nu + 1.0
    coef = math.sqrt((1.0 - rho * rho) / df)
    log_norm = _t_log_norm(nu)
    half_df = 0.5 * df

    def conditional(z: np.ndarray) -> np.ndarray:
        z2, rz = z * z, rho * z
        sigma = coef * np.sqrt(nu + z2)
        tails = special.stdtr(df, np.array([rz - b, -b - rz]) / sigma)
        return np.exp(log_norm - half_df * np.log1p(z2 / nu)) * (tails[0] + tails[1])

    return conditional


@functools.cache
def _t_log_norm(nu: float) -> float:
    """log of the t density's constant Gamma((nu+1)/2) / (Gamma(nu/2) sqrt(nu pi))."""
    return float(special.gammaln(0.5 * (nu + 1.0)) - special.gammaln(0.5 * nu)) - 0.5 * math.log(nu * math.pi)


def _kronrod21(
    f: Callable[[np.ndarray], np.ndarray], lo: np.ndarray, hi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(integrals, error estimates) of QUADPACK's dqk21 on each [lo_i, hi_i].

    All nodes of every panel go through one call of the vectorised f.  The
    Kronrod sum is a cumulative sum in dqk21's order, so a panel's integral
    is dqk21's to the bit for the same f values.
    """
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    values = f((np.multiply.outer(half, _NODES) + center[:, None]).ravel()).reshape(-1, 21)
    pairs = values[:, :11] + values[:, _RIGHT]
    resk = np.add.accumulate(pairs * _W11, axis=1)[:, -1]
    # QUADPACK's error estimate: |Kronrod - Gauss| scaled against the
    # spread about the mean, floored at the roundoff; all three sums are
    # per unit half-width here
    resabs = np.abs(values) @ _W21
    resasc = np.abs(values - 0.5 * resk[:, None]) @ _W21
    err = np.abs(resk - pairs[:, 1:6] @ _WG)
    scaled = resasc * np.minimum(1.0, (200.0 * err / np.maximum(resasc, _TINY)) ** 1.5)
    err = np.where(resasc > 0.0, scaled, err)
    return resk * half, np.maximum(err, 50.0 * _EPS * resabs) * half


def _quad(
    f: Callable[[np.ndarray], np.ndarray],
    edges: tuple[float, ...],
    epsabs: float,
    epsrel: float,
    limit: int = 200,
) -> tuple[float, float, str]:
    """(integral, error estimate, message) of f over [edges[0], edges[-1]].

    Globally adaptive 21-point Gauss-Kronrod: starting from the panels
    between the edges, while the summed error estimate exceeds
    max(epsabs, epsrel |integral|), every panel whose estimate exceeds its
    even share of that bound is bisected, all new panels in one
    ``_kronrod21`` call.  The message is empty on convergence; it names the
    panel ``limit`` otherwise.
    """
    lo, hi = np.array(edges[:-1]), np.array(edges[1:])
    area, err = _kronrod21(f, lo, hi)
    while True:
        value, error = float(area.sum()), float(err.sum())
        bound = max(epsabs, epsrel * abs(value))
        if error <= bound:
            return value, error, ""
        split = err > bound / err.size
        if err.size + np.count_nonzero(split) > limit:
            return value, error, f"The maximum number of subdivisions ({limit}) has been achieved."
        mid = 0.5 * (lo[split] + hi[split])
        new_lo, new_hi = np.concatenate([lo[split], mid]), np.concatenate([mid, hi[split]])
        new_area, new_err = _kronrod21(f, new_lo, new_hi)
        keep = ~split
        lo, hi = np.concatenate([lo[keep], new_lo]), np.concatenate([hi[keep], new_hi])
        area, err = np.concatenate([area[keep], new_area]), np.concatenate([err[keep], new_err])


def _brentq(f: Callable[[float], float], xa: float, xb: float, xtol: float, rtol: float) -> float:
    """Root of f in [xa, xb], where f(xa) and f(xb) differ in sign.

    SciPy's ``brentq`` (scipy/optimize/Zeros/brentq.c) line for line, with
    its 100-iteration cap, so it returns the same float for the same f.
    """
    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(100):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
    raise ValueError(f"Brent's method did not converge in 100 iterations, value is {xcur!r}")


def _root_above(g, lo: float, hi: float, what: str) -> float:
    """Root of g above lo, where g(lo) >= 0 and g turns negative further out.

    hi doubles (lo following it) until g(hi) < 0; Brent's method then
    narrows [lo, hi] to relative tolerance _RTOL.
    """
    for _ in range(200):
        if g(hi) < 0.0:
            # xtol ~ 0 leaves the relative tolerance in charge for small roots
            return _brentq(g, lo, hi, xtol=1e-300, rtol=_RTOL)
        lo, hi = hi, 2.0 * hi
    raise ValueError(f"failed to bracket the {what} root")


def _pareto2_tail(spec: ModelSpec, c: float, var_y: float) -> tuple[float, float]:
    """(int_c^inf (A + s^(1/x))^(-theta) ds, error bound), A = 1 + var_y.

    With s^(1/x) = A w and y = 1/(1 + w) the integral is
    x A^(x - theta) B(y0; theta - x, x), y0 = A/(A + c^(1/x)), B the
    incomplete beta function.  theta and x = 1/6 are known to half an ulp
    each, and B ~ y0^p/p with p = theta - x, so the bound carries their
    rounding through 1/p, log y0 and A^(-p), besides the roundings of the
    special functions.
    """
    x, theta = spec.x_exponent, spec.theta
    p = theta - x
    a = 1.0 + var_y
    y0 = a / (a + c ** (1.0 / x))
    tail = x * a ** (x - theta) * float(special.beta(p, x) * special.betainc(p, x, y0))
    rel = _EPS * (32.0 + (theta + x) * (1.0 / p + abs(math.log(y0)) + math.log(a)))
    return tail, rel * tail


def _student_tail(spec: ModelSpec, c: float, var_y: float) -> tuple[float, float, str]:
    """(E[(X - c)+; Y >= var_y], its error estimate, quadrature message).

    Half the expectation is int_a^inf (z^x - c) f(z) P(|T2| >= var_y | z) dz,
    a = c^(1/x).  Up to z = _Z_FAR it is taken in t = log(z/a), where
    z^x - c = c expm1(x t) and the integrand decays like e^((x - nu) t),
    slowly as nu nears 1/2, from panels that double in length.  Beyond,
    f(z) = K z^(-nu-1) (1 + O(z^-2)) with K = norm nu^((nu+1)/2), and the
    conditional tail is 1 - O(var_y/z), so the integral is
    K (Z^(x-nu)/(nu - x) - c Z^(-nu)/nu) to double precision.
    """
    nu, x = spec.nu, spec.x_exponent
    a = c ** (1.0 / x)
    conditional = _student_conditional(spec, var_y)

    def integrand(t: np.ndarray) -> np.ndarray:
        z = a * np.exp(t)
        return c * np.expm1(x * t) * conditional(z) * z

    t_far = math.log(_Z_FAR / a)
    edges = (0.0, *(2.0**k for k in range(math.ceil(math.log2(t_far)))), t_far)
    near, near_err, message = _quad(integrand, edges, epsabs=1e-14, epsrel=1e-9)
    log_k = _t_log_norm(nu) + 0.5 * (nu + 1.0) * math.log(nu)
    powers = _Z_FAR ** (x - nu) / (nu - x) - c * _Z_FAR**-nu / nu
    # the powers underflow to 0 (from nu ~ 2.7) before K overflows (from nu ~ 250)
    far = math.exp(log_k) * powers if powers else 0.0
    # an exact term: exp carries the rounding of log_k, plus a few more
    far_err = _EPS * (8.0 + abs(log_k)) * far
    return 2.0 * (near + far), 2.0 * (near_err + far_err), message


def _tail_integral(spec: ModelSpec, c: float, var_y: float) -> tuple[float, float]:
    """(int_c^inf S(s) ds, error estimate) for S(s) = P(X >= s, Y >= var_y)."""
    if spec.family == "Pareto2":
        return _pareto2_tail(spec, c, var_y)
    if spec.family == "StudentT":
        value, err, message = _student_tail(spec, c, var_y)
    else:

        def integrand(u: np.ndarray) -> np.ndarray:
            return np.array([joint_survival(spec, c / v, var_y) * c / (v * v) for v in u.tolist()])

        value, err, message = _quad(integrand, (0.0, 1.0), epsabs=1e-14, epsrel=1e-9)
    if message or not math.isfinite(value):
        raise ValueError(f"CoES tail quadrature did not converge: {message or 'non-finite value'}")
    return value, err


def oracle_result(spec: ModelSpec, tau: float) -> OracleResult:
    """Memoized (VaR_Y, CoVaR, CoES) truth for the model at level tau; the
    first result stored for a cell is the one every caller gets."""
    check_level(tau, "tau")
    key = (spec, tau)
    hit = _CACHE.get(key)
    if hit is not None:
        return hit
    if spec.gamma_1 >= 1.0:
        # E[X; Y >= var_y] is infinite: no quantile (which can overflow) and
        # no CoVaR root is computed for a CoES that cannot be given
        raise ValueError(
            "CoES tail quadrature did not converge: The integral is divergent "
            f"({spec.family} gamma_1 = {spec.gamma_1:g} >= 1, CoES is infinite)"
        )
    var_x, var_y = marginal_quantiles(spec, tau)
    target = (1.0 - tau) ** 2
    # one memo for the s_lo check, the doubling loop and Brent's method,
    # which evaluates both bracket ends again: no survival is computed twice
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
    tail, tail_err = _tail_integral(spec, covar, var_y)
    scale = (1.0 - tau) ** -2
    coes = covar + scale * tail
    result = OracleResult(
        var_y=var_y,
        covar=covar,
        coes=coes,
        abs_tol=max(_RTOL * covar, scale * tail_err),
    )
    return _CACHE.setdefault(key, result)
