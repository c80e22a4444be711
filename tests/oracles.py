"""Definitional test oracles for the package's fast estimators and closed forms.

Each routine here computes a quantity the package computes another way,
straight from its definition: the intermediate CoVaR by scanning the X
values of the observations with Y >= Y_(n-k,n), eta-hat by scanning the
jump candidates of R-hat(., 1), the models' joint survival by 2-D
quadrature of the raw densities, and the closed-form CoVaR level and CoES
tail integral in 40-digit arithmetic.  The CoVaR scan selects its
conditioning set by value with its own sort, independently of the
package's ``MarginIndex.top``, so it is defined only when Y does not tie at
the threshold.  The eta-hat scan imports the package's value expressions
(``_eta1_value``, ``_eta2_value``), so on tie-free data both scans agree
with the procedures bit-for-bit.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from scipy import integrate
from scipy.special import gammaln

from cotail.core import LossPairSample, check_tail
from cotail.models import ModelSpec
from cotail.tail_copula import _check_variant, _eta1_value, _eta2_value, _not_attained


def intermediate_covar_scan(sample: LossPairSample, k: int) -> float:
    """Defining right-continuous inverse, by scanning the filtered X values.

    Returns sup{s : C_n(s) >= (k/n)^2} where C_n(s) counts observations with
    X >= s and Y >= Y_{n-k,n}.  The threshold comparison is integer-exact
    (n * count >= k^2).  Test oracle for ``intermediate_covar``.

    Raises:
        ValueError: if Y ties at Y_{n-k,n}, so that the conditioning set by
            value does not have exactly k+1 elements.
    """
    n = sample.n
    check_tail(n, k)
    var_y = np.sort(sample.ys)[n - k - 1]
    filtered = np.sort(sample.xs[sample.ys >= var_y])
    if filtered.size != k + 1:
        raise ValueError(f"Y ties at Y_(n-k,n)={var_y}: {filtered.size} values >= it, not k+1")
    best = None
    for j in range(filtered.size):
        count = filtered.size - j  # filtered values >= filtered[j], tie-free
        if n * count >= k * k:
            best = filtered[j]
    if best is None:
        raise ValueError("no filtered X value attains the C_n level")
    return float(best)


def eta_hat_bruteforce(sample: LossPairSample, k: int, variant: int) -> float:
    """Definitional inf over the jump candidates of R-hat(., 1); unclamped.

    Scans the finite candidate set where R-hat(., 1) can jump — variant 1:
    (n/k)(j/n) for j = 0..k; variant 2: (n + 1/2 - r)/k for r = n down to
    n - k + 1 — and returns the smallest candidate c with
    R-hat(c, 1) >= k/n.  Threshold comparisons are integer-exact
    (count * n >= k^2 via count >= m).
    """
    _check_variant(variant)
    n = sample.n
    m = check_tail(n, k)
    ranks_x = sample.x_index.ranks
    ranks_y = sample.y_index.ranks
    if variant == 1:
        depths_x = n - ranks_x[ranks_y >= n - k]  # candidates restricted to the filter
        for j in range(k + 1):
            if int(np.count_nonzero(depths_x <= j)) >= m:
                return _eta1_value(n, k, j)
    else:
        in_filter = ranks_x[ranks_y >= n - k + 1]
        for r in range(n, n - k, -1):
            if int(np.count_nonzero(in_filter >= r)) >= m:
                return _eta2_value(n, k, r)
    raise _not_attained(k, n)


def _quad_over_quadrant(density, a: float, b: float) -> float:
    """int_a^inf int_b^inf density(z1, z2) dz2 dz1.

    Each semi-infinite axis is folded onto (0, 1] by
    z = lo + max(lo, 1)*((1 - u)/u)^2; the square makes the u -> 0 endpoint
    behavior polynomial for the regularly-varying tails here (indices
    >= 5/2), which plain infinite-limit rules flag as slowly convergent,
    and the scale keeps the fold conditioned for large lower limits.  Each
    folded axis is split at u = 1/2 and the four pieces are integrated
    separately: over the whole square, QUADPACK's extrapolation met
    roundoff (and warned) on some Pareto2 cells.
    """
    scale1, scale2 = max(a, 1.0), max(b, 1.0)

    def transformed(u2: float, u1: float) -> float:
        r1 = (1.0 - u1) / u1
        r2 = (1.0 - u2) / u2
        jac = scale1 * scale2 * 4.0 * r1 * r2 / (u1 * u1 * u2 * u2)
        return density(a + scale1 * r1 * r1, b + scale2 * r2 * r2) * jac

    halves = ((0.0, 0.5), (0.5, 1.0))
    return sum(
        integrate.dblquad(transformed, lo1, hi1, lo2, hi2, epsabs=1e-10, epsrel=1e-8)[0]
        for lo1, hi1 in halves
        for lo2, hi2 in halves
    )


def joint_survival_quad(spec: ModelSpec, s: float, t: float) -> float:
    """P(X >= s, Y >= t) by direct 2-D quadrature of the pre-transform density.

    Independent route used only to audit the closed forms; Logistic has no
    tractable planar density here and is rejected.
    """
    if s < 0.0 or t < 0.0:
        raise ValueError("survival arguments must be nonnegative")
    if spec.family == "Logistic":
        raise ValueError("no 2-D density route for the Logistic model")
    a = s ** (1.0 / spec.x_exponent)
    b = t
    if spec.family == "Pareto2":
        theta = spec.theta
        return _quad_over_quadrant(
            lambda z1, z2: theta * (theta + 1.0) * (1.0 + z1 + z2) ** (-theta - 2.0), a, b
        )
    if spec.family == "Cauchy":
        return 4.0 * _quad_over_quadrant(
            lambda z1, z2: (1.0 + z1 * z1 + z2 * z2) ** -1.5 / (2.0 * math.pi), a, b
        )
    nu, rho = spec.nu, spec.rho
    det = 1.0 - rho * rho
    log_norm = gammaln(0.5 * nu + 1.0) - gammaln(0.5 * nu) - math.log(nu * math.pi) - 0.5 * math.log(det)

    def density(z1: float, z2: float) -> float:
        quad_form = (z1 * z1 - 2.0 * rho * z1 * z2 + z2 * z2) / det
        return math.exp(log_norm - (0.5 * nu + 1.0) * math.log1p(quad_form / nu))

    pos = _quad_over_quadrant(density, a, b)
    neg = _quad_over_quadrant(lambda z1, z2: density(z1, -z2), a, b)
    return 2.0 * (pos + neg)


def _joint_survival_mp(spec: ModelSpec, s, t):
    """Textbook closed-form P(X >= s, Y >= t), cancellation and all.

    At 40 digits the O(1) terms that cancel in the tail still leave far more
    than double precision in differences near 1e-8.
    """
    z = s ** mpmath.mpf(1.0 / spec.x_exponent)
    if spec.family == "Logistic":
        inv = 1 / mpmath.mpf(spec.theta)
        joint_cdf = mpmath.exp(-((z**-inv + t**-inv) ** mpmath.mpf(spec.theta)))
        return 1 - mpmath.exp(-1 / z) - mpmath.exp(-1 / t) + joint_cdf
    if spec.family == "Cauchy":
        root = mpmath.sqrt(1 + z * z + t * t)
        quadrant = mpmath.pi / 2 - mpmath.atan(z) - mpmath.atan(t) + mpmath.atan(z * t / root)
        return 2 * quadrant / mpmath.pi
    if spec.family == "Pareto2":
        return (1 + z + t) ** -mpmath.mpf(spec.theta)
    raise ValueError(f"no closed-form survival for the {spec.family} model")


def covar_coes_mp(spec: ModelSpec, tau: float, covar: float) -> tuple[float, float]:
    """(P(X >= c, Y >= VaR_Y(tau)) / (1 - tau)^2, CoES) at c = covar, 40 digits.

    CoES = c + (1 - tau)^(-2) * int_c^inf P(X >= s, Y >= VaR_Y(tau)) ds, by
    tanh-sinh quadrature.  Independent audit route for the closed-form
    families (Logistic, Cauchy, Pareto2): VaR_Y, the survival and the
    integral are all evaluated in mpmath.
    """
    with mpmath.workdps(40):
        level = mpmath.mpf(tau)
        if spec.family == "Logistic":
            var_y = -1 / mpmath.log(level)
        elif spec.family == "Cauchy":
            var_y = mpmath.tan(mpmath.pi * level / 2)
        elif spec.family == "Pareto2":
            var_y = (1 - level) ** (-1 / mpmath.mpf(spec.theta)) - 1
        else:
            raise ValueError(f"no closed-form survival for the {spec.family} model")
        c = mpmath.mpf(covar)
        target = (1 - level) ** 2
        tail = mpmath.quad(
            lambda s: _joint_survival_mp(spec, s, var_y), [c, 2 * c, 8 * c, mpmath.inf]
        )
        ratio = _joint_survival_mp(spec, c, var_y) / target
        return float(ratio), float(c + tail / target)
