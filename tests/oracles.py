"""Definitional test oracles for the package's fast estimators and closed forms.

Each routine here computes a quantity the package computes another way,
straight from its definition: R-hat at any (x, y) on the full ranks
(``r_hat``, against the one-count ``r11_curve``), the intermediate CoVaR by
scanning the X values of the observations with Y >= Y_(n-k,n), eta-hat by
scanning the jump candidates of R-hat(., 1), the models' joint survival by
2-D quadrature of the raw densities, and the CoVaR level and CoES tail
integral in mpmath (40 digits on the closed forms, 20 on the StudentT
conditional integral; the Pareto2 tail integral is an exact incomplete beta
function).  The CoVaR scan selects its
conditioning set by value with its own sort, independently of the
package's ``MarginIndex.ranked``, so it is defined only when Y does not tie
at the threshold.  The eta-hat scan imports the package's value expressions
(``_eta1_value``, ``_eta2_value``), so on tie-free data both scans agree
with the procedures bit-for-bit.  The joint tail probability is counted on
values, against the rank-based diagnostic curve.

The model references are definitions the tests hold the package to: each
family's analytic tail copula R (``true_tail_copula``), the finite-level
eta at the true CoVaR (``eta_true``) and its limit, the root of
R(eta, 1) = 1 - tau (``eta_star``).  The oracle's Logistic joint survival
writes out its own R, the one family whose R the package reads.

The price-file references read row by row, from the open file, what
``data_io`` walks from the whole decoded text:
``price_table_by_rows`` walks ``csv.reader`` rows and wraps each bad row's
error, and ``pair_series_by_dates`` joins the two tables on their sorted
common dates by lookup.

``selection_at`` is not an oracle: it is the package's own selection at one
k, for the tests that need eta-hat or the intermediate CoVaR/CoES where an
``estimate_k_range`` row fails before it reaches them.
"""

from __future__ import annotations

import csv
import datetime
import functools
import math

import mpmath
import numpy as np
from scipy import integrate
from scipy.special import gammaln, stdtr

from cotail.core import LossPairSample, build_margin_index, check_level, check_tail
from cotail.covar_coes import _intermediate
from cotail.models import ModelSpec, marginal_quantiles, pre_margin_survival
from cotail.oracle import _root_above, oracle_result
from cotail.tail_copula import _eta, _eta1_value, _eta2_value, _not_attained, filtered_x_ranks


def _check_variant(variant: int) -> None:
    if variant not in (1, 2):
        raise ValueError(f"variant must be 1 or 2, got {variant}")


def r_hat(sample: LossPairSample, k: int, variant: int, x: float, y: float) -> float:
    """Empirical tail copula R-hat at (x, y) on the sample's full ranks.

    Variant 1 is the empirical-CDF form (indicator on 1 - F-hat with
    denominator n); variant 2 is the rank form (indicator on ranks against
    n + 1/2 - k x).  Each call sorts both margins.  Test oracle for
    ``tail_copula.r11_curve``, which gives R-hat(1, 1) at every k from one
    count.
    """
    _check_variant(variant)
    n = sample.n
    check_tail(n, k)
    if not (x >= 0.0 and y >= 0.0):  # NaN fails both
        raise ValueError("tail copula arguments must be nonnegative")
    ranks_x, ranks_y = (build_margin_index(v).ranks for v in (sample.xs, sample.ys))
    if variant == 1:
        hits = ((n - ranks_x) <= x * k) & ((n - ranks_y) <= y * k)
    else:
        hits = (ranks_x >= n + 0.5 - k * x) & (ranks_y >= n + 0.5 - k * y)
    return float(np.count_nonzero(hits) / k)


def _student_pair_term(x: float, y: float, rho: float, nu: float) -> float:
    """Tail-copula contribution of one signed quadrant of a bivariate t pair."""
    c = math.sqrt((nu + 1.0) / (1.0 - rho * rho))
    points = (c * (rho - (y / x) ** (1.0 / nu)), c * (rho - (x / y) ** (1.0 / nu)))
    cdf_y, cdf_x = stdtr(nu + 1.0, points).tolist()
    return y * cdf_y + x * cdf_x


def true_tail_copula(spec: ModelSpec, x: float, y: float) -> float:
    """Analytic tail copula R(x, y) of the model.

    Homogeneous of degree 1 with margins R(x, inf) = x, R(inf, y) = y.
    For StudentT the absolute-value transforms fold the two signed
    quadrants together, so R is the sum of the correlated (rho) and
    anti-correlated (-rho) quadrant terms.
    """
    if x < 0.0 or y < 0.0:
        raise ValueError("tail copula arguments must be nonnegative")
    if x == 0.0 or y == 0.0:
        return 0.0
    if spec.family == "Logistic":
        # x + y - (x^(1/t) + y^(1/t))^t, factored through the larger
        # argument so that the difference does not cancel
        t = spec.theta
        lo, hi = min(x, y), max(x, y)
        return lo - hi * math.expm1(t * math.log1p((lo / hi) ** (1.0 / t)))
    if spec.family == "Cauchy":
        return x + y - math.hypot(x, y)
    if spec.family == "Pareto2":
        # (x^(-1/t) + y^(-1/t))^(-t), factored through the smaller argument
        # so that a tiny one does not overflow
        t = spec.theta
        lo, hi = min(x, y), max(x, y)
        return lo * (1.0 + (lo / hi) ** (1.0 / t)) ** (-t)
    return _student_pair_term(x, y, spec.rho, spec.nu) + _student_pair_term(
        x, y, -spec.rho, spec.nu
    )


def eta_true(spec: ModelSpec, tau: float) -> float:
    """Finite-level eta: F-bar_X(CoVaR)/(1 - tau), at the memoized true CoVaR."""
    c = oracle_result(spec, tau).covar
    return pre_margin_survival(spec, c ** (1.0 / spec.x_exponent)) / (1.0 - tau)


def eta_star(spec: ModelSpec, tau: float) -> float:
    """Limit analogue: the root of R(eta, 1) = 1 - tau."""
    check_level(tau, "tau")
    target = 1.0 - tau
    return _root_above(lambda eta: target - true_tail_copula(spec, eta, 1.0), 0.0, 1.0, "eta*")


def selection_at(
    sample: LossPairSample, k: int
) -> tuple[float | None, float | None, float, float]:
    """(raw eta-hat variant 1, raw variant 2, CoVaR_int, CoES_int) at one k.

    The composition ``estimate_k_range`` runs (``filtered_x_ranks``, ``_eta``,
    ``_intermediate``), on full indexes of the sample as a stack of one and
    without the checks of X_(n-k,n) and gamma-hat that can fail a row
    first.  A variant whose eta-hat is not attained reads None; the
    intermediate CoVaR/CoES are defined on the full indexes whether or not
    it is.
    """
    n = sample.n
    ks, ms = np.array([k]), np.array([check_tail(n, k)])
    x_index, y_index = (build_margin_index(v[None]) for v in (sample.xs, sample.ys))
    rows, r1, r2 = filtered_x_ranks(x_index, y_index, ks, ms)
    covar, coes = _intermediate(x_index, ks, ms, rows, r1)
    etas = (_eta(n, k, 1, int(r1[0, 0])), _eta(n, k, 2, int(r2[0, 0])))
    raw1, raw2 = (float(raw) if attained else None for raw, _, _, attained in etas)
    return raw1, raw2, float(covar[0, 0]), float(coes[0, 0])


def intermediate_covar_scan(sample: LossPairSample, k: int) -> float:
    """Defining right-continuous inverse, by scanning the filtered X values.

    Returns sup{s : C_n(s) >= (k/n)^2} where C_n(s) counts observations with
    X >= s and Y >= Y_{n-k,n}.  The threshold comparison is integer-exact
    (n * count >= k^2).  Test oracle for the intermediate CoVaR
    (``covar_int``).

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
    ranks_x, ranks_y = (build_margin_index(v).ranks for v in (sample.xs, sample.ys))
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


def tail_prob_by_value(sample: LossPairSample, tau: float) -> float:
    """Empirical P(X >= VaR_X(tau), Y >= VaR_Y(tau)), compared on values.

    VaR at tau is the ceil(n*tau)-th smallest value of each margin, by its
    own sort.  Test oracle for ``empirical.tail_prob_curve``.
    """
    idx = math.ceil(sample.n * tau)
    xs, ys = sample.xs, sample.ys
    return float(np.mean((xs >= np.sort(xs)[idx - 1]) & (ys >= np.sort(ys)[idx - 1])))


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
    """(P(X >= c, Y >= VaR_Y(tau)) / (1 - tau)^2, CoES) at c = covar, in mpmath.

    CoES = c + (1 - tau)^(-2) * int_c^inf P(X >= s, Y >= VaR_Y(tau)) ds.
    Independent audit route: VaR_Y, the survival and the integral are all
    evaluated in mpmath.  Logistic and Cauchy integrate the textbook
    survival by tanh-sinh quadrature at 40 digits; Pareto2 takes the exact
    tail of ``_pareto2_tail_mp``, since tanh-sinh misses it by up to 22% as
    gamma_1 nears 1; StudentT takes the conditional route of
    ``_student_covar_coes_mp`` at 20 digits.
    """
    if spec.family == "StudentT":
        return _student_covar_coes_mp(spec, tau, covar)
    with mpmath.workdps(40):
        level = mpmath.mpf(tau)
        if spec.family == "Logistic":
            var_y = -1 / mpmath.log(level)
        elif spec.family == "Cauchy":
            var_y = mpmath.tan(mpmath.pi * level / 2)
        else:
            var_y = (1 - level) ** (-1 / mpmath.mpf(spec.theta)) - 1
        c = mpmath.mpf(covar)
        target = (1 - level) ** 2
        if spec.family == "Pareto2":
            tail = _pareto2_tail_mp(mpmath.mpf(spec.theta), c, var_y)
        else:
            tail = mpmath.quad(
                lambda s: _joint_survival_mp(spec, s, var_y), [c, 2 * c, 8 * c, mpmath.inf]
            )
        ratio = _joint_survival_mp(spec, c, var_y) / target
        return float(ratio), float(c + tail / target)


def _pareto2_tail_mp(theta, c, var_y):
    """int_c^inf (1 + s^6 + var_y)^(-theta) ds, the Pareto2 CoES tail, exactly.

    With A = 1 + var_y, s = A^(1/6) x and then y = 1/(1 + x^6), the integral
    is A^(1/6 - theta) B(y0; theta - 1/6, 1/6) / 6, where
    y0 = 1/(1 + x0^6), x0 = c A^(-1/6), and B is the incomplete beta
    function.  It is finite iff theta > 1/6 (gamma_1 = 1/(6 theta) < 1).
    """
    a = 1 + var_y
    sixth = mpmath.mpf(1) / 6
    y0 = 1 / (1 + (c * a**-sixth) ** 6)
    return a ** (sixth - theta) * mpmath.betainc(theta - sixth, sixth, 0, y0) / 6


def _student_covar_coes_mp(spec: ModelSpec, tau: float, covar: float) -> tuple[float, float]:
    """``covar_coes_mp`` for StudentT (X = |T1|^(1/2), Y = |T2|), 20 digits.

    Given T1 = z, (T2 - rho z)/sigma(z) is t with nu + 1 degrees of freedom,
    sigma(z) = sqrt((nu + z^2)(1 - rho^2)/(nu + 1)), and every t tail is a
    regularized incomplete beta function: P(T_k >= x) = I_{k/(k+x^2)}(k/2, 1/2)/2
    for x >= 0.  By central symmetry the survival at c is
    2 int_{c^2}^inf f(z) P(|T2| >= VaR_Y | z) dz, and the CoES tail,
    E[(X - c)+; Y >= VaR_Y], is the same integral weighted by sqrt(z) - c.
    Both are taken in z = c^2 e^v, with breakpoints along v spanning the
    decades of the t tail, and share their integrand's nodes.  VaR_Y solves
    I_{nu/(nu+q^2)}(nu/2, 1/2) = 1 - tau, from the double-precision quantile.
    """
    with mpmath.workdps(20):
        nu, rho, level = mpmath.mpf(spec.nu), mpmath.mpf(spec.rho), mpmath.mpf(tau)
        k = nu + 1

        def t_survival(x, df):
            half_tail = mpmath.betainc(df / 2, 0.5, 0, df / (df + x * x), regularized=True) / 2
            return half_tail if x >= 0 else 1 - half_tail

        var_y = mpmath.findroot(
            lambda q: 2 * t_survival(q, nu) - (1 - level), marginal_quantiles(spec, tau)[1]
        )
        coef = mpmath.sqrt((1 - rho * rho) / k)
        norm = mpmath.gamma(k / 2) / (mpmath.gamma(nu / 2) * mpmath.sqrt(nu * mpmath.pi))
        c = mpmath.mpf(covar)

        @functools.cache
        def conditional(v):
            # f(z) P(|T2| >= VaR_Y | T1 = z) dz/dv at z = c^2 e^v
            z = c * c * mpmath.exp(v)
            sigma = coef * mpmath.sqrt(nu + z * z)
            both_tails = t_survival((var_y - rho * z) / sigma, k) + t_survival(
                (var_y + rho * z) / sigma, k
            )
            return norm * (1 + z * z / nu) ** (-k / 2) * both_tails * z

        breaks = [0, 1, 3, 10, 30, 100, 400, mpmath.inf]
        target = (1 - level) ** 2
        survival = 2 * mpmath.quad(conditional, breaks)
        tail = 2 * mpmath.quad(lambda v: c * mpmath.expm1(v / 2) * conditional(v), breaks)
        return float(survival / target), float(c + tail / target)


def price_table_by_rows(path) -> dict[datetime.date, float]:
    """A price file's {date: price} in file order, read row by row with
    ``csv.reader`` on the open file.  Test oracle for
    ``data_io._load_price_file``, which walks the whole decoded text and
    returns columns; each bad file raises the same
    ValueError text here (a file that fails to decode aside: this loop
    reports the first bad row of the chunks it read)."""
    try:
        # utf-8-sig drops the byte-order mark that spreadsheet exports often write
        with open(path, newline="", encoding="utf-8-sig") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header is None or [cell.strip().lower() for cell in header] != ["date", "price"]:
                raise ValueError(f"{path}: expected header 'date,price'")
            table: dict[datetime.date, float] = {}
            start = reader.line_num + 1
            for row in reader:
                lineno, start = start, reader.line_num + 1
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                if len(row) != 2:
                    raise ValueError(f"{path}:{lineno}: expected 2 fields, got {len(row)}")
                try:
                    day = datetime.date.fromisoformat(row[0].strip())
                    price = float(row[1])
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from None
                if not math.isfinite(price):
                    raise ValueError(f"{path}:{lineno}: non-finite price {row[1].strip()}")
                if price <= 0.0:
                    raise ValueError(f"{path}:{lineno}: non-positive price {row[1].strip()}")
                if day in table:
                    raise ValueError(f"{path}:{lineno}: duplicate date {day}")
                table[day] = price
    except UnicodeDecodeError as exc:  # a ValueError that would not name the file
        raise ValueError(f"{path}: {exc}") from None
    if not table:
        raise ValueError(f"{path}: no data rows")
    return table


def pair_series_by_dates(path_x, path_y) -> tuple[tuple[datetime.date, ...], LossPairSample]:
    """Two price tables joined on their sorted common dates by dict lookup.
    Test oracle for ``data_io.load_pair_series``, which joins day ordinals."""
    table_x = price_table_by_rows(path_x)
    table_y = price_table_by_rows(path_y)
    common = sorted(day for day in table_x if day in table_y)
    if not common:
        raise ValueError("empty intersection of dates between the two files")
    if len(common) < 2:
        raise ValueError(f"need at least 2 overlapping dates, got {len(common)}")
    xs, ys = (-np.diff(np.log([table[d] for d in common])) for table in (table_x, table_y))
    return tuple(common[1:]), LossPairSample(xs=xs, ys=ys)


def sample_by_rows(spec: ModelSpec, n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """(xs, ys) of n pairs drawn from one Generator with the family's
    sampler written per sample, each variate block drawn by size and
    transformed on its own: the reference for ``sample_model``'s draw
    order and transforms."""
    tiny = np.finfo(float).tiny
    if spec.family == "Logistic":
        theta = spec.theta
        if theta == 1.0:
            s = np.ones(n)
        else:
            u = np.clip(rng.random(n), 1e-15, 1.0 - 1e-15)
            angle = np.pi * u
            w = rng.standard_exponential(n)
            s = (
                np.sin(theta * angle)
                / np.sin(angle) ** (1.0 / theta)
                * (np.sin((1.0 - theta) * angle) / w) ** ((1.0 - theta) / theta)
            )
        e = rng.standard_exponential((n, 2))
        z1, z2 = (s / e[:, 0]) ** theta, (s / e[:, 1]) ** theta
    elif spec.family == "Cauchy":
        z = rng.standard_normal((n, 3))
        denom = np.maximum(np.abs(z[:, 0]), tiny)
        z1, z2 = np.abs(z[:, 1] / denom), np.abs(z[:, 2] / denom)
    elif spec.family == "Pareto2":
        g = np.maximum(rng.gamma(spec.theta, 1.0, size=n), tiny)
        e = rng.standard_exponential((n, 2))
        z1, z2 = e[:, 0] / g, e[:, 1] / g
    else:
        w = np.maximum(rng.gamma(0.5 * spec.nu, 2.0, size=n), tiny)
        normals = rng.standard_normal((n, 2))
        scale = np.sqrt(w / spec.nu)
        z1 = np.abs(normals[:, 0] / scale)
        z2 = np.abs((spec.rho * normals[:, 0] + math.sqrt(1.0 - spec.rho**2) * normals[:, 1]) / scale)
    return z1**spec.x_exponent, z2


def margin_index_by_stable_argsort(values, depth: int | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(sorted, ranks, order) of ``MarginIndex``, row by row from each row's
    full stable argsort: the kept values are those at or above the row's
    depth-th largest, and ``order`` keeps the top of every row as deep as
    the shortest row's tail."""
    stack = np.atleast_2d(np.asarray(values, dtype=float))
    rows, n = stack.shape
    reach = n if depth is None else min(depth, n)
    sorted_rows, rank_rows, orders, tails = [], [], [], []
    for row in stack:
        full = np.argsort(row, kind="stable")
        ranks = np.empty(n, dtype=np.int32)
        ranks[full] = np.arange(1, n + 1)
        kept = row >= row[full[n - reach]]
        tails.append(int(kept.sum()))
        ascending = row[full]
        ascending[: n - tails[-1]] = -np.inf
        sorted_rows.append(ascending)
        rank_rows.append(np.where(kept, ranks, 0))
        orders.append(full)
    order = np.array([full[n - min(tails) :] for full in orders])
    result = np.array(sorted_rows), np.array(rank_rows), order
    return tuple(part[0] for part in result) if np.ndim(values) == 1 else result
