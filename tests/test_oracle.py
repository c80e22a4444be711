import math
import sys
from concurrent.futures import ThreadPoolExecutor

import mpmath
import numpy as np
import pytest
from scipy import integrate, optimize, special
from scipy.special import cython_special

import cotail.oracle
from cotail.cli import main
from cotail.models import (
    FAMILIES,
    make_spec,
    marginal_quantiles,
    pre_margin_survival,
    sample_model,
)
from cotail.oracle import _RTOL, _brentq, _kronrod21, _quad, _t_log_norm, joint_survival, oracle_result
from oracles import covar_coes_mp, eta_star, eta_true, joint_survival_quad, true_tail_copula


def test_joint_survival_known_values():
    assert joint_survival(make_spec("Logistic"), 0.0, 0.0) == pytest.approx(1.0)
    assert joint_survival(make_spec("Logistic"), 0.0, 1.0) == pytest.approx(1.0 - math.exp(-1.0))
    assert joint_survival(make_spec("Pareto2"), 1.0, 0.0) == pytest.approx(2.0**-0.5, rel=1e-14)
    assert joint_survival(make_spec("Pareto2"), 1.0, 1.0) == pytest.approx(3.0**-0.5, rel=1e-14)
    # the symmetric spherical-Cauchy quadrant puts exactly one third of the
    # positive-orthant mass past (1, 1)
    assert joint_survival(make_spec("Cauchy"), 1.0, 1.0) == pytest.approx(1.0 / 3.0, rel=1e-14)
    # pinned bit for bit: the StudentT conditional quadrature
    assert joint_survival(make_spec("StudentT"), 2.0, 1.0) == 0.07668906866171624


@pytest.mark.parametrize("family", FAMILIES)
def test_joint_survival_zero_argument_is_a_margin(family):
    spec = make_spec(family)
    for v in (1e-3, 0.7, 2.0, 50.0):
        assert joint_survival(spec, 0.0, v) == pre_margin_survival(spec, v)
        assert joint_survival(spec, v, 0.0) == pre_margin_survival(spec, v ** (1.0 / spec.x_exponent))
    assert joint_survival(spec, 0.0, 0.0) == 1.0


def test_joint_survival_underflowing_threshold_is_a_margin():
    # z = s^3 underflows to 0 at s = 1e-200: the Y margin, not 1/0
    spec = make_spec("Logistic")
    assert (1e-200) ** (1.0 / spec.x_exponent) == 0.0
    assert joint_survival(spec, 1e-200, 1.5) == pre_margin_survival(spec, 1.5)


@pytest.mark.parametrize("s, t", [(0.05, 0.001), (1e-3, 1e-3)])
def test_logistic_joint_survival_at_tiny_thresholds_is_one(s, t):
    # R(1/z, 1/t) is far above 709 here, so e^R would overflow
    assert joint_survival(make_spec("Logistic"), s, t) == 1.0


def test_joint_survival_rejects_negative_arguments():
    for s, t in [(-0.5, 1.0), (1.0, -2.0)]:
        with pytest.raises(ValueError):
            joint_survival(make_spec("Cauchy"), s, t)
        with pytest.raises(ValueError):
            joint_survival_quad(make_spec("Cauchy"), s, t)


def test_pareto2_covar_closed_form():
    # survival (1 + x^6 + y)^(-1/2) lets the defining equation be solved by
    # hand: CoVaR(0.99)^6 = 1e8 - 1e4
    c = oracle_result(make_spec("Pareto2"), 0.99).covar
    assert abs(c / (1e8 - 1e4) ** (1.0 / 6.0) - 1.0) <= 1e-6


def test_pareto2_coes_near_closed_expansion():
    """Leading term of the tail integral: CoES ~ c + 1e4 / (2 c^2) at tau=0.99."""
    spec = make_spec("Pareto2")
    truth = oracle_result(spec, 0.99)
    c = truth.covar
    assert abs(truth.coes / (c + 1e4 / (2.0 * c * c)) - 1.0) <= 1e-4


def test_covar_ordering_all_families():
    for family in FAMILIES:
        spec = make_spec(family)
        for tau in (0.99, 0.999):
            var_x, var_y = marginal_quantiles(spec, tau)
            result = oracle_result(spec, tau)
            assert result.var_y == pytest.approx(var_y)
            assert result.covar >= var_x
            assert result.coes > result.covar


def test_coes_covar_ratio_approaches_frechet_limit():
    # gamma1 = 1/3 everywhere, so CoES/CoVaR -> 1/(1 - gamma1) = 3/2 as tau -> 1
    taus = (0.99, 0.995, 0.999, 0.9999)
    for family in FAMILIES:
        spec = make_spec(family)
        gaps = []
        for tau in taus:
            result = oracle_result(spec, tau)
            gaps.append(abs(result.coes / result.covar - 1.5))
        assert all(later <= earlier + 1e-12 for earlier, later in zip(gaps, gaps[1:]))
        assert gaps[-1] <= 1e-2


def test_eta_true_approaches_eta_star():
    for family in FAMILIES:
        spec = make_spec(family)
        gaps = []
        for tau, tol in [(0.99, 1e-2), (0.999, 1e-3)]:
            finite, limit = eta_true(spec, tau), eta_star(spec, tau)
            assert 0.0 < finite < 1.0
            assert 0.0 < limit < 1.0
            gaps.append(abs(finite / limit - 1.0))
            assert gaps[-1] <= tol
        assert gaps[1] <= gaps[0] + 1e-12


def test_eta_star_solves_tail_copula_level():
    for family in FAMILIES:
        spec = make_spec(family)
        root = eta_star(spec, 0.99)
        assert true_tail_copula(spec, root, 1.0) == pytest.approx(0.01, rel=1e-9)


# gamma1 = 1/(6 theta) in (2/3, 1) on the heavy Pareto2 cells: the tail
# integral converges slowly, and the exact incomplete-beta reference bounds
# its error
AUDIT_SPECS = [(family, make_spec(family)) for family in FAMILIES] + [
    (f"Pareto2-theta{theta}", make_spec("Pareto2", theta=theta)) for theta in (0.17, 0.2, 0.25)
]
AUDIT_CELLS = [
    pytest.param(spec, tau, id=f"{tau}-{name}")
    for tau in (0.95, 0.99, 0.999, 0.9999)
    for name, spec in AUDIT_SPECS
] + [
    # gamma1 within 2% of 1: the StudentT tail decays like z^(1/2 - nu) far
    # beyond double range, and the Pareto2 closed form divides by
    # theta - 1/6 = 3.3e-5
    pytest.param(make_spec("StudentT", nu=nu, rho=0.3), tau, id=f"{tau}-StudentT-nu{nu}")
    for nu, tau in ((0.51, 0.99), (0.51, 0.999), (0.55, 0.9999), (0.5001, 0.99))
] + [
    pytest.param(make_spec("Pareto2", theta=0.1667), tau, id=f"{tau}-Pareto2-theta0.1667")
    for tau in (0.99, 0.9999)
]


@pytest.mark.parametrize("spec, tau", AUDIT_CELLS)
def test_oracle_matches_mpmath_audit(spec, tau):
    """CoVaR solves the defining equation and CoES matches an mpmath tail integral."""
    result = oracle_result(spec, tau)
    level_ratio, coes = covar_coes_mp(spec, tau, result.covar)
    assert abs(level_ratio - 1.0) <= 1e-8
    assert abs(result.coes / coes - 1.0) <= 1e-8
    assert abs(result.coes - coes) <= result.abs_tol


@pytest.mark.parametrize("nu", [0.8, 0.7])
@pytest.mark.parametrize("tau", [0.99, 0.999, 0.9999])
def test_student_coes_below_unit_nu_matches_mpmath_audit(nu, tau):
    # gamma1 = 1/(2 nu) lies in (1/2, 1): CoES is finite, and the weighted
    # conditional quadrature meets an integrable u^(2 nu - 2) endpoint
    spec = make_spec("StudentT", nu=nu, rho=0.1)
    result = oracle_result(spec, tau)
    level_ratio, coes = covar_coes_mp(spec, tau, result.covar)
    assert abs(level_ratio - 1.0) <= 1e-8
    assert abs(result.coes / coes - 1.0) <= 1e-8


def test_pareto2_quad_route_matches_closed_form():
    spec = make_spec("Pareto2")
    grid = np.linspace(0.3, 4.0, 8)
    worst = max(
        abs(joint_survival(spec, s, t) - joint_survival_quad(spec, s, t))
        for s in grid
        for t in grid
    )
    assert worst <= 1e-7


def test_cauchy_quad_route_matches_closed_form():
    spec = make_spec("Cauchy")
    for s, t in [(0.5, 0.5), (1.0, 1.0), (2.0, 1.0), (1.5, 3.0)]:
        assert joint_survival_quad(spec, s, t) == pytest.approx(
            joint_survival(spec, s, t), abs=1e-9
        )


def test_student_quad_route_matches_conditional_quadrature():
    """Planar density integration agrees with the 1-D conditional reduction."""
    spec = make_spec("StudentT")
    for s, t in [(0.5, 0.5), (1.0, 1.0), (1.5, 2.0), (2.0, 1.0)]:
        assert joint_survival_quad(spec, s, t) == pytest.approx(
            joint_survival(spec, s, t), abs=1e-6
        )


# (var_y, covar, coes, abs_tol), compared with ==: any change to the StudentT
# quadrature that moves a single float shows here
_STUDENT_TRUTH = {
    (1.5, 0.3): {
        0.95: (6.016663104427929, 6.506754500781375, 9.914710706116068, 6.506754500781375e-10),
        0.99: (17.820310514462804, 19.420293424176215, 29.274519882033225, 1.9420293424176216e-09),
        0.999: (82.84744670366369, 90.83787511809204, 136.39678532866682, 9.083787511809205e-09),
        0.9999: (384.5724025215815, 422.3111913399944, 633.6058747449338, 4.2231119133999445e-08),
    },
    (3.0, 0.8): {
        0.95: (3.1824463052837078, 3.0421921694822633, 3.6763199062590894, 3.0421921694822637e-10),
        0.99: (5.840909309733355, 5.261401795472469, 6.327152142436823, 5.261401795472469e-10),
        0.999: (12.923978636687961, 11.38014691321562, 13.666356797793476, 1.1380146913215622e-09),
        0.9999: (28.000130010950002, 24.551826006893013, 29.47185594452004, 2.4551826006893014e-09),
    },
    # nu < 1: gamma1 = 1/(2 nu) in (1/2, 1), the heavy-tail branch of the
    # weighted tail quadrature
    (0.7, 0.1): {
        0.95: (36.611415031588656, 51.233062644237535, 179.86792545430592, 5.123306264423753e-09),
        0.99: (364.9352029815851, 512.2953909293286, 1793.5818028609197, 5.1229539092932866e-08),
        0.999: (9790.117523122977, 13748.178639162776, 48119.1727088491, 1.3748178639162775e-06),
        0.9999: (262639.07174878556, 368826.65811391344, 1290893.8508454207, 3.688266581139134e-05),
    },
}


@pytest.mark.parametrize("nu, rho", sorted(_STUDENT_TRUTH))
def test_student_truth_is_pinned_bit_for_bit(nu, rho):
    spec = make_spec("StudentT", nu=nu, rho=rho)
    for tau, pinned in _STUDENT_TRUTH[(nu, rho)].items():
        result = oracle_result(spec, tau)
        assert (result.var_y, result.covar, result.coes, result.abs_tol) == pinned


@pytest.mark.parametrize("df", [1.45, 1.7, 2.5, 4.0, 11.0])
def test_scalar_t_cdf_is_the_ufunc_kernel(df):
    # the StudentT integrand evaluates the stdtr ufunc on arrays of nodes;
    # the survival pin of test_joint_survival_known_values was made with
    # the scalar cython_special.stdtr, one node at a time, so a scipy
    # release that parts the two entry points is named here first
    powers = [10.0**e for e in range(-8, 13)]
    rng = np.random.default_rng(2024)
    xs = [0.0, 1e-300, -1e-300] + powers + [-p for p in powers]
    xs += rng.standard_normal(500).tolist() + (3.0 * rng.standard_cauchy(500)).tolist()
    ufunc = special.stdtr(df, np.array(xs)).tolist()
    scalar = [cython_special.stdtr(df, x) for x in xs]
    assert [v.hex() for v in scalar] == [v.hex() for v in ufunc]


def test_infinite_coes_is_raised_before_any_quantile(monkeypatch):
    """At theta = 1e-300, (1 - tau)^(-1/theta) would overflow: the coded
    divergence is raised first, and a bad level still before it."""
    monkeypatch.setattr(cotail.oracle, "marginal_quantiles", None)
    spec = make_spec("Pareto2", theta=1e-300)
    assert _oracle_error(spec, 0.99) == (
        "CoES tail quadrature did not converge: The integral is divergent "
        "(Pareto2 gamma_1 = 1.66667e+299 >= 1, CoES is infinite)"
    )
    assert _oracle_error(spec, 1.5) == "tau must lie in (0, 1), got 1.5"


@pytest.mark.parametrize("nu", [300.0, 1e10])
def test_student_far_tail_at_a_large_nu_is_zero(nu):
    """From nu ~ 250 the far-tail constant K overflows while the power terms
    it multiplies have underflowed to 0: the far tail is 0, and CoES is
    finite, between the Gaussian limit and the value at nu = 200."""
    result, at_200 = oracle_result(make_spec("StudentT", nu=nu), 0.99), oracle_result(make_spec("StudentT", nu=200.0), 0.99)
    assert math.isfinite(result.coes) and result.abs_tol < 1e-6 * result.coes
    assert result.covar < at_200.covar and result.coes < at_200.coes


@pytest.mark.parametrize("nu", [0.05, 0.7, 1.5, 10.0, 15.999, 16.0, 20.0, 32.0] + [10.0**e for e in range(2, 15)])
def test_t_log_norm_is_exact(nu):
    """The t density's log constant is as close to mpmath's as its docstring
    says: 5e-15 by gammaln below nu = 16 (1.7e-15 off at 15.999), 3e-16 by
    the series from 16 on, where the difference of two gammaln values is
    1.2e-15 off at 16 and 5.6e-7 at 1e10."""
    with mpmath.workdps(40):
        half = mpmath.mpf(nu) / 2
        exact = mpmath.loggamma(half + 0.5) - mpmath.loggamma(half) - mpmath.log(2 * half * mpmath.pi) / 2
        assert abs(_t_log_norm(nu) - exact) <= (5e-15 if nu < 16.0 else 3e-16)


def test_student_covar_nears_its_gaussian_limit():
    """As nu grows the t pair nears the normal pair of the same rho: at rho
    0.3 and tau 0.99, CoVaR of X = |Z1|^(1/2) given |Z2| >= VaR_Y by mpmath
    (1.76003774692811), which the oracle meets within 1e-9 at nu = 1e10
    and 1e14, O(1/nu) from it."""
    with mpmath.workdps(30):
        rho, level = mpmath.mpf("0.3"), mpmath.mpf("0.01")
        var_y = mpmath.findroot(lambda v: 2 * mpmath.ncdf(-v) - level, 2.5)
        spread = mpmath.sqrt(1 - rho**2)
        # P(|Z1| >= a, |Z2| >= var_y), by central symmetry
        tails = lambda z: mpmath.npdf(z) * (mpmath.ncdf((rho * z - var_y) / spread) + mpmath.ncdf((-var_y - rho * z) / spread))
        survival = lambda a: 2 * mpmath.quad(tails, [a, a + 5, mpmath.inf])
        limit = float(mpmath.sqrt(mpmath.findroot(lambda a: survival(a) - level**2, 3.0)))
    for nu in (1e10, 1e14):
        assert oracle_result(make_spec("StudentT", nu=nu), 0.99).covar == pytest.approx(limit, rel=1e-9)


@pytest.mark.parametrize("nu", [1e9, 1e10, 3.2e12, 1e14])
@pytest.mark.parametrize("rho", [1e-4, 0.01])
def test_student_covar_near_independence_is_a_root(nu, rho):
    """Where the t pair nears independence, CoVaR is still a root at or above
    VaR_X at every level: the cancelling density constant once put the
    survival at VaR_X below (1 - tau)^2."""
    spec = make_spec("StudentT", nu=nu, rho=rho)
    for tau in (0.95, 0.99, 0.999, 0.9999):
        assert oracle_result(spec, tau).covar >= marginal_quantiles(spec, tau)[0]


def test_infinite_coes_is_raised_before_any_survival(monkeypatch):
    # gamma1 = 10: no CoVaR root is solved (whose survival quadrature would
    # warn at this nu) for a CoES that is infinite
    calls = []
    survival = cotail.oracle.joint_survival

    def traced(*args):
        calls.append(args)
        return survival(*args)

    monkeypatch.setattr(cotail.oracle, "joint_survival", traced)
    spec = make_spec("StudentT", nu=0.05, rho=0.5)
    assert _oracle_error(spec, 0.9999) == (
        "CoES tail quadrature did not converge: The integral is divergent "
        "(StudentT gamma_1 = 10 >= 1, CoES is infinite)"
    )
    # a bad level is still reported first
    assert _oracle_error(spec, 1.5) == "tau must lie in (0, 1), got 1.5"
    assert calls == []


@pytest.mark.parametrize("tau", [0.99, 0.999])
def test_coes_tail_quadrature_failure_is_an_error(tau):
    # gamma1 >= 1, so CoES is infinite: gamma1 = 1/(2 nu) for StudentT and
    # 1/(6 theta) for Pareto2; nu = 1/2 and theta = 1/6 are the boundaries,
    # where the divergence is only logarithmic
    specs = [make_spec("StudentT", nu=nu, rho=0.3) for nu in (0.45, 0.5)]
    specs += [make_spec("Pareto2", theta=theta) for theta in (0.1, 1.0 / 6.0)]
    for spec in specs:
        with pytest.raises(
            ValueError,
            match="CoES tail quadrature did not converge: The integral is divergent",
        ):
            oracle_result(spec, tau)


def test_no_survival_is_evaluated_twice_in_a_cell(monkeypatch):
    # brentq re-evaluates both bracket ends, and at StudentT (3, 0.8),
    # tau = 0.95 and Pareto2 theta = 2 the root's lower end is VaR_X itself
    calls = []
    survival = cotail.oracle.joint_survival

    def traced(spec, s, t):
        calls.append((s, t))
        return survival(spec, s, t)

    monkeypatch.setattr(cotail.oracle, "joint_survival", traced)
    monkeypatch.setattr(cotail.oracle, "_CACHE", {})
    taus = (0.95, 0.99, 0.999, 0.9999)
    cells = [(make_spec(family), tau) for family in FAMILIES for tau in taus]
    cells += [(make_spec("StudentT", nu=3.0, rho=0.8), 0.95)]
    cells += [(make_spec("Pareto2", theta=2.0), tau) for tau in taus]
    for spec, tau in cells:
        calls.clear()
        oracle_result(spec, tau)
        assert calls, (spec, tau)
        assert len(set(calls)) == len(calls), (spec, tau)


def test_racing_callers_share_the_first_stored_result(monkeypatch):
    # the memo has no lock: callers that race on one cold cell may each
    # compute it, and all of them get the result stored first
    monkeypatch.setattr(cotail.oracle, "_CACHE", {})
    spec = make_spec("StudentT")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            futures = [pool.submit(oracle_result, spec, 0.99) for _ in range(8)]
            results = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert all(result is cotail.oracle._CACHE[(spec, 0.99)] for result in results)


def test_logistic_has_no_quad_route():
    with pytest.raises(ValueError, match="density"):
        joint_survival_quad(make_spec("Logistic"), 1.0, 1.0)


def test_independence_boundary_covar_equals_var():
    # theta = 1 factorizes the joint law, so conditioning has no effect
    spec = make_spec("Logistic", theta=1.0)
    for tau in (0.95, 0.99):
        var_x, _ = marginal_quantiles(spec, tau)
        truth = oracle_result(spec, tau)
        assert abs(truth.covar / var_x - 1.0) <= 1e-8
        assert truth.coes > truth.covar


def test_oracle_result_memoized_and_tight():
    first = oracle_result(make_spec("Cauchy"), 0.97)
    second = oracle_result(make_spec("Cauchy"), 0.97)
    assert first is second
    assert first.abs_tol < 1e-6 * first.covar


def test_invalid_tau_rejected():
    for tau in (0.0, 1.0, -0.5):
        with pytest.raises(ValueError, match=rf"^tau must lie in \(0, 1\), got {tau}$"):
            oracle_result(make_spec("Cauchy"), tau)
        with pytest.raises(ValueError):
            eta_star(make_spec("Cauchy"), tau)


@pytest.mark.parametrize("tau", ["0.99", [0.99], True, math.nan])
def test_non_number_tau_is_a_worded_error(tau):
    """A level that is not a real number in (0, 1) meets the one level
    rule, not a TypeError from a comparison or the memo's hash."""
    for check in (oracle_result, marginal_quantiles):
        with pytest.raises(ValueError) as caught:
            check(make_spec("Cauchy"), tau)
        assert str(caught.value) == f"tau must lie in (0, 1), got {tau}"


def test_oracle_matches_monte_carlo_cauchy():
    """1e8-draw check: empirical conditional quantile and mean hit the truth.

    CoVaR(0.95) is matched by the 0.95-quantile of X given Y >= VaR_Y(0.95),
    CoES(0.90) by the mean of X over the joint exceedance region.
    """
    spec = make_spec("Cauchy")
    rng = np.random.default_rng(np.random.SeedSequence(2718))
    _, v95 = marginal_quantiles(spec, 0.95)
    _, v90 = marginal_quantiles(spec, 0.90)
    truth90 = oracle_result(spec, 0.90)
    c90 = truth90.covar
    kept = []
    coes_sum = 0.0
    coes_n = 0
    for _ in range(25):
        sample = sample_model(spec, 4_000_000, rng)
        kept.append(sample.xs[sample.ys >= v95])
        joint = (sample.ys >= v90) & (sample.xs >= c90)
        coes_sum += float(sample.xs[joint].sum())
        coes_n += int(joint.sum())
    mc_covar = float(np.quantile(np.concatenate(kept), 0.95))
    assert abs(mc_covar / oracle_result(spec, 0.95).covar - 1.0) <= 1e-3
    assert abs(coes_sum / coes_n / truth90.coes - 1.0) <= 1e-2


def test_oracle_result_reads_the_memo(monkeypatch):
    spec = make_spec("Pareto2", theta=1.5)
    result = oracle_result(spec, 0.985)
    calls = []

    def counting(*args):
        calls.append(args)
        return joint_survival(*args)

    monkeypatch.setattr(cotail.oracle, "joint_survival", counting)
    assert oracle_result(spec, 0.985) is result
    assert calls == []


def _oracle_error(spec, tau) -> str:
    with pytest.raises(ValueError) as excinfo:
        oracle_result(spec, tau)
    return str(excinfo.value)


@pytest.fixture
def tail_quad(monkeypatch):
    """Make the quadrature return a given (value, error, message); in a
    Cauchy cell it integrates only the CoES tail.  The memo starts empty."""
    monkeypatch.setattr(cotail.oracle, "_CACHE", {})

    def patch(*result):
        monkeypatch.setattr(cotail.oracle, "_quad", lambda *args, **kwargs: result)

    return patch


def test_student_survival_nonconvergence_is_an_error(monkeypatch):
    monkeypatch.setattr(cotail.oracle, "_quad", lambda *args, **kwargs: (0.25, 1.0, ""))
    with pytest.raises(ValueError) as excinfo:
        joint_survival(make_spec("StudentT"), 2.0, 1.0)
    assert str(excinfo.value) == "StudentT survival quadrature did not converge (err=1)"


# the closed-form CoVaR roots as scipy.optimize.brentq gave them, before
# the root was written out in the package
_CLOSED_FORM_COVAR = {
    ("Logistic", 0.95): "0x1.ca577f3e6ec25p+2",
    ("Logistic", 0.99): "0x1.5574987637153p+4",
    ("Logistic", 0.999): "0x1.8f3237eecb18dp+6",
    ("Logistic", 0.9999): "0x1.cff56a1a561a3p+8",
    ("Cauchy", 0.95): "0x1.922adefa506c8p+2",
    ("Cauchy", 0.99): "0x1.280a4ef33ba00p+4",
    ("Cauchy", 0.999): "0x1.580b51ceec4a8p+6",
    ("Cauchy", 0.9999): "0x1.8f49b2f8478fap+8",
    ("Pareto2", 0.95): "0x1.d75bfe0b865e4p+2",
    ("Pareto2", 0.99): "0x1.58b42c909ddb7p+4",
    ("Pareto2", 0.999): "0x1.8ffffba16a128p+6",
    ("Pareto2", 0.9999): "0x1.d028ac877f2b1p+8",
}


def test_closed_form_covar_is_pinned_bit_for_bit():
    for (family, tau), pinned in _CLOSED_FORM_COVAR.items():
        assert oracle_result(make_spec(family), tau).covar.hex() == pinned, (family, tau)


@pytest.mark.parametrize("family", ["Logistic", "Cauchy", "Pareto2"])
def test_brent_root_is_scipys_on_the_covar_roots(family):
    spec = make_spec(family)
    for tau in (0.9, 0.95, 0.99, 0.995, 0.999, 0.9999):
        var_x, var_y = marginal_quantiles(spec, tau)
        target = (1.0 - tau) ** 2

        def g(c):
            return joint_survival(spec, c, var_y) - target

        lo, hi = var_x, 2.0 * var_x
        while g(hi) >= 0.0:
            lo, hi = hi, 2.0 * hi
        ours = _brentq(g, lo, hi, xtol=1e-300, rtol=_RTOL)
        assert ours.hex() == optimize.brentq(g, lo, hi, xtol=1e-300, rtol=_RTOL).hex(), tau


def _seeded_function(rng):
    """A smooth function of one of four shapes, with random coefficients."""
    c = rng.normal(size=4).tolist()
    kind = rng.integers(4)
    if kind == 0:
        return lambda x: c[0] + x * (c[1] + x * (c[2] + x * c[3]))
    if kind == 1:
        return lambda x: math.tanh(c[0] * (x - c[1])) + 0.5 * c[2]
    if kind == 2:
        return lambda x: math.exp(c[0] * x) - math.exp(c[1])
    return lambda x: c[0] + c[1] * x + math.sin(3.0 * c[2] * x + c[3])


def test_brent_root_is_scipys_on_seeded_functions():
    rng = np.random.default_rng(1973)
    compared = 0
    while compared < 3000:
        f = _seeded_function(rng)
        lo, hi = sorted((rng.uniform(-4.0, 4.0, size=2) * 10.0 ** rng.uniform(-2.0, 1.0)).tolist())
        if math.copysign(1.0, f(lo)) == math.copysign(1.0, f(hi)):
            continue
        for xtol, rtol in ((1e-300, _RTOL), (2e-12, 4.0 * np.finfo(float).eps)):
            ours = _brentq(f, lo, hi, xtol=xtol, rtol=rtol)
            assert ours.hex() == optimize.brentq(f, lo, hi, xtol=xtol, rtol=rtol).hex(), (lo, hi)
        compared += 1


def test_brent_root_at_a_bracket_end_and_its_errors():
    def f(x):
        return x - 1.0

    # a root exactly at the lower, then the upper bracket end is returned as is
    for lo, hi in ((1.0, 2.0), (0.0, 1.0)):
        ours = _brentq(f, lo, hi, xtol=1e-12, rtol=_RTOL)
        assert ours.hex() == optimize.brentq(f, lo, hi, xtol=1e-12, rtol=_RTOL).hex() == (1.0).hex()
    for root in (_brentq, optimize.brentq):
        with pytest.raises(ValueError, match=r"f\(a\) and f\(b\) must have different signs"):
            root(f, 2.0, 3.0, xtol=1e-12, rtol=_RTOL)
    # with no tolerance a step at pi is never bracketed closely enough;
    # SciPy refuses xtol = rtol = 0, so only the message is checked
    with pytest.raises(ValueError, match="Brent's method did not converge in 100 iterations, value is "):
        _brentq(lambda x: -1.0 if x < math.pi else 1.0, 3.0, 4.0, xtol=0.0, rtol=0.0)


@pytest.mark.parametrize(
    "f, a, b",
    [
        (lambda x: x**5 - 3.0 * x * x + 1.0, -1.0, 2.0),
        (lambda x: 1.0 / (1.0 + x * x), 0.0, 5.0),
        (lambda x: x / (1.0 + x) ** 3, 0.0, 40.0),
        (np.sqrt, 0.0, 2.0),
    ],
)
def test_kronrod21_is_quadpacks_rule(f, a, b):
    # QUADPACK stops after its first 21-point rule at limit = 1, and
    # full_output returns its message instead of warning
    ref, ref_err, _, _ = integrate.quad(lambda x: float(f(np.array([x]))[0]), a, b, limit=1, full_output=1)
    value, err = _kronrod21(f, np.array([a]), np.array([b]))
    assert value[0].hex() == ref.hex()
    assert err[0] == pytest.approx(ref_err, rel=1e-12)


def test_quadrature_error_estimate_bounds_the_error():
    value, err, message = _quad(np.sqrt, (0.0, 1.0), epsabs=0.0, epsrel=1e-10)
    assert message == ""
    assert abs(value - 2.0 / 3.0) <= err <= 1e-10 * value


def test_quadrature_reports_its_panel_limit():
    # no panel meets a zero bound: every round bisects all, 1 -> 2 -> 4 -> 8
    value, err, message = _quad(np.sqrt, (0.0, 1.0), epsabs=0.0, epsrel=0.0, limit=8)
    assert message == "The maximum number of subdivisions (8) has been achieved."
    assert abs(value - 2.0 / 3.0) <= err


def test_unbracketed_covar_root_is_an_error(monkeypatch):
    # a survival that never falls below (1 - tau)^2 leaves no sign change
    monkeypatch.setattr(cotail.oracle, "_CACHE", {})
    monkeypatch.setattr(cotail.oracle, "joint_survival", lambda spec, s, t: 1.0)
    assert _oracle_error(make_spec("Pareto2"), 0.99) == "failed to bracket the CoVaR root"


def test_tail_quadrature_message_is_an_error(tail_quad):
    tail_quad(1.0, 0.5, "The maximum number of subdivisions (200) has been achieved.")
    assert _oracle_error(make_spec("Cauchy"), 0.99) == (
        "CoES tail quadrature did not converge: "
        "The maximum number of subdivisions (200) has been achieved."
    )


def test_non_finite_tail_quadrature_is_an_error(tail_quad):
    tail_quad(math.inf, 0.0, "")
    assert _oracle_error(make_spec("Cauchy"), 0.99) == (
        "CoES tail quadrature did not converge: non-finite value"
    )


def test_survival_below_target_at_var_x_is_an_error(monkeypatch, capsys):
    monkeypatch.setattr(cotail.oracle, "_CACHE", {})
    monkeypatch.setattr(cotail.oracle, "joint_survival", lambda spec, s, t: 0.0)
    var_x, _ = marginal_quantiles(make_spec("Cauchy"), 0.99)
    expected = f"no root at or above VaR_X: survival at {var_x:g} already below (1-tau)^2"
    assert _oracle_error(make_spec("Cauchy"), 0.99) == expected
    assert main(["oracle", "--model", "Cauchy", "--tau", "0.99"]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {expected}\n")
