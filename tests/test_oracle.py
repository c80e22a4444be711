import math

import numpy as np
import pytest

import cotail.oracle
from cotail.models import FAMILIES, make_spec, marginal_quantiles, sample_model, true_tail_copula
from cotail.oracle import (
    eta_star,
    eta_true,
    joint_survival,
    oracle_result,
    true_coes,
    true_covar,
)
from oracles import covar_coes_mp, joint_survival_quad


def test_joint_survival_known_values():
    assert joint_survival(make_spec("Logistic"), 0.0, 0.0) == pytest.approx(1.0)
    assert joint_survival(make_spec("Logistic"), 0.0, 1.0) == pytest.approx(1.0 - math.exp(-1.0))
    assert joint_survival(make_spec("Pareto2"), 1.0, 0.0) == pytest.approx(2.0**-0.5, rel=1e-14)
    assert joint_survival(make_spec("Pareto2"), 1.0, 1.0) == pytest.approx(3.0**-0.5, rel=1e-14)
    # the symmetric spherical-Cauchy quadrant puts exactly one third of the
    # positive-orthant mass past (1, 1)
    assert joint_survival(make_spec("Cauchy"), 1.0, 1.0) == pytest.approx(1.0 / 3.0, rel=1e-14)


def test_joint_survival_rejects_negative_arguments():
    for s, t in [(-0.5, 1.0), (1.0, -2.0)]:
        with pytest.raises(ValueError):
            joint_survival(make_spec("Cauchy"), s, t)
        with pytest.raises(ValueError):
            joint_survival_quad(make_spec("Cauchy"), s, t)


def test_pareto2_covar_closed_form():
    # survival (1 + x^6 + y)^(-1/2) lets the defining equation be solved by
    # hand: CoVaR(0.99)^6 = 1e8 - 1e4
    c = true_covar(make_spec("Pareto2"), 0.99)
    assert abs(c / (1e8 - 1e4) ** (1.0 / 6.0) - 1.0) <= 1e-6


def test_pareto2_coes_near_closed_expansion():
    """Leading term of the tail integral: CoES ~ c + 1e4 / (2 c^2) at tau=0.99."""
    spec = make_spec("Pareto2")
    c = true_covar(spec, 0.99)
    assert abs(true_coes(spec, 0.99) / (c + 1e4 / (2.0 * c * c)) - 1.0) <= 1e-4


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


@pytest.mark.parametrize("family", ["Logistic", "Cauchy", "Pareto2"])
@pytest.mark.parametrize("tau", [0.99, 0.999, 0.9999])
def test_oracle_matches_mpmath_audit(family, tau):
    """CoVaR solves the defining equation and CoES matches a 40-digit tail integral."""
    result = oracle_result(make_spec(family), tau)
    level_ratio, coes = covar_coes_mp(make_spec(family), tau, result.covar)
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


def test_logistic_has_no_quad_route():
    with pytest.raises(ValueError, match="density"):
        joint_survival_quad(make_spec("Logistic"), 1.0, 1.0)


def test_independence_boundary_covar_equals_var():
    # theta = 1 factorizes the joint law, so conditioning has no effect
    spec = make_spec("Logistic", theta=1.0)
    for tau in (0.95, 0.99):
        var_x, _ = marginal_quantiles(spec, tau)
        assert abs(true_covar(spec, tau) / var_x - 1.0) <= 1e-8
        assert true_coes(spec, tau) > true_covar(spec, tau)


def test_oracle_result_memoized_and_tight():
    first = oracle_result(make_spec("Cauchy"), 0.97)
    second = oracle_result(make_spec("Cauchy"), 0.97)
    assert first is second
    assert first.abs_tol < 1e-6 * first.covar


def test_invalid_tau_rejected():
    for tau in (0.0, 1.0, -0.5):
        with pytest.raises(ValueError):
            true_covar(make_spec("Cauchy"), tau)
        with pytest.raises(ValueError):
            eta_star(make_spec("Cauchy"), tau)


def test_oracle_matches_monte_carlo_cauchy():
    """1e8-draw check: empirical conditional quantile and mean hit the truth.

    CoVaR(0.95) is matched by the 0.95-quantile of X given Y >= VaR_Y(0.95),
    CoES(0.90) by the mean of X over the joint exceedance region.
    """
    spec = make_spec("Cauchy")
    rng = np.random.default_rng(np.random.SeedSequence(2718))
    _, v95 = marginal_quantiles(spec, 0.95)
    _, v90 = marginal_quantiles(spec, 0.90)
    c90 = true_covar(spec, 0.90)
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
    assert abs(mc_covar / true_covar(spec, 0.95) - 1.0) <= 1e-3
    assert abs(coes_sum / coes_n / true_coes(spec, 0.90) - 1.0) <= 1e-2


def test_true_covar_reads_the_memo(monkeypatch):
    spec = make_spec("Pareto2", theta=1.5)
    result = oracle_result(spec, 0.985)
    calls = []

    def counting(*args):
        calls.append(args)
        return joint_survival(*args)

    monkeypatch.setattr(cotail.oracle, "joint_survival", counting)
    assert true_covar(spec, 0.985) == result.covar
    assert eta_true(spec, 0.985) > 0.0
    assert calls == []
