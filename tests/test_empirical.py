import math

import numpy as np
import pytest

from cotail.core import LossPairSample, build_margin_index
from cotail.empirical import empirical_var, hill_curve, hill_estimate, tail_prob_curve
from cotail.models import make_spec, sample_model


def test_hill_constant_top_is_zero():
    margin = build_margin_index([5.0, 5.0, 5.0])
    assert hill_estimate(margin, 2) == 0.0


@pytest.mark.parametrize("value,k", [(0.1, 35), (3.3, 20)])
def test_hill_tied_top_is_not_negative(value, k):
    # the mean of k equal logs can round to just below the log itself
    assert hill_estimate(build_margin_index(np.full(60, value)), k) == 0.0


def test_order_statistics_below_a_tail_index_raise():
    margin = build_margin_index(np.arange(1.0, 11.0), depth=3)
    assert empirical_var(margin, 2) == 8.0
    assert hill_estimate(margin, 2) == hill_estimate(build_margin_index(np.arange(1.0, 11.0)), 2)
    for call in (empirical_var, hill_estimate):
        with pytest.raises(ValueError, match="below the top 3"):
            call(margin, 3)
    with pytest.raises(ValueError, match="below the top 3"):
        hill_curve(margin, 2, 3)


def test_hill_geometric_sample():
    margin = build_margin_index([1.0, 2.0, 4.0, 8.0])
    assert hill_estimate(margin, 2) == pytest.approx(1.5 * math.log(2.0), rel=1e-14)


def test_hill_rejects_bad_k_and_threshold():
    margin = build_margin_index([1.0, 2.0, 4.0, 8.0])
    with pytest.raises(ValueError):
        hill_estimate(margin, 0)
    with pytest.raises(ValueError):
        hill_estimate(margin, 4)
    with pytest.raises(ValueError):
        hill_estimate(build_margin_index([-1.0, 0.0, 1.0, 2.0]), 2)


def test_hill_scale_invariance():
    rng = np.random.default_rng(11)
    values = rng.pareto(3.0, size=400) + 1.0
    margin = build_margin_index(values)
    for c in (0.01, 2.0**10, 7.3):
        scaled = build_margin_index(c * values)
        assert hill_estimate(scaled, 50) == pytest.approx(
            hill_estimate(margin, 50), abs=1e-12
        )


def test_hill_statistical_pareto_margin():
    """Hill on 1e5 draws of the heavy-tailed X margin recovers gamma = 1/3."""
    rng = np.random.default_rng(314)
    sample = sample_model(make_spec("Pareto2"), 100_000, rng)
    gamma = hill_estimate(build_margin_index(sample.xs), 1000)
    assert abs(gamma - 1.0 / 3.0) <= 0.05


def test_empirical_var_order_statistic():
    margin = build_margin_index(np.arange(1.0, 9.0))
    assert empirical_var(margin, 4) == 4.0
    assert empirical_var(margin, 1) == 7.0
    constant = build_margin_index(np.full(6, 3.25))
    assert empirical_var(constant, 2) == 3.25
    with pytest.raises(ValueError):
        empirical_var(margin, 8)


def test_empirical_var_scale_equivariance():
    rng = np.random.default_rng(5)
    values = rng.exponential(size=100)
    c = 2.0**9  # power of two keeps the product exact
    assert empirical_var(build_margin_index(c * values), 10) == c * empirical_var(
        build_margin_index(values), 10
    )


def test_tail_prob_comonotone():
    grid = np.arange(1.0, 101.0)
    sample = LossPairSample(xs=grid, ys=grid)
    curve = tail_prob_curve(sample, [0.9])
    assert curve.p_hat[0] == pytest.approx(0.11)
    assert curve.square[0] == pytest.approx(0.01)


def test_tail_prob_top_only():
    # ceil(n*tau) = n leaves only the maximum in both tails
    grid = np.arange(1.0, 101.0)
    sample = LossPairSample(xs=grid, ys=grid)
    curve = tail_prob_curve(sample, [0.995])
    assert curve.p_hat[0] == pytest.approx(1.0 / 100.0)


def test_tail_prob_anti_comonotone_is_zero():
    sample = LossPairSample(xs=np.arange(1.0, 101.0), ys=np.arange(100.0, 0.0, -1.0))
    curve = tail_prob_curve(sample, [0.9])
    assert curve.p_hat[0] == 0.0


def test_tail_prob_rejects_bad_tau():
    sample = LossPairSample(xs=np.arange(1.0, 11.0), ys=np.arange(1.0, 11.0))
    for tau in (0.0, 1.0, -0.1):
        with pytest.raises(ValueError):
            tail_prob_curve(sample, [tau])


def test_tail_prob_nonincreasing_in_tau():
    rng = np.random.default_rng(23)
    sample = LossPairSample(xs=rng.normal(size=500), ys=rng.normal(size=500))
    taus = np.linspace(0.5, 0.995, 40)
    curve = tail_prob_curve(sample, taus)
    assert np.all(np.diff(curve.p_hat) <= 1e-15)
    assert np.all((curve.p_hat >= 0.0) & (curve.p_hat <= 1.0))


def test_hill_curve_small_sample_values():
    margin = build_margin_index(np.arange(1.0, 9.0))
    curve = hill_curve(margin, 2, 3)
    assert curve.ks.tolist() == [2, 3]
    assert curve.gammas[0] == hill_estimate(margin, 2)
    expected_k3 = (math.log(8.0 / 5.0) + math.log(7.0 / 5.0) + math.log(6.0 / 5.0)) / 3.0
    assert curve.gammas[1] == pytest.approx(expected_k3, rel=1e-14)


def test_hill_curve_single_k():
    margin = build_margin_index(np.geomspace(1.0, 128.0, 8))
    curve = hill_curve(margin, 2, 2)
    assert curve.ks.tolist() == [2]
    assert curve.gammas[0] == pytest.approx(1.5 * math.log(2.0), rel=1e-12)


def test_hill_curve_matches_pointwise_estimates():
    rng = np.random.default_rng(97)
    margin = build_margin_index(rng.pareto(2.0, size=300) + 1.0)
    curve = hill_curve(margin, 2, 60)
    for i, k in enumerate(curve.ks):
        assert curve.gammas[i] == hill_estimate(margin, int(k))


def test_hill_curve_bands():
    rng = np.random.default_rng(13)
    margin = build_margin_index(rng.pareto(2.0, size=200) + 1.0)
    curve = hill_curve(margin, 5, 50)
    half = 1.645 / np.sqrt(curve.ks)
    assert np.allclose(curve.lo, curve.gammas * (1.0 - half))
    assert np.allclose(curve.hi, curve.gammas * (1.0 + half))
    assert np.all(curve.lo < curve.gammas)
    assert np.all(curve.gammas < curve.hi)


def test_hill_curve_pareto_quantile_grid_is_flat():
    """On exact Pareto(alpha=3) quantiles the Hill plot sits at 1/3."""
    n = 2000
    u = np.arange(1, n + 1) / (n + 1.0)
    values = (1.0 - u) ** (-1.0 / 3.0)
    curve = hill_curve(build_margin_index(values), 50, 400)
    assert np.all(np.abs(curve.gammas - 1.0 / 3.0) < 0.02)


def test_hill_curve_rejects_bad_range():
    margin = build_margin_index(np.arange(1.0, 9.0))
    with pytest.raises(ValueError):
        hill_curve(margin, 1, 3)
    with pytest.raises(ValueError):
        hill_curve(margin, 4, 3)
    with pytest.raises(ValueError):
        hill_curve(margin, 2, 8)
