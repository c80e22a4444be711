import math
import re

import numpy as np
import pytest

from cotail.core import EstimationError, LossPairSample, build_margin_index
from cotail.covar_coes import estimate_all
from cotail.data_io import diagnostics_export
from cotail.empirical import hill_curve, tail_prob_curve
from cotail.models import make_spec, sample_model


def test_hill_constant_top_is_zero():
    margin = build_margin_index([5.0, 5.0, 5.0])
    assert hill_curve(margin, range(2, 3))[0] == 0.0


@pytest.mark.parametrize("value,k", [(0.1, 35), (3.3, 20)])
def test_hill_tied_top_is_not_negative(value, k):
    # the mean of k equal logs can round to just below the log itself
    assert hill_curve(build_margin_index(np.full(60, value)), range(k, k + 1))[0] == 0.0


def test_order_statistics_below_a_tail_index_raise():
    margin = build_margin_index(np.arange(1.0, 11.0), depth=3)
    full = build_margin_index(np.arange(1.0, 11.0))
    assert hill_curve(margin, range(2, 3))[0] == hill_curve(full, range(2, 3))[0]
    for k_min in (2, 3):
        with pytest.raises(ValueError, match="k=3 reads the top 4, below the top 3"):
            hill_curve(margin, range(k_min, 4))


def test_hill_geometric_sample():
    margin = build_margin_index([1.0, 2.0, 4.0, 8.0])
    assert hill_curve(margin, range(2, 3))[0] == pytest.approx(1.5 * math.log(2.0), rel=1e-14)


def test_hill_rejects_bad_k_and_threshold():
    margin = build_margin_index([1.0, 2.0, 4.0, 8.0])
    with pytest.raises(ValueError):
        hill_curve(margin, range(0, 1))
    with pytest.raises(ValueError):
        hill_curve(margin, range(4, 5))
    # X_(2,4) = 0: the curve leaves a gap and the estimator raises
    values = np.array([-1.0, 0.0, 1.0, 2.0])
    assert np.isnan(hill_curve(build_margin_index(values), range(2, 3))[0])
    with pytest.raises(EstimationError) as caught:
        estimate_all(LossPairSample(xs=values, ys=values), 2, 0.99)
    assert caught.value.code == "threshold_not_positive"


def test_hill_scale_invariance():
    rng = np.random.default_rng(11)
    values = rng.pareto(3.0, size=400) + 1.0
    margin = build_margin_index(values)
    for c in (0.01, 2.0**10, 7.3):
        scaled = build_margin_index(c * values)
        assert hill_curve(scaled, range(50, 51))[0] == pytest.approx(
            hill_curve(margin, range(50, 51))[0], abs=1e-12
        )


def test_hill_statistical_pareto_margin():
    """Hill on 1e5 draws of the heavy-tailed X margin recovers gamma = 1/3."""
    rng = np.random.default_rng(314)
    sample = sample_model(make_spec("Pareto2"), 100_000, rng)
    gamma = hill_curve(build_margin_index(sample.xs), range(1000, 1001))[0]
    assert abs(gamma - 1.0 / 3.0) <= 0.05


def test_empirical_var_order_statistic():
    grid = np.arange(1.0, 9.0)
    sample = LossPairSample(xs=grid, ys=grid)
    assert estimate_all(sample, 4, 0.99).var_x == 4.0
    assert estimate_all(sample, 1, 0.99).var_x == 7.0
    # X_(4,6) is one of five tied values
    tied = LossPairSample(xs=[3.25] * 5 + [4.0], ys=np.arange(1.0, 7.0))
    assert estimate_all(tied, 2, 0.99).var_x == 3.25
    with pytest.raises(ValueError):
        estimate_all(sample, 8, 0.99)


def test_empirical_var_scale_equivariance():
    rng = np.random.default_rng(5)
    values = rng.exponential(size=100)
    c = 2.0**9  # power of two keeps the product exact
    scaled = estimate_all(LossPairSample(xs=c * values, ys=values), 10, 0.99)
    assert scaled.var_x == c * estimate_all(LossPairSample(xs=values, ys=values), 10, 0.99).var_x


def _tail_prob(sample, taus):
    return tail_prob_curve(build_margin_index(sample.xs), build_margin_index(sample.ys), taus)


def test_tail_prob_comonotone():
    grid = np.arange(1.0, 101.0)
    sample = LossPairSample(xs=grid, ys=grid)
    p_hat = _tail_prob(sample, [0.9])
    assert p_hat[0] == pytest.approx(0.11)


def test_tail_prob_top_only():
    # ceil(n*tau) = n leaves only the maximum in both tails
    grid = np.arange(1.0, 101.0)
    sample = LossPairSample(xs=grid, ys=grid)
    p_hat = _tail_prob(sample, [0.995])
    assert p_hat[0] == pytest.approx(1.0 / 100.0)


def test_tail_prob_anti_comonotone_is_zero():
    sample = LossPairSample(xs=np.arange(1.0, 101.0), ys=np.arange(100.0, 0.0, -1.0))
    p_hat = _tail_prob(sample, [0.9])
    assert p_hat[0] == 0.0


def test_tail_prob_rejects_bad_tau():
    sample = LossPairSample(xs=np.arange(1.0, 11.0), ys=np.arange(1.0, 11.0))
    for tau in (0.0, 1.0, -0.1, math.nan):
        with pytest.raises(ValueError, match=re.escape(f"tau must lie in (0, 1), got {tau}")):
            _tail_prob(sample, [tau])
    # a grid is named by its first level outside (0, 1)
    with pytest.raises(ValueError, match=r"^tau must lie in \(0, 1\), got 1\.5$"):
        _tail_prob(sample, [0.9, 1.5, 2.0])


def test_tail_prob_nonincreasing_in_tau():
    rng = np.random.default_rng(23)
    sample = LossPairSample(xs=rng.normal(size=500), ys=rng.normal(size=500))
    taus = np.linspace(0.5, 0.995, 40)
    p_hat = _tail_prob(sample, taus)
    assert np.all(np.diff(p_hat) <= 1e-15)
    assert np.all((p_hat >= 0.0) & (p_hat <= 1.0))


def test_hill_curve_small_sample_values():
    margin = build_margin_index(np.arange(1.0, 9.0))
    gammas = hill_curve(margin, range(2, 4))
    assert gammas.shape == (2,)
    assert gammas[0] == hill_curve(margin, range(2, 3))[0]
    expected_k3 = (math.log(8.0 / 5.0) + math.log(7.0 / 5.0) + math.log(6.0 / 5.0)) / 3.0
    assert gammas[1] == pytest.approx(expected_k3, rel=1e-14)


def test_hill_curve_single_k():
    margin = build_margin_index(np.geomspace(1.0, 128.0, 8))
    gammas = hill_curve(margin, range(2, 3))
    assert gammas.shape == (1,)
    assert gammas[0] == pytest.approx(1.5 * math.log(2.0), rel=1e-12)


def test_hill_curve_matches_pointwise_estimates():
    rng = np.random.default_rng(97)
    margin = build_margin_index(rng.pareto(2.0, size=300) + 1.0)
    gammas = hill_curve(margin, range(2, 61))
    assert gammas.shape == (59,)
    for k, gamma in zip(range(2, 61), gammas):
        assert gamma == hill_curve(margin, range(k, k + 1))[0]


def test_hill_curve_bands(tmp_path):
    # the bands are written where the Hill plot is exported, to hill.tsv
    rng = np.random.default_rng(13)
    values = rng.pareto(2.0, size=200) + 1.0
    paths = diagnostics_export(LossPairSample(xs=values, ys=values), (5, 50), [0.9], tmp_path)
    rows = [line.split("\t") for line in paths["hill"].read_text(encoding="utf-8").splitlines()[1:]]
    ks = np.array([int(row[0]) for row in rows])
    gammas, lo, hi = (np.array([float(row[j]) for row in rows]) for j in (1, 2, 3))
    assert ks.tolist() == list(range(5, 51))
    assert np.allclose(gammas, hill_curve(build_margin_index(values), range(5, 51)))
    half = 1.645 / np.sqrt(ks)
    assert np.allclose(lo, gammas * (1.0 - half))
    assert np.allclose(hi, gammas * (1.0 + half))
    assert np.all(lo < gammas)
    assert np.all(gammas < hi)


def test_hill_curve_pareto_quantile_grid_is_flat():
    """On exact Pareto(alpha=3) quantiles the Hill plot sits at 1/3."""
    n = 2000
    u = np.arange(1, n + 1) / (n + 1.0)
    values = (1.0 - u) ** (-1.0 / 3.0)
    gammas = hill_curve(build_margin_index(values), range(50, 401))
    assert np.all(np.abs(gammas - 1.0 / 3.0) < 0.02)


def test_hill_curve_rejects_bad_range():
    margin = build_margin_index(np.arange(1.0, 9.0))
    with pytest.raises(ValueError, match=r"^k must satisfy 1 <= k < n, got k=0 with n=8$"):
        hill_curve(margin, range(0, 4))
    with pytest.raises(ValueError, match=r"^need at least one k value$"):
        hill_curve(margin, range(4, 4))
    with pytest.raises(ValueError, match=r"^k must satisfy 1 <= k < n, got k=8 with n=8$"):
        hill_curve(margin, range(2, 9))
    with pytest.raises(ValueError, match=r"^k must be an integer or a range of step 1, got tuple$"):
        hill_curve(margin, (2, 4))
