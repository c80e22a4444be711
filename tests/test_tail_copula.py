import numpy as np
import pytest

from cotail.core import LossPairSample
from cotail.models import make_spec, sample_model, true_tail_copula
from cotail.tail_copula import _eta, eta_hat, r_hat
from oracles import eta_hat_bruteforce

SMALL_XS = np.array([1.0, 2.0, 3.0, 4.0])
SMALL_YS = np.array([1.0, 3.0, 2.0, 4.0])


def small_sample():
    return LossPairSample(xs=SMALL_XS, ys=SMALL_YS)


def comonotone(n):
    grid = np.arange(1.0, n + 1.0)
    return LossPairSample(xs=grid, ys=grid)


def test_r_hat_variant1_small_sample():
    assert r_hat(small_sample(), 2, 1, 1.0, 1.0) == pytest.approx(1.5)


def test_r_hat_variant2_small_sample():
    assert r_hat(small_sample(), 2, 2, 1.0, 1.0) == pytest.approx(0.5)


def test_r_hat_zero_argument():
    assert r_hat(small_sample(), 2, 2, 1.0, 0.0) == 0.0


def test_r_hat_rejects_bad_arguments():
    with pytest.raises(ValueError):
        r_hat(small_sample(), 2, 3, 1.0, 1.0)
    with pytest.raises(ValueError):
        r_hat(small_sample(), 4, 1, 1.0, 1.0)
    with pytest.raises(ValueError):
        r_hat(small_sample(), 2, 1, -0.5, 1.0)


def test_eta_hat_comonotone():
    sample = comonotone(8)
    est1 = eta_hat(sample, 4, 1)
    assert est1.value == pytest.approx(0.25)
    assert not est1.clamped
    est2 = eta_hat(sample, 4, 2)
    assert est2.value == pytest.approx(0.375)
    assert not est2.clamped


def test_eta_hat_clamped_at_floor():
    """Variant 1 can hit exactly zero; the 1/(2k) floor then applies."""
    est = eta_hat(small_sample(), 2, 1)
    assert est.raw == 0.0
    assert est.value == 0.25
    assert est.clamped
    assert eta_hat_bruteforce(small_sample(), 2, 1) == 0.0


def test_eta_hat_unattainable_raises():
    sample = LossPairSample(xs=np.arange(1.0, 21.0), ys=np.arange(20.0, 0.0, -1.0))
    for variant in (1, 2):
        with pytest.raises(ValueError):
            eta_hat(sample, 4, variant)
        with pytest.raises(ValueError):
            eta_hat_bruteforce(sample, 4, variant)


def test_r_hat_monotone_in_each_argument():
    rng = np.random.default_rng(41)
    sample = LossPairSample(xs=rng.random(300), ys=rng.random(300))
    grid = np.linspace(0.0, 3.0, 100)
    for variant in (1, 2):
        along_x = [r_hat(sample, 40, variant, x, 1.0) for x in grid]
        along_y = [r_hat(sample, 40, variant, 1.0, y) for y in grid]
        assert all(a <= b for a, b in zip(along_x, along_x[1:]))
        assert all(a <= b for a, b in zip(along_y, along_y[1:]))


def test_rank_invariance_under_increasing_transforms():
    """R-hat and eta-hat see only ranks, so monotone transforms change nothing."""
    rng = np.random.default_rng(42)
    xs = rng.random(200)
    ys = 0.7 * xs + 0.3 * rng.random(200)  # dependent, so eta-hat is attainable
    base = LossPairSample(xs=xs, ys=ys)
    warped = LossPairSample(xs=np.exp(3.0 * xs), ys=ys**3 + 2.0 * ys)
    for variant in (1, 2):
        for x, y in [(0.5, 0.5), (1.0, 1.0), (2.0, 0.7)]:
            assert r_hat(base, 30, variant, x, y) == r_hat(warped, 30, variant, x, y)
        assert eta_hat(base, 30, variant) == eta_hat(warped, 30, variant)


def test_eta_hat_inverts_r_hat_at_level():
    """R-hat(eta, 1) attains k/n, and the candidate one step below does not."""
    rng = np.random.default_rng(123)
    for _ in range(20):
        n, k = 150, 25
        sample = sample_model(make_spec("Cauchy"), n, rng)
        for variant in (1, 2):
            est = eta_hat(sample, k, variant)
            # nudge past the float rounding of the candidate value itself
            count_at = round(r_hat(sample, k, variant, est.raw + 1e-9, 1.0) * k)
            assert count_at * n >= k * k
            if est.raw - 0.5 / k >= 0.0:
                count_below = round(r_hat(sample, k, variant, est.raw - 0.5 / k, 1.0) * k)
                assert count_below * n < k * k


def test_eta_hat_matches_bruteforce():
    rng = np.random.default_rng(2024)
    for _ in range(50):
        n = int(rng.integers(30, 200))
        k = int(rng.integers(4, n // 3))
        sample = sample_model(make_spec("Cauchy"), n, rng)
        for variant in (1, 2):
            try:
                procedural = eta_hat(sample, k, variant).raw
            except ValueError:
                with pytest.raises(ValueError):
                    eta_hat_bruteforce(sample, k, variant)
                continue
            assert procedural == eta_hat_bruteforce(sample, k, variant)


@pytest.mark.parametrize("family", ["Logistic", "Cauchy", "Pareto2", "StudentT"])
def test_r_hat_near_analytic_value(family):
    """|R-hat(1,1) - R(1,1)| <= 0.1 in at least 95 of 100 model samples."""
    spec = make_spec(family)
    truth = true_tail_copula(spec, 1.0, 1.0)
    rng = np.random.default_rng(777)
    hits = {1: 0, 2: 0}
    reps = 100
    for _ in range(reps):
        sample = sample_model(spec, 5000, rng)
        for variant in (1, 2):
            if abs(r_hat(sample, 300, variant, 1.0, 1.0) - truth) <= 0.1:
                hits[variant] += 1
    assert hits[1] >= 95
    assert hits[2] >= 95


def test_eta2_is_never_clamped():
    """Every attained variant-2 raw value (n + 1/2 - r)/k lies in [1/(2k), 1)."""
    for n in range(2, 61):
        for k in range(1, n):
            for rank in range(n - k + 1, n + 1):
                raw, value, clamped = _eta(n, k, 2, rank)
                assert value == raw and not clamped
                assert 1.0 / (2.0 * k) <= raw < 1.0
