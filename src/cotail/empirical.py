"""Univariate tail machinery: Hill estimator, order-statistic VaR, diagnostics.

The Hill estimator and the (n-k)-th order statistic feed the CoVaR/CoES
extrapolations; the two curve builders are diagnostics used to choose k and
to check the joint-tail inequality P(X >= VaR_X, Y >= VaR_Y) > (1-tau)^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import LossPairSample, MarginIndex


@dataclass(frozen=True)
class HillCurve:
    """Hill estimates over a k-range with approximate 90% bands."""

    ks: np.ndarray
    gammas: np.ndarray
    lo: np.ndarray
    hi: np.ndarray


@dataclass(frozen=True)
class TailProbCurve:
    """Empirical joint tail probability vs (1 - tau)^2 over a tau grid."""

    taus: np.ndarray
    p_hat: np.ndarray
    square: np.ndarray


def hill_estimate(margin: MarginIndex, k: int) -> float:
    """Average log-spacing of the top k order statistics over the threshold.

    gamma_1 = (1/k) sum_{i=1..k} log X_{n-i+1,n} - log X_{n-k,n}.

    Args:
        margin: sorted/ranked margin.
        k: intermediate order, 1 <= k <= n - 1.

    Returns:
        The tail-index estimate, always >= 0.
    """
    n = margin.n
    if not 1 <= k <= n - 1:
        raise ValueError(f"k must satisfy 1 <= k <= n-1, got k={k} with n={n}")
    threshold = margin.sorted[n - k - 1]
    if threshold <= 0.0:
        raise ValueError(
            f"threshold order statistic X_({n - k},{n}) = {threshold} is not positive"
        )
    top = margin.sorted[n - k :]
    return float(np.mean(np.log(top)) - math.log(threshold))


def empirical_var(margin: MarginIndex, k: int) -> float:
    """The (n-k)-th ascending order statistic, the empirical VaR at 1 - k/n."""
    n = margin.n
    if not 1 <= k <= n - 1:
        raise ValueError(f"k must satisfy 1 <= k <= n-1, got k={k} with n={n}")
    return float(margin.sorted[n - k - 1])


def tail_prob_curve(sample: LossPairSample, taus) -> TailProbCurve:
    """Empirical P(X >= VaR_X(tau), Y >= VaR_Y(tau)) against (1-tau)^2.

    The marginal VaR at tau is the smallest order statistic with 1-based
    index >= ceil(n*tau), the left-continuous inverse of the empirical
    distribution function.
    """
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    if np.any((taus <= 0.0) | (taus >= 1.0)):
        raise ValueError("every tau must lie in (0, 1)")
    n = sample.n
    p_hat = np.empty(taus.size)
    for j, tau in enumerate(taus):
        idx = math.ceil(n * tau)
        var_x = sample.x_index.sorted[idx - 1]
        var_y = sample.y_index.sorted[idx - 1]
        p_hat[j] = np.mean((sample.xs >= var_x) & (sample.ys >= var_y))
    return TailProbCurve(taus=taus, p_hat=p_hat, square=(1.0 - taus) ** 2)


def hill_curve(margin: MarginIndex, k_min: int, k_max: int) -> HillCurve:
    """Hill estimates for every k in [k_min, k_max] with 90% bands.

    Bands are gamma * (1 +/- 1.645 / sqrt(k)), the standard-normal limit
    approximation; they are diagnostics only and feed no estimator.
    """
    n = margin.n
    if not 2 <= k_min <= k_max <= n - 1:
        raise ValueError(
            f"need 2 <= k_min <= k_max <= n-1, got k_min={k_min}, k_max={k_max}, n={n}"
        )
    if margin.sorted[n - k_max - 1] <= 0.0:
        raise ValueError("all order statistics down to X_(n-k_max) must be positive")
    ks = np.arange(k_min, k_max + 1, dtype=np.int64)
    # per-k delegation keeps the curve bit-identical to the point estimator
    gammas = np.array([hill_estimate(margin, int(k)) for k in ks])
    half = 1.645 / np.sqrt(ks)
    return HillCurve(ks=ks, gammas=gammas, lo=gammas * (1.0 - half), hi=gammas * (1.0 + half))
