"""Univariate tail machinery: Hill estimator, order-statistic VaR, diagnostics.

The Hill estimator and the (n-k)-th order statistic feed the CoVaR/CoES
extrapolations; the two curve builders are diagnostics used to choose k and
to check the joint-tail inequality P(X >= VaR_X, Y >= VaR_Y) > (1-tau)^2.
They return plain arrays; ``data_io.diagnostics_export`` adds the band and
(1-tau)^2.
"""

from __future__ import annotations

import math

import numpy as np

from .core import EstimationError, LossPairSample, MarginIndex, check_tail


def hill_estimate(margin: MarginIndex, k: int) -> float:
    """Average log-spacing of the top k order statistics over the threshold.

    gamma_1 = (1/k) sum_{i=1..k} log X_{n-i+1,n} - log X_{n-k,n}.

    Args:
        margin: sorted/ranked margin.
        k: intermediate order, 1 <= k < n.

    Returns:
        The tail-index estimate, always >= 0 (see ``_hill``).

    Raises:
        EstimationError: ``threshold_not_positive``.
    """
    _check_k(margin, k)
    n = margin.n
    threshold = margin.sorted[n - k - 1]
    if threshold <= 0.0:
        raise _threshold_not_positive(n, k, threshold)
    return float(_hill(margin, np.array([k]))[0])


def _check_k(margin: MarginIndex, k: int) -> None:
    """Raise unless 1 <= k < n and ``margin`` orders its top k + 1."""
    check_tail(margin.n, k)
    if margin.depth < k + 1:
        raise ValueError(
            f"k={k} reads the top {k + 1}, below the top {margin.depth} that the index orders"
        )


def _threshold_not_positive(n: int, k: int, threshold: float) -> EstimationError:
    return EstimationError(
        "threshold_not_positive",
        f"threshold order statistic X_({n - k},{n}) = {threshold} is not positive",
    )


def _hill(margin: MarginIndex, ks: np.ndarray) -> np.ndarray:
    """Hill estimates at every k of ``ks`` from one cumulative sum of logs.

    The top log order statistics are summed in descending order, so the
    estimate at k is the same float whichever other k are computed with
    it.  A flat top (X_(n,n) == X_(n-k,n)) gives exactly 0.0, and any other
    result is clamped at 0.0, where rounding can leave the difference of
    logs just below zero.  Only rows with a positive threshold X_(n-k,n)
    are meaningful; the others are left as whatever the logs give.
    """
    n = margin.n
    descending = margin.sorted[n - 1 - max(ks.tolist()) :][::-1]
    # a threshold <= 0 takes logs of values <= 0, only on its own rows
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.log(descending)
        gammas = logs.cumsum()[ks - 1] / ks - logs[ks]
    np.maximum(gammas, 0.0, out=gammas)
    gammas[descending[ks] == descending[0]] = 0.0
    return gammas


def empirical_var(margin: MarginIndex, k: int) -> float:
    """The (n-k)-th ascending order statistic, the empirical VaR at 1 - k/n."""
    _check_k(margin, k)
    return float(margin.sorted[margin.n - k - 1])


def tail_prob_curve(sample: LossPairSample, taus) -> np.ndarray:
    """Empirical P(X >= VaR_X(tau), Y >= VaR_Y(tau)) at every tau of ``taus``.

    The marginal VaR at tau is the smallest order statistic with 1-based
    index >= ceil(n*tau), the left-continuous inverse of the empirical
    distribution function.
    """
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    if not np.all((0.0 < taus) & (taus < 1.0)):
        raise ValueError("every tau must lie in (0, 1)")
    n = sample.n
    p_hat = np.empty(taus.size)
    for j, tau in enumerate(taus):
        idx = math.ceil(n * tau)
        var_x = sample.x_index.sorted[idx - 1]
        var_y = sample.y_index.sorted[idx - 1]
        p_hat[j] = np.mean((sample.xs >= var_x) & (sample.ys >= var_y))
    return p_hat


def hill_curve(margin: MarginIndex, k_min: int, k_max: int) -> np.ndarray:
    """Hill estimates for every k in [k_min, k_max], in k order.

    A k whose threshold X_(n-k,n) is not positive gets NaN, and the other k
    keep their estimates.
    """
    n = margin.n
    if not 2 <= k_min <= k_max <= n - 1:
        raise ValueError(
            f"need 2 <= k_min <= k_max <= n-1, got k_min={k_min}, k_max={k_max}, n={n}"
        )
    _check_k(margin, k_max)
    ks = np.arange(k_min, k_max + 1, dtype=np.int64)
    gammas = _hill(margin, ks)
    gammas[margin.sorted[n - 1 - ks] <= 0.0] = np.nan
    return gammas
