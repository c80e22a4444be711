"""Univariate tail machinery: the Hill estimator and the diagnostic curves.

``_hill`` gives the Hill estimates of a whole k-range from one cumulative
sum of logs; ``covar_coes.estimate_k_range`` reads it, with the (n-k)-th
order statistic as VaR_X, for the CoVaR/CoES extrapolations.  The two
curve builders are diagnostics used to choose k and to check the
joint-tail inequality P(X >= VaR_X, Y >= VaR_Y) > (1-tau)^2.  They read
margin indexes and return plain arrays, ``hill_curve`` over a k-range
(a ``range`` of step 1, which ``core.check_tail`` checks);
``data_io.diagnostics_export`` adds the band and (1-tau)^2.
"""

from __future__ import annotations

import math

import numpy as np

from .core import MarginIndex, _check_reach, check_level, check_tail


def _hill(margin: MarginIndex, ks: np.ndarray) -> np.ndarray:
    """Hill estimates at every k of ``ks`` from one cumulative sum of logs,
    with a leading row axis on a stacked margin.

    The top log order statistics are summed in descending order, so the
    estimate at k is the same float whichever other k are computed with
    it.  The logs are taken row by row, on 1-D descending views: numpy's
    log on a contiguous or 2-D block takes another kernel that can differ
    in the last bit, and each row must equal its lone-sample estimate.  A
    flat top (X_(n,n) == X_(n-k,n)) gives exactly 0.0, and any other
    result is clamped at 0.0, where rounding can leave the difference of
    logs just below zero.  Only rows with a positive threshold X_(n-k,n)
    are meaningful; the others are left as whatever the logs give.
    """
    n = margin.n
    descending = margin.sorted[..., n - 1 - max(ks.tolist()) :][..., ::-1]
    logs = np.empty(descending.shape)
    # a threshold <= 0 takes logs of values <= 0, only on its own rows
    with np.errstate(divide="ignore", invalid="ignore"):
        for row, out in zip(np.atleast_2d(descending), np.atleast_2d(logs)):
            np.log(row, out=out)
        gammas = logs.cumsum(axis=-1)[..., ks - 1] / ks - logs[..., ks]
    np.maximum(gammas, 0.0, out=gammas)
    gammas[descending[..., ks] == descending[..., :1]] = 0.0
    return gammas


def tail_prob_curve(x_index: MarginIndex, y_index: MarginIndex, taus) -> np.ndarray:
    """Empirical P(X >= VaR_X(tau), Y >= VaR_Y(tau)) at every tau of ``taus``.

    The marginal VaR at tau is the smallest order statistic with 1-based
    index >= ceil(n*tau), the left-continuous inverse of the empirical
    CDF; each index must order the top n + 1 - ceil(n*tau) at every tau.
    """
    taus = check_tau_grid(taus)
    n = x_index.n
    _check_reach((x_index, y_index), n + 1 - math.ceil(n * taus.min()), f"tau={taus.min()}")
    p_hat = np.empty(taus.size)
    for j, tau in enumerate(taus.tolist()):
        at = math.ceil(n * tau) - 1
        # X >= VaR_X exactly at the ranks above the first position of VaR_X (never a sentinel 0)
        x_hit, y_hit = (i.ranks > np.searchsorted(i.sorted, i.sorted[at]) for i in (x_index, y_index))
        p_hat[j] = np.mean(x_hit & y_hit)
    return p_hat


def check_tau_grid(taus) -> np.ndarray:
    """``taus`` as a float array, raising unless it is nonempty, or at its
    first level outside (0, 1) by ``check_level``."""
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    if taus.size == 0:
        raise ValueError("empty tau grid")
    for tau in taus.tolist():
        check_level(tau, "tau")
    return taus


def hill_curve(margin: MarginIndex, ks: range) -> np.ndarray:
    """Hill estimates for every k of the k-range ``ks``, in k order.

    A k whose threshold X_(n-k,n) is not positive gets NaN, and the other k
    keep their estimates.
    """
    n = margin.n
    check_tail(n, ks)
    _check_reach((margin,), ks[-1] + 1, f"k={ks[-1]}")
    ks = np.arange(ks.start, ks.stop, dtype=np.int64)
    gammas = _hill(margin, ks)
    gammas[margin.sorted[n - 1 - ks] <= 0.0] = np.nan
    return gammas
