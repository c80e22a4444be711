"""Nonparametric upper-tail dependence: R-hat variants and adjustment factors.

Two rank-based estimators of the tail copula R (Schmidt & Stadtmüller,
2006) are evaluated by ``r_hat``, together with the adjustment-factor
estimators eta-hat obtained by inverting R-hat(., 1) at level k/n.  The
inversion has a closed order-statistic form (the filtered-sub-sample
procedure) on the conditioning subsample ``y_index.top(k + 1)`` (variant 1)
or ``top(k)`` (variant 2), so it shares its tie rule with the
intermediate CoVaR/CoES.  Its final value expressions
(``_eta1_value`` / ``_eta2_value``) are shared with the brute-force
candidate scan kept among the tests, so the two agree bit-for-bit on
tie-free data.  Variant 2 lies in [1/(2k), 1) by construction, so only
variant 1, at exactly 0, meets the 1/(2k) floor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import EstimationError, LossPairSample, MarginIndex, check_tail


@dataclass(frozen=True)
class EtaEstimate:
    """Adjustment-factor estimate with clamping audit trail.

    ``value`` is the usable estimate in (0, 1]; ``raw`` is the pre-clamp
    output of the order-statistic procedure (variant 1 can return exactly 0
    when the X-maximum lands in the filtered set and m = 1); ``clamped``
    records whether the 1/(2k) floor fired, which only variant 1 can do.
    """

    variant: int
    value: float
    clamped: bool
    raw: float


def r_hat(sample: LossPairSample, k: int, variant: int, x: float, y: float) -> float:
    """Empirical tail copula R-hat at (x, y) on the sample's cached ranks.

    Variant 1 is the empirical-CDF form (indicator on 1 - F-hat with
    denominator n); variant 2 is the rank form (indicator on ranks against
    n + 1/2 - k x).  Evaluation is O(n) per call.
    """
    _check_variant(variant)
    n = sample.n
    check_tail(n, k)
    if x < 0.0 or y < 0.0:
        raise ValueError("tail copula arguments must be nonnegative")
    ranks_x = sample.x_index.ranks
    ranks_y = sample.y_index.ranks
    if variant == 1:
        hits = ((n - ranks_x) <= x * k) & ((n - ranks_y) <= y * k)
    else:
        hits = (ranks_x >= n + 0.5 - k * x) & (ranks_y >= n + 0.5 - k * y)
    return float(np.count_nonzero(hits) / k)


def _check_variant(variant: int) -> None:
    if variant not in (1, 2):
        raise ValueError(f"variant must be 1 or 2, got {variant}")


def _eta1_value(n: int, k: int, depth: int) -> float:
    # (n/k) * Z~ with Z~ = depth/n; shared by the procedure and the test
    # scan so the two produce identical floats.
    return (n / k) * (depth / n)


def _eta2_value(n: int, k: int, rank: int) -> float:
    return (n + 0.5 - rank) / k


def eta_hat(sample: LossPairSample, k: int, variant: int) -> EtaEstimate:
    """Adjustment factor at the intermediate level via the filtered sub-sample.

    Variant 1 keeps the k+1 observations with the largest Y
    (``y_index.top(k + 1)``, i.e. 1 - F-hat_Y <= k/n) and takes the m-th
    smallest filtered 1 - F-hat_X value, scaled by n/k.  Variant 2 keeps the
    k observations with the largest Y (``top(k)``, Y-rank >= n + 1/2 - k)
    and takes the (k+1-m)-th smallest filtered X-rank r, returning
    (n + 1/2 - r)/k.  Both read ``filtered_x_ranks``, the selection every
    k-range estimate makes, so the only floating point is in the final
    value expression.

    Raises:
        EstimationError: ``eta_not_attained`` if the level k/n is not
            attained by R-hat(., 1) within (0, 1] (no valid adjustment
            factor exists).
    """
    _check_variant(variant)
    n = sample.n
    m = check_tail(n, k)
    _, r1, r2 = filtered_x_ranks(sample.x_index, sample.y_index, np.array([k]), np.array([m]))
    estimate = _eta(n, k, variant, int((r1, r2)[variant - 1][0]))
    if estimate is None:
        raise _not_attained(k, n)
    raw, value, clamped = estimate
    return EtaEstimate(variant=variant, value=value, clamped=clamped, raw=raw)


def _eta(n: int, k: int, variant: int, rank: int) -> tuple[float, float, bool] | None:
    """(raw, value, clamped) of eta-hat from its filtered X-rank, or None
    when R-hat(., 1) does not reach the level k/n.  Variant 2's value is its
    raw (n + 1/2 - r)/k; variant 1's is floored at 1/(2k) and capped at 1."""
    if variant == 2:
        if rank < n - k + 1:
            return None
        raw = _eta2_value(n, k, rank)
        return raw, raw, False
    depth = n - rank
    if depth > k:
        return None
    raw = _eta1_value(n, k, depth)
    floor = 1.0 / (2.0 * k)
    if raw < floor:
        return raw, floor, True
    return raw, min(raw, 1.0), False


def filtered_x_ranks(
    x_index: MarginIndex, y_index: MarginIndex, ks: np.ndarray, ms: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The X-ranks of every conditioning set of a k-range, by one selection.

    Returns ``(rows, r1, r2)``.  ``rows[i]`` holds the X-ranks of the k+1
    observations ``y_index.top(k + 1)`` (k = ``ks[i]``) in ascending order,
    left-padded with 0 to k_max + 1 columns.  ``r1[i]`` and ``r2[i]`` are
    the m-th largest X-rank (m = ``ms[i]``) of ``top(k + 1)`` and of
    ``top(k)``.  ``top(k)`` is ``top(k + 1)`` less its lowest-ranked Y, so
    its m-th largest X-rank is the (m+1)-th largest of the row when that
    dropped observation is among the row's m largest, and the m-th largest
    otherwise.

    ``y_index`` must order the top k_max + 1 system losses.  An X-rank below
    the tail of ``x_index`` reads as its sentinel 0; when ``x_index`` orders
    the top k_max + 2, that changes no eta-hat: a rank that deep, sentinel
    or not, leaves R-hat(., 1) short of k/n, and ``r1``/``r2`` are exact
    wherever eta-hat is attained.
    """
    width = max(ks.tolist()) + 1
    ranks = x_index.ranks[y_index.ranked(width)]
    dropped = ranks[ks]  # read first: with one k, the sort below reorders ranks
    if ks.size == 1:
        rows = ranks[None, :]
    else:
        rows = np.where(np.arange(width) <= ks[:, None], ranks, 0)
    rows.sort(axis=1)
    lines, at = np.arange(ks.size), width - ms
    r1 = rows[lines, at]
    return rows, r1, np.where(dropped < r1, r1, rows[lines, at - 1])


def _not_attained(k: int, n: int) -> EstimationError:
    return EstimationError(
        "eta_not_attained",
        f"R-hat(., 1) never reaches the level k/n = {k}/{n} on (0, 1]; "
        "the sample shows too little upper-tail dependence for this k",
    )
