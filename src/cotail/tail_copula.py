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
tie-free data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import LossPairSample, validate_tail_config


@dataclass(frozen=True)
class EtaEstimate:
    """Adjustment-factor estimate with clamping audit trail.

    ``value`` is the usable estimate in (0, 1]; ``raw`` is the pre-clamp
    output of the order-statistic procedure (variant 1 can return exactly 0
    when the X-maximum lands in the filtered set and m = 1); ``clamped``
    records whether the 1/(2k) floor fired.
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
    if not 1 <= k <= n - 1:
        raise ValueError(f"k must satisfy 1 <= k <= n-1, got k={k} with n={n}")
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
    (n + 1/2 - r)/k.  Selection is done on integer ranks, so the only
    floating point is in the final value expression.

    Raises:
        ValueError: if the level k/n is not attained by R-hat(., 1) within
            (0, 1] (no valid adjustment factor exists).
    """
    _check_variant(variant)
    n = sample.n
    config, _ = validate_tail_config(n, k)
    m = config.m
    ranks_x = sample.x_index.ranks
    if variant == 1:
        depth = int(np.sort(n - ranks_x[sample.y_index.top(k + 1)])[m - 1])
        if depth > k:
            raise _not_attained(k, n)
        raw = _eta1_value(n, k, depth)
    else:
        rank = int(np.sort(ranks_x[sample.y_index.top(k)])[k - m])
        if rank < n - k + 1:
            raise _not_attained(k, n)
        raw = _eta2_value(n, k, rank)
    floor = 1.0 / (2.0 * k)
    if raw < floor:
        return EtaEstimate(variant=variant, value=floor, clamped=True, raw=raw)
    return EtaEstimate(variant=variant, value=min(raw, 1.0), clamped=False, raw=raw)


def _not_attained(k: int, n: int) -> ValueError:
    return ValueError(
        f"R-hat(., 1) never reaches the level k/n = {k}/{n} on (0, 1]; "
        "the sample shows too little upper-tail dependence for this k"
    )
