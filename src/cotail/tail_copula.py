"""Nonparametric upper-tail dependence: R-hat variants and adjustment factors.

Two rank-based estimators of the tail copula R are provided, together with
the adjustment-factor estimators eta-hat obtained by inverting R-hat(., 1)
at level k/n.  The inversion has a closed order-statistic form (the
filtered-sub-sample procedure).  Its final value expressions
(``_eta1_value`` / ``_eta2_value``) are shared with the brute-force
candidate scan kept among the tests, so the two agree bit-for-bit on
tie-free data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import LossPairSample, validate_tail_config


@dataclass(frozen=True)
class TailCopulaEstimate:
    """Callable empirical tail copula R-hat for one sample and k.

    ``variant`` 1 is the empirical-CDF form (indicator on 1 - F-hat with
    denominator n); variant 2 is the rank form (indicator on ranks against
    n + 1/2 - k x).  Evaluation is O(n) per call.
    """

    variant: int
    k: int
    n: int
    ranks_x: np.ndarray
    ranks_y: np.ndarray

    def __call__(self, x: float, y: float) -> float:
        if x < 0.0 or y < 0.0:
            raise ValueError("tail copula arguments must be nonnegative")
        if self.variant == 1:
            hits = ((self.n - self.ranks_x) <= x * self.k) & (
                (self.n - self.ranks_y) <= y * self.k
            )
        else:
            hits = (self.ranks_x >= self.n + 0.5 - self.k * x) & (
                self.ranks_y >= self.n + 0.5 - self.k * y
            )
        return float(np.count_nonzero(hits) / self.k)


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


def fit_tail_copula(sample: LossPairSample, k: int, variant: int) -> TailCopulaEstimate:
    """Return a reusable R-hat evaluator on the sample's cached ranks."""
    _check_variant(variant)
    n = sample.n
    if not 1 <= k <= n - 1:
        raise ValueError(f"k must satisfy 1 <= k <= n-1, got k={k} with n={n}")
    return TailCopulaEstimate(
        variant=variant,
        k=k,
        n=n,
        ranks_x=sample.x_index.ranks,
        ranks_y=sample.y_index.ranks,
    )


def r_hat(sample: LossPairSample, k: int, variant: int, x: float, y: float) -> float:
    """One-shot evaluation of the empirical tail copula at (x, y)."""
    return fit_tail_copula(sample, k, variant)(x, y)


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

    Variant 1 keeps the k+1 observations with 1 - F-hat_Y <= k/n and takes
    the m-th smallest filtered 1 - F-hat_X value, scaled by n/k.  Variant 2
    keeps the k observations with Y-rank >= n + 1/2 - k and takes the
    (k+1-m)-th smallest filtered X-rank r, returning (n + 1/2 - r)/k.
    Filters and order-statistic selection are done on integer ranks, so the
    only floating point is in the final value expression.

    Raises:
        ValueError: if the level k/n is not attained by R-hat(., 1) within
            (0, 1] (no valid adjustment factor exists), or if the filtered
            sub-sample is smaller than the procedure requires.
    """
    _check_variant(variant)
    n = sample.n
    config, _ = validate_tail_config(n, k)
    m = config.m
    ranks_x = sample.x_index.ranks
    ranks_y = sample.y_index.ranks
    if variant == 1:
        depths = np.sort(n - ranks_x[ranks_y >= n - k])
        if depths.size != k + 1:
            raise ValueError(
                f"filtered sub-sample has size {depths.size}, expected k+1={k + 1}"
            )
        if m > depths.size:
            raise ValueError(f"order-statistic index m={m} exceeds filtered size")
        depth = int(depths[m - 1])
        if depth > k:
            raise _not_attained(k, n)
        raw = _eta1_value(n, k, depth)
    else:
        filtered_ranks = np.sort(ranks_x[ranks_y >= n - k + 1])
        if filtered_ranks.size != k:
            raise ValueError(
                f"filtered sub-sample has size {filtered_ranks.size}, expected k={k}"
            )
        if k - m < 0 or k - m >= filtered_ranks.size:
            raise ValueError(f"order-statistic index k+1-m={k + 1 - m} out of range")
        rank = int(filtered_ranks[k - m])
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
