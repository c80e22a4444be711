"""Nonparametric upper-tail dependence: R-hat variants and adjustment factors.

Two rank-based estimators of the tail copula R (Schmidt & Stadtmüller,
2006) are evaluated at (1, 1) at every k of a k-range, a ``range`` of
step 1 that ``core.check_tail`` checks, by ``r11_curve``, the package's
one R-hat path.  The adjustment factor eta-hat inverts R-hat(., 1) at level
k/n; the inversion has a closed order-statistic form on the conditioning
subsample C(k + 1) (variant 1) or C(k) (variant 2), where C(c), the first
c entries of ``y_index.ranked``, holds the c largest system losses by rank.
``filtered_x_ranks`` makes that selection for a whole k-range at once,
sharing its tie rule with the intermediate CoVaR/CoES, and ``_eta`` turns
the selected X-rank into eta-hat.  Its final value expressions
(``_eta1_value`` / ``_eta2_value``) are shared with the brute-force
candidate scan kept among the tests, so the two agree bit-for-bit on
tie-free data.  Variant 2 lies in [1/(2k), 1) by construction, so only
variant 1, at exactly 0, meets the 1/(2k) floor.
"""

from __future__ import annotations

import numpy as np

from .core import EstimationError, MarginIndex, _check_reach, check_tail


def r11_curve(x_index: MarginIndex, y_index: MarginIndex, ks: range) -> tuple[np.ndarray, np.ndarray]:
    """R-hat(1, 1) of variants 1 and 2 at every k of the k-range ``ks``, from one count.

    Variant 1 (the empirical-CDF form) counts the observations with
    n - min(rank_x, rank_y) <= k and variant 2 (the rank form,
    rank >= n + 1/2 - k) those with <= k - 1, each over k, so one cumulative
    count serves every k.  Each index must order the top max(ks) + 1; below
    it the sentinel rank 0 gives n, which no k counts.
    """
    n = x_index.n
    check_tail(n, ks)
    _check_reach((x_index, y_index), ks[-1] + 1, f"k={ks[-1]}")
    ks = np.arange(ks.start, ks.stop, dtype=np.int64)
    counts = np.bincount(n - np.minimum(x_index.ranks, y_index.ranks), minlength=n + 1).cumsum()
    return counts[ks] / ks, counts[ks - 1] / ks


def _eta1_value(n: int, k, depth):
    # (n/k) * Z~ with Z~ = depth/n; shared by the procedure and the test
    # scan so the two produce identical floats.  Elementwise on arrays: each
    # operation rounds once, in numpy as in Python.
    return (n / k) * (depth / n)


def _eta2_value(n: int, k, rank):
    return (n + 0.5 - rank) / k


def _eta(n: int, ks, variant: int, ranks) -> tuple:
    """(raw, value, clamped, attained) of eta-hat from filtered X-ranks,
    elementwise, with ``ks`` broadcast against ``ranks``.

    ``ranks`` holds the m-th largest X-rank r of each conditioning set
    (``filtered_x_ranks``: r1 of C(k + 1) for variant 1, r2 of C(k) for
    variant 2).  ``attained`` is false where R-hat(., 1) does not reach the
    level k/n; the other three are meaningless there.  Variant 1's raw
    value is the m-th smallest filtered 1 - F-hat_X, (n - r)/n, scaled by
    n/k; its value is floored at 1/(2k) and capped at 1.  Variant 2's value
    is its raw (n + 1/2 - r)/k.
    """
    if variant == 2:
        raw = _eta2_value(n, ks, ranks)
        return raw, raw, False, ranks >= n - ks + 1
    depth = n - ranks
    raw = _eta1_value(n, ks, depth)
    floor = 1.0 / (2.0 * ks)
    clamped = raw < floor
    return raw, np.where(clamped, floor, np.minimum(raw, 1.0)), clamped, depth <= ks


def filtered_x_ranks(
    x_index: MarginIndex, y_index: MarginIndex, ks: np.ndarray, ms: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The X-ranks of every conditioning set of a k-range, by one selection.

    Returns ``(rows, r1, r2)``.  ``rows[i]`` holds the X-ranks of the k+1
    observations C(k + 1) (k = ``ks[i]``) in ascending order, left-padded
    with 0 to k_max + 1 columns.  ``r1[i]`` and ``r2[i]`` are the m-th
    largest X-rank (m = ``ms[i]``) of C(k + 1) and of C(k).  C(k) is
    C(k + 1) less its lowest-ranked Y, so its m-th largest X-rank is the
    (m+1)-th largest of the row when that dropped observation is among the
    row's m largest, and the m-th largest otherwise.  One k is a range of
    one: the k axis stays.  The indexes are stacks, as ``estimate_k_range``
    builds them, and every result has a leading row axis, one per sample.

    ``y_index`` must order the top k_max + 1 system losses.  An X-rank below
    the tail of ``x_index`` reads as its sentinel 0; when ``x_index`` orders
    the top k_max + 2, that changes no eta-hat: a rank that deep, sentinel
    or not, leaves R-hat(., 1) short of k/n, and ``r1``/``r2`` are exact
    wherever eta-hat is attained.
    """
    width = max(ks.tolist()) + 1
    ranks = x_index.ranks[np.arange(len(x_index.ranks))[:, None], y_index.ranked(width)]
    # int32, as the ranks are: numpy sorts the narrower rows about twice as fast
    rows = np.where(np.arange(width) <= ks[:, None], ranks[:, None, :], 0)
    rows.sort(axis=-1)
    lines, at = np.arange(ks.size), width - ms
    r1 = rows[:, lines, at]
    return rows, r1, np.where(ranks[:, ks] < r1, r1, rows[:, lines, at - 1])


def _not_attained(k: int, n: int) -> EstimationError:
    return EstimationError(
        "eta_not_attained",
        f"R-hat(., 1) never reaches the level k/n = {k}/{n} on (0, 1]; "
        "the sample shows too little upper-tail dependence for this k",
    )
