"""Shared containers for paired-loss data and ranks, and the one tail check.

Every estimator in the package consumes two frozen objects: a validated
pair of loss vectors and a per-margin order-statistic/rank index with a
deterministic tie-break.  ``check_tail`` is the one check that an
intermediate order ``k`` and an extrapolation level ``tau_prime`` are valid
for a sample size ``n``; it returns the derived count ``m``.  Estimators
never mutate a sample.

Each margin index is computed once per sample, on first use, and cached
on it, so every estimator and every k run on one sample share the same two
sorts.  ``build_margin_index`` is the one sort path.  An index may order
only the top of its margin (a tail index): the k-range estimators read the
top k_max + 2 of each margin and ask for no more
(``LossPairSample.tail_indexes``), while ``x_index`` / ``y_index`` are the
same build at full depth.  ``MarginIndex.ranked`` is the one
place the tie rule lives: the conditioning subsample of every tail estimator
is ``y_index.top(k + 1)`` (or ``top(k)``), the first k+1 (or k) entries of
``y_index.ranked(count)`` for any count > k.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class WarningRecord:
    """A non-fatal condition surfaced as a value, not printed.

    Attributes:
        code: short machine-stable identifier (aggregation key).
        message: human-readable detail.
    """

    code: str
    message: str


class EstimationError(ValueError):
    """An estimator is undefined on this sample at this k.

    ``code`` is machine-stable, like ``WarningRecord.code``, and is one of
    ``ESTIMATION_ERROR_CODES``: ``threshold_not_positive`` (the Hill
    threshold X_(n-k,n) is not positive), ``hill_out_of_range`` (the Hill
    estimate lies outside (0, 1)) or ``eta_not_attained`` (R-hat(., 1) never
    reaches k/n).  Invalid arguments, such as k outside [1, n-1], raise a
    plain ``ValueError``.
    """

    def __init__(self, code: str, message: str):
        if code not in ESTIMATION_ERROR_CODES:
            raise ValueError(f"unknown estimation error code {code!r}")
        super().__init__(message)
        self.code = code

    def __reduce__(self):  # pickle and copy would call cls(*args), args = (message,)
        return type(self), (self.code, str(self))


ESTIMATION_ERROR_CODES = ("threshold_not_positive", "hill_out_of_range", "eta_not_attained")


@dataclass(frozen=True)
class LossPairSample:
    """Paired loss observations (X_i, Y_i).

    ``xs`` holds institution losses and ``ys`` system losses.  Both are
    coerced to 1-D float arrays of equal nonzero length with only finite
    entries.  A single pair is allowed (samplers may produce one); every
    estimator additionally requires n >= k + 1 >= 2 via its own k check.
    The stored arrays are read-only views, so the cached margin indexes
    always describe them.
    """

    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self) -> None:
        xs = np.asarray(self.xs, dtype=float)
        ys = np.asarray(self.ys, dtype=float)
        if xs.ndim != 1 or ys.ndim != 1:
            raise ValueError("xs and ys must be one-dimensional")
        if xs.shape[0] != ys.shape[0]:
            raise ValueError(
                f"xs and ys must have equal length, got {xs.shape[0]} and {ys.shape[0]}"
            )
        if xs.shape[0] < 1:
            raise ValueError("need at least one paired observation")
        if not np.isfinite(xs).all() or not np.isfinite(ys).all():
            raise ValueError("loss values must be finite")
        for name, values in (("xs", xs), ("ys", ys)):
            view = values.view()
            view.flags.writeable = False
            object.__setattr__(self, name, view)

    @property
    def n(self) -> int:
        return self.xs.shape[0]

    # Plain properties rather than functools.cached_property: before Python
    # 3.12 that holds one class-wide lock while it computes, which would make
    # the harness's worker threads take turns at sorting their own samples.
    @property
    def x_index(self) -> MarginIndex:
        """Full order statistics and ranks of ``xs``, built on first use and cached."""
        return self._index("xs", self.n)

    @property
    def y_index(self) -> MarginIndex:
        """Full order statistics and ranks of ``ys``, built on first use and cached."""
        return self._index("ys", self.n)

    def tail_indexes(self, depth: int) -> tuple[MarginIndex, MarginIndex]:
        """Indexes of ``xs`` and ``ys`` that order at least their top ``depth``.

        Each margin caches one index and rebuilds it only when a deeper one
        is asked for, so a full index, once built, serves every request.
        """
        return self._index("xs", depth), self._index("ys", depth)

    def _index(self, name: str, depth: int) -> MarginIndex:
        key = f"_{name}_index"
        index = self.__dict__.get(key)
        if index is None or index.depth < min(depth, self.n):
            index = build_margin_index(getattr(self, name), depth)
            object.__setattr__(self, key, index)
        return index


@dataclass(frozen=True)
class MarginIndex:
    """Order statistics, 1-based ranks and sorting order for the top of one margin.

    ``order`` holds the positions of the ``depth`` largest values, ascending
    by value; ``ranks[i]`` is the rank of observation i among all n values;
    ``sorted`` is the ascending order-statistic vector, so
    ``sorted[n - depth:] == values[order]`` and
    ``ranks[order] == n - depth + 1 .. n``.  Ties are broken by original
    position (earlier index, smaller rank), so ranks are a permutation of
    1..n and ``sorted[ranks[i] - 1] == values[i]`` wherever the index
    reaches.

    A full index (``depth == n``) is the stable argsort.  A tail index
    (``depth < n``) orders only the observations at or above a cut value,
    all of them, so every tie at the cut lies inside it and its order,
    ranks and sorted values equal the full index's on the whole tail.  Below
    the tail ``ranks`` holds the sentinel 0 and ``sorted`` holds -inf, so
    ``sorted[n - c]`` still indexes the c-th largest value within the tail.
    """

    sorted: np.ndarray
    ranks: np.ndarray
    order: np.ndarray

    @property
    def n(self) -> int:
        return self.sorted.shape[0]

    @property
    def depth(self) -> int:
        """How many of the largest values the index orders; n for a full index."""
        return self.order.shape[0]

    def ranked(self, count: int) -> np.ndarray:
        """Positions of the ``count`` highest-ranked observations, highest first.

        This is the package's one tie rule for a conditioning event: among
        equal values, the later observation ranks higher.  The first c
        entries are the c highest-ranked observations, so one call serves
        every conditioning set of a k-range.  A ``count`` beyond the tail
        raises.
        """
        if not 0 <= count <= self.n:
            raise ValueError(f"count must satisfy 0 <= count <= n={self.n}, got {count}")
        if count > self.depth:
            raise ValueError(
                f"count={count} reaches below the top {self.depth} that the index orders"
            )
        return self.order[self.depth - count :][::-1]

    def top(self, count: int) -> np.ndarray:
        """Positions of the ``count`` highest-ranked observations, ascending.

        Without a tie at the cut the result is exactly
        {i : values[i] >= sorted[n - count]}; with one, it keeps every larger
        value and fills up with the latest of the tied observations, so it
        always has ``count`` elements.  Equals
        ``np.flatnonzero(ranks > n - count)``.
        """
        return np.sort(self.ranked(count))


def build_margin_index(values, depth: int | None = None) -> MarginIndex:
    """Sort the top of one margin and compute tie-broken ranks.

    The cut is the ``depth``-th largest value, found by a partition; every
    observation at or above it is kept, so the tail is closed under ties
    and may hold more than ``depth`` observations.  The kept positions, in
    ascending position order, are stably sorted by value, which gives the
    full sort's order on them.  At depth n the cut is the minimum and every
    position is kept: the full index is the stable argsort.

    The k-range estimators (``covar_coes.estimate_k_range``) need depth
    k_max + 2 of each margin.  ``r_hat``, ``tail_prob_curve``,
    ``hill_curve`` and the one-k ``eta_hat`` / ``intermediate_covar`` /
    ``intermediate_coes`` read the full index: they evaluate ranks or
    quantiles anywhere in the sample.

    Args:
        values: nonempty sequence of finite reals.
        depth: how many of the largest values must be ordered, at least 1;
            None, or any depth >= n, gives the full index.

    Returns:
        MarginIndex with the order statistics and ranks of the tail.
    """
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError("values must be one-dimensional")
    if arr.size == 0:
        raise ValueError("values must be nonempty")
    if not np.isfinite(arr).all():
        raise ValueError("values must be finite")
    n = arr.size
    if depth is not None and _whole_number(depth, "depth") < 1:
        raise ValueError(f"depth must be at least 1, got {depth}")
    cut_at = 0 if depth is None else max(n - int(depth), 0)
    cut = np.partition(arr, cut_at)[cut_at]
    kept = np.flatnonzero(arr >= cut)
    order = kept[np.argsort(arr[kept], kind="stable")]
    tail = order.size
    sorted_values = np.full(n, -np.inf)
    sorted_values[n - tail :] = arr[order]
    ranks = np.zeros(n, dtype=np.int64)
    ranks[order] = np.arange(n - tail + 1, n + 1)
    return MarginIndex(sorted=sorted_values, ranks=ranks, order=order)


def _whole_number(value, name: str) -> int:
    """``value`` as an int; integral floats such as 1000.0 pass, 1000.7 raises."""
    if not (isinstance(value, numbers.Integral) or float(value).is_integer()):
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    return int(value)


def check_tail(n: int, k: int, tau_prime: float | None = None) -> int:
    """Check (n, k, tau_prime) and return m = ceil(k^2 / n), which lies in [1, k].

    This is the package's one check of a tail configuration.  The checks
    run in a fixed order and the first that fails raises: n >= 2, then
    1 <= k < n, then tau_prime in (0, 1) (skipped for intermediate-only
    use, tau_prime None).

    Raises:
        ValueError: the first failing check.
    """
    if n < 2:
        raise ValueError(f"sample size must be >= 2, got n={n}")
    if k <= 0 or k >= n:
        raise ValueError(f"k must satisfy 1 <= k < n, got k={k} with n={n}")
    if tau_prime is not None and not 0.0 < tau_prime < 1.0:
        raise ValueError(f"tau_prime must lie in (0, 1), got {tau_prime}")
    return (k * k + n - 1) // n  # exact integer arithmetic
