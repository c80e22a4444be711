"""Shared containers for paired-loss data, ranks, and tail configuration.

Every estimator in the package consumes these three objects: a validated
pair of loss vectors, a per-margin order-statistic/rank index with a
deterministic tie-break, and a tail configuration bundling the
intermediate order ``k``, the derived count ``m``, and the extrapolation
level.  All containers are frozen; estimators never mutate a sample.
Each margin index is computed once per sample, on first use, and cached
on it (``LossPairSample.x_index`` / ``y_index``), so every estimator and
every k run on one sample share the same two sorts.  ``MarginIndex.top``
is the one place the tie rule lives: the conditioning subsample of every
tail estimator is ``y_index.top(k + 1)`` (or ``top(k)``).
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
        """Order statistics and ranks of ``xs``, built on first use and cached."""
        if "_x_index" not in self.__dict__:
            object.__setattr__(self, "_x_index", build_margin_index(self.xs))
        return self._x_index

    @property
    def y_index(self) -> MarginIndex:
        """Order statistics and ranks of ``ys``, built on first use and cached."""
        if "_y_index" not in self.__dict__:
            object.__setattr__(self, "_y_index", build_margin_index(self.ys))
        return self._y_index


@dataclass(frozen=True)
class MarginIndex:
    """Order statistics, 1-based ranks and sorting order for one margin.

    ``sorted`` is the ascending order-statistic vector; ``ranks[i]`` is the
    rank of observation i among the n values; ``order`` is the stable
    argsort, so ``sorted == values[order]`` and ``ranks[order] == 1..n``.
    Ties are broken by original position (earlier index, smaller rank), so
    ranks are always a permutation of 1..n and
    ``sorted[ranks[i] - 1] == values[i]``.
    """

    sorted: np.ndarray
    ranks: np.ndarray
    order: np.ndarray

    @property
    def n(self) -> int:
        return self.sorted.shape[0]

    def top(self, count: int) -> np.ndarray:
        """Positions of the ``count`` highest-ranked observations, ascending.

        This is the package's one tie rule for a conditioning event: among
        equal values, the later observation ranks higher.  Without a tie at
        the cut the result is exactly {i : values[i] >= sorted[n - count]};
        with one, it keeps every larger value and fills up with the latest
        of the tied observations, so it always has ``count`` elements.
        Equals ``np.flatnonzero(ranks > n - count)``.
        """
        if not 0 <= count <= self.n:
            raise ValueError(f"count must satisfy 0 <= count <= n={self.n}, got {count}")
        return np.sort(self.order[self.n - count :])


def build_margin_index(values) -> MarginIndex:
    """Sort one margin and compute tie-broken ranks.

    Args:
        values: nonempty sequence of finite reals.

    Returns:
        MarginIndex with ascending order statistics and a rank permutation.
    """
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError("values must be one-dimensional")
    if arr.size == 0:
        raise ValueError("values must be nonempty")
    if not np.isfinite(arr).all():
        raise ValueError("values must be finite")
    order = np.argsort(arr, kind="stable")
    ranks = np.empty(arr.size, dtype=np.int64)
    ranks[order] = np.arange(1, arr.size + 1)
    return MarginIndex(sorted=arr[order], ranks=ranks, order=order)


def _whole_number(value, name: str) -> int:
    """``value`` as an int; integral floats such as 1000.0 pass, 1000.7 raises."""
    if not (isinstance(value, numbers.Integral) or float(value).is_integer()):
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class TailConfig:
    """Intermediate order k, derived count m, and extrapolation level.

    ``m = ceil(k^2 / n)`` is shared by every estimator that needs it; it is
    computed once here and never re-rounded.  ``tau_prime`` and the ratio
    ``d = k / (n (1 - tau_prime))`` are absent for intermediate-only use.
    """

    n: int
    k: int
    m: int
    tau_prime: float | None = None
    d: float | None = None


def validate_tail_config(
    n: int, k: int, tau_prime: float | None = None
) -> tuple[TailConfig, list[WarningRecord]]:
    """Validate (n, k, tau_prime) and derive m and d.

    Non-fatal conditions (k below the n^(2/3) heuristic, extrapolation
    level not beyond the intermediate level, i.e. d < 1) are returned as
    warnings alongside the config rather than raised.

    Args:
        n: sample size, >= 2.
        k: intermediate order, 1 <= k < n.
        tau_prime: optional extreme level in (0, 1).

    Returns:
        (TailConfig, list of WarningRecord).
    """
    if n < 2:
        raise ValueError(f"sample size must be >= 2, got n={n}")
    if k <= 0 or k >= n:
        raise ValueError(f"k must satisfy 1 <= k < n, got k={k} with n={n}")
    m = (k * k + n - 1) // n  # ceil(k^2 / n) in exact integer arithmetic
    if m < 1 or m > k:
        raise ValueError(f"derived m={m} outside [1, k={k}]")
    warnings: list[WarningRecord] = []
    if k < n ** (2.0 / 3.0):
        warnings.append(
            WarningRecord(
                "small_k",
                f"k={k} is below n^(2/3)={n ** (2.0 / 3.0):.1f}; "
                "intermediate-order asymptotics are doubtful",
            )
        )
    d = None
    if tau_prime is not None:
        if not 0.0 < tau_prime < 1.0:
            raise ValueError(f"tau_prime must lie in (0, 1), got {tau_prime}")
        d = k / (n * (1.0 - tau_prime))
        if d < 1.0:
            warnings.append(
                WarningRecord(
                    "d_below_one",
                    f"extrapolation ratio d={d:.4g} < 1: tau_prime={tau_prime} "
                    "is not beyond the intermediate level 1 - k/n",
                )
            )
    return TailConfig(n=n, k=k, m=m, tau_prime=tau_prime, d=d), warnings
