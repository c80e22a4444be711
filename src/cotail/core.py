"""Shared containers for paired-loss data and ranks, and the one tail check.

A ``LossPairSample`` is a validated, immutable pair of loss vectors, or a
(B, n) stack of them whose rows are estimated together, one set of numpy
calls for all B; a 1-D sample is a stack of one.  A ``MarginIndex`` holds
the order statistics and ranks of the top of one margin, or of each row of
a stack, with a deterministic tie-break; each estimator call builds the
indexes it reads, once per stack, with ``build_margin_index``, the one sort
path.  ``check_tail`` is the one check that an intermediate order ``k``,
or a k-range (a ``range`` of step 1, checked in O(1)), and an
extrapolation level ``tau_prime`` are valid for a sample size ``n``; it
returns the derived count ``m`` of one k.  ``check_level`` is the one
rule for a level in (0, 1), tau' or tau.
``MarginIndex.ranked`` is the one place the tie rule lives: the
conditioning subsample of every tail estimator is the first k+1 (or k)
entries of ``y_index.ranked(count)`` for any count > k.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

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
    """Paired loss observations (X_i, Y_i), or a stack of such samples.

    ``xs`` holds institution losses and ``ys`` system losses.  Both are
    coerced to float arrays of one shape with only finite entries: 1-D of
    nonzero length n for one sample, or 2-D (B, n) for a stack of B >= 1
    samples of n pairs each, one per row.  The estimators give each row of
    a stack the result it would get alone.  A single pair is allowed
    (samplers may produce one); every estimator additionally requires
    n >= k + 1 >= 2 via its own k check.  The stored arrays are read-only
    views: a sample is immutable.
    """

    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self) -> None:
        xs = np.asarray(self.xs, dtype=float)
        ys = np.asarray(self.ys, dtype=float)
        if xs.ndim not in (1, 2) or ys.ndim not in (1, 2):
            raise ValueError("xs and ys must be one-dimensional, or two-dimensional stacks of samples")
        if xs.shape != ys.shape:
            raise ValueError(f"xs and ys must have equal shapes, got {xs.shape} and {ys.shape}")
        if xs.size < 1:
            raise ValueError("need at least one paired observation")
        if not np.isfinite(xs).all() or not np.isfinite(ys).all():
            raise ValueError("loss values must be finite")
        self._freeze(xs, ys)

    @classmethod
    def _of_checked(cls, xs: np.ndarray, ys: np.ndarray) -> LossPairSample:
        """The sample of float arrays of one shape that a ``LossPairSample``
        checked already, such as rows of a checked series' windows."""
        sample = object.__new__(cls)
        sample._freeze(xs, ys)
        return sample

    def _freeze(self, xs: np.ndarray, ys: np.ndarray) -> None:
        for name, values in (("xs", xs), ("ys", ys)):
            view = values.view()
            view.flags.writeable = False
            object.__setattr__(self, name, view)

    @property
    def n(self) -> int:
        """Pairs per sample."""
        return self.xs.shape[-1]

    @property
    def stacked(self) -> bool:
        """Whether this is a (B, n) stack, whose estimates come one per row."""
        return self.xs.ndim == 2


@dataclass(frozen=True)
class MarginIndex:
    """Order statistics, 1-based ranks and sorting order for the top of one
    margin, or of each row of a (B, n) stack of margins.

    ``order`` holds the positions of the ``depth`` largest values, ascending
    by value; ``ranks[i]`` is the rank of observation i among all n values;
    ``sorted`` is the ascending order-statistic vector, so
    ``sorted[n - depth:] == values[order]`` and
    ``ranks[order] == n - depth + 1 .. n``.  Ties are broken by original
    position (earlier index, smaller rank), so ranks are a permutation of
    1..n and ``sorted[ranks[i] - 1] == values[i]`` wherever the index
    reaches.  On a stack each array gains a leading row axis and every
    statement holds row by row.

    A full index (``depth == n``) is the stable argsort.  A tail index
    (``depth < n``) orders only the observations at or above a cut value,
    all of them, so every tie at the cut lies inside it and its ranks and
    sorted values equal the full index's on the whole tail.  Below the tail
    ``ranks`` holds the sentinel 0 and ``sorted`` holds -inf, so
    ``sorted[n - c]`` still indexes the c-th largest value within the tail.
    Each row of a stack is cut at its own value, so its tail may be longer
    than another's; ``order`` keeps the top ``depth`` of every row, where
    ``depth`` is the shortest row's tail.
    ``ranks`` are int32 (n < 2**31), built on first read, from where each
    kept value lives in a (rows, n + 1) layout (``_home``), and kept in the
    instance dict: the estimators read those of the x margin alone.
    """

    sorted: np.ndarray
    order: np.ndarray
    _home: np.ndarray = field(repr=False)

    @property
    def ranks(self) -> np.ndarray:
        if "ranks" not in self.__dict__:  # two threads may both build them, equal
            (rows, width), n = self._home.shape, self.n
            # column c of a sorted row holds rank n - width + 1 + c
            ranks = np.zeros((rows, n + 1), dtype=np.int32)
            ranks.ravel()[self._home] = np.arange(n - width + 1, n + 1, dtype=np.int32)
            self.__dict__["ranks"] = ranks[:, :n] if self.sorted.ndim == 2 else ranks[0, :n]
        return self.__dict__["ranks"]

    @property
    def n(self) -> int:
        return self.sorted.shape[-1]

    @property
    def depth(self) -> int:
        """How many of the largest values the index orders in every row; n
        for a full index."""
        return self.order.shape[-1]

    def ranked(self, count: int) -> np.ndarray:
        """Positions of the ``count`` highest-ranked observations, highest first.

        This is the package's one tie rule for a conditioning event: among
        equal values, the later observation ranks higher.  The first c
        entries are the c highest-ranked observations, so one call serves
        every conditioning set of a k-range.  A ``count`` beyond the tail
        raises.  On a stack the positions come one row per margin.
        """
        if not 0 <= count <= self.n:
            raise ValueError(f"count must satisfy 0 <= count <= n={self.n}, got {count}")
        if count > self.depth:
            raise ValueError(
                f"count={count} reaches below the top {self.depth} that the index orders"
            )
        return self.order[..., self.depth - count :][..., ::-1]


def build_margin_index(values, depth: int | None = None, *, _checked: bool = False) -> MarginIndex:
    """Sort the top of one margin, or of each row of a (B, n) stack, and
    compute tie-broken ranks (``MarginIndex``).

    The cut is the ``depth``-th largest value; every observation at or
    above it is kept.  The kept values are sorted by numpy's default (SIMD)
    argsort, or stably, by position, where two in a row tie: the full
    sort's order on them.  A stack is cut row by row and sorted in one
    call, so each row's index is the one its row would get alone.

    ``covar_coes.estimate_k_range`` builds depth k_max + 2 of each margin
    of its stack, whose values are checked finite already (``_checked``);
    ``data_io.diagnostics_export`` builds each margin of its checked sample
    to the depth its three curves read.

    Args:
        values: nonempty finite reals, 1-D, or 2-D with one margin per
            row, fewer than 2**31 per row.
        depth: how many of the largest values must be ordered, at least 1;
            None, or any depth >= n, gives the full index.

    Returns:
        MarginIndex with the order statistics and ranks of the tail, with a
        leading row axis for a stack.
    """
    arr = np.asarray(values, dtype=float)
    if arr.ndim not in (1, 2):
        raise ValueError("values must be one-dimensional, or a two-dimensional stack")
    if arr.size == 0:
        raise ValueError("values must be nonempty")
    stack = arr.reshape(-1, arr.shape[-1])
    rows, n = stack.shape
    if n >= 2**31:  # the int32 ranks reach n
        raise ValueError(f"values must number fewer than 2**31 per row, got n={n}")
    if not _checked and not np.isfinite(arr).all():
        raise ValueError("values must be finite")
    if depth is not None and _whole_number(depth, "depth") < 1:
        raise ValueError(f"depth must be at least 1, got {depth}")
    # each row's cut, its depth-th largest value (its minimum at depth >= n), by one partition
    at = 0 if depth is None else max(n - int(depth), 0)
    # the kept observations, grouped by row, each row in position order
    kept = np.flatnonzero(stack >= np.partition(stack, at, axis=-1)[:, at, None])
    row = kept // n
    tails = np.bincount(row, minlength=rows)
    width = int(tails.max())
    # each row's kept values, right-aligned in a row as wide as the widest
    # tail after -inf pads, which sort first; the order among pads is
    # immaterial, as they share one value and one home
    at = np.arange(kept.size) + np.repeat(np.arange(rows) * width + width - np.cumsum(tails), tails)
    padded = np.full(rows * width, -np.inf)
    padded[at] = stack.ravel()[kept]
    # where each entry lives in a (rows, n + 1) layout; a pad lives in its
    # row's spare last column
    home = np.repeat(np.arange(rows) * (n + 1) + n, width)
    home[at] = kept + row
    offsets = np.arange(0, rows * width, width)[:, None]
    for kind in (None, "stable"):
        by_value = np.argsort(padded.reshape(rows, width), axis=1, kind=kind) + offsets
        ascending = padded[by_value]
        # the default sort orders equal values arbitrarily: where two kept
        # values of a row tie, the stable sort puts the earlier first
        if kind or not ((ascending[:, 1:] == ascending[:, :-1]) & (ascending[:, 1:] > -np.inf)).any():
            break
    sorted_values = np.full((rows, n), -np.inf)
    sorted_values[:, n - width :] = ascending
    home = home[by_value]
    order = home[:, width - int(tails.min()) :] - np.arange(0, rows * (n + 1), n + 1)[:, None]
    lead = 0 if arr.ndim == 1 else slice(None)  # one margin's index has no row axis
    return MarginIndex(sorted=sorted_values[lead], order=order[lead], _home=home)


def _check_reach(indexes, reach: int, reader: str) -> None:
    """Raise unless every index orders the top ``reach`` of its margin."""
    depth = min(index.depth for index in indexes)
    if depth < reach:
        raise ValueError(f"{reader} reads the top {reach}, below the top {depth} that the index orders")


def _whole_number(value, name: str) -> int:
    """``value`` as an int; integral floats such as 1000.0 pass, while 1000.7,
    bools and non-numbers such as "1000" raise."""
    whole = isinstance(value, numbers.Integral) or (
        isinstance(value, numbers.Real) and float(value).is_integer()
    )
    if not whole or isinstance(value, bool):
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    return int(value)


def check_tail(n: int, k, tau_prime: float | None = None) -> int | None:
    """Check (n, k, tau_prime); for one k, return m = ceil(k^2 / n), which
    lies in [1, k].

    This is the package's one check of a tail configuration.  ``k`` is one
    integer k or a k-range, a nonempty ``range`` of step 1; anything else
    raises, unread.  The checks run in a fixed order and the first that
    fails raises: n >= 2, then tau_prime in (0, 1) by ``check_level``
    (skipped for intermediate-only use, tau_prime None), then 1 <= k < n at
    the range's first k that breaks it.  A range is read at its two ends,
    never built: a rolling window's range may be wider than any sample.

    Raises:
        ValueError: the first failing check.
    """
    if n < 2:
        raise ValueError(f"sample size must be >= 2, got n={n}")
    if tau_prime is not None:
        check_level(tau_prime, "tau_prime")
    one = isinstance(k, numbers.Integral)
    ks = range(k, k + 1) if one else k
    if not isinstance(ks, range) or ks.step != 1:
        shape = repr(k) if isinstance(k, range) else type(k).__name__
        raise ValueError(f"k must be an integer or a range of step 1, got {shape}")
    if not ks:
        raise ValueError("need at least one k value")
    # the valid k are 1 .. n - 1, so the first invalid k is the first k, or n
    if ks.start < 1 or ks.stop > n:
        first = ks.start if ks.start < 1 else max(ks.start, n)
        raise ValueError(f"k must satisfy 1 <= k < n, got k={first} with n={n}")
    return (k * k + n - 1) // n if one else None  # exact integer arithmetic


def check_level(level, name: str) -> None:
    """Raise, naming the level ``name``, unless it is a real number in
    (0, 1): the one rule for tau_prime and every tau."""
    if not (isinstance(level, numbers.Real) and 0.0 < level < 1.0):
        raise ValueError(f"{name} must lie in (0, 1), got {level}")
