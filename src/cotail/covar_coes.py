"""Intermediate and extrapolated CoVaR/CoES estimators.

The intermediate estimators work at level 1 - k/n on the filtered
subsample: the X values of the k+1 observations with the largest system
loss, the first k+1 of ``y_index.ranked`` (Y >= Y_(n-k,n); a tie there
is broken by rank and reported as a ``ties_at_threshold`` warning).
``estimate_k_range`` is the one code that applies the extrapolations: it
pushes the estimates at every k of a k-range to an extreme level tau' with
the Hill estimate, the factor d^(2 gamma) and either an adjustment factor
(variants 1-2) or the intermediate estimate itself (variants 3-4).  All k
share one selection on two tail indexes built once per call, and
``estimate_all`` is its one-k case.  Each k is checked by
``core.check_tail``; d and the ``small_k`` / ``d_below_one`` conditions are
derived here, and ``KRangeEstimates`` words every warning of the five
``WARNING_CODES``, one code per condition.  ``RECORD_KEYS`` is the one flat
schema of a row.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .core import EstimationError, LossPairSample, MarginIndex, WarningRecord, build_margin_index, check_tail
from .empirical import _hill
from .tail_copula import _eta, _not_attained, filtered_x_ranks


@dataclass(frozen=True)
class RiskEstimates:
    """Every estimator for one (sample, k, tau') in a single record.

    The fields before ``warnings`` are the record schema, ``RECORD_KEYS``, in
    output order: gamma-hat, VaR_X, the two eta-hat variants, the intermediate
    CoVaR/CoES, then the extrapolated CoVaR variants 1-3 and CoES variants
    1-4 (``coes{i} = covar{i} / (1 - gamma1)`` for i <= 3 by construction).
    ``warnings`` aggregates the structured non-fatal conditions met along the
    way.
    """

    gamma1: float
    var_x: float
    eta1: float
    eta2: float
    covar_int: float
    coes_int: float
    covar1: float
    covar2: float
    covar3: float
    coes1: float
    coes2: float
    coes3: float
    coes4: float
    warnings: tuple[WarningRecord, ...]

    def to_record(self) -> dict[str, float]:
        """Flat mapping keyed by ``RECORD_KEYS``, in that order."""
        return {key: getattr(self, key) for key in RECORD_KEYS}


RECORD_KEYS = tuple(f.name for f in fields(RiskEstimates) if f.name != "warnings")
ESTIMATOR_NAMES = RECORD_KEYS[6:]


WARNING_CODES = ("small_k", "d_below_one", "ties_at_threshold", "eta_clamped", "gamma_above_half")


@dataclass(frozen=True)
class KRangeEstimates:
    """Every estimator at every k of a k-range on one sample, one row per k.

    ``errors[i]`` is what ``estimate_all`` raises at k = ``ks[i]`` (an
    ``EstimationError`` with its code, or a plain ``ValueError`` for an
    invalid k), or None.  ``rows[i]`` is None where that k failed and
    otherwise holds its ``RECORD_KEYS`` values, whether each warning of
    ``WARNING_CODES`` fired, and what those warnings quote: Y_(n-k,n) and
    the raw variant-1 eta-hat value (only variant 1 can be floored).  ``n``
    and ``tau_prime`` are the sample size and extrapolation level the
    warnings quote.
    """

    ks: list[int]
    errors: tuple[ValueError | None, ...]
    rows: tuple[tuple[tuple[float, ...], tuple[bool, ...], tuple[float, ...]] | None, ...]
    n: int
    tau_prime: float

    def first_warnings(self) -> list[WarningRecord]:
        """Each warning code once, in the order a walk over the succeeded
        rows in k order meets it, with the message of its first row."""
        first: dict[int, WarningRecord] = {}
        for i, row in enumerate(self.rows):
            for column, fired in enumerate(row[1] if row is not None else ()):
                if fired and column not in first:
                    first[column] = self._warning(i, column)
        return list(first.values())

    def _warning(self, row: int, column: int) -> WarningRecord:
        """The ``WARNING_CODES[column]`` record of row ``row``: the one home
        of every warning text."""
        n, k = self.n, self.ks[row]
        values, _, quoted = self.rows[row]
        code = WARNING_CODES[column]
        if code == "small_k":
            message = (
                f"k={k} is below n^(2/3)={n ** (2.0 / 3.0):.1f}; "
                "intermediate-order asymptotics are doubtful"
            )
        elif code == "d_below_one":
            message = (
                f"extrapolation ratio d={k / (n * (1.0 - self.tau_prime)):.4g} < 1: "
                f"tau_prime={self.tau_prime} is not beyond the intermediate level 1 - k/n"
            )
        elif code == "ties_at_threshold":
            message = (
                f"system losses tie at the threshold Y_(n-k,n)={quoted[0]}: the k+1 "
                "conditioning observations are chosen by rank, later ones first"
            )
        elif code == "eta_clamped":
            message = f"eta-hat variant 1 raw value {quoted[1]} floored at 1/(2k) = {values[2]}"
        else:
            message = (
                f"gamma1={values[0]:.4f} >= 1/2: the intermediate-CoES extrapolation "
                "(variant 4) is outside its supported regime"
            )
        return WarningRecord(code, message)


_MATRIX_CELLS = 1 << 20


def estimate_k_range(sample: LossPairSample, ks, tau_prime: float) -> KRangeEstimates:
    """Every intermediate and extrapolated estimator at every k of ``ks``.

    With d = k/(n(1 - tau')), CoVaR variants 1-2 are
    d^(2 gamma) * eta^(-gamma) * VaR_X, variant 3 is d^(2 gamma) * CoVaR_int,
    CoES variants 1-3 are CoVaR/(1 - gamma) and variant 4 is
    d^(2 gamma) * CoES_int.  Every order statistic of every k comes from one
    pass over arrays: the X-ranks of the k_max + 1 largest system losses by
    rank (``filtered_x_ranks``) and one cumulative sum of log order
    statistics (Hill); only these closed forms are evaluated k by k.  They
    read the top k_max + 2 of each margin and no deeper, so each margin is
    sorted to that depth only (``build_margin_index``).  A wide range is
    cut into blocks of k whose rank matrix stays below ``_MATRIX_CELLS``
    entries; no result depends on the blocks.  An n below 2 or a tau'
    outside (0, 1) raises once.  A k fails, in this order, when it is
    invalid, when X_(n-k,n) is not positive, when gamma1 lies outside
    (0, 1) (the variant 1-3 extrapolations are undefined) or when eta-hat
    is not attained; its failure is recorded, not raised.
    """
    ks = np.asarray(ks)
    if ks.ndim != 1 or ks.size == 0:
        raise ValueError("need at least one k value")
    if ks.dtype.kind not in "iu":
        raise ValueError(f"k values must be integers, got {ks.tolist()}")
    n = sample.n
    check_tail(n, 1, tau_prime)  # n and tau' do not depend on k: one error, not one per k
    ks = ks.tolist()
    errors: list = [None] * len(ks)
    ms = [0] * len(ks)
    for i, k in enumerate(ks):
        try:
            ms[i] = check_tail(n, k, tau_prime)
        except ValueError as error:
            errors[i] = error
    rows: list = [None] * len(ks)
    live = [i for i, error in enumerate(errors) if error is None]
    k_max = max((ks[i] for i in live), default=0)
    x_index, y_index = (build_margin_index(v, k_max + 2) for v in (sample.xs, sample.ys))
    x_sorted, y_sorted = x_index.sorted, y_index.sorted
    # each block of k shares one (k, k_max + 1) rank matrix; blocks bound its size
    block = max(1, _MATRIX_CELLS // (k_max + 1))
    for start in range(0, len(live), block):
        part = live[start : start + block]
        part_ks = np.array([ks[i] for i in part])
        part_ms = np.array([ms[i] for i in part])
        selected, ranks1, ranks2 = filtered_x_ranks(x_index, y_index, part_ks, part_ms)
        covar_int, coes_int = _intermediate(x_index, part_ks, selected, ranks1)
        columns = (_hill(x_index, part_ks), ranks1, ranks2, covar_int, coes_int)
        # the closed forms run on Python floats: at the few k of a range
        # that is cheaper than numpy's per-call cost on short arrays
        for i, gamma, r1, r2, covar_i, coes_i in zip(part, *(c.tolist() for c in columns)):
            k = ks[i]
            var_x = x_sorted.item(n - k - 1)
            if var_x <= 0.0:
                errors[i] = _threshold_not_positive(n, k, var_x)
                continue
            if not 0.0 < gamma < 1.0:
                errors[i] = EstimationError(
                    "hill_out_of_range",
                    f"tail index estimate gamma1={gamma:.4f} outside (0, 1); "
                    "extrapolation is invalid",
                )
                continue
            eta1, eta2 = _eta(n, k, 1, r1), _eta(n, k, 2, r2)
            if eta1 is None or eta2 is None:
                errors[i] = _not_attained(k, n)
                continue
            d = k / (n * (1.0 - tau_prime))
            base = d ** (2.0 * gamma)
            covar1 = base * eta1[1] ** (-gamma) * var_x
            covar2 = base * eta2[1] ** (-gamma) * var_x
            covar3 = base * covar_i
            spread = 1.0 - gamma
            y_at = y_sorted.item(n - k - 1)
            ties = k < n - 1 and y_sorted.item(n - k - 2) == y_at
            rows[i] = (
                (gamma, var_x, eta1[1], eta2[1], covar_i, coes_i, covar1, covar2, covar3,
                 covar1 / spread, covar2 / spread, covar3 / spread, base * coes_i),
                (k < n ** (2.0 / 3.0), d < 1.0, ties, eta1[2], gamma >= 0.5),
                (y_at, eta1[0]),
            )
    return KRangeEstimates(ks, tuple(errors), tuple(rows), n, tau_prime)


def _threshold_not_positive(n: int, k: int, threshold: float) -> EstimationError:
    return EstimationError(
        "threshold_not_positive",
        f"threshold order statistic X_({n - k},{n}) = {threshold} is not positive",
    )


def estimate_all(sample: LossPairSample, k: int, tau_prime: float) -> RiskEstimates:
    """Every intermediate and extrapolated estimator at one k: the one-row
    case of ``estimate_k_range``.

    Raises:
        EstimationError: X_(n-k,n) not positive, gamma1 outside (0, 1), or
            eta-hat not attained (see ``estimate_k_range``).
        ValueError: an invalid k or tau_prime.
    """
    result = estimate_k_range(sample, (k,), tau_prime)
    if result.errors[0] is not None:
        raise result.errors[0]
    # with one row, each fired code is met once, in column order
    return RiskEstimates(*result.rows[0][0], warnings=tuple(result.first_warnings()))


def _intermediate(
    x_index: MarginIndex, ks: np.ndarray, rows: np.ndarray, r1: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(CoVaR, CoES) at level 1 - k/n for each k, from ``filtered_x_ranks``.

    CoVaR is the (k+2-m)-th smallest filtered X value, the X order
    statistic at the m-th largest filtered X-rank r1; CoES is
    (n/k^2) * sum of the filtered X values >= CoVaR, smallest first.  On a
    tail index both are exact wherever r1 lies in the tail: the tail holds
    every X tied with CoVaR, and a filtered X below the tail is < CoVaR
    and adds nothing.  Where r1 is the sentinel 0, eta-hat is not attained
    and the pair is meaningless.
    """
    x_sorted = x_index.sorted
    covar = x_sorted[r1 - 1]
    # X >= CoVaR exactly at the ranks above the position of the first X equal
    # to CoVaR, which leaves out the 0 padding
    joint = np.where(rows > np.searchsorted(x_sorted, covar)[:, None], x_sorted[rows - 1], 0.0)
    # a sequential sum over each ascending row: the zeros before the joint
    # values add exactly nothing, so the sum at one k is the same float
    # whichever other k share the matrix
    return covar, x_index.n / (ks * ks) * joint.cumsum(axis=1)[:, -1]
