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
``estimate_all`` is its one-k case.  Both take a stack of samples as well
as one sample, and run their array passes once for the whole stack;
``_MATRIX_CELLS`` is the one cell budget that sizes every stack and
block of k.  Each k is checked by
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


@dataclass(frozen=True, eq=False)
class KRangeEstimates:
    """Every estimator at every k of a k-range on one sample, one row per k.

    ``errors[i]`` is what ``estimate_all`` raises at k = ``ks[i]`` (an
    ``EstimationError`` with its code, or a plain ``ValueError`` for an
    invalid k), or None.  Row i of ``values`` holds the ``RECORD_KEYS``
    values at that k, row i of ``fired`` whether each warning of
    ``WARNING_CODES`` fired, and row i of ``quoted`` what those warnings
    quote: Y_(n-k,n) and the raw variant-1 eta-hat value (only variant 1
    can be floored); a failed k's rows hold NaN and False.  ``n`` and
    ``tau_prime`` are the sample size and extrapolation level the warnings
    quote.
    """

    ks: list[int]
    errors: tuple[ValueError | None, ...]
    values: np.ndarray
    fired: np.ndarray
    quoted: np.ndarray
    n: int
    tau_prime: float

    def first_warnings(self) -> list[WarningRecord]:
        """Each warning code once, in the order a walk over the succeeded
        rows in k order meets it, with the message of its first row."""
        hits = self.fired.any(axis=0).tolist()
        first_rows = self.fired.argmax(axis=0).tolist()
        firsts = sorted((row, column) for column, (row, hit) in enumerate(zip(first_rows, hits)) if hit)
        return [self._warning(row, column) for row, column in firsts]

    def _warning(self, row: int, column: int) -> WarningRecord:
        """The ``WARNING_CODES[column]`` record of row ``row``: the one home
        of every warning text."""
        n, k = self.n, self.ks[row]
        values, quoted = self.values[row].tolist(), self.quoted[row].tolist()
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


_MATRIX_CELLS = 1 << 15


def _stack_rows(n: int, ks) -> int:
    """How many samples of n pairs one ``estimate_k_range`` stack holds at
    the k values ``ks``: the cell budget over the larger of one margin and
    one sample's rank matrix, so that the stack's largest arrays stay
    within ``_MATRIX_CELLS`` cells."""
    width = min(max(ks), n) + 1
    return max(1, _MATRIX_CELLS // max(n, len(ks) * width))


def estimate_k_range(
    sample: LossPairSample, ks, tau_prime: float
) -> KRangeEstimates | list[KRangeEstimates]:
    """Every intermediate and extrapolated estimator at every k of ``ks``.

    With d = k/(n(1 - tau')), CoVaR variants 1-2 are
    d^(2 gamma) * eta^(-gamma) * VaR_X, variant 3 is d^(2 gamma) * CoVaR_int,
    CoES variants 1-3 are CoVaR/(1 - gamma) and variant 4 is
    d^(2 gamma) * CoES_int.  Every order statistic of every k comes from one
    pass over arrays: the X-ranks of the k_max + 1 largest system losses by
    rank (``filtered_x_ranks``) and one cumulative sum of log order
    statistics (Hill); only these closed forms are evaluated k by k.  They
    read the top k_max + 2 of each margin and no deeper, so each margin is
    sorted to that depth only (``build_margin_index``).  A stacked sample
    runs each of these array passes once for all its rows and gives one
    ``KRangeEstimates`` per row, in a list, each the result that row gets
    alone; a 1-D sample is a stack of one.  A wide range is cut into
    blocks of k whose rank matrices stay below ``_MATRIX_CELLS`` entries;
    no result depends on the blocks.  An n below 2 or a tau' outside
    (0, 1) raises once.  A k fails, in this order, when it is invalid, when
    X_(n-k,n) is not positive, when gamma1 lies outside (0, 1) (the
    variant 1-3 extrapolations are undefined) or when eta-hat is not
    attained; its failure is recorded, not raised.
    """
    ks = np.asarray(ks)
    if ks.ndim != 1 or ks.size == 0:
        raise ValueError("need at least one k value")
    if ks.dtype.kind not in "iu":
        raise ValueError(f"k values must be integers, got {ks.tolist()}")
    n = sample.n
    check_tail(n, 1, tau_prime)  # n and tau' do not depend on k: one error, not one per k
    ks = ks.tolist()
    k_errors: list = [None] * len(ks)
    ms = [0] * len(ks)
    for i, k in enumerate(ks):
        try:
            ms[i] = check_tail(n, k, tau_prime)
        except ValueError as error:
            k_errors[i] = error
    live = [i for i, error in enumerate(k_errors) if error is None]
    k_max = max((ks[i] for i in live), default=0)
    x_index, y_index = (build_margin_index(np.atleast_2d(v), k_max + 2) for v in (sample.xs, sample.ys))
    x_sorted, y_sorted = x_index.sorted, y_index.sorted
    stack = x_sorted.shape[0]
    errors = [list(k_errors) for _ in range(stack)]
    values = np.full((stack, len(ks), len(RECORD_KEYS)), np.nan)
    fired = np.zeros((stack, len(ks), len(WARNING_CODES)), dtype=bool)
    quoted = np.full((stack, len(ks), 2), np.nan)
    # each block of k shares one (stack, k, k_max + 1) rank matrix; blocks bound its size
    block = max(1, _MATRIX_CELLS // (stack * (k_max + 1)))
    k_array, m_array = np.array(ks), np.array(ms)
    for start in range(0, len(live), block):
        part = np.array(live[start : start + block])
        part_ks, part_ms = k_array[part], m_array[part]
        selected, ranks1, ranks2 = filtered_x_ranks(x_index, y_index, part_ks, part_ms)
        covar_int, coes_int = _intermediate(x_index, part_ks, part_ms, selected, ranks1)
        gamma, var_x = _hill(x_index, part_ks), x_sorted[:, n - part_ks - 1]
        raw1, eta1, clamped, attained1 = _eta(n, part_ks, 1, ranks1)
        _, eta2, _, attained2 = _eta(n, part_ks, 2, ranks2)
        # the first check that fails each (sample, k), in this order, or 0;
        # an error record is built only where one fails
        failed = np.select(
            [var_x <= 0.0, ~((0.0 < gamma) & (gamma < 1.0)), ~(attained1 & attained2)], [1, 2, 3], 0
        )
        for row, j in zip(*(where.tolist() for where in np.nonzero(failed))):
            i = part[j].item()
            if failed[row, j] == 1:
                errors[row][i] = _threshold_not_positive(n, ks[i], var_x[row, j].item())
            elif failed[row, j] == 2:
                errors[row][i] = _hill_out_of_range(gamma[row, j].item())
            else:
                errors[row][i] = _not_attained(ks[i], n)
        done, j = np.nonzero(failed == 0)
        gamma, var_x, eta1, eta2, covar_int, coes_int = (
            c[done, j] for c in (gamma, var_x, eta1, eta2, covar_int, coes_int)
        )
        done_ks = part_ks[j]
        d = done_ks / (n * (1.0 - tau_prime))
        # the powers run on Python floats: numpy's ** differs from the C
        # library's pow in the last bit on a few percent of pairs
        gammas = gamma.tolist()
        base, pow1, pow2 = (
            np.array([x ** (sign * g) for x, g in zip(column.tolist(), gammas)], dtype=float)
            for column, sign in ((d, 2.0), (eta1, -1.0), (eta2, -1.0))
        )
        covar1, covar2, covar3 = base * pow1 * var_x, base * pow2 * var_x, base * covar_int
        spread = 1.0 - gamma
        at = (done, part[j])
        values[at] = np.stack(
            (gamma, var_x, eta1, eta2, covar_int, coes_int, covar1, covar2, covar3,
             covar1 / spread, covar2 / spread, covar3 / spread, base * coes_int),
            axis=-1,
        )
        y_at = y_sorted[done, n - done_ks - 1]
        # Y_(n-k-1,n) wraps to the maximum at k = n - 1, where no tie is possible
        ties = (done_ks < n - 1) & (y_sorted[done, n - done_ks - 2] == y_at)
        fired[at] = np.stack(
            (done_ks < n ** (2.0 / 3.0), d < 1.0, ties, clamped[done, j], gamma >= 0.5), axis=-1
        )
        quoted[at] = np.stack((y_at, raw1[done, j]), axis=-1)
    results = [
        KRangeEstimates(ks, tuple(e), v, f, q, n, tau_prime)
        for e, v, f, q in zip(errors, values, fired, quoted)
    ]
    return results if sample.stacked else results[0]


def _threshold_not_positive(n: int, k: int, threshold: float) -> EstimationError:
    return EstimationError(
        "threshold_not_positive",
        f"threshold order statistic X_({n - k},{n}) = {threshold} is not positive",
    )


def _hill_out_of_range(gamma: float) -> EstimationError:
    return EstimationError(
        "hill_out_of_range",
        f"tail index estimate gamma1={gamma:.4f} outside (0, 1); extrapolation is invalid",
    )


def estimate_all(
    sample: LossPairSample, k: int, tau_prime: float
) -> RiskEstimates | list[RiskEstimates | ValueError]:
    """Every intermediate and extrapolated estimator at one k: the one-row
    case of ``estimate_k_range``.

    On a stacked sample nothing is raised per row: the list holds each
    row's estimates, or the error that row raises alone.

    Raises:
        EstimationError: X_(n-k,n) not positive, gamma1 outside (0, 1), or
            eta-hat not attained (see ``estimate_k_range``).
        ValueError: an invalid k or tau_prime.
    """
    result = estimate_k_range(sample, (k,), tau_prime)
    if sample.stacked:
        return [_one_k(row) for row in result]
    outcome = _one_k(result)
    if isinstance(outcome, ValueError):
        raise outcome
    return outcome


def _one_k(result: KRangeEstimates) -> RiskEstimates | ValueError:
    """The estimates of a one-k result, or its error."""
    if result.errors[0] is not None:
        return result.errors[0]
    # with one row, each fired code is met once, in column order
    return RiskEstimates(*result.values[0].tolist(), warnings=tuple(result.first_warnings()))


def _intermediate(
    x_index: MarginIndex, ks: np.ndarray, ms: np.ndarray, rows: np.ndarray, r1: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(CoVaR, CoES) at level 1 - k/n for each k, from ``filtered_x_ranks``,
    with a leading row axis on stacked indexes.

    CoVaR is the (k+2-m)-th smallest filtered X value, the X order
    statistic at the m-th largest filtered X-rank r1; CoES is
    (n/k^2) * sum of the filtered X values >= CoVaR, smallest first.  On a
    tail index both are exact wherever r1 lies in the tail: the tail holds
    every X tied with CoVaR, and a filtered X below the tail is < CoVaR
    and adds nothing.  Where r1 is the sentinel 0, eta-hat is not attained
    and the pair is meaningless.
    """
    x_sorted = x_index.sorted
    covar = np.take_along_axis(x_sorted, r1 - 1, axis=-1)
    # the filtered X >= CoVaR end each ascending row: the m at ranks >= r1
    # and any lower rank tied with CoVaR.  The last max(m) + 1 columns hold
    # them all unless a tie reaches the first of these; then every column
    full = rows.shape[-1]
    for width in (min(int(ms.max()) + 1, full), full):
        last = rows[..., full - width :]
        filtered = np.take_along_axis(x_sorted[..., None, :], last - 1, axis=-1)
        # rank 0 is padding or lies below the tail
        joint = (last > 0) & (filtered >= covar[..., None])
        if width == full or not joint[..., 0].any():
            break
    # a sequential sum over each ascending row: the zeros before the joint
    # values add exactly nothing, so the sum at one k is the same float
    # whichever columns or other k share the matrix
    return covar, x_index.n / (ks * ks) * np.where(joint, filtered, 0.0).cumsum(axis=-1)[..., -1]
