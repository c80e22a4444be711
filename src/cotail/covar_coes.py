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
``estimate_all`` is its one-k case on one sample.  ``estimate_k_range``
takes a stack of samples, and one sample is a stack of one: only
``estimate_all`` and ``data_io.estimate_with_k_values`` unwrap its one
row.  The (row, k) grid (values, failures, fired warnings) comes from
whole-array passes, sized by ``_MATRIX_CELLS``, the one cell budget for
every stack and block of k; an error is built only for a cell that fails.
A k-range is a ``range`` of step 1 that ``core.check_tail`` checks: a k
outside [1, n - 1] raises and is never a cell; d, m and ``small_k`` /
``d_below_one`` are derived here.
``KRangeEstimates.outcomes`` reads each row as its ``Outcome``, the one
shape of a rolling window and of a Monte Carlo replication: the values
averaged over the k that succeed with the warning codes, or the coded
error of a row whose every k fails.  It is the one k-average.
``KRangeEstimates._warning`` words every warning of the five
``WARNING_CODES``, and ``first_warnings`` the k-range warning
``k_partial``, only where a record is asked for.  ``RECORD_KEYS`` is the
one flat schema of a row.
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

# a row's k-averaged values and warning codes, or its error (``KRangeEstimates.outcomes``)
Outcome = tuple[list[float], tuple[str, ...]] | EstimationError


@dataclass(frozen=True, eq=False)
class KRangeEstimates:
    """Every estimator at every k of a k-range on each row of a stack; one
    sample is a stack of one.

    Each array has a leading row axis, one row per sample, then runs over
    ``ks``; a cell is one row and k.  ``values`` holds each cell's
    ``RECORD_KEYS`` values, ``fired`` whether each warning of
    ``WARNING_CODES`` fired and ``quoted`` what those warnings quote:
    Y_(n-k,n) and the raw variant-1 eta-hat value (only variant 1 can be
    floored).  ``failed`` marks the cells that fail; they hold NaN and
    False.  ``errors`` maps the index (row, i) of each failed cell to what
    ``estimate_all`` raises there, an ``EstimationError`` with its code.
    ``n`` and ``tau_prime`` are the sample size and extrapolation level the
    warnings quote.
    """

    ks: range
    values: np.ndarray
    fired: np.ndarray
    quoted: np.ndarray
    failed: np.ndarray
    errors: dict
    n: int
    tau_prime: float

    def first_met(self) -> list[list[tuple[int, int]]]:
        """For each row, each warning that fires on some k, once, as (the
        index of the first such k, its column of ``WARNING_CODES``), in the
        order a walk over the k meets them."""
        firsts, hits = self.fired.argmax(axis=1).tolist(), self.fired.any(axis=1).tolist()
        return [
            sorted((i, column) for column, (i, hit) in enumerate(zip(row_firsts, row_hits)) if hit)
            for row_firsts, row_hits in zip(firsts, hits)
        ]

    def first_warnings(self) -> list[list[WarningRecord]]:
        """For each row, the ``first_met`` warnings, each with the message
        of its first k, then ``k_partial``, listing each failed k with its
        reason, if some but not all k fail."""
        warnings = []
        for row, cells in enumerate(self.first_met()):
            warnings.append([self._warning(row, i, column) for i, column in cells])
            failures = self._failures(row)
            if 0 < len(failures) < len(self.ks):
                excluded = f"{len(failures)} of {len(self.ks)} k values failed and were excluded"
                warnings[row].append(WarningRecord("k_partial", f"{excluded}: {'; '.join(failures)}"))
        return warnings

    def outcomes(self) -> list[Outcome]:
        """Each row's ``Outcome``: its ``RECORD_KEYS`` values averaged over
        the k that succeed (at one k, the values themselves, bit for bit)
        and its warning codes, each once in ``first_met`` order, then
        ``k_partial`` if some k fail; nothing is worded.  A row whose every
        k fails gets an ``EstimationError`` with its first k's code and
        each k's "k=K: reason".  Rows that share a count of succeeded k
        share one mean."""
        succeeded = ~self.failed
        counts = succeeded.sum(axis=1)
        means: list = [None] * len(counts)
        for count in np.unique(counts[counts > 0]).tolist():
            rows = np.flatnonzero(counts == count).tolist()
            kept = self.values[succeeded & (counts == count)[:, None]].reshape(len(rows), count, len(RECORD_KEYS))
            # one contiguous row per field of each sample: numpy then sums each
            # field pairwise over the succeeded k, exactly as np.mean sums a
            # list of that field's values, whichever samples share the call
            for row, mean in zip(rows, np.ascontiguousarray(kept.transpose(0, 2, 1)).mean(axis=-1).tolist()):
                means[row] = mean
        outcomes: list[Outcome] = []
        for row, (mean, met, count) in enumerate(zip(means, self.first_met(), counts.tolist())):
            if count:
                partial = ("k_partial",) if count < len(self.ks) else ()
                outcomes.append((mean, tuple(WARNING_CODES[column] for _, column in met) + partial))
            else:  # the code of the first k
                outcomes.append(EstimationError(self.errors[row, 0].code, "; ".join(self._failures(row))))
        return outcomes

    def _failures(self, row: int) -> list[str]:
        """"k=K: reason" for each k that fails in row ``row``."""
        return [f"k={self.ks[i]}: {self.errors[row, i]}" for i in np.flatnonzero(self.failed[row]).tolist()]

    def _warning(self, row: int, i: int, column: int) -> WarningRecord:
        """The ``WARNING_CODES[column]`` record of k = ``ks[i]`` in row
        ``row``: the one home of every warning text."""
        n, k = self.n, self.ks[i]
        values, quoted = self.values[row, i].tolist(), self.quoted[row, i].tolist()
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


def _stack_rows(n: int, ks: range) -> int:
    """How many samples of n pairs one ``estimate_k_range`` stack holds at
    the k-range ``ks``: the cell budget over the larger of one margin and
    one sample's rank matrix, so that the stack's largest arrays stay
    within ``_MATRIX_CELLS`` cells."""
    width = min(ks[-1], n) + 1
    return max(1, _MATRIX_CELLS // max(n, len(ks) * width))


def tail_depth(ks: range) -> int:
    """How many of the largest values of each margin ``estimate_k_range``
    reads at the k-range ``ks``: k_max + 2.  The tie check at k_max reads
    Y_(n-k_max-2,n), and X-ranks that deep change no eta-hat
    (``filtered_x_ranks``).  A window whose two tails at this depth do not
    change keeps its estimates (``data_io.rolling_estimates``)."""
    return ks[-1] + 2


def estimate_k_range(sample: LossPairSample, ks: range, tau_prime: float) -> KRangeEstimates:
    """Every intermediate and extrapolated estimator at every k of ``ks``.

    With d = k/(n(1 - tau')), CoVaR variants 1-2 are
    d^(2 gamma) * eta^(-gamma) * VaR_X, variant 3 is d^(2 gamma) * CoVaR_int,
    CoES variants 1-3 are CoVaR/(1 - gamma) and variant 4 is
    d^(2 gamma) * CoES_int.  Every order statistic of every k comes from one
    pass over arrays: the X-ranks of the k_max + 1 largest system losses by
    rank (``filtered_x_ranks``) and one cumulative sum of log order
    statistics (Hill); only these closed forms are evaluated k by k.  They
    read the top ``tail_depth(ks)`` = k_max + 2 of each margin and no
    deeper, so each margin is sorted to that depth only
    (``build_margin_index``): every array read is a function of the two
    tails.  Each row of a stack gets, bit for bit, the result it gets
    alone.  A wide range is cut into blocks of k whose rank matrices stay
    below ``_MATRIX_CELLS`` entries; no result depends on the blocks.
    ``check_tail`` raises at an invalid n, tau' or k-range ``ks``.  A valid
    k fails, in this order, when X_(n-k,n) is not positive, when gamma1
    lies outside (0, 1) (the variant 1-3 extrapolations are undefined) or
    when eta-hat is not attained; its failure is recorded as an
    ``EstimationError``, not raised.
    """
    n = sample.n
    check_tail(n, ks, tau_prime)
    k_array = np.arange(ks.start, ks.stop, dtype=np.int64)  # a narrow dtype would overflow k^2
    m_array = (k_array * k_array + n - 1) // n  # each k's m = ceil(k^2 / n), as in check_tail
    depth = tail_depth(ks)
    # a 1-D sample is a stack of one, and a sample's values are checked finite already
    x_index, y_index = (build_margin_index(v.reshape(-1, n), depth, _checked=True) for v in (sample.xs, sample.ys))
    x_sorted, y_sorted = x_index.sorted, y_index.sorted
    stack = x_sorted.shape[0]
    values = np.empty((stack, len(ks), len(RECORD_KEYS)))
    fired = np.empty((stack, len(ks), len(WARNING_CODES)), dtype=bool)
    quoted = np.empty((stack, len(ks), 2))
    # each cell's failure: 0 where it succeeds, else the first check that fails
    reasons = np.empty((stack, len(ks)), dtype=np.int8)
    # each block of k shares one (stack, k, k_max + 1) rank matrix; blocks bound its size
    block = max(1, _MATRIX_CELLS // (stack * (depth - 1)))
    for start in range(0, len(ks), block):
        part = slice(start, start + block)
        part_ks, part_ms = k_array[part], m_array[part]
        selected, ranks1, ranks2 = filtered_x_ranks(x_index, y_index, part_ks, part_ms)
        covar_int, coes_int = _intermediate(x_index, part_ks, part_ms, selected, ranks1)
        gamma, var_x = _hill(x_index, part_ks), x_sorted[:, n - part_ks - 1]
        raw1, eta1, clamped, attained1 = _eta(n, part_ks, 1, ranks1)
        _, eta2, _, attained2 = _eta(n, part_ks, 2, ranks2)
        # the first check that fails each cell, in order (1-3), or 0
        reasons[:, part] = np.where(
            var_x <= 0.0, 1, np.where((0.0 < gamma) & (gamma < 1.0), np.where(attained1 & attained2, 0, 3), 2)
        )
        done = reasons[:, part] == 0
        d = part_ks / (n * (1.0 - tau_prime))
        # the powers run on Python floats, and only where the k succeeds (a
        # failed cell's power may overflow): numpy's ** differs from the C
        # library's pow in the last bit on a few percent of pairs
        cells = np.nonzero(done)
        twice, negated = (2.0 * gamma[cells]).tolist(), (-gamma[cells]).tolist()
        powers = np.empty((3, *done.shape))  # a failed cell's is never set: its values are cleared below
        bases = (d[cells[1]], eta1[cells], eta2[cells])
        for power, column, exponent in zip(powers, bases, (twice, negated, negated)):
            power[cells] = list(map(pow, column.tolist(), exponent))
        base, pow1, pow2 = powers
        # the failed cells take part in the arithmetic and are cleared below
        with np.errstate(all="ignore"):
            covar1, covar2, covar3 = base * pow1 * var_x, base * pow2 * var_x, base * covar_int
            spread = 1.0 - gamma
            columns = (gamma, var_x, eta1, eta2, covar_int, coes_int, covar1, covar2, covar3,
                       covar1 / spread, covar2 / spread, covar3 / spread, base * coes_int)
        for column, value in enumerate(columns):
            values[:, part, column] = value
        y_at = y_sorted[:, n - part_ks - 1]
        # Y_(n-k-1,n) wraps to the maximum at k = n - 1, where no tie is possible
        ties = (part_ks < n - 1) & (y_sorted[:, n - part_ks - 2] == y_at)
        for column, flag in enumerate((part_ks < n ** (2.0 / 3.0), d < 1.0, ties, clamped, gamma >= 0.5)):
            fired[:, part, column] = flag
        quoted[:, part, 0], quoted[:, part, 1] = y_at, raw1
    # an error is built only for a cell that fails, before its values are cleared
    errors = {}
    rows, columns = np.nonzero(reasons)
    for row, i, reason in zip(rows.tolist(), columns.tolist(), reasons[rows, columns].tolist()):
        if reason == 1:
            threshold = values[row, i, 1].item()
            message = f"threshold order statistic X_({n - ks[i]},{n}) = {threshold} is not positive"
            error = EstimationError("threshold_not_positive", message)
        elif reason == 2:
            gamma = values[row, i, 0].item()
            message = f"tail index estimate gamma1={gamma:.4f} outside (0, 1); extrapolation is invalid"
            error = EstimationError("hill_out_of_range", message)
        else:
            error = _not_attained(ks[i], n)
        errors[row, i] = error
    failed = reasons != 0
    values[failed], fired[failed], quoted[failed] = np.nan, False, np.nan
    return KRangeEstimates(ks, values, fired, quoted, failed, errors, n, tau_prime)


def estimate_all(sample: LossPairSample, k: int, tau_prime: float) -> RiskEstimates:
    """Every intermediate and extrapolated estimator at one k on one
    sample: the one-row case of ``estimate_k_range``, with its warnings
    worded.  A stack is estimated by ``estimate_k_range``.

    Raises:
        EstimationError: X_(n-k,n) not positive, gamma1 outside (0, 1), or
            eta-hat not attained (see ``estimate_k_range``).
        ValueError: an invalid k or tau_prime, or a stacked sample.
    """
    if sample.stacked:
        raise ValueError("estimate_all takes one sample; estimate a stack with estimate_k_range")
    result = estimate_k_range(sample, range(k, k + 1), tau_prime)
    if result.failed[0, 0]:
        raise result.errors[0, 0]
    return RiskEstimates(*result.values[0, 0].tolist(), warnings=tuple(result.first_warnings()[0]))


def _intermediate(
    x_index: MarginIndex, ks: np.ndarray, ms: np.ndarray, rows: np.ndarray, r1: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(CoVaR, CoES) at level 1 - k/n for each k of each row of a stacked
    index, from ``filtered_x_ranks``.

    CoVaR is the (k+2-m)-th smallest filtered X value, the X order
    statistic at the m-th largest filtered X-rank r1; CoES is
    (n/k^2) * sum of the filtered X values >= CoVaR, smallest first.  On a
    tail index both are exact wherever r1 lies in the tail: the tail holds
    every X tied with CoVaR, and a filtered X below the tail is < CoVaR
    and adds nothing.  Where r1 is the sentinel 0, eta-hat is not attained
    and the pair is meaningless.
    """
    x_sorted = x_index.sorted
    lead = np.arange(len(x_sorted))[:, None]
    covar = x_sorted[lead, r1 - 1]
    # the filtered X >= CoVaR end each ascending row: the m at ranks >= r1
    # and any lower rank tied with CoVaR.  The last max(m) + 1 columns hold
    # them all unless a tie reaches the first of these; then every column
    full = rows.shape[-1]
    for width in (min(int(ms.max()) + 1, full), full):
        last = rows[..., full - width :]
        filtered = x_sorted[lead[..., None], last - 1]
        # rank 0 is padding or lies below the tail
        joint = (last > 0) & (filtered >= covar[..., None])
        if width == full or not joint[..., 0].any():
            break
    # a sequential sum over each ascending row: the zeros before the joint
    # values add exactly nothing, so the sum at one k is the same float
    # whichever columns or other k share the matrix
    return covar, x_index.n / (ks * ks) * np.where(joint, filtered, 0.0).cumsum(axis=-1)[..., -1]
