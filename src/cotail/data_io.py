"""Price-file ingestion, rolling-window estimation, and diagnostic exports.

Input files are CSV with header ``date,price`` (ISO-8601 date, positive
decimal price).  Each file is read whole and walked row by row with
``csv.reader``, which words the first bad row's error.
``load_pair_series`` joins two assets on their common day ordinals and
returns one ``LossPairSample`` of the negative log returns of the aligned
prices, with the date each loss ends on.  The rolling driver,
``rolling_estimates``, estimates a moving window of that sample, optionally
averaging the estimates over a range of k values, and keeps a window's
failure as its outcome instead of aborting; no warning is worded for a
window.  ``k_values`` is the one
reading of a k or (kmin, kmax) range as the k-range, a ``range`` of step
1, that every estimator takes, and ``format_tsv`` / ``write_text``
produce every TSV the package writes: floats as ``.10g``, UTF-8, LF line
endings.
"""

from __future__ import annotations

import csv
import datetime
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import LossPairSample, _whole_number, build_margin_index, check_tail
from .covar_coes import _MATRIX_CELLS, Outcome, RiskEstimates, _stack_rows, estimate_k_range, tail_depth
from .empirical import check_tau_grid, hill_curve, tail_prob_curve
from .tail_copula import r11_curve


@dataclass(frozen=True)
class RollingPlan:
    """Moving-window protocol: window length, k or (kmin, kmax), tau', step."""

    window: int
    k: int | tuple[int, int]
    tau_prime: float
    step: int = 1

    def __post_init__(self) -> None:
        for name in ("window", "step"):
            value = _whole_number(getattr(self, name), f"rolling field {name!r}")
            object.__setattr__(self, name, value)
        if self.step < 1:
            raise ValueError(f"step must be >= 1, got {self.step}")
        check_tail(self.window, k_values(self.k), self.tau_prime)


def k_values(k: int | tuple[int, int]) -> range:
    """The k values of a single k or of an inclusive range (kmin, kmax)."""
    lo, hi = (_whole_number(v, "k") for v in (k if isinstance(k, tuple) else (k, k)))
    if lo > hi:
        raise ValueError(f"empty k range ({lo}, {hi})")
    return range(lo, hi + 1)


_EPOCH = datetime.date(1970, 1, 1).toordinal()


def _load_price_file(path) -> tuple[np.ndarray, np.ndarray]:
    """Each data row's day ordinal and price, in file order, read row by
    row with ``csv.reader``; blank rows (no cell, or one blank cell) are
    skipped.  Raises the error of the first bad row, naming the line the
    row starts on, or of a file with no data rows: the one place a price
    file's errors are worded."""
    try:
        # utf-8-sig drops the byte-order mark that spreadsheet exports often write
        with open(path, newline="", encoding="utf-8-sig") as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:  # a ValueError that would not name the file
        raise ValueError(f"{path}: {exc}") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    table: dict[int, float] = {}  # price by day ordinal, in file order
    parse_date = datetime.date.fromisoformat  # looked up once, not per row
    try:
        header = next(reader, None)
        if header is None or [cell.strip().lower() for cell in header] != ["date", "price"]:
            raise ValueError(f"{path}: expected header 'date,price'")
        # a row starts on the line after the row before ends; a quoted cell may hold line ends
        start = reader.line_num + 1
        for row in reader:
            lineno, start = start, reader.line_num + 1
            if len(row) != 2:
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                raise ValueError(f"{path}:{lineno}: expected 2 fields, got {len(row)}")
            date_cell, price_cell = row
            try:
                day = parse_date(date_cell.strip())
                price = float(price_cell)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            if not 0.0 < price < math.inf:
                fault = "non-positive" if math.isfinite(price) else "non-finite"
                raise ValueError(f"{path}:{lineno}: {fault} price {price_cell.strip()}")
            ordinal = day.toordinal()
            if ordinal in table:
                raise ValueError(f"{path}:{lineno}: duplicate date {day}")
            table[ordinal] = price
    except csv.Error as exc:  # a cell over csv's field limit, or a NUL on Python 3.10
        raise ValueError(f"{path}:{reader.line_num}: {exc}") from None  # the line the reader stopped on
    if not table:
        raise ValueError(f"{path}: no data rows")
    return np.fromiter(table, np.int64, len(table)), np.fromiter(table.values(), float, len(table))


def load_pair_series(path_x, path_y) -> tuple[tuple[datetime.date, ...], LossPairSample]:
    """Load two price files and align them on their common dates.

    Returns the date each loss ends on (the common dates less the first)
    and the sample of negative log returns ``-diff(log(prices))``.
    """
    (ordinals_x, prices_x), (ordinals_y, prices_y) = _load_price_file(path_x), _load_price_file(path_y)
    common, at_x, at_y = np.intersect1d(ordinals_x, ordinals_y, assume_unique=True, return_indices=True)
    if not common.size:
        raise ValueError("empty intersection of dates between the two files")
    if common.size < 2:
        raise ValueError(f"need at least 2 overlapping dates, got {common.size}")
    # the log of a fresh array of the common prices, as numpy's log may
    # differ in the last bit with an element's place in its array
    xs, ys = (-np.diff(np.log(prices[at])) for prices, at in ((prices_x, at_x), (prices_y, at_y)))
    # ordinals to dates: numpy counts days from 1970-01-01 and lists them as dates
    dates = (common[1:] - _EPOCH).astype("datetime64[D]").tolist()
    return tuple(dates), LossPairSample(xs=xs, ys=ys)


def estimate_with_k_values(sample: LossPairSample, ks: range, tau_prime: float) -> RiskEstimates | list[Outcome]:
    """``estimate_k_range`` averaged over the k of ``ks`` that succeed.

    A stack gets each row's ``KRangeEstimates.outcomes``, with nothing
    worded or raised.  One sample gets a ``RiskEstimates`` with its warnings
    worded (``KRangeEstimates.first_warnings``), or raises if every k fails.
    """
    result = estimate_k_range(sample, ks, tau_prime)
    outcomes = result.outcomes()
    if sample.stacked:
        return outcomes
    if isinstance(outcomes[0], ValueError):
        raise outcomes[0]
    return RiskEstimates(*outcomes[0][0], warnings=tuple(result.first_warnings()[0]))


def rolling_estimates(
    dates: Sequence[datetime.date], sample: LossPairSample, plan: RollingPlan
) -> list[tuple[datetime.date, Outcome]]:
    """Estimate every window of the losses whose tails change.

    ``dates[i]`` is the date loss i ends on.  Windows end at loss indices
    window, window+step, ... n; each yields (the date of its last loss, its
    ``RECORD_KEYS`` values and warning codes, or the error that stopped
    them).  There are floor((n - window)/step) + 1 windows.

    A window's estimates read only its two tails: the values of each margin
    at or above the cut, its ``tail_depth(ks)``-th largest value (its
    minimum at a depth above the window).  Two consecutive windows have the
    same tails exactly when every loss that leaves or enters between them
    lies below the earlier window's cut in both margins, that is, when at
    least depth values of that window exceed each; no cut is taken.  The
    later window then gets the earlier one's outcome, the same object.  At
    a depth above the window (k_max = window - 1), or a step >= window,
    every window is estimated.  The windows whose tails change are
    estimated in stacks, copies of their rows, one
    ``estimate_with_k_values`` call per stack, which gives each window its
    ``KRangeEstimates.outcomes`` row, bit for bit the one it gets alone.
    The series is checked finite once, as its sample is made; the stacks
    are not checked again.
    """
    if len(dates) != sample.n:
        raise ValueError(f"{len(dates)} dates for {sample.n} losses")
    if plan.window > sample.n:
        raise ValueError(f"window {plan.window} exceeds loss series length {sample.n}")
    ks = k_values(plan.k)
    step = min(plan.step, sample.n - plan.window + 1)  # any larger step gives the first window alone
    xs, ys = (sliding_window_view(v, plan.window)[::step] for v in (sample.xs, sample.ys))
    ends = range(plan.window, sample.n + 1, step)
    block = _stack_rows(plan.window, ks)
    depth, span = tail_depth(ks), (len(ends) - 1) * step
    # windows per count: each count's bool matrix stays within the cell budget
    counted = max(1, _MATRIX_CELLS // plan.window)
    # whether each window's tails differ from the window before's; the first is always estimated
    changed = np.arange(len(ends)) == 0
    for values, before in ((sample.xs, xs[:-1]), (sample.ys, ys[:-1])):
        # the largest loss that leaves, and that enters, between each window and the next
        leaving, entering = (values[at : at + span].reshape(-1, step).max(axis=1) for at in (0, plan.window))
        moved = np.maximum(leaving, entering)
        for at in range(0, moved.size, counted):
            above = np.count_nonzero(before[at : at + counted] > moved[at : at + counted, None], axis=1)
            changed[at + 1 : at + 1 + counted] |= above < depth
    estimated = np.flatnonzero(changed)
    outcomes = []
    for at in range(0, estimated.size, block):
        rows = estimated[at : at + block]
        outcomes += estimate_with_k_values(LossPairSample._of_checked(xs[rows], ys[rows]), ks, plan.tau_prime)
    # each window's outcome is that of the last window estimated at or before it
    return [(dates[end - 1], outcomes[i]) for end, i in zip(ends, (np.cumsum(changed) - 1).tolist())]


def format_tsv(rows: Iterable[Sequence]) -> str:
    """Tab-separated lines, each ending in LF; floats print as ``.10g``,
    every other cell as ``str``.  The first row is the header, if any."""
    return "".join(
        ["\t".join([f"{cell:.10g}" if isinstance(cell, float) else str(cell) for cell in row]) + "\n"
         for row in rows]
    )


def write_text(path, text: str | Iterable[str]) -> None:
    """Write text, or an iterable's pieces in turn, as UTF-8 with LF line endings."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.writelines([text] if isinstance(text, str) else text)


def diagnostics_export(
    sample: LossPairSample, k: int | tuple[int, int], tau_grid: Sequence[float], out_dir
) -> dict[str, Path]:
    """Write the three diagnostic curves as TSV files into ``out_dir``.

    hill.tsv: Hill estimates of the X margin over ``k_values(k)`` with
    normal-limit 90% bands gamma * (1 +/- 1.645 / sqrt(k)), lo clamped at 0
    as gamma >= 0; a k whose threshold X_(n-k,n) is not positive has empty
    cells and the code ``threshold_not_positive`` in the trailing ``note``
    column; tailprob.tsv: empirical joint tail probability against
    (1 - tau)^2; r11.tsv: both tail-copula estimates at (1, 1) over the ks.
    """
    ks = k_values(k)
    tau_array = check_tau_grid(tau_grid)
    # the curves read the top k_max + 1 of each margin, the tail probability
    # the top n + 1 - ceil(n * min tau); the sample's values are checked
    n = sample.n
    depth = max(ks[-1] + 1, n + 1 - math.ceil(n * tau_array.min()))
    x_index, y_index = (build_margin_index(v, depth, _checked=True) for v in (sample.xs, sample.ys))
    gammas = hill_curve(x_index, ks)
    hill_rows = []
    for k, gamma in zip(ks, gammas.tolist()):
        if math.isnan(gamma):
            hill_rows.append((k, "", "", "", "threshold_not_positive"))
        else:
            half = 1.645 / math.sqrt(k)
            hill_rows.append((k, gamma, max(0.0, gamma * (1.0 - half)), gamma * (1.0 + half), ""))
    p_hat = tail_prob_curve(x_index, y_index, tau_array)
    prob_rows = zip(tau_array.tolist(), p_hat.tolist(), ((1.0 - tau_array) ** 2).tolist())
    r_rows = zip(ks, *(r.tolist() for r in r11_curve(x_index, y_index, ks)))
    # made only once every curve is computed, so an invalid k leaves no directory
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "hill": out / "hill.tsv",
        "tailprob": out / "tailprob.tsv",
        "r11": out / "r11.tsv",
    }
    write_text(paths["hill"], format_tsv([("k", "gamma", "lo", "hi", "note"), *hill_rows]))
    write_text(paths["tailprob"], format_tsv([("tau", "p_hat", "square"), *prob_rows]))
    write_text(paths["r11"], format_tsv([("k", "r1", "r2"), *r_rows]))
    return paths
