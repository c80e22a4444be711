"""Price-file ingestion, rolling-window estimation, and diagnostic exports.

Input files are CSV with header ``date,price`` (ISO-8601 date, positive
decimal price).  Two assets are aligned on the intersection of their
dates, and losses are negative log returns of the aligned prices.  The
rolling driver re-estimates on a moving window, optionally averaging the
estimates over a range of k values, and records per-window failures as
gaps with a reason instead of aborting.  ``k_values`` is the one reading of
a k or (kmin, kmax) range, and ``format_tsv`` / ``write_text`` produce
every TSV the package writes: floats as ``.10g``, UTF-8, LF line endings.
"""

from __future__ import annotations

import csv
import datetime
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .core import LossPairSample, WarningRecord, _whole_number, check_tail
from .covar_coes import RiskEstimates, estimate_k_range
from .empirical import hill_curve, tail_prob_curve
from .tail_copula import r_hat


@dataclass(frozen=True)
class ReturnSeries:
    """Dated positive prices with their negative log returns.

    ``losses[i] = -log(prices[i+1]/prices[i])``; timestamps are strictly
    increasing dates, one per price.
    """

    timestamps: tuple[datetime.date, ...]
    prices: np.ndarray
    losses: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "timestamps", tuple(self.timestamps))
        prices = np.asarray(self.prices, dtype=float)
        object.__setattr__(self, "prices", prices)
        if prices.ndim != 1 or prices.size != len(self.timestamps):
            raise ValueError("need one price per timestamp")
        if prices.size < 2:
            raise ValueError("need at least two prices to form a return")
        if not np.all(prices > 0.0):
            raise ValueError("prices must be positive")
        for earlier, later in zip(self.timestamps, self.timestamps[1:]):
            if not earlier < later:
                raise ValueError(f"timestamps not strictly increasing at {later}")
        object.__setattr__(self, "losses", -np.diff(np.log(prices)))


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
        for k in k_values(self.k):
            check_tail(self.window, k, self.tau_prime)


def k_values(k: int | tuple[int, int]) -> range:
    """The k values of a single k or of an inclusive range (kmin, kmax)."""
    lo, hi = (_whole_number(v, "k") for v in (k if isinstance(k, tuple) else (k, k)))
    if lo > hi:
        raise ValueError(f"empty k range ({lo}, {hi})")
    return range(lo, hi + 1)


@dataclass(frozen=True)
class RollingRow:
    """One rolling output: estimates on success, else a gap with a reason."""

    timestamp: datetime.date
    estimates: RiskEstimates | None
    reason: str | None


def _load_price_file(path) -> dict[datetime.date, float]:
    # utf-8-sig drops the byte-order mark that spreadsheet exports often write
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or [cell.strip().lower() for cell in header] != ["date", "price"]:
            raise ValueError(f"{path}: expected header 'date,price'")
        table: dict[datetime.date, float] = {}
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 2:
                raise ValueError(f"{path}:{lineno}: expected 2 fields, got {len(row)}")
            try:
                day = datetime.date.fromisoformat(row[0].strip())
                price = float(row[1])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            if not math.isfinite(price):
                raise ValueError(f"{path}:{lineno}: non-finite price {row[1]}")
            if price <= 0.0:
                raise ValueError(f"{path}:{lineno}: non-positive price {row[1]}")
            if day in table:
                raise ValueError(f"{path}:{lineno}: duplicate date {day}")
            table[day] = price
    if not table:
        raise ValueError(f"{path}: no data rows")
    return table


def load_pair_series(path_x, path_y) -> tuple[ReturnSeries, ReturnSeries]:
    """Load two price files and align them on their common dates."""
    table_x = _load_price_file(path_x)
    table_y = _load_price_file(path_y)
    common = sorted(set(table_x) & set(table_y))
    if not common:
        raise ValueError("empty intersection of dates between the two files")
    if len(common) < 2:
        raise ValueError(f"need at least 2 overlapping dates, got {len(common)}")
    series_x = ReturnSeries(timestamps=common, prices=[table_x[d] for d in common])
    series_y = ReturnSeries(timestamps=common, prices=[table_y[d] for d in common])
    return series_x, series_y


def loss_pair(series_x: ReturnSeries, series_y: ReturnSeries) -> LossPairSample:
    """Aligned losses of the two series as an estimation sample."""
    if series_x.timestamps != series_y.timestamps:
        raise ValueError("series are not aligned on the same timestamps")
    return LossPairSample(xs=series_x.losses, ys=series_y.losses)


def estimate_with_k_values(
    sample: LossPairSample, ks: Sequence[int], tau_prime: float
) -> RiskEstimates:
    """``estimate_k_range`` averaged over the k values that succeed.

    Each field is the column mean over the succeeded rows.  Warnings are
    deduplicated by code (``KRangeEstimates.first_warnings``); failed k
    values add a ``k_partial`` warning carrying their reasons.  Raises if
    every k fails.
    """
    estimates = estimate_k_range(sample, ks, tau_prime)
    failures = [f"k={k}: {e}" for k, e in zip(estimates.ks, estimates.errors) if e is not None]
    succeeded = [row[0] for row in estimates.rows if row is not None]
    if not succeeded:
        raise ValueError("; ".join(failures))
    warnings = estimates.first_warnings()
    if failures:
        warnings.append(
            WarningRecord(
                "k_partial",
                f"{len(failures)} of {len(estimates.ks)} k values "
                f"failed and were excluded: {'; '.join(failures)}",
            )
        )
    # one contiguous row per field: numpy then sums each field pairwise,
    # exactly as np.mean sums a list of that field's values
    means = np.ascontiguousarray(np.array(succeeded).T).mean(axis=1)
    return RiskEstimates(*means.tolist(), warnings=tuple(warnings))


def rolling_estimates(
    series_x: ReturnSeries, series_y: ReturnSeries, plan: RollingPlan
) -> list[RollingRow]:
    """Re-estimate on every window of the aligned losses.

    Windows end at loss indices window, window+step, ... T; each row is
    stamped with the date of its last loss.  There are
    floor((T - window)/step) + 1 rows at full coverage.
    """
    if series_x.timestamps != series_y.timestamps:
        raise ValueError("series are not aligned on the same timestamps")
    losses_x, losses_y = series_x.losses, series_y.losses
    total = losses_x.size
    if plan.window > total:
        raise ValueError(f"window {plan.window} exceeds loss series length {total}")
    ks = k_values(plan.k)
    rows: list[RollingRow] = []
    for end in range(plan.window, total + 1, plan.step):
        stamp = series_x.timestamps[end]
        sample = LossPairSample(
            xs=losses_x[end - plan.window : end], ys=losses_y[end - plan.window : end]
        )
        try:
            estimates = estimate_with_k_values(sample, ks, plan.tau_prime)
        except ValueError as exc:
            rows.append(RollingRow(timestamp=stamp, estimates=None, reason=str(exc)))
            continue
        rows.append(RollingRow(timestamp=stamp, estimates=estimates, reason=None))
    return rows


def format_tsv(rows: Iterable[Sequence]) -> str:
    """Tab-separated lines, each ending in LF; floats print as ``.10g``,
    every other cell as ``str``.  The first row is the header, if any."""
    return "".join(
        "\t".join(f"{cell:.10g}" if isinstance(cell, float) else str(cell) for cell in row) + "\n"
        for row in rows
    )


def write_text(path, text: str) -> None:
    """Write text as UTF-8 with LF line endings on every platform."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)


def diagnostics_export(
    sample: LossPairSample, k_range: Sequence[int], tau_grid: Sequence[float], out_dir
) -> dict[str, Path]:
    """Write the three diagnostic curves as TSV files into ``out_dir``.

    hill.tsv: Hill estimates of the X margin over k_range with 90% bands
    gamma * (1 +/- 1.645 / sqrt(k)), the normal-limit approximation; a k
    whose threshold X_(n-k,n) is not positive has empty cells and the code
    ``threshold_not_positive`` in the trailing ``note`` column;
    tailprob.tsv: empirical joint tail probability against (1 - tau)^2;
    r11.tsv: both tail-copula estimates at (1, 1) over k_range.
    """
    ks = sorted({_whole_number(k, "k") for k in k_range})
    if not ks:
        raise ValueError("empty k range")
    taus = [float(t) for t in tau_grid]
    if not taus:
        raise ValueError("empty tau grid")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    gammas = hill_curve(sample.x_index, ks[0], ks[-1])
    hill_rows = []
    for k in ks:
        gamma = float(gammas[k - ks[0]])
        if math.isnan(gamma):
            hill_rows.append((k, "", "", "", "threshold_not_positive"))
        else:
            half = 1.645 / math.sqrt(k)
            hill_rows.append((k, gamma, gamma * (1.0 - half), gamma * (1.0 + half), ""))
    tau_array = np.array(taus)
    prob_rows = zip(
        taus, tail_prob_curve(sample, tau_array).tolist(), ((1.0 - tau_array) ** 2).tolist()
    )
    r_rows = [(k, r_hat(sample, k, 1, 1.0, 1.0), r_hat(sample, k, 2, 1.0, 1.0)) for k in ks]

    paths = {
        "hill": out / "hill.tsv",
        "tailprob": out / "tailprob.tsv",
        "r11": out / "r11.tsv",
    }
    write_text(paths["hill"], format_tsv([("k", "gamma", "lo", "hi", "note"), *hill_rows]))
    write_text(paths["tailprob"], format_tsv([("tau", "p_hat", "square"), *prob_rows]))
    write_text(paths["r11"], format_tsv([("k", "r1", "r2"), *r_rows]))
    return paths
