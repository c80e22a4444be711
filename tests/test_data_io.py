import datetime
import math

import numpy as np
import pytest

import cotail.core
from cotail.core import LossPairSample
from cotail.covar_coes import RECORD_KEYS, estimate_all
from cotail.data_io import (
    ReturnSeries,
    RollingPlan,
    diagnostics_export,
    estimate_with_k_values,
    k_values,
    load_pair_series,
    loss_pair,
    rolling_estimates,
)
from cotail.empirical import hill_estimate
from cotail.core import build_margin_index
from cotail.models import make_spec, sample_model


def _dates(count, start=datetime.date(2015, 1, 5), step_days=1):
    return [start + datetime.timedelta(days=i * step_days) for i in range(count)]


def _write_csv(path, dates, prices):
    lines = ["date,price"] + [f"{d.isoformat()},{p}" for d, p in zip(dates, prices)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _model_prices(seed, n, scale=0.01):
    """Positive loss pairs from the dependent heavy-tail sampler, as prices."""
    pair = sample_model(make_spec("Cauchy"), n, np.random.default_rng(seed))
    to_prices = lambda losses: 100.0 * np.exp(-np.concatenate([[0.0], np.cumsum(scale * losses)]))
    return to_prices(pair.xs), to_prices(pair.ys)


class TestReturnSeries:
    def test_loss_construction(self):
        series = ReturnSeries(timestamps=_dates(2), prices=[100.0, 90.4837])
        assert series.losses[0] == pytest.approx(0.1000, abs=1e-5)

    def test_constant_prices_zero_losses(self):
        series = ReturnSeries(timestamps=_dates(5), prices=[42.0] * 5)
        assert np.all(series.losses == 0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ReturnSeries(timestamps=_dates(1), prices=[100.0])
        with pytest.raises(ValueError):
            ReturnSeries(timestamps=_dates(2), prices=[100.0, 0.0])
        with pytest.raises(ValueError):
            ReturnSeries(timestamps=_dates(3), prices=[100.0, 101.0])
        backwards = [datetime.date(2015, 1, 2), datetime.date(2015, 1, 1)]
        with pytest.raises(ValueError, match="increasing"):
            ReturnSeries(timestamps=backwards, prices=[100.0, 101.0])


class TestRollingPlan:
    def test_k_values(self):
        assert k_values(20) == range(20, 21)
        assert k_values((10, 12)) == range(10, 13)
        with pytest.raises(ValueError, match="empty k range"):
            k_values((12, 10))

    def test_validation(self):
        with pytest.raises(ValueError):
            RollingPlan(window=100, k=20, tau_prime=0.99, step=0)
        with pytest.raises(ValueError, match="empty k range"):
            RollingPlan(window=100, k=(15, 10), tau_prime=0.99)
        with pytest.raises(ValueError):
            RollingPlan(window=100, k=120, tau_prime=0.99)


def _plan(**fields):
    return RollingPlan(**{"window": 1000, "k": 60, "tau_prime": 0.99, **fields})


def _diagnosed_k(k, out_dir):
    values = np.arange(1.0, 101.0)
    paths = diagnostics_export(LossPairSample(xs=values, ys=values), [k], [0.9], out_dir)
    return int(paths["r11"].read_text(encoding="utf-8").splitlines()[1].split("\t")[0])


@pytest.mark.parametrize(
    "name, whole, build",
    [
        pytest.param("'window'", 1000, lambda v, _: _plan(window=v).window, id="window"),
        pytest.param("'step'", 2, lambda v, _: _plan(step=v).step, id="step"),
        pytest.param("k", 60, lambda v, _: k_values(_plan(k=(v, 80)).k)[0], id="kmin"),
        pytest.param("k", 80, lambda v, _: k_values(_plan(k=(60, v)).k)[-1], id="kmax"),
        pytest.param("k", 20, _diagnosed_k, id="diagnose-k"),
    ],
)
def test_fractional_counts_rejected(name, whole, build, tmp_path):
    """A fractional count names its field; an integral float such as 1000.0 passes."""
    with pytest.raises(ValueError, match=f"{name} must be a whole number, got {whole + 0.7}"):
        build(whole + 0.7, tmp_path)
    assert build(float(whole), tmp_path) == whole


class TestLoader:
    def test_aligns_on_common_dates(self, tmp_path):
        days = _dates(4)
        _write_csv(tmp_path / "x.csv", days, [100.0, 110.0, 105.0, 120.0])
        # y is missing the third date, so x's 105.0 never enters a return
        _write_csv(tmp_path / "y.csv", [days[0], days[1], days[3]], [50.0, 55.0, 60.0])
        series_x, series_y = load_pair_series(tmp_path / "x.csv", tmp_path / "y.csv")
        assert series_x.timestamps == (days[0], days[1], days[3])
        assert series_x.losses == pytest.approx(
            [-math.log(110.0 / 100.0), -math.log(120.0 / 110.0)]
        )
        assert series_y.losses == pytest.approx(
            [-math.log(55.0 / 50.0), -math.log(60.0 / 55.0)]
        )

    def test_header_tolerance_and_blank_lines(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text(
            " Date , Price \n2015-01-05,100\n\n2015-01-06,101\n", encoding="utf-8"
        )
        _write_csv(tmp_path / "y.csv", _dates(2), [50.0, 51.0])
        series_x, _ = load_pair_series(path, tmp_path / "y.csv")
        assert series_x.prices.tolist() == [100.0, 101.0]

    def test_byte_order_mark_is_ignored(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("\ufeffdate,price\n2015-01-05,100\n2015-01-06,101\n", encoding="utf-8")
        _write_csv(tmp_path / "y.csv", _dates(2), [50.0, 51.0])
        series_x, _ = load_pair_series(path, tmp_path / "y.csv")
        assert series_x.prices.tolist() == [100.0, 101.0]

    @pytest.mark.parametrize(
        "body,fragment",
        [
            ("date,close\n2015-01-05,100\n", "header"),
            ("date,price\n2015-01-05,100,extra\n", "expected 2 fields"),
            ("date,price\n2015-13-40,100\n", ":2:"),
            ("date,price\n2015-01-05,-100\n", "non-positive"),
            ("date,price\n2015-01-05,inf\n", "non-finite price inf"),
            ("date,price\n2015-01-05,nan\n", "non-finite price nan"),
            ("date,price\n2015-01-05,100\n2015-01-05,101\n", "duplicate"),
            ("date,price\n", "no data rows"),
        ],
    )
    def test_malformed_files(self, tmp_path, body, fragment):
        bad = tmp_path / "bad.csv"
        bad.write_text(body, encoding="utf-8")
        _write_csv(tmp_path / "y.csv", _dates(2), [50.0, 51.0])
        with pytest.raises(ValueError, match=fragment):
            load_pair_series(bad, tmp_path / "y.csv")

    def test_disjoint_and_thin_overlaps(self, tmp_path):
        _write_csv(tmp_path / "x.csv", _dates(3), [1.0, 2.0, 3.0])
        _write_csv(tmp_path / "y.csv", _dates(3, start=datetime.date(2020, 1, 1)), [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="empty intersection"):
            load_pair_series(tmp_path / "x.csv", tmp_path / "y.csv")
        _write_csv(tmp_path / "z.csv", _dates(1), [1.0])
        _write_csv(tmp_path / "w.csv", _dates(3), [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="at least 2 overlapping"):
            load_pair_series(tmp_path / "z.csv", tmp_path / "w.csv")

    def test_loss_pair_requires_alignment(self):
        series_a = ReturnSeries(timestamps=_dates(3), prices=[1.0, 2.0, 3.0])
        series_b = ReturnSeries(
            timestamps=_dates(3, start=datetime.date(2016, 1, 1)), prices=[1.0, 2.0, 3.0]
        )
        with pytest.raises(ValueError, match="aligned"):
            loss_pair(series_a, series_b)

    def test_date_shift_leaves_estimates_unchanged(self, tmp_path):
        prices_x, prices_y = _model_prices(seed=2027, n=400)
        days = _dates(401)
        shifted = _dates(401, start=datetime.date(2015, 2, 11))
        for tag, stamps in [("a", days), ("b", shifted)]:
            _write_csv(tmp_path / f"x{tag}.csv", stamps, prices_x)
            _write_csv(tmp_path / f"y{tag}.csv", stamps, prices_y)
        pair_a = loss_pair(*load_pair_series(tmp_path / "xa.csv", tmp_path / "ya.csv"))
        pair_b = loss_pair(*load_pair_series(tmp_path / "xb.csv", tmp_path / "yb.csv"))
        assert np.array_equal(pair_a.xs, pair_b.xs)
        assert np.array_equal(pair_a.ys, pair_b.ys)
        record_a = estimate_all(pair_a, 60, 0.99).to_record()
        record_b = estimate_all(pair_b, 60, 0.99).to_record()
        assert record_a == record_b


class TestAveraging:
    def _fixture(self):
        # ranks of xs track ys so the tail-dependence step succeeds; the 30
        # smallest xs are shifted below zero, so the Hill threshold
        # X_(n-k,n) is not positive for k = 10 but is for k = 5 and 8
        rng = np.random.default_rng(808)
        idx = np.arange(40)
        xs = ((40.0 - idx) / 41.0 + 0.002 * rng.random(40)) ** -0.3
        xs[:30] -= 10.0
        return LossPairSample(xs=xs, ys=np.arange(40.0))

    def test_k_range_skips_failing_k(self):
        sample = self._fixture()
        with pytest.raises(ValueError, match="not positive"):
            estimate_all(sample, 10, 0.9)
        averaged = estimate_with_k_values(sample, [5, 8, 10], 0.9)
        direct = [estimate_all(sample, 5, 0.9), estimate_all(sample, 8, 0.9)]
        for name in RECORD_KEYS:
            assert getattr(averaged, name) == np.mean([getattr(est, name) for est in direct])
        partial = [w for w in averaged.warnings if w.code == "k_partial"]
        assert len(partial) == 1
        assert "k=10" in partial[0].message

    def test_k_range_crossing_n_keeps_the_valid_k(self):
        n = 40
        u = np.arange(1, n + 1) / (n + 1.0)
        sample = LossPairSample(xs=(1.0 - u) ** (-1.0 / 3.0), ys=np.arange(float(n)))
        averaged = estimate_with_k_values(sample, range(36, 43), 0.99)
        direct = [estimate_all(sample, k, 0.99) for k in range(36, 40)]
        for name in RECORD_KEYS:
            assert getattr(averaged, name) == np.mean([getattr(est, name) for est in direct])
        partial = [w.message for w in averaged.warnings if w.code == "k_partial"]
        assert partial == [
            "3 of 7 k values failed and were excluded: "
            + "; ".join(f"k={k}: k must satisfy 1 <= k < n, got k={k} with n=40" for k in (40, 41, 42))
        ]

    def test_warning_codes_deduplicated(self):
        sample = self._fixture()
        averaged = estimate_with_k_values(sample, [5, 8], 0.9)
        codes = [w.code for w in averaged.warnings]
        assert codes.count("small_k") == 1

    def test_all_k_failing_raises(self):
        sample = self._fixture()
        with pytest.raises(ValueError, match="k=10"):
            estimate_with_k_values(sample, [10], 0.9)

    def test_average_requires_input(self):
        with pytest.raises(ValueError, match="need at least one k value"):
            estimate_with_k_values(self._fixture(), [], 0.9)


class TestRolling:
    def test_window_count_long_series(self):
        """3821 losses, window 1000, step 1 -> 2822 windows, stamped by last loss."""
        losses = np.where(np.arange(3821) % 20 == 0, 0.1, -0.005)
        prices = 100.0 * np.exp(-np.concatenate([[0.0], np.cumsum(losses)]))
        stamps = _dates(3822)
        series = ReturnSeries(timestamps=stamps, prices=prices)
        rows = rolling_estimates(series, series, RollingPlan(window=1000, k=80, tau_prime=0.99))
        assert len(rows) == 2822
        assert rows[0].timestamp == stamps[1000]
        assert rows[-1].timestamp == stamps[3821]
        # mostly-negative losses leave a non-positive Hill threshold everywhere
        assert all(row.estimates is None for row in rows)
        assert all(row.reason for row in rows)

    def _small_series(self):
        prices_x, prices_y = _model_prices(seed=515, n=60)
        days = _dates(61)
        return (
            ReturnSeries(timestamps=days, prices=prices_x),
            ReturnSeries(timestamps=days, prices=prices_y),
        )

    def test_whole_sample_window(self):
        series_x, series_y = self._small_series()
        rows = rolling_estimates(series_x, series_y, RollingPlan(window=60, k=12, tau_prime=0.95))
        assert len(rows) == 1
        whole = estimate_all(loss_pair(series_x, series_y), 12, 0.95)
        assert rows[0].estimates.to_record() == whole.to_record()

    def test_step_larger_than_remainder(self):
        series_x, series_y = self._small_series()
        rows = rolling_estimates(
            series_x, series_y, RollingPlan(window=40, k=10, tau_prime=0.95, step=60)
        )
        assert len(rows) == 1

    def test_window_count_property(self):
        rng = np.random.default_rng(1234)
        for _ in range(20):
            total = int(rng.integers(30, 200))
            window = int(rng.integers(5, total + 1))
            step = int(rng.integers(1, 18))
            series = ReturnSeries(timestamps=_dates(total + 1), prices=[100.0] * (total + 1))
            plan = RollingPlan(window=window, k=2, tau_prime=0.9, step=step)
            rows = rolling_estimates(series, series, plan)
            assert len(rows) == (total - window) // step + 1

    def test_window_exceeding_series_rejected(self):
        series = ReturnSeries(timestamps=_dates(11), prices=[100.0] * 11)
        with pytest.raises(ValueError, match="exceeds"):
            rolling_estimates(series, series, RollingPlan(window=11, k=2, tau_prime=0.9))


class TestDiagnostics:
    def test_comonotone_exports(self, tmp_path):
        n = 200
        values = np.arange(1.0, n + 1.0)
        sample = LossPairSample(xs=values, ys=values)
        paths = diagnostics_export(sample, range(10, 31), [0.9, 0.95, 0.99], tmp_path)
        assert set(paths) == {"hill", "tailprob", "r11"}

        hill_lines = paths["hill"].read_text(encoding="utf-8").splitlines()
        assert hill_lines[0] == "k\tgamma\tlo\thi\tnote"
        margin = build_margin_index(sample.xs)
        for line in hill_lines[1:]:
            k, gamma, lo, hi, note = line.split("\t")
            assert note == ""
            expected = hill_estimate(margin, int(k))
            assert float(gamma) == pytest.approx(expected, rel=1e-8)
            assert float(lo) == pytest.approx(expected * (1 - 1.645 / math.sqrt(int(k))), rel=1e-8)
            assert float(hi) == pytest.approx(expected * (1 + 1.645 / math.sqrt(int(k))), rel=1e-8)

        prob_lines = paths["tailprob"].read_text(encoding="utf-8").splitlines()
        assert prob_lines[0] == "tau\tp_hat\tsquare"
        for line in prob_lines[1:]:
            tau, p_hat, square = (float(cell) for cell in line.split("\t"))
            assert square == pytest.approx((1.0 - tau) ** 2, rel=1e-9)
            assert p_hat >= square  # dependence keeps the joint tail above the square

        r_lines = paths["r11"].read_text(encoding="utf-8").splitlines()
        assert r_lines[0] == "k\tr1\tr2"
        assert r_lines[1] == "10\t1.1\t1"  # counts k+1 and k at x = y = 1
        for line in r_lines[1:]:
            _, r1, r2 = line.split("\t")
            assert float(r1) >= 0.9
            assert float(r2) >= 0.9

    def test_non_positive_hill_thresholds_are_gaps(self, tmp_path):
        # X_(n-k,n) = 19 - k, so Hill is defined for k <= 18 only
        values = np.arange(-20.0, 20.0)
        sample = LossPairSample(xs=values, ys=values)
        paths = diagnostics_export(sample, range(2, 31), [0.9, 0.95], tmp_path)
        margin = build_margin_index(values)
        rows = [line.split("\t") for line in paths["hill"].read_text(encoding="utf-8").splitlines()]
        assert rows[0] == ["k", "gamma", "lo", "hi", "note"]
        assert [int(row[0]) for row in rows[1:]] == list(range(2, 31))
        for k, gamma, lo, hi, note in rows[1:]:
            if int(k) <= 18:
                assert float(gamma) == pytest.approx(hill_estimate(margin, int(k)), rel=1e-9)
                assert note == ""
            else:
                assert (gamma, lo, hi, note) == ("", "", "", "threshold_not_positive")
        assert len(paths["tailprob"].read_text(encoding="utf-8").splitlines()) == 1 + 2
        assert len(paths["r11"].read_text(encoding="utf-8").splitlines()) == 1 + 29

    def test_opposite_tails_give_zero_dependence(self, tmp_path):
        n = 200
        values = np.arange(1.0, n + 1.0)
        sample = LossPairSample(xs=values, ys=values[::-1].copy())
        paths = diagnostics_export(sample, range(10, 41), [0.95], tmp_path)
        for line in paths["r11"].read_text(encoding="utf-8").splitlines()[1:]:
            _, r1, r2 = line.split("\t")
            assert float(r1) == 0.0
            assert float(r2) == 0.0

    def test_each_margin_is_sorted_once(self, tmp_path, monkeypatch):
        calls = []
        original = cotail.core.build_margin_index

        def counting(values, depth=None):
            calls.append(len(values))
            return original(values, depth)

        monkeypatch.setattr(cotail.core, "build_margin_index", counting)
        sample = sample_model(make_spec("Cauchy"), 500, np.random.default_rng(3))
        diagnostics_export(sample, range(20, 101), [0.9, 0.95, 0.99], tmp_path)
        assert calls == [500, 500]

    def test_line_endings_are_unix(self, tmp_path):
        values = np.arange(1.0, 101.0)
        sample = LossPairSample(xs=values, ys=values)
        paths = diagnostics_export(sample, [10, 20], [0.9], tmp_path)
        for path in paths.values():
            raw = path.read_bytes()
            assert b"\r" not in raw
            assert raw.endswith(b"\n")

    def test_empty_ranges_rejected(self, tmp_path):
        values = np.arange(1.0, 101.0)
        sample = LossPairSample(xs=values, ys=values)
        with pytest.raises(ValueError, match="empty k range"):
            diagnostics_export(sample, [], [0.9], tmp_path)
        with pytest.raises(ValueError, match="empty tau"):
            diagnostics_export(sample, [10], [], tmp_path)
