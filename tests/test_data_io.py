import datetime
import json
import math
from pathlib import Path

import numpy as np
import pytest

import cotail.cli
import cotail.covar_coes
import cotail.data_io
from cotail.core import EstimationError, LossPairSample, build_margin_index
from cotail.covar_coes import RECORD_KEYS, _stack_rows, estimate_all
from cotail.data_io import (
    RollingPlan,
    diagnostics_export,
    estimate_with_k_values,
    k_values,
    load_pair_series,
    rolling_estimates,
)
from cotail.empirical import hill_curve
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

    def test_k_range_is_checked_at_its_ends(self, monkeypatch):
        """The k range is checked by one ``check_tail`` call, from its two
        ends: the first invalid k of a walk over every k, and one check for
        a range of 10^12 values."""
        checked = []
        check_tail = cotail.data_io.check_tail
        monkeypatch.setattr(cotail.data_io, "check_tail", lambda *args: checked.append(args) or check_tail(*args))
        assert RollingPlan(window=10**12, k=(1, 10**12 - 1), tau_prime=0.99).k == (1, 10**12 - 1)
        assert checked == [(10**12, range(1, 10**12), 0.99)]
        for k, bad in (((0, 10**12), 0), ((1, 10**12), 100), ((150, 160), 150)):
            with pytest.raises(ValueError, match=rf"^k must satisfy 1 <= k < n, got k={bad} with n=100$"):
                RollingPlan(window=100, k=k, tau_prime=0.99)
        # tau' is checked before k, as in estimate
        for k in ((5, 10**12), 0):
            with pytest.raises(ValueError, match=r"^tau_prime must lie in \(0, 1\), got 1.5$"):
                RollingPlan(window=100, k=k, tau_prime=1.5)


def _plan(**fields):
    return RollingPlan(**{"window": 1000, "k": 60, "tau_prime": 0.99, **fields})


def _diagnosed_k(k, out_dir):
    values = np.arange(1.0, 101.0)
    paths = diagnostics_export(LossPairSample(xs=values, ys=values), k, [0.9], out_dir)
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
    for bad in (str(whole), "abc", True, None):
        with pytest.raises(ValueError, match=f"{name} must be a whole number, got {bad!r}"):
            build(bad, tmp_path)


class TestLoader:
    def test_aligns_on_common_dates(self, tmp_path):
        days = _dates(4)
        _write_csv(tmp_path / "x.csv", days, [100.0, 110.0, 105.0, 120.0])
        # y is missing the third date, so x's 105.0 never enters a return
        _write_csv(tmp_path / "y.csv", [days[0], days[1], days[3]], [50.0, 55.0, 60.0])
        dates, sample = load_pair_series(tmp_path / "x.csv", tmp_path / "y.csv")
        # each loss is stamped with the date its return ends on
        assert dates == (days[1], days[3])
        assert sample.xs == pytest.approx(
            [-math.log(110.0 / 100.0), -math.log(120.0 / 110.0)]
        )
        assert sample.ys == pytest.approx(
            [-math.log(55.0 / 50.0), -math.log(60.0 / 55.0)]
        )

    def test_loss_construction(self, tmp_path):
        _write_csv(tmp_path / "x.csv", _dates(2), [100.0, 90.4837])
        _write_csv(tmp_path / "y.csv", _dates(2), [50.0, 51.0])
        _, sample = load_pair_series(tmp_path / "x.csv", tmp_path / "y.csv")
        assert sample.xs[0] == pytest.approx(0.1000, abs=1e-5)
        assert np.array_equal(sample.xs, -np.diff(np.log([100.0, 90.4837])))

    def test_constant_prices_zero_losses(self, tmp_path):
        for name in ("x.csv", "y.csv"):
            _write_csv(tmp_path / name, _dates(5), [42.0] * 5)
        dates, sample = load_pair_series(tmp_path / "x.csv", tmp_path / "y.csv")
        assert len(dates) == sample.n == 4
        assert np.all(sample.xs == 0.0)
        assert np.all(sample.ys == 0.0)

    def test_header_tolerance_and_blank_lines(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text(
            " Date , Price \n2015-01-05,100\n\n2015-01-06,101\n", encoding="utf-8"
        )
        _write_csv(tmp_path / "y.csv", _dates(2), [50.0, 51.0])
        _, sample = load_pair_series(path, tmp_path / "y.csv")
        assert np.array_equal(sample.xs, -np.diff(np.log([100.0, 101.0])))

    def test_byte_order_mark_is_ignored(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("\ufeffdate,price\n2015-01-05,100\n2015-01-06,101\n", encoding="utf-8")
        _write_csv(tmp_path / "y.csv", _dates(2), [50.0, 51.0])
        _, sample = load_pair_series(path, tmp_path / "y.csv")
        assert np.array_equal(sample.xs, -np.diff(np.log([100.0, 101.0])))

    @pytest.mark.parametrize(
        "body,fragment",
        [
            ("date,close\n2015-01-05,100\n", "header"),
            ("date,price\n2015-01-05,100,extra\n", "expected 2 fields"),
            ("date,price\n2015-13-40,100\n", ":2:"),
            ("date,price\n2015-01-05,-100\n", "non-positive"),
            ("date,price\n2015-01-05,0\n", "non-positive price 0"),
            ("date,price\n2015-01-05,inf\n", "non-finite price inf"),
            ("date,price\n2015-01-05,nan\n", "non-finite price nan"),
            ("date,price\n2015-01-05,100\n2015-01-05,101\n", "duplicate"),
            # a row after a quoted cell that holds a line end is named by its own line
            pytest.param(
                'date,price\n2015-01-02,"1\n"\n2015-01-05,-1\n',
                r"^\S*bad.csv:4: non-positive price -1$",
                id="line-after-quoted-line-end",
            ),
            ("date,price\n", "no data rows"),
            # a cell over csv's 131072-character field limit, read whole or by csv.reader
            pytest.param(
                "date,price\n2015-01-05," + "1" * 140_000 + "\n",
                r"^\S*bad.csv:2: field larger than field limit \(131072\)$",
                id="cell-over-field-limit",
            ),
            pytest.param(
                'date,price\n2015-01-05,"' + "1" * 140_000 + '"\n',
                r"^\S*bad.csv:2: field larger than field limit \(131072\)$",
                id="quoted-cell-over-field-limit",
            ),
        ],
    )
    def test_malformed_files(self, tmp_path, body, fragment):
        bad = tmp_path / "bad.csv"
        bad.write_text(body, encoding="utf-8")
        _write_csv(tmp_path / "y.csv", _dates(2), [50.0, 51.0])
        with pytest.raises(ValueError, match=fragment):
            load_pair_series(bad, tmp_path / "y.csv")

    def test_non_utf8_file_is_named(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"date,price\n2015-01-05,100\n2015-01-06,10\xff\n")
        _write_csv(tmp_path / "y.csv", _dates(2), [50.0, 51.0])
        with pytest.raises(ValueError) as caught:
            load_pair_series(bad, tmp_path / "y.csv")
        assert not isinstance(caught.value, UnicodeDecodeError)
        assert str(caught.value).startswith(f"{bad}: 'utf-8' codec can't decode byte 0xff")

    def test_disjoint_and_thin_overlaps(self, tmp_path):
        _write_csv(tmp_path / "x.csv", _dates(3), [1.0, 2.0, 3.0])
        _write_csv(tmp_path / "y.csv", _dates(3, start=datetime.date(2020, 1, 1)), [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="empty intersection"):
            load_pair_series(tmp_path / "x.csv", tmp_path / "y.csv")
        _write_csv(tmp_path / "z.csv", _dates(1), [1.0])
        _write_csv(tmp_path / "w.csv", _dates(3), [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="at least 2 overlapping"):
            load_pair_series(tmp_path / "z.csv", tmp_path / "w.csv")

    def test_date_shift_leaves_estimates_unchanged(self, tmp_path):
        prices_x, prices_y = _model_prices(seed=2027, n=400)
        days = _dates(401)
        shifted = _dates(401, start=datetime.date(2015, 2, 11))
        for tag, stamps in [("a", days), ("b", shifted)]:
            _write_csv(tmp_path / f"x{tag}.csv", stamps, prices_x)
            _write_csv(tmp_path / f"y{tag}.csv", stamps, prices_y)
        _, pair_a = load_pair_series(tmp_path / "xa.csv", tmp_path / "ya.csv")
        _, pair_b = load_pair_series(tmp_path / "xb.csv", tmp_path / "yb.csv")
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
        averaged = estimate_with_k_values(sample, range(5, 11), 0.9)
        direct = [estimate_all(sample, k, 0.9) for k in range(5, 10)]
        for name in RECORD_KEYS:
            assert getattr(averaged, name) == np.mean([getattr(est, name) for est in direct])
        partial = [w for w in averaged.warnings if w.code == "k_partial"]
        assert len(partial) == 1
        assert "k=10" in partial[0].message

    def test_k_range_crossing_n_raises_at_k_n(self):
        n = 40
        u = np.arange(1, n + 1) / (n + 1.0)
        sample = LossPairSample(xs=(1.0 - u) ** (-1.0 / 3.0), ys=np.arange(float(n)))
        with pytest.raises(ValueError, match=r"^k must satisfy 1 <= k < n, got k=40 with n=40$"):
            estimate_with_k_values(sample, range(36, 43), 0.99)

    def test_warning_codes_deduplicated(self):
        sample = self._fixture()
        averaged = estimate_with_k_values(sample, range(5, 9), 0.9)
        codes = [w.code for w in averaged.warnings]
        assert codes.count("small_k") == 1

    def test_all_k_failing_raises(self):
        sample = self._fixture()
        with pytest.raises(ValueError, match="k=10"):
            estimate_with_k_values(sample, range(10, 11), 0.9)

    def test_average_requires_input(self):
        with pytest.raises(ValueError, match="need at least one k value"):
            estimate_with_k_values(self._fixture(), range(5, 5), 0.9)


def _values_and_codes(estimates):
    """What a rolling window carries of its estimates: the record's values and the warning codes."""
    return list(estimates.to_record().values()), tuple(w.code for w in estimates.warnings)


class TestRolling:
    def test_window_count_long_series(self):
        """3821 losses, window 1000, step 1 -> 2822 windows, dated by last loss."""
        losses = np.where(np.arange(3821) % 20 == 0, 0.1, -0.005)
        dates = _dates(3821)
        rows = rolling_estimates(
            dates, LossPairSample(xs=losses, ys=losses), RollingPlan(window=1000, k=80, tau_prime=0.99)
        )
        assert len(rows) == 2822
        assert rows[0][0] == dates[999]
        assert rows[-1][0] == dates[3820]
        # mostly-negative losses leave a non-positive Hill threshold everywhere
        assert all(isinstance(outcome, ValueError) and str(outcome) for _, outcome in rows)

    def _small_sample(self):
        return _dates(60), sample_model(make_spec("Cauchy"), 60, np.random.default_rng(515))

    def test_whole_sample_window(self):
        dates, sample = self._small_sample()
        rows = rolling_estimates(dates, sample, RollingPlan(window=60, k=12, tau_prime=0.95))
        assert len(rows) == 1
        whole = estimate_all(sample, 12, 0.95)
        assert rows[0][1] == _values_and_codes(whole)

    def test_step_larger_than_remainder(self):
        dates, sample = self._small_sample()
        rows = rolling_estimates(dates, sample, RollingPlan(window=40, k=10, tau_prime=0.95, step=60))
        assert len(rows) == 1
        # any step from n - window + 1 = 21 up, however large, gives the first window alone
        for step in (21, 10**23):
            alone = rolling_estimates(dates, sample, RollingPlan(window=40, k=10, tau_prime=0.95, step=step))
            assert alone == rows

    def test_window_count_property(self):
        rng = np.random.default_rng(1234)
        for _ in range(20):
            total = int(rng.integers(30, 200))
            window = int(rng.integers(5, total + 1))
            step = int(rng.integers(1, 18))
            zeros = np.zeros(total)
            plan = RollingPlan(window=window, k=2, tau_prime=0.9, step=step)
            rows = rolling_estimates(_dates(total), LossPairSample(xs=zeros, ys=zeros), plan)
            assert len(rows) == (total - window) // step + 1

    def test_window_exceeding_series_rejected(self):
        zeros = np.zeros(10)
        with pytest.raises(ValueError, match="exceeds"):
            rolling_estimates(
                _dates(10), LossPairSample(xs=zeros, ys=zeros), RollingPlan(window=11, k=2, tau_prime=0.9)
            )

    def test_date_count_must_match_losses(self):
        zeros = np.zeros(10)
        with pytest.raises(ValueError, match="9 dates for 10 losses"):
            rolling_estimates(
                _dates(9), LossPairSample(xs=zeros, ys=zeros), RollingPlan(window=5, k=2, tau_prime=0.9)
            )

    def test_each_margin_is_sorted_once_per_block(self, monkeypatch):
        """251 windows of 1000, as the rolling benchmark runs them: one index
        build per margin per block of the windows whose tails change, each
        on the (B, window) stack.  A window's tails are the positions of
        the top k_max + 2 values of each margin, ties at the cut included;
        the first window and each window whose tails differ from the
        window before's are estimated, and the rest reuse an outcome."""
        built = []
        original = cotail.covar_coes.build_margin_index

        def counting(values, depth=None, **options):
            built.append(np.array(values))
            return original(values, depth, **options)

        monkeypatch.setattr(cotail.covar_coes, "build_margin_index", counting)
        sample = sample_model(make_spec("StudentT"), 1250, np.random.default_rng(251))
        ks = range(60, 81)
        rows = rolling_estimates(_dates(1250), sample, RollingPlan(window=1000, k=(60, 80), tau_prime=0.999))
        assert len(rows) == 251

        def windows(start):
            return [v[start : start + 1000] for v in (sample.xs, sample.ys)]

        def tails(start):
            """Each margin's top k_max + 2 = 82 positions, ties at the cut included."""
            return [frozenset((start + np.flatnonzero(w >= np.sort(w)[-82])).tolist()) for w in windows(start)]

        sets = [tails(start) for start in range(251)]
        changed = [0] + [start for start in range(1, 251) if sets[start] != sets[start - 1]]
        # the rule's count: a window is estimated when the loss that leaves
        # or enters is at or above the cut of the window before, in some margin
        predicted = 1
        for start in range(1, 251):
            moved = (max(v[start - 1], v[start + 999]) for v in (sample.xs, sample.ys))
            predicted += any(m >= np.sort(w)[-82] for m, w in zip(moved, windows(start - 1)))
        assert len(changed) == predicted < 251
        block = _stack_rows(1000, ks)
        blocks = [min(block, len(changed) - start) for start in range(0, len(changed), block)]
        assert 1 < len(blocks)
        assert [b.shape for b in built] == [(b, 1000) for b in blocks for _ in range(2)]
        for margin, stacks in ((sample.xs, built[::2]), (sample.ys, built[1::2])):
            assert np.array_equal(np.concatenate(stacks), [margin[start : start + 1000] for start in changed])
        for index in (0, block - 1, block, 250, changed[1] - 1, changed[1], changed[-1]):
            window = LossPairSample(xs=sample.xs[index : index + 1000], ys=sample.ys[index : index + 1000])
            assert rows[index][1] == _values_and_codes(estimate_with_k_values(window, ks, 0.999))

    def test_the_series_is_checked_finite_once(self, monkeypatch, tmp_path, capsys):
        """One rolling call checks the losses finite once, one check per
        margin as the series is loaded, however many stacks it estimates:
        at window 300, k 5:299 each of the 41 windows is a stack of one."""
        prices_x, prices_y = _model_prices(seed=41, n=340)
        _write_csv(tmp_path / "x.csv", _dates(341), prices_x)
        _write_csv(tmp_path / "y.csv", _dates(341), prices_y)
        checked = []
        isfinite = np.isfinite

        def counting(values, *args, **kwargs):
            checked.append(np.shape(values))
            return isfinite(values, *args, **kwargs)

        monkeypatch.setattr(np, "isfinite", counting)
        argv = ["rolling", "--x", str(tmp_path / "x.csv"), "--y", str(tmp_path / "y.csv"),
                "--window", "300", "--k", "5:299", "--tau", "0.999"]
        assert cotail.cli.main(argv) == 0
        assert len(capsys.readouterr().out.splitlines()) == 42
        assert checked == [(340,), (340,)]

    def test_reuse_rule_at_the_cut(self):
        """Windows of 12 at k 2:4 read the top 6 of each margin, cut at the
        6th largest value.  On this series the Y loss that leaves between
        the windows starting at 10 and 11 equals window 10's Y cut, and the
        one that enters between 13 and 14 equals window 13's, while every
        other loss that moves lies below its cut; each changes the
        estimate.  Windows 11-14 hold a run of tied Y values across the
        cut.  The windows starting at 7 and 12 move only losses below the
        cuts and share the outcome of the window before, the same object;
        at a step >= window no outcome is shared.  Every row, gaps
        included, is its window estimated alone."""
        xs = np.array(
            [2, 5, 1, 3, 4, 1, 4, 7, 3, 8, 7, -1, 10, 1, 10, -1, 5, 8, 3, 8, 8, 8, -1, 5, 8, 6, 6, 6, 8, 8], float
        )
        ys = np.array(
            [1, 4, 1, 2, 2, 2, 5, 8, 2, 8, 8, 6, 9, 2, 9, 7, 3, 8, 1, 9, 7, 9, 6, 3, 7, 7, 4, 6, 6, 7], float
        )
        window, ks = 12, range(2, 5)

        def alone(start):
            pair = LossPairSample(xs=xs[start : start + window], ys=ys[start : start + window])
            try:
                expected = estimate_with_k_values(pair, ks, 0.95)
            except ValueError as error:
                return str(error)
            return [v.hex() for v in expected.to_record().values()], tuple(w.code for w in expected.warnings)

        def cut(values, start):
            return np.sort(values[start : start + window])[-6]

        for before in (10, 13):
            # the losses that leave and enter between this window and the next
            x_moved, y_moved = (v[[before, before + window]] for v in (xs, ys))
            assert x_moved.max() < cut(xs, before) and y_moved.min() < cut(ys, before) == y_moved.max()
            assert alone(before + 1) != alone(before)
        for start in range(11, 15):
            tail = ys[start : start + window]
            assert cut(ys, start) == 7 and (tail > 7).sum() < 6 < (tail >= 7).sum()
        for step in (1, 2, window, window + 3):
            plan = RollingPlan(window, (2, 4), 0.95, step=step)
            rows = rolling_estimates(_dates(30), LossPairSample(xs=xs, ys=ys), plan)
            starts = range(0, 30 - window + 1, step)
            assert len(rows) == len(starts)
            for (_, outcome), start in zip(rows, starts):
                if isinstance(outcome, ValueError):
                    assert str(outcome) == alone(start)
                else:
                    assert ([v.hex() for v in outcome[0]], outcome[1]) == alone(start)
            outcomes = [outcome for _, outcome in rows]
            if step == 1:
                assert outcomes[7] is outcomes[6] and outcomes[12] is outcomes[11]
                assert {"gap", "values"} == {"gap" if isinstance(o, ValueError) else "values" for o in outcomes}
            if step >= window:
                assert len({id(outcome) for outcome in outcomes}) == len(outcomes)

    @pytest.mark.parametrize(
        "n, window, k, step, rounded",
        [
            pytest.param(90, 12, (9, 11), 1, False, id="k_max-window-1"),
            pytest.param(40, 40, (3, 5), 1, False, id="one-window"),
            pytest.param(90, 12, (2, 4), 12, False, id="step-window"),
            pytest.param(90, 12, (2, 4), 15, True, id="step-past-window"),
            pytest.param(200, 20, (2, 4), 1, True, id="ties"),
            pytest.param(200, 20, (2, 4), 3, True, id="ties-step-3"),
            pytest.param(200, 30, (3, 6), 1, False, id="continuous"),
        ],
    )
    def test_count_rule_picks_the_cut_rule_windows(self, monkeypatch, n, window, k, step, rounded):
        """The windows estimated are exactly those a brute-force cut rule
        picks: a window is estimated when it is the first, or when a loss
        that leaves or enters between it and the window before lies at or
        above that window's cut (from ``np.sort``, the k_max + 2-th largest
        value, or the minimum when that depth exceeds the window) in either
        margin.  The count test runs in blocks of three windows, so the
        pairs of windows cross its block edges."""
        pair = sample_model(make_spec("Pareto2"), n, np.random.default_rng(window * 1000 + n + step))
        xs, ys = (np.round(v, 0) if rounded else v for v in (pair.xs, pair.ys))
        stacks = []
        original = cotail.data_io.estimate_with_k_values

        def recording(stack, ks, tau_prime):
            stacks.append((stack.xs.copy(), stack.ys.copy()))
            return original(stack, ks, tau_prime)

        monkeypatch.setattr(cotail.data_io, "estimate_with_k_values", recording)
        monkeypatch.setattr(cotail.data_io, "_MATRIX_CELLS", 3 * window)
        rows = rolling_estimates(_dates(n), LossPairSample(xs=xs, ys=ys), RollingPlan(window, k, 0.95, step=step))
        starts = range(0, n - window + 1, step)
        assert len(rows) == len(starts)

        def cut(values, start):
            ordered = np.sort(values[start : start + window])
            return ordered[-(k[1] + 2)] if k[1] + 2 <= window else ordered[0]

        at_cut = 0
        estimated = [0]
        for before, start in zip(starts, starts[1:]):
            left = range(before, min(start, before + window))
            entered = range(max(start, before + window), start + window)
            moved = [values[[*left, *entered]] for values in (xs, ys)]
            cuts = [cut(values, before) for values in (xs, ys)]
            at_cut += any((m == c).any() for m, c in zip(moved, cuts))
            if any((m >= c).any() for m, c in zip(moved, cuts)):
                estimated.append(start)
        for margin, recorded in ((xs, [s[0] for s in stacks]), (ys, [s[1] for s in stacks])):
            assert np.array_equal(np.concatenate(recorded), [margin[s : s + window] for s in estimated])
        # the whole window before leaves, or its cut is its minimum: every window is estimated
        if k[1] == window - 1 or step >= window:
            assert estimated == list(starts)
        elif len(starts) > 1:
            assert 1 < len(estimated) < len(starts)
        # coarse-rounded losses move a loss equal to a cut
        if rounded and step < window:
            assert at_cut > 0

    def test_rows_crossing_stack_edges_are_their_windows_alone(self, monkeypatch):
        """Windows in stacks of seven, at step 1 and step 7: a stack holds a
        window where every k succeeds, one where some k fail (k_partial), a
        gap and one whose system losses tie at Y_(n-k,n), and each row is,
        bit for bit, its window estimated alone."""
        pair = sample_model(make_spec("Pareto2"), 90, np.random.default_rng(27))
        xs, ys = pair.xs.copy(), np.round(pair.ys, 1)
        # two runs of negative X: windows over them lose the Hill threshold for some or all k
        for start in (25, 65):
            xs[start : start + 15] = -1.0 - 0.01 * np.arange(15)
        sample = LossPairSample(xs=xs, ys=ys)
        window, ks = 20, range(4, 9)
        monkeypatch.setattr(cotail.covar_coes, "_MATRIX_CELLS", 7 * len(ks) * (ks[-1] + 1))
        assert _stack_rows(window, ks) == 7
        for step in (1, 7):
            rows = rolling_estimates(_dates(90), sample, RollingPlan(window, (4, 8), 0.99, step=step))
            ends = range(window, 91, step)
            assert len(rows) == len(ends) > 7
            kinds = []
            for (_, outcome), end in zip(rows, ends):
                alone = LossPairSample(xs=xs[end - window : end], ys=ys[end - window : end])
                try:
                    expected = estimate_with_k_values(alone, ks, 0.99)
                except ValueError as error:
                    assert isinstance(outcome, ValueError) and str(outcome) == str(error)
                    kinds.append({"gap"})
                    continue
                values, codes = outcome
                assert [v.hex() for v in values] == [v.hex() for v in expected.to_record().values()]
                assert codes == tuple(w.code for w in expected.warnings)
                kinds.append({"every k" if "k_partial" not in codes else "k_partial"} | set(codes))
            wanted = {"every k", "k_partial", "gap", "ties_at_threshold"}
            assert any(wanted <= set().union(*kinds[start : start + 7]) for start in range(0, len(rows), 7))

    def test_windows_word_no_warning(self, monkeypatch, tmp_path, capsys):
        """The 251 windows of the rolling benchmark's geometry carry codes
        only: small_k fires in every window, and no warning text is
        worded.  ``estimate --json`` on the same files still prints each
        warning's message."""
        calls = []
        original = cotail.covar_coes.KRangeEstimates._warning

        def counting(self, *cell):
            calls.append(cell)
            return original(self, *cell)

        monkeypatch.setattr(cotail.covar_coes.KRangeEstimates, "_warning", counting)
        prices_x, prices_y = _model_prices(seed=251, n=1250)
        _write_csv(tmp_path / "x.csv", _dates(1251), prices_x)
        _write_csv(tmp_path / "y.csv", _dates(1251), prices_y)
        dates, sample = load_pair_series(tmp_path / "x.csv", tmp_path / "y.csv")
        rows = rolling_estimates(dates, sample, RollingPlan(window=1000, k=(60, 80), tau_prime=0.999))
        assert len(rows) == 251
        assert all(not isinstance(outcome, ValueError) and "small_k" in outcome[1] for _, outcome in rows)
        assert calls == []
        files = ["--x", str(tmp_path / "x.csv"), "--y", str(tmp_path / "y.csv")]
        assert cotail.cli.main(["estimate", *files, "--k", "60:80", "--tau", "0.999", "--json"]) == 0
        warnings = json.loads(capsys.readouterr().out)["warnings"]
        assert len(calls) == len(warnings) > 0
        assert warnings[0] == {
            "code": "small_k",
            "message": "k=60 is below n^(2/3)=116.0; intermediate-order asymptotics are doubtful",
        }

    def test_gaps_keep_their_first_k_code(self):
        """A window whose every k fails is an ``EstimationError`` with its
        first k's code and every k's reason, the text its ``gap:`` note
        prints: the gaps of the golden ``rolling-3-window-30-step-7`` case,
        the first of them hill_out_of_range."""
        golden = Path(__file__).resolve().parent / "golden"
        dates, sample = load_pair_series(golden / "inputs" / "x3.csv", golden / "inputs" / "y3.csv")
        rows = rolling_estimates(dates, sample, RollingPlan(window=30, k=(10, 25), tau_prime=0.999, step=7))
        stdout = (golden / "expected" / "rolling-3-window-30-step-7" / "stdout").read_text(encoding="utf-8")
        notes = [line.split("\t")[-1] for line in stdout.splitlines()[1:]]
        assert len(notes) == len(rows)
        codes = []
        for (_, outcome), note, end in zip(rows, notes, range(30, sample.n + 1, 7)):
            if not isinstance(outcome, ValueError):
                continue
            window = LossPairSample(xs=sample.xs[end - 30 : end], ys=sample.ys[end - 30 : end])
            with pytest.raises(EstimationError) as first:
                estimate_all(window, 10, 0.999)
            assert type(outcome) is EstimationError and outcome.code == first.value.code
            assert note == f"gap: {outcome}" and str(outcome).startswith(f"k=10: {first.value}; k=11: ")
            codes.append(outcome.code)
        assert codes[0] == "hill_out_of_range"
        assert set(codes) == {"hill_out_of_range", "threshold_not_positive", "eta_not_attained"}

    def test_rows_are_dated_by_their_last_loss(self, tmp_path):
        prices_x, prices_y = _model_prices(seed=99, n=80)
        days = _dates(81)
        _write_csv(tmp_path / "x.csv", days, prices_x)
        # y skips every seventh day, so a loss can span a gap in the dates
        kept = [i for i in range(81) if i % 7 != 3]
        _write_csv(tmp_path / "y.csv", [days[i] for i in kept], prices_y[kept])
        dates, sample = load_pair_series(tmp_path / "x.csv", tmp_path / "y.csv")
        plan = RollingPlan(window=30, k=8, tau_prime=0.95, step=7)
        rows = rolling_estimates(dates, sample, plan)
        ends = range(30, sample.n + 1, 7)
        # a window's last loss ends on the common date after its first `end` losses
        assert [date for date, _ in rows] == [days[kept[end]] for end in ends]
        for (_, outcome), end in zip(rows, ends):
            window = LossPairSample(xs=sample.xs[end - 30 : end], ys=sample.ys[end - 30 : end])
            assert outcome == _values_and_codes(estimate_with_k_values(window, range(8, 9), 0.95))


class TestDiagnostics:
    def test_comonotone_exports(self, tmp_path):
        n = 200
        values = np.arange(1.0, n + 1.0)
        sample = LossPairSample(xs=values, ys=values)
        paths = diagnostics_export(sample, (10, 30), [0.9, 0.95, 0.99], tmp_path)
        assert set(paths) == {"hill", "tailprob", "r11"}

        hill_lines = paths["hill"].read_text(encoding="utf-8").splitlines()
        assert hill_lines[0] == "k\tgamma\tlo\thi\tnote"
        margin = build_margin_index(sample.xs)
        for line in hill_lines[1:]:
            k, gamma, lo, hi, note = line.split("\t")
            assert note == ""
            expected = hill_curve(margin, range(int(k), int(k) + 1))[0]
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
        paths = diagnostics_export(sample, (2, 30), [0.9, 0.95], tmp_path)
        margin = build_margin_index(values)
        rows = [line.split("\t") for line in paths["hill"].read_text(encoding="utf-8").splitlines()]
        assert rows[0] == ["k", "gamma", "lo", "hi", "note"]
        assert [int(row[0]) for row in rows[1:]] == list(range(2, 31))
        for k, gamma, lo, hi, note in rows[1:]:
            if int(k) <= 18:
                assert float(gamma) == pytest.approx(hill_curve(margin, range(int(k), int(k) + 1))[0], rel=1e-9)
                assert note == ""
            else:
                assert (gamma, lo, hi, note) == ("", "", "", "threshold_not_positive")
        assert len(paths["tailprob"].read_text(encoding="utf-8").splitlines()) == 1 + 2
        assert len(paths["r11"].read_text(encoding="utf-8").splitlines()) == 1 + 29

    def test_k_one_row_is_estimate_all_gamma(self, tmp_path):
        values = np.arange(1.0, 51.0)
        sample = LossPairSample(xs=values, ys=values)
        paths = diagnostics_export(sample, (1, 2), [0.9], tmp_path)
        k, gamma = paths["hill"].read_text(encoding="utf-8").splitlines()[1].split("\t")[:2]
        assert (k, gamma) == ("1", f"{estimate_all(sample, 1, 0.99).gamma1:.10g}")

    def test_hill_lower_band_is_clamped_at_zero(self, tmp_path):
        # 1.645 / sqrt(k) > 1 at k <= 2, so the unclamped lower end is negative
        values = np.arange(1.0, 51.0)
        sample = LossPairSample(xs=values, ys=values)
        paths = diagnostics_export(sample, (1, 3), [0.9], tmp_path)
        rows = [line.split("\t") for line in paths["hill"].read_text(encoding="utf-8").splitlines()[1:]]
        assert [(k, lo) for k, _, lo, _, _ in rows[:2]] == [("1", "0"), ("2", "0")]
        gamma = hill_curve(build_margin_index(values), range(3, 4))[0]
        assert rows[2][2] == f"{gamma * (1.0 - 1.645 / math.sqrt(3)):.10g}"
        assert all(float(row[1]) > 0.0 for row in rows)

    def test_opposite_tails_give_zero_dependence(self, tmp_path):
        n = 200
        values = np.arange(1.0, n + 1.0)
        sample = LossPairSample(xs=values, ys=values[::-1].copy())
        paths = diagnostics_export(sample, (10, 40), [0.95], tmp_path)
        for line in paths["r11"].read_text(encoding="utf-8").splitlines()[1:]:
            _, r1, r2 = line.split("\t")
            assert float(r1) == 0.0
            assert float(r2) == 0.0

    def test_each_margin_is_sorted_once(self, tmp_path, monkeypatch):
        calls = []
        original = cotail.data_io.build_margin_index

        def counting(values, depth=None, **options):
            calls.append((len(values), depth, options))
            return original(values, depth, **options)

        monkeypatch.setattr(cotail.data_io, "build_margin_index", counting)
        sample = sample_model(make_spec("Cauchy"), 500, np.random.default_rng(3))
        diagnostics_export(sample, (20, 100), [0.9, 0.95, 0.99], tmp_path)
        # to k_max + 1 = 101, below which tau = 0.9 reads no deeper (51),
        # on values the sample has checked
        assert calls == [(500, 101, {"_checked": True})] * 2

    def test_line_endings_are_unix(self, tmp_path):
        values = np.arange(1.0, 101.0)
        sample = LossPairSample(xs=values, ys=values)
        paths = diagnostics_export(sample, (10, 20), [0.9], tmp_path)
        for path in paths.values():
            raw = path.read_bytes()
            assert b"\r" not in raw
            assert raw.endswith(b"\n")

    def test_empty_ranges_rejected(self, tmp_path):
        values = np.arange(1.0, 101.0)
        sample = LossPairSample(xs=values, ys=values)
        with pytest.raises(ValueError, match="empty k range"):
            diagnostics_export(sample, (20, 10), [0.9], tmp_path)
        with pytest.raises(ValueError, match="empty tau"):
            diagnostics_export(sample, 10, [], tmp_path)


def test_k_independent_errors_are_raised_once():
    # n and tau' do not depend on k: one error, not one per k of the range
    one_pair = LossPairSample(xs=[1.0], ys=[2.0])
    with pytest.raises(ValueError) as excinfo:
        estimate_with_k_values(one_pair, range(1, 4), 0.99)
    assert str(excinfo.value) == "sample size must be >= 2, got n=1"
    sample = sample_model(make_spec("Cauchy"), 100, np.random.default_rng(3))
    # a bad tau' is reported before a bad k
    with pytest.raises(ValueError) as excinfo:
        estimate_all(sample, 0, 1.5)
    assert str(excinfo.value) == "tau_prime must lie in (0, 1), got 1.5"
