import copy
import pickle
import re

import numpy as np
import pytest

from cotail.core import (
    ESTIMATION_ERROR_CODES,
    EstimationError,
    LossPairSample,
    build_margin_index,
    check_level,
    check_tail,
)
from cotail.covar_coes import estimate_all, estimate_k_range
from cotail.data_io import RollingPlan
from cotail.empirical import hill_curve
from cotail.harness import ExperimentPlan
from cotail.models import make_spec
from cotail.tail_copula import r11_curve


def test_margin_index_already_sorted():
    index = build_margin_index([1.0, 2.0, 3.0])
    assert index.sorted.tolist() == [1.0, 2.0, 3.0]
    assert index.ranks.tolist() == [1, 2, 3]
    assert index.n == 3


def test_margin_index_permutation():
    index = build_margin_index([3.0, 1.0, 2.0])
    assert index.sorted.tolist() == [1.0, 2.0, 3.0]
    assert index.ranks.tolist() == [3, 1, 2]


def test_margin_index_ties_broken_by_position():
    # equal values keep their original order: earlier index, smaller rank
    index = build_margin_index([2.0, 2.0, 1.0])
    assert index.sorted.tolist() == [1.0, 2.0, 2.0]
    assert index.ranks.tolist() == [2, 3, 1]


def test_top_takes_the_later_of_tied_values():
    index = build_margin_index([2.0, 5.0, 2.0, 1.0])
    assert index.order.tolist() == [3, 0, 2, 1]
    assert np.sort(index.ranked(2)).tolist() == [1, 2]  # 5.0 and the later of the two 2.0s
    assert np.sort(index.ranked(0)).tolist() == []
    assert np.sort(index.ranked(4)).tolist() == [0, 1, 2, 3]
    with pytest.raises(ValueError):
        index.ranked(5)


def test_tail_index_keeps_ties_at_the_cut_and_raises_below_it():
    index = build_margin_index([2.0, 5.0, 2.0, 1.0, 3.0], depth=2)
    assert index.depth == 2
    assert index.ranked(2).tolist() == [1, 4]
    assert index.ranks.tolist() == [0, 5, 0, 0, 4]
    with pytest.raises(ValueError, match="below the top 2"):
        index.ranked(3)
    tied = build_margin_index([2.0, 5.0, 2.0, 1.0], depth=2)  # the cut 2.0 is tied
    assert tied.depth == 3
    assert tied.ranked(3).tolist() == [1, 2, 0]
    assert tied.ranks.tolist() == [2, 4, 3, 0]
    assert tied.sorted.tolist() == [-np.inf, 2.0, 2.0, 5.0]
    assert build_margin_index([2.0, 1.0], depth=5).order.tolist() == [1, 0]
    for depth in (0, 1.5):
        with pytest.raises(ValueError, match="depth"):
            build_margin_index([2.0, 1.0], depth=depth)


def test_margin_index_rank_permutation_roundtrip():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(2, 60))
        values = rng.normal(size=n)
        index = build_margin_index(values)
        assert sorted(index.ranks.tolist()) == list(range(1, n + 1))
        assert np.array_equal(index.sorted[index.ranks - 1], values)


@pytest.mark.parametrize(
    "bad",
    [[], [[[1.0, 2.0]]], [1.0, np.nan], [1.0, np.inf]],  # a stack is 2-D, nothing is 3-D
)
def test_margin_index_rejects_bad_input(bad):
    with pytest.raises(ValueError):
        build_margin_index(bad)


def test_margin_index_rejects_a_row_past_int32_ranks():
    """A row of 2**31 values, a zero-stride view of one float, raises before
    any array is built: its ranks would not fit int32."""
    with pytest.raises(ValueError, match=r"fewer than 2\*\*31 per row, got n=2147483648"):
        build_margin_index(np.broadcast_to(1.0, (2**31,)))


def test_loss_pair_sample_coerces_and_validates():
    sample = LossPairSample(xs=[1, 2, 3], ys=(4.0, 5.0, 6.0))
    assert sample.n == 3
    assert sample.xs.dtype == np.float64
    xs = np.array([3.0, 1.0, 2.0])
    with pytest.raises(ValueError):
        LossPairSample(xs=xs, ys=[1.0, 2.0, 3.0]).xs[0] = 0.0  # a sample is immutable
    xs[0] = 0.0  # the caller's own array stays writable
    assert LossPairSample(xs=[1.0], ys=[2.0]).n == 1  # samplers may emit one pair
    with pytest.raises(ValueError):
        LossPairSample(xs=[1.0, 2.0], ys=[1.0])
    with pytest.raises(ValueError):
        LossPairSample(xs=[], ys=[])
    with pytest.raises(ValueError):
        LossPairSample(xs=[1.0, np.nan], ys=[1.0, 2.0])
    with pytest.raises(ValueError):
        LossPairSample(xs=[[[1.0, 2.0]]], ys=[[[1.0, 2.0]]])
    with pytest.raises(ValueError):
        LossPairSample(xs=[[1.0, 2.0]], ys=[1.0, 2.0])
    stack = LossPairSample(xs=[[1.0, 2.0], [3.0, 4.0]], ys=np.ones((2, 2)))
    assert stack.stacked and stack.n == 2


def _configured(n, k, tau_prime):
    """check_tail's m, with the d and the small_k / d_below_one codes that
    estimate_all applies on a comonotone sample (d read back from
    covar3 = d^(2 gamma) * covar_int)."""
    m = check_tail(n, k, tau_prime)
    grid = np.arange(1.0, n + 1.0)
    estimates = estimate_all(LossPairSample(xs=grid, ys=grid), k, tau_prime)
    d = (estimates.covar3 / estimates.covar_int) ** (1.0 / (2.0 * estimates.gamma1))
    codes = [w.code for w in estimates.warnings if w.code in ("small_k", "d_below_one")]
    return m, d, codes


def test_check_tail_typical_cell():
    m, d, codes = _configured(500, 120, 0.99)
    assert m == 29
    assert d == pytest.approx(24.0)
    assert codes == []


def test_check_tail_small_case():
    assert check_tail(8, 4) == 2
    m, d, codes = _configured(8, 4, 0.9)
    assert m == 2
    assert d == pytest.approx(5.0)
    assert codes == []


def test_check_tail_rejects_k_out_of_range():
    with pytest.raises(ValueError, match=r"1 <= k < n, got k=8 with n=8"):
        check_tail(8, 8)
    with pytest.raises(ValueError, match=r"1 <= k < n, got k=0 with n=8"):
        check_tail(8, 0)
    with pytest.raises(ValueError, match="sample size must be >= 2, got n=1"):
        check_tail(1, 1)


def test_check_tail_rejects_bad_tau_prime():
    for tau in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ValueError, match=r"tau_prime must lie in \(0, 1\)"):
            check_tail(100, 10, tau)
    # a level that is not a real number is out of range too, not a TypeError
    for tau in ("0.99", [0.99], True):
        with pytest.raises(ValueError, match=re.escape(f"tau_prime must lie in (0, 1), got {tau}")):
            check_level(tau, "tau_prime")


def test_small_k_warning():
    # k = 50 < 1000^(2/3) = 100 triggers the heuristic warning
    m, _, codes = _configured(1000, 50, 0.999)
    assert m == 3
    assert codes == ["small_k"]


def test_d_below_one_warning():
    _, d, codes = _configured(100, 50, 0.4)
    assert d == pytest.approx(50 / 60)
    assert codes == ["d_below_one"]


def test_m_is_ceiling_of_k_squared_over_n():
    for n in (10, 97, 500, 2000):
        for k in (1, 3, n // 2, n - 1):
            m = check_tail(n, k)
            assert m == -((-k * k) // n)
            assert 1 <= m <= k


@pytest.mark.parametrize("k", [0, 20])
def test_every_entry_point_words_an_invalid_k_alike(k):
    n = 20
    grid = np.arange(1.0, n + 1.0)
    sample = LossPairSample(xs=grid, ys=grid)
    expected = f"k must satisfy 1 <= k < n, got k={k} with n={n}"
    calls = [
        lambda: r11_curve(build_margin_index(grid), build_margin_index(grid), range(k, k + 1)),
        lambda: hill_curve(build_margin_index(grid), range(k, k + 1)),
        lambda: estimate_all(sample, k, 0.99),
        lambda: estimate_k_range(sample, range(k, k + 1), 0.99),
        lambda: ExperimentPlan(make_spec("Cauchy"), n, k, 0.99, replications=1, seed=0),
        lambda: RollingPlan(window=n, k=k, tau_prime=0.99),
    ]
    for call in calls:
        with pytest.raises(ValueError) as caught:
            call()
        assert str(caught.value) == expected


@pytest.mark.parametrize("code", ESTIMATION_ERROR_CODES)
def test_estimation_error_survives_pickle_and_copy(code):
    error = EstimationError(code, f"message for {code}")
    for clone in (pickle.loads(pickle.dumps(error)), copy.copy(error)):
        assert type(clone) is EstimationError
        assert (clone.code, str(clone)) == (code, f"message for {code}")


def test_estimation_error_rejects_unknown_code():
    with pytest.raises(ValueError, match="unknown estimation error code 'bogus'"):
        EstimationError("bogus", "message")
