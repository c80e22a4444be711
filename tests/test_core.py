import numpy as np
import pytest

from cotail.core import (
    LossPairSample,
    build_margin_index,
    validate_tail_config,
)


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
    assert index.top(2).tolist() == [1, 2]  # 5.0 and the later of the two 2.0s
    assert index.top(0).tolist() == []
    assert index.top(4).tolist() == [0, 1, 2, 3]
    with pytest.raises(ValueError):
        index.top(5)


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
    [[], [[1.0, 2.0]], [1.0, np.nan], [1.0, np.inf]],
)
def test_margin_index_rejects_bad_input(bad):
    with pytest.raises(ValueError):
        build_margin_index(bad)


def test_loss_pair_sample_coerces_and_validates():
    sample = LossPairSample(xs=[1, 2, 3], ys=(4.0, 5.0, 6.0))
    assert sample.n == 3
    assert sample.xs.dtype == np.float64
    assert LossPairSample(xs=[1.0], ys=[2.0]).n == 1  # samplers may emit one pair
    with pytest.raises(ValueError):
        LossPairSample(xs=[1.0, 2.0], ys=[1.0])
    with pytest.raises(ValueError):
        LossPairSample(xs=[], ys=[])
    with pytest.raises(ValueError):
        LossPairSample(xs=[1.0, np.nan], ys=[1.0, 2.0])
    with pytest.raises(ValueError):
        LossPairSample(xs=[[1.0, 2.0]], ys=[[1.0, 2.0]])


def test_loss_pair_sample_caches_read_only_margin_indexes():
    xs = np.array([3.0, 1.0, 2.0])
    sample = LossPairSample(xs=xs, ys=[1.0, 2.0, 3.0])
    assert sample.x_index is sample.x_index
    assert sample.x_index.ranks.tolist() == [3, 1, 2]
    assert sample.y_index.sorted.tolist() == [1.0, 2.0, 3.0]
    with pytest.raises(ValueError):
        sample.xs[0] = 0.0  # the cached index would go stale
    xs[0] = 0.0  # the caller's own array stays writable


def test_validate_tail_config_typical_cell():
    config, warnings = validate_tail_config(500, 120, 0.99)
    assert config.m == 29
    assert config.d == pytest.approx(24.0)
    assert warnings == []


def test_validate_tail_config_small_case():
    config, warnings = validate_tail_config(8, 4)
    assert config.m == 2
    assert config.tau_prime is None
    assert config.d is None
    assert warnings == []


def test_validate_tail_config_rejects_k_out_of_range():
    with pytest.raises(ValueError):
        validate_tail_config(8, 8)
    with pytest.raises(ValueError):
        validate_tail_config(8, 0)
    with pytest.raises(ValueError):
        validate_tail_config(1, 1)


def test_validate_tail_config_rejects_bad_tau_prime():
    for tau in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            validate_tail_config(100, 10, tau)


def test_small_k_warning():
    # k = 50 < 1000^(2/3) = 100 triggers the heuristic warning
    config, warnings = validate_tail_config(1000, 50, 0.999)
    assert config.m == 3
    assert [w.code for w in warnings] == ["small_k"]


def test_d_below_one_warning():
    config, warnings = validate_tail_config(100, 50, 0.4)
    assert config.d == pytest.approx(50 / 60)
    assert [w.code for w in warnings] == ["d_below_one"]


def test_m_is_ceiling_of_k_squared_over_n():
    for n in (10, 97, 500, 2000):
        for k in (1, 3, n // 2, n - 1):
            config, _ = validate_tail_config(n, k)
            assert config.m == -((-k * k) // n)
            assert 1 <= config.m <= k
