import dataclasses
import re
import tracemalloc

import numpy as np
import pytest

import cotail.covar_coes
from cotail.core import (
    ESTIMATION_ERROR_CODES,
    EstimationError,
    LossPairSample,
    WarningRecord,
    build_margin_index,
    check_tail,
)
from cotail.covar_coes import (
    ESTIMATOR_NAMES,
    RECORD_KEYS,
    RiskEstimates,
    estimate_all,
    estimate_k_range,
)
from cotail.empirical import hill_curve
from cotail.data_io import estimate_with_k_values
from cotail.models import make_spec, sample_model
from oracles import intermediate_covar_scan, selection_at


def comonotone(n):
    grid = np.arange(1.0, n + 1.0)
    return LossPairSample(xs=grid, ys=grid)


def test_intermediate_covar_comonotone():
    assert estimate_all(comonotone(8), 4, 0.9).covar_int == 7.0


def test_intermediate_covar_anti_comonotone():
    # eta-hat variant 2 is not attained, so the row fails before CoVaR_int
    sample = LossPairSample(xs=np.arange(1.0, 9.0), ys=np.arange(8.0, 0.0, -1.0))
    assert estimate_k_range(sample, range(4, 5), 0.99).errors[0, 0].code == "eta_not_attained"
    assert selection_at(sample, 4)[2] == 4.0


def test_intermediate_covar_m_equals_k():
    # n=5, k=4 gives m=4, so the second smallest filtered value is selected;
    # gamma-hat is above 1 there, so the row fails before CoVaR_int
    assert estimate_k_range(comonotone(5), range(4, 5), 0.99).errors[0, 0].code == "hill_out_of_range"
    assert selection_at(comonotone(5), 4)[2] == 2.0


def test_intermediate_covar_breaks_threshold_ties_by_rank():
    # Y_(3,5) = 2 is tied; the later of the two tied observations ranks
    # higher, so the k+1 = 3 conditioning X values are 3, 4, 5 (m = 1)
    sample = LossPairSample(
        xs=np.arange(1.0, 6.0), ys=np.array([1.0, 2.0, 2.0, 3.0, 4.0])
    )
    assert np.sort(build_margin_index(sample.ys).ranked(3)).tolist() == [2, 3, 4]
    estimates = estimate_all(sample, 2, 0.99)
    assert estimates.covar_int == 5.0
    assert estimates.coes_int == 5.0 / 4.0 * 5.0


def test_intermediate_covar_matches_scan():
    rng = np.random.default_rng(88)
    for _ in range(30):
        n = int(rng.integers(40, 300))
        k = int(rng.integers(3, n // 3))
        sample = sample_model(make_spec("Cauchy"), n, rng)
        # the row first, on the tail indexes a fresh sample builds
        result = estimate_k_range(sample, range(k, k + 1), 0.99)
        expected = intermediate_covar_scan(sample, k)
        assert selection_at(sample, k)[2] == expected
        if not result.failed[0, 0]:
            assert result.values[0, 0, RECORD_KEYS.index("covar_int")] == expected


def test_intermediate_coes_comonotone():
    assert estimate_all(comonotone(8), 4, 0.9).coes_int == pytest.approx(7.5)


def test_intermediate_coes_tied_maxima():
    # the m=2 largest filtered X values both equal 9, so CoES = (n/k^2)*m*9
    sample = LossPairSample(
        xs=np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 9.0, 9.0]),
        ys=np.arange(1.0, 9.0),
    )
    estimates = estimate_all(sample, 4, 0.99)
    assert estimates.covar_int == 9.0
    assert estimates.coes_int == pytest.approx(8.0 / 16.0 * 2.0 * 9.0)


def test_extrapolation_formula_values():
    """All seven extrapolations follow the paper's formulas from the record's
    own gamma, eta, VaR_X and intermediate estimates, with d = k/(n(1-tau'))."""
    rng = np.random.default_rng(2718)
    n, k, tau_prime = 2000, 250, 0.999
    for family in ("Cauchy", "Pareto2", "StudentT"):
        estimates = estimate_all(sample_model(make_spec(family), n, rng), k, tau_prime)
        gamma = estimates.gamma1
        base = (k / (n * (1.0 - tau_prime))) ** (2.0 * gamma)
        covar = {
            1: base * estimates.eta1 ** -gamma * estimates.var_x,
            2: base * estimates.eta2 ** -gamma * estimates.var_x,
            3: base * estimates.covar_int,
        }
        coes = {i: covar[i] / (1.0 - gamma) for i in (1, 2, 3)}
        coes[4] = base * estimates.coes_int
        for i, value in covar.items():
            assert getattr(estimates, f"covar{i}") == pytest.approx(value, rel=1e-12)
        for i, value in coes.items():
            assert getattr(estimates, f"coes{i}") == pytest.approx(value, rel=1e-12)


def test_extrapolation_at_intermediate_level_is_identity():
    """With tau' = 1 - k/n the ratio d is exactly 1 and nothing moves."""
    sample = comonotone(8)
    tau_prime = 1.0 - 4.0 / 8.0
    estimates = estimate_all(sample, 4, tau_prime)
    assert estimates.covar3 == estimates.covar_int == 7.0
    assert estimates.coes4 == estimates.coes_int == 7.5


def test_estimate_all_record_layout():
    estimates = estimate_all(comonotone(8), 4, 0.9)
    record = estimates.to_record()
    for name in ESTIMATOR_NAMES:
        assert name in record
    assert record["covar_int"] == 7.0


def test_coes_is_covar_over_one_minus_gamma():
    rng = np.random.default_rng(3141)
    for _ in range(25):
        sample = sample_model(make_spec("Cauchy"), 400, rng)
        try:
            estimates = estimate_all(sample, 60, 0.995)
        except ValueError:
            continue
        gamma = estimates.gamma1
        for i in (1, 2, 3):
            covar, coes = getattr(estimates, f"covar{i}"), getattr(estimates, f"coes{i}")
            assert coes == covar / (1.0 - gamma)
            assert np.isclose(
                coes * (1.0 - gamma),
                covar,
                rtol=5e-16,
                atol=0.0,
            )


def test_scale_equivariance_in_x():
    rng = np.random.default_rng(55)
    sample = sample_model(make_spec("Cauchy"), 500, rng)
    c = 2.0**7
    scaled = LossPairSample(xs=c * sample.xs, ys=sample.ys)
    base = estimate_all(sample, 80, 0.999)
    moved = estimate_all(scaled, 80, 0.999)
    assert moved.covar_int == c * base.covar_int
    assert moved.coes_int == c * base.coes_int
    assert moved.var_x == c * base.var_x
    assert moved.eta1 == base.eta1
    assert moved.eta2 == base.eta2
    for name in ("covar1", "covar2", "covar3", "coes4"):
        assert getattr(moved, name) == pytest.approx(c * getattr(base, name), rel=1e-12)


def test_extrapolations_monotone_in_tau_prime():
    rng = np.random.default_rng(99)
    sample = sample_model(make_spec("Cauchy"), 500, rng)
    levels = [0.995, 0.999, 0.9995, 0.9999]
    results = [estimate_all(sample, 80, t) for t in levels]
    for name in ("covar1", "covar2", "covar3", "coes4"):
        values = [getattr(r, name) for r in results]
        assert all(a <= b for a, b in zip(values, values[1:]))


def test_gamma_outside_unit_interval_rejected():
    n, k = 40, 4
    xs = np.exp(0.5 * np.arange(n))  # log-spacings make gamma-hat >> 1
    sample = LossPairSample(xs=xs, ys=np.arange(1.0, n + 1.0))
    with pytest.raises(ValueError, match="gamma1"):
        estimate_all(sample, k, 0.99)


@pytest.mark.parametrize("value,k", [(0.37, 100), (0.1, 35)])
def test_flat_top_is_rejected(value, k):
    """k+1 equal top X values give gamma1 = 0.0 exactly, whatever the logs round to."""
    n = 200
    xs = np.concatenate([np.linspace(0.01, value / 2.0, n - k - 1), np.full(k + 1, value)])
    sample = LossPairSample(xs=xs, ys=np.arange(float(n)))
    assert hill_curve(build_margin_index(sample.xs), range(k, k + 1))[0] == 0.0
    with pytest.raises(EstimationError, match="gamma1=0.0000 outside") as caught:
        estimate_all(sample, k, 0.999)
    assert caught.value.code == "hill_out_of_range"


def test_failures_carry_codes():
    n = 40
    positive = np.exp(0.05 * np.arange(n))
    shifted = positive.copy()
    shifted[:30] -= 10.0  # X_(n-k,n) <= 0 for k = 10
    cases = {
        "threshold_not_positive": (LossPairSample(xs=shifted, ys=np.arange(float(n))), 10),
        "hill_out_of_range": (LossPairSample(xs=np.exp(0.5 * np.arange(n)), ys=np.arange(float(n))), 4),
        "eta_not_attained": (LossPairSample(xs=positive, ys=-np.arange(float(n))), 10),
    }
    for code, (sample, k) in cases.items():
        with pytest.raises(EstimationError) as caught:
            estimate_all(sample, k, 0.99)
        assert caught.value.code == code
    assert set(cases) == set(ESTIMATION_ERROR_CODES)
    for bad_k, bad_tau in ((n, 0.99), (0, 0.99), (10, 1.0)):
        with pytest.raises(ValueError) as caught:
            estimate_all(cases["eta_not_attained"][0], bad_k, bad_tau)
        assert not isinstance(caught.value, EstimationError)


def test_k_range_rows_are_the_one_k_estimates():
    rng = np.random.default_rng(71)
    sample = sample_model(make_spec("StudentT"), 1000, rng)
    result = estimate_k_range(sample, range(55, 86), 0.999)
    for i, k in enumerate(range(55, 86)):
        one = estimate_k_range(sample, range(k, k + 1), 0.999)
        assert not result.failed[0, i] and not one.failed[0, 0]
        for name in ("values", "fired", "quoted"):
            assert getattr(result, name)[0, i].tolist() == getattr(one, name)[0, 0].tolist()
        assert result.values[0, i].tolist() == list(estimate_all(sample, k, 0.999).to_record().values())


def test_k_range_blocks_change_no_row(monkeypatch):
    rng = np.random.default_rng(72)
    sample = sample_model(make_spec("Cauchy"), 600, rng)
    ks = range(5, 600)
    whole = estimate_k_range(sample, ks, 0.999)
    monkeypatch.setattr(cotail.covar_coes, "_MATRIX_CELLS", 2000)
    blocked = estimate_k_range(sample, ks, 0.999)
    # failed k hold NaN in values and quoted, equal in both
    for name in ("values", "fired", "quoted", "failed"):
        assert np.array_equal(getattr(blocked, name), getattr(whole, name), equal_nan=True)
    assert {i: str(e) for i, e in blocked.errors.items()} == {i: str(e) for i, e in whole.errors.items()}
    # a k's row does not depend on the other k of its range
    for part in (range(5, 6), range(300, 302), range(598, 600)):
        alone = estimate_k_range(sample, part, 0.999)
        rows = [k - 5 for k in part]
        for name in ("values", "fired", "quoted", "failed"):
            assert np.array_equal(getattr(alone, name)[0], getattr(blocked, name)[0, rows], equal_nan=True)


def test_k_range_rejects_empty_and_fractional_k():
    """A k-range is a nonempty range of step 1; any other shape of k is an
    argument error that is never read as its two ends."""
    sample = comonotone(20)
    with pytest.raises(ValueError, match=r"^need at least one k value$"):
        estimate_k_range(sample, range(5, 5), 0.99)
    shapes = [
        ([5, 6], "list"),
        ([5.5], "list"),
        ((5,), "tuple"),
        (np.arange(5, 7), "ndarray"),
        (5.5, "float"),
        (range(5, 9, 2), "range(5, 9, 2)"),
    ]
    for ks, shape in shapes:
        message = rf"^k must be an integer or a range of step 1, got {re.escape(shape)}$"
        for call in (lambda: estimate_k_range(sample, ks, 0.99), lambda: check_tail(20, ks)):
            with pytest.raises(ValueError, match=message):
                call()


def test_warning_codes_collected():
    estimates = estimate_all(comonotone(200), 20, 0.9)
    codes = {w.code for w in estimates.warnings}
    # k=20 < 200^(2/3) and d = 20/(200*0.1) = 1 is not below one
    assert "small_k" in codes
    assert "d_below_one" not in codes


SMALL_K_200 = ("small_k", "k=20 is below n^(2/3)=34.2; intermediate-order asymptotics are doubtful")


def _tied_at_180():
    grid = np.arange(1.0, 201.0)
    ys = grid.copy()
    ys[178] = 180.0
    return LossPairSample(xs=grid**2, ys=ys)


@pytest.mark.parametrize(
    "sample,k,tau_prime,expected",
    [
        (comonotone(200), 20, 0.9, [SMALL_K_200]),
        (comonotone(100), 50, 0.4, [(
            "d_below_one",
            "extrapolation ratio d=0.8333 < 1: tau_prime=0.4 is not beyond the "
            "intermediate level 1 - k/n",
        )]),
        (_tied_at_180(), 20, 0.999, [SMALL_K_200, (
            "ties_at_threshold",
            "system losses tie at the threshold Y_(n-k,n)=180.0: the k+1 conditioning "
            "observations are chosen by rank, later ones first",
        )]),
        (comonotone(200), 10, 0.999, [
            ("small_k", "k=10 is below n^(2/3)=34.2; intermediate-order asymptotics are doubtful"),
            ("eta_clamped", "eta-hat variant 1 raw value 0.0 floored at 1/(2k) = 0.05"),
        ]),
        (LossPairSample(xs=(200.0 / np.arange(200.0, 0.0, -1.0)) ** 0.7, ys=np.arange(200.0)),
         100, 0.999, [(
            "gamma_above_half",
            "gamma1=0.6844 >= 1/2: the intermediate-CoES extrapolation (variant 4) is "
            "outside its supported regime",
        )]),
    ],
)
def test_warning_texts(sample, k, tau_prime, expected):
    expected = [WarningRecord(code, message) for code, message in expected]
    assert list(estimate_all(sample, k, tau_prime).warnings) == expected
    assert estimate_k_range(sample, range(k, k + 1), tau_prime).first_warnings()[0] == expected


def test_pareto_ratio_between_intermediates():
    """coes_int/covar_int concentrates in [1.2, 1.9] around the 1.5 limit."""
    rng = np.random.default_rng(606)
    hits = 0
    for _ in range(100):
        sample = sample_model(make_spec("Pareto2"), 5000, rng)
        estimates = estimate_all(sample, 300, 0.999)
        ratio = estimates.coes_int / estimates.covar_int
        if 1.2 <= ratio <= 1.9:
            hits += 1
    assert hits >= 90


def test_cauchy_adjustment_variants_agree():
    """The two adjustment-factor CoVaR extrapolations differ by < 10% almost always."""
    rng = np.random.default_rng(505)
    hits = 0
    for _ in range(100):
        sample = sample_model(make_spec("Cauchy"), 2000, rng)
        estimates = estimate_all(sample, 250, 0.99)
        one, two = estimates.covar1, estimates.covar2
        if abs(one - two) / min(one, two) < 0.10:
            hits += 1
    assert hits >= 95


def _outcome(sample, k, tau_prime):
    """The full result of estimate_all, or its error message."""
    try:
        estimates = estimate_all(sample, k, tau_prime)
    except ValueError as exc:
        return str(exc)
    return estimates.to_record(), estimates.warnings


def test_each_margin_is_sorted_once_per_sample(monkeypatch):
    """One index build per margin per stack, on the whole (B, n) stack; a
    1-D sample is a stack of one."""
    shapes = []
    original = cotail.covar_coes.build_margin_index

    def counting(values, depth=None, **options):
        shapes.append(np.shape(values))
        return original(values, depth, **options)

    monkeypatch.setattr(cotail.covar_coes, "build_margin_index", counting)
    rng = np.random.default_rng(17)
    estimate_all(sample_model(make_spec("Cauchy"), 2000, rng), 250, 0.999)
    assert shapes == [(1, 2000), (1, 2000)]
    shapes.clear()
    sample = sample_model(make_spec("Cauchy"), 1000, rng)
    estimate_with_k_values(sample, range(60, 81), 0.999)
    assert shapes == [(1, 1000), (1, 1000)]
    shapes.clear()
    samples = [sample_model(make_spec("Cauchy"), 1000, rng) for _ in range(5)]
    stack = LossPairSample(xs=np.stack([s.xs for s in samples]), ys=np.stack([s.ys for s in samples]))
    estimate_with_k_values(stack, range(60, 81), 0.999)
    estimate_k_range(stack, range(250, 251), 0.999)
    assert shapes == [(5, 1000)] * 4


def test_only_the_x_ranks_are_built(monkeypatch):
    """The estimators read the ranks of the x margin alone: the y index's
    dense ranks are never built, on one sample or on a stack."""
    built = []
    original = cotail.covar_coes.build_margin_index

    def keeping(values, depth=None, **options):
        built.append(original(values, depth, **options))
        return built[-1]

    monkeypatch.setattr(cotail.covar_coes, "build_margin_index", keeping)
    one = sample_model(make_spec("StudentT"), 500, np.random.default_rng(23))
    stack = sample_model(make_spec("StudentT"), 500, [np.random.default_rng(seed) for seed in (1, 2, 3)])
    for sample in (one, stack):
        built.clear()
        estimate_k_range(sample, range(60, 81), 0.999).outcomes()
        x_index, y_index = built
        assert "ranks" in vars(x_index) and "ranks" not in vars(y_index)


def test_peak_memory_of_a_stack():
    """On a (16, 2000) stack at k 250, ``estimate_k_range`` peaks while the
    y index is built, the x index alive: two dense (16, 2000) float arrays
    (each margin's sorted values) and about a dozen tail-sized arrays of
    16 x 252 8-byte entries (kept positions, their rows and homes, padded
    values, sort orders).  The bound adds a quarter dense array of slack:
    the y ranks built as int32 (half a dense array) or either margin's
    ranks as int64 (a whole one) exceed it; int64 ranks of both margins,
    built with their indexes, would make four dense arrays."""
    rows, n, depth = 16, 2000, 252
    stack = sample_model(make_spec("Cauchy"), n, [np.random.default_rng(seed) for seed in range(rows)])
    estimate_k_range(stack, range(250, 251), 0.999)  # so that no first-call allocation counts
    tracemalloc.start()
    try:
        estimate_k_range(stack, range(250, 251), 0.999)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    dense, tail = 8 * rows * n, 8 * rows * depth
    assert peak < 2 * dense + 12 * tail + dense // 4


@pytest.mark.parametrize("family", ["Logistic", "Cauchy", "Pareto2", "StudentT"])
def test_shared_sample_matches_fresh_sample_per_k(family):
    """Estimating every k of a range on one sample matches a fresh copy per k."""
    rng = np.random.default_rng(4242)
    for _ in range(3):
        shared = sample_model(make_spec(family), 1000, rng)
        for k in range(60, 81):
            fresh = LossPairSample(xs=shared.xs.copy(), ys=shared.ys.copy())
            assert _outcome(shared, k, 0.999) == _outcome(fresh, k, 0.999)


def test_shared_sample_matches_fresh_sample_on_threshold_tie():
    n = 200
    xs = np.arange(1.0, n + 1.0) ** 2
    ys = np.arange(1.0, n + 1.0)
    ys[178] = 180.0  # Y_(n-20,n) is now tied, Y_(n-30,n) is not
    shared = LossPairSample(xs=xs, ys=ys)
    untied = _outcome(shared, 30, 0.999)
    assert "ties_at_threshold" not in {w.code for w in untied[1]}
    on_shared = _outcome(shared, 20, 0.999)
    on_fresh = _outcome(LossPairSample(xs=xs, ys=ys), 20, 0.999)
    assert on_shared == on_fresh
    assert "ties_at_threshold" in {w.code for w in on_shared[1]}


def test_record_round_trip_follows_record_keys():
    estimates = estimate_all(comonotone(200), 20, 0.99)
    names = tuple(field.name for field in dataclasses.fields(RiskEstimates))
    assert names[:-1] == RECORD_KEYS
    assert names[-1] == "warnings"
    assert ESTIMATOR_NAMES == RECORD_KEYS[6:]
    assert ESTIMATOR_NAMES == ("covar1", "covar2", "covar3", "coes1", "coes2", "coes3", "coes4")
    record = estimates.to_record()
    assert tuple(record) == RECORD_KEYS
    assert RiskEstimates(**record, warnings=estimates.warnings) == estimates


def test_wide_k_ranges_are_rejected_before_any_array():
    """A k-range is checked from its two ends: ranges of 10^11 and 10^25
    values raise at k = n, the first invalid k, without being built."""
    sample = sample_model(make_spec("Cauchy"), 40, np.random.default_rng(3))
    message = r"^k must satisfy 1 <= k < n, got k=40 with n=40$"
    for ks in (range(1, 10**11), range(1, 10**25), range(1, 82), range(39, 81)):
        with pytest.raises(ValueError, match=message):
            estimate_k_range(sample, ks, 0.99)
    with pytest.raises(ValueError, match=r"^k must satisfy 1 <= k < n, got k=-5 with n=40$"):
        estimate_k_range(sample, range(-5, 10**25), 0.99)
