"""Property tests for the conditioning event and the estimators built on it.

Every tail estimator conditions on the k+1 largest system losses by rank,
``MarginIndex.top``; these properties pin that contract down on tie-heavy,
degenerate and permuted inputs, and check that every row of a k-range is
the one-k estimate and matches the brute-force definitions, that a tail
index is the full sort on its tail and changes no k-range result, and that
the estimators scale with X and R-hat keeps its bounds.  Examples are
derandomized, so the suite draws the same cases on every run.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cotail.core import (
    ESTIMATION_ERROR_CODES,
    EstimationError,
    LossPairSample,
    build_margin_index,
    check_tail,
)
from cotail.covar_coes import ESTIMATOR_NAMES, _intermediate, estimate_all, estimate_k_range
from cotail.models import FAMILIES, make_spec, sample_model
from cotail.tail_copula import _eta, filtered_x_ranks, r_hat
from oracles import eta_hat_bruteforce, intermediate_covar_scan

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)


def _outcome(sample, k, tau_prime):
    """The record of estimate_all, or its error message."""
    try:
        return estimate_all(sample, k, tau_prime).to_record()
    except ValueError as exc:
        return str(exc)


def _full_outcome(call):
    """The record and warnings ``call()`` returns, or its error type, code and message."""
    try:
        estimates = call()
    except ValueError as exc:
        return type(exc), getattr(exc, "code", None), str(exc)
    return estimates.to_record(), estimates.warnings


@st.composite
def tied_dependent_samples(draw):
    """(sample, k): heavy-tailed X on a 40-point grid and a coarse Y that
    rises with X, so ties at every threshold are common and the estimators
    mostly succeed."""
    n = draw(st.integers(20, 150))
    u = draw(hnp.arrays(np.int64, n, elements=st.integers(1, 40), fill=st.nothing()))
    v = draw(hnp.arrays(np.int64, n, elements=st.integers(0, 3), fill=st.nothing()))
    sample = LossPairSample(xs=np.sqrt(40.0 / u), ys=((40 - u + v) // 3).astype(float))
    return sample, draw(st.integers(1, n // 2))


@st.composite
def finite_samples(draw):
    """(sample, k): arbitrary small integers, constants and negatives."""
    n = draw(st.integers(2, 60))
    margin = st.one_of(
        hnp.arrays(float, n, elements=st.integers(-5, 5).map(float)),
        hnp.arrays(float, n, elements=st.integers(1, 20).map(float)),
        hnp.arrays(float, n, elements=st.floats(-100.0, 100.0)),
        st.floats(-5.0, 5.0).map(lambda c: np.full(n, c)),
    )
    return LossPairSample(xs=draw(margin), ys=draw(margin)), draw(st.integers(1, n - 1))


@SETTINGS
@given(hnp.arrays(float, st.integers(1, 40), elements=st.integers(0, 4).map(float)))
def test_top_is_the_rank_filter(values):
    index = build_margin_index(values)
    n = index.n
    for count in range(1, n + 1):
        assert np.array_equal(index.top(count), np.flatnonzero(index.ranks > n - count))


@SETTINGS
@given(
    st.one_of(
        hnp.arrays(float, st.integers(1, 40), elements=st.integers(-3, 3).map(float)),
        hnp.arrays(float, st.integers(1, 40), elements=st.floats(-100.0, 100.0)),
        st.tuples(st.integers(1, 40), st.floats(-5.0, 5.0)).map(lambda nc: np.full(*nc)),
    )
)
def test_tail_index_is_the_full_index_on_its_tail(values):
    full = build_margin_index(values)
    n = full.n
    for depth in range(1, n + 1):
        tail = build_margin_index(values, depth)
        t = tail.depth
        assert depth <= t <= n
        assert np.array_equal(tail.order, full.order[n - t :])
        assert np.array_equal(tail.sorted[n - t :], full.sorted[n - t :])
        assert np.all(tail.sorted[: n - t] == -np.inf)
        inside = full.ranks > n - t
        assert np.array_equal(tail.ranks[inside], full.ranks[inside])
        assert np.all(tail.ranks[~inside] == 0)
        # closed under ties: the tail is every value at or above its cut
        cut = full.sorted[n - depth]
        assert np.array_equal(np.sort(tail.order), np.flatnonzero(values >= cut))


@SETTINGS
@given(
    st.one_of(tied_dependent_samples(), finite_samples()),
    st.integers(0, 30),
    st.sampled_from([0.99, 0.999]),
)
def test_k_range_on_tail_indexes_equals_full_indexes(case, width, tau_prime):
    """A fresh sample runs the k-range on tail indexes; a sample whose full
    indexes were built first runs it on those, the indexes the brute-force
    criterion reads."""
    sample, k = case
    ks = range(k, min(k + width, sample.n + 2) + 1)
    fresh = LossPairSample(xs=sample.xs, ys=sample.ys)
    on_tail = estimate_k_range(fresh, ks, tau_prime)
    warmed = LossPairSample(xs=sample.xs, ys=sample.ys)
    assert warmed.x_index.depth == warmed.y_index.depth == warmed.n
    on_full = estimate_k_range(warmed, ks, tau_prime)
    assert on_tail.first_warnings() == on_full.first_warnings()
    for i in range(len(ks)):
        assert _full_outcome(lambda: on_tail.estimates(i)) == _full_outcome(
            lambda: on_full.estimates(i)
        )


@SETTINGS
@given(tied_dependent_samples(), st.integers(-8, 8), st.sampled_from([0.99, 0.999]))
def test_scaling_x_by_a_power_of_two_scales_every_covar_and_coes(case, j, tau_prime):
    sample, k = case
    c = 2.0**j
    base = _full_outcome(lambda: estimate_all(sample, k, tau_prime))
    scaled = _full_outcome(
        lambda: estimate_all(LossPairSample(xs=c * sample.xs, ys=sample.ys), k, tau_prime)
    )
    if not isinstance(base[0], dict):
        assert scaled[1] == base[1]
        return
    base, scaled = base[0], scaled[0]
    for key in ("var_x", "covar_int", "coes_int"):
        assert scaled[key] == c * base[key], key
    for key in ("gamma1", *ESTIMATOR_NAMES):
        factor = 1.0 if key == "gamma1" else c
        assert abs(scaled[key] - factor * base[key]) <= 1e-12 * abs(factor * base[key]), key


@SETTINGS
@given(
    tied_dependent_samples(),
    st.sampled_from([1, 2]),
    st.lists(st.floats(0.0, 3.0), min_size=3, max_size=3),
)
def test_r_hat_is_bounded_and_nondecreasing(case, variant, args):
    sample, k = case
    x, y, step = args
    value = r_hat(sample, k, variant, x, y)
    assert 0.0 <= value <= (min(int(k * x), int(k * y)) + 1) / k
    assert r_hat(sample, k, variant, x + step, y) >= value
    assert r_hat(sample, k, variant, x, y + step) >= value


@SETTINGS
@given(tied_dependent_samples(), st.sampled_from([0.99, 0.999]))
def test_y_enters_only_through_its_ranks(case, tau_prime):
    sample, k = case
    ranked = LossPairSample(xs=sample.xs, ys=sample.y_index.ranks)
    assert _outcome(sample, k, tau_prime) == _outcome(ranked, k, tau_prime)


@SETTINGS
@given(finite_samples(), st.sampled_from([0.9, 0.999, 0.999999]))
def test_estimate_all_returns_finite_values_or_raises_value_error(case, tau_prime):
    sample, k = case
    try:
        estimates = estimate_all(sample, k, tau_prime)
    except EstimationError as exc:
        assert exc.code in ESTIMATION_ERROR_CODES
        return
    assert all(np.isfinite(value) for value in estimates.to_record().values())
    for i in (1, 2, 3):
        covar, coes = getattr(estimates, f"covar{i}"), getattr(estimates, f"coes{i}")
        assert coes == covar / (1.0 - estimates.gamma1)


@SETTINGS
@given(
    st.sampled_from(FAMILIES),
    st.integers(0, 2**32 - 1),
    st.integers(50, 400),
    st.floats(0.02, 0.3),
)
def test_permutation_changes_no_value_on_tie_free_data(family, seed, n, k_share):
    rng = np.random.default_rng(seed)
    sample = sample_model(make_spec(family), n, rng)
    assert np.unique(sample.xs).size == n and np.unique(sample.ys).size == n
    k = max(1, int(k_share * n))
    order = rng.permutation(n)
    base = _outcome(sample, k, 0.999)
    moved = _outcome(LossPairSample(xs=sample.xs[order], ys=sample.ys[order]), k, 0.999)
    if isinstance(base, str):
        assert moved == base
        return
    assert moved.keys() == base.keys()
    for key, value in base.items():
        assert abs(moved[key] - value) <= 1e-12 * abs(value), key


@SETTINGS
@given(tied_dependent_samples(), st.integers(0, 30), st.sampled_from([0.99, 0.999]))
def test_k_range_rows_equal_estimate_all_on_ties(case, width, tau_prime):
    sample, k = case
    ks = range(k, min(k + width, sample.n + 2) + 1)
    result = estimate_k_range(sample, ks, tau_prime)
    for i, k in enumerate(ks):
        one_k = _full_outcome(lambda: estimate_all(sample, k, tau_prime))
        assert _full_outcome(lambda: result.estimates(i)) == one_k


def _bruteforce(sample, k, variant):
    try:
        return eta_hat_bruteforce(sample, k, variant)
    except ValueError:
        return None


@settings(SETTINGS, max_examples=60)
@given(
    st.sampled_from(FAMILIES),
    st.integers(0, 2**32 - 1),
    st.integers(40, 300),
    st.floats(0.0, 0.5),
    st.integers(0, 20),
)
def test_k_range_selection_equals_bruteforce(family, seed, n, lo_share, width):
    """Criterion 5 over whole k-ranges: the one selection every k shares
    gives the definitional eta-hat and intermediate CoVaR at every k."""
    sample = sample_model(make_spec(family), n, np.random.default_rng(seed))
    assert np.unique(sample.xs).size == n and np.unique(sample.ys).size == n
    lo = max(1, int(lo_share * n))
    ks = np.arange(lo, min(lo + width, n - 1) + 1)
    ms = np.array([check_tail(n, k) for k in ks.tolist()])
    rows, r1, r2 = filtered_x_ranks(sample.x_index, sample.y_index, ks, ms)
    covar, _ = _intermediate(sample.x_index, ks, rows, r1)
    result = estimate_k_range(sample, ks, 0.999)
    for i, k in enumerate(ks.tolist()):
        raws = []
        for variant, rank in ((1, int(r1[i])), (2, int(r2[i]))):
            eta = _eta(n, k, variant, rank)
            raws.append(None if eta is None else eta[0])
            assert raws[-1] == _bruteforce(sample, k, variant)
        assert covar[i] == intermediate_covar_scan(sample, k)
        error = result.errors[i]
        if error is None:
            values, _, quoted = result.rows[i]
            assert quoted[1] == raws[0]
            assert values[3] == raws[1]
            assert values[4] == covar[i]
        elif error.code == "eta_not_attained":
            assert None in raws
