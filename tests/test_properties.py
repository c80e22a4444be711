"""Property tests for the conditioning event and the estimators built on it.

Every tail estimator conditions on the k+1 largest system losses by rank,
``MarginIndex.ranked``; these properties pin that contract down on
tie-heavy, degenerate and permuted inputs, and check that every row of a
k-range is the one-k estimate and matches the brute-force definitions, that
a tail index is the full sort on its tail and changes no k-range result,
that the diagnostic curves equal their definitions, and that the
estimators scale with X and R-hat keeps its bounds.  The price-file
loader, a ``csv.reader`` walk of the whole decoded text, is held to the
reference loader that walks the open file on generated texts, and its
ordinal join to the lookup join.
Examples are derandomized, so the suite draws the same cases on every run.
"""

import datetime
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cotail.core import (
    ESTIMATION_ERROR_CODES,
    EstimationError,
    LossPairSample,
    build_margin_index,
    check_tail,
)
from cotail.covar_coes import ESTIMATOR_NAMES, WARNING_CODES, RiskEstimates, _intermediate, estimate_all, estimate_k_range
from cotail.data_io import (
    RollingPlan,
    _load_price_file,
    estimate_with_k_values,
    k_values,
    load_pair_series,
    rolling_estimates,
)
from cotail.empirical import _hill, hill_curve, tail_prob_curve
from cotail.models import FAMILIES, ModelSpec, make_spec, sample_model
from cotail.tail_copula import _eta, filtered_x_ranks, r11_curve
from oracles import (
    eta_hat_bruteforce,
    intermediate_covar_scan,
    margin_index_by_stable_argsort,
    pair_series_by_dates,
    price_table_by_rows,
    r_hat,
    sample_by_rows,
    tail_prob_by_value,
)

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


def _row_outcome(result, i):
    """Cell i of a one-sample ``KRangeEstimates``, or its error's type, code and message."""
    if result.failed[0, i]:
        error = result.errors[0, i]
        return type(error), getattr(error, "code", None), str(error)
    return result.values[0, i].tolist(), result.fired[0, i].tolist(), result.quoted[0, i].tolist()


@SETTINGS
@given(
    st.one_of(
        st.tuples(st.integers(1, 7), st.integers(1, 60)).flatmap(
            lambda shape: st.one_of(
                hnp.arrays(float, shape, elements=st.integers(0, 4).map(float)),
                hnp.arrays(float, shape, elements=st.floats(-3.0, 3.0).map(lambda v: round(v, 1))),
                hnp.arrays(float, shape, elements=st.sampled_from([-0.0, 0.0, 1.0])),
            )
        ),
        hnp.arrays(float, st.integers(1, 60), elements=st.sampled_from([-0.0, 0.0, 1.0, 2.0])),
    )
)
@example(np.array([[0.0, -0.0, 0.0, -0.0], [1.0, 1.0, 0.0, 2.0]]))
def test_margin_index_is_the_stable_argsort_oracle(values):
    """On tie-heavy stacks and samples, a margin index at every depth from
    1 to n + 2, and the full index, is bit for bit the one read from each
    row's stable argsort, its ranks int32: the default sort's arbitrary
    order among ties, and the sign of a zero, never show."""
    n = values.shape[-1]
    for depth in [*range(1, n + 3), None]:
        index = build_margin_index(values, depth)
        expected = margin_index_by_stable_argsort(values, depth)
        for got, want in zip((index.sorted, index.ranks, index.order), expected):
            assert (got.shape, got.dtype, got.tobytes()) == (want.shape, want.dtype, want.tobytes())


SAMPLER_SPECS = [make_spec(family) for family in FAMILIES] + [ModelSpec("Logistic", theta=1.0)]


@settings(SETTINGS, max_examples=100)
@given(
    st.sampled_from(SAMPLER_SPECS),
    st.sampled_from([1, 2, 3, 7, 65]),
    st.integers(1, 600),
    st.integers(0, 2**32 - 1),
)
@example(SAMPLER_SPECS[-1], 65, 501, 7)
@example(SAMPLER_SPECS[0], 7, 1, 8)
def test_stack_rows_are_their_generators_lone_draws(spec, rows, n, seed):
    """Each row of a sample_model stack is, bit for bit, the sample its
    Generator draws alone, and the one the per-sample reference sampler
    draws from the same stream."""
    children = np.random.SeedSequence(seed).spawn(rows)
    stack = sample_model(spec, n, [np.random.default_rng(child) for child in children])
    assert stack.xs.shape == (rows, n)
    for row, child in enumerate(children):
        alone = sample_model(spec, n, np.random.default_rng(child))
        reference = sample_by_rows(spec, n, np.random.default_rng(child))
        for got, lone, want in zip((stack.xs[row], stack.ys[row]), (alone.xs, alone.ys), reference):
            assert got.tobytes() == lone.tobytes() == want.tobytes()


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
        assert np.array_equal(np.sort(index.ranked(count)), np.flatnonzero(index.ranks > n - count))


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
    """The k-range sorts each margin to depth k_max + 2; forced to build
    full indexes, the ones the brute-force criterion reads, it gives the
    same rows."""
    sample, k = case
    ks = range(k, min(k + width, sample.n - 1) + 1)
    on_tail = estimate_k_range(sample, ks, tau_prime)
    built = []

    def full_index(values, depth, **options):
        built.append(build_margin_index(values, **options))
        return built[-1]

    with mock.patch("cotail.covar_coes.build_margin_index", full_index):
        on_full = estimate_k_range(sample, ks, tau_prime)
    assert [index.depth for index in built] == [sample.n, sample.n]
    assert on_tail.first_warnings() == on_full.first_warnings()
    for i in range(len(ks)):
        assert _row_outcome(on_tail, i) == _row_outcome(on_full, i)


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
@given(
    tied_dependent_samples(),
    st.integers(0, 30),
    st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), min_size=1, max_size=5),
)
def test_diagnostic_curves_equal_their_definitions(case, width, taus):
    """R-hat(1, 1) from one count is r_hat at every k, on full indexes and
    on tail indexes of depth max(ks) + 1; the rank-based joint tail
    probability is the value-based one, on full and on minimal tail indexes."""
    sample, k = case
    n = sample.n
    ks = range(k, min(k + width, n - 1) + 1)
    expected = [[r_hat(sample, j, variant, 1.0, 1.0) for j in ks] for variant in (1, 2)]
    reach = n + 1 - math.ceil(n * min(taus))
    for r11_depth, prob_depth in ((None, None), (ks[-1] + 1, reach)):
        indexes = [build_margin_index(v, r11_depth) for v in (sample.xs, sample.ys)]
        assert [r.tolist() for r in r11_curve(*indexes, ks)] == expected
        indexes = [build_margin_index(v, prob_depth) for v in (sample.xs, sample.ys)]
        by_value = [tail_prob_by_value(sample, tau) for tau in taus]
        assert tail_prob_curve(*indexes, taus).tolist() == by_value


@SETTINGS
@given(tied_dependent_samples(), st.sampled_from([0.99, 0.999]))
def test_y_enters_only_through_its_ranks(case, tau_prime):
    sample, k = case
    ranked = LossPairSample(xs=sample.xs, ys=build_margin_index(sample.ys).ranks)
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
    ks = range(k, min(k + width, sample.n - 1) + 1)
    result = estimate_k_range(sample, ks, tau_prime)
    for i, k in enumerate(ks):
        assert _row_outcome(result, i) == _row_outcome(estimate_k_range(sample, range(k, k + 1), tau_prime), 0)


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
    ks = range(lo, min(lo + width, n - 1) + 1)
    k_array, ms = np.array(ks), np.array([check_tail(n, k) for k in ks])
    x_index, y_index = (build_margin_index(v[None]) for v in (sample.xs, sample.ys))
    rows, r1, r2 = filtered_x_ranks(x_index, y_index, k_array, ms)
    covar = _intermediate(x_index, k_array, ms, rows, r1)[0][0]
    r1, r2 = r1[0], r2[0]
    result = estimate_k_range(sample, ks, 0.999)
    for i, k in enumerate(ks):
        raws = []
        for variant, rank in ((1, int(r1[i])), (2, int(r2[i]))):
            raw, _, _, attained = _eta(n, k, variant, rank)
            raws.append(float(raw) if attained else None)
            assert raws[-1] == _bruteforce(sample, k, variant)
        assert covar[i] == intermediate_covar_scan(sample, k)
        if not result.failed[0, i]:
            values, quoted = result.values[0, i].tolist(), result.quoted[0, i].tolist()
            assert quoted[1] == raws[0]
            assert values[3] == raws[1]
            assert values[4] == covar[i]
        elif result.errors[0, i].code == "eta_not_attained":
            assert None in raws


def _bits(outcome):
    """An estimate_all / estimate_with_k_values outcome, with every float as
    its exact hex digits, or its error's type, code and message."""
    if isinstance(outcome, ValueError):
        return type(outcome), getattr(outcome, "code", None), str(outcome)
    return [value.hex() for value in outcome.to_record().values()], outcome.warnings


def _average_bits(outcome):
    """A k average, from a stack as (values, codes) or from one sample as
    ``RiskEstimates``, as (exact hex values, warning codes); or its error's
    type, code and message."""
    if isinstance(outcome, ValueError):
        return type(outcome), getattr(outcome, "code", None), str(outcome)
    if isinstance(outcome, RiskEstimates):
        outcome = list(outcome.to_record().values()), tuple(w.code for w in outcome.warnings)
    values, codes = outcome
    return [value.hex() for value in values], codes


def _k_range_bits(result):
    """A ``KRangeEstimates`` as bytes: each array's shape and bytes, each
    error's key, type, code and message, and the warnings first met."""
    arrays = [(a.shape, a.tobytes()) for a in (result.values, result.fired, result.quoted, result.failed)]
    return arrays, {at: _bits(e) for at, e in result.errors.items()}, result.first_met(), result.first_warnings()


def _alone(call):
    try:
        return call()
    except ValueError as exc:
        return exc


@st.composite
def stacks(draw):
    """(rows, ks): 2 to 7 model samples of one size n, some rounded so that
    they tie at the cut, in a drawn order, and a k-range in [1, n - 1]."""
    n = draw(st.integers(8, 80))
    rows = []
    for _ in range(draw(st.integers(2, 7))):
        spec, seed = make_spec(draw(st.sampled_from(FAMILIES))), draw(st.integers(0, 2**32 - 1))
        sample = sample_model(spec, n, np.random.default_rng(seed))
        decimals = draw(st.sampled_from([None, 0, 1]))
        rows.append(tuple(v if decimals is None else np.round(v, decimals) for v in (sample.xs, sample.ys)))
    rows = draw(st.permutations(rows))
    lo = draw(st.integers(1, n - 1))
    return rows, range(lo, draw(st.integers(lo, n - 1)) + 1)


@settings(SETTINGS, max_examples=120)
@given(stacks(), st.sampled_from([0.99, 0.999]))
def test_every_row_of_a_stack_is_its_sample_alone(case, tau_prime):
    """Each row of a stacked estimate is, bit for bit, what its sample gives
    alone: index, values, errors with their codes and texts, warnings, the
    k average with its warning codes and the one-k record.  A sample alone
    is the same whether 1-D or a (1, n) stack."""
    rows, ks = case
    stack = LossPairSample(xs=np.stack([xs for xs, _ in rows]), ys=np.stack([ys for _, ys in rows]))
    stacked = estimate_k_range(stack, ks, tau_prime)
    averaged = estimate_with_k_values(stack, ks, tau_prime)
    one_k = estimate_k_range(stack, ks[:1], tau_prime)
    indexes = build_margin_index(stack.xs, ks[-1])
    assert stacked.failed.shape == (len(rows), len(ks))
    assert one_k.failed.shape == (len(rows), 1)
    assert len(averaged) == len(rows)
    for row, (xs, ys) in enumerate(rows):
        sample = LossPairSample(xs=xs, ys=ys)
        index = build_margin_index(xs, ks[-1])
        assert indexes.sorted[row].tobytes() == index.sorted.tobytes()
        assert np.array_equal(indexes.ranks[row], index.ranks)
        assert np.array_equal(indexes.order[row], index.order[index.depth - indexes.depth :])
        alone = estimate_k_range(sample, ks, tau_prime)
        one_row = estimate_k_range(LossPairSample(xs=xs[None], ys=ys[None]), ks, tau_prime)
        assert _k_range_bits(one_row) == _k_range_bits(alone)
        row_errors = {i: _bits(e) for (at, i), e in stacked.errors.items() if at == row}
        assert row_errors == {i: _bits(e) for (_, i), e in alone.errors.items()}
        for name in ("values", "fired", "quoted", "failed"):
            assert getattr(stacked, name)[row].tobytes() == getattr(alone, name)[0].tobytes()
        assert stacked.first_met()[row] == alone.first_met()[0]
        assert stacked.first_warnings()[row] == alone.first_warnings()[0]
        average = _alone(lambda: estimate_with_k_values(sample, ks, tau_prime))
        assert _average_bits(averaged[row]) == _average_bits(average)
        one_k_row = one_k.errors[row, 0] if one_k.failed[row, 0] else RiskEstimates(
            *one_k.values[row, 0].tolist(), warnings=tuple(one_k.first_warnings()[row])
        )
        assert _bits(one_k_row) == _bits(_alone(lambda: estimate_all(sample, ks[0], tau_prime)))


@settings(SETTINGS, max_examples=60)
@given(stacks(), st.sampled_from([0.99, 0.999]))
def test_one_k_outcomes_are_the_cells_themselves(case, tau_prime):
    """At one k each row's outcome is its one cell: ``values[row, 0]`` bit
    for bit with the codes that fired there, in ``WARNING_CODES`` order, or
    ``errors[row, 0]``'s type and code with its text after "k=K: "."""
    rows, ks = case
    stack = LossPairSample(xs=np.stack([xs for xs, _ in rows]), ys=np.stack([ys for _, ys in rows]))
    result = estimate_k_range(stack, ks[:1], tau_prime)
    outcomes = result.outcomes()
    assert len(outcomes) == len(rows)
    for row, outcome in enumerate(outcomes):
        if result.failed[row, 0]:
            error = result.errors[row, 0]
            assert type(outcome) is type(error) and getattr(outcome, "code", None) == getattr(error, "code", None)
            assert str(outcome) == f"k={ks[0]}: {error}"
        else:
            values, codes = outcome
            assert [value.hex() for value in values] == [value.hex() for value in result.values[row, 0].tolist()]
            assert codes == tuple(code for code, hit in zip(WARNING_CODES, result.fired[row, 0]) if hit)
            assert codes == tuple(WARNING_CODES[column] for _, column in result.first_met()[row])


@settings(SETTINGS, max_examples=60)
@given(stacks(), st.integers(0, 3), st.sampled_from([0.99, 0.999]))
def test_every_failed_cell_is_coded(case, past, tau_prime):
    """Every failed cell of a stack, and every row whose every k fails,
    holds an ``EstimationError`` with a code of ``ESTIMATION_ERROR_CODES``;
    a range stretched ``past`` its end to n leaves no cell, as it raises at
    k = n."""
    rows, ks = case
    stack = LossPairSample(xs=np.stack([xs for xs, _ in rows]), ys=np.stack([ys for _, ys in rows]))
    ks = range(ks.start, ks.stop + past)
    if ks[-1] >= stack.n:
        with pytest.raises(ValueError, match=rf"^k must satisfy 1 <= k < n, got k={stack.n} with n={stack.n}$"):
            estimate_k_range(stack, ks, tau_prime)
        return
    result = estimate_k_range(stack, ks, tau_prime)
    errors = [*result.errors.values(), *(o for o in result.outcomes() if isinstance(o, ValueError))]
    assert len(result.errors) == result.failed.sum()
    for error in errors:
        assert type(error) is EstimationError and error.code in ESTIMATION_ERROR_CODES


@st.composite
def k_sequences_with_an_invalid_k(draw):
    """(n, ks): a sample size and a k-range that holds a k outside
    [1, n - 1]: it starts below 1, crosses n or starts above it, and may
    reach past 2^63, or start far below -2^63."""
    n = draw(st.integers(2, 60))
    lo = draw(st.one_of(st.integers(-2, n + 2), st.integers(-(2**70), 2**70)))
    # the last k is at least the first invalid one
    hi = (lo if not 0 < lo < n else n) + draw(st.one_of(st.integers(0, 2 * n), st.integers(2**63, 2**70)))
    return n, range(lo, hi + 1)


@SETTINGS
@given(k_sequences_with_an_invalid_k(), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_an_invalid_k_raises_at_the_first_in_order(case, stack_rows, seed):
    """A k-range that holds a k outside [1, n - 1] is an argument error,
    never a failed cell: ``check_tail``, every estimator entry point and
    both diagnostic curves raise a plain ``ValueError`` with
    ``check_tail``'s text for the first such k in order."""
    n, ks = case
    first = next(k for k in ks if not 0 < k < n)
    with pytest.raises(ValueError) as expected:
        check_tail(n, first)
    rng = np.random.default_rng(seed)
    stack = LossPairSample(xs=rng.standard_t(3, (stack_rows, n)), ys=rng.standard_t(3, (stack_rows, n)))
    sample = LossPairSample(xs=stack.xs[0], ys=stack.ys[0])
    indexes = [build_margin_index(v) for v in (sample.xs, sample.ys)]
    calls = [
        lambda: check_tail(n, ks),
        lambda: check_tail(n, ks, 0.999),
        lambda: r11_curve(*indexes, ks),
        lambda: hill_curve(indexes[0], ks),
        lambda: estimate_k_range(stack, ks, 0.999),
        lambda: estimate_k_range(sample, ks, 0.999),
        lambda: estimate_with_k_values(stack, ks, 0.999),
        lambda: estimate_with_k_values(sample, ks, 0.999),
        lambda: estimate_all(sample, first, 0.999),
    ]
    for call in calls:
        with pytest.raises(ValueError) as caught:
            call()
        assert type(caught.value) is ValueError and str(caught.value) == str(expected.value)


@st.composite
def rolling_cases(draw):
    """(sample, plan): a coarse-rounded, tie-heavy pair of loss series, X
    sometimes shifted below zero, and a window, step and k-range on it.
    The step may pass the window, and k_max may be window - 1, where each
    margin's tail is the whole window."""
    window = draw(st.integers(3, 40))
    n = draw(st.integers(window, 120))
    u = draw(hnp.arrays(np.int64, n, elements=st.integers(1, 40), fill=st.nothing()))
    v = draw(hnp.arrays(np.int64, n, elements=st.integers(0, 3), fill=st.nothing()))
    shift = draw(hnp.arrays(np.int64, n, elements=st.sampled_from([0, 0, 0, 3]), fill=st.nothing()))
    coarse = lambda w: np.round(np.sqrt(40.0 / w), 1)
    sample = LossPairSample(xs=coarse(u) - shift, ys=coarse(np.clip(u + v - 1, 1, 40)))
    k_max = draw(st.one_of(st.just(window - 1), st.integers(1, max(1, window // 4)), st.integers(1, window - 1)))
    k = (draw(st.integers(1, k_max)), k_max)
    step = draw(st.sampled_from([1, 1, 2, 3, window, window + 1]))
    return sample, RollingPlan(window, k, draw(st.sampled_from([0.9, 0.99])), step=step)


@SETTINGS
@given(rolling_cases())
def test_rolling_rows_are_their_windows_alone(case):
    """Each rolling row, whether its window is estimated or reuses the
    outcome of the window before, is bit for bit its window estimated
    alone: values, warning codes, or the gap's error text."""
    sample, plan = case
    rows = rolling_estimates(range(sample.n), sample, plan)
    ends = range(plan.window, sample.n + 1, plan.step)
    assert [date for date, _ in rows] == [end - 1 for end in ends]
    for (_, outcome), end in zip(rows, ends):
        window = LossPairSample(xs=sample.xs[end - plan.window : end], ys=sample.ys[end - plan.window : end])
        alone = _alone(lambda: estimate_with_k_values(window, k_values(plan.k), plan.tau_prime))
        assert _average_bits(outcome) == _average_bits(alone)


# price-file texts: pads that str.strip drops but str.splitlines would break
# on, and price cells that are non-finite, non-positive, or odd to parse
_DAYS = [datetime.date(2015, 1, 5) + datetime.timedelta(days=i) for i in range(400)]
_PADS = ["", "", " ", "\t", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"]
_BAD_DATES = ["2015-13-40", "2015-1-5", "20150105", "2015-02-30", "", "date", "2015-01-05x"]
_ODD_PRICES = [["inf", "-inf", "nan", "1e400"], ["0", "-1", "0.0", "-0"], ["abc", "", "1_000", " 7.5 "]]
_HEADERS = ["date,price"] * 12 + [" Date , Price ", "DATE,PRICE\t", "date,close", "date", "date,price,volume", ""]


@st.composite
def price_texts(draw):
    """A price file's text: LF, CRLF, lone CR or mixed line ends, with or
    without a final one, a BOM, blank and space-only lines, quoted cells
    (some holding a comma or a line end), 1-4 fields, padded and malformed
    dates, bad prices, duplicate dates, header variants and no data rows."""
    quoting = draw(st.integers(0, 2)) == 0

    def cell(text):
        if quoting and draw(st.integers(0, 2)) == 0:
            return '"' + text.replace('"', '""') + '"'
        return text

    def row(day, price, pad=""):
        return cell(f"{pad}{day}{pad}") + "," + cell(price)

    days = draw(st.lists(st.sampled_from(_DAYS), unique=True, max_size=12))
    rows = [row(day, repr(draw(st.floats(1e-3, 1e6))), draw(st.sampled_from(_PADS))) for day in days]
    any_cell = st.one_of(
        st.sampled_from(_DAYS).map(str),
        st.sampled_from(_BAD_DATES + sum(_ODD_PRICES, []) + ["1,5", "2015-01-05\n", 'x"y']),
        st.floats(1e-3, 1e6).map(repr),
    )
    other_row = st.one_of(
        st.sampled_from(["", "", " ", " \t ", "\x0c"]),
        st.lists(any_cell.map(cell), min_size=1, max_size=4).map(",".join),
        st.builds(row, st.sampled_from(_BAD_DATES), st.floats(1e-3, 1e6).map(repr)),
        *(st.builds(row, st.sampled_from(_DAYS), st.sampled_from(prices)) for prices in _ODD_PRICES),
        st.builds(row, st.sampled_from(days or _DAYS), st.just("1.5")),  # a duplicate when days hold it
    )
    for other in draw(st.lists(other_row, max_size=3)):
        rows.insert(draw(st.integers(0, len(rows))), other)
    header = draw(st.sampled_from(_HEADERS))
    ending = draw(st.sampled_from(["\n", "\r\n", "\r", None]))
    lines = [header, *rows]
    ends = [ending or draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in lines]
    if not draw(st.booleans()):
        ends[-1] = ""
    bom = "\ufeff" if draw(st.booleans()) else ""
    return bom + "".join(line + end for line, end in zip(lines, ends))


def _table_or_error(load, path):
    """(ordinal, price bits) per row in file order, or the error text."""
    try:
        loaded = load(path)
    except ValueError as exc:
        return str(exc)
    if isinstance(loaded, dict):
        return [(day.toordinal(), price.hex()) for day, price in loaded.items()]
    return [(day, price.hex()) for day, price in zip(*(column.tolist() for column in loaded))]


@SETTINGS
@given(price_texts())
# a lone CR ends a row, here within a line that holds one comma
@example("date,price\n2015-01-05\r,1\n2015-01-06,2\n")
# a last row of one cell with no line end after it
@example("date,price\n2015-01-05,1\n2015-01-06")
# rows of four cells, and of one then one, hold as many commas as two rows
@example("date,price\n2015-01-05,1,2015-01-06,2\n")
@example("date,price\n2015-01-05\n1.5\n")
# three cells then one, in a text csv.reader reads
@example('date,price\n"2015-01-05",1,2015-01-06\n2\n')
# valid: CRLF with a blank row, lone CRs, a quoted cell holding a line end
@example("date,price\r\n2015-01-05,1\r\n\r\n2015-01-06,2\r\n")
@example("date,price\r2015-01-05,1\r2015-01-06,2")
@example('date,price\n"2015-01-05\n",1\n2015-01-06,2\n')
# a bad row after a quoted cell that holds a line end: line 4, not row 3
@example('date,price\n2015-01-02,"1\n"\n2015-01-05,-1\n')
def test_column_loader_reads_every_text_as_the_row_loop(tmp_path_factory, text):
    """The loader returns the reference row loop's dates and price bits in
    file order, or raises its ValueError text.  The examples are texts
    whose lines hold as many commas as two-cell rows would, or whose row
    ends are mixed."""
    path = tmp_path_factory.mktemp("prices") / "p.csv"
    path.write_bytes(text.encode("utf-8"))
    assert _table_or_error(_load_price_file, path) == _table_or_error(price_table_by_rows, path)


@SETTINGS
@given(
    st.lists(st.tuples(st.sampled_from(_DAYS[:40]), st.floats(1e-3, 1e6)), max_size=30, unique_by=lambda row: row[0]),
    st.lists(st.tuples(st.sampled_from(_DAYS[:40]), st.floats(1e-3, 1e6)), max_size=30, unique_by=lambda row: row[0]),
)
def test_ordinal_join_is_the_date_lookup_join(tmp_path_factory, rows_x, rows_y):
    """Files in any date order, overlapping in none, one or many dates:
    the ordinal join gives the lookup join's dates and loss bits, or its
    error text."""
    directory = tmp_path_factory.mktemp("pair")
    for name, rows in (("x.csv", rows_x), ("y.csv", rows_y)):
        lines = ["date,price"] + [f"{day.isoformat()},{price!r}" for day, price in rows]
        (directory / name).write_text("\n".join(lines) + "\n", encoding="utf-8")

    def joined(load):
        try:
            dates, sample = load(directory / "x.csv", directory / "y.csv")
        except ValueError as exc:
            return str(exc)
        return dates, sample.xs.tobytes(), sample.ys.tobytes()

    assert joined(load_pair_series) == joined(pair_series_by_dates)


def test_hill_on_a_stack_takes_each_row_s_logs_alone():
    """numpy's log on a contiguous or 2-D block can take a vector kernel
    that differs from the C library's log in the last bit; Hill on a stack
    still equals the 1-D Hill of each row, bit for bit."""
    candidates = np.random.default_rng(2026).uniform(1.0, 50.0, 200_000)
    contiguous = np.log(candidates)
    differs = candidates[[math.log(v) != c for v, c in zip(candidates.tolist(), contiguous.tolist())]]
    if differs.size < 20:
        pytest.skip("numpy's contiguous log agrees with math.log on this host: there is no trap to pin")
    assert all(math.log(v) != np.log(np.array([v] * 16))[0] for v in differs[:20].tolist())
    rng = np.random.default_rng(7)
    rows = [np.concatenate([rng.permutation(differs[:20]), rng.uniform(0.1, 0.9, 80)]) for _ in range(4)]
    stack = np.stack(rows)
    ks = np.arange(1, 20)
    stacked = _hill(build_margin_index(stack, 21), ks)
    for row, values in enumerate(stack):
        assert stacked[row].tobytes() == _hill(build_margin_index(values, 21), ks).tobytes()
