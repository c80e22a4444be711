"""Property tests for the conditioning event and the estimators built on it.

Every tail estimator conditions on the k+1 largest system losses by rank,
``MarginIndex.top``; these properties pin that contract down on tie-heavy,
degenerate and permuted inputs.  Examples are derandomized, so the suite
draws the same cases on every run.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cotail.core import LossPairSample, build_margin_index
from cotail.covar_coes import estimate_all
from cotail.models import FAMILIES, make_spec, sample_model

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)


def _outcome(sample, k, tau_prime):
    """The record of estimate_all, or its error message."""
    try:
        return estimate_all(sample, k, tau_prime).to_record()
    except ValueError as exc:
        return str(exc)


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
    except ValueError:
        return
    assert all(np.isfinite(value) for value in estimates.to_record().values())
    for i in (1, 2, 3):
        assert estimates.coes_ext[i] == estimates.covar_ext[i] / (1.0 - estimates.gamma1_hat)


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
