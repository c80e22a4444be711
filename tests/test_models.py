import math
import re

import numpy as np
import pytest
from scipy import special

import cotail.models
import cotail.oracle
from cotail.cli import main
from cotail.harness import plan_from_record
from cotail.models import (
    FAMILIES,
    ModelSpec,
    make_spec,
    marginal_quantiles,
    pre_margin_survival,
    sample_model,
)
from cotail.oracle import oracle_result
from oracles import r_hat, true_tail_copula


class TestModelSpec:
    def test_defaults(self):
        assert make_spec("Logistic").theta == 0.6
        assert make_spec("Cauchy") == ModelSpec(family="Cauchy")
        assert make_spec("Pareto2").theta == 0.5
        student = make_spec("StudentT")
        assert (student.nu, student.rho) == (1.5, 0.3)

    def test_gamma1_is_one_third_at_defaults(self):
        for family in FAMILIES:
            assert make_spec(family).gamma_1 == pytest.approx(1.0 / 3.0)

    def test_x_exponents(self):
        assert make_spec("Logistic").x_exponent == pytest.approx(1.0 / 3.0)
        assert make_spec("Cauchy").x_exponent == pytest.approx(1.0 / 3.0)
        assert make_spec("Pareto2").x_exponent == pytest.approx(1.0 / 6.0)
        assert make_spec("StudentT").x_exponent == 0.5

    def test_parameter_ranges(self):
        with pytest.raises(ValueError):
            make_spec("Weibull")
        with pytest.raises(ValueError):
            ModelSpec(family="Logistic", theta=0.0)
        with pytest.raises(ValueError):
            ModelSpec(family="Logistic", theta=1.5)
        ModelSpec(family="Logistic", theta=1.0)  # boundary allowed
        for theta in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="Pareto2 requires"):
                ModelSpec(family="Pareto2", theta=theta)
        for nu in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="StudentT requires"):
                ModelSpec(family="StudentT", nu=nu, rho=0.3)
        with pytest.raises(ValueError):
            ModelSpec(family="StudentT", nu=1.5, rho=0.0)
        with pytest.raises(ValueError):
            ModelSpec(family="StudentT", nu=1.5, rho=1.0)

    def test_unknown_family_message(self):
        message = re.escape(f"unknown family 'Gumbel'; expected one of {FAMILIES}")
        with pytest.raises(ValueError, match=message):
            make_spec("Gumbel")
        with pytest.raises(ValueError, match=message):
            ModelSpec.from_record({"family": "Gumbel"})
        with pytest.raises(ValueError, match="'family' must be a string"):
            ModelSpec.from_record({"family": ["Cauchy"]})

    def test_foreign_parameters_rejected(self):
        with pytest.raises(ValueError):
            ModelSpec(family="Cauchy", theta=0.5)
        with pytest.raises(ValueError):
            ModelSpec(family="Logistic", theta=0.6, nu=2.0)
        with pytest.raises(ValueError):
            ModelSpec(family="StudentT", nu=1.5, rho=0.3, theta=0.5)

    def test_from_record(self):
        spec = ModelSpec.from_record({"family": "StudentT"})
        assert (spec.nu, spec.rho) == (1.5, 0.3)
        assert ModelSpec.from_record({"family": "Pareto2", "theta": 2.0}).theta == 2.0
        with pytest.raises(ValueError):
            ModelSpec.from_record({"family": "Cauchy", "beta": 1.0})
        with pytest.raises(ValueError):
            ModelSpec.from_record({"theta": 0.5})
        with pytest.raises(ValueError, match="'theta' must be a number"):
            ModelSpec.from_record({"family": "Pareto2", "theta": "2"})

    def test_constructor_rejects_non_numbers(self):
        # the constructor itself checks types, as from_record and the CLI do
        for family, name, value in (("Pareto2", "theta", "2"), ("Logistic", "theta", True)):
            expected = re.escape(f"ModelSpec field '{name}' must be a number, got {value!r}")
            with pytest.raises(ValueError, match=f"^{expected}$"):
                ModelSpec(family, **{name: value})


class TestSampler:
    def test_single_draw_positive(self):
        rng = np.random.default_rng(0)
        for family in FAMILIES:
            sample = sample_model(make_spec(family), 1, rng)
            assert sample.xs.shape == (1,)
            assert sample.xs[0] > 0.0
            assert sample.ys[0] > 0.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            sample_model(make_spec("Cauchy"), 0, np.random.default_rng(0))

    def test_logistic_theta_is_bounded_before_any_draw(self):
        """Below theta = 0.1 the stable factor's powers 1/theta can overflow
        on a rare draw; such a theta is rejected by name, and the bound's
        neighbour samples finite values with no numpy warning (the suite
        turns any warning into a failure)."""
        for theta in (1e-10, 0.1):
            with pytest.raises(ValueError, match=rf"^Logistic requires theta in \(0.1, 1\], got {theta}$"):
                make_spec("Logistic", theta=theta)
        sample = sample_model(make_spec("Logistic", theta=0.1001), 10_000, np.random.default_rng(1))
        assert np.isfinite(sample.xs).all() and np.isfinite(sample.ys).all()

    @pytest.mark.parametrize("family, name, bound", [("Pareto2", "theta", 1e8), ("StudentT", "nu", 1e14)])
    def test_oracle_families_are_bounded_where_the_oracle_stops(self, family, name, bound, monkeypatch, capsys):
        """At its bound a family's oracle gives the truth at every level the
        study uses; just past it the spec, a plan and ``cotail oracle`` are
        rejected with the family's range before any quantile is computed."""
        for tau in (0.95, 0.99, 0.999, 0.9999):
            result = oracle_result(make_spec(family, **{name: bound}), tau)
            assert 0.0 < result.covar < result.coes < math.inf
        past = math.nextafter(bound, math.inf)
        message = f"{family} requires {name} in (0, {bound:g}], got {past}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make_spec(family, **{name: past})
        record = {"model": {"family": family, name: past}, "n": 100, "k": 10, "tau_prime": 0.99, "replications": 1}
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            plan_from_record(record, default_seed=1)
        monkeypatch.setattr(cotail.oracle, "marginal_quantiles", None)
        assert main(["oracle", "--model", family, f"--{name}", repr(past), "--tau", "0.99"]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_reproducible_streams(self):
        for family in FAMILIES:
            first = sample_model(make_spec(family), 50, np.random.default_rng(12))
            second = sample_model(make_spec(family), 50, np.random.default_rng(12))
            other = sample_model(make_spec(family), 50, np.random.default_rng(13))
            assert np.array_equal(first.xs, second.xs)
            assert np.array_equal(first.ys, second.ys)
            assert not np.array_equal(first.ys, other.ys)

    def test_stack_rows_are_the_samples_alone(self, monkeypatch):
        # one validation per stack, and each row byte for byte its Generator's lone sample
        built = []
        real = cotail.models.LossPairSample
        monkeypatch.setattr(cotail.models, "LossPairSample", lambda **arrays: built.append(1) or real(**arrays))
        for family in FAMILIES:
            seeds = np.random.SeedSequence(5).spawn(3)
            built.clear()
            stack = sample_model(make_spec(family), 40, [np.random.default_rng(seed) for seed in seeds])
            assert (stack.xs.shape, len(built)) == ((3, 40), 1)
            for row, seed in enumerate(seeds):
                alone = sample_model(make_spec(family), 40, np.random.default_rng(seed))
                assert stack.xs[row].tobytes() == alone.xs.tobytes()
                assert stack.ys[row].tobytes() == alone.ys.tobytes()

    def test_pareto_marginal_survival(self):
        rng = np.random.default_rng(1001)
        sample = sample_model(make_spec("Pareto2"), 1_000_000, rng)
        assert np.mean(sample.ys > 3.0) == pytest.approx(0.5, abs=0.002)

    def test_logistic_marginal_cdf(self):
        rng = np.random.default_rng(1002)
        sample = sample_model(make_spec("Logistic"), 1_000_000, rng)
        assert np.mean(sample.ys <= 1.0) == pytest.approx(math.exp(-1.0), abs=0.002)

    def test_cauchy_marginal_median(self):
        rng = np.random.default_rng(1003)
        sample = sample_model(make_spec("Cauchy"), 1_000_000, rng)
        assert np.mean(sample.ys <= 1.0) == pytest.approx(0.5, abs=0.002)

    def test_independence_limit_of_logistic(self):
        spec = ModelSpec(family="Logistic", theta=1.0)
        assert true_tail_copula(spec, 1.0, 1.0) == pytest.approx(0.0)
        rng = np.random.default_rng(1004)
        sample = sample_model(spec, 5000, rng)
        assert r_hat(sample, 300, 2, 1.0, 1.0) <= 0.15


class TestAnalyticTailCopula:
    def test_known_values(self):
        assert true_tail_copula(make_spec("Cauchy"), 1.0, 1.0) == pytest.approx(
            2.0 - math.sqrt(2.0), rel=1e-12
        )
        assert true_tail_copula(make_spec("Pareto2"), 1.0, 1.0) == pytest.approx(
            2.0**-0.5, rel=1e-12
        )
        assert true_tail_copula(make_spec("Logistic"), 1.0, 1.0) == pytest.approx(
            2.0 - 2.0**0.6, rel=1e-12
        )

    def test_zero_edges_and_domain(self):
        for family in FAMILIES:
            spec = make_spec(family)
            assert true_tail_copula(spec, 0.0, 1.0) == 0.0
            assert true_tail_copula(spec, 1.0, 0.0) == 0.0
            with pytest.raises(ValueError):
                true_tail_copula(spec, -1.0, 1.0)

    def test_pareto2_tiny_argument(self):
        # x^(-1/theta) overflows at x = 1e-200; the factored form does not
        spec = make_spec("Pareto2")
        assert true_tail_copula(spec, 1e-200, 1.0) == 1e-200
        assert true_tail_copula(spec, 1.0, 1e-200) == 1e-200
        for x, y in [(0.3, 0.8), (1.0, 1.0), (2.5, 0.4), (1e-6, 1e6)]:
            textbook = (x ** (-1.0 / spec.theta) + y ** (-1.0 / spec.theta)) ** (-spec.theta)
            assert true_tail_copula(spec, x, y) == pytest.approx(textbook, rel=2e-15)

    def test_homogeneity(self):
        points = [(0.3, 0.8), (1.0, 1.0), (2.5, 0.4), (5.0, 3.0)]
        lambdas = [0.2, 0.7, 1.0, 3.0, 12.0]
        for family in FAMILIES:
            spec = make_spec(family)
            for x, y in points:
                base = true_tail_copula(spec, x, y)
                for lam in lambdas:
                    assert true_tail_copula(spec, lam * x, lam * y) == pytest.approx(
                        lam * base, rel=1e-9
                    )

    def test_margins(self):
        # relative form: the approach rate is polynomial in y, so the absolute
        # gap at finite y scales with x and a fixed window would penalize x > 1
        big = 1e6
        for family in FAMILIES:
            spec = make_spec(family)
            for v in (0.5, 1.0, 2.0):
                assert abs(true_tail_copula(spec, v, big) / v - 1.0) <= 1e-4
                assert abs(true_tail_copula(spec, big, v) / v - 1.0) <= 1e-4

    def test_symmetry_and_monotonicity(self):
        for family in FAMILIES:
            spec = make_spec(family)
            assert true_tail_copula(spec, 0.7, 1.3) == pytest.approx(
                true_tail_copula(spec, 1.3, 0.7), rel=1e-12
            )
            values = [true_tail_copula(spec, x, 1.0) for x in np.linspace(0.05, 4.0, 50)]
            assert all(a <= b + 1e-13 for a, b in zip(values, values[1:]))


class TestMargins:
    def test_logistic_quantile(self):
        var_x, var_y = marginal_quantiles(make_spec("Logistic"), math.exp(-1.0))
        assert var_y == pytest.approx(1.0, rel=1e-12)
        assert var_x == pytest.approx(1.0, rel=1e-12)

    def test_cauchy_quantile(self):
        var_x, var_y = marginal_quantiles(make_spec("Cauchy"), 0.5)
        assert var_y == pytest.approx(1.0, rel=1e-12)
        assert var_x == pytest.approx(1.0, rel=1e-12)

    def test_pareto_quantile(self):
        var_x, var_y = marginal_quantiles(make_spec("Pareto2"), 0.99)
        assert var_y == pytest.approx(9999.0, rel=1e-10)
        assert var_x == pytest.approx(9999.0 ** (1.0 / 6.0), rel=1e-10)

    def test_student_quantile_against_scipy(self):
        spec = make_spec("StudentT")
        for tau in (0.5, 0.9, 0.99, 0.999):
            _, var_y = marginal_quantiles(spec, tau)
            expected = special.stdtrit(spec.nu, (1.0 + tau) / 2.0)
            assert var_y == pytest.approx(float(expected), rel=1e-8)
        # references that do not go through scipy: nu = 1 is the Cauchy
        # quantile tan(pi(p - 1/2)), nu = 2 has F^-1(p) = (2p - 1)/sqrt(2p(1 - p))
        for tau in (0.5, 0.9, 0.99, 0.999, 0.9999):
            p = (1.0 + tau) / 2.0
            _, cauchy = marginal_quantiles(make_spec("StudentT", nu=1.0), tau)
            assert cauchy == pytest.approx(math.tan(math.pi * (p - 0.5)), rel=1e-12)
            _, two = marginal_quantiles(make_spec("StudentT", nu=2.0), tau)
            assert two == pytest.approx((2.0 * p - 1.0) / math.sqrt(2.0 * p * (1.0 - p)), rel=1e-12)

    def test_rejects_bad_tau(self):
        with pytest.raises(ValueError):
            marginal_quantiles(make_spec("Cauchy"), 0.0)
        with pytest.raises(ValueError):
            marginal_quantiles(make_spec("Cauchy"), 1.0)

    def test_survival_fixed_points(self):
        assert pre_margin_survival(make_spec("Pareto2"), 3.0) == pytest.approx(0.5)
        assert pre_margin_survival(make_spec("Cauchy"), 1.0) == pytest.approx(0.5)
        assert pre_margin_survival(make_spec("Logistic"), 0.0) == 1.0
        assert pre_margin_survival(make_spec("StudentT"), 0.0) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            pre_margin_survival(make_spec("Cauchy"), -1.0)

    def test_cauchy_survival_keeps_precision_deep_in_the_tail(self):
        for z in (1e6, 1e18, 1e200):
            assert pre_margin_survival(make_spec("Cauchy"), z) == pytest.approx(
                2.0 / (math.pi * z), rel=1e-14
            )

    def test_survival_inverts_quantile(self):
        for family in FAMILIES:
            spec = make_spec(family)
            for tau in (0.9, 0.99, 0.999):
                _, var_y = marginal_quantiles(spec, tau)
                assert pre_margin_survival(spec, var_y) == pytest.approx(
                    1.0 - tau, rel=1e-6
                )
