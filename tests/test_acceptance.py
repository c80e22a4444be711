"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single PASS/FAIL line
with the measured quantities, so a failing run names the broken contract
directly.  Tolerances on reference error levels are a factor of two; with
N=100 replications an MSRE is itself noisy at the tens-of-percent level.
"""

import json
import time
from contextlib import contextmanager
from statistics import median

import numpy as np
import pytest

from cotail.cli import main
from cotail.core import LossPairSample, build_margin_index
from cotail.covar_coes import estimate_all, intermediate_covar
from cotail.empirical import hill_estimate
from cotail.harness import ExperimentPlan, run_experiment
from cotail.models import FAMILIES, make_spec, sample_model, true_tail_copula
from cotail.oracle import true_coes, true_covar
from cotail.tail_copula import eta_hat, r_hat
from oracles import eta_hat_bruteforce, intermediate_covar_scan

GRID_K = {500: 120, 1000: 150, 2000: 250, 5000: 300}


def _k_for(family, n):
    if family == "StudentT" and n == 500:
        return 90
    return GRID_K[n]


@contextmanager
def _criterion(number, description):
    try:
        yield
    except BaseException as exc:
        print(f"[criterion {number}] FAIL: {description} ({exc})")
        raise
    print(f"[criterion {number}] PASS: {description}")


def _within_factor_two(value, reference):
    return reference / 2.0 <= value <= reference * 2.0


def test_criterion_1_cauchy_reference_msres():
    with _criterion(1, "Bi-Cauchy n=2000 k=250 tau'=0.99: covar1/coes1 MSREs vs 0.01873/0.02853"):
        start = time.perf_counter()
        plan = ExperimentPlan(
            spec=make_spec("Cauchy"), n=2000, k=250, tau_prime=0.99,
            replications=100, seed=20260826,
        )
        table = run_experiment(plan, workers=4)
        elapsed = time.perf_counter() - start
        assert _within_factor_two(table.msre["covar1"], 0.01873), table.msre["covar1"]
        assert _within_factor_two(table.msre["coes1"], 0.02853), table.msre["coes1"]
        assert elapsed < 60.0, f"{elapsed:.1f}s"


def test_criterion_2_pareto_reference_msres():
    with _criterion(2, "Bi-Pareto n=5000 k=300 tau'=0.999: covar2/coes4 MSREs vs 0.05490/0.08290"):
        start = time.perf_counter()
        plan = ExperimentPlan(
            spec=make_spec("Pareto2"), n=5000, k=300, tau_prime=0.999,
            replications=100, seed=20260826,
        )
        table = run_experiment(plan, workers=4)
        elapsed = time.perf_counter() - start
        assert _within_factor_two(table.msre["covar2"], 0.05490), table.msre["covar2"]
        assert _within_factor_two(table.msre["coes4"], 0.08290), table.msre["coes4"]
        assert elapsed < 180.0, f"{elapsed:.1f}s"


def test_criterion_3_grid_concentrates_with_sample_size():
    with _criterion(3, "16-cell grid: covar1/coes1 MSREs fall from n=500 to n=5000 (<=1 violation)"):
        sizes = (500, 1000, 2000, 5000)
        violations = []
        for family in FAMILIES:
            curves = {"covar1": [], "coes1": []}
            for n in sizes:
                plan = ExperimentPlan(
                    spec=make_spec(family), n=n, k=_k_for(family, n),
                    tau_prime=0.99, replications=100, seed=11000 + n,
                )
                table = run_experiment(plan, workers=4)
                for name in curves:
                    curves[name].append(table.msre[name])
            for name, curve in curves.items():
                for smaller, larger in zip(curve, curve[1:]):
                    if larger >= smaller:
                        violations.append((family, name))
        assert len(violations) <= 1, violations


def test_criterion_4_oracle_closed_forms():
    with _criterion(4, "Pareto2 truth at tau=0.99: covar=(1e8-1e4)^(1/6), coes=32.32"):
        spec = make_spec("Pareto2")
        covar = true_covar(spec, 0.99)
        assert abs(covar / (1e8 - 1e4) ** (1.0 / 6.0) - 1.0) <= 1e-6
        assert abs(true_coes(spec, 0.99) / 32.32 - 1.0) <= 1e-3


def test_criterion_5_procedure_equals_bruteforce():
    with _criterion(5, "500 tie-free samples: eta-hat == brute force, covar_int == scan inverse"):
        rng = np.random.default_rng(np.random.SeedSequence(648))
        spec = make_spec("Cauchy")
        mismatches = 0
        for index in range(500):
            if index < 300:
                sample = sample_model(spec, 200, rng)
            else:
                # independent pairs: eta is usually unattainable at this k,
                # so the two routes must agree on raising as well
                sample = LossPairSample(xs=rng.random(200), ys=rng.random(200))
            assert np.unique(sample.xs).size == 200
            assert np.unique(sample.ys).size == 200
            for variant in (1, 2):
                try:
                    procedure = eta_hat(sample, 30, variant).raw
                except ValueError:
                    procedure = None
                try:
                    brute = eta_hat_bruteforce(sample, 30, variant)
                except ValueError:
                    brute = None
                if procedure != brute:
                    mismatches += 1
            if intermediate_covar(sample, 30) != intermediate_covar_scan(sample, 30):
                mismatches += 1
        assert mismatches == 0


def test_criterion_6_invariant_suite():
    with _criterion(6, "homogeneity/margins of R, Hill scale invariance, rank invariance, CoES identity"):
        axis = np.linspace(0.02, 2.0, 100)
        for family in FAMILIES:
            spec = make_spec(family)
            worst = 0.0
            for x in axis:
                for y in axis:
                    base = true_tail_copula(spec, x, y)
                    for lam in (0.5, 2.0, 7.0):
                        gap = abs(true_tail_copula(spec, lam * x, lam * y) - lam * base)
                        worst = max(worst, gap)
            assert worst <= 1e-10, (family, worst)
            for x in axis:
                assert abs(true_tail_copula(spec, x, 1e6) / x - 1.0) <= 1e-4, (family, x)
                assert abs(true_tail_copula(spec, 1e6, x) / x - 1.0) <= 1e-4, (family, x)

        values = np.random.default_rng(52).pareto(3.0, size=2000) + 1.0
        for k in (50, 200):
            plain = hill_estimate(build_margin_index(values), k)
            scaled = hill_estimate(build_margin_index(16.0 * values), k)
            assert abs(plain - scaled) <= 1e-12

        rng = np.random.default_rng(42)
        xs = rng.random(200)
        ys = 0.7 * xs + 0.3 * rng.random(200)
        base = LossPairSample(xs=xs, ys=ys)
        warped = LossPairSample(xs=np.exp(3.0 * xs), ys=ys**3 + 2.0 * ys)
        for variant in (1, 2):
            for x, y in [(0.5, 0.5), (1.0, 1.0), (2.0, 0.7)]:
                assert r_hat(base, 30, variant, x, y) == r_hat(warped, 30, variant, x, y)
            assert eta_hat(base, 30, variant) == eta_hat(warped, 30, variant)

        sample = sample_model(make_spec("Cauchy"), 400, np.random.default_rng(3141))
        estimates = estimate_all(sample, 60, 0.995)
        one_minus_gamma = 1.0 - estimates.gamma1_hat
        for i in (1, 2, 3):
            assert estimates.coes_ext[i] == estimates.covar_ext[i] / one_minus_gamma
            assert np.isclose(
                estimates.coes_ext[i] * one_minus_gamma, estimates.covar_ext[i], rtol=5e-16
            )


def test_criterion_7_sampler_fidelity():
    with _criterion(7, "per family, 20 seeds at n=1e5: Hill within 0.05 of 1/3, R-hat(1,1) within 0.05"):
        children = np.random.SeedSequence(31415).spawn(80)
        for index, family in enumerate(FAMILIES):
            spec = make_spec(family)
            r_true = true_tail_copula(spec, 1.0, 1.0)
            hill_bad = r_bad = 0
            for child in children[20 * index : 20 * (index + 1)]:
                sample = sample_model(spec, 100_000, np.random.default_rng(child))
                gamma = hill_estimate(build_margin_index(sample.xs), 1000)
                if abs(gamma - 1.0 / 3.0) > 0.05:
                    hill_bad += 1
                if abs(r_hat(sample, 1000, 2, 1.0, 1.0) - r_true) > 0.05:
                    r_bad += 1
            assert hill_bad <= 1, (family, hill_bad)
            assert r_bad <= 1, (family, r_bad)


def test_criterion_8_simulate_worker_determinism(tmp_path):
    with _criterion(8, "simulate output is byte-identical across 1, 4, and 16 workers"):
        records = [
            {"model": {"family": "Cauchy"}, "n": 500, "k": 120, "tau_prime": 0.99, "replications": 8},
            {"model": {"family": "Pareto2"}, "n": 500, "k": 120, "tau_prime": 0.99, "replications": 8},
        ]
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(records), encoding="utf-8")
        outputs = {}
        for workers in (1, 4, 16):
            out_dir = tmp_path / f"w{workers}"
            rc = main([
                "simulate", "--plan", str(plan_path), "--seed", "77",
                "--out", str(out_dir), "--workers", str(workers),
            ])
            assert rc == 0
            outputs[workers] = {
                name: (out_dir / name).read_bytes()
                for name in ("table.txt", "msre.tsv", "ratios.tsv")
            }
        assert outputs[1] == outputs[4] == outputs[16]


def test_criterion_9_median_ratio_near_one():
    with _criterion(9, "200 Bi-Cauchy replications n=5000 k=300: median covar2/truth in [0.85, 1.15]"):
        plan = ExperimentPlan(
            spec=make_spec("Cauchy"), n=5000, k=300, tau_prime=0.99,
            replications=200, seed=404,
        )
        table = run_experiment(plan, workers=4)
        ratio = median(table.ratios["covar2"])
        assert 0.85 <= ratio <= 1.15, ratio
