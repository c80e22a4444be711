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
from cotail.covar_coes import estimate_all, estimate_k_range
from cotail.empirical import hill_curve
from cotail.harness import ExperimentPlan, msre, ratios, run_experiment
from cotail.models import FAMILIES, make_spec, sample_model
from cotail.oracle import oracle_result
from oracles import eta_hat_bruteforce, intermediate_covar_scan, r_hat, selection_at, true_tail_copula

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


def _ratios(plan):
    truth, outcomes = run_experiment(plan, workers=4)
    return ratios(outcomes, truth)


def _within_factor_two(value, reference):
    return reference / 2.0 <= value <= reference * 2.0


def test_criterion_1_cauchy_reference_msres():
    with _criterion(1, "Bi-Cauchy n=2000 k=250 tau'=0.99: covar1/coes1 MSREs vs 0.01873/0.02853"):
        start = time.perf_counter()
        plan = ExperimentPlan(
            spec=make_spec("Cauchy"), n=2000, k=250, tau_prime=0.99,
            replications=100, seed=20260826,
        )
        scored = _ratios(plan)
        covar1, coes1 = msre(scored["covar1"]), msre(scored["coes1"])
        elapsed = time.perf_counter() - start
        assert _within_factor_two(covar1, 0.01873), covar1
        assert _within_factor_two(coes1, 0.02853), coes1
        assert elapsed < 60.0, f"{elapsed:.1f}s"


def test_criterion_2_pareto_reference_msres():
    with _criterion(2, "Bi-Pareto n=5000 k=300 tau'=0.999: covar2/coes4 MSREs vs 0.05490/0.08290"):
        start = time.perf_counter()
        plan = ExperimentPlan(
            spec=make_spec("Pareto2"), n=5000, k=300, tau_prime=0.999,
            replications=100, seed=20260826,
        )
        scored = _ratios(plan)
        covar2, coes4 = msre(scored["covar2"]), msre(scored["coes4"])
        elapsed = time.perf_counter() - start
        assert _within_factor_two(covar2, 0.05490), covar2
        assert _within_factor_two(coes4, 0.08290), coes4
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
                scored = _ratios(plan)
                for name in curves:
                    curves[name].append(msre(scored[name]))
            for name, curve in curves.items():
                for smaller, larger in zip(curve, curve[1:]):
                    if larger >= smaller:
                        violations.append((family, name))
        assert len(violations) <= 1, violations


def test_criterion_4_oracle_closed_forms():
    with _criterion(4, "Pareto2 truth at tau=0.99: covar=(1e8-1e4)^(1/6), coes=32.32"):
        spec = make_spec("Pareto2")
        truth = oracle_result(spec, 0.99)
        assert abs(truth.covar / (1e8 - 1e4) ** (1.0 / 6.0) - 1.0) <= 1e-6
        assert abs(truth.coes / 32.32 - 1.0) <= 1e-3


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
            # the row first, on the tail indexes a fresh sample builds; the
            # selection is read on the full indexes, also where the row fails
            result = estimate_k_range(sample, range(30, 31), 0.99)
            raw1, raw2, covar_int, _ = selection_at(sample, 30)
            for variant, procedure in ((1, raw1), (2, raw2)):
                try:
                    brute = eta_hat_bruteforce(sample, 30, variant)
                except ValueError:
                    brute = None
                if procedure != brute:
                    mismatches += 1
            if covar_int != intermediate_covar_scan(sample, 30):
                mismatches += 1
            if not result.failed[0, 0]:
                values, quoted = result.values[0, 0].tolist(), result.quoted[0, 0].tolist()
                if (quoted[1], values[3], values[4]) != (raw1, raw2, covar_int):
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
            plain = hill_curve(build_margin_index(values), range(k, k + 1))[0]
            scaled = hill_curve(build_margin_index(16.0 * values), range(k, k + 1))[0]
            assert abs(plain - scaled) <= 1e-12

        rng = np.random.default_rng(42)
        xs = rng.random(200)
        ys = 0.7 * xs + 0.3 * rng.random(200)
        base = LossPairSample(xs=xs, ys=ys)
        warped = LossPairSample(xs=np.exp(3.0 * xs), ys=ys**3 + 2.0 * ys)
        for variant in (1, 2):
            for x, y in [(0.5, 0.5), (1.0, 1.0), (2.0, 0.7)]:
                assert r_hat(base, 30, variant, x, y) == r_hat(warped, 30, variant, x, y)
        raws = selection_at(base, 30)[:2]
        assert None not in raws
        assert selection_at(warped, 30)[:2] == raws

        sample = sample_model(make_spec("Cauchy"), 400, np.random.default_rng(3141))
        estimates = estimate_all(sample, 60, 0.995)
        one_minus_gamma = 1.0 - estimates.gamma1
        for i in (1, 2, 3):
            covar, coes = getattr(estimates, f"covar{i}"), getattr(estimates, f"coes{i}")
            assert coes == covar / one_minus_gamma
            assert np.isclose(coes * one_minus_gamma, covar, rtol=5e-16)


def test_criterion_7_sampler_fidelity():
    with _criterion(7, "per family, 20 seeds at n=1e5: Hill within 0.05 of 1/3, R-hat(1,1) within 0.05"):
        children = np.random.SeedSequence(31415).spawn(80)
        for index, family in enumerate(FAMILIES):
            spec = make_spec(family)
            r_true = true_tail_copula(spec, 1.0, 1.0)
            hill_bad = r_bad = 0
            for child in children[20 * index : 20 * (index + 1)]:
                sample = sample_model(spec, 100_000, np.random.default_rng(child))
                gamma = hill_curve(build_margin_index(sample.xs), range(1000, 1001))[0]
                if not abs(gamma - 1.0 / 3.0) <= 0.05:  # a NaN gap counts as bad
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
        ratio = median(_ratios(plan)["covar2"])
        assert 0.85 <= ratio <= 1.15, ratio
