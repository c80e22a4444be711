import numpy as np
import pytest

from cotail.covar_coes import ESTIMATOR_NAMES
from cotail.harness import ExperimentPlan, msre, plan_from_record, run_experiment, run_grid
from cotail.models import make_spec


def _plan(family="Cauchy", n=200, k=40, tau_prime=0.99, replications=1, seed=0):
    return ExperimentPlan(
        spec=make_spec(family),
        n=n,
        k=k,
        tau_prime=tau_prime,
        replications=replications,
        seed=seed,
    )


def test_msre_examples():
    theta = 4.0
    assert msre([theta, theta, theta], theta) == 0.0
    assert msre([1.1 * theta, 0.9 * theta], theta) == pytest.approx(0.01)
    assert msre([2.0 * theta], theta) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        msre([1.0], 0.0)
    with pytest.raises(ValueError):
        msre([], 1.0)


def test_plan_validation():
    plan = _plan(n=500.0, k=120.0, replications=3.0, seed=7.0)
    assert (plan.n, plan.k, plan.replications, plan.seed) == (500, 120, 3, 7)
    with pytest.raises(ValueError):
        _plan(replications=0)
    with pytest.raises(ValueError):
        _plan(seed=-1)
    with pytest.raises(ValueError):
        _plan(n=100, k=100)
    with pytest.raises(ValueError):
        _plan(tau_prime=1.0)


def test_plan_from_record():
    record = {
        "model": {"family": "Pareto2", "theta": 0.5},
        "n": 1000,
        "k": 150,
        "tau_prime": 0.995,
        "replications": 10,
        "seed": 99,
    }
    plan = plan_from_record(record)
    assert plan.spec.family == "Pareto2"
    assert plan.seed == 99
    no_seed = {key: value for key, value in record.items() if key != "seed"}
    assert plan_from_record(no_seed, default_seed=4).seed == 4
    with pytest.raises(ValueError, match="no seed"):
        plan_from_record(no_seed)
    with pytest.raises(ValueError, match="unknown"):
        plan_from_record({**record, "workers": 2})
    with pytest.raises(ValueError, match="missing"):
        plan_from_record({"model": {"family": "Cauchy"}, "seed": 1})


@pytest.mark.parametrize("field", ["n", "k", "replications", "seed"])
def test_plan_rejects_fractional_counts(field):
    record = {
        "model": {"family": "Cauchy"},
        "n": 1000,
        "k": 150,
        "tau_prime": 0.995,
        "replications": 10,
        "seed": 99,
    }
    with pytest.raises(ValueError, match=f"'{field}' must be a whole number"):
        plan_from_record({**record, field: record[field] + 0.5})
    integral = plan_from_record({**record, field: float(record[field])})
    assert getattr(integral, field) == record[field]


def test_single_replication_reproducible():
    plan = _plan(replications=1, seed=12345)
    first = run_experiment(plan)
    second = run_experiment(plan)
    assert first.msre == second.msre
    assert first.ratios == second.ratios
    # with N=1 the table is exactly the one squared relative error
    for name in ESTIMATOR_NAMES:
        assert first.msre[name] == (first.ratios[name][0] - 1.0) ** 2


def test_worker_count_invariance():
    plan = _plan(n=500, k=120, replications=16, seed=31)
    serial = run_experiment(plan, workers=1)
    threaded = run_experiment(plan, workers=4)
    assert serial.msre == threaded.msre
    assert serial.ratios == threaded.ratios
    assert serial.failure_count == threaded.failure_count
    assert serial.warning_counts == threaded.warning_counts


def test_failure_accounting():
    """k=1 Hill estimates leave (0, 1) often; failures are dropped, not scored."""
    plan = _plan(n=50, k=1, replications=40, seed=1)
    table = run_experiment(plan)
    assert 0 < table.failure_count < 40
    survivors = 40 - table.failure_count
    # every successful replication carries the small-k warning at k=1
    assert table.warning_counts["small_k"] == survivors
    for name in ESTIMATOR_NAMES:
        assert len(table.ratios[name]) == survivors
        assert table.msre[name] >= 0.0
        recomputed = float(np.mean([(r - 1.0) ** 2 for r in table.ratios[name]]))
        assert table.msre[name] == pytest.approx(recomputed, rel=1e-15)


def test_all_replications_failed():
    plan = _plan(n=50, k=1, replications=3, seed=22)
    with pytest.raises(ValueError, match="replications failed"):
        run_experiment(plan)


def test_pareto_extrapolated_coes_matches_reference_error():
    plan = _plan("Pareto2", n=5000, k=300, tau_prime=0.99, replications=100, seed=90210)
    table = run_experiment(plan, workers=4)
    assert 0.03961 / 2.0 <= table.msre["coes4"] <= 0.03961 * 2.0


def test_msre_shrinks_with_sample_size():
    # every estimator should concentrate as n grows (20% head-room for noise)
    small = run_experiment(_plan(n=500, k=120, replications=100, seed=6001), workers=4)
    big = run_experiment(_plan(n=5000, k=300, replications=100, seed=6002), workers=4)
    for name in ESTIMATOR_NAMES:
        assert big.msre[name] <= 1.2 * small.msre[name]


def test_msre_grows_with_target_level():
    """Extrapolating further out is harder: MSRE rises in tau' for most estimators."""
    tables = [
        run_experiment(
            _plan(n=2000, k=250, tau_prime=tau_prime, replications=40, seed=7101),
            workers=4,
        )
        for tau_prime in (0.99, 0.995, 0.999)
    ]
    monotone = sum(
        1
        for name in ESTIMATOR_NAMES
        if tables[0].msre[name] <= tables[1].msre[name] <= tables[2].msre[name]
    )
    assert monotone >= 5


def test_run_grid_single_plan():
    text, tables = run_grid([_plan(replications=3, seed=11)])
    assert text.endswith("\n")
    lines = text.splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("n=200")
    for name in ESTIMATOR_NAMES:
        assert name in lines[1]
    assert "fail" in lines[1]
    assert lines[2].startswith("Cauchy")
    assert len(tables) == 1


def test_run_grid_duplicate_plan_rows_identical():
    plan = _plan(replications=3, seed=11)
    text, tables = run_grid([plan, plan])
    lines = text.splitlines()
    assert len(lines) == 4
    assert lines[2] == lines[3]
    assert tables[0].msre == tables[1].msre


def test_run_grid_groups_by_geometry():
    plans = [
        _plan("Cauchy", replications=3, seed=11),
        _plan("Pareto2", replications=3, seed=12),
        _plan("Cauchy", n=400, k=60, replications=3, seed=13),
    ]
    text, _ = run_grid(plans)
    lines = text.splitlines()
    # one block with two model rows, a blank separator, then the second block
    assert lines[2].startswith("Cauchy")
    assert lines[3].startswith("Pareto2")
    assert lines[4] == ""
    assert lines[5].startswith("n=400")


def test_run_grid_rejects_empty():
    with pytest.raises(ValueError):
        run_grid([])


@pytest.mark.parametrize("workers", [0, -3])
def test_run_experiment_rejects_workers_below_one(workers):
    with pytest.raises(ValueError, match=f"workers must be at least 1, got {workers}"):
        run_experiment(_plan(), workers=workers)
