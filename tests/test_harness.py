import json
import threading

import numpy as np
import pytest

import cotail.covar_coes
import cotail.harness
from cotail.cli import main
from cotail.core import EstimationError
from cotail.covar_coes import ESTIMATOR_NAMES, _stack_rows, estimate_all
from cotail.harness import MAX_REPLICATIONS, MAX_SAMPLE_SIZE, ExperimentPlan, msre, plan_from_record, ratios, run_experiment
from cotail.models import make_spec, sample_model
from cotail.oracle import oracle_result


def _plan(family="Cauchy", n=200, k=40, tau_prime=0.99, replications=1, seed=0):
    return ExperimentPlan(
        spec=make_spec(family),
        n=n,
        k=k,
        tau_prime=tau_prime,
        replications=replications,
        seed=seed,
    )


def _plain(outcomes):
    """Each replication's outcome as plain values: its (record values,
    warning codes), or its error's (type, code, message); exceptions
    compare by identity."""
    return [
        (type(outcome), getattr(outcome, "code", None), str(outcome)) if isinstance(outcome, ValueError) else outcome
        for outcome in outcomes
    ]


def _alone(plan):
    """``estimate_all`` on each replication's lone sample, drawn from its
    spawned stream, as ``_plain`` gives it: an error's text is prefixed
    with its k, as in a k average whose every k fails."""
    outcomes = []
    for child in np.random.SeedSequence(plan.seed).spawn(plan.replications):
        sample = sample_model(plan.spec, plan.n, np.random.default_rng(child))
        try:
            estimates = estimate_all(sample, plan.k, plan.tau_prime)
        except ValueError as exc:
            outcomes.append((type(exc), getattr(exc, "code", None), f"k={plan.k}: {exc}"))
        else:
            outcomes.append((list(estimates.to_record().values()), tuple(w.code for w in estimates.warnings)))
    return outcomes


def _msres(plan, workers=1):
    truth, outcomes = run_experiment(plan, workers=workers)
    return {name: msre(values) for name, values in ratios(outcomes, truth).items()}


def test_msre_examples():
    assert msre([1.0, 1.0, 1.0]) == 0.0
    assert msre([1.1, 0.9]) == pytest.approx(0.01)
    assert msre([2.0]) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        msre([])


def test_plan_validation():
    plan = _plan(n=500.0, k=120.0, replications=3.0, seed=7.0)
    assert (plan.n, plan.k, plan.replications, plan.seed) == (500, 120, 3, 7)
    with pytest.raises(ValueError):
        _plan(replications=0)
    with pytest.raises(ValueError, match="seed must be a nonnegative integer, got -1"):
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
    # the plan itself takes no strings, bools or None for a count
    fields = {"spec": make_spec("Cauchy"), **{name: record[name] for name in record if name != "model"}}
    for bad in (str(record[field]), "abc", True, None):
        with pytest.raises(ValueError, match=f"'{field}' must be a whole number, got {bad!r}"):
            ExperimentPlan(**{**fields, field: bad})


def test_replications_are_bounded_before_any_work(monkeypatch):
    """A plan past the bound is rejected by the plan itself, before a
    stream is spawned; 1e20 passes the whole-number check first."""
    monkeypatch.setattr(np.random, "SeedSequence", None)
    assert _plan(replications=MAX_REPLICATIONS).replications == MAX_REPLICATIONS
    for replications in (MAX_REPLICATIONS + 1, 1e20):
        with pytest.raises(ValueError, match=rf"^replications must lie in \[1, {MAX_REPLICATIONS}\], got {int(replications)}$"):
            plan_from_record({**_record(), "replications": replications})


def test_sample_size_is_bounded_before_any_work(monkeypatch):
    """A plan's n past the bound is rejected by the plan itself; 1e300
    passes the whole-number check first, and no sample is drawn."""
    monkeypatch.setattr(cotail.harness, "sample_model", None)
    assert _plan(n=MAX_SAMPLE_SIZE).n == MAX_SAMPLE_SIZE
    for n in (MAX_SAMPLE_SIZE + 1, 1e300):
        with pytest.raises(ValueError, match=rf"^n must be at most {MAX_SAMPLE_SIZE}, got {int(n)}$"):
            plan_from_record({**_record(), "n": n})


def test_single_replication_reproducible():
    plan = _plan(replications=1, seed=12345)
    truth, first = run_experiment(plan)
    again_truth, again = run_experiment(plan)
    assert again_truth == truth and _plain(again) == _plain(first)
    scored = ratios(first, truth)
    # with N=1 the MSRE is exactly the one squared relative error
    for name in ESTIMATOR_NAMES:
        assert msre(scored[name]) == (scored[name][0] - 1.0) ** 2


def test_worker_count_invariance():
    plan = _plan(n=500, k=120, replications=16, seed=31)
    serial_truth, serial = run_experiment(plan, workers=1)
    threaded_truth, threaded = run_experiment(plan, workers=4)
    assert serial_truth == threaded_truth
    assert len(serial) == 16
    assert _plain(serial) == _plain(threaded)


def test_one_worker_runs_on_the_calling_thread(monkeypatch):
    """One worker estimates every block on the calling thread and opens no
    pool; two workers run the blocks on pool threads."""
    threads = []
    original = cotail.harness.estimate_k_range

    def recording(sample, ks, tau_prime):
        threads.append(threading.get_ident())
        return original(sample, ks, tau_prime)

    monkeypatch.setattr(cotail.harness, "estimate_k_range", recording)
    plan = _plan(n=2000, k=100, replications=40, seed=5)
    assert _stack_rows(plan.n, (plan.k,)) < plan.replications
    with monkeypatch.context() as patched:
        patched.setattr(cotail.harness, "ThreadPoolExecutor", None)
        _, serial = run_experiment(plan, workers=1)
    assert len(threads) > 1 and set(threads) == {threading.get_ident()}
    threads.clear()
    _, threaded = run_experiment(plan, workers=2)
    assert threading.get_ident() not in threads
    assert _plain(serial) == _plain(threaded)


def test_replications_are_estimated_in_blocks_as_alone(monkeypatch):
    """Each replication keeps its spawned stream and its lone-sample
    outcome, estimate or failure; blocks of replications share one index
    build per margin, and threads taking whole blocks change nothing.  At
    k=3 some replications fail (eta_not_attained, hill_out_of_range)."""
    shapes = []
    original = cotail.covar_coes.build_margin_index

    def counting(values, depth=None, **options):
        shapes.append(np.shape(values))
        return original(values, depth, **options)

    monkeypatch.setattr(cotail.covar_coes, "build_margin_index", counting)
    for k in (60, 3):
        plan = _plan(n=500, k=k, replications=300, seed=41)
        shapes.clear()
        truth, serial = run_experiment(plan)
        size = _stack_rows(500, (k,))
        blocks = [min(size, 300 - start) for start in range(0, 300, size)]
        assert len(blocks) > 1
        assert shapes == [(b, 500) for b in blocks for _ in range(2)]
        _, threaded = run_experiment(plan, workers=3)
        assert _plain(serial) == _plain(threaded)
        assert truth == oracle_result(plan.spec, plan.tau_prime)
        alone = _alone(plan)
        assert _plain(serial) == alone
        assert any(len(outcome) == 3 for outcome in alone) == (k == 3)
        scored = ratios(serial, truth)
        for column, name in enumerate(ESTIMATOR_NAMES, start=6):
            scale = truth.covar if name.startswith("covar") else truth.coes
            assert scored[name] == [values[column] / scale for values, _ in (o for o in alone if len(o) == 2)]


@pytest.mark.parametrize(
    "family, n, k, replications, seed",
    # n = 16385 puts one replication in a block, the stacks of one
    [("Cauchy", 16385, 400, 2, 3), ("StudentT", 700, 3, 70, 8), ("Logistic", 60, 50, 40, 2)],
)
def test_replications_equal_estimate_all_alone(family, n, k, replications, seed):
    """Each replication's values, warning codes and error codes in the
    outcome block are those of ``estimate_all`` on its lone sample."""
    plan = _plan(family, n=n, k=k, replications=replications, seed=seed)
    assert (_stack_rows(n, (k,)) == 1) == (n > 16384)
    _, outcomes = run_experiment(plan, workers=2)
    assert _plain(outcomes) == _alone(plan)


def test_failure_accounting():
    """k=1 Hill estimates leave (0, 1) often; failures are dropped, not scored."""
    plan = _plan(n=50, k=1, replications=40, seed=1)
    truth, outcomes = run_experiment(plan)
    errors = [outcome for outcome in outcomes if isinstance(outcome, ValueError)]
    survivors = 40 - len(errors)
    assert 0 < survivors < 40
    assert {type(error) for error in errors} == {EstimationError}
    assert {error.code for error in errors} <= {"hill_out_of_range", "eta_not_attained"}
    # every successful replication carries the small-k warning at k=1
    assert all(outcome[1][0] == "small_k" for outcome in outcomes if not isinstance(outcome, ValueError))
    scored = ratios(outcomes, truth)
    for name in ESTIMATOR_NAMES:
        assert len(scored[name]) == survivors
        assert msre(scored[name]) >= 0.0
        recomputed = float(np.mean([(r - 1.0) ** 2 for r in scored[name]]))
        assert msre(scored[name]) == pytest.approx(recomputed, rel=1e-15)


def test_all_replications_failed():
    plan = _plan(n=50, k=1, replications=3, seed=22)
    with pytest.raises(ValueError, match="replications failed"):
        run_experiment(plan)


def test_pareto_extrapolated_coes_matches_reference_error():
    plan = _plan("Pareto2", n=5000, k=300, tau_prime=0.99, replications=100, seed=90210)
    assert 0.03961 / 2.0 <= _msres(plan, workers=4)["coes4"] <= 0.03961 * 2.0


def test_msre_shrinks_with_sample_size():
    # every estimator should concentrate as n grows (20% head-room for noise)
    small = _msres(_plan(n=500, k=120, replications=100, seed=6001), workers=4)
    big = _msres(_plan(n=5000, k=300, replications=100, seed=6002), workers=4)
    for name in ESTIMATOR_NAMES:
        assert big[name] <= 1.2 * small[name]


def test_msre_grows_with_target_level():
    """Extrapolating further out is harder: MSRE rises in tau' for most estimators."""
    tables = [
        _msres(_plan(n=2000, k=250, tau_prime=tau_prime, replications=40, seed=7101), workers=4)
        for tau_prime in (0.99, 0.995, 0.999)
    ]
    monotone = sum(1 for name in ESTIMATOR_NAMES if tables[0][name] <= tables[1][name] <= tables[2][name])
    assert monotone >= 5


def _simulate(tmp_path, capsys, records):
    """Run `cotail simulate` on plan records; return the lines of table.txt and msre.tsv."""
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(records), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["simulate", "--plan", str(plan_path), "--seed", "1", "--out", str(out)]) == 0
    capsys.readouterr()
    return [(out / name).read_text(encoding="utf-8").splitlines() for name in ("table.txt", "msre.tsv")]


def _record(family="Cauchy", n=200, k=40, seed=11):
    return {"model": {"family": family}, "n": n, "k": k, "tau_prime": 0.99,
            "replications": 3, "seed": seed}


def test_run_grid_single_plan(tmp_path, capsys):
    table, msre_rows = _simulate(tmp_path, capsys, [_record()])
    # its geometry line, the header and one model row
    assert len(table) == 3
    assert table[0] == "n=200  k=40  tau'=0.99  N=3"
    assert table[1].split() == ["model", *ESTIMATOR_NAMES, "fail"]
    assert table[2].startswith("Cauchy")
    assert len(msre_rows) == 2


def test_run_grid_prints_tau_prime_as_msre_tsv_does(tmp_path, capsys):
    # :g would round this level to 1
    table, msre_rows = _simulate(tmp_path, capsys, [{**_record(), "tau_prime": 0.9999995}])
    assert table[0] == "n=200  k=40  tau'=0.9999995  N=3"
    assert msre_rows[1].split("\t")[4] == "0.9999995"


def test_run_grid_duplicate_plan_rows_identical(tmp_path, capsys):
    table, msre_rows = _simulate(tmp_path, capsys, [_record()] * 2)
    assert len(table) == 4
    assert table[2] == table[3]
    # the msre.tsv rows differ only in their plan index
    first, second = (row.split("\t") for row in msre_rows[1:])
    assert (first[0], second[0]) == ("0", "1")
    assert first[1:] == second[1:]


def test_run_grid_groups_by_geometry(tmp_path, capsys):
    table, _ = _simulate(
        tmp_path, capsys,
        [_record("Cauchy"), _record("Pareto2", seed=12), _record("Cauchy", n=400, k=60, seed=13)],
    )
    # one block with two model rows, a blank separator, then the second block
    assert len(table) == 8
    assert [line.split()[0] for line in table[2:4]] == ["Cauchy", "Pareto2"]
    assert table[4] == ""
    assert table[5] == "n=400  k=60  tau'=0.99  N=3"
    assert table[6] == table[1]
    assert table[7].startswith("Cauchy")


@pytest.mark.parametrize("workers", [0, -3])
def test_run_experiment_rejects_workers_below_one(workers):
    with pytest.raises(ValueError, match=f"workers must be at least 1, got {workers}"):
        run_experiment(_plan(), workers=workers)
