"""Seeded Monte Carlo experiments scoring the estimators against the oracle.

An experiment draws N independent samples from a model and runs every
estimator on each.  ``run_experiment`` returns the memoized population
truth at tau' and each replication's outcome, the shape a rolling window
has (``KRangeEstimates.outcomes`` at one k): its values and warning codes,
or its coded error.  Every score is an array pass: ``ratios`` gives
estimate/truth per estimator over the (N, 7) block of the replications
that succeeded, and ``msre`` the mean squared relative error

    MSRE = (1/N) * sum_l (estimate_l / truth - 1)^2

of one estimator's ratios, or of each row of a matrix of them.
Replication l draws from child l of the plan seed's ``SeedSequence``, and
its estimates are those of its sample alone although replications are
drawn and estimated in blocks.  One worker runs the blocks on the calling
thread; more run them on a thread pool of that many threads.  A block's
outcomes do not depend on the thread that runs it, so they are
bit-identical regardless of worker count.
"""

from __future__ import annotations

import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .covar_coes import ESTIMATOR_NAMES, RECORD_KEYS, Outcome, _stack_rows, estimate_k_range
from .core import _whole_number, check_tail
from .models import ModelSpec, sample_model
from .oracle import OracleResult, oracle_result


@dataclass(frozen=True)
class ExperimentPlan:
    """One cell of the study grid: model, sample geometry, level, N, seed."""

    spec: ModelSpec
    n: int
    k: int
    tau_prime: float
    replications: int
    seed: int

    def __post_init__(self) -> None:
        for name in ("n", "k", "replications", "seed"):
            value = _whole_number(getattr(self, name), f"plan field {name!r}")
            object.__setattr__(self, name, value)
        if not 1 <= self.replications <= MAX_REPLICATIONS:
            raise ValueError(f"replications must lie in [1, {MAX_REPLICATIONS}], got {self.replications}")
        if self.n > MAX_SAMPLE_SIZE:
            raise ValueError(f"n must be at most {MAX_SAMPLE_SIZE}, got {self.n}")
        _check_seed(self.seed)
        check_tail(self.n, self.k, self.tau_prime)


# ``simulate`` holds about 1.0 kB a replication (its outcome) while a plan is scored, 1.0 GB
# at this bound; each plan's ratios are written before the next runs, so a larger study is several plans
MAX_REPLICATIONS = 10**6
# a replication's sample takes about 60 B a pair while it is drawn and
# scored (50-60 MB of peak RSS at n = 10^6), so about 600 MB a worker at this bound
MAX_SAMPLE_SIZE = 10**7


def _check_seed(seed: int) -> None:
    """The one check of a plan's seed and of ``simulate --seed``."""
    if seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed}")


def _check_workers(workers: int) -> None:
    """The one check of ``run_experiment``'s workers and of ``simulate --workers``."""
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")


def plan_from_record(record: dict, default_seed: int | None = None) -> ExperimentPlan:
    """Build a plan from a config mapping.

    Expected keys: model (a ModelSpec record), n, k, tau_prime,
    replications, and optionally seed (falling back to ``default_seed``).
    """
    if not isinstance(record, dict):
        raise ValueError(f"plan record must be an object, got {record!r}")
    allowed = {"model", "n", "k", "tau_prime", "replications", "seed"}
    unknown = set(record) - allowed
    if unknown:
        raise ValueError(f"unknown plan fields: {sorted(unknown)}")
    missing = {"model", "n", "k", "tau_prime", "replications"} - set(record)
    if missing:
        raise ValueError(f"plan record missing fields: {sorted(missing)}")
    seed = record.get("seed", default_seed)
    if seed is None:
        raise ValueError("plan record has no seed and no default was provided")
    if not isinstance(record["model"], dict):
        raise ValueError(f"plan field 'model' must be an object, got {record['model']!r}")
    for name, value in {**record, "seed": seed}.items():
        if name != "model" and (isinstance(value, bool) or not isinstance(value, numbers.Real)):
            raise ValueError(f"plan field {name!r} must be a number, got {value!r}")
    return ExperimentPlan(
        spec=ModelSpec.from_record(record["model"]),
        n=record["n"],
        k=record["k"],
        tau_prime=record["tau_prime"],
        replications=record["replications"],
        seed=seed,
    )


def ratios(outcomes: list[Outcome], truth: OracleResult) -> dict[str, list[float]]:
    """Estimate/truth per ``ESTIMATOR_NAMES`` entry over the replications
    that succeeded, in replication order; CoVaR variants are scored against
    ``truth.covar`` and CoES variants against ``truth.coes``."""
    scales = np.array([truth.covar if name.startswith("covar") else truth.coes for name in ESTIMATOR_NAMES])
    succeeded = [outcome[0] for outcome in outcomes if not isinstance(outcome, ValueError)]
    estimates = np.reshape(succeeded, (-1, len(RECORD_KEYS)))[:, -len(ESTIMATOR_NAMES) :]
    return dict(zip(ESTIMATOR_NAMES, (estimates / scales).T.tolist()))


def msre(ratios) -> float | np.ndarray:
    """Mean squared relative error of estimate/truth ratios: the mean of
    (r - 1)^2 over one sequence, or over each row of a matrix of them."""
    arr = np.asarray(ratios, dtype=float)
    if arr.size == 0:
        raise ValueError("need at least one ratio")
    # each row contiguous, so that numpy sums it pairwise, as it sums one sequence
    means = np.ascontiguousarray((arr - 1.0) ** 2).mean(axis=-1)
    return float(means) if arr.ndim == 1 else means


def run_experiment(plan: ExperimentPlan, workers: int = 1) -> tuple[OracleResult, list[Outcome]]:
    """Run all replications of a plan: the truth at tau' and each
    replication's outcome, in replication order.

    An outcome is a row of ``KRangeEstimates.outcomes`` at the one k: the
    replication's ``RECORD_KEYS`` values and warning codes, or the
    ``EstimationError`` that stopped it (e.g. a Hill estimate outside
    (0, 1)), with its code.  Each block of ``_stack_rows`` replications is
    one ``sample_model`` and one ``estimate_k_range`` call.  Raises if
    every replication fails, or if ``workers`` is below 1.
    """
    _check_workers(workers)
    truth = oracle_result(plan.spec, plan.tau_prime)
    ks = range(plan.k, plan.k + 1)
    size = _stack_rows(plan.n, ks)

    def task(start: int) -> list[Outcome]:
        # replication l draws from child l of the plan seed, the one SeedSequence.spawn makes
        rows = range(start, min(start + size, plan.replications))
        block = [np.random.default_rng(np.random.SeedSequence(plan.seed, spawn_key=(l,))) for l in rows]
        return estimate_k_range(sample_model(plan.spec, plan.n, block), ks, plan.tau_prime).outcomes()

    # a worker takes whole blocks, and no outcome depends on the blocks
    starts = range(0, plan.replications, size)
    if workers == 1:
        blocks = list(map(task, starts))
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            blocks = list(pool.map(task, starts))
    outcomes = [outcome for block in blocks for outcome in block]
    if all(isinstance(outcome, ValueError) for outcome in outcomes):
        message = f"all {plan.replications} replications failed for {plan.spec.family}"
        raise ValueError(f"{message} (n={plan.n}, k={plan.k})")
    return truth, outcomes
