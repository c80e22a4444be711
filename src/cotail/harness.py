"""Seeded Monte Carlo experiments scoring the estimators against the oracle.

An experiment draws N independent samples from a model and runs every
estimator on each.  ``run_experiment`` returns the memoized population
truth at tau' and each replication's outcome, in replication order: its
``RiskEstimates``, or the ``ValueError`` that stopped it.  Every score is a
plain function of the outcomes: ``ratios`` gives estimate/truth per
estimator over the replications that succeeded, and ``msre`` the mean
squared relative error

    MSRE = (1/N) * sum_l (estimate_l / truth - 1)^2

of one estimator's ratios.  Per-replication RNG streams are derived up
front from the plan seed, and each replication's estimates are those of
its sample alone although replications are estimated in stacks.  One
worker runs the blocks of replications on the calling thread; more run
them on a thread pool of that many threads.  A block's outcomes do not
depend on the thread that runs it, so they are bit-identical regardless
of worker count.
"""

from __future__ import annotations

import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .covar_coes import ESTIMATOR_NAMES, RiskEstimates, _stack_rows, estimate_all
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
        if self.replications < 1:
            raise ValueError(f"need at least one replication, got {self.replications}")
        if self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed}")
        check_tail(self.n, self.k, self.tau_prime)


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


def ratios(outcomes: Sequence[RiskEstimates | ValueError], truth: OracleResult) -> dict[str, list[float]]:
    """Estimate/truth per ``ESTIMATOR_NAMES`` entry over the replications
    that succeeded, in replication order; CoVaR variants are scored against
    ``truth.covar`` and CoES variants against ``truth.coes``."""
    succeeded = [outcome for outcome in outcomes if not isinstance(outcome, ValueError)]
    truths = {name: truth.covar if name.startswith("covar") else truth.coes for name in ESTIMATOR_NAMES}
    return {name: [getattr(outcome, name) / scale for outcome in succeeded] for name, scale in truths.items()}


def msre(ratios: Sequence[float]) -> float:
    """Mean squared relative error of estimate/truth ratios: the mean of (r - 1)^2."""
    arr = np.asarray(ratios, dtype=float)
    if arr.size == 0:
        raise ValueError("need at least one ratio")
    return float(np.mean((arr - 1.0) ** 2))


def run_experiment(
    plan: ExperimentPlan, workers: int = 1
) -> tuple[OracleResult, list[RiskEstimates | ValueError]]:
    """Run all replications of a plan: the truth at tau' and the outcomes.

    Each outcome is a replication's ``RiskEstimates``, or the ValueError
    that stopped it (e.g. a Hill estimate outside (0, 1)), in replication
    order.  Raises if every replication fails, or if ``workers`` is below 1.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    truth = oracle_result(plan.spec, plan.tau_prime)
    streams = [
        np.random.default_rng(child)
        for child in np.random.SeedSequence(plan.seed).spawn(plan.replications)
    ]

    def task(block: list[np.random.Generator]) -> list:
        return estimate_all(sample_model(plan.spec, plan.n, block), plan.k, plan.tau_prime)

    # whole blocks of replications, each estimated as one stack; a worker
    # takes whole blocks, and no outcome depends on the blocks
    size = _stack_rows(plan.n, (plan.k,))
    blocks = [streams[start : start + size] for start in range(0, len(streams), size)]
    if workers == 1:
        per_block = list(map(task, blocks))
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            per_block = list(pool.map(task, blocks))
    outcomes = [outcome for done in per_block for outcome in done]
    if all(isinstance(outcome, ValueError) for outcome in outcomes):
        raise ValueError(
            f"all {plan.replications} replications failed for {plan.spec.family} "
            f"(n={plan.n}, k={plan.k})"
        )
    return truth, outcomes
