"""Seeded Monte Carlo experiments scoring the estimators against the oracle.

An experiment draws N independent samples from a model, runs every
estimator on each, and reports the mean squared relative error

    MSRE = (1/N) * sum_l (estimate_l / truth - 1)^2

per estimator.  Replications are scored against the memoized population
truth at tau'.  Per-replication RNG streams are derived up front from the
plan seed, and each replication's estimates are those of its sample alone
although replications are estimated in stacks, so results are
bit-identical regardless of worker count.
"""

from __future__ import annotations

import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .covar_coes import ESTIMATOR_NAMES, _stack_rows, estimate_all
from .core import _whole_number, check_tail
from .models import ModelSpec, sample_model
from .oracle import oracle_result


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


@dataclass(frozen=True)
class MsreTable:
    """Per-estimator MSREs for one experiment.

    ``ratios`` keeps the raw estimate/truth samples from the successful
    replications (useful for plotting spread); ``warning_counts`` tallies
    warning codes across successful replications.
    """

    msre: dict[str, float]
    failure_count: int
    warning_counts: dict[str, int]
    ratios: dict[str, tuple[float, ...]]


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


def msre(estimates: Sequence[float], truth: float) -> float:
    """Mean squared relative error of the estimates against a nonzero truth."""
    if truth == 0.0:
        raise ValueError("truth must be nonzero for a relative error")
    arr = np.asarray(estimates, dtype=float)
    if arr.size == 0:
        raise ValueError("need at least one estimate")
    return float(np.mean((arr / truth - 1.0) ** 2))


def run_experiment(plan: ExperimentPlan, workers: int = 1) -> MsreTable:
    """Run all replications of a plan and aggregate MSREs.

    Replications failing with ValueError (e.g. a Hill estimate outside
    (0, 1)) are counted in ``failure_count`` and dropped from the MSRE
    denominator.  Raises if every replication fails, or if ``workers`` is
    below 1.
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
        outcomes = [outcome for block in blocks for outcome in task(block)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = [outcome for done in pool.map(task, blocks) for outcome in done]

    truths = {name: truth.covar if name.startswith("covar") else truth.coes for name in ESTIMATOR_NAMES}
    ratios: dict[str, list[float]] = {name: [] for name in ESTIMATOR_NAMES}
    warning_counts: dict[str, int] = {}
    failure_count = 0
    for outcome in outcomes:
        if isinstance(outcome, ValueError):
            failure_count += 1
            continue
        for name, values in ratios.items():
            values.append(getattr(outcome, name) / truths[name])
        for warning in outcome.warnings:
            warning_counts[warning.code] = warning_counts.get(warning.code, 0) + 1
    if failure_count == plan.replications:
        raise ValueError(
            f"all {plan.replications} replications failed for {plan.spec.family} "
            f"(n={plan.n}, k={plan.k})"
        )
    return MsreTable(
        msre={name: msre(values, 1.0) for name, values in ratios.items()},
        failure_count=failure_count,
        warning_counts=warning_counts,
        ratios={name: tuple(values) for name, values in ratios.items()},
    )
