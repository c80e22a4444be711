"""Intermediate and extrapolated CoVaR/CoES estimators.

The intermediate estimators work at level 1 - k/n on the filtered
subsample: the X values of the k+1 observations with the largest system
loss, ``y_index.top(k + 1)`` (Y >= Y_(n-k,n); a tie at that threshold is
broken by rank and reported as a ``ties_at_threshold`` warning).
``estimate_all`` is the one entry point for the extrapolated
families: it pushes them to an extreme level tau' with the Hill estimate,
the factor d^(2 gamma) and either an adjustment factor (variants 1-2) or
the intermediate estimate itself (variants 3-4).  Every estimator reads the
margin indexes cached on the sample, so ``estimate_all`` over any number of
k values costs one sort per margin, and ``RECORD_KEYS`` is the one flat
schema of its result.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .core import LossPairSample, WarningRecord, validate_tail_config
from .empirical import empirical_var, hill_estimate
from .tail_copula import eta_hat


@dataclass(frozen=True)
class RiskEstimates:
    """Every estimator for one (sample, k, tau') in a single record.

    The fields before ``warnings`` are the record schema, ``RECORD_KEYS``, in
    output order: gamma-hat, VaR_X, the two eta-hat variants, the intermediate
    CoVaR/CoES, then the extrapolated CoVaR variants 1-3 and CoES variants
    1-4 (``coes{i} = covar{i} / (1 - gamma1)`` for i <= 3 by construction).
    ``warnings`` aggregates the structured non-fatal conditions met along the
    way.
    """

    gamma1: float
    var_x: float
    eta1: float
    eta2: float
    covar_int: float
    coes_int: float
    covar1: float
    covar2: float
    covar3: float
    coes1: float
    coes2: float
    coes3: float
    coes4: float
    warnings: tuple[WarningRecord, ...]

    def to_record(self) -> dict[str, float]:
        """Flat mapping keyed by ``RECORD_KEYS``, in that order."""
        return {key: getattr(self, key) for key in RECORD_KEYS}


RECORD_KEYS = tuple(f.name for f in fields(RiskEstimates) if f.name != "warnings")
ESTIMATOR_NAMES = RECORD_KEYS[6:]


def _intermediate(sample: LossPairSample, k: int) -> tuple[float, float]:
    """(CoVaR, CoES) at level 1 - k/n from the filtered subsample.

    CoVaR is the (k+2-m)-th smallest filtered X value; CoES is
    (n/k^2) * sum of the filtered X values >= CoVaR.  The subsample keeps
    the original order, so the sum adds the values in index order.
    """
    config, _ = validate_tail_config(sample.n, k)
    filtered = sample.xs[sample.y_index.top(k + 1)]
    covar = float(np.sort(filtered)[k + 1 - config.m])
    return covar, float(sample.n / (k * k) * np.sum(filtered[filtered >= covar]))


def intermediate_covar(sample: LossPairSample, k: int) -> float:
    """CoVaR at level 1 - k/n: the (k+2-m)-th smallest filtered X value."""
    return _intermediate(sample, k)[0]


def intermediate_coes(sample: LossPairSample, k: int) -> float:
    """CoES at level 1 - k/n: (n/k^2) * sum of X over the joint exceedances."""
    return _intermediate(sample, k)[1]


def estimate_all(sample: LossPairSample, k: int, tau_prime: float) -> RiskEstimates:
    """Compute every intermediate and extrapolated estimator in one pass.

    With d = k/(n(1 - tau')), CoVaR variants 1-2 are
    d^(2 gamma) * eta^(-gamma) * VaR_X, variant 3 is d^(2 gamma) * CoVaR_int,
    CoES variants 1-3 are CoVaR/(1 - gamma) and variant 4 is
    d^(2 gamma) * CoES_int.

    Raises:
        ValueError: gamma1 outside (0, 1) (the variant 1-3
            extrapolations are undefined), or any component failure.
    """
    config, warnings = validate_tail_config(sample.n, k, tau_prime)
    y_sorted = sample.y_index.sorted
    threshold = y_sorted[sample.n - k - 1]
    if k < sample.n - 1 and y_sorted[sample.n - k - 2] == threshold:
        warnings.append(
            WarningRecord(
                "ties_at_threshold",
                f"system losses tie at the threshold Y_(n-k,n)={threshold}: the k+1 "
                "conditioning observations are chosen by rank, later ones first",
            )
        )
    gamma = hill_estimate(sample.x_index, k)
    if not 0.0 < gamma < 1.0:
        raise ValueError(
            f"tail index estimate gamma1={gamma:.4f} outside (0, 1); "
            "extrapolation is invalid"
        )
    var_x = empirical_var(sample.x_index, k)
    eta1 = eta_hat(sample, k, 1)
    eta2 = eta_hat(sample, k, 2)
    covar_int, coes_int = _intermediate(sample, k)

    base = config.d ** (2.0 * gamma)
    covar1 = base * eta1.value ** (-gamma) * var_x
    covar2 = base * eta2.value ** (-gamma) * var_x
    covar3 = base * covar_int

    for eta in (eta1, eta2):
        if eta.clamped:
            warnings.append(
                WarningRecord(
                    "eta_clamped",
                    f"eta-hat variant {eta.variant} raw value {eta.raw} floored "
                    f"at 1/(2k) = {eta.value}",
                )
            )
    if gamma >= 0.5:
        warnings.append(
            WarningRecord(
                "gamma_above_half",
                f"gamma1={gamma:.4f} >= 1/2: the intermediate-CoES extrapolation "
                "(variant 4) is outside its supported regime",
            )
        )
    return RiskEstimates(
        gamma1=gamma,
        var_x=var_x,
        eta1=eta1.value,
        eta2=eta2.value,
        covar_int=covar_int,
        coes_int=coes_int,
        covar1=covar1,
        covar2=covar2,
        covar3=covar3,
        coes1=covar1 / (1.0 - gamma),
        coes2=covar2 / (1.0 - gamma),
        coes3=covar3 / (1.0 - gamma),
        coes4=base * coes_int,
        warnings=tuple(warnings),
    )
