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

from dataclasses import dataclass

import numpy as np

from .core import LossPairSample, WarningRecord, validate_tail_config
from .empirical import empirical_var, hill_estimate
from .tail_copula import eta_hat

ESTIMATOR_NAMES = ("covar1", "covar2", "covar3", "coes1", "coes2", "coes3", "coes4")
RECORD_KEYS = ("gamma1", "var_x", "eta1", "eta2", "covar_int", "coes_int") + ESTIMATOR_NAMES


@dataclass(frozen=True)
class RiskEstimates:
    """Every estimator for one (sample, k, tau') in a single record.

    ``covar_ext`` maps variant 1..3 and ``coes_ext`` variant 1..4 to the
    extrapolated estimates; ``coes_ext[i] = covar_ext[i] / (1 - gamma1_hat)``
    for i <= 3 by construction.  ``warnings`` aggregates the structured
    non-fatal conditions met along the way.
    """

    gamma1_hat: float
    var_x_hat: float
    eta_hat_1: float
    eta_hat_2: float
    covar_int: float
    coes_int: float
    covar_ext: dict[int, float]
    coes_ext: dict[int, float]
    warnings: tuple[WarningRecord, ...]

    def to_record(self) -> dict[str, float]:
        """Flat mapping keyed by ``RECORD_KEYS``, in that order."""
        values = (
            self.gamma1_hat, self.var_x_hat, self.eta_hat_1, self.eta_hat_2,
            self.covar_int, self.coes_int,
            *(self.covar_ext[i] for i in (1, 2, 3)),
            *(self.coes_ext[i] for i in (1, 2, 3, 4)),
        )
        return dict(zip(RECORD_KEYS, values, strict=True))

    @classmethod
    def from_record(
        cls, record: dict[str, float], warnings: tuple[WarningRecord, ...] = ()
    ) -> "RiskEstimates":
        """Inverse of ``to_record``; the first six keys follow the field order."""
        values = [record[key] for key in RECORD_KEYS]
        return cls(
            *values[:6],
            covar_ext=dict(zip((1, 2, 3), values[6:9])),
            coes_ext=dict(zip((1, 2, 3, 4), values[9:])),
            warnings=warnings,
        )


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
        ValueError: gamma1_hat outside (0, 1) (the variant 1-3
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
    covar_ext = {
        1: base * eta1.value ** (-gamma) * var_x,
        2: base * eta2.value ** (-gamma) * var_x,
        3: base * covar_int,
    }
    coes_ext = {i: covar_ext[i] / (1.0 - gamma) for i in (1, 2, 3)}
    coes_ext[4] = base * coes_int

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
        gamma1_hat=gamma,
        var_x_hat=var_x,
        eta_hat_1=eta1.value,
        eta_hat_2=eta2.value,
        covar_int=covar_int,
        coes_int=coes_int,
        covar_ext=covar_ext,
        coes_ext=coes_ext,
        warnings=tuple(warnings),
    )
