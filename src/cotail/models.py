"""Four heavy-tailed generative models with exact samplers and analytic truth.

Each model produces positive pairs (X, Y) with a common extreme value index
gamma_1 = 1/3 at the default parameters, obtained by a power transform of
the first coordinate of a dependent pre-transform pair:

* Logistic: unit-Frechet margins with a Gumbel-logistic copula (theta),
  X = Z1^(1/3).  Sampled by the positive-stable frailty construction.
* Cauchy: spherical bivariate Cauchy, X = |Z1|^(1/3), Y = |Z2|.
* Pareto2: bivariate Pareto of type II (theta), X = Z1^(1/6).  Sampled by
  the gamma-frailty construction Z_i = E_i / G.
* StudentT: correlated bivariate t (nu, rho), X = |Z1|^(1/2), Y = |Z2|.

One table states each family's facts: its X exponent, the parameter that
is its pre-transform tail index, and each parameter's default and range.
``ModelSpec`` and ``make_spec`` read it; the samplers, survivals and
quantiles below are per-family algorithms.

The pre-transform margin survival and the marginal quantiles serve the
oracle.  The analytic tail copulas R, which the tests check the estimators
against, live with the other test references in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
import numbers
from collections import namedtuple
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from scipy import special

from .core import LossPairSample, check_level

PARAMETERS = ("theta", "nu", "rho")

# The family table.  Per family: X = Z1^x_exponent, the parameter that is the
# tail index of the pre-transform margin Z (None where it is 1), and each
# parameter it takes as name: (default, lo, hi, hi_included), lo excluded.
# Logistic theta stops at 0.1: below it the sampler's stable factor, which
# holds sin(angle)^(-1/theta) at an angle clipped 1e-15 from pi, can
# overflow on one rare draw (at 0.09 with a stable denominator below 1e-16;
# at 0.1 only below 1e-19), and a non-finite sample fails the whole plan.
# Pareto2 theta stops where the oracle stops: as it grows the pair nears
# independence, the joint survival at VaR_X rounds below (1 - tau)^2 and
# no CoVaR root is found, first near theta = 4e8 at tau 0.95-0.9999.
# StudentT nu stops where the Gaussian limit checks the oracle (1e10 and
# 1e14); with the t density's constant exact the oracle returns a row at
# every nu probed up to 1e308, rho 1e-8 to 0.99, tau 0.95-0.9999.
_Family = namedtuple("_Family", ("x_exponent", "tail_index", "parameters"))
_TABLE = {
    "Logistic": _Family(1.0 / 3.0, None, {"theta": (0.6, 0.1, 1.0, True)}),
    "Cauchy": _Family(1.0 / 3.0, None, {}),
    "Pareto2": _Family(1.0 / 6.0, "theta", {"theta": (0.5, 0.0, 1e8, True)}),
    "StudentT": _Family(0.5, "nu", {"nu": (1.5, 0.0, 1e14, True), "rho": (0.3, 0.0, 1.0, False)}),
}
FAMILIES = tuple(_TABLE)


@dataclass(frozen=True)
class ModelSpec:
    """One generative model with its dependence parameters.

    Parameters the family does not take stay None; the family table gives
    the others' ranges, ``x_exponent`` and ``gamma_1``.
    """

    family: str
    theta: float | None = None
    nu: float | None = None
    rho: float | None = None

    def __post_init__(self) -> None:
        for name in PARAMETERS:
            value = getattr(self, name)
            if value is not None and (isinstance(value, bool) or not isinstance(value, numbers.Real)):
                raise ValueError(f"ModelSpec field {name!r} must be a number, got {value!r}")
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        taken = _TABLE[self.family].parameters
        for name, (_, lo, hi, hi_included) in taken.items():
            value = getattr(self, name)
            if value is None or not (lo < value < hi or hi_included and value == hi):
                requirement = f"{name} in ({lo:g}, {hi:g}{']' if hi_included else ')'}"
                raise ValueError(f"{self.family} requires {requirement}, got {value}")
        for name in PARAMETERS:
            if name not in taken and getattr(self, name) is not None:
                raise ValueError(f"{self.family} does not take parameter {name!r}")

    @property
    def x_exponent(self) -> float:
        return _TABLE[self.family].x_exponent

    @property
    def gamma_1(self) -> float:
        """X's extreme value index: ``x_exponent`` over the tail index of the
        pre-transform margin."""
        tail_index = _TABLE[self.family].tail_index
        return self.x_exponent if tail_index is None else self.x_exponent / getattr(self, tail_index)

    @classmethod
    def from_record(cls, record: dict) -> "ModelSpec":
        """Build from a config mapping {family, and any of PARAMETERS}."""
        unknown = set(record) - {"family", *PARAMETERS}
        if unknown:
            raise ValueError(f"unknown ModelSpec fields: {sorted(unknown)}")
        if "family" not in record:
            raise ValueError("ModelSpec record requires a 'family' field")
        if not isinstance(record["family"], str):
            raise ValueError(f"ModelSpec field 'family' must be a string, got {record['family']!r}")
        return make_spec(record["family"], **{name: record.get(name) for name in PARAMETERS})


def make_spec(family: str, **params: float | None) -> ModelSpec:
    """ModelSpec with the family's default for each parameter (one of
    PARAMETERS, by name) that is omitted or None."""
    for name, (default, *_) in (_TABLE[family].parameters if family in _TABLE else {}).items():
        if params.get(name) is None:
            params[name] = default
    return ModelSpec(family=family, **params)


def sample_model(
    spec: ModelSpec, n: int, rng: np.random.Generator | Sequence[np.random.Generator]
) -> LossPairSample:
    """Draw n i.i.d. pairs from the model with one Generator; with a
    sequence of B Generators, a (B, n) stack whose row i is the sample
    ``rng[i]`` draws alone.  Each Generator draws its variates in the
    family's fixed order (below) into its row of the stack's buffers; the
    elementwise family transform runs once on the stack, and the stack is
    validated once.  So a Generator state always yields the same sample:

    * Logistic: uniforms (stable angle), exponentials (stable denominator),
      then an (n, 2) exponential block.  theta = 1 degenerates to the
      independence case with no stable draws.
    * Cauchy: one (n, 3) standard-normal block.
    * Pareto2: gamma frailties (``standard_gamma``, the values gamma(theta,
      1) draws), then an (n, 2) exponential block.
    * StudentT: chi-square denominators (2 ``standard_gamma``(nu/2), the
      values gamma(nu/2, 2) draws), then an (n, 2) standard-normal block.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    # one Generator draws a stack of one, whose one row is its sample
    generators, rows = ([rng], 0) if isinstance(rng, np.random.Generator) else (rng, slice(None))
    # in place where it can be, so that a block allocates little beyond its draws
    if spec.family == "Logistic":
        # unit-Frechet pairs with CDF exp{-(s^(-1/a) + t^(-1/a))^a}, a = theta,
        # through a positive-stable factor with Laplace transform exp(-u^a)
        a, factor = spec.theta, 1.0
        if a != 1.0:
            angle, w = _draw(generators, (n,), "random"), _draw(generators, (n,), "standard_exponential")
            angle = np.multiply(np.pi, np.clip(angle, 1e-15, 1.0 - 1e-15, out=angle), out=angle)
            factor = np.sin(a * angle) / np.sin(angle) ** (1.0 / a)
            angle = np.sin(np.multiply(1.0 - a, angle, out=angle), out=angle)
            factor *= np.divide(angle, w, out=angle) ** ((1.0 - a) / a)
        e = _draw(generators, (n, 2), "standard_exponential")
        z1, z2 = (factor / e[..., 0]) ** a, (factor / e[..., 1]) ** a
    elif spec.family == "Cauchy":
        z = _draw(generators, (n, 3), "standard_normal")
        denom = np.maximum(np.abs(z[..., 0]), np.finfo(float).tiny)
        z1, z2 = np.abs(z[..., 1] / denom), np.abs(np.divide(z[..., 2], denom, out=denom), out=denom)
    elif spec.family == "Pareto2":
        g = np.maximum(_draw(generators, (n,), "standard_gamma", spec.theta), np.finfo(float).tiny)
        e = _draw(generators, (n, 2), "standard_exponential")
        z1, z2 = e[..., 0] / g, np.divide(e[..., 1], g, out=g)
    else:
        scale = np.maximum(2.0 * _draw(generators, (n,), "standard_gamma", 0.5 * spec.nu), np.finfo(float).tiny)
        normals = _draw(generators, (n, 2), "standard_normal")
        scale = np.sqrt(np.divide(scale, spec.nu, out=scale), out=scale)
        z1 = np.abs(normals[..., 0] / scale)
        z2 = spec.rho * normals[..., 0]
        z2 += math.sqrt(1.0 - spec.rho**2) * normals[..., 1]
        z2 = np.abs(np.divide(z2, scale, out=z2), out=z2)
    z1 **= spec.x_exponent
    return LossPairSample(xs=z1[rows], ys=z2[rows])


def _draw(generators: Sequence[np.random.Generator], shape: tuple, method: str, *shape_parameter) -> np.ndarray:
    """A (B, *shape) buffer whose row i is what ``generators[i].method``
    draws at ``shape``, each Generator drawing into its own row."""
    out = np.empty((len(generators), *shape))
    for row, generator in zip(out, generators):
        getattr(generator, method)(*shape_parameter, out=row)
    return out


def pre_margin_survival(spec: ModelSpec, z: float) -> float:
    """Survival P(Z > z) of one pre-transform coordinate, z >= 0.

    Both coordinates share this margin in every family (Y = second
    pre-transform coordinate; X is the first raised to ``x_exponent``).
    """
    if z < 0.0:
        raise ValueError("pre-transform losses are positive")
    if z == 0.0:
        return 1.0
    if spec.family == "Logistic":
        return -math.expm1(-1.0 / z)
    if spec.family == "Cauchy":
        # 2/pi atan(1/z), not 1 - 2/pi atan(z), which cancels for large z
        return 2.0 / math.pi * math.atan2(1.0, z)
    if spec.family == "Pareto2":
        return (1.0 + z) ** (-spec.theta)
    return 2.0 * float(special.stdtr(spec.nu, -z))


def marginal_quantiles(spec: ModelSpec, tau: float) -> tuple[float, float]:
    """(VaR_X(tau), VaR_Y(tau)) from the analytic margins.

    The pre-transform margin quantile is closed-form except for StudentT,
    where it is the t quantile at (1 + tau)/2 (``scipy.special.stdtrit``).
    """
    check_level(tau, "tau")
    if spec.family == "Logistic":
        q = -1.0 / math.log(tau)
    elif spec.family == "Cauchy":
        q = math.tan(math.pi * tau / 2.0)
    elif spec.family == "Pareto2":
        q = (1.0 - tau) ** (-1.0 / spec.theta) - 1.0
    else:
        q = float(special.stdtrit(spec.nu, (1.0 + tau) / 2.0))
    return q**spec.x_exponent, q
