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

The analytic tail copula R, marginal quantiles, and the Student-t CDF used
inside R are exposed for the oracle and for estimator validation.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy import special

FAMILIES = ("Logistic", "Cauchy", "Pareto2", "StudentT")

_X_EXPONENT = {"Logistic": 1.0 / 3.0, "Cauchy": 1.0 / 3.0, "Pareto2": 1.0 / 6.0, "StudentT": 0.5}
# default dependence parameters
_DEFAULTS = {"Logistic": {"theta": 0.6}, "Cauchy": {}, "Pareto2": {"theta": 0.5}, "StudentT": {"nu": 1.5, "rho": 0.3}}


@dataclass(frozen=True)
class ModelSpec:
    """One generative model with its dependence parameters.

    Unused parameters stay None; ``x_exponent`` and ``gamma1`` derive from
    the family and parameters.
    """

    family: str
    theta: float | None = None
    nu: float | None = None
    rho: float | None = None

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        if self.family == "Logistic":
            if self.theta is None or not 0.0 < self.theta <= 1.0:
                raise ValueError(f"Logistic requires theta in (0, 1], got {self.theta}")
            self._forbid(nu=self.nu, rho=self.rho)
        elif self.family == "Cauchy":
            self._forbid(theta=self.theta, nu=self.nu, rho=self.rho)
        elif self.family == "Pareto2":
            if self.theta is None or self.theta <= 0.0:
                raise ValueError(f"Pareto2 requires theta > 0, got {self.theta}")
            self._forbid(nu=self.nu, rho=self.rho)
        else:
            if self.nu is None or self.nu <= 0.0:
                raise ValueError(f"StudentT requires nu > 0, got {self.nu}")
            if self.rho is None or not 0.0 < self.rho < 1.0:
                raise ValueError(f"StudentT requires rho in (0, 1), got {self.rho}")
            self._forbid(theta=self.theta)

    def _forbid(self, **params) -> None:
        for name, value in params.items():
            if value is not None:
                raise ValueError(f"{self.family} does not take parameter {name!r}")

    @property
    def x_exponent(self) -> float:
        return _X_EXPONENT[self.family]

    @property
    def gamma1(self) -> float:
        """Extreme value index of the X margin."""
        if self.family == "Logistic":
            pre = 1.0  # unit Frechet
        elif self.family == "Cauchy":
            pre = 1.0  # |standard Cauchy|
        elif self.family == "Pareto2":
            pre = 1.0 / self.theta
        else:
            pre = 1.0 / self.nu  # |t_nu|
        return self.x_exponent * pre

    @classmethod
    def from_record(cls, record: dict) -> "ModelSpec":
        """Build from a config mapping {family, theta?, nu?, rho?}."""
        allowed = {"family", "theta", "nu", "rho"}
        unknown = set(record) - allowed
        if unknown:
            raise ValueError(f"unknown ModelSpec fields: {sorted(unknown)}")
        if "family" not in record:
            raise ValueError("ModelSpec record requires a 'family' field")
        for name in ("theta", "nu", "rho"):
            value = record.get(name)
            if value is not None and (isinstance(value, bool) or not isinstance(value, numbers.Real)):
                raise ValueError(f"ModelSpec field {name!r} must be a number, got {value!r}")
        return make_spec(
            record["family"],
            theta=record.get("theta"),
            nu=record.get("nu"),
            rho=record.get("rho"),
        )


def make_spec(
    family: str,
    theta: float | None = None,
    nu: float | None = None,
    rho: float | None = None,
) -> ModelSpec:
    """ModelSpec with the standard study parameters filled in where omitted."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    defaults = _DEFAULTS[family]
    params = {"theta": theta, "nu": nu, "rho": rho}
    for name, value in defaults.items():
        if params[name] is None:
            params[name] = value
    return ModelSpec(family=family, **params)


def sample_model(spec: ModelSpec, n: int, rng: np.random.Generator) -> "LossPairSample":
    """Draw n i.i.d. pairs from the model.

    The draw order per family is fixed (documented below), so a given
    Generator state always yields the same sample:

    * Logistic: uniforms (stable angle), exponentials (stable denominator),
      then an (n, 2) exponential block.  theta = 1 degenerates to the
      independence case with no stable draws.
    * Cauchy: one (n, 3) standard-normal block.
    * Pareto2: gamma frailties, then an (n, 2) exponential block.
    * StudentT: chi-square denominators (as gamma), then an (n, 2)
      standard-normal block.
    """
    from .core import LossPairSample

    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if spec.family == "Logistic":
        z1, z2 = _sample_logistic_frechet(spec.theta, n, rng)
    elif spec.family == "Cauchy":
        z = rng.standard_normal((n, 3))
        denom = np.maximum(np.abs(z[:, 0]), np.finfo(float).tiny)
        z1 = np.abs(z[:, 1] / denom)
        z2 = np.abs(z[:, 2] / denom)
    elif spec.family == "Pareto2":
        g = np.maximum(rng.gamma(spec.theta, 1.0, size=n), np.finfo(float).tiny)
        e = rng.standard_exponential((n, 2))
        z1 = e[:, 0] / g
        z2 = e[:, 1] / g
    else:
        w = np.maximum(rng.gamma(0.5 * spec.nu, 2.0, size=n), np.finfo(float).tiny)
        normals = rng.standard_normal((n, 2))
        scale = np.sqrt(w / spec.nu)
        z1 = np.abs(normals[:, 0] / scale)
        z2 = np.abs(
            (spec.rho * normals[:, 0] + math.sqrt(1.0 - spec.rho**2) * normals[:, 1]) / scale
        )
    return LossPairSample(xs=z1**spec.x_exponent, ys=z2)


def _sample_logistic_frechet(
    theta: float, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Unit-Frechet pair with exp{-(s^(-1/theta) + t^(-1/theta))^theta} CDF."""
    if theta == 1.0:
        s = np.ones(n)
    else:
        # positive-stable factor with Laplace transform exp(-u^theta)
        u = np.clip(rng.random(n), 1e-15, 1.0 - 1e-15)
        angle = np.pi * u
        w = rng.standard_exponential(n)
        a = theta
        s = (
            np.sin(a * angle)
            / np.sin(angle) ** (1.0 / a)
            * (np.sin((1.0 - a) * angle) / w) ** ((1.0 - a) / a)
        )
    e = rng.standard_exponential((n, 2))
    z1 = (s / e[:, 0]) ** theta
    z2 = (s / e[:, 1]) ** theta
    return z1, z2


def student_t_cdf(x, nu: float):
    """CDF of the Student-t distribution (``scipy.special.stdtr``).

    Accepts scalars or arrays; symmetric (F(-x) = 1 - F(x)), F(0) = 1/2.
    Upper-tail probabilities are best read as F(-x), which keeps full
    relative precision where 1 - F(x) would cancel.
    """
    if nu <= 0.0:
        raise ValueError(f"degrees of freedom must be positive, got {nu}")
    out = special.stdtr(nu, x)
    if np.ndim(out) == 0:
        return float(out)
    return out


def _student_pair_term(x: float, y: float, rho: float, nu: float) -> float:
    """Tail-copula contribution of one signed quadrant of a bivariate t pair."""
    c = math.sqrt((nu + 1.0) / (1.0 - rho * rho))
    return y * student_t_cdf(c * (rho - (y / x) ** (1.0 / nu)), nu + 1.0) + x * student_t_cdf(
        c * (rho - (x / y) ** (1.0 / nu)), nu + 1.0
    )


def true_tail_copula(spec: ModelSpec, x: float, y: float) -> float:
    """Analytic tail copula R(x, y) of the model.

    Homogeneous of degree 1 with margins R(x, inf) = x, R(inf, y) = y.
    For StudentT the absolute-value transforms fold the two signed
    quadrants together, so R is the sum of the correlated (rho) and
    anti-correlated (-rho) quadrant terms.
    """
    if x < 0.0 or y < 0.0:
        raise ValueError("tail copula arguments must be nonnegative")
    if x == 0.0 or y == 0.0:
        return 0.0
    if spec.family == "Logistic":
        # x + y - (x^(1/t) + y^(1/t))^t, factored through the larger
        # argument so that the difference does not cancel
        t = spec.theta
        lo, hi = min(x, y), max(x, y)
        return lo - hi * math.expm1(t * math.log1p((lo / hi) ** (1.0 / t)))
    if spec.family == "Cauchy":
        return x + y - math.hypot(x, y)
    if spec.family == "Pareto2":
        t = spec.theta
        return (x ** (-1.0 / t) + y ** (-1.0 / t)) ** (-t)
    return _student_pair_term(x, y, spec.rho, spec.nu) + _student_pair_term(
        x, y, -spec.rho, spec.nu
    )


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
        return 1.0 - 2.0 / math.pi * math.atan(z)
    if spec.family == "Pareto2":
        return (1.0 + z) ** (-spec.theta)
    return 2.0 * student_t_cdf(-z, spec.nu)


def marginal_quantiles(spec: ModelSpec, tau: float) -> tuple[float, float]:
    """(VaR_X(tau), VaR_Y(tau)) from the analytic margins.

    The pre-transform margin quantile is closed-form except for StudentT,
    where it is the t quantile at (1 + tau)/2 (``scipy.special.stdtrit``).
    """
    if not 0.0 < tau < 1.0:
        raise ValueError(f"tau must lie in (0, 1), got {tau}")
    if spec.family == "Logistic":
        q = -1.0 / math.log(tau)
    elif spec.family == "Cauchy":
        q = math.tan(math.pi * tau / 2.0)
    elif spec.family == "Pareto2":
        q = (1.0 - tau) ** (-1.0 / spec.theta) - 1.0
    else:
        q = float(special.stdtrit(spec.nu, (1.0 + tau) / 2.0))
    return q**spec.x_exponent, q
