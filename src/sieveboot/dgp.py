"""Data-generating processes: linear MA/AR models, the noninvertible MA(1)
worked example with its Wold innovations, and ARCH(1); and the one
replication loop, ``replicate``, shared by the bootstrap, the oracle and the
truth.

Process protocol: a process -- a DGP model here, a ``CompanionSpec`` or a
fitted ``SieveModel`` -- has ``filter``, the rational filter
(num, den, sigma2) of X = [num(z) / den(z)] eps with Var(eps) = sigma2 that
carries its second-order structure, and ``simulate(n, seed)``, one path.

Seeding: every simulator is deterministic given (model, n, seed). Distinct
replications must use distinct derived seeds; the canonical derivation rule is
``derive_seed(base_seed, *indices)`` which builds a ``numpy`` SeedSequence with
the indices as spawn key. The whole package uses this rule.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np
from scipy.signal import lfilter

from .ar import min_modulus_on_disk
from .series import Series, ecdf

__all__ = [
    "StabilityError",
    "InnovationSpec",
    "LinearModel",
    "ARModel",
    "Arch1Model",
    "MA1_WOLD_FILTER",
    "VE_FILTER_LAG",
    "derive_seed",
    "replicate",
    "rng_from",
    "draw_innovations",
    "simulate_linear",
    "simulate_ar",
    "ma1_example",
    "ma1_model",
    "simulate_arch1",
    "default_burnin",
    "model_to_json",
    "model_from_json",
]

# The Wold innovations of the MA(1) example are ve = [(1 - 2z) / (1 - z/2)] e,
# an all-pass filter with constant gain 2, as (numerator, denominator).
MA1_WOLD_FILTER = ((1.0, -2.0), (1.0, -0.5))

# Transient of that filter started from zero state: pre-sample innovations
# missing from ve_t weigh at most (1/2)^t, below 1e-18 after 60 steps.
VE_FILTER_LAG = 60

_FAMILIES = ("gaussian", "centered_exponential", "centered_uniform")

# Raw fourth-moment ratios E e^4 / sigma^4 per innovation family.
_RAW_FOURTH_RATIO = {
    "gaussian": 3.0,
    "centered_exponential": 9.0,
    "centered_uniform": 9.0 / 5.0,
}

SeedLike = Union[int, np.random.SeedSequence]

# Spawn-key namespaces of derived seeds: bootstrap replications, oracle
# replications, truth replications, the companion's innovation record and the
# observed data realization.
KEY_BOOT, KEY_ORACLE, KEY_TRUTH, KEY_COMPANION_RECORD, KEY_DATA = 0, 1, 2, 5, 9


class StabilityError(ValueError):
    """Raised when an AR polynomial has a root in the closed unit disk."""


def derive_seed(base: SeedLike, *indices: int) -> np.random.SeedSequence:
    """Child seed for a replication index (or any integer key path)."""
    if isinstance(base, np.random.SeedSequence):
        entropy = base.entropy
        key = tuple(base.spawn_key) + tuple(indices)
    else:
        entropy = int(base)
        key = tuple(indices)
    return np.random.SeedSequence(entropy=entropy, spawn_key=key)


def replicate(process, statistic, n: int, count: int, seed: SeedLike, key: int):
    """(law, theta): the law of rate(n) (T - theta) over ``count`` paths of
    ``process``, path i simulated from ``derive_seed(seed, key, i)``, where
    theta is the statistic's exact value under ``process.filter``."""
    theta = statistic.model_center(*process.filter, n)
    vals = np.empty(count)
    for i in range(count):
        vals[i] = statistic.evaluate(process.simulate(n, derive_seed(seed, key, i)))
    return ecdf(statistic.rate(n) * (vals - theta)), float(theta)


def rng_from(seed: SeedLike) -> np.random.Generator:
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    return np.random.default_rng(np.random.SeedSequence(int(seed)))


@dataclass(frozen=True)
class InnovationSpec:
    """An i.i.d. innovation family with mean 0 and standard deviation `scale`."""

    family: str = "gaussian"
    scale: float = 1.0

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown innovation family {self.family!r}")
        if self.scale <= 0:
            raise ValueError("scale must be positive")

    @property
    def raw_fourth_ratio(self) -> float:
        """E e^4 / (E e^2)^2."""
        return _RAW_FOURTH_RATIO[self.family]

    @property
    def excess_kurtosis(self) -> float:
        return self.raw_fourth_ratio - 3.0


@dataclass(frozen=True)
class LinearModel:
    """Finite moving average X_t = e_t + sum_j b_j e_{t-j} (b_0 = 1 implicit)."""

    b: tuple = ()
    innovations: InnovationSpec = field(default_factory=InnovationSpec)

    def __post_init__(self):
        b = tuple(float(v) for v in self.b)
        if not all(math.isfinite(v) for v in b):
            raise ValueError("MA coefficients must be finite")
        object.__setattr__(self, "b", b)

    @property
    def q(self) -> int:
        return len(self.b)

    @property
    def filter(self):
        return np.concatenate([[1.0], self.b]), np.ones(1), self.innovations.scale ** 2

    def simulate(self, n: int, seed: SeedLike) -> Series:
        return simulate_linear(self, n, seed)[0]


@dataclass(frozen=True)
class ARModel:
    """Finite (or truncated infinite) autoregression driven by i.i.d. errors."""

    a: tuple = ()
    innovations: InnovationSpec = field(default_factory=InnovationSpec)

    def __post_init__(self):
        a = tuple(float(v) for v in self.a)
        object.__setattr__(self, "a", a)
        if a and min_modulus_on_disk(np.asarray(a), 1.0) <= 0:
            raise StabilityError("AR polynomial has a root in the closed unit disk")

    @property
    def p(self) -> int:
        return len(self.a)

    @property
    def filter(self):
        den = np.concatenate([[1.0], -np.asarray(self.a)])
        return np.ones(1), den, self.innovations.scale ** 2

    def simulate(self, n: int, seed: SeedLike) -> Series:
        return simulate_ar(self, n, seed)


@dataclass(frozen=True)
class Arch1Model:
    """ARCH(1): X_t = sigma_t Z_t, sigma_t^2 = omega + alpha1 X_{t-1}^2."""

    omega: float = 1.0
    alpha1: float = 0.0

    def __post_init__(self):
        if self.omega <= 0:
            raise ValueError("omega must be positive")
        if not 0 <= self.alpha1 < 1:
            raise ValueError("alpha1 must lie in [0, 1)")
        if 3.0 * self.alpha1 ** 2 >= 1.0:
            raise ValueError("finite fourth moment requires 3*alpha1^2 < 1")

    @property
    def filter(self):
        """White noise in the second-order sense, with the stationary variance."""
        return np.ones(1), np.ones(1), self.omega / (1.0 - self.alpha1)

    def simulate(self, n: int, seed: SeedLike) -> Series:
        return simulate_arch1(self, n, seed)


def draw_innovations(spec: InnovationSpec, n: int, seed: SeedLike) -> np.ndarray:
    """n i.i.d. draws with mean 0 and variance scale^2, deterministic in seed."""
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = rng_from(seed)
    if spec.family == "gaussian":
        e = rng.standard_normal(n)
    elif spec.family == "centered_exponential":
        e = rng.exponential(1.0, n) - 1.0
    else:  # centered_uniform, variance 1 on [-sqrt(3), sqrt(3)]
        e = rng.uniform(-math.sqrt(3.0), math.sqrt(3.0), n)
    return spec.scale * e


def default_burnin(order: int) -> int:
    return max(1000, 50 * order)


def simulate_linear(model: LinearModel, n: int, seed: SeedLike):
    """Simulate the finite MA; returns (X, e) with e the aligned innovations.

    q pre-sample innovations are drawn so that X_1 already uses a full window.
    """
    q = model.q
    e_full = draw_innovations(model.innovations, n + q, seed)
    x = lfilter(np.concatenate([[1.0], model.b]), [1.0], e_full)[q:]
    return Series(x), Series(e_full[q:])


def simulate_ar(model: ARModel, n: int, seed: SeedLike, burnin: int | None = None) -> Series:
    """AR recursion from zero initial state; the first `burnin` values are dropped."""
    if burnin is None:
        burnin = default_burnin(model.p)
    if burnin < 0:
        raise ValueError("burnin must be nonnegative")
    e = draw_innovations(model.innovations, n + burnin, seed)
    x = lfilter([1.0], np.concatenate([[1.0], -np.asarray(model.a)]), e)[burnin:]
    return Series(x)


def ma1_model(innovations: InnovationSpec | None = None) -> LinearModel:
    """The noninvertible MA(1) worked example: X_t = e_t - 2 e_{t-1}."""
    return LinearModel(b=(-2.0,), innovations=innovations or InnovationSpec())


def ma1_example(n: int, seed: SeedLike, innovations: InnovationSpec | None = None):
    """The noninvertible MA(1) worked example.

    Returns (X, e, ve) where ve_t = e_t - (3/2) sum_{j>=1} (1/2)^{j-1} e_{t-j}
    is the Wold innovation of X, computed with the exact recursive filter
    ``MA1_WOLD_FILTER``. Because only one pre-sample innovation is drawn (so
    that X matches ``simulate_linear`` with b = (-2) seed-for-seed), the first
    ``VE_FILTER_LAG`` values of ve are burn-in and must be excluded from
    moment checks.
    """
    model = ma1_model(innovations)
    q = model.q
    e_full = draw_innovations(model.innovations, n + q, seed)
    x = lfilter(np.concatenate([[1.0], model.b]), [1.0], e_full)[q:]
    ve = lfilter(*MA1_WOLD_FILTER, e_full)[q:]
    return Series(x), Series(e_full[q:]), Series(ve)


def simulate_arch1(model: Arch1Model, n: int, seed: SeedLike, burnin: int | None = None) -> Series:
    """ARCH(1) recursion with standard normal multipliers."""
    if burnin is None:
        burnin = default_burnin(1)
    rng = rng_from(seed)
    z = rng.standard_normal(n + burnin)
    omega, alpha1 = model.omega, model.alpha1
    x = np.empty(n + burnin)
    prev_sq = 0.0
    for t in range(n + burnin):
        xt = math.sqrt(omega + alpha1 * prev_sq) * z[t]
        x[t] = xt
        prev_sq = xt * xt
    return Series(x[burnin:])


def model_to_json(model) -> str:
    """Serialize a model spec to the canonical JSON document."""
    if isinstance(model, LinearModel):
        doc = {"family": "linear", "coefficients": list(model.b),
               "innovation": {"family": model.innovations.family, "scale": model.innovations.scale}}
    elif isinstance(model, ARModel):
        doc = {"family": "ar", "coefficients": list(model.a),
               "innovation": {"family": model.innovations.family, "scale": model.innovations.scale}}
    elif isinstance(model, Arch1Model):
        doc = {"family": "arch1", "coefficients": [model.omega, model.alpha1]}
    else:
        raise TypeError(f"cannot serialize {type(model).__name__}")
    return json.dumps(doc)


def model_from_json(doc):
    """Inverse of :func:`model_to_json`; accepts a JSON string or a dict."""
    if isinstance(doc, str):
        doc = json.loads(doc)
    known = {"family", "coefficients", "innovation", "burnin"}
    extra = set(doc) - known
    if extra:
        raise ValueError(f"unknown model keys: {sorted(extra)}")
    family = doc.get("family")
    coeffs = doc.get("coefficients", [])
    innov = doc.get("innovation", {})
    spec = InnovationSpec(family=innov.get("family", "gaussian"),
                          scale=float(innov.get("scale", 1.0)))
    if family == "linear":
        return LinearModel(b=tuple(coeffs), innovations=spec)
    if family == "ar":
        return ARModel(a=tuple(coeffs), innovations=spec)
    if family == "arch1":
        omega, alpha1 = coeffs
        return Arch1Model(omega=float(omega), alpha1=float(alpha1))
    raise ValueError(f"unknown model family {family!r}")
