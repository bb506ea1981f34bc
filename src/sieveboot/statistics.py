"""Statistics shared by the bootstrap engine, the companion oracle and the
Monte Carlo truth runs.

Each statistic knows four things: how to evaluate itself on a path, the exact
centering value implied by a rational filter X = [num(z) / den(z)] eps with
innovation variance sigma2 -- the fitted sieve, the companion process or the
data-generating model -- its scaling rate c_n, and the closed-form asymptotic
variances of its law under such a filter. Frequency-domain centers are
computed with the same Fourier-grid quadrature as the statistic itself, so
discretization cancels.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .asymptotics import (
    KurtosisSpec,
    acvf_asymptotic_variance,
    bartlett_variance,
    integrated_periodogram_variance,
    ratio_statistic_variance,
    spectral_estimator_variance,
)
from .companion import rational_acvf
from .series import DegenerateSeriesError, Series
from .spectral import (
    KernelSpec,
    WeightFunction,
    cosine_weight,
    fourier_quadrature,
    integrated_periodogram,
    kernel_spectral_estimate,
    rational_spectral_density,
    ratio_statistic,
    weighted_quadrature,
)

__all__ = [
    "Statistic",
    "MeanStatistic",
    "AcvfStatistic",
    "AcfStatistic",
    "IntegratedPeriodogramStatistic",
    "RatioStatistic",
    "SpectralDensityStatistic",
    "statistic_from_config",
]


def _lag(h, floor: int) -> int:
    """h as a lag, rejected unless it is an integer (not a bool) >= floor."""
    if isinstance(h, bool) or not isinstance(h, numbers.Integral) or h < floor:
        raise ValueError(f"lag must be an integer >= {floor}, got {h!r}")
    return int(h)


def _number(value, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def _kurtosis_targets(variance, prefix: str, kappa_e, kappa_eps) -> dict:
    """{prefix}_linear and {prefix}_companion: variance(KurtosisSpec(kappa))
    at the raw- and Wold-innovation kurtoses, where known."""
    return {f"{prefix}_{kind}": variance(KurtosisSpec(kappa))
            for kind, kappa in (("linear", kappa_e), ("companion", kappa_eps)) if kappa is not None}


def _target_acvf(num, den, sigma2, *target_ids):
    """``rational_acvf`` over every lag; its ValueError names the targets."""
    try:
        return rational_acvf(num, den, sigma2)
    except ValueError as exc:
        raise ValueError(f"{', '.join(target_ids)}: {exc}") from None


def _centered(s: Series, maxlag: int) -> np.ndarray:
    """The path less its mean, with the arithmetic and the check of
    ``sample_acvf``, so that a lag-h product over it divided by n is
    ``sample_acvf(s, h)[h]`` bit for bit."""
    v = s.values
    if not 0 <= maxlag < v.size:
        raise ValueError(f"maxlag must satisfy 0 <= maxlag < n, got {maxlag} with n={v.size}")
    return v - np.add.reduce(v) / v.size


class Statistic:
    """Protocol base; subclasses set ``name`` and override the hooks."""

    name: str = ""

    def rate(self, n: int) -> float:
        return math.sqrt(n)

    def evaluate(self, s: Series) -> float:
        raise NotImplementedError

    def model_center(self, num, den, sigma2: float, n: int) -> float:
        """Exact statistic value for the process [num(z) / den(z)] eps with
        Var(eps) = sigma2."""
        raise NotImplementedError

    def targets(self, num, den, sigma2: float, kappa_e, kappa_eps) -> dict:
        """Closed-form asymptotic variances of the scaled statistic under the
        process [num(z) / den(z)] eps, by target id. kappa_e and kappa_eps are
        the raw- and Wold-innovation excess kurtoses, None where unknown."""
        return {}


@dataclass
class MeanStatistic(Statistic):
    name: str = "mean"

    def evaluate(self, s: Series) -> float:
        return float(np.add.reduce(s.values) / s.n)  # sample_mean's arithmetic

    def model_center(self, num, den, sigma2, n):
        return 0.0

    def targets(self, num, den, sigma2, kappa_e, kappa_eps):
        # the long-run variance sum_h gamma(h) = 2 pi f(0) = sigma2 num(1)^2 / den(1)^2
        return {"mean_long_run_variance": float(sigma2 * np.sum(num) ** 2 / np.sum(den) ** 2)}


@dataclass
class AcvfStatistic(Statistic):
    """Centered sample autocovariance at a fixed lag."""

    h: int = 0

    def __post_init__(self):
        self.h = _lag(self.h, 0)
        self.name = f"acvf-lag-{self.h}"

    def evaluate(self, s: Series) -> float:
        x = _centered(s, self.h)
        return float(np.dot(x[: x.size - self.h], x[self.h:]) / x.size)

    def model_center(self, num, den, sigma2, n):
        return rational_acvf(num, den, sigma2, self.h)[self.h]

    def targets(self, num, den, sigma2, kappa_e, kappa_eps):
        gamma = _target_acvf(num, den, sigma2, "acvf_variance_linear", "acvf_variance_companion")
        return _kurtosis_targets(lambda kappa: acvf_asymptotic_variance(gamma, self.h, kappa),
                                 "acvf_variance", kappa_e, kappa_eps)


@dataclass
class AcfStatistic(Statistic):
    """Sample autocorrelation at a fixed lag."""

    h: int = 1

    def __post_init__(self):
        self.h = _lag(self.h, 1)
        self.name = f"acf-lag-{self.h}"

    def evaluate(self, s: Series) -> float:
        x = _centered(s, self.h)
        n = x.size
        gamma0 = np.dot(x, x) / n
        if gamma0 <= 0:
            raise DegenerateSeriesError("sample variance is zero; acf undefined")
        return float(np.dot(x[: n - self.h], x[self.h:]) / n / gamma0)

    def model_center(self, num, den, sigma2, n):
        gamma = rational_acvf(num, den, sigma2, self.h)
        return gamma[self.h] / gamma[0]

    def targets(self, num, den, sigma2, kappa_e, kappa_eps):
        gamma = _target_acvf(num, den, sigma2, "bartlett_variance").gamma
        return {"bartlett_variance": bartlett_variance(gamma / gamma[0], self.h)}


@dataclass
class IntegratedPeriodogramStatistic(Statistic):
    """M(I_n, phi) on the Fourier-frequency quadrature grid."""

    phi: WeightFunction = None

    def __post_init__(self):
        self.name = f"intper[{self.phi.name}]"

    def evaluate(self, s: Series) -> float:
        return integrated_periodogram(s, self.phi)

    def model_center(self, num, den, sigma2, n):
        fv = rational_spectral_density(num, den, sigma2, fourier_quadrature(n)[0])
        return float(np.dot(weighted_quadrature(self.phi, n), fv))

    def targets(self, num, den, sigma2, kappa_e, kappa_eps):
        def f(lam):
            return rational_spectral_density(num, den, sigma2, lam)

        return _kurtosis_targets(lambda kappa: integrated_periodogram_variance(f, self.phi, kappa),
                                 "intper_variance", kappa_e, kappa_eps)


@dataclass
class RatioStatistic(Statistic):
    """R(I_n, phi) = M(I_n, phi) / M(I_n, 1)."""

    phi: WeightFunction = None

    def __post_init__(self):
        self.name = f"ratio[{self.phi.name}]"

    def evaluate(self, s: Series) -> float:
        return ratio_statistic(s, self.phi)

    def model_center(self, num, den, sigma2, n):
        freqs, w = fourier_quadrature(n)
        fv = rational_spectral_density(num, den, sigma2, freqs)
        return float(np.dot(weighted_quadrature(self.phi, n), fv)) / float(np.dot(w, fv))

    def targets(self, num, den, sigma2, kappa_e, kappa_eps):
        return {"ratio_statistic_variance": ratio_statistic_variance(
            lambda lam: rational_spectral_density(num, den, sigma2, lam), self.phi)}


@dataclass
class SpectralDensityStatistic(Statistic):
    """Kernel spectral density estimate at a fixed frequency; rate sqrt(n h)."""

    lam: float = math.pi / 2
    kernel: KernelSpec = None

    def __post_init__(self):
        self.lam = _number(self.lam, "lambda")
        if not 0 <= self.lam <= math.pi:
            raise ValueError(f"lambda must lie in [0, pi], got {self.lam!r}")
        if self.kernel is None:
            self.kernel = KernelSpec()
        self.name = f"specdens[{self.lam:.4f},h={self.kernel.bandwidth}]"

    def rate(self, n: int) -> float:
        return math.sqrt(n * self.kernel.bandwidth)

    def evaluate(self, s: Series) -> float:
        return kernel_spectral_estimate(s, self.kernel, self.lam)

    def model_center(self, num, den, sigma2, n):
        return rational_spectral_density(num, den, sigma2, self.lam)

    def targets(self, num, den, sigma2, kappa_e, kappa_eps):
        f = float(rational_spectral_density(num, den, sigma2, self.lam))
        boundary = self.lam < 1e-9 or abs(self.lam - math.pi) < 1e-9
        return {"specdens_nh_variance": spectral_estimator_variance(f, boundary, self.kernel),
                "spectral_density_value": f}


def statistic_from_config(cfg) -> Statistic:
    """Build a statistic from a config mapping {name, lag?, lambda?, bandwidth?}.

    Raises ValueError, naming the field, on an unknown name or key, a lag that
    is not an integer (>= 1 for acf, >= 0 otherwise), or a lambda outside
    [0, pi] or a bandwidth outside (0, pi], NaN included.
    """
    if isinstance(cfg, Statistic):
        return cfg
    if not isinstance(cfg, dict):
        raise ValueError(f"statistic must be an object, got {cfg!r}")
    cfg = dict(cfg)
    name = cfg.pop("name", None)
    if name == "mean":
        stat = MeanStatistic()
    elif name == "acvf":
        stat = AcvfStatistic(h=cfg.pop("lag", 0))
    elif name == "acf":
        stat = AcfStatistic(h=cfg.pop("lag", 1))
    elif name == "ratio-cos":
        stat = RatioStatistic(phi=cosine_weight(_lag(cfg.pop("lag", 1), 0)))
    elif name == "intper-cos":
        stat = IntegratedPeriodogramStatistic(phi=cosine_weight(_lag(cfg.pop("lag", 1), 0)))
    elif name == "specdens":
        lam = cfg.pop("lambda", math.pi / 2)
        bandwidth = _number(cfg.pop("bandwidth", 0.3), "bandwidth")
        stat = SpectralDensityStatistic(lam=lam, kernel=KernelSpec(bandwidth=bandwidth))
    else:
        raise ValueError(f"unknown statistic {name!r}")
    if cfg:
        raise ValueError(f"unknown statistic keys: {sorted(cfg)}")
    return stat
