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
from dataclasses import dataclass

import numpy as np

from .asymptotics import (
    KurtosisSpec,
    acvf_asymptotic_variance,
    bartlett_variance,
    mean_asymptotic_variance,
    ratio_statistic_variance,
    spectral_estimator_variance,
)
from .companion import rational_acvf
from .series import Series, sample_acf, sample_acvf, sample_mean
from .spectral import (
    KernelSpec,
    WeightFunction,
    cosine_weight,
    fourier_quadrature,
    kernel_spectral_estimate,
    rational_spectral_density,
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

_TARGET_TRUNC = 200  # lags carried for theoretical ACVF-based targets


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
        return sample_mean(s)

    def model_center(self, num, den, sigma2, n):
        return 0.0

    def targets(self, num, den, sigma2, kappa_e, kappa_eps):
        gamma = rational_acvf(num, den, sigma2, _TARGET_TRUNC)
        return {"mean_long_run_variance": mean_asymptotic_variance(gamma)}


@dataclass
class AcvfStatistic(Statistic):
    """Centered sample autocovariance at a fixed lag."""

    h: int = 0

    def __post_init__(self):
        self.name = f"acvf-lag-{self.h}"

    def evaluate(self, s: Series) -> float:
        return sample_acvf(s, self.h, centered=True)[self.h]

    def model_center(self, num, den, sigma2, n):
        return rational_acvf(num, den, sigma2, self.h)[self.h]

    def targets(self, num, den, sigma2, kappa_e, kappa_eps):
        gamma = rational_acvf(num, den, sigma2, _TARGET_TRUNC)
        out = {}
        if kappa_e is not None:
            out["acvf_variance_linear"] = acvf_asymptotic_variance(
                gamma, self.h, KurtosisSpec(kappa_e))
        if kappa_eps is not None:
            out["acvf_variance_companion"] = acvf_asymptotic_variance(
                gamma, self.h, KurtosisSpec(kappa_eps))
        return out


@dataclass
class AcfStatistic(Statistic):
    """Sample autocorrelation at a fixed lag."""

    h: int = 1

    def __post_init__(self):
        if self.h < 1:
            raise ValueError("acf statistic requires h >= 1")
        self.name = f"acf-lag-{self.h}"

    def evaluate(self, s: Series) -> float:
        return float(sample_acf(s, self.h)[self.h])

    def model_center(self, num, den, sigma2, n):
        gamma = rational_acvf(num, den, sigma2, self.h)
        return gamma[self.h] / gamma[0]

    def targets(self, num, den, sigma2, kappa_e, kappa_eps):
        gamma = rational_acvf(num, den, sigma2, _TARGET_TRUNC).gamma
        return {"bartlett_variance": bartlett_variance(gamma / gamma[0], self.h)}


def _grid_functional(f_vals: np.ndarray, phi: WeightFunction, freqs: np.ndarray, w: np.ndarray) -> float:
    return float(np.dot(w * phi(freqs), f_vals))


@dataclass
class IntegratedPeriodogramStatistic(Statistic):
    """M(I_n, phi) on the Fourier-frequency quadrature grid."""

    phi: WeightFunction = None

    def __post_init__(self):
        self.name = f"intper[{self.phi.name}]"

    def evaluate(self, s: Series) -> float:
        from .spectral import integrated_periodogram

        return integrated_periodogram(s, self.phi)

    def model_center(self, num, den, sigma2, n):
        freqs, w = fourier_quadrature(n)
        fv = rational_spectral_density(num, den, sigma2, freqs)
        return _grid_functional(fv, self.phi, freqs, w)


@dataclass
class RatioStatistic(Statistic):
    """R(I_n, phi) = M(I_n, phi) / M(I_n, 1)."""

    phi: WeightFunction = None

    def __post_init__(self):
        self.name = f"ratio[{self.phi.name}]"

    def evaluate(self, s: Series) -> float:
        from .spectral import ratio_statistic

        return ratio_statistic(s, self.phi)

    def model_center(self, num, den, sigma2, n):
        freqs, w = fourier_quadrature(n)
        fv = rational_spectral_density(num, den, sigma2, freqs)
        return _grid_functional(fv, self.phi, freqs, w) / float(np.dot(w, fv))

    def targets(self, num, den, sigma2, kappa_e, kappa_eps):
        return {"ratio_statistic_variance": ratio_statistic_variance(
            lambda lam: rational_spectral_density(num, den, sigma2, lam), self.phi)}


@dataclass
class SpectralDensityStatistic(Statistic):
    """Kernel spectral density estimate at a fixed frequency; rate sqrt(n h)."""

    lam: float = math.pi / 2
    kernel: KernelSpec = None

    def __post_init__(self):
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
    """Build a statistic from a config mapping {name, lag?, lambda?, bandwidth?}."""
    if isinstance(cfg, Statistic):
        return cfg
    cfg = dict(cfg)
    name = cfg.pop("name", None)
    if name == "mean":
        stat = MeanStatistic()
    elif name == "acvf":
        stat = AcvfStatistic(h=int(cfg.pop("lag", 0)))
    elif name == "acf":
        stat = AcfStatistic(h=int(cfg.pop("lag", 1)))
    elif name == "ratio-cos":
        stat = RatioStatistic(phi=cosine_weight(int(cfg.pop("lag", 1))))
    elif name == "intper-cos":
        stat = IntegratedPeriodogramStatistic(phi=cosine_weight(int(cfg.pop("lag", 1))))
    elif name == "specdens":
        lam = float(cfg.pop("lambda", math.pi / 2))
        bandwidth = float(cfg.pop("bandwidth", 0.3))
        stat = SpectralDensityStatistic(lam=lam, kernel=KernelSpec(bandwidth=bandwidth))
    else:
        raise ValueError(f"unknown statistic {name!r}")
    if cfg:
        raise ValueError(f"unknown statistic keys: {sorted(cfg)}")
    return stat
