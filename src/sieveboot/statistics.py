"""Statistics shared by the bootstrap engine, the companion oracle and the
Monte Carlo truth runs.

Each statistic knows three things: how to evaluate itself on a path, the exact
centering value implied by a rational filter X = [num(z) / den(z)] eps with
innovation variance sigma2 -- the fitted sieve, the companion process or the
data-generating model -- and its scaling rate c_n. Frequency-domain centers
are computed with the same Fourier-grid quadrature as the statistic itself,
so discretization cancels.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dgp
from .companion import rational_acvf
from .series import ACVF, Series, sample_acf, sample_acvf, sample_mean
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
    "second_order_filter",
    "theoretical_acvf",
    "theoretical_spectral_density",
    "true_center",
]


class Statistic:
    """Protocol base; subclasses set ``name`` and override the three hooks."""

    name: str = ""

    def rate(self, n: int) -> float:
        return math.sqrt(n)

    def evaluate(self, s: Series) -> float:
        raise NotImplementedError

    def model_center(self, num, den, sigma2: float, n: int) -> float:
        """Exact statistic value for the process [num(z) / den(z)] eps with
        Var(eps) = sigma2."""
        raise NotImplementedError


@dataclass
class MeanStatistic(Statistic):
    name: str = "mean"

    def evaluate(self, s: Series) -> float:
        return sample_mean(s)

    def model_center(self, num, den, sigma2, n):
        return 0.0


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


def statistic_from_config(cfg) -> Statistic:
    """Build a statistic from a config mapping {name, lag?, lambda?, bandwidth?}."""
    if isinstance(cfg, Statistic):
        return cfg
    cfg = dict(cfg)
    name = cfg.pop("name")
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


def second_order_filter(model):
    """(num, den, sigma2): a rational filter [num(z) / den(z)] eps with the
    autocovariances of a DGP model. ARCH(1) is white noise in this sense."""
    if isinstance(model, dgp.LinearModel):
        return (np.concatenate([[1.0], np.asarray(model.b, dtype=float)]), np.ones(1),
                model.innovations.scale ** 2)
    if isinstance(model, dgp.ARModel):
        return (np.ones(1), np.concatenate([[1.0], -np.asarray(model.a, dtype=float)]),
                model.innovations.scale ** 2)
    if isinstance(model, dgp.Arch1Model):
        return np.ones(1), np.ones(1), model.omega / (1.0 - model.alpha1)
    raise TypeError(f"unsupported model type {type(model).__name__}")


def theoretical_acvf(model, maxlag: int) -> ACVF:
    """Exact autocovariances of a DGP model."""
    return rational_acvf(*second_order_filter(model), maxlag)


def theoretical_spectral_density(model):
    """Exact spectral density of a DGP model, as a callable of frequency."""
    num, den, sigma2 = second_order_filter(model)
    return lambda lam: rational_spectral_density(num, den, sigma2, lam)


def true_center(statistic: Statistic, model, n: int) -> float:
    """Exact population value of the statistic under the true DGP."""
    return statistic.model_center(*second_order_filter(model), n)
