"""Data paths, moment statistics and empirical distributions.

A path is a 1-d float array, the row that a process's ``simulate`` returns.
All estimators use the biased 1/n normalization, which keeps empirical
autocovariance (Toeplitz) matrices positive semidefinite.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DegenerateSeriesError",
    "EmpiricalLaw",
    "sample_acvf",
    "kolmogorov_distance",
    "ks_critical_value",
]


class DegenerateSeriesError(ValueError):
    """Raised when a computation requires a non-constant series."""


@dataclass(frozen=True)
class EmpiricalLaw:
    """A sorted sample with uniform weights, evaluated as a right-continuous cdf."""

    sample: np.ndarray

    def __post_init__(self):
        sample = np.sort(np.asarray(self.sample, dtype=float))
        if sample.size < 1:
            raise ValueError("empirical law requires a nonempty sample")
        if not np.isfinite(sample).all():
            raise ValueError("empirical law requires a finite sample")
        object.__setattr__(self, "sample", sample)

    def cdf(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.searchsorted(self.sample, x, side="right") / self.sample.size

    def variance(self) -> float:
        return float(np.var(self.sample))

    def mean(self) -> float:
        return float(np.mean(self.sample))


def _centered(x: np.ndarray, maxlag: int) -> np.ndarray:
    """The path less its mean, ``np.mean``'s arithmetic, after checking that
    lag ``maxlag`` lies within it: the one centring step of the sample
    autocovariance, shared by ``sample_acvf`` and the acvf and acf
    statistics."""
    if not 0 <= maxlag < x.size:
        raise ValueError(f"maxlag must satisfy 0 <= maxlag < n, got {maxlag} with n={x.size}")
    return x - np.add.reduce(x) / x.size


def sample_acvf(x: np.ndarray, maxlag: int) -> np.ndarray:
    """Biased sample autocovariances gamma(0..maxlag) of the path x."""
    x = _centered(x, maxlag)
    n = x.size
    gamma = np.empty(maxlag + 1)
    for h in range(maxlag + 1):
        gamma[h] = np.dot(x[: n - h], x[h:]) / n
    return gamma


def kolmogorov_distance(f: EmpiricalLaw, g: EmpiricalLaw) -> float:
    """sup_x |F(x) - G(x)|, evaluated exactly over the union of jump points."""
    pts = np.concatenate([f.sample, g.sample])
    return float(np.max(np.abs(f.cdf(pts) - g.cdf(pts))))


def ks_critical_value(n1: int, n2: int, alpha: float = 0.001) -> float:
    """Asymptotic two-sample Kolmogorov-Smirnov critical value.

    c(alpha) * sqrt((n1 + n2) / (n1 n2)) with c(alpha) = sqrt(-ln(alpha/2) / 2):
    two i.i.d. samples of sizes n1 and n2 from one continuous law exceed this
    Kolmogorov distance with probability about alpha.
    """
    if n1 < 1 or n2 < 1:
        raise ValueError(f"sample sizes must be positive, got {n1} and {n2}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    c = math.sqrt(-math.log(alpha / 2.0) / 2.0)
    return c * math.sqrt((n1 + n2) / (n1 * n2))
