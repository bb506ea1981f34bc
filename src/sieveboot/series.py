"""Sample paths, moment statistics, empirical distributions and generalized means.

All estimators use the biased 1/n normalization, which keeps empirical
autocovariance (Toeplitz) matrices positive semidefinite.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "DegenerateSeriesError",
    "Series",
    "ACVF",
    "EmpiricalLaw",
    "StatisticDescriptor",
    "sample_mean",
    "sample_acvf",
    "sample_acf",
    "ecdf",
    "kolmogorov_distance",
    "ks_critical_value",
    "generalized_mean_statistic",
    "mean_descriptor",
    "product_lag_descriptor",
    "acvf_lag_descriptor",
    "acf_lag_descriptor",
]


class DegenerateSeriesError(ValueError):
    """Raised when a computation requires a non-constant series."""


@dataclass(frozen=True)
class Series:
    """A finite real-valued sample path."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.size < 1:
            raise ValueError("series must be a nonempty 1-d array")
        if not np.all(np.isfinite(values)):
            raise ValueError("series values must be finite")
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class ACVF:
    """An autocovariance sequence gamma(0..L), empirical or theoretical."""

    gamma: np.ndarray
    kind: str = "empirical"

    def __post_init__(self):
        gamma = np.asarray(self.gamma, dtype=float)
        if gamma.ndim != 1 or gamma.size < 1:
            raise ValueError("acvf must be a nonempty 1-d array")
        if gamma[0] < 0:
            raise ValueError("gamma(0) must be nonnegative")
        if self.kind not in ("empirical", "theoretical"):
            raise ValueError(f"unknown acvf kind {self.kind!r}")
        object.__setattr__(self, "gamma", gamma)

    @property
    def maxlag(self) -> int:
        return self.gamma.size - 1

    def __getitem__(self, h: int) -> float:
        """gamma(h), extending with zero beyond the stored range."""
        h = abs(int(h))
        return float(self.gamma[h]) if h < self.gamma.size else 0.0


@dataclass(frozen=True)
class EmpiricalLaw:
    """A sorted sample with uniform weights, evaluated as a right-continuous cdf."""

    sample: np.ndarray

    def __post_init__(self):
        sample = np.sort(np.asarray(self.sample, dtype=float))
        if sample.size < 1:
            raise ValueError("empirical law requires a nonempty sample")
        object.__setattr__(self, "sample", sample)

    @property
    def size(self) -> int:
        return self.sample.size

    def cdf(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.searchsorted(self.sample, x, side="right") / self.sample.size

    def variance(self) -> float:
        return float(np.var(self.sample))

    def mean(self) -> float:
        return float(np.mean(self.sample))


@dataclass(frozen=True)
class StatisticDescriptor:
    """A statistic of the generalized-mean class.

    ``g`` maps a window matrix of shape (k, m) to intermediate values of shape
    (k, d); ``f`` maps the d-vector of averages to a scalar.
    """

    name: str
    m: int
    d: int
    g: Callable[[np.ndarray], np.ndarray]
    f: Callable[[np.ndarray], float]

    def __post_init__(self):
        if self.m < 1 or self.d < 1:
            raise ValueError("descriptor requires m >= 1 and d >= 1")


def sample_mean(s: Series) -> float:
    """Arithmetic mean of the sample path."""
    return float(np.mean(s.values))


def sample_acvf(s: Series, maxlag: int, centered: bool = True) -> ACVF:
    """Biased sample autocovariances up to ``maxlag``.

    With ``centered=False`` returns the non-centered second moments
    c(h) = n^-1 sum_t X_t X_{t+h} instead.
    """
    n = s.n
    if not 0 <= maxlag < n:
        raise ValueError(f"maxlag must satisfy 0 <= maxlag < n, got {maxlag} with n={n}")
    x = s.values - np.mean(s.values) if centered else s.values
    gamma = np.empty(maxlag + 1)
    for h in range(maxlag + 1):
        gamma[h] = np.dot(x[: n - h], x[h:]) / n
    return ACVF(gamma=gamma, kind="empirical")


def sample_acf(s: Series, maxlag: int) -> np.ndarray:
    """Sample autocorrelations rho(0..maxlag); requires a non-constant series."""
    acvf = sample_acvf(s, maxlag, centered=True)
    if acvf.gamma[0] <= 0:
        raise DegenerateSeriesError("sample variance is zero; acf undefined")
    return acvf.gamma / acvf.gamma[0]


def ecdf(values) -> EmpiricalLaw:
    """Empirical distribution of the given values."""
    values = np.asarray(values, dtype=float)
    if values.size < 1:
        raise ValueError("ecdf requires a nonempty input")
    return EmpiricalLaw(sample=values)


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


def generalized_mean_statistic(s: Series, d: StatisticDescriptor) -> float:
    """f of the average of g over all length-m windows of the series."""
    n = s.n
    if n < d.m:
        raise ValueError(f"series of length {n} shorter than window m={d.m}")
    windows = np.lib.stride_tricks.sliding_window_view(s.values, d.m)
    vals = np.asarray(d.g(windows), dtype=float)
    if vals.ndim == 1:
        vals = vals[:, None]
    return float(d.f(np.mean(vals, axis=0)))


def mean_descriptor() -> StatisticDescriptor:
    return StatisticDescriptor(
        name="mean", m=1, d=1,
        g=lambda w: w,
        f=lambda u: float(u[0]),
    )


def product_lag_descriptor(h: int) -> StatisticDescriptor:
    """Average of X_t X_{t+h} over windows (no centering correction)."""
    return StatisticDescriptor(
        name=f"product-lag-{h}", m=h + 1, d=1,
        g=lambda w: w[:, 0] * w[:, h],
        f=lambda u: float(u[0]),
    )


def _second_moment_g(h: int) -> Callable[[np.ndarray], np.ndarray]:
    return lambda w: np.column_stack([w[:, 0] * w[:, h], w[:, 0], w[:, 0] ** 2])


def acvf_lag_descriptor(h: int) -> StatisticDescriptor:
    """Generalized-mean version of the lag-h autocovariance.

    Differs from the exact centered estimator by O(1/n): the running means of
    X_t and X_t X_{t+h} use n-h terms instead of n, and the mean correction is
    the square of a single running mean.
    """
    if h < 1:
        raise ValueError("acvf descriptor requires h >= 1")
    return StatisticDescriptor(
        name=f"acvf-lag-{h}", m=h + 1, d=3,
        g=_second_moment_g(h),
        f=lambda u: float(u[0] - u[1] ** 2),
    )


def acf_lag_descriptor(h: int) -> StatisticDescriptor:
    """Generalized-mean version of the lag-h autocorrelation."""
    if h < 1:
        raise ValueError("acf descriptor requires h >= 1")

    def f(u):
        denom = u[2] - u[1] ** 2
        if denom <= 0:
            raise DegenerateSeriesError("zero variance in acf descriptor")
        return float((u[0] - u[1] ** 2) / denom)

    return StatisticDescriptor(
        name=f"acf-lag-{h}", m=h + 1, d=3,
        g=_second_moment_g(h),
        f=f,
    )
