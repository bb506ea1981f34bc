"""Statistics shared by the bootstrap engine, the companion oracle and the
Monte Carlo truth runs.

Each statistic knows four things: how to evaluate itself on a path, given as
its row of ``transform(block)`` for a block of simulated paths, one per row,
checked finite by the caller; the exact centering value implied by a rational
filter X = [num(z) / den(z)] eps with innovation variance sigma2 -- the fitted
sieve, the companion process or the data-generating model; its scaling rate
c_n; and the closed-form asymptotic variances of its law under such a filter.
Frequency-domain centers are computed with the same Fourier-grid quadrature
as the statistic itself, so discretization cancels. The cosine statistics'
limit variances are those of the lag-h autocovariance and autocorrelation,
from the same ACVF expansion and the same functions.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .asymptotics import (
    acvf_asymptotic_variance,
    bartlett_variance,
    spectral_estimator_variance,
)
from .companion import rational_acvf
from .series import DegenerateSeriesError
from .spectral import (
    KernelSpec,
    fourier_quadrature,
    integrated_periodogram,
    kernel_spectral_estimate,
    periodogram,
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
    "bootstrap_verdict",
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


def bootstrap_verdict(statistic, targets: dict, kappa_e, checks_passed: bool) -> str:
    """UNEXPECTED if a check failed; otherwise PASS where the paper's theorem
    predicts the AR-sieve bootstrap valid and FAIL-AS-PREDICTED where it does not.

    The bootstrap is valid when the statistic's limit law depends only on
    second moments: for any process when the statistic says so (mean,
    specdens), and for a process linear in i.i.d. noise (kappa_e known) when
    each {prefix}_linear target equals its {prefix}_companion target, up to
    rounding. A statistic with no such pair passes.
    """
    if not checks_passed:
        return "UNEXPECTED"
    valid = statistic.second_order_limit or (kappa_e is not None and all(
        math.isclose(value, targets[tid.removesuffix("_linear") + "_companion"], rel_tol=1e-9)
        for tid, value in targets.items() if tid.endswith("_linear")))
    return "PASS" if valid else "FAIL-AS-PREDICTED"


def _target_acvf(num, den, sigma2, *target_ids):
    """``rational_acvf`` over every lag; its ValueError names the targets."""
    try:
        return rational_acvf(num, den, sigma2)
    except ValueError as exc:
        raise ValueError(f"{', '.join(target_ids)}: {exc}") from None


def _acvf_targets(prefix: str, h: int, num, den, sigma2, kappa_e, kappa_eps) -> dict:
    """{prefix}_linear and {prefix}_companion: the lag-h sample autocovariance's
    limit variance at the raw- and Wold-innovation excess kurtoses, where known."""
    ids = f"{prefix}_linear", f"{prefix}_companion"
    gamma = _target_acvf(num, den, sigma2, *ids)
    return {tid: acvf_asymptotic_variance(gamma, h, kappa)
            for tid, kappa in zip(ids, (kappa_e, kappa_eps)) if kappa is not None}


def _bartlett_target(target_id: str, scale: float, h: int, num, den, sigma2, kappa_e) -> dict:
    """{target_id}: scale times Bartlett's lag-h variance, for a process
    linear in i.i.d. noise (kappa_e known) only."""
    if kappa_e is None:
        return {}
    gamma = _target_acvf(num, den, sigma2, target_id)
    return {target_id: scale * bartlett_variance(gamma / gamma[0], h)}


def _centered(x: np.ndarray, maxlag: int) -> np.ndarray:
    """The path less its mean, with the arithmetic and the check of
    ``sample_acvf``, so that a lag-h product over it divided by n is
    ``sample_acvf(Series(x), h)[h]`` bit for bit."""
    if not 0 <= maxlag < x.size:
        raise ValueError(f"maxlag must satisfy 0 <= maxlag < n, got {maxlag} with n={x.size}")
    return x - np.add.reduce(x) / x.size


class Statistic:
    """Protocol base; subclasses set ``name`` and override the hooks.
    ``second_order_limit`` is true where the limit law depends only on the
    process's second moments, whatever the process. ``h`` is the lag the
    statistic reads. ``transform`` turns a block of paths, one per row, into
    the rows ``evaluate`` reads, one per path: the paths themselves, or the
    frequency-domain statistics' periodogram of each, from one FFT per
    block."""

    name: str = ""
    second_order_limit = False
    h = 0

    def check_n(self, n: int) -> None:
        """Raise ValueError unless n > h, the largest lag ``evaluate`` reads."""
        if self.h >= n:
            raise ValueError(f"{self.name} needs lag {self.h} < n, got n = {n}")

    def rate(self, n: int) -> float:
        return math.sqrt(n)

    def transform(self, block: np.ndarray) -> np.ndarray:
        """The rows ``evaluate`` reads, one per row of a finite block of paths."""
        return block

    def evaluate(self, x: np.ndarray) -> float:
        """The statistic of one path, given as its row of ``transform``."""
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
    second_order_limit = True

    def evaluate(self, x: np.ndarray) -> float:
        return float(np.add.reduce(x) / x.size)  # np.mean's arithmetic

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

    def evaluate(self, x: np.ndarray) -> float:
        x = _centered(x, self.h)
        return float(np.dot(x[: x.size - self.h], x[self.h:]) / x.size)

    def model_center(self, num, den, sigma2, n):
        return float(rational_acvf(num, den, sigma2, self.h)[self.h])

    def targets(self, num, den, sigma2, kappa_e, kappa_eps):
        return _acvf_targets("acvf_variance", self.h, num, den, sigma2, kappa_e, kappa_eps)


@dataclass
class AcfStatistic(Statistic):
    """Sample autocorrelation at a fixed lag."""

    h: int = 1

    def __post_init__(self):
        self.h = _lag(self.h, 1)
        self.name = f"acf-lag-{self.h}"

    def evaluate(self, x: np.ndarray) -> float:
        x = _centered(x, self.h)
        n = x.size
        gamma0 = np.dot(x, x) / n
        if gamma0 <= 0:
            raise DegenerateSeriesError("sample variance is zero; acf undefined")
        return float(np.dot(x[: n - self.h], x[self.h:]) / n / gamma0)

    def model_center(self, num, den, sigma2, n):
        gamma = rational_acvf(num, den, sigma2, self.h)
        return float(gamma[self.h] / gamma[0])

    def targets(self, num, den, sigma2, kappa_e, kappa_eps):
        return _bartlett_target("bartlett_variance", 1.0, self.h, num, den, sigma2, kappa_e)


@dataclass
class _CosineStatistic(Statistic):
    """A functional of I_n weighted by phi = 2cos(. h) on the Fourier grid
    2 pi j / n, where lags h and n - h give the same weight."""

    h: int = 1
    transform = staticmethod(periodogram)

    def __post_init__(self):
        self.name = f"{self.label}[2cos({self.h}l)]"

    def check_n(self, n: int) -> None:
        if 2 * self.h >= n:
            raise ValueError(f"{self.name} needs 2 * lag {self.h} < n, got n = {n}: lags h and "
                             "n - h give the same weight on the Fourier grid")


@dataclass
class IntegratedPeriodogramStatistic(_CosineStatistic):
    """M(I_n, phi) on the Fourier-frequency quadrature grid."""

    label = "intper"

    def evaluate(self, x: np.ndarray) -> float:
        return integrated_periodogram(x, self.h)

    def model_center(self, num, den, sigma2, n):
        fv = rational_spectral_density(num, den, sigma2, fourier_quadrature(n)[0])
        return float(np.dot(weighted_quadrature(self.h, n), fv))

    def targets(self, num, den, sigma2, kappa_e, kappa_eps):
        # M(I_n, 2cos(. h)) has the limit law of the lag-h sample autocovariance
        return _acvf_targets("intper_variance", self.h, num, den, sigma2, kappa_e, kappa_eps)


@dataclass
class RatioStatistic(_CosineStatistic):
    """R(I_n, phi) = M(I_n, phi) / M(I_n, 1)."""

    label = "ratio"

    def check_n(self, n: int) -> None:
        if self.h == 0:
            raise ValueError(f"{self.name} is the constant 2 at lag 0: its lag must be >= 1")
        super().check_n(n)

    def evaluate(self, x: np.ndarray) -> float:
        return ratio_statistic(x, self.h)

    def model_center(self, num, den, sigma2, n):
        freqs, w = fourier_quadrature(n)
        fv = rational_spectral_density(num, den, sigma2, freqs)
        return float(np.dot(weighted_quadrature(self.h, n), fv)) / float(np.dot(w, fv))

    def targets(self, num, den, sigma2, kappa_e, kappa_eps):
        # R(I_n, 2cos(. h)) is 2 rho_hat(h) up to O(1/n)
        return _bartlett_target("ratio_statistic_variance", 4.0, self.h, num, den, sigma2, kappa_e)


@dataclass
class SpectralDensityStatistic(Statistic):
    """Kernel spectral density estimate at a fixed frequency; rate sqrt(n h)."""

    second_order_limit = True
    lam: float = math.pi / 2
    kernel: KernelSpec = None
    transform = staticmethod(periodogram)

    def __post_init__(self):
        self.lam = _number(self.lam, "lambda")
        if not 0 <= self.lam <= math.pi:
            raise ValueError(f"lambda must lie in [0, pi], got {self.lam!r}")
        if self.kernel is None:
            self.kernel = KernelSpec()
        self.name = f"specdens[{self.lam:.4f},h={self.kernel.bandwidth}]"

    def rate(self, n: int) -> float:
        return math.sqrt(n * self.kernel.bandwidth)

    def evaluate(self, x: np.ndarray) -> float:
        return kernel_spectral_estimate(x, self.kernel, self.lam)

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
        stat = RatioStatistic(h=_lag(cfg.pop("lag", 1), 0))
    elif name == "intper-cos":
        stat = IntegratedPeriodogramStatistic(h=_lag(cfg.pop("lag", 1), 0))
    elif name == "specdens":
        lam = cfg.pop("lambda", math.pi / 2)
        bandwidth = _number(cfg.pop("bandwidth", 0.3), "bandwidth")
        stat = SpectralDensityStatistic(lam=lam, kernel=KernelSpec(bandwidth=bandwidth))
    else:
        raise ValueError(f"unknown statistic {name!r}")
    if cfg:
        raise ValueError(f"unknown statistic keys: {sorted(cfg)}")
    return stat
