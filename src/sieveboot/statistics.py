"""Statistics shared by the bootstrap engine, the companion oracle and the
Monte Carlo truth runs: how each is centred, its limit variances, whether
the AR-sieve bootstrap is valid for it, and the frequency domain it reads.

Each statistic knows four things: how to evaluate itself on a path, given as
its row of ``transform(block)`` for a block of simulated paths, one per row,
checked finite by the caller; the exact centering value implied by a rational
filter X = [num(z) / den(z)] eps with innovation variance sigma2 -- the fitted
sieve, the companion process or the data-generating model; its scaling rate
c_n; and the closed-form asymptotic variances of its law under such a filter.
Every statistic but the mean and the kernel estimate is sum_j c_j
gamma_hat(j) to first order: it declares its weights c_j and target ids, and
the base class takes each target from ``linear_limit_variance``, Bartlett's
covariance under a process linear in i.i.d. noise, where the noise excess
kurtosis kappa enters only as kappa (sum_j c_j gamma(j))^2. The bootstrap
swaps the raw innovations' kappa for the Wold innovations', so it is valid
exactly when that sum is 0: for the autocorrelation's weights
{h: 1, 0: -rho(h)}, not for the autocovariance's {h: 1}. The kernel
estimate's variance needs only f(lambda) and whether lambda is 0 or pi. A
config names a statistic in ``_STATISTICS``, whose keys map to constructor
fields: a key it leaves out takes the class's own default.

Quadrature convention: all integrals over [0, pi] are Riemann sums on the
Fourier frequencies 2*pi*j/n, j = 1..floor(n/2), with spacing 2*pi/n and the
endpoint pi (present for even n) weighted by one half. The half weight is what
makes M(I_n, 2cos(.h)) track the non-centered sample autocovariance even when
spectral mass concentrates at pi.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dgp import _number, _settle_lag, check_roots_outside_disk, impulse_response
from .series import DegenerateSeriesError, _centered

__all__ = [
    "Statistic",
    "MeanStatistic",
    "AcvfStatistic",
    "AcfStatistic",
    "IntegratedPeriodogramStatistic",
    "RatioStatistic",
    "SpectralDensityStatistic",
    "bootstrap_verdict",
    "fourier_quadrature",
    "linear_limit_variance",
    "periodogram",
    "rational_acvf",
    "rational_spectral_density",
    "statistic_from_config",
    "weighted_quadrature",
]


def _lag(h, floor: int) -> int:
    """h as a lag, rejected unless it is an integer (not a bool) >= floor."""
    if isinstance(h, bool) or not isinstance(h, numbers.Integral) or h < floor:
        raise ValueError(f"lag must be an integer >= {floor}, got {h!r}")
    return int(h)


def bootstrap_verdict(targets: dict, checks_passed: bool) -> str:
    """UNEXPECTED if a check failed; otherwise PASS where the paper's theorem
    predicts the AR-sieve bootstrap valid and FAIL-AS-PREDICTED where it does not.

    The bootstrap is valid when the statistic's limit law under the process
    is its limit law under the companion, which the targets state: there is
    at least one, and each {prefix}_companion target has a {prefix}_linear
    target equal to it, up to rounding. A target with neither suffix holds
    for both processes.
    """
    if not checks_passed:
        return "UNEXPECTED"
    valid = bool(targets) and all(
        math.isclose(value, targets.get(tid.removesuffix("_companion") + "_linear", math.nan),
                     rel_tol=1e-9)
        for tid, value in targets.items() if tid.endswith("_companion"))
    return "PASS" if valid else "FAIL-AS-PREDICTED"


def rational_acvf(num, den, sigma2: float, lags=None) -> np.ndarray:
    """Autocovariances gamma(h) = sigma2 sum_j psi_j psi_{j+h} of the process
    [num(z) / den(z)] eps, for each h in ``lags``: one lagged dot product per
    lag asked for. psi is num itself when den = 1, else the filter's impulse
    response carried max(lags) + t terms past num, t the first lag with
    rho^t < 1e-12 for rho the root radius of den, capped at 10^4. With lags
    None gamma runs over every lag of psi, from one ``np.correlate`` of psi
    with itself, and t past the cap raises ValueError.
    """
    num = np.atleast_1d(np.asarray(num, dtype=float))
    den = np.atleast_1d(np.asarray(den, dtype=float))
    rho = check_roots_outside_disk(den, "companion denominator")
    settle = _settle_lag(rho, 1e-12)
    psi = num if den.size == 1 else impulse_response(
        num, den, num.size + max(lags or [0]) + min(settle, 10 ** 4))
    if lags is None:
        if settle > 10 ** 4:  # rho at or above 1e-12^(1 / 10^4), about 0.9972407
            raise ValueError(f"the impulse response of 1 / den(z) takes {settle} lags to fall "
                             f"below 1e-12, past the cap of 10^4: a root of den lies too near "
                             f"the unit circle, root radius {rho:.12g}")
        return sigma2 * np.correlate(psi, psi, "full")[psi.size - 1:]
    return np.array([sigma2 * np.dot(psi[: psi.size - h], psi[h:]) if h < psi.size else 0.0
                     for h in lags])


# Arrays that depend on the path length alone are cached per key and read-only,
# so paths of one length pay one FFT per block and one or two dots per path.
_CACHE_SIZE = 16  # keys kept per cache; an entry holds O(n) values


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


KERNEL_L2_NORM_SQ = 3.0 / (5.0 * np.pi)  # int K^2 of ``epanechnikov``


def epanechnikov(u) -> np.ndarray:
    """The package's one smoothing kernel, Epanechnikov's rescaled to [-pi, pi]
    with unit mass: K(u) = (3 / 4 pi) (1 - (u/pi)^2) there, zero outside."""
    u = np.asarray(u, dtype=float)
    return np.where(np.abs(u) <= np.pi, 3.0 / (4.0 * np.pi) * (1.0 - (u / np.pi) ** 2), 0.0)


def periodogram(x: np.ndarray) -> np.ndarray:
    """I_n(2 pi j / n) = (2 pi n)^-1 |sum_t X_t e^{-i 2 pi j t / n}|^2 for
    j = 0..n-1 along the last axis of x, n its length: a new C-contiguous
    array of the shape of x.

    One ``rfft`` of the whole array gives the ordinates j = 0..n//2, and the
    even symmetry I(-l) = I(l) the rest, so row k of the result is the
    periodogram of row k of x bit for bit, whatever the other rows. The
    ordinates j = 1..n//2, the quadrature grid, are the slice [1 : n//2 + 1].
    """
    n = x.shape[-1]
    if n < 2:
        raise ValueError("periodogram requires n >= 2")
    ordinates = np.abs(np.fft.rfft(x, axis=-1))
    ordinates *= ordinates
    ordinates /= 2.0 * np.pi * n
    # take, not fancy indexing: o[:, fold] of a 2-d array comes back
    # F-ordered, and np.dot over its strided rows rounds differently
    return np.take(ordinates, _even_fold(n), axis=-1)


@lru_cache(maxsize=_CACHE_SIZE)
def fourier_quadrature(n: int):
    """(frequencies in (0, pi], weights) for the package's quadrature rule;
    both arrays are shared between callers and read-only."""
    m = n // 2
    freqs = 2.0 * np.pi * np.arange(1, m + 1) / n
    w = np.full(m, 2.0 * np.pi / n)
    if n % 2 == 0:
        w[-1] *= 0.5
    return _read_only(freqs), _read_only(w)


@lru_cache(maxsize=_CACHE_SIZE)
def weighted_quadrature(h: int, n: int) -> np.ndarray:
    """Quadrature weights times phi = 2cos(. h) on the grid of
    :func:`fourier_quadrature` (read-only): M(g, phi) is its dot product with
    g on that grid."""
    freqs, w = fourier_quadrature(n)
    return _read_only(w * (2.0 * np.cos(freqs * h)))


@lru_cache(maxsize=_CACHE_SIZE)
def _even_fold(n: int) -> np.ndarray:
    """Index of I_n(2 pi j / n) among the ordinates j = 0..n//2, for j = 0..n-1,
    by the even symmetry I(-l) = I(l) (read-only)."""
    j = np.arange(n)
    return _read_only(np.minimum(j, n - j))


@lru_cache(maxsize=_CACHE_SIZE)
def _kernel_weights(bandwidth: float, lam: float, n: int) -> np.ndarray:
    """K_h(lambda - mu_j) = K((lambda - mu_j) / h) / h at all n Fourier
    frequencies mu_j, h the bandwidth and the difference wrapped to (-pi, pi]
    (read-only); inf where a weight overflows float64."""
    mu = 2.0 * np.pi * np.arange(n) / n
    d = np.angle(np.exp(1j * (lam - mu)))
    with np.errstate(over="ignore"):
        return _read_only(epanechnikov(d / bandwidth) / bandwidth)


def _transfer(c: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """c(e^{-i lambda}) = c_0 + sum_j c_j e^{-i j lambda}."""
    j = np.arange(1, c.size)
    return c[0] + np.exp(-1j * np.outer(lam, j)) @ c[1:]


def rational_spectral_density(num, den, sigma2: float, lam) -> np.ndarray | float:
    """f(lambda) = (sigma2 / 2 pi) |num(e^{-i lambda})|^2 / |den(e^{-i lambda})|^2,
    the spectral density of the process [num(z) / den(z)] eps."""
    scalar = np.isscalar(lam) or np.ndim(lam) == 0
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    num = np.atleast_1d(np.asarray(num, dtype=float))
    den = np.atleast_1d(np.asarray(den, dtype=float))
    out = sigma2 / (2.0 * np.pi) * np.abs(_transfer(num, lam)) ** 2 / np.abs(_transfer(den, lam)) ** 2
    return float(out[0]) if scalar else out


def _lagged_dots(seq, *shifts):
    """sum_k s(k) s(k + shift) for each shift, s being seq extended by
    s(-k) = s(k) and by zero past its last lag."""
    seq = np.asarray(seq, dtype=float)
    s = np.concatenate([seq[:0:-1], seq])
    return [float(np.dot(s[: s.size - abs(d)], s[abs(d):])) if abs(d) < s.size else 0.0
            for d in shifts]


def _at(seq, h: int) -> float:
    """seq(|h|), zero past the last stored lag."""
    return float(seq[abs(h)]) if abs(h) < len(seq) else 0.0


def linear_limit_variance(gamma, weights: dict, kappa: float) -> float:
    """Limit of n Var(sum_j c_j gamma_hat(j)), weights = {j: c_j}, for a
    process linear in i.i.d. noise of excess kurtosis kappa: kappa (sum_j c_j
    gamma(j))^2 + sum_{j,l} c_j c_l sum_k (gamma(k) gamma(k+l-j) + gamma(k+l)
    gamma(k-j)), gamma extended by gamma(-k) = gamma(k) and by zero past its
    last lag. The products c_j c_l are summed by shift |l - j| and |l + j|
    before the lagged dots, one per shift."""
    shifts = {}
    for j, cj in weights.items():
        for l, cl in weights.items():
            for d in (abs(l - j), abs(l + j)):
                shifts[d] = shifts.get(d, 0.0) + cj * cl
    total = kappa * sum(c * _at(gamma, j) for j, c in weights.items()) ** 2
    lags = sorted(shifts)
    for d, dot in zip(lags, _lagged_dots(gamma, *lags)):
        total += shifts[d] * dot
    return float(total)


def _correlation_weights(gamma, h: int, scale: float):
    """scale rho_hat(h) to first order: {h: scale, 0: -scale rho(h)} on rho = gamma / gamma(0)."""
    rho = gamma / gamma[0]
    weights = {h: scale}
    weights[0] = weights.get(0, 0.0) - scale * _at(rho, h)
    return rho, weights


class Statistic:
    """Protocol base; subclasses set ``name`` and override the hooks. ``h``
    is the lag the statistic reads. ``transform`` turns a block of paths, one
    per row, into the rows ``evaluate`` reads, one per path: the paths
    themselves, or the frequency-domain statistics' periodogram of each, from
    one FFT per block."""

    name: str = ""
    h = 0
    target_ids = ()

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
        the raw- and Wold-innovation excess kurtoses, None where unknown, and
        pair with ``target_ids`` in order. Each known pair's target is
        ``linear_limit_variance`` of ``self.weights(gamma)``, the sequence
        (gamma or a multiple) and the {j: c_j} with the statistic
        sum_j c_j seq_hat(j) to first order."""
        known = {tid: kappa for tid, kappa in zip(self.target_ids, (kappa_e, kappa_eps))
                 if kappa is not None}
        if not known:
            return {}
        try:
            gamma = rational_acvf(num, den, sigma2)
        except ValueError as exc:
            raise ValueError(f"{', '.join(known)}: {exc}") from None
        seq, weights = self.weights(gamma)
        return {tid: linear_limit_variance(seq, weights, kappa) for tid, kappa in known.items()}


@dataclass
class MeanStatistic(Statistic):
    name = "mean"

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
    target_ids = ("acvf_variance_linear", "acvf_variance_companion")

    def __post_init__(self):
        self.h = _lag(self.h, 0)
        self.name = f"acvf-lag-{self.h}"

    def evaluate(self, x: np.ndarray) -> float:
        x = _centered(x, self.h)
        return float(np.dot(x[: x.size - self.h], x[self.h:]) / x.size)

    def model_center(self, num, den, sigma2, n):
        return float(rational_acvf(num, den, sigma2, [self.h])[0])

    def weights(self, gamma):
        return gamma, {self.h: 1.0}


@dataclass
class AcfStatistic(Statistic):
    """Sample autocorrelation at a fixed lag."""

    h: int = 1
    target_ids = ("bartlett_variance",)  # linear processes only: kappa_e

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
        gamma0, gamma_h = rational_acvf(num, den, sigma2, [0, self.h])
        return float(gamma_h / gamma0)

    def weights(self, gamma):
        return _correlation_weights(gamma, self.h, 1.0)


@dataclass
class _CosineStatistic(Statistic):
    """A functional of I_n weighted by phi = 2cos(. h) on the Fourier grid
    2 pi j / n, where lags h and n - h give the same weight. A subclass gives
    it as ``_functional(values, n)`` of a spectrum at the frequencies of
    ``fourier_quadrature(n)``: ``evaluate`` applies it to a path's
    periodogram there, ``model_center`` to the model's spectral density, so
    discretization cancels and a center cannot drift from its estimator."""

    h: int = 1
    transform = staticmethod(periodogram)

    def __post_init__(self):
        self.h = _lag(self.h, 0)
        self.name = f"{self.label}[2cos({self.h}l)]"

    def check_n(self, n: int) -> None:
        if 2 * self.h >= n:
            raise ValueError(f"{self.name} needs 2 * lag {self.h} < n, got n = {n}: lags h and "
                             "n - h give the same weight on the Fourier grid")

    def evaluate(self, x: np.ndarray) -> float:
        n = x.size
        return self._functional(x[1: n // 2 + 1], n)

    def model_center(self, num, den, sigma2, n):
        freqs = fourier_quadrature(n)[0]
        return self._functional(rational_spectral_density(num, den, sigma2, freqs), n)


@dataclass
class IntegratedPeriodogramStatistic(_CosineStatistic):
    """M(I_n, phi) = int_0^pi phi I_n on the Fourier-frequency quadrature grid."""

    label = "intper"
    target_ids = ("intper_variance_linear", "intper_variance_companion")

    def _functional(self, values, n):
        return float(np.dot(weighted_quadrature(self.h, n), values))

    def weights(self, gamma):
        # M(I_n, 2cos(. h)) has the limit law of the lag-h sample autocovariance
        return gamma, {self.h: 1.0}


@dataclass
class RatioStatistic(_CosineStatistic):
    """R(I_n, phi) = M(I_n, phi) / M(I_n, 1)."""

    label = "ratio"
    target_ids = ("ratio_statistic_variance",)  # linear processes only: kappa_e

    def check_n(self, n: int) -> None:
        if self.h == 0:
            raise ValueError(f"{self.name} is the constant 2 at lag 0: its lag must be >= 1")
        super().check_n(n)

    def _functional(self, values, n):
        denom = float(np.dot(fourier_quadrature(n)[1], values))
        if denom <= 0:
            raise DegenerateSeriesError("total periodogram mass is zero")
        return float(np.dot(weighted_quadrature(self.h, n), values)) / denom

    def weights(self, gamma):
        # R(I_n, 2cos(. h)) is 2 rho_hat(h) up to O(1/n)
        return _correlation_weights(gamma, self.h, 2.0)


@dataclass
class SpectralDensityStatistic(Statistic):
    """Kernel spectral density estimate int K_h(lambda - mu) I_n(mu) dmu over I_n extended
    evenly across 0 and pi, where mass folds back to double the variance; rate sqrt(n h).
    K is ``epanechnikov`` and h the bandwidth, in (0, pi]."""

    lam: float = math.pi / 2
    bandwidth: float = 0.3
    transform = staticmethod(periodogram)

    def __post_init__(self):
        self.lam = _number(self.lam, "lambda")
        if not 0 <= self.lam <= math.pi:
            raise ValueError(f"lambda must lie in [0, pi], got {self.lam!r}")
        self.bandwidth = _number(self.bandwidth, "bandwidth")
        if not 0 < self.bandwidth <= math.pi:
            raise ValueError(f"bandwidth must lie in (0, pi], got {self.bandwidth!r}")
        self.name = f"specdens[{self.lam:.4f},h={self.bandwidth}]"

    def check_n(self, n: int) -> None:
        """Raise ValueError unless the kernel weights ``evaluate`` reads at n
        are finite and not all zero."""
        weights = _kernel_weights(self.bandwidth, self.lam, n)
        if not np.isfinite(weights).all():
            raise ValueError(f"{self.name}: its kernel weights overflow float64, "
                             "the bandwidth is too small")
        if not weights.any():
            raise ValueError(f"{self.name} needs a Fourier frequency 2 pi j / n within "
                             f"pi * bandwidth of lambda, got none at n = {n}")

    def rate(self, n: int) -> float:
        return math.sqrt(n * self.bandwidth)

    def evaluate(self, x: np.ndarray) -> float:
        n = x.size
        return float(np.dot(_kernel_weights(self.bandwidth, self.lam, n), x) * (2.0 * np.pi / n))

    def model_center(self, num, den, sigma2, n):
        return rational_spectral_density(num, den, sigma2, self.lam)

    def targets(self, num, den, sigma2, kappa_e, kappa_eps):
        f = float(rational_spectral_density(num, den, sigma2, self.lam))
        # n h Var -> 2 pi f^2 int K^2 as h -> 0: K_h integrates I_n over the
        # full circle, so the variance doubles at 0 and pi
        factor = 2.0 if self.lam < 1e-9 or abs(self.lam - math.pi) < 1e-9 else 1.0
        return {"specdens_nh_variance": float(factor * 2.0 * np.pi * f ** 2 * KERNEL_L2_NORM_SQ),
                "spectral_density_value": f}


_STATISTICS = {  # config name: (class, {config key: constructor field})
    "mean": (MeanStatistic, {}),
    "acvf": (AcvfStatistic, {"lag": "h"}),
    "acf": (AcfStatistic, {"lag": "h"}),
    "ratio-cos": (RatioStatistic, {"lag": "h"}),
    "intper-cos": (IntegratedPeriodogramStatistic, {"lag": "h"}),
    "specdens": (SpectralDensityStatistic, {"lambda": "lam", "bandwidth": "bandwidth"}),
}


def statistic_from_config(cfg) -> Statistic:
    """Build a statistic from a config mapping {name, lag?, lambda?, bandwidth?}.

    Raises ValueError, naming the field, on an unknown name or key, or on a
    lag, lambda or bandwidth its class rejects, NaN included.
    """
    if not isinstance(cfg, dict):
        raise ValueError(f"statistic must be an object, got {cfg!r}")
    cfg = dict(cfg)
    name = cfg.pop("name", None)
    if not isinstance(name, str) or name not in _STATISTICS:
        raise ValueError(f"unknown statistic {name!r}")
    cls, fields = _STATISTICS[name]
    stat = cls(**{field: cfg.pop(key) for key, field in fields.items() if key in cfg})
    if cfg:
        raise ValueError(f"unknown statistic keys: {sorted(cfg)}")
    return stat
