"""The AR-sieve bootstrap engine.

Fit a Yule-Walker autoregression whose order AIC picks under the cap
(n / ln n)^(1/4), which grows slowly with n; resample the centered residuals
i.i.d., regenerate series from the fitted recursion, and collect the law of
the scaled, model-centered statistic. The fitted sieve is its own bootstrap
process: a ``SieveModel`` is the ``dgp.CompanionSpec`` of the fitted filter
1 / (1 - sum a_k z^k) driven by a ``ResampledRecord`` of the residuals.

Conventions: an AR model of order p, X_t = sum_k a_k X_{t-k} + e_t, is causal
when A_p(z) = 1 - sum_k a_k z^k has all its roots outside the closed unit
disk. ``levinson_durbin`` and ``residuals`` take the a_k; every function of
``dgp`` takes a polynomial 1 + c_1 z + ... + c_p z^p as the array
(1, c_1, .., c_p) a filter holds.
"""
from __future__ import annotations

import math

import numpy as np

from . import dgp
from .series import DegenerateSeriesError, sample_acvf

__all__ = [
    "ConditioningError",
    "SieveModel",
    "levinson_durbin",
    "residuals",
    "order_cap",
    "fit_sieve",
    "generate_bootstrap_series",
    "bootstrap_distribution",
]


class ConditioningError(ArithmeticError):
    """Raised when the Yule-Walker system is numerically singular."""


def levinson_durbin(gamma: np.ndarray, p: int):
    """Levinson-Durbin recursion on gamma(0..p).

    Returns (a, sigma2s) where ``a`` are the order-p coefficients and
    ``sigma2s[k]`` is the prediction variance of the order-k fit, k = 0..p.
    Aborts when a prediction-variance iterate drops below 1e-12 * gamma(0).
    """
    gamma = np.asarray(gamma, dtype=float)
    if gamma.size < p + 1:
        raise ValueError("need gamma(0..p) to fit order p")
    if gamma[0] <= 0:
        raise DegenerateSeriesError("gamma(0) must be positive")
    floor = 1e-12 * gamma[0]
    sigma2s = np.empty(p + 1)
    sigma2s[0] = gamma[0]
    a = np.zeros(0)
    for k in range(1, p + 1):
        acc = gamma[k] - np.dot(a, gamma[k - 1 : 0 : -1])
        phi = acc / sigma2s[k - 1]
        a = np.concatenate([a - phi * a[::-1], [phi]])
        sigma2s[k] = sigma2s[k - 1] * (1.0 - phi * phi)
        if sigma2s[k] < floor:
            raise ConditioningError(
                f"prediction variance collapsed at order {k}: {sigma2s[k]:.3e}"
            )
    return a, sigma2s


def residuals(x: np.ndarray, a) -> np.ndarray:
    """Centered residuals X_t - sum_j a_j X_{t-j}, t > p, of the AR
    coefficients a = (a_1..a_p) on the path x.

    The output has mean zero to machine precision (the mean is removed twice
    to absorb rounding of the first pass).
    """
    a = np.asarray(a, dtype=float)
    n, p = x.size, a.size
    if not 0 < p < n:
        raise ValueError(f"fit order p must satisfy 0 < p < n, got p = {p} with n = {n}")
    res = x[p:] - np.correlate(x, a[::-1], mode="valid")[:-1]
    res = res - res.mean()
    res -= res.mean()
    return res


def order_cap(n: int) -> int:
    """Largest admissible sieve order: floor((n / ln n)^(1/4)), at least 1 for
    n >= 2, where n / ln n >= e."""
    return int(math.floor((n / math.log(n)) ** 0.25))


class SieveModel(dgp.CompanionSpec):
    """The fitted sieve: the Yule-Walker AR(p) filter 1 / (1 - sum a_k z^k),
    den = (1, -a_1, .., -a_p), driven by i.i.d. draws from the sorted record
    of its centered residuals."""

    @property
    def p(self) -> int:
        return self.den.size - 1

    def simulate(self, n: int, seeds) -> np.ndarray:
        return generate_bootstrap_series(self, n, seeds)


def fit_sieve(x: np.ndarray) -> SieveModel:
    """Steps 1-2 on the path x: one sample ACVF and one Levinson-Durbin run
    up to the order cap give the prediction variances from which AIC picks
    p; the order-p Yule-Walker coefficients a give the filter, and the
    centered residuals of a its noise."""
    n = x.size
    if n < 20:
        raise ValueError("order selection requires n >= 20")
    top = order_cap(n)
    with np.errstate(over="ignore", invalid="ignore"):
        gamma = sample_acvf(x, top)
    if not np.isfinite(gamma).all():
        raise ValueError("the sample autocovariances of the data path overflow float64")
    _, sigma2s = levinson_durbin(gamma, top)
    orders = np.arange(1, top + 1)
    p = int(orders[np.argmin(n * np.log(sigma2s[1:]) + 2.0 * orders)])
    a, _ = levinson_durbin(gamma, p)
    return SieveModel([1.0], np.concatenate([[1.0], -a]),
                      dgp.ResampledRecord(np.sort(residuals(x, a))))


def generate_bootstrap_series(m: SieveModel, n: int, seeds) -> np.ndarray:
    """Bootstrap paths: i.i.d. residual draws drive the fitted recursion. A
    (len(seeds), n) array whose row j is the path of seeds[j], as in
    :func:`dgp.build_companion`."""
    return dgp.build_companion(m, n, seeds)


def bootstrap_distribution(sieve: SieveModel, statistic, n: int, B: int,
                           seed: dgp.SeedLike):
    """(law, theta*): step 3, the AR-sieve bootstrap law of c_n (T* - theta*)
    over B paths of the fitted sieve, ``dgp.replicate`` under the bootstrap
    key.

    theta* is the exact model quantity of the bootstrap process: the filter
    1 / (1 - sum a_k z^k) of the fitted coefficients, driven by the residual
    law.
    """
    return dgp.replicate(sieve, statistic, n, B, seed, dgp.KEY_BOOT)
