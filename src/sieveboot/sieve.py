"""The AR-sieve bootstrap engine.

Fit a Yule-Walker autoregression whose order AIC picks under the cap
(n / ln n)^(1/4), which grows slowly with n; resample the centered residuals
i.i.d., regenerate series from the fitted recursion, and collect the law of
the scaled, model-centered statistic. The fitted sieve is its own bootstrap
process: a ``SieveModel`` is the ``dgp.CompanionSpec`` of the fitted filter
1 / (1 - sum a_k z^k) driven by a ``ResampledRecord`` of the residuals.
"""
from __future__ import annotations

import math

import numpy as np

from . import dgp
from .ar import levinson_durbin, residuals
from .series import sample_acvf

__all__ = [
    "SieveModel",
    "order_cap",
    "fit_sieve",
    "generate_bootstrap_series",
    "bootstrap_distribution",
]


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
    gamma = sample_acvf(x, top)
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
