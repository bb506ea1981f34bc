"""The AR-sieve bootstrap engine.

Fit a Yule-Walker autoregression of slowly growing order, resample the
centered residuals i.i.d., regenerate series from the fitted recursion, and
collect the law of the scaled, model-centered statistic. The fitted sieve is
its own bootstrap process: a ``SieveModel`` is the ``CompanionSpec`` of the
fitted filter 1 / (1 - sum a_k z^k) driven by a ``ResampledRecord`` of the
residuals.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import dgp
from .ar import levinson_durbin, residuals
from .companion import CompanionSpec, build_companion
from .series import EmpiricalLaw, sample_acvf

__all__ = [
    "OrderRule",
    "SieveModel",
    "BootstrapResult",
    "order_cap",
    "fit_sieve",
    "generate_bootstrap_series",
    "bootstrap_distribution",
]


@dataclass(frozen=True)
class OrderRule:
    """Order selection: a fixed order or AIC, both capped at (n/ln n)^(1/4)."""

    mode: str = "aic_capped"
    fixed_p: Optional[int] = None

    def __post_init__(self):
        if self.mode not in ("fixed", "aic_capped"):
            raise ValueError(f"unknown order rule mode {self.mode!r}")
        p = self.fixed_p
        if self.mode == "fixed" and (isinstance(p, bool) or not isinstance(p, int) or p < 1):
            raise ValueError(f"fixed mode requires an integer fixed_p >= 1, got {p!r}")
        if self.mode != "fixed" and p is not None:
            raise ValueError(f"fixed_p is read only in mode 'fixed', got it in mode {self.mode!r}")


def order_cap(n: int) -> int:
    """Largest admissible sieve order: floor((n / ln n)^(1/4)), at least 1."""
    cap = int(math.floor((n / math.log(n)) ** 0.25))
    return max(1, min(cap, n // 2 - 1))


class SieveModel(CompanionSpec):
    """The fitted sieve: the Yule-Walker AR(p) filter 1 / (1 - sum a_k z^k),
    den = (1, -a_1, .., -a_p), driven by i.i.d. draws from the sorted record
    of its centered residuals."""

    @property
    def p(self) -> int:
        return self.den.size - 1

    def simulate(self, n: int, seeds) -> np.ndarray:
        return generate_bootstrap_series(self, n, seeds)


def fit_sieve(x: np.ndarray, rule: OrderRule) -> SieveModel:
    """Steps 1-2 on the path x: one sample ACVF and one Levinson-Durbin run
    up to the order cap, or to the fixed order clamped to it, give the
    prediction variances from which AIC picks p; the order-p Yule-Walker
    coefficients a give the filter, and the centered residuals of a its
    noise."""
    n = x.size
    if n < 20:
        raise ValueError("order selection requires n >= 20")
    fixed = rule.mode == "fixed"
    top = min(rule.fixed_p, order_cap(n)) if fixed else order_cap(n)
    gamma = sample_acvf(x, top)
    _, sigma2s = levinson_durbin(gamma, top)
    orders = np.arange(1, top + 1)
    p = top if fixed else int(orders[np.argmin(n * np.log(sigma2s[1:]) + 2.0 * orders)])
    a, _ = levinson_durbin(gamma, p)
    return SieveModel([1.0], np.concatenate([[1.0], -a]),
                      dgp.ResampledRecord(np.sort(residuals(x, a))))


def generate_bootstrap_series(m: SieveModel, n: int, seeds) -> np.ndarray:
    """Bootstrap paths: i.i.d. residual draws drive the fitted recursion. A
    (len(seeds), n) array whose row j is the path of seeds[j], as in
    :func:`build_companion`."""
    return build_companion(m, n, seeds)


@dataclass(frozen=True)
class BootstrapResult:
    """The bootstrap law of c_n (T*_n - theta*)."""

    law: EmpiricalLaw
    theta_star: float
    p_used: int


def bootstrap_distribution(x: np.ndarray, statistic, B: int, rule: OrderRule,
                           seed: dgp.SeedLike) -> BootstrapResult:
    """Step 3: the AR-sieve bootstrap law of the scaled statistic, from the
    data path x.

    theta* is the exact model quantity of the bootstrap process: the filter
    1 / (1 - sum a_k z^k) of the fitted coefficients, driven by the residual
    law.
    """
    if B < 100:
        raise ValueError("B must be at least 100")
    model = fit_sieve(x, rule)
    law, theta = dgp.replicate(model, statistic, x.size, B, seed, dgp.KEY_BOOT)
    return BootstrapResult(law=law, theta_star=theta, p_used=model.p)
