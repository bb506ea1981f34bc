"""The AR-sieve bootstrap engine.

Fit a Yule-Walker autoregression of slowly growing order, resample the
centered residuals i.i.d., regenerate series from the fitted recursion, and
collect the law of the scaled, model-centered statistic. The bootstrap
process is the residual-resampling companion process of the fitted filter
1 / (1 - sum a_k z^k).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from . import dgp
from .ar import ARFit, residuals, yule_walker_fit
from .companion import CompanionSpec, build_companion, resampling_companion_spec
from .series import DegenerateSeriesError, EmpiricalLaw, Series, ecdf, sample_acvf
from .statistics import statistic_from_config

__all__ = [
    "OrderRule",
    "SieveModel",
    "BootstrapResult",
    "order_cap",
    "select_order",
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
        if self.mode == "fixed" and (not isinstance(self.fixed_p, int) or self.fixed_p < 1):
            raise ValueError("fixed mode requires an integer fixed_p >= 1")


def order_cap(n: int) -> int:
    """Largest admissible sieve order: floor((n / ln n)^(1/4)), at least 1."""
    cap = int(math.floor((n / math.log(n)) ** 0.25))
    return max(1, min(cap, n // 2 - 1))


def select_order(s: Series, rule: OrderRule) -> int:
    """Choose the autoregressive order for the sieve."""
    n = s.n
    if n < 20:
        raise ValueError("order selection requires n >= 20")
    p_max = order_cap(n)
    if rule.mode == "fixed":
        return min(max(rule.fixed_p, 1), p_max)
    acvf = sample_acvf(s, p_max, centered=True)
    if acvf.gamma[0] <= 0:
        raise DegenerateSeriesError("constant series")
    from .ar import levinson_durbin

    _, sigma2s = levinson_durbin(acvf.gamma, p_max)
    orders = np.arange(1, p_max + 1)
    aic = n * np.log(sigma2s[1:]) + 2.0 * orders
    return int(orders[np.argmin(aic)])


@dataclass(frozen=True)
class SieveModel:
    """Fitted sieve: Yule-Walker AR(p) plus the empirical residual law."""

    fit: ARFit
    residual_law: EmpiricalLaw
    n: int
    p: int

    @property
    def residual_variance(self) -> float:
        """Second moment of the (exactly centered) residual law, the
        innovation variance of the bootstrap process."""
        return float(np.mean(self.residual_law.sample ** 2))

    @cached_property
    def bootstrap_process(self) -> CompanionSpec:
        """The fitted filter 1 / (1 - sum a_k z^k) driven by i.i.d. draws
        from the residual law."""
        return resampling_companion_spec([1.0], np.concatenate([[1.0], -self.fit.a]),
                                         self.residual_law.sample)

    @property
    def filter(self):
        return self.bootstrap_process.filter

    def simulate(self, n: int, seed: dgp.SeedLike) -> Series:
        return generate_bootstrap_series(self, n, seed)


def fit_sieve(s: Series, rule: OrderRule) -> SieveModel:
    """Steps 1-2: Yule-Walker fit of selected order plus centered residuals."""
    p = select_order(s, rule)
    if s.n <= p + 10:
        raise ValueError("series too short for the selected order")
    acvf = sample_acvf(s, p, centered=True)
    if acvf.gamma[0] <= 0:
        raise DegenerateSeriesError("constant series")
    fit = yule_walker_fit(acvf, p)
    res = residuals(s, fit)
    return SieveModel(fit=fit, residual_law=ecdf(res), n=s.n, p=p)


def generate_bootstrap_series(m: SieveModel, n: int, seed: dgp.SeedLike) -> Series:
    """One bootstrap path: i.i.d. residual draws drive the fitted recursion."""
    return build_companion(m.bootstrap_process, n, seed)


@dataclass(frozen=True)
class BootstrapResult:
    """The bootstrap law of c_n (T*_n - theta*)."""

    law: EmpiricalLaw
    theta_star: float
    B: int
    statistic: str
    p_used: int


def bootstrap_distribution(s: Series, d, B: int, rule: OrderRule,
                           seed: dgp.SeedLike) -> BootstrapResult:
    """Step 3: the AR-sieve bootstrap law of the scaled statistic.

    theta* is the exact model quantity of the bootstrap process: the filter
    1 / (1 - sum a_k z^k) of the fitted coefficients, driven by the residual
    law.
    """
    if B < 100:
        raise ValueError("B must be at least 100")
    statistic = statistic_from_config(d)
    model = fit_sieve(s, rule)
    law, theta = dgp.replicate(model, statistic, s.n, B, seed, dgp.KEY_BOOT)
    return BootstrapResult(law=law, theta_star=theta, B=B, statistic=statistic.name,
                           p_used=model.p)
