"""The AR-sieve bootstrap engine.

Fit a Yule-Walker autoregression of slowly growing order, resample the
centered residuals i.i.d., regenerate series from the fitted recursion, and
collect the law of the scaled, model-centered statistic.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.signal import lfilter

from . import dgp
from .ar import ARFit, residuals, yule_walker_fit
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

# Spawn-key namespaces for derived seeds (shared convention with the oracle
# and truth engines): 0 bootstrap replications, 1 oracle, 2 truth, 9 the
# observed data realization.
KEY_BOOT, KEY_ORACLE, KEY_TRUTH, KEY_DATA = 0, 1, 2, 9


@dataclass(frozen=True)
class OrderRule:
    """Order selection: a fixed order or AIC, both capped at (n/ln n)^(1/4)."""

    mode: str = "aic_capped"
    fixed_p: Optional[int] = None

    def __post_init__(self):
        if self.mode not in ("fixed", "aic_capped"):
            raise ValueError(f"unknown order rule mode {self.mode!r}")
        if self.mode == "fixed" and (self.fixed_p is None or self.fixed_p < 1):
            raise ValueError("fixed mode requires fixed_p >= 1")


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
        """Second moment of the (exactly centered) residual law; this is the
        innovation variance of the bootstrap process and is used for all
        model-implied centering quantities."""
        return float(np.mean(self.residual_law.sample ** 2))


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


def generate_bootstrap_series(m: SieveModel, n: int, seed: dgp.SeedLike,
                              burnin: int | None = None) -> Series:
    """One bootstrap path: i.i.d. residual draws drive the fitted recursion."""
    if burnin is None:
        burnin = dgp.default_burnin(m.p)
    rng = dgp.rng_from(seed)
    resid = m.residual_law.sample
    e_star = resid[rng.integers(0, resid.size, n + burnin)]
    x = lfilter([1.0], np.concatenate([[1.0], -m.fit.a]), e_star)[burnin:]
    return Series(x, origin="sieve-bootstrap")


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
    n = s.n
    theta = statistic.model_center([1.0], np.concatenate([[1.0], -model.fit.a]),
                                   model.residual_variance, n)
    rate = statistic.rate(n)
    vals = np.empty(B)
    for b in range(B):
        x = generate_bootstrap_series(model, n, dgp.derive_seed(seed, KEY_BOOT, b))
        vals[b] = statistic.evaluate(x)
    return BootstrapResult(law=ecdf(rate * (vals - theta)), theta_star=float(theta),
                           B=B, statistic=statistic.name, p_used=model.p)
