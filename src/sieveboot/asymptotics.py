"""Closed-form asymptotic variances for the statistics under study.

Fourth-order structure enters only through a scalar excess kurtosis, which is
exact for linear processes and for companion autoregressive processes; the
same second-order functional with different kurtosis values distinguishes what
the bootstrap delivers from what the data demand.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .series import ACVF
from .spectral import KernelSpec, WeightFunction

__all__ = [
    "KurtosisSpec",
    "acvf_asymptotic_variance",
    "bartlett_variance",
    "integrated_periodogram_variance",
    "ratio_statistic_variance",
    "spectral_estimator_variance",
]

# Fixed quadrature grid (midpoint rule) for all frequency-domain integrals.
_QUAD_POINTS = 2048


@dataclass(frozen=True)
class KurtosisSpec:
    """Excess kurtosis E xi^4 / (E xi^2)^2 - 3 of a designated innovation law."""

    excess: float = 0.0

    def __post_init__(self):
        if self.excess < -2.0:
            raise ValueError("excess kurtosis cannot be below -2")


def _quad_grid():
    lam = (np.arange(_QUAD_POINTS) + 0.5) * np.pi / _QUAD_POINTS
    return lam, np.pi / _QUAD_POINTS


def _truncation_lags(acvf: ACVF) -> int:
    g = np.abs(acvf.gamma)
    keep = np.nonzero(g >= 1e-12 * g[0])[0]
    return int(keep[-1]) if keep.size else 0


def acvf_asymptotic_variance(acvf: ACVF, h: int, kappa: KurtosisSpec) -> float:
    """kappa * gamma(h)^2 + sum_k (gamma(k)^2 + gamma(k+h) gamma(k-h)).

    With kappa the innovation excess kurtosis this is the variance of
    sqrt(n)(gamma_hat(h) - gamma(h)) for a linear or companion process.
    """
    g = acvf.__getitem__
    K = _truncation_lags(acvf) + abs(h)
    total = kappa.excess * g(h) ** 2
    for k in range(-K, K + 1):
        total += g(k) ** 2 + g(k + h) * g(k - h)
    return float(total)


def bartlett_variance(acf, h: int) -> float:
    """Bartlett's formula for the variance of sqrt(n)(rho_hat(h) - rho(h))."""
    rho_arr = np.asarray(acf, dtype=float)
    if abs(rho_arr[0] - 1.0) > 1e-12:
        raise ValueError("acf must start with rho(0) = 1")

    def rho(k: int) -> float:
        k = abs(k)
        return float(rho_arr[k]) if k < rho_arr.size else 0.0

    K = rho_arr.size + abs(h)
    rh = rho(h)
    total = 0.0
    for k in range(-K, K + 1):
        total += ((1.0 + 2.0 * rh ** 2) * rho(k) ** 2
                  + rho(k - h) * rho(k + h)
                  - 4.0 * rh * rho(k) * rho(k + h))
    return float(total)


def integrated_periodogram_variance(f: Callable, phi: WeightFunction, kappa: KurtosisSpec) -> float:
    """kappa (int_0^pi phi f)^2 + 2 pi int_0^pi phi^2 f^2, fixed-grid quadrature."""
    lam, dl = _quad_grid()
    fv = np.asarray(f(lam), dtype=float)
    pv = phi(lam)
    first = kappa.excess * (np.sum(pv * fv) * dl) ** 2
    second = 2.0 * np.pi * np.sum(pv ** 2 * fv ** 2) * dl
    return float(first + second)


def ratio_statistic_variance(f: Callable, phi: WeightFunction) -> float:
    """Variance of sqrt(n)(R(I_n, phi) - R(f, phi)); kurtosis-free.

    With psi = phi * int f - int phi f, returns 2 pi int psi^2 f^2 / (int f)^4.
    """
    lam, dl = _quad_grid()
    fv = np.asarray(f(lam), dtype=float)
    pv = phi(lam)
    int_f = np.sum(fv) * dl
    if int_f <= 0:
        raise ValueError("spectral density must have positive mass")
    int_pf = np.sum(pv * fv) * dl
    psi = pv * int_f - int_pf
    return float(2.0 * np.pi * np.sum(psi ** 2 * fv ** 2) * dl / int_f ** 4)


def spectral_estimator_variance(f_lambda: float, at_boundary: bool, kernel: KernelSpec) -> float:
    """Limit of n h Var(f_n(lambda)) as h -> 0: (1 + boundary) 2 pi f^2 int K^2.

    The estimate integrates the periodogram against K_h over the full circle,
    with this package's unit-mass kernel; the variance doubles at 0 and pi.
    """
    if f_lambda < 0:
        raise ValueError("spectral density value must be nonnegative")
    factor = 2.0 if at_boundary else 1.0
    return float(factor * 2.0 * np.pi * f_lambda ** 2 * kernel.l2_norm_sq)

