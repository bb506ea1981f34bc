"""Closed-form asymptotic variances for the statistics under study.

Fourth-order structure enters only through a scalar excess kurtosis, which is
exact for linear processes and for companion autoregressive processes; the
same second-order functional with different kurtosis values distinguishes what
the bootstrap delivers from what the data demand.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from .spectral import KernelSpec

__all__ = [
    "acvf_asymptotic_variance",
    "bartlett_variance",
    "integrated_periodogram_variance",
    "ratio_statistic_variance",
    "spectral_estimator_variance",
]

# Fixed quadrature grid (midpoint rule) for all frequency-domain integrals.
_QUAD_POINTS = 2048


def _quad_grid():
    lam = (np.arange(_QUAD_POINTS) + 0.5) * np.pi / _QUAD_POINTS
    return lam, np.pi / _QUAD_POINTS


def _symmetric(seq: np.ndarray):
    """k -> seq[|k|] as a float, zero past the last stored lag."""
    return lambda k: float(seq[abs(k)]) if abs(k) < seq.size else 0.0


def _truncation_lags(gamma: np.ndarray) -> int:
    g = np.abs(gamma)
    keep = np.nonzero(g >= 1e-12 * g[0])[0]
    return int(keep[-1]) if keep.size else 0


def acvf_asymptotic_variance(gamma, h: int, kappa: float) -> float:
    """kappa * gamma(h)^2 + sum_k (gamma(k)^2 + gamma(k+h) gamma(k-h)), gamma
    extended by gamma(-k) = gamma(k) and by zero past its last lag.

    With kappa the innovation excess kurtosis this is the variance of
    sqrt(n)(gamma_hat(h) - gamma(h)) for a linear or companion process.
    """
    gamma = np.asarray(gamma, dtype=float)
    g = _symmetric(gamma)
    K = _truncation_lags(gamma) + abs(h)
    total = kappa * g(h) ** 2
    for k in range(-K, K + 1):
        total += g(k) ** 2 + g(k + h) * g(k - h)
    return float(total)


def bartlett_variance(acf, h: int) -> float:
    """Bartlett's formula for the variance of sqrt(n)(rho_hat(h) - rho(h))."""
    rho_arr = np.asarray(acf, dtype=float)
    if abs(rho_arr[0] - 1.0) > 1e-12:
        raise ValueError("acf must start with rho(0) = 1")
    rho = _symmetric(rho_arr)
    K = rho_arr.size + abs(h)
    rh = rho(h)
    total = 0.0
    for k in range(-K, K + 1):
        total += ((1.0 + 2.0 * rh ** 2) * rho(k) ** 2
                  + rho(k - h) * rho(k + h)
                  - 4.0 * rh * rho(k) * rho(k + h))
    return float(total)


def integrated_periodogram_variance(f: Callable, h: int, kappa: float) -> float:
    """kappa (int_0^pi phi f)^2 + 2 pi int_0^pi phi^2 f^2 with phi = 2cos(. h),
    fixed-grid quadrature."""
    lam, dl = _quad_grid()
    fv = np.asarray(f(lam), dtype=float)
    pv = 2.0 * np.cos(lam * h)
    first = kappa * (np.sum(pv * fv) * dl) ** 2
    second = 2.0 * np.pi * np.sum(pv ** 2 * fv ** 2) * dl
    return float(first + second)


def ratio_statistic_variance(f: Callable, h: int) -> float:
    """Variance of sqrt(n)(R(I_n, phi) - R(f, phi)) with phi = 2cos(. h);
    kurtosis-free.

    With psi = phi * int f - int phi f, returns 2 pi int psi^2 f^2 / (int f)^4.
    """
    lam, dl = _quad_grid()
    fv = np.asarray(f(lam), dtype=float)
    pv = 2.0 * np.cos(lam * h)
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

