"""Closed-form asymptotic variances for the statistics under study.

Fourth-order structure enters only through a scalar excess kurtosis, which is
exact for linear processes and for companion autoregressive processes; the
same second-order functional with different kurtosis values distinguishes what
the bootstrap delivers from what the data demand.

The autocovariance and Bartlett variances are sums over every lag of a
theoretical ACVF, taken as lagged dot products of the two-sided sequence
gamma(-L..L), zero past its ends; their cost is O(L) whatever the lag h. The
cosine functionals of the periodogram reuse them: M(I_n, 2cos(. h)) has the
limit law of the lag-h sample autocovariance, and R(I_n, 2cos(. h)) is
2 rho_hat(h) up to O(1/n). The kernel spectral estimate's variance needs only
f(lambda) and whether lambda is 0 or pi: the package has one kernel, so its
int K^2 is a constant of ``spectral``.
"""
from __future__ import annotations

import numpy as np

from .spectral import KERNEL_L2_NORM_SQ

__all__ = [
    "acvf_asymptotic_variance",
    "bartlett_variance",
    "spectral_estimator_variance",
]


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


def acvf_asymptotic_variance(gamma, h: int, kappa: float) -> float:
    """kappa * gamma(h)^2 + sum_k (gamma(k)^2 + gamma(k+h) gamma(k-h)), gamma
    extended by gamma(-k) = gamma(k) and by zero past its last lag.

    With kappa the innovation excess kurtosis this is the variance of
    sqrt(n)(gamma_hat(h) - gamma(h)) for a linear or companion process.
    """
    squares, cross = _lagged_dots(gamma, 0, 2 * h)
    return float(kappa * _at(gamma, h) ** 2 + squares + cross)


def bartlett_variance(acf, h: int) -> float:
    """Bartlett's formula for the variance of sqrt(n)(rho_hat(h) - rho(h)):
    sum_k ((1 + 2 rho(h)^2) rho(k)^2 + rho(k-h) rho(k+h) - 4 rho(h) rho(k) rho(k+h))."""
    if abs(_at(acf, 0) - 1.0) > 1e-12:
        raise ValueError("acf must start with rho(0) = 1")
    squares, cross, lagged = _lagged_dots(acf, 0, 2 * h, h)
    rh = _at(acf, h)
    return float((1.0 + 2.0 * rh ** 2) * squares + cross - 4.0 * rh * lagged)


def spectral_estimator_variance(f_lambda: float, at_boundary: bool) -> float:
    """Limit of n h Var(f_n(lambda)) as h -> 0: (1 + boundary) 2 pi f^2 int K^2.

    The estimate integrates the periodogram against K_h over the full circle,
    with this package's one unit-mass kernel, whatever the bandwidth h; the
    variance doubles at 0 and pi.
    """
    if f_lambda < 0:
        raise ValueError("spectral density value must be nonnegative")
    factor = 2.0 if at_boundary else 1.0
    return float(factor * 2.0 * np.pi * f_lambda ** 2 * KERNEL_L2_NORM_SQ)
