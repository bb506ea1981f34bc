"""Closed-form asymptotic variances for the statistics under study.

Every statistic but the mean and the kernel spectral estimate is, to first
order, sum_j c_j gamma_hat(j), and under a process linear in i.i.d. noise its
limit variance is Bartlett's covariance, where the noise excess kurtosis kappa
enters only as kappa (sum_j c_j gamma(j))^2. The bootstrap swaps the raw
innovations' kappa for the Wold innovations', so it is valid exactly when that
sum is 0: for the autocorrelation's weights {h: 1, 0: -rho(h)}, not for the
autocovariance's {h: 1}. Each lag shift costs one dot product of the two-sided
ACVF gamma(-L..L), zero past its ends: O(L) whatever the lags. The kernel
spectral estimate's variance needs only f(lambda) and whether lambda is 0 or
pi: the package has one kernel, so its int K^2 is a constant of ``spectral``.
"""
from __future__ import annotations

import numpy as np

from .spectral import KERNEL_L2_NORM_SQ

__all__ = [
    "linear_limit_variance",
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
