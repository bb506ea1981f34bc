"""Autoregressive linear algebra: Yule-Walker fits, polynomial inversion and
root-location diagnostics.

Conventions: an AR model of order p is written X_t = sum_k a_k X_{t-k} + e_t,
with characteristic polynomial A_p(z) = 1 - sum_k a_k z^k. Causality means all
roots of A_p lie strictly outside the closed unit disk.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .series import ACVF, DegenerateSeriesError, Series

__all__ = [
    "ConditioningError",
    "InversionError",
    "ARFit",
    "MAInversion",
    "levinson_durbin",
    "yule_walker_fit",
    "invert_ar_polynomial",
    "min_modulus_on_disk",
    "wold_factorization",
    "baxter_gap",
    "residuals",
]


class ConditioningError(ArithmeticError):
    """Raised when the Yule-Walker system is numerically singular."""


class InversionError(ArithmeticError):
    """Raised when an AR polynomial has a root in the closed unit disk."""


@dataclass(frozen=True)
class ARFit:
    """Order-p autoregressive coefficients with innovation variance."""

    p: int
    a: np.ndarray
    sigma2: float
    source: str = "empirical"

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        if a.size != self.p:
            raise ValueError("coefficient vector length must equal p")
        if self.sigma2 < 0:
            raise ValueError("innovation variance must be nonnegative")
        object.__setattr__(self, "a", a)


@dataclass(frozen=True)
class MAInversion:
    """Truncated power-series inverse (1 - sum a_k z^k)^-1 = sum alpha_j z^j."""

    alpha: np.ndarray
    L: int
    decay_bound: float

    def __post_init__(self):
        alpha = np.asarray(self.alpha, dtype=float)
        if alpha.size != self.L + 1 or alpha[0] != 1.0:
            raise ValueError("alpha must have length L+1 with alpha[0] = 1")
        object.__setattr__(self, "alpha", alpha)


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
        acc = gamma[k] - np.dot(a, gamma[k - 1 : 0 : -1]) if k > 1 else gamma[1]
        phi = acc / sigma2s[k - 1]
        a = np.concatenate([a - phi * a[::-1], [phi]])
        sigma2s[k] = sigma2s[k - 1] * (1.0 - phi * phi)
        if sigma2s[k] < floor:
            raise ConditioningError(
                f"prediction variance collapsed at order {k}: {sigma2s[k]:.3e}"
            )
    return a, sigma2s


def yule_walker_fit(acvf: ACVF, p: int) -> ARFit:
    """Order-p Yule-Walker fit from an autocovariance sequence."""
    if acvf.maxlag < p:
        raise ValueError(f"acvf must cover lags 0..{p}")
    a, sigma2s = levinson_durbin(acvf.gamma, p)
    return ARFit(p=p, a=a, sigma2=float(sigma2s[p]), source=acvf.kind)


def invert_ar_polynomial(a, L: int) -> MAInversion:
    """Power-series inverse of A(z) = 1 - sum a_k z^k up to lag L.

    alpha_0 = 1 and alpha_j = sum_{k=1}^{min(j,p)} a_k alpha_{j-k}.
    """
    a = np.asarray(a, dtype=float)
    if a.size and min_modulus_on_disk(a, 1.0) <= 0:
        raise InversionError("AR polynomial has a root in the closed unit disk")
    p = a.size
    alpha = np.zeros(L + 1)
    alpha[0] = 1.0
    for j in range(1, L + 1):
        k = min(j, p)
        alpha[j] = np.dot(a[:k], alpha[j - 1 :: -1][:k])
    decay = float(np.abs(alpha[-1])) if L > 0 else 0.0
    return MAInversion(alpha=alpha, L=L, decay_bound=decay)


def _reciprocal_roots(a: np.ndarray) -> np.ndarray:
    """Reciprocals 1/z of the roots of A(z) = 1 - sum a_k z^k.

    They are the roots of the monic z^p - sum a_k z^(p-k), whose companion
    matrix holds the a_k themselves; the roots of A would come from one
    scaled by 1/a_p, whose rounding swamps roots near the circle when a_p is
    small.
    """
    return np.roots(np.concatenate([[1.0], -np.asarray(a, dtype=float)]))


_ROOT_MARGIN = 1e-12  # a reciprocal root r with |r| (1 + margin) >= 1 is in the closed disk


def wold_factorization(b, sigma2: float = 1.0):
    """(b~, sigma2_eps, psi): reflect every root z_i of the MA polynomial
    b(z) = 1 + b_1 z + ... + b_q z^q inside the unit disk to 1 / conj(z_i).

    X = b(z) e, Var(e) = sigma2, is then b~(z) eps with b~ the Wold
    polynomial and eps = [b(z) / b~(z)] e the Wold innovations: b / b~ is
    all-pass with gain prod |z_i|^-1, so eps is white, not i.i.d. unless no
    root flips, with variance sigma2_eps = sigma2 prod |z_i|^-2. psi is the
    response of b / b~ over q + lag + 1 taps, lag the first t with
    rho^t < 1e-18 for rho the largest flipped-root modulus: past psi.size - 1
    outputs from zero state, b / b~ misses earlier inputs by weights below
    that. With no root flipped, b comes back as it is, with psi = (1,).
    Raises ValueError naming a root on the unit circle, where the spectral
    density vanishes, or a flipped root so near it that lag > 10^4.
    """
    b = np.atleast_1d(np.asarray(b, dtype=float))
    if b[0] != 1.0:
        raise ValueError(f"an MA polynomial must start with 1, got {b[0]!r}")
    r = _reciprocal_roots(-b[1:])  # b(z) = prod_i (1 - r_i z), roots z_i = 1 / r_i
    size = np.abs(r)
    on_circle = (size * (1.0 + _ROOT_MARGIN) >= 1.0) & (size <= 1.0 + _ROOT_MARGIN)
    if on_circle.any():
        raise ValueError(f"MA polynomial has a root on the unit circle, z = "
                         f"{1.0 / r[on_circle][0]:.6g}; its spectral density vanishes there, "
                         "so it has no AR(infinity) form")
    inside = size > 1.0
    if not inside.any():
        return b, sigma2, np.ones(1)
    rho = 1.0 / size[inside].min()
    lag = int(math.log(1e-18) / math.log(rho)) + 1
    if lag > 10 ** 4:  # rho above 1e-18^(1 / 10^4), about 0.9959
        raise ValueError(f"MA polynomial has a root of modulus {rho:.12g}, too close to the unit "
                         f"circle: its Wold filter would take {lag} lags to settle")
    num = np.poly(np.where(inside, 1.0 / np.conj(r), r)).real
    taps = b.size + lag
    psi = np.convolve(b, invert_ar_polynomial(-num[1:], taps - 1).alpha)[:taps]
    return num, sigma2 * float(np.prod(size[inside] ** 2)), psi


def min_modulus_on_disk(a, radius: float = 1.0) -> float:
    """Minimum of |A_p(z)| over the closed disk |z| <= radius.

    Zero iff a root lies in the closed disk; otherwise (minimum-modulus
    principle) the minimum is attained on the boundary and is located exactly
    through the stationary points of the boundary modulus, themselves roots of
    a companion-matrix polynomial. No grid parameter is involved.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    a = np.trim_zeros(np.asarray(a, dtype=float), "b")
    if a.size == 0:
        return 1.0
    if np.max(np.abs(_reciprocal_roots(a))) * radius * (1.0 + _ROOT_MARGIN) >= 1.0:
        return 0.0
    # |A(r e^{i theta})|^2 is a trigonometric polynomial; its derivative in
    # theta vanishes where P(w) = sum_m m t_m w^{m+p} has a root on |w| = 1.
    p = a.size
    q = np.concatenate([[1.0], -a]) * radius ** np.arange(p + 1)
    t = np.correlate(q, q, mode="full")  # t[m + p] = sum_k q_k q_{k+m}
    m = np.arange(-p, p + 1)
    deriv = m * t
    # P is antipalindromic; dropping both end terms when they are negligible
    # removes a root near 0 and one near infinity, keeps those on the circle,
    # and keeps the companion matrix of P finite.
    while deriv.size > 2 and abs(deriv[0]) <= 1e-14 * np.abs(deriv).max():
        deriv = deriv[1:-1]
    if np.allclose(deriv, 0.0):
        thetas = np.array([0.0, np.pi])
    else:
        crit = np.polynomial.polynomial.polyroots(deriv)
        on_circle = crit[np.abs(np.abs(crit) - 1.0) < 1e-8]
        thetas = np.unique(np.concatenate([np.angle(on_circle).real, [0.0, np.pi]]))
    z = radius * np.exp(1j * thetas)
    vals = np.abs(np.polynomial.polynomial.polyval(z, np.concatenate([[1.0], -a])))
    return float(np.min(vals))


def baxter_gap(fit: ARFit, a_true, r: int = 0):
    """Diagnostic pair (lhs, rhs) for the Baxter-type coefficient bound.

    lhs = sum_{k<=p} (1+k)^r |a_k(p) - a_k|, rhs = sum_{k>p} (1+k)^r |a_k|,
    with a_true the truncated infinite-order coefficients.
    """
    a_true = np.asarray(a_true, dtype=float)
    p = fit.p
    if a_true.size <= p:
        raise ValueError("a_true must extend beyond the fitted order")
    k = np.arange(1, a_true.size + 1)
    w = (1.0 + k) ** r
    diff = np.abs(fit.a - a_true[:p])
    lhs = float(np.dot(w[:p], diff))
    rhs = float(np.dot(w[p:], np.abs(a_true[p:])))
    return lhs, rhs


def residuals(s: Series, fit: ARFit) -> np.ndarray:
    """Centered residuals of the AR fit: X_t - sum a_j X_{t-j}, t > p.

    The output has mean zero to machine precision (the mean is removed twice
    to absorb rounding of the first pass).
    """
    n, p = s.n, fit.p
    if n <= p:
        raise ValueError(f"series length {n} must exceed fit order {p}")
    x = s.values
    if p == 0:
        res = x.copy()
    else:
        res = x[p:] - np.correlate(x, fit.a[::-1], mode="valid")[:-1]
    res = res - res.mean()
    res -= res.mean()
    return res
