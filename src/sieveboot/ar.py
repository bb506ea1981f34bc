"""Autoregressive linear algebra: the Levinson-Durbin recursion, AR residuals,
the rational filter [b(z) / a(z)] x, into a new array or in place, and its
impulse response, the Wold factorization of a finite MA, and the root radius,
from which the package decides whether a polynomial has a root in the closed
unit disk and how many lags an impulse response takes to settle.

Conventions: an AR model of order p is written X_t = sum_k a_k X_{t-k} + e_t,
with characteristic polynomial A_p(z) = 1 - sum_k a_k z^k. Causality means all
roots of A_p lie strictly outside the closed unit disk. ``levinson_durbin`` and
``residuals`` take the a_k; every other function takes a polynomial
1 + c_1 z + ... + c_p z^p as the array (1, c_1, .., c_p) a filter holds.
"""
from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import sys
from pathlib import Path

import numpy as np

from .series import DegenerateSeriesError

__all__ = [
    "ConditioningError",
    "InversionError",
    "levinson_durbin",
    "filter_rows",
    "filter_in_place",
    "impulse_response",
    "root_radius",
    "check_roots_outside_disk",
    "burnin",
    "wold_factorization",
    "residuals",
]


class ConditioningError(ArithmeticError):
    """Raised when the Yule-Walker system is numerically singular."""


class InversionError(ValueError):
    """Raised when an AR polynomial has a root in the closed unit disk."""


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


# scipy's compiled filter kernel lives in this extension module. Loading it
# from its file spares ``import scipy.signal``, which would load the whole
# signal-processing package (and scipy.stats) for this one function.
_SIGTOOLS = "scipy.signal._sigtools"


def _sigtools_path() -> Path:
    """The file of scipy's ``_sigtools`` extension, found without importing scipy."""
    folder = Path(importlib.util.find_spec("scipy").origin).parent / "signal"
    candidates = [folder / f"_sigtools{suffix}" for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    return next((path for path in candidates if path.is_file()), candidates[0])


def _load_linear_filter(path: Path):
    """``_linear_filter`` of the ``_sigtools`` extension at ``path``, or that
    of ``scipy.signal`` itself when the file cannot be loaded."""
    loader = importlib.machinery.ExtensionFileLoader(_SIGTOOLS, str(path))
    previous = sys.modules.get(_SIGTOOLS)
    try:
        module = importlib.util.module_from_spec(importlib.util.spec_from_loader(_SIGTOOLS, loader))
        loader.exec_module(module)
    except ImportError:
        module = None
    finally:
        # An extension module enters sys.modules as it loads; leave sys.modules
        # as it was, so that a later ``import scipy.signal`` runs as usual.
        if previous is None:
            sys.modules.pop(_SIGTOOLS, None)
        else:
            sys.modules[_SIGTOOLS] = previous
    if module is None:
        from scipy.signal import _sigtools as module
    return module._linear_filter


@functools.cache
def _linear_filter():
    loaded = sys.modules.get(_SIGTOOLS)
    return loaded._linear_filter if loaded is not None else _load_linear_filter(_sigtools_path())


def filter_rows(b, a, x) -> np.ndarray:
    """The rational filter [b(z) / a(z)] x along the last axis of x, from zero
    state, with a[0] == 1: bit for bit ``scipy.signal.lfilter(b, a, x,
    axis=-1)`` on float64 input, through the code that lfilter runs.

    A finite filter (a == [1]) is lfilter's FIR branch, ``np.convolve(b, row)``
    cut to the row's length, row by row. A recursive one is lfilter's IIR
    branch, the compiled ``_linear_filter`` of scipy's ``_sigtools``.
    """
    b = np.atleast_1d(np.asarray(b, dtype=float))
    a = np.atleast_1d(np.asarray(a, dtype=float))
    x = np.asarray(x, dtype=float)
    if a[0] != 1.0:
        raise ValueError(f"the filter denominator must start with 1, got {a[0]!r}")
    if a.size > 1:
        return _linear_filter()(b, a, x, -1)
    out = np.empty(x.shape)
    width = x.shape[-1]
    for dst, row in zip(out.reshape(-1, width), x.reshape(-1, width)):
        dst[:] = np.convolve(b, row)[:width]
    return out


def filter_in_place(b, a, x: np.ndarray, piece: int) -> np.ndarray:
    """The 1-d float64 array x itself, overwritten with the recursive filter
    [b(z) / a(z)] x from zero state, a[0] == 1 and a.size > 1: bit for bit
    ``filter_rows(b, a, x)``, with one piece of output held at a time in
    place of a copy of x.

    x goes through scipy's ``_linear_filter`` ``piece`` values at a time,
    each piece starting from the filter state the one before it left.
    """
    b = np.atleast_1d(np.asarray(b, dtype=float))
    a = np.atleast_1d(np.asarray(a, dtype=float))
    if a[0] != 1.0 or a.size == 1:
        raise ValueError(f"the filter denominator must start with 1 and have degree >= 1, "
                         f"got {a!r}")
    kernel, state = _linear_filter(), np.zeros(max(a.size, b.size) - 1)
    for lo in range(0, x.size, piece):
        x[lo:lo + piece], state = kernel(b, a, x[lo:lo + piece], -1, state)
    return x


_ROOT_MARGIN = 1e-12  # a reciprocal root r with |r| (1 + margin) >= 1 is in the closed disk
SETTLE_TOL = 1e-18  # share of its start at which a zero-state transient counts as over


def root_radius(poly) -> float:
    """Largest |1/z| over the roots z of the polynomial 1 + c_1 z + ... + c_p z^p,
    given as (1, c_1, .., c_p), and 0 for p = 0: it has a root in the closed
    unit disk iff this is at least 1.

    The 1/z are the roots of the monic z^p + c_1 z^(p-1) + ... + c_p, which
    ``np.roots`` reads from the same array: its companion matrix holds the c_k
    themselves, where one for the roots z would be scaled by 1/c_p, whose
    rounding swamps roots near the circle when c_p is small.
    """
    return float(np.abs(np.roots(np.asarray(poly, dtype=float))).max(initial=0.0))


def check_roots_outside_disk(poly, name: str = "AR polynomial") -> float:
    """The root radius of the polynomial (1, c_1, .., c_p); raise
    InversionError when it has a root in the closed unit disk, a root radius
    within _ROOT_MARGIN of 1 counting as one."""
    radius = root_radius(poly)
    if radius * (1.0 + _ROOT_MARGIN) >= 1.0:
        raise InversionError(f"{name} has a root in the closed unit disk")
    return radius


def _settle_lag(rho: float, tol: float) -> int:
    """The first t >= 1 with rho^t < tol, for 0 <= rho < 1 and 0 < tol < 1."""
    return int(math.log(tol) / math.log(rho)) + 1 if rho > 0 else 1


def burnin(num, den) -> int:
    """The leading outputs a zero-state path of num(z) / den(z) drops: q pre-sample draws,
    plus, when den != 1, the first t with rho^t < SETTLE_TOL, rho the root radius of den."""
    lag = _settle_lag(root_radius(den), SETTLE_TOL)
    return np.size(num) - 1 + (lag if np.size(den) > 1 else 0)


def impulse_response(num, den, length: int) -> np.ndarray:
    """psi_0..psi_{length - 1} of num(z) / den(z) = sum_j psi_j z^j, den[0]
    == 1: one ``filter_rows`` call on a unit impulse. Raises InversionError
    when den has a root in the closed unit disk."""
    check_roots_outside_disk(den, "filter denominator")
    impulse = np.zeros(length)
    impulse[0] = 1.0
    return filter_rows(num, den, impulse)


def wold_factorization(b, sigma2: float = 1.0):
    """(b~, sigma2_eps, psi): reflect every root z_i of the MA polynomial
    b(z) = 1 + b_1 z + ... + b_q z^q inside the unit disk to 1 / conj(z_i).

    X = b(z) e, Var(e) = sigma2, is then b~(z) eps with b~ the Wold
    polynomial and eps = [b(z) / b~(z)] e the Wold innovations: b / b~ is
    all-pass with gain prod |z_i|^-1, so eps is white, not i.i.d. unless no
    root flips, with variance sigma2_eps = sigma2 prod |z_i|^-2. psi is the
    response of b / b~ over q + lag + 1 taps, lag the first t with
    rho^t < SETTLE_TOL for rho the largest flipped-root modulus: past psi.size - 1
    outputs from zero state, b / b~ misses earlier inputs by weights below
    that. With no root flipped, b comes back as it is, with psi = (1,).
    Raises ValueError naming a root on the unit circle, where the spectral
    density vanishes, or a flipped root so near it that lag > 10^4.
    """
    b = np.atleast_1d(np.asarray(b, dtype=float))
    if b[0] != 1.0:
        raise ValueError(f"an MA polynomial must start with 1, got {b[0]!r}")
    r = np.roots(b)  # b(z) = prod_i (1 - r_i z), roots z_i = 1 / r_i
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
    lag = _settle_lag(rho, SETTLE_TOL)
    if lag > 10 ** 4:  # rho above SETTLE_TOL^(1 / 10^4), about 0.9959
        raise ValueError(f"MA polynomial has a root of modulus {rho:.12g}, too close to the unit "
                         f"circle: its Wold filter would take {lag} lags to settle")
    num = np.poly(np.where(inside, 1.0 / np.conj(r), r)).real
    psi = impulse_response(b, num, b.size + lag)
    return num, sigma2 * float(np.prod(size[inside] ** 2)), psi


def residuals(x: np.ndarray, a) -> np.ndarray:
    """Centered residuals X_t - sum_j a_j X_{t-j}, t > p, of the AR
    coefficients a = (a_1..a_p) on the path x.

    The output has mean zero to machine precision (the mean is removed twice
    to absorb rounding of the first pass).
    """
    a = np.asarray(a, dtype=float)
    n, p = x.size, a.size
    if n <= p:
        raise ValueError(f"series length {n} must exceed fit order {p}")
    if p == 0:
        res = x.copy()
    else:
        res = x[p:] - np.correlate(x, a[::-1], mode="valid")[:-1]
    res = res - res.mean()
    res -= res.mean()
    return res
