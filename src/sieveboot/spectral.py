"""The frequency domain: the periodogram of the spectral statistics, the
path-independent arrays that weight it, and model spectral densities.

Quadrature convention: all integrals over [0, pi] are Riemann sums on the
Fourier frequencies 2*pi*j/n, j = 1..floor(n/2), with spacing 2*pi/n and the
endpoint pi (present for even n) weighted by one half. The half weight is what
makes M(I_n, 2cos(.h)) track the non-centered sample autocovariance even when
spectral mass concentrates at pi.

``periodogram`` takes a block of paths, one per row along its last axis,
already checked finite, and returns its periodogram row by row from one FFT
of the whole block. Each frequency-domain statistic of ``statistics`` reads
one row of that periodogram, a 1-d float array with n its size. The kernel
spectral density estimate smooths it with the one kernel here, ``epanechnikov``,
scaled by a bandwidth h: K_h(u) = K(u / h) / h.

Every array that depends on the path length alone -- the frequency grid,
quadrature weights, the fold index, weighted quadrature vectors and kernel
weights -- is built once per key in a small least-recently-used cache and
returned read-only, so a statistic evaluated on a block of paths of one
length pays one FFT per block and one or two dot products per path.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "periodogram",
    "fourier_quadrature",
    "weighted_quadrature",
    "rational_spectral_density",
]

_CACHE_SIZE = 16  # keys kept per cache; an entry holds O(n) values


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


KERNEL_L2_NORM_SQ = 3.0 / (5.0 * np.pi)  # int K^2 of ``epanechnikov``


def epanechnikov(u) -> np.ndarray:
    """The package's one smoothing kernel, Epanechnikov's rescaled to [-pi, pi]
    with unit mass: K(u) = (3 / 4 pi) (1 - (u/pi)^2) there, zero outside."""
    u = np.asarray(u, dtype=float)
    return np.where(np.abs(u) <= np.pi, 3.0 / (4.0 * np.pi) * (1.0 - (u / np.pi) ** 2), 0.0)


def periodogram(x: np.ndarray) -> np.ndarray:
    """I_n(2 pi j / n) = (2 pi n)^-1 |sum_t X_t e^{-i 2 pi j t / n}|^2 for
    j = 0..n-1 along the last axis of x, n its length: a new C-contiguous
    array of the shape of x.

    One ``rfft`` of the whole array gives the ordinates j = 0..n//2, and the
    even symmetry I(-l) = I(l) the rest, so row k of the result is the
    periodogram of row k of x bit for bit, whatever the other rows. The
    ordinates j = 1..n//2, the quadrature grid, are the slice [1 : n//2 + 1].
    """
    n = x.shape[-1]
    if n < 2:
        raise ValueError("periodogram requires n >= 2")
    ordinates = np.abs(np.fft.rfft(x, axis=-1))
    ordinates *= ordinates
    ordinates /= 2.0 * np.pi * n
    # take, not fancy indexing: o[:, fold] of a 2-d array comes back
    # F-ordered, and np.dot over its strided rows rounds differently
    return np.take(ordinates, _even_fold(n), axis=-1)


@lru_cache(maxsize=_CACHE_SIZE)
def fourier_quadrature(n: int):
    """(frequencies in (0, pi], weights) for the package's quadrature rule;
    both arrays are shared between callers and read-only."""
    m = n // 2
    freqs = 2.0 * np.pi * np.arange(1, m + 1) / n
    w = np.full(m, 2.0 * np.pi / n)
    if n % 2 == 0:
        w[-1] *= 0.5
    return _read_only(freqs), _read_only(w)


@lru_cache(maxsize=_CACHE_SIZE)
def weighted_quadrature(h: int, n: int) -> np.ndarray:
    """Quadrature weights times phi = 2cos(. h) on the grid of
    :func:`fourier_quadrature` (read-only): M(g, phi) is its dot product with
    g on that grid."""
    freqs, w = fourier_quadrature(n)
    return _read_only(w * (2.0 * np.cos(freqs * h)))


@lru_cache(maxsize=_CACHE_SIZE)
def _even_fold(n: int) -> np.ndarray:
    """Index of I_n(2 pi j / n) among the ordinates j = 0..n//2, for j = 0..n-1,
    by the even symmetry I(-l) = I(l) (read-only)."""
    j = np.arange(n)
    return _read_only(np.minimum(j, n - j))


@lru_cache(maxsize=_CACHE_SIZE)
def _kernel_weights(bandwidth: float, lam: float, n: int) -> np.ndarray:
    """K_h(lambda - mu_j) = K((lambda - mu_j) / h) / h at all n Fourier
    frequencies mu_j, h the bandwidth and the difference wrapped to (-pi, pi]
    (read-only); inf where a weight overflows float64."""
    mu = 2.0 * np.pi * np.arange(n) / n
    d = np.angle(np.exp(1j * (lam - mu)))
    with np.errstate(over="ignore"):
        return _read_only(epanechnikov(d / bandwidth) / bandwidth)


def _transfer(c: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """c(e^{-i lambda}) = c_0 + sum_j c_j e^{-i j lambda}."""
    j = np.arange(1, c.size)
    return c[0] + np.exp(-1j * np.outer(lam, j)) @ c[1:]


def rational_spectral_density(num, den, sigma2: float, lam) -> np.ndarray | float:
    """f(lambda) = (sigma2 / 2 pi) |num(e^{-i lambda})|^2 / |den(e^{-i lambda})|^2,
    the spectral density of the process [num(z) / den(z)] eps."""
    scalar = np.isscalar(lam) or np.ndim(lam) == 0
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    num = np.atleast_1d(np.asarray(num, dtype=float))
    den = np.atleast_1d(np.asarray(den, dtype=float))
    out = sigma2 / (2.0 * np.pi) * np.abs(_transfer(num, lam)) ** 2 / np.abs(_transfer(den, lam)) ** 2
    return float(out[0]) if scalar else out

