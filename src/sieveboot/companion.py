"""The companion autoregressive process: the AR(infinity) process driven by
i.i.d. copies of the Wold innovations, sharing all second-order properties
with the original process. The sieve bootstrap mimics statistics of this
process, which is why it is the natural oracle for validity checks.

A companion process is carried as the exact rational filter
X = [num(z) / den(z)] eps, with num and den polynomials in the backshift z
starting at 1 and with no root in the closed unit disk; num(z) / den(z) is
then the MA(infinity) form of the AR(infinity) process den(z) / num(z) X = eps.
The sieve bootstrap process is itself such a companion: the fitted filter
1 / (1 - sum a_k z^k) driven by residuals resampled i.i.d.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.signal import lfilter

from . import dgp
from .ar import InversionError, invert_ar_polynomial, min_modulus_on_disk
from .series import ACVF, EmpiricalLaw, Series

__all__ = [
    "CompanionSpec",
    "OracleResult",
    "ar_model_acvf",
    "rational_acvf",
    "build_companion",
    "companion_distribution",
    "ma1_companion_spec",
    "resampling_companion_spec",
    "parametric_companion_spec",
]

_SOURCES = ("exact_ma1_filter", "residual_resample", "parametric")


def _filter_polynomial(c, label: str) -> np.ndarray:
    """Validate a filter polynomial 1 + c_1 z + ... with no root in |z| <= 1."""
    c = np.atleast_1d(np.asarray(c, dtype=float))
    if c.ndim != 1 or c[0] != 1.0:
        raise ValueError(f"companion {label} polynomial must start with 1")
    if min_modulus_on_disk(-c[1:], 1.0) <= 0:
        raise InversionError(f"companion {label} polynomial has a root in the closed unit disk")
    return c


@dataclass(frozen=True)
class CompanionSpec:
    """The rational filter num(z) / den(z) plus an i.i.d. innovation source.

    For the resampling sources the payload is a long record whose values are
    drawn i.i.d. with replacement; for the parametric source it is an
    InnovationSpec.
    """

    num: np.ndarray
    den: np.ndarray
    innovation_source: str
    payload: object

    def __post_init__(self):
        if self.innovation_source not in _SOURCES:
            raise ValueError(f"unknown innovation source {self.innovation_source!r}")
        object.__setattr__(self, "num", _filter_polynomial(self.num, "numerator"))
        object.__setattr__(self, "den", _filter_polynomial(self.den, "denominator"))

    @property
    def innovation_variance(self) -> float:
        if self.innovation_source == "parametric":
            return float(self.payload.scale ** 2)
        record = np.asarray(self.payload, dtype=float)
        return float(np.mean(record ** 2) - np.mean(record) ** 2)

    @property
    def filter(self):
        return self.num, self.den, self.innovation_variance

    def simulate(self, n: int, seed: dgp.SeedLike) -> Series:
        return build_companion(self, n, seed)


@dataclass(frozen=True)
class OracleResult:
    """Monte Carlo law of the scaled statistic on companion paths."""

    law: EmpiricalLaw
    M: int
    theta_tilde: float
    statistic: str


def ma1_companion_spec(
    innovations: Optional[dgp.InnovationSpec] = None,
    record_length: int = 10 ** 6,
    seed: dgp.SeedLike = 0,
) -> CompanionSpec:
    """Companion spec for the noninvertible MA(1) example: the invertible
    MA(1) (1 - z/2) eps.

    Draws a long record of exact Wold innovations (fresh e filtered to ve) and
    resamples i.i.d. from it. Consecutive ve values are uncorrelated but not
    independent, so resampling -- not the filtered path itself -- realizes the
    i.i.d. requirement of the companion recursion.
    """
    _, _, ve = dgp.ma1_example(record_length + dgp.VE_FILTER_LAG, seed, innovations)
    record = ve.values[dgp.VE_FILTER_LAG:]
    return CompanionSpec(num=[1.0, -0.5], den=[1.0], innovation_source="exact_ma1_filter",
                         payload=record)


def resampling_companion_spec(num, den, record) -> CompanionSpec:
    return CompanionSpec(num=num, den=den, innovation_source="residual_resample",
                         payload=np.asarray(record, dtype=float))


def parametric_companion_spec(num, den, innovations: dgp.InnovationSpec) -> CompanionSpec:
    return CompanionSpec(num=num, den=den, innovation_source="parametric", payload=innovations)


def rational_acvf(num, den, sigma2: float, maxlag: int) -> ACVF:
    """Autocovariances gamma(h) = sigma2 sum_j psi_j psi_{j+h} of the process
    [num(z) / den(z)] eps, psi being the filter's impulse response.

    A trivial denominator gives the finite response psi = num exactly;
    otherwise 1 / den(z) is expanded until its tail contributes less than
    1e-12 of its largest coefficient, capped at lag 10^4.
    """
    num = np.atleast_1d(np.asarray(num, dtype=float))
    a = -np.atleast_1d(np.asarray(den, dtype=float))[1:]
    if a.size == 0:
        psi = num
    else:
        L = max(maxlag + 50, 200)
        while True:
            alpha = invert_ar_polynomial(a, L).alpha
            tail = np.abs(alpha[-50:]).max()
            head = np.abs(alpha).max()
            if tail <= 1e-12 * head or L >= 10 ** 4:
                break
            L = min(2 * L, 10 ** 4)
        psi = np.convolve(num, alpha)[: L + 1]
    gamma = np.array([sigma2 * np.dot(psi[: psi.size - h], psi[h:]) if h < psi.size else 0.0
                      for h in range(maxlag + 1)])
    return ACVF(gamma=gamma, kind="theoretical")


def ar_model_acvf(a, sigma2: float, maxlag: int) -> ACVF:
    """Autocovariances of the AR model (a, sigma2): the filter 1 / (1 - sum a_k z^k)."""
    return rational_acvf([1.0], np.concatenate([[1.0], -np.asarray(a, dtype=float)]),
                         sigma2, maxlag)


def _draw_companion_innovations(spec: CompanionSpec, n: int, seed: dgp.SeedLike) -> np.ndarray:
    if spec.innovation_source == "parametric":
        return dgp.draw_innovations(spec.payload, n, seed)
    record = np.asarray(spec.payload, dtype=float)
    return record[dgp.rng_from(seed).integers(0, record.size, n)]


def build_companion(spec: CompanionSpec, n: int, seed: dgp.SeedLike) -> Series:
    """One companion path of length n, deterministic given seed.

    A finite filter (trivial den) of order q is exact after q pre-sample
    innovations, so n + q are drawn and the first q outputs dropped; a
    recursive filter starts from zero state and drops a burn-in.
    """
    p, q = spec.den.size - 1, spec.num.size - 1
    burnin = dgp.default_burnin(p) if p else q
    eps = _draw_companion_innovations(spec, n + burnin, seed)
    return Series(lfilter(spec.num, spec.den, eps)[burnin:])


def companion_distribution(spec: CompanionSpec, statistic, n: int, M: int, seed: dgp.SeedLike) -> OracleResult:
    """Law of c_n (T~ - theta~) over M independent companion paths.

    ``statistic`` follows the experiment statistic protocol (evaluate /
    model_center / rate); theta~ is the exact model quantity of the companion
    process.
    """
    if M < 200:
        raise ValueError("M must be at least 200")
    law, theta = dgp.replicate(spec, statistic, n, M, seed, dgp.KEY_ORACLE)
    return OracleResult(law=law, M=M, theta_tilde=theta, statistic=statistic.name)
