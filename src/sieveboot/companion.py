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
from typing import Iterator

import numpy as np

from . import dgp
from .ar import InversionError, invert_ar_polynomial, min_modulus_on_disk
from .series import ACVF, EmpiricalLaw, Series

__all__ = [
    "CompanionSpec",
    "OracleResult",
    "rational_acvf",
    "build_companion",
    "companion_distribution",
    "resampling_companion_spec",
    "parametric_companion_spec",
]

_SOURCES = ("residual_resample", "parametric")


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

    For the resampling source the payload is a long record whose values are
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

    @property
    def burnin(self) -> int:
        """Leading outputs dropped from each path: q pre-sample innovations
        make a finite filter of order q exact; a recursive filter starts from
        zero state and drops ``dgp.default_burnin(p)``."""
        p, q = self.den.size - 1, self.num.size - 1
        return dgp.default_burnin(p) if p else q

    def simulate(self, n: int, seed: dgp.SeedLike) -> Series:
        return build_companion(self, n, seed)

    def simulate_batch(self, n: int, seeds) -> Iterator[Series]:
        """The paths ``simulate(n, s)`` for s in ``seeds``, filtered a block
        of paths at a time."""
        return dgp.batch_paths(lambda block: build_companion(self, n, block), seeds,
                               n + self.burnin)


@dataclass(frozen=True)
class OracleResult:
    """Monte Carlo law of the scaled statistic on companion paths."""

    law: EmpiricalLaw
    M: int
    theta_tilde: float
    statistic: str


def resampling_companion_spec(num, den, record) -> CompanionSpec:
    return CompanionSpec(num=num, den=den, innovation_source="residual_resample",
                         payload=np.asarray(record, dtype=float))


def parametric_companion_spec(num, den, innovations: dgp.InnovationSpec) -> CompanionSpec:
    return CompanionSpec(num=num, den=den, innovation_source="parametric", payload=innovations)


def rational_acvf(num, den, sigma2: float, maxlag: int | None = None) -> ACVF:
    """Autocovariances gamma(h) = sigma2 sum_j psi_j psi_{j+h} of the process
    [num(z) / den(z)] eps, psi being the filter's impulse response, for
    h = 0..maxlag.

    A trivial denominator gives the finite response psi = num exactly;
    otherwise 1 / den(z) is expanded until its tail contributes less than
    1e-12 of its largest coefficient, capped at lag 10^4. With maxlag None
    gamma runs over every lag of psi, and an expansion that reaches the cap
    with its tail still above 1e-12 raises ValueError.
    """
    num = np.atleast_1d(np.asarray(num, dtype=float))
    a = -np.atleast_1d(np.asarray(den, dtype=float))[1:]
    if a.size == 0:
        psi, settled = num, True
    else:
        L = max((maxlag or 0) + 50, 200)
        while True:
            alpha = invert_ar_polynomial(a, L).alpha
            tail = np.abs(alpha[-50:]).max()
            head = np.abs(alpha).max()
            settled = tail <= 1e-12 * head
            if settled or L >= 10 ** 4:
                break
            L = min(2 * L, 10 ** 4)
        psi = np.convolve(num, alpha)[: L + 1]
    if maxlag is None:
        if not settled:
            raise ValueError(f"the impulse response of 1 / den(z) is still {tail / head:.3g} of "
                             "its peak at lag 10^4: a root of den lies too near the unit circle")
        maxlag = psi.size - 1
    gamma = np.array([sigma2 * np.dot(psi[: psi.size - h], psi[h:]) if h < psi.size else 0.0
                      for h in range(maxlag + 1)])
    return ACVF(gamma=gamma, kind="theoretical")


def _draw_companion_innovations(spec: CompanionSpec, seed: dgp.SeedLike, out: np.ndarray) -> None:
    """Fill ``out`` with i.i.d. innovations drawn from ``rng_from(seed)``."""
    if spec.innovation_source == "parametric":
        out[:] = dgp.draw_innovations(spec.payload, out.size, seed)
    else:
        record = np.asarray(spec.payload, dtype=float)
        np.take(record, dgp.rng_from(seed).integers(0, record.size, out.size), out=out)


def build_companion(spec: CompanionSpec, n: int, seed):
    """Companion paths of length n, deterministic given their seeds.

    ``seed`` is one seed, giving one path as a ``Series``, or a list of
    seeds, giving a (len(seed), n) array whose row j is the path of seed[j].
    Each row of innovations is drawn from its own seed, ``spec.burnin``
    leading values included, and the whole block goes through one
    ``dgp.filter_rows`` call (``lfilter`` bit for bit) along its rows. That
    call filters each row exactly as it filters a lone path, so a row equals
    the single path of its seed bit for bit.
    """
    seeds = seed if isinstance(seed, list) else [seed]
    burnin = spec.burnin
    eps = np.empty((len(seeds), n + burnin))
    for row, s in zip(eps, seeds):
        _draw_companion_innovations(spec, s, row)
    x = dgp.filter_rows(spec.num, spec.den, eps)[:, burnin:]
    return x if isinstance(seed, list) else Series(x[0])


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
