"""The companion autoregressive process: the AR(infinity) process driven by
i.i.d. copies of the Wold innovations, sharing all second-order properties
with the original process. The sieve bootstrap mimics statistics of this
process, which is why it is the natural oracle for validity checks.

A companion process is carried as the exact rational filter
X = [num(z) / den(z)] eps, with num and den polynomials in the backshift z
starting at 1 and with no root in the closed unit disk; num(z) / den(z) is
then the MA(infinity) form of the AR(infinity) process den(z) / num(z) X = eps.
The noise eps is any i.i.d. law of the noise protocol of ``dgp``: an
``InnovationSpec`` family, or a ``ResampledRecord`` of Wold innovations. The
fitted sieve is itself such a companion: ``sieve.SieveModel`` is a
``CompanionSpec`` holding the fitted filter 1 / (1 - sum a_k z^k) driven by a
``ResampledRecord`` of its residuals. den's root radius sets a path's burn-in
and how far ``rational_acvf`` carries the impulse response behind its ACVF.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import dgp
from .ar import _settle_lag, burnin, check_roots_outside_disk, impulse_response

__all__ = [
    "CompanionSpec",
    "rational_acvf",
    "build_companion",
    "companion_distribution",
]


def _filter_polynomial(c, label: str) -> np.ndarray:
    """Validate a filter polynomial 1 + c_1 z + ... with no root in |z| <= 1."""
    c = np.atleast_1d(np.asarray(c, dtype=float))
    if c.ndim != 1 or c[0] != 1.0:
        raise ValueError(f"companion {label} polynomial must start with 1")
    check_roots_outside_disk(-c[1:], f"companion {label} polynomial")
    return c


@dataclass(frozen=True)
class CompanionSpec:
    """The rational filter num(z) / den(z) driven by i.i.d. draws from
    ``noise``, which has ``variance`` and ``draw(size, seed)``."""

    num: np.ndarray
    den: np.ndarray
    noise: object

    def __post_init__(self):
        object.__setattr__(self, "num", _filter_polynomial(self.num, "numerator"))
        object.__setattr__(self, "den", _filter_polynomial(self.den, "denominator"))

    @property
    def filter(self):
        return self.num, self.den, self.noise.variance

    @cached_property
    def burnin(self) -> int:
        """Leading outputs dropped from each path, ``ar.burnin`` of the filter,
        found once per spec: q for a finite one, plus the lags den's root
        radius takes to settle."""
        return burnin(self.num, self.den)

    def tile_rows(self, n: int) -> int:
        return max(1, dgp.TILE_VALUES // (n + self.burnin))

    def simulate(self, n: int, seeds) -> np.ndarray:
        return build_companion(self, n, seeds)


def rational_acvf(num, den, sigma2: float, lags=None) -> np.ndarray:
    """Autocovariances gamma(h) = sigma2 sum_j psi_j psi_{j+h} of the process
    [num(z) / den(z)] eps, for each h in ``lags``: one lagged dot product per
    lag asked for. psi is num itself when den = 1, else the filter's impulse
    response carried max(lags) + t terms past num, t the first lag with
    rho^t < 1e-12 for rho the root radius of den, capped at 10^4. With lags
    None gamma runs over every lag of psi, from one ``np.correlate`` of psi
    with itself, and t past the cap raises ValueError.
    """
    num = np.atleast_1d(np.asarray(num, dtype=float))
    den = np.atleast_1d(np.asarray(den, dtype=float))
    rho = check_roots_outside_disk(-den[1:], "companion denominator")
    settle = _settle_lag(rho, 1e-12)
    psi = num if den.size == 1 else impulse_response(
        num, den, num.size + max(lags or [0]) + min(settle, 10 ** 4))
    if lags is None:
        if settle > 10 ** 4:  # rho at or above 1e-12^(1 / 10^4), about 0.9972407
            raise ValueError(f"the impulse response of 1 / den(z) takes {settle} lags to fall "
                             f"below 1e-12, past the cap of 10^4: a root of den lies too near "
                             f"the unit circle, root radius {rho:.12g}")
        return sigma2 * np.correlate(psi, psi, "full")[psi.size - 1:]
    return np.array([sigma2 * np.dot(psi[: psi.size - h], psi[h:]) if h < psi.size else 0.0
                     for h in lags])


def build_companion(spec: CompanionSpec, n: int, seeds) -> np.ndarray:
    """Companion paths of length n, deterministic given their seeds: a
    C-contiguous (len(seeds), n) array whose row j is the path of seeds[j].

    It simulates exactly the seeds it is handed; ``dgp.replicate`` alone
    splits a law's seeds into tiles. Each row's innovations, ``spec.burnin``
    leading values included, are drawn from its own seed, and the rows go
    through one ``dgp.filter_rows`` call (``lfilter`` bit for bit), which
    filters each row exactly as it filters a lone path. The outputs past the
    burn-in come back through ``np.ascontiguousarray``: one copy, none when
    the burn-in is 0. No name holds the draws, so at most two arrays of the
    call's size are alive at once.
    """
    return np.ascontiguousarray(dgp.filter_rows(
        spec.num, spec.den, dgp._seeded_rows(spec.noise.draw, n + spec.burnin, seeds)
    )[:, spec.burnin:])


def companion_distribution(spec: CompanionSpec, statistic, n: int, M: int, seed: dgp.SeedLike):
    """(law, theta~): the law of c_n (T~ - theta~) over M independent
    companion paths, ``dgp.replicate`` under the oracle key.

    ``statistic`` follows the experiment statistic protocol (evaluate /
    model_center / rate); theta~ is the exact model quantity of the companion
    process.
    """
    if M < 200:
        raise ValueError("M must be at least 200")
    return dgp.replicate(spec, statistic, n, M, seed, dgp.KEY_ORACLE)
