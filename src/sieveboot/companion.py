"""The companion-process oracle: the law of a statistic over paths of the
companion autoregressive process, the AR(infinity) process driven by i.i.d.
copies of the Wold innovations, which shares every second-order property of
the original process and whose statistics the sieve bootstrap mimics. The
process is a ``dgp.CompanionSpec``, simulated by ``dgp.build_companion``.
"""
from __future__ import annotations

from . import dgp
from .dgp import build_companion

__all__ = [
    "build_companion",
    "companion_distribution",
]


def companion_distribution(spec: dgp.CompanionSpec, statistic, n: int, M: int,
                           seed: dgp.SeedLike):
    """(law, theta~): the law of c_n (T~ - theta~) over M independent
    companion paths, ``dgp.replicate`` under the oracle key.

    ``statistic`` follows the experiment statistic protocol (evaluate /
    model_center / rate); theta~ is the exact model quantity of the companion
    process.
    """
    return dgp.replicate(spec, statistic, n, M, seed, dgp.KEY_ORACLE)
