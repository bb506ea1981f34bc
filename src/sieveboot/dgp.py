"""Data-generating processes: the linear model [b(z) / a(z)] e, the
noninvertible MA(1) worked example with its Wold innovations, and ARCH(1);
``CompanionSpec``, the rational filter [num(z) / den(z)] eps with num and den
free of roots in the closed unit disk, which is each model's companion and,
as ``sieve.SieveModel``, the fitted sieve, and ``build_companion``, which
simulates it; the two i.i.d. noise laws; the one replication loop,
``replicate``, shared by the bootstrap, the oracle and the truth; and their
filter algebra: [b(z) / a(z)] x, into a new array or in place, its impulse
response, the Wold factorization of a finite MA, and the root radius, which
decides whether a polynomial has a root in the closed unit disk and how many
lags an impulse response takes to settle.

Conventions: an AR model of order p, X_t = sum_k a_k X_{t-k} + e_t, is causal
when A_p(z) = 1 - sum_k a_k z^k has all its roots outside the closed unit
disk. ``sieve``'s ``levinson_durbin`` and ``residuals`` take the a_k; every
function here takes a polynomial 1 + c_1 z + ... + c_p z^p as the array
(1, c_1, .., c_p) a filter holds.

Noise protocol: an i.i.d. law -- an ``InnovationSpec`` family or a
``ResampledRecord`` -- has ``variance`` and ``draw(size, seed)``, ``size``
draws from ``np.random.default_rng(seed)``.

Model protocol: a DGP model is a process (below) with ``companion(seed)``,
its companion process as a ``CompanionSpec``, and ``kurtoses``, the excess
kurtoses (kappa_e, kappa_eps) of its i.i.d. noise and of its Wold
innovations, None where no closed form applies.

Process protocol: a process -- a DGP model here or a ``CompanionSpec``, the
fitted ``SieveModel`` included -- has ``filter``, the rational filter
(num, den, sigma2) of X = [num(z) / den(z)] eps with Var(eps) = sigma2 that
carries its second-order structure; ``burnin``, the leading values each of
its paths drops, which the experiment's memory and work bounds read;
``simulate(n, seeds)``, a C-contiguous (len(seeds), n) float array whose row
j is the path of seeds[j], the same whatever block it is simulated in; and
``tile_rows(n)``, the number of paths ``replicate`` hands one ``simulate``
call. One rule groups paths: ``replicate`` splits a law's seeds into tiles,
and a process simulates exactly the seeds it is handed, in one piece, with
no grouping of its own. A rational filter -- a ``LinearModel`` or a
``CompanionSpec`` -- is a ``RationalProcess``, the one base that gives it
``burnin``, found once: the ``burnin(num, den)`` leading values a
zero-state path drops, q for a finite filter plus the lags den's root radius
takes to fall below ``SETTLE_TOL``; and ``tile_rows(n) = max(1,
TILE_VALUES // (n + burnin))``. Each keeps its own ``simulate``:
``LinearModel`` fills its block one ``simulate_linear`` call per seed, and a
``CompanionSpec`` draws its rows and filters them in one ``filter_rows``
call (``lfilter`` bit for bit). ``Arch1Model``, whose ``burnin`` is
``ARCH1_BURNIN``, asks for the whole chunk, since it steps all the paths of
a call together, one time step at a time, in place. A record of Wold
innovations (``LinearModel.companion`` with a root flipped) goes through the
in-place form of ``filter_rows``, ``filter_in_place``, the same bits
``TILE_VALUES`` values at a time, so the record is held once. ``replicate``
hashes the seeds of consecutive chunks of ``max(1, BATCH_VALUES // n)``
paths in one ``derive_seeds`` call each, then hands the process a tile of
``tile_rows(n)`` of those seeds per ``simulate`` call; it checks that tile's
block finite once, hands it to the statistic's ``transform`` once -- the
block itself, or one FFT of it for a spectral statistic -- and evaluates the
statistic once per row of what that returns, before it simulates the next
tile. Neither the chunk nor the tile changes a bit of any path. A path is a
plain 1-d float array, a row of a block; an experiment's data path passes
the same ``check_finite`` as every block.

Seeding: every simulator is deterministic given (model, n, seed). Distinct
replications must use distinct derived seeds; the canonical derivation rule is
``derive_seed(base_seed, *indices)`` which builds a ``numpy`` SeedSequence with
the indices as spawn key. The whole package uses this rule. Path i of a law
comes from ``derive_seed(seed, key, i)`` whatever the chunk it is simulated
in, so a law does not depend on the chunk size. ``replicate`` gets those
seeds from ``derive_seeds(seed, key, lo, hi)``, which runs numpy's
SeedSequence hash over a whole chunk of indices at once, as uint32 array
arithmetic, and returns one ``PathSeed`` per path: the four uint64 words that
path's SeedSequence gives PCG64. ``np.random.default_rng`` of a ``PathSeed``
is therefore the generator of ``derive_seed(seed, key, i)`` bit for bit,
built without a SeedSequence per path.
"""
from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import numbers
import sys
from dataclasses import dataclass, field
from functools import cache, cached_property, partial
from pathlib import Path
from typing import Union

import numpy as np

from .series import EmpiricalLaw

__all__ = [
    "InnovationSpec",
    "ResampledRecord",
    "RationalProcess",
    "CompanionSpec",
    "build_companion",
    "LinearModel",
    "Arch1Model",
    "COMPANION_RECORD_LENGTH",
    "BATCH_VALUES",
    "TILE_VALUES",
    "derive_seed",
    "derive_seeds",
    "PathSeed",
    "replicate",
    "check_finite",
    "simulate_linear",
    "simulate_ar",
    "ma1_example",
    "simulate_arch1",
    "ARCH1_BURNIN",
    "InversionError",
    "filter_rows",
    "filter_in_place",
    "impulse_response",
    "root_radius",
    "check_roots_outside_disk",
    "burnin",
    "wold_factorization",
    "model_from_json",
]

_FAMILIES = ("gaussian", "centered_exponential", "centered_uniform")

# Excess kurtoses E e^4 / sigma^4 - 3 per innovation family.
_EXCESS_KURTOSIS = {"gaussian": 0.0, "centered_exponential": 6.0, "centered_uniform": -1.2}

# Keys a model document may hold, per family.
_MODEL_KEYS = {
    "linear": {"family", "coefficients", "innovation"},
    "ar": {"family", "coefficients", "innovation"},
    "arch1": {"family", "coefficients"},
}

SeedLike = Union[int, np.random.SeedSequence]

# Values in a chunk of paths: ``replicate`` hashes the seeds of a chunk
# together, and an ARCH(1) block is a whole chunk, stepped one time step at a
# time, so each hash and each time step's overhead is spread over many paths.
BATCH_VALUES = 1 << 19

# Values, burn-in included, in a tile of a rational filter's paths: the seeds
# ``replicate`` hands one simulate call, whose paths it draws, filters,
# transforms and evaluates before the next, and what is filtered, and then
# squared for its variance, at a time while a companion record is built in
# place. A larger tile holds more memory at once, a smaller one pays each
# call's overhead more often.
TILE_VALUES = 1 << 16

# Spawn-key namespaces of derived seeds: bootstrap replications, oracle
# replications, truth replications, the companion's innovation record and the
# observed data realization.
KEY_BOOT, KEY_ORACLE, KEY_TRUTH, KEY_COMPANION_RECORD, KEY_DATA = 0, 1, 2, 5, 9

# Values in the record of innovations that a companion process resamples, and
# the number of independent ARCH(1) chains that make up an ARCH(1) record.
COMPANION_RECORD_LENGTH = 10 ** 6
_ARCH_RECORD_CHAINS = 100

ARCH1_BURNIN = 1000  # ARCH(1) is no rational filter, so no root radius sets its burn-in


def _entropy_and_key(base: SeedLike, indices) -> tuple:
    if isinstance(base, np.random.SeedSequence):
        return base.entropy, tuple(base.spawn_key) + tuple(indices)
    return int(base), tuple(indices)


def derive_seed(base: SeedLike, *indices: int) -> np.random.SeedSequence:
    """Child seed for a replication index (or any integer key path)."""
    entropy, key = _entropy_and_key(base, indices)
    return np.random.SeedSequence(entropy=entropy, spawn_key=key)


class PathSeed(np.random.bit_generator.ISeedSequence):
    """The seed of one path: the four uint64 words that its ``SeedSequence``
    gives a PCG64 generator, so ``default_rng(path_seed)`` is that
    sequence's generator bit for bit."""

    __slots__ = ("state",)

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("a PathSeed holds only the 4 uint64 words that PCG64 requests, "
                             f"not {n_words} of {np.dtype(dtype)}")
        return self.state


# numpy's SeedSequence hash (numpy.random.bit_generator): the hash constants
# and multipliers of its entropy pool and of its output, and those of the
# function that mixes two pool words.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _uint32_words(value) -> list:
    """A nonnegative int, or a sequence of them, as numpy's SeedSequence
    splits it: 32-bit words, least significant first, one word for 0."""
    if not isinstance(value, (int, np.integer)):
        return [w for v in value for w in _uint32_words(v)]
    value = int(value)
    if value < 0:
        raise ValueError(f"seed words must be nonnegative, got {value}")
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


# The hash below takes each word as a Python int or as a uint32 array, one
# element per sequence: words that all the sequences share are hashed once,
# in Python ints, and the per-sequence words elementwise.

class _HashMix:
    """SeedSequence's hashmix, with its running hash constant."""

    def __init__(self, init: int, mult: int):
        self.const, self.mult = init, mult

    def __call__(self, value):
        self.const, xor = self.const * self.mult & _MASK32, self.const
        value = (value ^ xor) * self.const & _MASK32
        return value ^ value >> 16


def _mix(x, y):
    result = ((_MIX_MULT_L * x & _MASK32) - (_MIX_MULT_R * y & _MASK32)) & _MASK32
    return result ^ result >> 16


def _pcg64_states(words: list) -> np.ndarray:
    """(k, 4) uint64: ``generate_state(4, np.uint64)`` of the k
    SeedSequences whose assembled entropy is ``words``; at least one word is
    a uint32 array of length k."""
    hashmix = _HashMix(_INIT_A, _MULT_A)
    pool = [hashmix(w) for w in words[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for w in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(w))
    hashmix = _HashMix(_INIT_B, _MULT_B)
    out = [hashmix(pool[i % _POOL_SIZE]).astype(np.uint64) for i in range(2 * _POOL_SIZE)]
    return np.stack([out[j] | out[j + 1] << 32 for j in range(0, len(out), 2)], axis=1)


def derive_seeds(base: SeedLike, key: int, lo: int, hi: int) -> list:
    """[PathSeed] of ``derive_seed(base, key, i)`` for i in range(lo, hi),
    hashed together: numpy's SeedSequence mixing, written as uint32
    arithmetic over all the indices at once. Indices are below 2^32, the
    one-word indices of any law."""
    if not 0 <= lo <= hi <= 1 << 32:
        raise ValueError(f"indices must satisfy 0 <= lo <= hi <= 2^32, got {lo}, {hi}")
    entropy, key = _entropy_and_key(base, (key,))
    run = _uint32_words(entropy)
    head = run + [0] * (_POOL_SIZE - len(run)) + _uint32_words(key)
    states = _pcg64_states(head + [np.arange(lo, hi, dtype=np.uint32)])
    states.flags.writeable = False
    return list(map(PathSeed, states))


def replicate(process, statistic, n: int, count: int, seed: SeedLike, key: int):
    """(law, theta): the law of rate(n) (T - theta) over ``count`` paths of
    ``process``, path i simulated from ``derive_seed(seed, key, i)``, where
    theta is the statistic's exact value under ``process.filter``.

    The seeds are derived in consecutive chunks of ``max(1, BATCH_VALUES //
    n)`` and simulated ``process.tile_rows(n)`` at a time, one
    ``process.simulate`` call per tile. Each block is built and handed to
    ``_evaluate_rows`` in one statement, so no name holds it and it is freed
    before the next is built. ``EmpiricalLaw`` refuses a statistic that overflows.
    """
    theta = statistic.model_center(*process.filter, n)
    vals = np.empty(count)
    with np.errstate(over="ignore", invalid="ignore"):
        for lo, seeds in _tiles(seed, key, count, n, process.tile_rows(n)):
            vals[lo:lo + len(seeds)] = _evaluate_rows(statistic, process.simulate(n, seeds))
        return EmpiricalLaw(statistic.rate(n) * (vals - theta)), float(theta)


def _tiles(seed: SeedLike, key: int, count: int, n: int, rows: int):
    """(lo, seeds) per tile of at most ``rows`` of the ``count`` paths, lo the
    index of its first path: the seeds of each chunk of ``max(1,
    BATCH_VALUES // n)`` paths come from one ``derive_seeds`` call."""
    chunk = max(1, BATCH_VALUES // n)
    for lo in range(0, count, chunk):
        seeds = derive_seeds(seed, key, lo, min(lo + chunk, count))
        for t in range(0, len(seeds), rows):
            yield lo + t, seeds[t:t + rows]


def _evaluate_rows(statistic, block: np.ndarray) -> list:
    """``statistic.evaluate`` of each row of ``statistic.transform`` of a
    simulated block, after one ``check_finite`` of the whole block."""
    return [statistic.evaluate(row) for row in statistic.transform(check_finite(block))]


def check_finite(block: np.ndarray) -> np.ndarray:
    """``block`` itself, once every value of it is checked finite: the one
    check of every simulated array, a block of paths or the data path."""
    if not np.isfinite(block).all():
        raise ValueError("series values must be finite")
    return block


@dataclass(frozen=True)
class InnovationSpec:
    """An i.i.d. innovation family with mean 0 and standard deviation `scale`."""

    family: str = "gaussian"
    scale: float = 1.0

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown innovation family {self.family!r}")
        if not (self.scale > 0 and 0 < self.scale * self.scale < math.inf):
            raise ValueError(f"scale must be positive, its square positive and finite, got "
                             f"{self.scale!r}")

    @property
    def excess_kurtosis(self) -> float:
        """E e^4 / (E e^2)^2 - 3."""
        return _EXCESS_KURTOSIS[self.family]

    @property
    def variance(self) -> float:
        return float(self.scale ** 2)

    def draw(self, size: int, seed: SeedLike) -> np.ndarray:
        """size i.i.d. draws with mean 0 and variance scale^2."""
        rng = np.random.default_rng(seed)
        if self.family == "gaussian":
            e = rng.standard_normal(size)
        elif self.family == "centered_exponential":
            e = rng.standard_exponential(size)
            e -= 1.0
        else:  # centered_uniform, variance 1 on [-sqrt(3), sqrt(3)]
            e = rng.uniform(-math.sqrt(3.0), math.sqrt(3.0), size)
        e *= self.scale
        return e


def _sum_of_squares(v: np.ndarray) -> np.float64:
    """``np.add.reduce(v * v)`` of a 1-d float64 v, bit for bit, holding at
    most TILE_VALUES squares at once: it splits v where numpy's pairwise
    sum splits it, n // 2 less its remainder mod 8, down to leaves that one
    ``np.add.reduce`` sums exactly as it would inside the whole.

    Written at module level: a recursive closure would form a reference cycle
    that keeps each record alive until the cyclic collector runs.
    """
    if v.size <= TILE_VALUES:
        return np.add.reduce(v * v)
    half = v.size // 2
    half -= half % 8
    return _sum_of_squares(v[:half]) + _sum_of_squares(v[half:])


@dataclass(frozen=True)
class ResampledRecord:
    """The i.i.d. law that draws with replacement from a record of values."""

    values: np.ndarray

    @property
    def variance(self) -> float:
        """The record's population variance, ``np.mean(v ** 2) - np.mean(v) ** 2``
        bit for bit, with no record-sized square: ``_sum_of_squares`` adds the
        squares in numpy's pairwise order, a leaf at a time."""
        v = self.values
        return float(_sum_of_squares(v) / v.size - np.mean(v) ** 2)

    def draw(self, size: int, seed: SeedLike) -> np.ndarray:
        return self.values[np.random.default_rng(seed).integers(0, self.values.size, size)]


class InversionError(ValueError):
    """Raised when an AR polynomial has a root in the closed unit disk."""


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


@cache
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


class RationalProcess:
    """A rational filter X = [num(z) / den(z)] eps: the base of ``LinearModel``
    and ``CompanionSpec``, which give its ``filter`` and ``simulate``."""

    @cached_property
    def burnin(self) -> int:
        """``burnin`` of the filter, found once per process."""
        return burnin(*self.filter[:2])

    def tile_rows(self, n: int) -> int:
        return max(1, TILE_VALUES // (n + self.burnin))


@dataclass(frozen=True)
class CompanionSpec(RationalProcess):
    """The rational filter num(z) / den(z) driven by i.i.d. draws from
    ``noise``, which has ``variance`` and ``draw(size, seed)``; num and den
    are polynomials 1 + c_1 z + ... with no root in |z| <= 1, and the noise
    variance, read here, before any path, is a positive finite float."""

    num: np.ndarray
    den: np.ndarray
    noise: object

    def __post_init__(self):
        for name, label in (("num", "numerator"), ("den", "denominator")):
            c = np.atleast_1d(np.asarray(getattr(self, name), dtype=float))
            if c.ndim != 1 or c[0] != 1.0:
                raise ValueError(f"companion {label} polynomial must start with 1")
            check_roots_outside_disk(c, f"companion {label} polynomial")
            object.__setattr__(self, name, c)
        with np.errstate(over="ignore"):
            sigma2 = self.filter[2]
        if not 0 < sigma2 < math.inf:
            raise ValueError("companion noise variance must be a positive finite float: the "
                             "second moment of its noise overflows or underflows float64")

    @cached_property
    def filter(self):
        return self.num, self.den, self.noise.variance

    def simulate(self, n: int, seeds) -> np.ndarray:
        return build_companion(self, n, seeds)


def build_companion(spec: CompanionSpec, n: int, seeds) -> np.ndarray:
    """Companion paths of length n, deterministic given their seeds: a
    C-contiguous (len(seeds), n) array whose row j is the path of seeds[j].

    It simulates exactly the seeds it is handed; ``replicate`` alone splits a
    law's seeds into tiles. Each row's innovations, ``spec.burnin`` leading
    values included, are drawn from its own seed, and the rows go through one
    ``filter_rows`` call (``lfilter`` bit for bit), which filters each row
    exactly as it filters a lone path. The outputs past the burn-in come back
    through ``np.ascontiguousarray``: one copy, none when the burn-in is 0.
    No name holds the draws, so at most two arrays of the call's size are
    alive at once.
    """
    return np.ascontiguousarray(filter_rows(
        spec.num, spec.den, _seeded_rows(spec.noise.draw, n + spec.burnin, seeds)
    )[:, spec.burnin:])


@dataclass(frozen=True)
class LinearModel(RationalProcess):
    """X = [b(z) / a(z)] e with b(z) = 1 + sum_j b_j z^j, a causal
    a(z) = 1 - sum_k a_k z^k and i.i.d. e: a finite MA when ``a`` is
    empty, an AR when ``b`` is."""

    b: tuple = ()
    a: tuple = ()
    innovations: InnovationSpec = field(default_factory=InnovationSpec)

    def __post_init__(self):
        for name, kind in (("b", "MA"), ("a", "AR")):
            coeffs = tuple(float(v) for v in getattr(self, name))
            if not all(math.isfinite(v) for v in coeffs):
                raise ValueError(f"{kind} coefficients must be finite")
            object.__setattr__(self, name, coeffs)
        check_roots_outside_disk(self.filter[1])

    @cached_property
    def filter(self):
        """(num, den, sigma2), built once per model, num and den read-only."""
        num, den = np.concatenate([[1.0], self.b]), np.concatenate([[1.0], -np.asarray(self.a)])
        num.flags.writeable = den.flags.writeable = False
        return num, den, self.innovations.variance

    def simulate(self, n: int, seeds) -> np.ndarray:
        return _seeded_rows(partial(simulate_linear, self), n, seeds)

    def companion(self, record_seed: SeedLike):
        """[b~(z) / a(z)] eps, b~ the Wold polynomial of ``wold_factorization``.
        With no root flipped, eps = e: the model is its own companion.
        Otherwise eps = [b(z) / b~(z)] e is white but not i.i.d., and is
        resampled from a record of it past the filter's transient: fresh e,
        overwritten in place with its filtered values ``TILE_VALUES`` at a
        time (``filter_in_place``, ``filter_rows`` bit for bit), so the
        record is the one array held."""
        b, den, _ = self.filter
        num, _, psi = wold_factorization(b)
        if psi.size == 1:
            return CompanionSpec(b, den, self.innovations)
        e = self.innovations.draw(COMPANION_RECORD_LENGTH + psi.size - 1, record_seed)
        filter_in_place(b, num, e, TILE_VALUES)
        return CompanionSpec(num, den, ResampledRecord(e[psi.size - 1:]))

    @property
    def kurtoses(self):
        """kappa_eps = kappa_e sum psi^4 / (sum psi^2)^2 over the all-pass
        response psi from e to the Wold innovations (psi = 1 for an AR)."""
        kappa = self.innovations.excess_kurtosis
        psi = wold_factorization(self.filter[0])[2]
        return kappa, float(kappa * np.sum(psi ** 4) / np.sum(psi ** 2) ** 2)


@dataclass(frozen=True)
class Arch1Model:
    """ARCH(1): X_t = sigma_t Z_t, sigma_t^2 = omega + alpha1 X_{t-1}^2."""

    omega: float = 1.0
    alpha1: float = 0.0
    burnin = ARCH1_BURNIN

    def __post_init__(self):
        if not (math.isfinite(self.omega) and self.omega > 0):
            raise ValueError(f"omega must be positive and finite, got {self.omega!r}")
        if not 0 <= self.alpha1 < 1:
            raise ValueError("alpha1 must lie in [0, 1)")
        if 3.0 * self.alpha1 ** 2 >= 1.0:
            raise ValueError("finite fourth moment requires 3*alpha1^2 < 1")

    @property
    def filter(self):
        """White noise in the second-order sense, with the stationary variance."""
        return np.ones(1), np.ones(1), self.omega / (1.0 - self.alpha1)

    def tile_rows(self, n: int) -> int:
        """The whole chunk: the recursion steps all the paths of a call together."""
        return max(1, BATCH_VALUES // n)

    def simulate(self, n: int, seeds) -> np.ndarray:
        return simulate_arch1(self, n, seeds)

    def companion(self, record_seed: SeedLike):
        """White noise in the Wold sense: the trivial filter, innovations
        sharing the marginal law of X, resampled from a record made of
        independent chains stepped together, one after another."""
        seeds = [derive_seed(record_seed, j) for j in range(_ARCH_RECORD_CHAINS)]
        chains = simulate_arch1(self, COMPANION_RECORD_LENGTH // _ARCH_RECORD_CHAINS, seeds)
        return CompanionSpec([1.0], [1.0], ResampledRecord(check_finite(chains).ravel()))

    @property
    def kurtoses(self):
        """(None, 6 alpha1^2 / (1 - 3 alpha1^2)): X is not linear in i.i.d.
        noise, and its companion is i.i.d. with the marginal law of X. At
        alpha1 = 0, X is i.i.d. N(0, omega), linear in itself: (0, 0)."""
        alpha_sq = self.alpha1 ** 2
        return (None if alpha_sq else 0.0), 6.0 * alpha_sq / (1.0 - 3.0 * alpha_sq)


def simulate_linear(model: LinearModel, n: int, seed: SeedLike) -> np.ndarray:
    """The path array of X = [b(z) / a(z)] e: n + ``model.burnin``
    innovations filtered from zero state, the first ``model.burnin`` outputs,
    the transient, dropped.

    A finite MA goes through one ``np.convolve``, cut to the outputs that see
    all q + 1 taps, the values ``filter_rows`` (and scipy's FIR ``lfilter``)
    give; a model with a denominator goes through ``filter_rows``.
    """
    num, den, _ = model.filter
    drop = model.burnin
    e = model.innovations.draw(n + drop, seed)
    if den.size == 1:
        return np.convolve(num, e)[drop:n + drop]
    return filter_rows(num, den, e)[drop:]


# A second name that ``benchmarks/tracing.py``'s FUNCTION_SPANS looks up.
simulate_ar = simulate_linear


def _seeded_rows(path, width: int, seeds) -> np.ndarray:
    """(len(seeds), width): row j is ``path(width, seeds[j])``, the path of a
    model or the draws of a noise law."""
    out = np.empty((len(seeds), width))
    for row, s in zip(out, seeds):
        row[:] = path(width, s)
    return out


def ma1_example(n: int, seed: SeedLike, innovations: InnovationSpec | None = None):
    """The noninvertible MA(1) worked example.

    Returns three arrays (X, e, ve), where
    ve_t = e_t - (3/2) sum_{j>=1} (1/2)^{j-1} e_{t-j} is the Wold innovation
    of X, computed with the exact recursive all-pass filter
    (1 - 2z) / (1 - z/2) of ``wold_factorization``, of constant gain 2.
    Because only one pre-sample innovation is drawn (so that X matches
    ``simulate_linear`` with b = (-2) seed-for-seed), the first 60 values of
    ve are burn-in and must be excluded from moment checks.
    """
    b = np.array([1.0, -2.0])
    e_full = (innovations or InnovationSpec()).draw(n + 1, seed)
    x = filter_rows(b, [1.0], e_full)[1:]
    ve = filter_rows(b, wold_factorization(b)[0], e_full)[1:]
    return x, e_full[1:], ve


def simulate_arch1(model: Arch1Model, n: int, seeds) -> np.ndarray:
    """ARCH(1) recursion x_t = sqrt(omega + alpha1 x_{t-1}^2) z_t from zero
    state, z_t standard normal drawn from ``np.random.default_rng(seed)``;
    the first ``model.burnin`` values are dropped.

    Returns a C-contiguous (len(seeds), n) array whose row j is the path of
    seeds[j]. Each path keeps one generator and draws its burn-in multipliers
    into its own output row, at most n at a time, then its n kept ones: the
    stream of a single draw of n + burn-in. After each piece is drawn, the
    paths advance together one time step at a time, a column overwritten in
    place, each element through the same IEEE operations as a path of its
    own, so a row equals the single path of its seed bit for bit. The state
    goes into the next piece as a copy, as its draws overwrite its column.
    A path that overflows float64 holds inf or NaN, with no warning; the
    finiteness check of its block rejects it.
    """
    out = np.empty((len(seeds), n))
    rngs = [np.random.default_rng(s) for s in seeds]
    var = np.empty(len(seeds))
    prev = np.zeros(len(seeds))
    widths = [min(n, model.burnin - t) for t in range(0, model.burnin, n)] + [n]
    with np.errstate(over="ignore", invalid="ignore"):
        for width in widths:
            piece = out[:, :width]
            for rng, row in zip(rngs, piece):
                rng.standard_normal(out=row)
            for col in piece.T:  # z_t is overwritten by x_t
                np.multiply(prev, prev, out=var)
                var *= model.alpha1
                var += model.omega
                np.sqrt(var, out=var)
                col *= var
                prev = col
            prev = prev.copy()
    return out


def _number(value, name: str) -> float:
    """value as a float, rejected naming ``name`` unless it is a real number,
    not a bool, that a float can hold: a JSON integer past 1.8e308 is not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} must be a number, got an integer too large for a float") from None


def model_from_json(doc):
    """The model of a decoded JSON document: ``linear`` coefficients are b,
    ``ar`` coefficients a, of a ``LinearModel``.

    Raises ValueError, naming the field, on an unknown family or key,
    coefficients that are not a list of numbers ([omega, alpha1] for arch1),
    an innovation that is not an object of family and scale, a number too
    large for a float, or a value the model's constructor rejects.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"model must be an object, got {doc!r}")
    family = doc.get("family")
    if not isinstance(family, str) or family not in _MODEL_KEYS:
        raise ValueError(f"unknown model family {family!r}; known: {', '.join(_MODEL_KEYS)}")
    extra = set(doc) - _MODEL_KEYS[family]
    if extra:
        raise ValueError(f"unknown keys for model family {family!r}: {sorted(extra)}")
    coeffs = doc.get("coefficients", [])
    if not isinstance(coeffs, list):
        raise ValueError(f"coefficients must be a list of numbers, got {coeffs!r}")
    coeffs = tuple(_number(v, f"coefficients[{i}]") for i, v in enumerate(coeffs))
    if family == "arch1":
        if len(coeffs) != 2:
            raise ValueError(f"arch1 coefficients must be [omega, alpha1], got {list(coeffs)}")
        return Arch1Model(*coeffs)
    innov = doc.get("innovation", {})
    if not isinstance(innov, dict) or set(innov) - {"family", "scale"}:
        raise ValueError(f"innovation must be an object with keys family, scale; got {innov!r}")
    scale = _number(innov.get("scale", 1.0), "innovation scale")
    spec = InnovationSpec(family=innov.get("family", "gaussian"), scale=scale)
    return LinearModel(**{"b" if family == "linear" else "a": coeffs}, innovations=spec)
