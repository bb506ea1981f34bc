"""Data-generating processes: the linear model [b(z) / a(z)] e, the
noninvertible MA(1) worked example with its Wold innovations, and ARCH(1);
the two i.i.d. noise laws; and the one replication loop, ``replicate``,
shared by the bootstrap, the oracle and the truth.

Noise protocol: an i.i.d. law -- an ``InnovationSpec`` family or a
``ResampledRecord`` -- has ``variance`` and ``draw(size, seed)``, ``size``
draws from ``rng_from(seed)``.

Model protocol: a DGP model is a process (below) with ``companion(seed)``,
its companion process as a ``CompanionSpec``, and ``kurtoses``, the excess
kurtoses (kappa_e, kappa_eps) of its i.i.d. noise and of its Wold
innovations, None where no closed form applies.

Process protocol: a process -- a DGP model here or a ``CompanionSpec``, the
fitted ``SieveModel`` included -- has ``filter``, the rational filter
(num, den, sigma2) of X = [num(z) / den(z)] eps with Var(eps) = sigma2 that
carries its second-order structure; ``simulate(n, seeds)``, a C-contiguous
(len(seeds), n) float array whose row j is the path of seeds[j], the same
whatever block it is simulated in; and ``tile_rows(n)``, the number of paths
``replicate`` hands one ``simulate`` call. One rule groups paths:
``replicate`` splits a law's seeds into tiles, and a process simulates
exactly the seeds it is handed, in one piece, with no grouping of its own. A
rational filter -- a ``LinearModel`` or a ``CompanionSpec`` -- asks for
tiles of ``max(1, TILE_VALUES // (n + burn-in))`` paths: ``LinearModel``
fills its block one ``simulate_linear`` call per seed, or one
``simulate_ar`` call when it has a denominator, and a ``CompanionSpec``
draws its rows and filters them in one ``filter_rows`` call (``lfilter``
bit for bit). ``Arch1Model`` asks for the whole chunk, since it steps all
the paths of a call together, one time step at a time, in place. A linear
path starts from zero state and drops ``ar.burnin(num, den)`` leading
values: q for a finite filter, plus the lags the root radius of den takes to
fall below ``ar.SETTLE_TOL``. An ARCH(1) path drops ``ARCH1_BURNIN``.
``filter_rows`` is ``ar.filter_rows``, imported here; a record of Wold
innovations (``LinearModel.companion`` with a root flipped) goes through its
in-place form ``ar.filter_in_place``, the same bits ``TILE_VALUES`` values
at a time, so the record is held once. ``replicate`` hashes the seeds of
consecutive chunks of ``max(1, BATCH_VALUES // n)`` paths in one
``derive_seeds`` call each, then hands the process a tile of ``tile_rows(n)``
of those seeds per ``simulate`` call; it checks that tile's block finite
once, hands it to the statistic's ``transform`` once -- the block itself, or
one FFT of it for a spectral statistic -- and evaluates the statistic once
per row of what that returns, before it simulates the next tile. Neither the
chunk nor the tile changes a bit of any path. A path is a plain 1-d float
array, a row of a block; an experiment's data path passes the same
``check_finite`` as every block.

Seeding: every simulator is deterministic given (model, n, seed). Distinct
replications must use distinct derived seeds; the canonical derivation rule is
``derive_seed(base_seed, *indices)`` which builds a ``numpy`` SeedSequence with
the indices as spawn key. The whole package uses this rule. Path i of a law
comes from ``derive_seed(seed, key, i)`` whatever the chunk it is simulated
in, so a law does not depend on the chunk size. ``replicate`` gets those
seeds from ``derive_seeds(seed, key, lo, hi)``, which runs numpy's
SeedSequence hash over a whole chunk of indices at once, as uint32 array
arithmetic, and returns one ``PathSeed`` per path: the four uint64 words that
path's SeedSequence gives PCG64. ``rng_from`` of a ``PathSeed`` is therefore
the generator of ``derive_seed(seed, key, i)`` bit for bit, built without
a SeedSequence per path.
"""
from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Union

import numpy as np

from .ar import burnin, check_roots_outside_disk, filter_in_place, filter_rows, wold_factorization
from .series import EmpiricalLaw

__all__ = [
    "InnovationSpec",
    "ResampledRecord",
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
    "rng_from",
    "simulate_linear",
    "simulate_ar",
    "ma1_example",
    "ma1_model",
    "simulate_arch1",
    "ARCH1_BURNIN",
    "filter_rows",
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
# transforms and evaluates before the next, and what is filtered at a time
# while a companion record is built in place. A larger tile holds more memory
# at once, a smaller one pays each call's overhead more often.
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
    before the next is built.
    """
    theta = statistic.model_center(*process.filter, n)
    vals = np.empty(count)
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


def rng_from(seed: SeedLike) -> np.random.Generator:
    """The PCG64 generator of a SeedSequence, a PathSeed or an int."""
    if not isinstance(seed, np.random.bit_generator.ISeedSequence):
        seed = np.random.SeedSequence(int(seed))
    return np.random.default_rng(seed)


@dataclass(frozen=True)
class InnovationSpec:
    """An i.i.d. innovation family with mean 0 and standard deviation `scale`."""

    family: str = "gaussian"
    scale: float = 1.0

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown innovation family {self.family!r}")
        if not (self.scale > 0 and math.isfinite(self.scale * self.scale)):
            raise ValueError(f"scale must be positive with a finite square, got {self.scale!r}")

    @property
    def excess_kurtosis(self) -> float:
        """E e^4 / (E e^2)^2 - 3."""
        return _EXCESS_KURTOSIS[self.family]

    @property
    def variance(self) -> float:
        return float(self.scale ** 2)

    def draw(self, size: int, seed: SeedLike) -> np.ndarray:
        """size i.i.d. draws with mean 0 and variance scale^2."""
        rng = rng_from(seed)
        if self.family == "gaussian":
            e = rng.standard_normal(size)
        elif self.family == "centered_exponential":
            e = rng.standard_exponential(size)
            e -= 1.0
        else:  # centered_uniform, variance 1 on [-sqrt(3), sqrt(3)]
            e = rng.uniform(-math.sqrt(3.0), math.sqrt(3.0), size)
        e *= self.scale
        return e


# Values whose squares one leaf of ``_sum_of_squares`` holds at once.
_SQUARES_LEAF = 1 << 14


def _sum_of_squares(v: np.ndarray) -> np.float64:
    """``np.add.reduce(v * v)`` of a 1-d float64 v, bit for bit, holding at
    most _SQUARES_LEAF squares at once: it splits v where numpy's pairwise
    sum splits it, n // 2 less its remainder mod 8, down to leaves that one
    ``np.add.reduce`` sums exactly as it would inside the whole.

    Written at module level: a recursive closure would form a reference cycle
    that keeps each record alive until the cyclic collector runs.
    """
    if v.size <= _SQUARES_LEAF:
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
        return self.values[rng_from(seed).integers(0, self.values.size, size)]


@dataclass(frozen=True)
class LinearModel:
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
        check_roots_outside_disk(self.a)

    @cached_property
    def filter(self):
        """(num, den, sigma2), built once per model, num and den read-only."""
        num, den = np.concatenate([[1.0], self.b]), np.concatenate([[1.0], -np.asarray(self.a)])
        num.flags.writeable = den.flags.writeable = False
        return num, den, self.innovations.variance

    @cached_property
    def burnin(self) -> int:
        """``ar.burnin`` of the filter, found once per model."""
        return burnin(*self.filter[:2])

    def tile_rows(self, n: int) -> int:
        return max(1, TILE_VALUES // (n + self.burnin))

    def simulate(self, n: int, seeds) -> np.ndarray:
        return _seeded_rows(partial(simulate_ar if self.a else simulate_linear, self), n, seeds)

    def companion(self, record_seed: SeedLike):
        """[b~(z) / a(z)] eps, b~ the Wold polynomial of ``wold_factorization``.
        With no root flipped, eps = e: the model is its own companion.
        Otherwise eps = [b(z) / b~(z)] e is white but not i.i.d., and is
        resampled from a record of it past the filter's transient: fresh e,
        overwritten in place with its filtered values ``TILE_VALUES`` at a
        time (``filter_in_place``, ``filter_rows`` bit for bit), so the
        record is the one array held."""
        from .companion import CompanionSpec

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
        from .companion import CompanionSpec

        seeds = [derive_seed(record_seed, j) for j in range(_ARCH_RECORD_CHAINS)]
        chains = simulate_arch1(self, COMPANION_RECORD_LENGTH // _ARCH_RECORD_CHAINS, seeds)
        return CompanionSpec([1.0], [1.0], ResampledRecord(chains.ravel()))

    @property
    def kurtoses(self):
        """(None, 6 alpha1^2 / (1 - 3 alpha1^2)): X is not linear in i.i.d.
        noise, and its companion is i.i.d. with the marginal law of X. At
        alpha1 = 0, X is i.i.d. N(0, omega), linear in itself: (0, 0)."""
        alpha_sq = self.alpha1 ** 2
        return (None if alpha_sq else 0.0), 6.0 * alpha_sq / (1.0 - 3.0 * alpha_sq)


def simulate_linear(model: LinearModel, n: int, seed: SeedLike) -> np.ndarray:
    """The path array of the finite MA X_t = e_t + sum_j b_j e_{t-j},
    ``model.a`` empty.

    q pre-sample innovations are drawn so that X_1 already uses a full window.
    The filter is the full convolution cut to the outputs that see all q + 1
    taps, the values ``filter_rows`` (and scipy's FIR ``lfilter``) give
    from its ``np.convolve``.
    """
    q = len(model.b)
    e_full = model.innovations.draw(n + q, seed)
    return np.convolve(model.filter[0], e_full)[q:n + q]


def simulate_ar(model: LinearModel, n: int, seed: SeedLike) -> np.ndarray:
    """The recursion [b(z) / a(z)] e from zero initial state, as the array of
    the path; its first ``model.burnin`` values, the transient, are dropped."""
    b, a, _ = model.filter
    drop = model.burnin
    return filter_rows(b, a, model.innovations.draw(n + drop, seed))[drop:]


def _seeded_rows(path, width: int, seeds) -> np.ndarray:
    """(len(seeds), width): row j is ``path(width, seeds[j])``, the path of a
    model or the draws of a noise law."""
    out = np.empty((len(seeds), width))
    for row, s in zip(out, seeds):
        row[:] = path(width, s)
    return out


def ma1_model(innovations: InnovationSpec | None = None) -> LinearModel:
    """The noninvertible MA(1) worked example: X_t = e_t - 2 e_{t-1}."""
    return LinearModel(b=(-2.0,), innovations=innovations or InnovationSpec())


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
    model = ma1_model(innovations)
    q = len(model.b)
    b = model.filter[0]
    e_full = model.innovations.draw(n + q, seed)
    x = filter_rows(b, [1.0], e_full)[q:]
    ve = filter_rows(b, wold_factorization(b)[0], e_full)[q:]
    return x, e_full[q:], ve


def simulate_arch1(model: Arch1Model, n: int, seeds) -> np.ndarray:
    """ARCH(1) recursion x_t = sqrt(omega + alpha1 x_{t-1}^2) z_t from zero
    state, z_t standard normal drawn from ``rng_from(seed)``; the first
    ``ARCH1_BURNIN`` values are dropped.

    Returns a C-contiguous (len(seeds), n) array whose row j is the path of
    seeds[j]. Each path draws its burn-in multipliers into its row of a
    (len(seeds), burn-in) buffer, then its n kept ones straight into its
    output row: two consecutive draws from one generator, the stream of a
    single draw of n + burn-in. The paths then advance together one time step
    at a time, a column of the buffer and then a column of the output
    overwritten in place, each element through the same IEEE operations as a
    path of its own, so a row equals the single path of its seed bit for bit.
    A path that overflows float64 holds inf or NaN, with no warning; the
    finiteness check of its block rejects it.
    """
    head = np.empty((len(seeds), ARCH1_BURNIN))
    out = np.empty((len(seeds), n))
    for j, s in enumerate(seeds):
        rng = rng_from(s)
        rng.standard_normal(out=head[j])
        rng.standard_normal(out=out[j])
    var = np.empty(len(seeds))
    prev = np.zeros(len(seeds))
    with np.errstate(over="ignore", invalid="ignore"):
        for block in (head, out):
            for col in block.T:  # z_t is overwritten by x_t
                np.multiply(prev, prev, out=var)
                var *= model.alpha1
                var += model.omega
                np.sqrt(var, out=var)
                col *= var
                prev = col
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
    """The model of a JSON document, given as a string or a dict: ``linear``
    coefficients are b, ``ar`` coefficients a, of a ``LinearModel``.

    Raises ValueError, naming the field, on an unknown family or key,
    coefficients that are not a list of numbers ([omega, alpha1] for arch1),
    an innovation that is not an object of family and scale, a number too
    large for a float, or a value the model's constructor rejects.
    """
    if isinstance(doc, str):
        doc = json.loads(doc)
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
