"""Data-generating processes: linear MA/AR models, the noninvertible MA(1)
worked example with its Wold innovations, and ARCH(1); and the one
replication loop, ``replicate``, shared by the bootstrap, the oracle and the
truth.

Model protocol: a DGP model is a process (below) with ``companion(seed)``,
its companion process as a ``CompanionSpec``, and ``kurtoses``, the excess
kurtoses (kappa_e, kappa_eps) of its i.i.d. noise and of its Wold
innovations, None where no closed form applies.

Process protocol: a process -- a DGP model here, a ``CompanionSpec`` or a
fitted ``SieveModel`` -- has ``filter``, the rational filter
(num, den, sigma2) of X = [num(z) / den(z)] eps with Var(eps) = sigma2 that
carries its second-order structure, and ``simulate(n, seed)``, one path.
A process may also have ``simulate_batch(n, seeds)``, which returns the
paths ``simulate(n, s)`` for s in seeds, in order and bit for bit, but
computes them together. ``Arch1Model`` has it and steps all its paths one
time step at a time. ``CompanionSpec`` and ``SieveModel`` have it and draw
each path's innovations into one block of rows, then filter the block with
one ``filter_rows`` call, which is one ``lfilter`` call bit for bit;
``batch_paths`` keeps such a block, burn-in included, to about
``BATCH_VALUES`` values. ``replicate`` runs over consecutive chunks
of ``max(1, BATCH_VALUES // n)`` paths: it derives the chunk's seeds, hands
them to ``simulate_batch`` or, for the DGP's linear models, to ``simulate``
one by one, and evaluates the statistic once per path.

Seeding: every simulator is deterministic given (model, n, seed). Distinct
replications must use distinct derived seeds; the canonical derivation rule is
``derive_seed(base_seed, *indices)`` which builds a ``numpy`` SeedSequence with
the indices as spawn key. The whole package uses this rule. Path i of a law
comes from ``derive_seed(seed, key, i)`` whether or not it is simulated in a
batch, so a law does not depend on the chunk size. ``replicate`` gets those
seeds from ``derive_seeds(seed, key, lo, hi)``, which runs numpy's
SeedSequence hash over a whole chunk of indices at once, as uint32 array
arithmetic, and returns one ``PathSeed`` per path: the four uint64 words that
path's SeedSequence gives PCG64. ``rng_from`` of a ``PathSeed`` is therefore
the generator of ``derive_seed(seed, key, i)`` bit for bit, built without
a SeedSequence per path.
"""
from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Union

import numpy as np

from .ar import min_modulus_on_disk, wold_factorization
from .series import Series, ecdf

__all__ = [
    "StabilityError",
    "InnovationSpec",
    "LinearModel",
    "ARModel",
    "Arch1Model",
    "COMPANION_RECORD_LENGTH",
    "BATCH_VALUES",
    "batch_paths",
    "derive_seed",
    "derive_seeds",
    "PathSeed",
    "replicate",
    "rng_from",
    "draw_innovations",
    "simulate_linear",
    "simulate_ar",
    "ma1_example",
    "ma1_model",
    "simulate_arch1",
    "default_burnin",
    "filter_rows",
    "model_to_json",
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

# Values in the block of paths one simulate_batch call computes; it bounds
# the memory of a chunk while spreading each time step's overhead over many
# paths.
BATCH_VALUES = 1 << 19

# Spawn-key namespaces of derived seeds: bootstrap replications, oracle
# replications, truth replications, the companion's innovation record and the
# observed data realization.
KEY_BOOT, KEY_ORACLE, KEY_TRUTH, KEY_COMPANION_RECORD, KEY_DATA = 0, 1, 2, 5, 9

# Values in the record of innovations that a companion process resamples, and
# the number of independent ARCH(1) chains that make up an ARCH(1) record.
COMPANION_RECORD_LENGTH = 10 ** 6
_ARCH_RECORD_CHAINS = 100


class StabilityError(ValueError):
    """Raised when an AR polynomial has a root in the closed unit disk."""


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
    n)`` paths; a process with ``simulate_batch`` gets each chunk in one
    call, any other is simulated path by path.
    """
    theta = statistic.model_center(*process.filter, n)
    vals = np.empty(count)
    rows = max(1, BATCH_VALUES // n)
    simulate_batch = getattr(process, "simulate_batch", None)
    for lo in range(0, count, rows):
        seeds = derive_seeds(seed, key, lo, min(lo + rows, count))
        paths = (simulate_batch(n, seeds) if simulate_batch is not None
                 else (process.simulate(n, s) for s in seeds))
        for i, path in enumerate(paths, lo):
            vals[i] = statistic.evaluate(path)
    return ecdf(statistic.rate(n) * (vals - theta)), float(theta)


def batch_paths(simulate_block, seeds, width: int) -> Iterator[Series]:
    """The rows of ``simulate_block(block)`` for consecutive blocks of
    ``seeds``, as ``Series``. A block has at most ``max(1, BATCH_VALUES //
    width)`` seeds, so that it holds about ``BATCH_VALUES`` values when each
    path is simulated ``width`` values long. Each row is copied out as it is
    yielded, so no path pins its block while the next block is built."""
    seeds = list(seeds)
    rows = max(1, BATCH_VALUES // width)
    for lo in range(0, len(seeds), rows):
        yield from (Series(row.copy()) for row in simulate_block(seeds[lo:lo + rows]))


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


@dataclass(frozen=True)
class LinearModel:
    """Finite moving average X_t = e_t + sum_j b_j e_{t-j} (b_0 = 1 implicit)."""

    b: tuple = ()
    innovations: InnovationSpec = field(default_factory=InnovationSpec)

    def __post_init__(self):
        b = tuple(float(v) for v in self.b)
        if not all(math.isfinite(v) for v in b):
            raise ValueError("MA coefficients must be finite")
        object.__setattr__(self, "b", b)

    @property
    def q(self) -> int:
        return len(self.b)

    @property
    def filter(self):
        return np.concatenate([[1.0], self.b]), np.ones(1), self.innovations.scale ** 2

    def simulate(self, n: int, seed: SeedLike) -> Series:
        return simulate_linear(self, n, seed)

    def companion(self, record_seed: SeedLike):
        """The MA b~(z) eps of ``wold_factorization``. With no root flipped,
        eps = e: the model is its own parametric companion. Otherwise eps =
        [b(z) / b~(z)] e is white but not i.i.d., and is resampled from a
        record of it filtered from fresh e, past the filter's transient."""
        from .companion import parametric_companion_spec, resampling_companion_spec

        b = self.filter[0]
        num, _, psi = wold_factorization(b)
        if psi.size == 1:
            return parametric_companion_spec(b, [1.0], self.innovations)
        e = draw_innovations(self.innovations, COMPANION_RECORD_LENGTH + psi.size - 1, record_seed)
        return resampling_companion_spec(num, [1.0], filter_rows(b, num, e)[psi.size - 1:])

    @property
    def kurtoses(self):
        """kappa_eps = kappa_e sum psi^4 / (sum psi^2)^2 over the all-pass
        response psi from e to the Wold innovations."""
        kappa = self.innovations.excess_kurtosis
        psi = wold_factorization(self.filter[0])[2]
        return kappa, float(kappa * np.sum(psi ** 4) / np.sum(psi ** 2) ** 2)


@dataclass(frozen=True)
class ARModel:
    """Finite (or truncated infinite) autoregression driven by i.i.d. errors."""

    a: tuple = ()
    innovations: InnovationSpec = field(default_factory=InnovationSpec)

    def __post_init__(self):
        a = tuple(float(v) for v in self.a)
        if not all(math.isfinite(v) for v in a):
            raise ValueError("AR coefficients must be finite")
        object.__setattr__(self, "a", a)
        if a and min_modulus_on_disk(np.asarray(a), 1.0) <= 0:
            raise StabilityError("AR polynomial has a root in the closed unit disk")

    @property
    def p(self) -> int:
        return len(self.a)

    @property
    def filter(self):
        den = np.concatenate([[1.0], -np.asarray(self.a)])
        return np.ones(1), den, self.innovations.scale ** 2

    def simulate(self, n: int, seed: SeedLike) -> Series:
        return simulate_ar(self, n, seed)

    def companion(self, record_seed: SeedLike):
        """The model itself: a causal AR is driven by its Wold innovations."""
        from .companion import parametric_companion_spec

        return parametric_companion_spec(*self.filter[:2], self.innovations)

    @property
    def kurtoses(self):
        return (self.innovations.excess_kurtosis,) * 2


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

    def simulate(self, n: int, seed: SeedLike) -> Series:
        return simulate_arch1(self, n, seed)

    def simulate_batch(self, n: int, seeds) -> Iterator[Series]:
        """The paths ``simulate(n, s)`` for s in ``seeds``, stepped together;
        each is copied out of the time-major block as it is consumed."""
        block = simulate_arch1(self, n, list(seeds))
        return (Series(block[:, j].copy()) for j in range(block.shape[1]))

    def companion(self, record_seed: SeedLike):
        """White noise in the Wold sense: the trivial filter, innovations
        sharing the marginal law of X, resampled from a record made of
        independent chains stepped together, one after another."""
        from .companion import resampling_companion_spec

        seeds = [derive_seed(record_seed, j) for j in range(_ARCH_RECORD_CHAINS)]
        chains = simulate_arch1(self, COMPANION_RECORD_LENGTH // _ARCH_RECORD_CHAINS, seeds)
        return resampling_companion_spec([1.0], [1.0], chains.T.ravel())

    @property
    def kurtoses(self):
        """(None, 6 alpha1^2 / (1 - 3 alpha1^2)): X is not linear in i.i.d.
        noise, and its companion is i.i.d. with the marginal law of X."""
        alpha_sq = self.alpha1 ** 2
        return None, 6.0 * alpha_sq / (1.0 - 3.0 * alpha_sq)


def draw_innovations(spec: InnovationSpec, n: int, seed: SeedLike) -> np.ndarray:
    """n i.i.d. draws with mean 0 and variance scale^2, deterministic in seed."""
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = rng_from(seed)
    if spec.family == "gaussian":
        e = rng.standard_normal(n)
    elif spec.family == "centered_exponential":
        e = rng.exponential(1.0, n)
        e -= 1.0
    else:  # centered_uniform, variance 1 on [-sqrt(3), sqrt(3)]
        e = rng.uniform(-math.sqrt(3.0), math.sqrt(3.0), n)
    e *= spec.scale
    return e


def default_burnin(order: int) -> int:
    return max(1000, 50 * order)


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


def simulate_linear(model: LinearModel, n: int, seed: SeedLike) -> Series:
    """Simulate the finite MA X_t = e_t + sum_j b_j e_{t-j}.

    q pre-sample innovations are drawn so that X_1 already uses a full window.
    The filter is the full convolution cut to the outputs that see all q + 1
    taps, the values ``filter_rows`` (and scipy's FIR ``lfilter``) give
    from its ``np.convolve``.
    """
    q = model.q
    e_full = draw_innovations(model.innovations, n + q, seed)
    x = np.convolve(np.concatenate([[1.0], model.b]), e_full)[q:n + q]
    return Series(x)


def simulate_ar(model: ARModel, n: int, seed: SeedLike, burnin: int | None = None) -> Series:
    """AR recursion from zero initial state; the first `burnin` values are dropped."""
    if burnin is None:
        burnin = default_burnin(model.p)
    if burnin < 0:
        raise ValueError("burnin must be nonnegative")
    e = draw_innovations(model.innovations, n + burnin, seed)
    x = filter_rows([1.0], np.concatenate([[1.0], -np.asarray(model.a)]), e)[burnin:]
    return Series(x)


def ma1_model(innovations: InnovationSpec | None = None) -> LinearModel:
    """The noninvertible MA(1) worked example: X_t = e_t - 2 e_{t-1}."""
    return LinearModel(b=(-2.0,), innovations=innovations or InnovationSpec())


def ma1_example(n: int, seed: SeedLike, innovations: InnovationSpec | None = None):
    """The noninvertible MA(1) worked example.

    Returns (X, e, ve) where ve_t = e_t - (3/2) sum_{j>=1} (1/2)^{j-1} e_{t-j}
    is the Wold innovation of X, computed with the exact recursive all-pass
    filter (1 - 2z) / (1 - z/2) of ``wold_factorization``, of constant gain 2.
    Because only one pre-sample innovation is drawn (so that X matches
    ``simulate_linear`` with b = (-2) seed-for-seed), the first 60 values of
    ve are burn-in and must be excluded from moment checks.
    """
    model = ma1_model(innovations)
    q = model.q
    b = model.filter[0]
    e_full = draw_innovations(model.innovations, n + q, seed)
    x = filter_rows(b, [1.0], e_full)[q:]
    ve = filter_rows(b, wold_factorization(b)[0], e_full)[q:]
    return Series(x), Series(e_full[q:]), Series(ve)


def simulate_arch1(model: Arch1Model, n: int, seed, burnin: int | None = None):
    """ARCH(1) recursion x_t = sqrt(omega + alpha1 x_{t-1}^2) z_t from zero
    state, z_t standard normal drawn from ``rng_from(seed)``; the first
    ``burnin`` values are dropped.

    ``seed`` is one seed, giving one path as a ``Series``, or a list of
    seeds, giving a time-major (n, len(seed)) array whose column j is the
    path of seed[j]. The columns advance together one time step at a time,
    each element through the same IEEE operations as a path of its own, so
    a column equals the single path of its seed bit for bit.
    """
    if burnin is None:
        burnin = default_burnin(1)
    seeds = seed if isinstance(seed, list) else [seed]
    x = np.empty((n + burnin, len(seeds)))
    for j, s in enumerate(seeds):
        x[:, j] = rng_from(s).standard_normal(n + burnin)
    var = np.empty(len(seeds))
    prev = np.zeros(len(seeds))
    for row in x:  # z_t is overwritten by x_t
        np.multiply(prev, prev, out=var)
        var *= model.alpha1
        var += model.omega
        np.sqrt(var, out=var)
        row *= var
        prev = row
    x = x[burnin:]
    return x if isinstance(seed, list) else Series(x[:, 0])


def model_to_json(model) -> str:
    """Serialize a model spec to the canonical JSON document."""
    if isinstance(model, LinearModel):
        doc = {"family": "linear", "coefficients": list(model.b),
               "innovation": {"family": model.innovations.family, "scale": model.innovations.scale}}
    elif isinstance(model, ARModel):
        doc = {"family": "ar", "coefficients": list(model.a),
               "innovation": {"family": model.innovations.family, "scale": model.innovations.scale}}
    elif isinstance(model, Arch1Model):
        doc = {"family": "arch1", "coefficients": [model.omega, model.alpha1]}
    else:
        raise TypeError(f"cannot serialize {type(model).__name__}")
    return json.dumps(doc)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def model_from_json(doc):
    """Inverse of :func:`model_to_json`; accepts a JSON string or a dict.

    Raises ValueError, naming the field, on an unknown family or key,
    coefficients that are not a list of numbers ([omega, alpha1] for arch1),
    an innovation that is not an object of family and scale, or a value the
    model's constructor rejects.
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
    if not isinstance(coeffs, list) or not all(_is_number(v) for v in coeffs):
        raise ValueError(f"coefficients must be a list of numbers, got {coeffs!r}")
    coeffs = tuple(float(v) for v in coeffs)
    if family == "arch1":
        if len(coeffs) != 2:
            raise ValueError(f"arch1 coefficients must be [omega, alpha1], got {list(coeffs)}")
        return Arch1Model(*coeffs)
    innov = doc.get("innovation", {})
    if not isinstance(innov, dict) or set(innov) - {"family", "scale"}:
        raise ValueError(f"innovation must be an object with keys family, scale; got {innov!r}")
    scale = innov.get("scale", 1.0)
    if not _is_number(scale):
        raise ValueError(f"innovation scale must be a number, got {scale!r}")
    spec = InnovationSpec(family=innov.get("family", "gaussian"), scale=float(scale))
    return (LinearModel(b=coeffs, innovations=spec) if family == "linear"
            else ARModel(a=coeffs, innovations=spec))
