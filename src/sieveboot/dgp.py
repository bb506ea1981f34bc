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
carries its second-order structure, and ``simulate(n, seeds)``, a
C-contiguous (len(seeds), n) float array whose row j is the path of
seeds[j]. A row does not depend on the other seeds, so a path is the same
whatever block it is simulated in. ``LinearModel`` fills the block one
``simulate_linear`` call per seed, or one ``simulate_ar`` call when it has a
denominator. ``Arch1Model`` steps all its paths one time step at a time.
A ``CompanionSpec`` draws each path's innovations from its noise into one
row of a block and filters the block with one ``filter_rows`` call, which is
one ``lfilter`` call bit for bit.
``replicate`` alone decides the block size: it runs over consecutive chunks
of ``max(1, BATCH_VALUES // n)`` paths, derives the chunk's seeds, simulates
them in one ``simulate`` call, checks the whole block finite once, hands it
to the statistic's ``transform`` once -- the block itself, or one FFT of it
for a spectral statistic -- and evaluates the statistic once per row of
what that returns. A ``Series`` is the validated type of a lone data path,
not of a simulated row.

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

import functools
import importlib.machinery
import importlib.util
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Union

import numpy as np

from .ar import check_roots_outside_disk, wold_factorization
from .series import EmpiricalLaw, Series

__all__ = [
    "InnovationSpec",
    "ResampledRecord",
    "LinearModel",
    "Arch1Model",
    "COMPANION_RECORD_LENGTH",
    "BATCH_VALUES",
    "derive_seed",
    "derive_seeds",
    "PathSeed",
    "replicate",
    "rng_from",
    "simulate_linear",
    "simulate_ar",
    "ma1_example",
    "ma1_model",
    "simulate_arch1",
    "default_burnin",
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

# Values in the block of paths that one simulate call of replicate returns;
# it bounds the memory of a chunk while spreading each call's and each time
# step's overhead over many paths.
BATCH_VALUES = 1 << 19

# Spawn-key namespaces of derived seeds: bootstrap replications, oracle
# replications, truth replications, the companion's innovation record and the
# observed data realization.
KEY_BOOT, KEY_ORACLE, KEY_TRUTH, KEY_COMPANION_RECORD, KEY_DATA = 0, 1, 2, 5, 9

# Values in the record of innovations that a companion process resamples, and
# the number of independent ARCH(1) chains that make up an ARCH(1) record.
COMPANION_RECORD_LENGTH = 10 ** 6
_ARCH_RECORD_CHAINS = 100


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

    The paths are simulated in consecutive chunks of ``max(1, BATCH_VALUES
    // n)``, one ``process.simulate`` call per chunk. Each block is built and
    handed to ``_evaluate_rows`` in one statement, so no name holds it and it
    is freed before the next is built.
    """
    theta = statistic.model_center(*process.filter, n)
    vals = np.empty(count)
    rows = max(1, BATCH_VALUES // n)
    for lo in range(0, count, rows):
        hi = min(lo + rows, count)
        vals[lo:hi] = _evaluate_rows(statistic,
                                     process.simulate(n, derive_seeds(seed, key, lo, hi)))
    return EmpiricalLaw(statistic.rate(n) * (vals - theta)), float(theta)


def _evaluate_rows(statistic, block: np.ndarray) -> list:
    """``statistic.evaluate`` of each row of ``statistic.transform`` of a
    simulated block, after one finiteness check of the whole block, the
    check ``Series`` makes of a path."""
    if not np.isfinite(block).all():
        raise ValueError("series values must be finite")
    return [statistic.evaluate(row) for row in statistic.transform(block)]


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
            e = rng.exponential(1.0, size)
            e -= 1.0
        else:  # centered_uniform, variance 1 on [-sqrt(3), sqrt(3)]
            e = rng.uniform(-math.sqrt(3.0), math.sqrt(3.0), size)
        e *= self.scale
        return e


@dataclass(frozen=True)
class ResampledRecord:
    """The i.i.d. law that draws with replacement from a record of values."""

    values: np.ndarray

    @property
    def variance(self) -> float:
        """The record's population variance."""
        return float(np.mean(self.values ** 2) - np.mean(self.values) ** 2)

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

    @property
    def filter(self):
        return (np.concatenate([[1.0], self.b]), np.concatenate([[1.0], -np.asarray(self.a)]),
                self.innovations.variance)

    def simulate(self, n: int, seeds) -> np.ndarray:
        return _path_by_path(simulate_ar if self.a else simulate_linear, self, n, seeds)

    def companion(self, record_seed: SeedLike):
        """[b~(z) / a(z)] eps, b~ the Wold polynomial of ``wold_factorization``.
        With no root flipped, eps = e: the model is its own companion.
        Otherwise eps = [b(z) / b~(z)] e is white but not i.i.d., and is
        resampled from a record of it filtered from fresh e, past the
        filter's transient."""
        from .companion import CompanionSpec

        b, den, _ = self.filter
        num, _, psi = wold_factorization(b)
        if psi.size == 1:
            return CompanionSpec(b, den, self.innovations)
        e = self.innovations.draw(COMPANION_RECORD_LENGTH + psi.size - 1, record_seed)
        return CompanionSpec(num, den, ResampledRecord(filter_rows(b, num, e)[psi.size - 1:]))

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
        noise, and its companion is i.i.d. with the marginal law of X."""
        alpha_sq = self.alpha1 ** 2
        return None, 6.0 * alpha_sq / (1.0 - 3.0 * alpha_sq)


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
    return np.convolve(np.concatenate([[1.0], model.b]), e_full)[q:n + q]


def simulate_ar(model: LinearModel, n: int, seed: SeedLike) -> np.ndarray:
    """The recursion [b(z) / a(z)] e from zero initial state, as the array of
    the path; the first ``default_burnin(max(p, q))`` values are dropped."""
    burnin = default_burnin(max(len(model.a), len(model.b)))
    e = model.innovations.draw(n + burnin, seed)
    return filter_rows(*model.filter[:2], e)[burnin:]


def _path_by_path(simulate_path, model, n: int, seeds) -> np.ndarray:
    """(len(seeds), n): row j is ``simulate_path(model, n, seeds[j])``."""
    out = np.empty((len(seeds), n))
    for row, s in zip(out, seeds):
        row[:] = simulate_path(model, n, s)
    return out


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
    q = len(model.b)
    b = model.filter[0]
    e_full = model.innovations.draw(n + q, seed)
    x = filter_rows(b, [1.0], e_full)[q:]
    ve = filter_rows(b, wold_factorization(b)[0], e_full)[q:]
    return Series(x), Series(e_full[q:]), Series(ve)


def simulate_arch1(model: Arch1Model, n: int, seeds) -> np.ndarray:
    """ARCH(1) recursion x_t = sqrt(omega + alpha1 x_{t-1}^2) z_t from zero
    state, z_t standard normal drawn from ``rng_from(seed)``; the first
    ``default_burnin(1)`` values are dropped.

    Returns a C-contiguous (len(seeds), n) array whose row j is the path of
    seeds[j]. The paths advance together one time step at a time in a
    time-major block, each element through the same IEEE operations as a
    path of its own, so a row equals the single path of its seed bit for
    bit. A path that overflows float64 holds inf or NaN, with no warning;
    the finiteness check of its block rejects it.
    """
    burnin = default_burnin(1)
    x = np.empty((n + burnin, len(seeds)))
    for j, s in enumerate(seeds):
        x[:, j] = rng_from(s).standard_normal(n + burnin)
    var = np.empty(len(seeds))
    prev = np.zeros(len(seeds))
    with np.errstate(over="ignore", invalid="ignore"):
        for row in x:  # z_t is overwritten by x_t
            np.multiply(prev, prev, out=var)
            var *= model.alpha1
            var += model.omega
            np.sqrt(var, out=var)
            row *= var
            prev = row
    return np.ascontiguousarray(x[burnin:].T)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def model_from_json(doc):
    """The model of a JSON document, given as a string or a dict: ``linear``
    coefficients are b, ``ar`` coefficients a, of a ``LinearModel``.

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
    return LinearModel(**{"b" if family == "linear" else "a": coeffs}, innovations=spec)
