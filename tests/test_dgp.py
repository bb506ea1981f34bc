import json
import math
import os
import subprocess
import sys
import textwrap
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import freqz, lfilter

from sieveboot import dgp
from sieveboot.ar import InversionError, wold_factorization
from sieveboot.dgp import (
    KEY_TRUTH,
    Arch1Model,
    InnovationSpec,
    LinearModel,
    PathSeed,
    ResampledRecord,
    default_burnin,
    derive_seed,
    derive_seeds,
    ma1_example,
    ma1_model,
    model_from_json,
    replicate,
    rng_from,
    simulate_ar,
    simulate_arch1,
    simulate_linear,
)
from sieveboot import companion, sieve
from sieveboot.companion import CompanionSpec, build_companion
from sieveboot.experiment import companion_spec_for
from sieveboot.series import Series
from sieveboot.sieve import OrderRule, fit_sieve
from sieveboot.statistics import AcvfStatistic


class TestSeeding:
    def test_derive_seed_deterministic(self):
        s1 = derive_seed(42, 0, 7)
        s2 = derive_seed(42, 0, 7)
        assert rng_from(s1).integers(0, 1 << 30) == rng_from(s2).integers(0, 1 << 30)

    def test_derive_seed_distinct_indices(self):
        draws = {rng_from(derive_seed(42, k)).integers(0, 1 << 62) for k in range(50)}
        assert len(draws) == 50

    def test_derive_seed_nests(self):
        a = derive_seed(derive_seed(42, 1), 2)
        b = derive_seed(42, 1, 2)
        assert a.entropy == b.entropy and tuple(a.spawn_key) == tuple(b.spawn_key)


# Bases of derived seeds: ints of one, two and five 32-bit words, and
# SeedSequences that carry a spawn key (nested bases included).
seed_ints = st.one_of(st.just(0), st.integers(0, 2 ** 32 - 1), st.integers(2 ** 32, 2 ** 64),
                      st.integers(2 ** 128, 2 ** 160))
seed_bases = st.one_of(
    seed_ints,
    st.builds(lambda entropy, key: np.random.SeedSequence(entropy, spawn_key=tuple(key)),
              seed_ints, st.lists(seed_ints, min_size=1, max_size=3)))


class TestDeriveSeeds:
    @settings(max_examples=150, deadline=None)
    @given(seed_bases, seed_ints, st.one_of(st.integers(0, 50), st.integers(2 ** 32 - 9, 2 ** 32 - 4)),
           st.integers(0, 4))
    def test_each_path_seed_is_its_seed_sequence(self, base, key, lo, count):
        seeds = derive_seeds(base, key, lo, lo + count)
        assert len(seeds) == count
        for i, path_seed in enumerate(seeds, lo):
            sequence = derive_seed(base, key, i)
            assert np.array_equal(path_seed.generate_state(4, np.uint64),
                                  sequence.generate_state(4, np.uint64))
            assert np.array_equal(rng_from(path_seed).standard_normal(3),
                                  rng_from(sequence).standard_normal(3))
            assert np.array_equal(rng_from(path_seed).integers(0, 1 << 62, 3),
                                  np.random.default_rng(sequence).integers(0, 1 << 62, 3))

    def test_a_range_past_zero_is_the_tail_of_the_range_from_zero(self):
        whole = derive_seeds(11, KEY_TRUTH, 0, 9)
        tail = derive_seeds(11, KEY_TRUTH, 4, 9)
        assert all(np.array_equal(a.state, b.state) for a, b in zip(whole[4:], tail))

    @pytest.mark.parametrize("n_words, dtype", [(4, np.uint32), (8, np.uint32), (2, np.uint64),
                                                (8, np.uint64), (4, np.int64)])
    def test_path_seed_serves_only_pcg64(self, n_words, dtype):
        path_seed = derive_seeds(3, 0, 0, 1)[0]
        with pytest.raises(ValueError):
            path_seed.generate_state(n_words, dtype)
        assert isinstance(path_seed, PathSeed)

    @pytest.mark.parametrize("key, lo, hi", [(0, -1, 2), (-1, 0, 2), (0, 3, 2), (0, 0, 2 ** 32 + 1)])
    def test_indices_out_of_range_rejected(self, key, lo, hi):
        with pytest.raises(ValueError):
            derive_seeds(3, key, lo, hi)


class TestInnovations:
    @pytest.mark.parametrize("family,raw4", [
        ("gaussian", 3.0),
        ("centered_exponential", 9.0),
        ("centered_uniform", 1.8),
    ])
    def test_moments(self, family, raw4):
        spec = InnovationSpec(family=family, scale=2.0)
        e = spec.draw(400_000, seed=1)
        assert abs(e.mean()) < 0.02
        assert e.var() == pytest.approx(4.0, rel=0.02)
        ratio = np.mean(e ** 4) / np.mean(e ** 2) ** 2
        assert ratio == pytest.approx(raw4, rel=0.05)
        assert spec.excess_kurtosis == raw4 - 3.0

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            InnovationSpec(family="cauchy")

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(ValueError):
            InnovationSpec(scale=0.0)


class TestLinear:
    def test_matches_manual_convolution(self):
        model = LinearModel(b=(-2.0, 0.5))
        x = simulate_linear(model, 50, seed=3)
        # reconstruct with the same innovation stream, by hand
        e_full = model.innovations.draw(52, seed=3)
        for t in range(2, 50):
            want = e_full[t + 2] - 2.0 * e_full[t + 1] + 0.5 * e_full[t]
            assert x[t] == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    def test_is_the_fir_lfilter_bit_for_bit(self, q):
        b = tuple(np.random.default_rng(q).uniform(-3.0, 3.0, q))
        model = LinearModel(b=b, innovations=InnovationSpec("centered_exponential", 1.7))
        x = simulate_linear(model, 300, seed=q)
        e_full = model.innovations.draw(300 + q, seed=q)
        assert np.array_equal(x, lfilter(np.concatenate([[1.0], b]), [1.0], e_full)[q:])

    @pytest.mark.parametrize("family", ["gaussian", "centered_exponential", "centered_uniform"])
    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_ar_is_the_iir_lfilter_bit_for_bit(self, p, family):
        # a causal a(z): reciprocal roots drawn inside the unit disk
        den = np.poly(np.random.default_rng(p).uniform(-0.9, 0.9, p))
        spec = InnovationSpec(family, 1.3)
        model = LinearModel(a=tuple(-den[1:]), innovations=spec)
        burnin = default_burnin(p)
        want = lfilter([1.0], den, spec.draw(300 + burnin, p))[burnin:]
        assert np.array_equal(_bits(simulate_ar(model, 300, seed=p)), _bits(want))
        assert np.array_equal(_bits(model.simulate(300, [p])[0]), _bits(want))

    def test_ma1_variance(self):
        x = simulate_linear(ma1_model(), 200_000, seed=4)
        assert x.var() == pytest.approx(5.0, rel=0.03)


class TestMa1Example:
    def test_x_matches_simulate_linear(self):
        x1 = simulate_linear(ma1_model(), 1000, seed=5)
        x2, _, _ = ma1_example(1000, seed=5)
        assert np.array_equal(x1, x2.values)

    def test_reconstruction_identity(self):
        x, _, ve = ma1_example(5000, seed=6)
        recon = ve.values[1:] - 0.5 * ve.values[:-1]
        assert np.max(np.abs(x.values[1:] - recon)) < 1e-10

    def test_wold_filter_is_all_pass_with_gain_two(self):
        lam = np.linspace(0.0, np.pi, 257)
        num, sigma2, _ = wold_factorization([1.0, -2.0])
        assert np.array_equal(num, [1.0, -0.5]) and sigma2 == 4.0
        _, response = freqz([1.0, -2.0], num, worN=lam)
        assert np.allclose(np.abs(response), 2.0, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("innovations",
                             [InnovationSpec(), InnovationSpec("centered_uniform", 2.5)])
    def test_companion_record_is_the_wold_innovations_past_their_transient(self, monkeypatch,
                                                                          innovations):
        monkeypatch.setattr(dgp, "COMPANION_RECORD_LENGTH", 5000)
        seed = derive_seed(3, 5)
        record = ma1_model(innovations).companion(seed).noise.values
        _, _, ve = ma1_example(5000 + 60, seed, innovations)
        assert np.array_equal(record, ve.values[60:])

    def test_ve_is_white_with_variance_four(self):
        _, _, ve = ma1_example(300_000, seed=7)
        v = ve.values[60:]
        assert v.var() == pytest.approx(4.0, rel=0.02)
        lag1 = np.mean(v[:-1] * v[1:]) - v.mean() ** 2
        assert abs(lag1) / v.var() < 0.01


class TestAR:
    def test_stability_enforced(self):
        with pytest.raises(InversionError, match="closed unit disk"):
            LinearModel(a=(1.5,))

    def test_ar1_acvf(self):
        model = LinearModel(a=(0.6,))
        x = simulate_ar(model, 200_000, seed=8)
        g0 = x.var()
        assert g0 == pytest.approx(1.0 / (1 - 0.36), rel=0.03)



def _bits(x):
    return np.asarray(x).view(np.uint64)


# The ways filter_rows may get scipy's compiled kernel: loaded from the
# extension file, taken from an already imported scipy.signal, and the
# fallback to scipy.signal when the file is missing.
KERNEL_ROUTES = {
    "extension-file": lambda: dgp._load_linear_filter(dgp._sigtools_path()),
    "scipy-signal-loaded": lambda: (dgp._linear_filter.cache_clear(), dgp._linear_filter())[1],
    "missing-file-fallback": lambda: dgp._load_linear_filter(
        dgp._sigtools_path().with_name("_sigtools_missing.so")),
}


class TestFilterRows:
    @pytest.mark.parametrize("route", KERNEL_ROUTES)
    @settings(max_examples=40, deadline=None)
    @given(taps=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=7),
           # Reciprocal roots inside the disk: np.poly gives a stable denominator
           # (order 0 is the FIR branch).
           roots=st.lists(st.floats(-0.95, 0.95), max_size=6),
           shape=st.sampled_from([(1,), (57,), (1, 40), (3, 1), (4, 123)]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_is_lfilter_bit_for_bit(self, route, taps, roots, shape, seed):
        den = np.poly(roots) if roots else np.ones(1)
        x = np.random.default_rng(seed).standard_normal(shape)
        kernel = KERNEL_ROUTES[route]()
        with mock.patch.object(dgp, "_linear_filter", lambda: kernel):
            got = dgp.filter_rows(taps, den, x)
        assert got.shape == x.shape
        assert np.array_equal(_bits(got), _bits(lfilter(taps, den, x, axis=-1)))

    def test_routes_leave_sys_modules_as_they_were(self):
        import scipy.signal._sigtools as sigtools

        assert KERNEL_ROUTES["scipy-signal-loaded"]() is sigtools._linear_filter
        assert KERNEL_ROUTES["missing-file-fallback"]() is sigtools._linear_filter
        assert callable(KERNEL_ROUTES["extension-file"]())
        assert sys.modules[dgp._SIGTOOLS] is sigtools

    def test_a_block_filters_each_row_as_a_lone_path(self):
        x = np.random.default_rng(4).standard_normal((5, 300))
        for b, a in [([1.0, 0.5, -0.2], [1.0]), ([1.0, 0.3], [1.0, -0.5, 0.2])]:
            block = dgp.filter_rows(b, a, x)
            assert all(np.array_equal(_bits(block[j]), _bits(dgp.filter_rows(b, a, x[j])))
                       for j in range(5))

    def test_rejects_an_unnormalised_denominator(self):
        with pytest.raises(ValueError, match="start with 1"):
            dgp.filter_rows([1.0], [2.0, -0.5], np.ones(10))

    def test_fresh_interpreter_filters_without_importing_scipy_signal(self):
        # pytest has scipy.signal loaded, so the extension-file route of a
        # fresh process is checked in a child interpreter.
        code = textwrap.dedent("""
            import json, sys
            import numpy as np
            from sieveboot import dgp
            x = np.random.default_rng(3).standard_normal((4, 250))
            filters = [([1.0, 0.4], [1.0, -0.6, 0.1]), ([1.0, -2.0], [1.0, -0.5]),
                       ([1.0, 0.5, -0.2], [1.0])]
            out = [dgp.filter_rows(b, a, x) for b, a in filters]
            loaded = sorted(m for m in sys.modules if m.startswith("scipy.signal"))
            from scipy.signal import lfilter
            same = [bool(np.array_equal(y.view(np.uint64), lfilter(b, a, x).view(np.uint64)))
                    for y, (b, a) in zip(out, filters)]
            print(json.dumps({"loaded": loaded, "same": same}))
        """)
        src = str(Path(dgp.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True, timeout=120)
        assert json.loads(done.stdout) == {"loaded": [], "same": [True, True, True]}


class TestArch1:
    def test_marginal_variance(self):
        model = Arch1Model(omega=1.0, alpha1=0.3)
        v = simulate_arch1(model, 300_000, [9])[0]
        assert v.var() == pytest.approx(1.0 / 0.7, rel=0.03)
        # uncorrelated but dependent: squared values are correlated
        rho_sq = np.corrcoef(v[:-1] ** 2, v[1:] ** 2)[0, 1]
        assert rho_sq > 0.1
        rho = np.corrcoef(v[:-1], v[1:])[0, 1]
        assert abs(rho) < 0.02

    def test_fourth_moment_condition(self):
        with pytest.raises(ValueError):
            Arch1Model(omega=1.0, alpha1=0.8)

    def test_paths_are_the_scalar_recursion_whatever_the_chunk(self):
        model, n = Arch1Model(omega=1.0, alpha1=0.3), 150
        seeds = [derive_seed(4, KEY_TRUTH, i) for i in range(12)]
        reference = [_arch1_reference(model, n, s) for s in seeds]
        for seed, ref in zip(seeds[:3], reference):
            assert np.array_equal(model.simulate(n, [seed])[0], ref)
        for chunk in (1, 7, len(seeds)):
            paths = [path for lo in range(0, len(seeds), chunk)
                     for path in model.simulate(n, seeds[lo:lo + chunk])]
            assert len(paths) == len(seeds)
            assert all(np.array_equal(p, r) for p, r in zip(paths, reference))

    def test_companion_record_depends_only_on_the_seed(self):
        model = Arch1Model(omega=1.0, alpha1=0.3)
        record = companion_spec_for(model, seed=3).noise.values
        assert record.shape == (10 ** 6,) and np.all(np.isfinite(record))
        assert np.unique(record).size == record.size  # no chain repeats another
        assert np.array_equal(record, companion_spec_for(model, seed=3).noise.values)
        assert not np.array_equal(record, companion_spec_for(model, seed=4).noise.values)

    def test_companion_record_is_its_chains_one_after_another(self, monkeypatch):
        monkeypatch.setattr(dgp, "COMPANION_RECORD_LENGTH", 100 * 40)
        model, seed = Arch1Model(omega=1.0, alpha1=0.3), derive_seed(3, 5)
        chains = [_arch1_reference(model, 40, derive_seed(seed, j)) for j in range(100)]
        assert np.array_equal(model.companion(seed).noise.values, np.concatenate(chains))


def _arch1_reference(model, n, seed, burnin=1000):
    """The ARCH(1) recursion one path at a time, in Python floats."""
    z = rng_from(seed).standard_normal(n + burnin)
    x, prev_sq = np.empty(n + burnin), 0.0
    for t in range(n + burnin):
        x[t] = math.sqrt(model.omega + model.alpha1 * prev_sq) * z[t]
        prev_sq = x[t] * x[t]
    return x[burnin:]


class TestJson:
    @pytest.mark.parametrize("doc, model", [
        ({"family": "linear", "coefficients": [-2.0],
          "innovation": {"family": "centered_exponential", "scale": 1.5}},
         LinearModel(b=(-2.0,), innovations=InnovationSpec("centered_exponential", 1.5))),
        ({"family": "ar", "coefficients": [0.5, -0.2]}, LinearModel(a=(0.5, -0.2))),
        ({"family": "arch1", "coefficients": [1.0, 0.3]}, Arch1Model(omega=1.0, alpha1=0.3)),
    ])
    def test_documents_give_their_models(self, doc, model):
        assert model_from_json(doc) == model
        assert model_from_json(json.dumps(doc)) == model

    def test_unknown_keys_rejected(self):
        doc = {"family": "linear", "coefficients": [-2.0], "extra": 1}
        with pytest.raises(ValueError):
            model_from_json(doc)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            model_from_json({"family": "garch"})


# One process of each kind in the process protocol: DGP models, a companion
# spec and a fitted sieve.
PROCESSES = {
    "linear": lambda: ma1_model(InnovationSpec("centered_exponential")),
    "ar": lambda: LinearModel(a=(0.6, -0.2), innovations=InnovationSpec("centered_uniform")),
    "arch1": lambda: Arch1Model(omega=1.0, alpha1=0.3),
    "companion": lambda: CompanionSpec([1.0, 0.5], [1.0, -0.3], InnovationSpec("centered_uniform")),
    "sieve": lambda: fit_sieve(Series(simulate_ar(LinearModel(a=(0.6,)), 400, 3)), OrderRule()),
}


# Processes simulated a block of paths at a time through one lfilter call:
# each noise law, with a finite (FIR) filter and a recursive (IIR) one.
_RECORD = np.random.default_rng(2).exponential(1.0, 5000) - 1.0
BLOCK_PROCESSES = {
    "parametric-fir": lambda: CompanionSpec([1.0, 0.5, -0.2], [1.0],
                                            InnovationSpec("centered_exponential")),
    "parametric-iir": PROCESSES["companion"],
    "resample-fir": lambda: CompanionSpec([1.0, 0.4], [1.0], ResampledRecord(_RECORD)),
    "resample-iir": lambda: CompanionSpec([1.0], [1.0, -0.5, 0.2], ResampledRecord(_RECORD)),
    "exact-ma1-fir": lambda: ma1_model(InnovationSpec("centered_exponential")).companion(6),
    "sieve-iir": PROCESSES["sieve"],
}


def _path(process, n, seed) -> np.ndarray:
    """The path of one seed, simulated alone."""
    return process.simulate(n, [seed])[0]


class TestReplicate:
    @pytest.mark.parametrize("kind", sorted(PROCESSES))
    def test_simulate_returns_one_contiguous_row_per_seed(self, kind):
        process = PROCESSES[kind]()
        seeds = [derive_seed(5, KEY_TRUTH, i) for i in range(3)]
        block = process.simulate(40, seeds)
        assert block.shape == (3, 40) and block.dtype == np.float64 and block.flags.c_contiguous
        for row, seed in zip(block, seeds):
            assert np.array_equal(row, process.simulate(40, [seed])[0])

    # (kind, paths per batch, base seed); arch1 at 3 takes chunks of 3, 3 and
    # 1 paths; the last two cases take a nested base and one of two words.
    @pytest.mark.parametrize("kind, rows, base", [pytest.param(kind, None, 11, id=kind)
                                                  for kind in sorted(PROCESSES)]
                             + [pytest.param("arch1", 3, 11, id="arch1-chunks-of-3"),
                                pytest.param("linear", 3, derive_seed(11, 3), id="nested-base"),
                                pytest.param("companion", None, 2 ** 40 + 11, id="wide-base")])
    def test_law_is_the_per_path_seed_loop(self, monkeypatch, kind, rows, base):
        # the seed contract: path i of a law is simulated from derive_seed(seed, key, i)
        process, statistic, n = PROCESSES[kind](), AcvfStatistic(1), 300
        if rows is not None:
            monkeypatch.setattr(dgp, "BATCH_VALUES", rows * n)
        law, theta = replicate(process, statistic, n, 7, base, KEY_TRUTH)
        assert theta == statistic.model_center(*process.filter, n)
        vals = np.array([statistic.evaluate(_path(process, n, derive_seed(base, KEY_TRUTH, i)))
                         for i in range(7)])
        assert np.array_equal(law.sample, np.sort(statistic.rate(n) * (vals - theta)))

    @pytest.mark.parametrize("kind", sorted(BLOCK_PROCESSES))
    def test_law_is_the_same_whatever_the_block(self, monkeypatch, kind):
        process, statistic, n, count = BLOCK_PROCESSES[kind](), AcvfStatistic(1), 120, 15
        blocks = []

        def recorded(block_spec, n, seeds):
            blocks.append(len(seeds))
            return build_companion(block_spec, n, seeds)

        monkeypatch.setattr(companion, "build_companion", recorded)
        monkeypatch.setattr(sieve, "build_companion", recorded)
        per_path = np.array([statistic.evaluate(_path(process, n, derive_seed(11, KEY_TRUTH, i)))
                             for i in range(count)])
        theta = statistic.model_center(*process.filter, n)
        want = np.sort(statistic.rate(n) * (per_path - theta))
        for rows in (1, 7, count):
            blocks.clear()
            monkeypatch.setattr(dgp, "BATCH_VALUES", rows * n)
            law, _ = replicate(process, statistic, n, count, 11, KEY_TRUTH)
            assert np.array_equal(law.sample, want)
            assert sum(blocks) == count and max(blocks) == rows

    @pytest.mark.parametrize("kind", sorted(BLOCK_PROCESSES))
    def test_a_row_of_a_block_is_the_path_of_its_seed(self, kind):
        spec = BLOCK_PROCESSES[kind]()
        seeds = [derive_seed(5, KEY_TRUTH, i) for i in range(4)]
        block = build_companion(spec, 90, seeds)
        assert block.shape == (4, 90) and block.flags.c_contiguous
        for row, seed in zip(block, seeds):
            assert np.array_equal(row, build_companion(spec, 90, [seed])[0])

    def test_each_block_is_freed_before_the_next_is_built(self, monkeypatch):
        process = _OneBlockAlive()
        monkeypatch.setattr(dgp, "BATCH_VALUES", 3 * 50)
        law, _ = replicate(process, AcvfStatistic(1), 50, 10, 11, KEY_TRUTH)
        assert process.calls == 4 and law.sample.size == 10

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_a_block_with_a_value_that_is_not_finite_is_never_evaluated(self, monkeypatch,
                                                                        value):
        process, statistic = _BadSecondBlock(value), _SeenRows()
        monkeypatch.setattr(dgp, "BATCH_VALUES", 3 * 50)
        with pytest.raises(ValueError, match="must be finite"):
            replicate(process, statistic, 50, 10, 11, KEY_TRUTH)
        assert process.calls == 2 and len(statistic.rows) == 3
        assert all(np.isfinite(row).all() for row in statistic.rows)


class _OneBlockAlive:
    """White noise whose simulate fails while the block it last returned is
    still referenced."""

    filter = (np.ones(1), np.ones(1), 1.0)

    def __init__(self):
        self.previous, self.calls = None, 0

    def simulate(self, n, seeds):
        assert self.previous is None or self.previous() is None, "the previous block is alive"
        block = np.array([rng_from(s).standard_normal(n) for s in seeds])
        self.previous, self.calls = weakref.ref(block), self.calls + 1
        return block


class _BadSecondBlock(_OneBlockAlive):
    """White noise whose second block holds one value that is not finite, in
    its middle row."""

    def __init__(self, value):
        super().__init__()
        self.value = value

    def simulate(self, n, seeds):
        block = super().simulate(n, seeds)
        if self.calls == 2:
            block[1, n // 2] = self.value
        return block


class _SeenRows:
    """A statistic that keeps a copy of every row it evaluates."""

    def __init__(self):
        self.rows = []

    def model_center(self, num, den, sigma2, n):
        return 0.0

    def rate(self, n):
        return 1.0

    def transform(self, block):
        return block

    def evaluate(self, x):
        self.rows.append(x.copy())
        return float(x[0])
