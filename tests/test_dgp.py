import gc
import json
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import freqz, lfilter

from sieveboot import dgp
from sieveboot.dgp import (
    ARCH1_BURNIN,
    KEY_BOOT,
    KEY_ORACLE,
    KEY_TRUTH,
    Arch1Model,
    CompanionSpec,
    InnovationSpec,
    InversionError,
    LinearModel,
    PathSeed,
    RationalProcess,
    ResampledRecord,
    build_companion,
    burnin,
    derive_seed,
    derive_seeds,
    filter_rows,
    ma1_example,
    model_from_json,
    replicate,
    simulate_ar,
    simulate_arch1,
    simulate_linear,
    wold_factorization,
)
from sieveboot.experiment import companion_spec_for
from sieveboot.sieve import fit_sieve
from sieveboot.statistics import AcvfStatistic, statistic_from_config


class TestSeeding:
    def test_derive_seed_deterministic(self):
        s1 = derive_seed(42, 0, 7)
        s2 = derive_seed(42, 0, 7)
        draw = [np.random.default_rng(s).integers(0, 1 << 30) for s in (s1, s2)]
        assert draw[0] == draw[1]

    def test_derive_seed_distinct_indices(self):
        draws = {np.random.default_rng(derive_seed(42, k)).integers(0, 1 << 62) for k in range(50)}
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
            assert np.array_equal(np.random.default_rng(path_seed).standard_normal(3),
                                  np.random.default_rng(sequence).standard_normal(3))
            assert np.array_equal(np.random.default_rng(path_seed).integers(0, 1 << 62, 3),
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

    def test_centered_exponential_draws_are_numpys_exponential_less_one(self):
        # an int seed draws from the generator of the SeedSequence of that int
        spec = InnovationSpec("centered_exponential", scale=1.5)
        for seed in range(50):
            rng = np.random.default_rng(np.random.SeedSequence(seed))
            want = (rng.exponential(1.0, 1001) - 1.0) * 1.5
            assert np.array_equal(spec.draw(1001, seed), want)

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
    @pytest.mark.parametrize("p", [1, 2, 3, 4, "arma11"])
    def test_ar_is_the_iir_lfilter_bit_for_bit(self, p, family):
        # a causal a(z): reciprocal roots drawn inside the unit disk; or an ARMA(1, 1)
        spec = InnovationSpec(family, 1.3)
        if p == "arma11":
            model, seed = LinearModel(b=(0.5,), a=(0.3,), innovations=spec), 5
        else:
            den = np.poly(np.random.default_rng(p).uniform(-0.9, 0.9, p))
            model, seed = LinearModel(a=tuple(-den[1:]), innovations=spec), p
        num, den, _ = model.filter
        drop = burnin(num, den)
        want = lfilter(num, den, spec.draw(300 + drop, seed))[drop:]
        for simulate in (simulate_ar, simulate_linear):
            assert np.array_equal(_bits(simulate(model, 300, seed=seed)), _bits(want))
        assert np.array_equal(_bits(model.simulate(300, [seed])[0]), _bits(want))

    def test_ma1_variance(self):
        x = simulate_linear(LinearModel(b=(-2.0,)), 200_000, seed=4)
        assert x.var() == pytest.approx(5.0, rel=0.03)


class TestMa1Example:
    def test_x_matches_simulate_linear(self):
        x1 = simulate_linear(LinearModel(b=(-2.0,)), 1000, seed=5)
        x2, _, _ = ma1_example(1000, seed=5)
        assert np.array_equal(x1, x2)

    def test_reconstruction_identity(self):
        x, _, ve = ma1_example(5000, seed=6)
        recon = ve[1:] - 0.5 * ve[:-1]
        assert np.max(np.abs(x[1:] - recon)) < 1e-10

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
        record = LinearModel(b=(-2.0,), innovations=innovations).companion(seed).noise.values
        _, _, ve = ma1_example(5000 + 60, seed, innovations)
        assert np.array_equal(record, ve[60:])

    def test_ve_is_white_with_variance_four(self):
        _, _, ve = ma1_example(300_000, seed=7)
        v = ve[60:]
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

    def test_a_persistent_ar_starts_stationary(self):
        # x_1 of k AR(0.9995) paths: N(0, V) with V = 1 / (1 - rho^2), so the
        # mean of x_1^2 / V is a chi-square(1) mean with standard error sqrt(2 / k)
        rho, k = 0.9995, 300
        x = LinearModel(a=(rho,)).simulate(1, derive_seeds(31, KEY_TRUTH, 0, k))[:, 0]
        ratio = np.mean(x ** 2) * (1.0 - rho ** 2)
        assert abs(ratio - 1.0) / math.sqrt(2.0 / k) < 3.0, ratio

    def test_a_block_finds_its_filter_and_burnin_once(self, monkeypatch):
        # the filter and its root radius belong to the model, not to each path
        calls = []
        monkeypatch.setattr(dgp, "burnin", lambda num, den: calls.append(1) or burnin(num, den))
        model = LinearModel(a=(0.5, -0.2))
        block = model.simulate(2000, derive_seeds(3, KEY_TRUTH, 0, 262))
        assert block.shape == (262, 2000) and len(calls) <= 1
        num, den, _ = model.filter
        assert model.filter[0] is num and not (num.flags.writeable or den.flags.writeable)

    @pytest.mark.parametrize("n", [100, 1999, 16000, 72000])
    def test_a_model_and_the_spec_of_its_filter_share_burnin_and_tile(self, n):
        # AR(0.99) with an MA(1) numerator: a burn-in of 1 + 4124, past n = 1999
        model = LinearModel(b=(0.4,), a=(0.99,))
        spec = CompanionSpec(*model.filter[:2], model.innovations)
        for process in (model, spec):
            assert type(process).burnin is RationalProcess.burnin
            assert type(process).tile_rows is RationalProcess.tile_rows
        assert spec.burnin == model.burnin == 4125
        assert spec.tile_rows(n) == model.tile_rows(n) == max(1, dgp.TILE_VALUES // (n + 4125))



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


# Filters the chunked in-place filter must reproduce: an AR(1) at rho = 0.9,
# an ARMA(2,1), and the Wold all-pass filters b / b~ of the worked example
# (one flipped root) and of an MA(2) whose two roots both flip, so two state
# values cross each piece boundary.
IN_PLACE_FILTERS = {
    "ar1-0.9": lambda: ([1.0], [1.0, -0.9]),
    "arma21": lambda: ([1.0, 0.4], [1.0, -0.5, 0.2]),
    "wold-ma1": lambda: ([1.0, -2.0], wold_factorization([1.0, -2.0])[0]),
    "wold-ma2": lambda: ([1.0, 0.5, -3.0], wold_factorization([1.0, 0.5, -3.0])[0]),
}


class TestFilterInPlace:
    PIECE = dgp.TILE_VALUES

    @pytest.mark.parametrize("kind", IN_PLACE_FILTERS)
    @pytest.mark.parametrize("size", [1, PIECE - 1, PIECE, PIECE + 1, 10 ** 6 + 60])
    def test_is_filter_rows_bit_for_bit(self, kind, size):
        b, a = IN_PLACE_FILTERS[kind]()
        x = np.random.default_rng(size).standard_exponential(size) - 1.0
        want = filter_rows(b, a, x)
        got = dgp.filter_in_place(b, a, x, self.PIECE)
        assert got is x
        assert np.array_equal(_bits(got), _bits(want))

    def test_rejects_a_finite_or_unnormalised_denominator(self):
        for a in ([1.0], [2.0, -0.5]):
            with pytest.raises(ValueError, match="start with 1 and have degree >= 1"):
                dgp.filter_in_place([1.0], a, np.ones(10), 4)


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

    @pytest.mark.parametrize("k", [1, 3, 100])
    @pytest.mark.parametrize("n", [149, 150])
    def test_rows_are_the_time_major_one_draw_recursion(self, k, n):
        # the block simulate_arch1 stepped before it filled its output rows:
        # one draw of n + burn-in per path into a column of a time-major
        # block, stepped a row (a time step) at a time, kept rows transposed
        model = Arch1Model(omega=1.0, alpha1=0.3)
        seeds = [derive_seed(8, KEY_TRUTH, i) for i in range(k)]
        x = np.stack([np.random.default_rng(s).standard_normal(n + ARCH1_BURNIN) for s in seeds],
                     axis=1)
        prev = np.zeros(k)
        for row in x:
            row *= np.sqrt(model.omega + model.alpha1 * (prev * prev))
            prev = row
        block = simulate_arch1(model, n, seeds)
        assert block.shape == (k, n) and block.flags.c_contiguous
        assert np.array_equal(block, x[ARCH1_BURNIN:].T)

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


def _arch1_reference(model, n, seed, drop=ARCH1_BURNIN):
    """The ARCH(1) recursion one path at a time, in Python floats."""
    z = np.random.default_rng(seed).standard_normal(n + drop)
    x, prev_sq = np.empty(n + drop), 0.0
    for t in range(n + drop):
        x[t] = math.sqrt(model.omega + model.alpha1 * prev_sq) * z[t]
        prev_sq = x[t] * x[t]
    return x[drop:]


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
    "linear": lambda: LinearModel(b=(-2.0,), innovations=InnovationSpec("centered_exponential")),
    "ar": lambda: LinearModel(a=(0.6, -0.2), innovations=InnovationSpec("centered_uniform")),
    "arch1": lambda: Arch1Model(omega=1.0, alpha1=0.3),
    "companion": lambda: CompanionSpec([1.0, 0.5], [1.0, -0.3], InnovationSpec("centered_uniform")),
    "sieve": lambda: fit_sieve(simulate_ar(LinearModel(a=(0.6,)), 400, 3)),
}


# Processes simulated a block of paths at a time through one lfilter call:
# each noise law, with a finite (FIR) filter and a recursive (IIR) one, and
# the burn-in-0 white filter of an ARCH(1) companion, whose block is the
# filter's own output, not a copy of it.
_RECORD = np.random.default_rng(2).exponential(1.0, 5000) - 1.0
BLOCK_PROCESSES = {
    "resample-white": lambda: CompanionSpec([1.0], [1.0], ResampledRecord(_RECORD)),
    "parametric-fir": lambda: CompanionSpec([1.0, 0.5, -0.2], [1.0],
                                            InnovationSpec("centered_exponential")),
    "parametric-iir": PROCESSES["companion"],
    "resample-fir": lambda: CompanionSpec([1.0, 0.4], [1.0], ResampledRecord(_RECORD)),
    "resample-iir": lambda: CompanionSpec([1.0], [1.0, -0.5, 0.2], ResampledRecord(_RECORD)),
    "exact-ma1-fir": lambda: LinearModel(
        b=(-2.0,), innovations=InnovationSpec("centered_exponential")).companion(6),
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

        monkeypatch.setattr(dgp, "build_companion", recorded)
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

    # the tile as one row, 7 rows and the whole chunk of 15 rows
    @pytest.mark.parametrize("kind", sorted(BLOCK_PROCESSES))
    @pytest.mark.parametrize("tile_rows", [1, 7, 15])
    def test_law_is_the_same_whatever_the_tile(self, monkeypatch, kind, tile_rows):
        process, statistic, n, count = BLOCK_PROCESSES[kind](), AcvfStatistic(1), 120, 15
        want, _ = replicate(process, statistic, n, count, 11, KEY_TRUTH)
        filtered = []

        def recorded(b, a, x):
            if x.ndim == 2:  # the 1-d calls are the impulse responses of the centre
                filtered.append(x.shape[0])
            return filter_rows(b, a, x)

        monkeypatch.setattr(dgp, "filter_rows", recorded)
        monkeypatch.setattr(dgp, "TILE_VALUES", tile_rows * (n + process.burnin))
        law, _ = replicate(process, statistic, n, count, 11, KEY_TRUTH)
        assert np.array_equal(law.sample, want.sample)
        assert sum(filtered) == count and max(filtered) == tile_rows

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


def _traced_peak(build):
    """(build(), the bytes tracemalloc saw it hold at its peak), traced on a
    second call so that one-off allocations (caches, imports) stay out."""
    build()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out = build()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return out, peak


class TestBlockMemory:
    # Blocks at n = 2000, besides which a call may hold 64 kB of row-sized
    # temporaries and small arrays.
    SLACK = 1 << 16
    SEEDS = derive_seeds(3, KEY_TRUTH, 0, 262)

    @staticmethod
    def _peak(simulate, rows) -> int:
        block, peak = _traced_peak(simulate)
        assert block.shape == (rows, 2000) and block.flags.c_contiguous
        return peak

    def test_build_companion_holds_the_block_and_one_filtered_tile(self):
        # one call on the seeds of one tile, which is all that replicate hands
        # it: the draws and their filtered copy, burn-in included, and then
        # the filtered copy and the block past the burn-in
        spec = CompanionSpec([1.0], [1.0, -0.5], ResampledRecord(_RECORD))
        assert spec.burnin == 60  # the first t with 0.5^t < 1e-18
        rows = spec.tile_rows(2000)
        assert rows == 31
        peak = self._peak(lambda: build_companion(spec, 2000, self.SEEDS[:rows]), rows)
        assert peak <= 2 * rows * (2000 + spec.burnin) * 8 + self.SLACK

    def test_simulate_arch1_holds_the_block_and_its_burnin(self):
        # a block of 262 paths, a chunk of BATCH_VALUES at paper scale, and
        # one generator a path, under 1 kB each: the burn-in is drawn into
        # the block's own rows, so no buffer of ARCH1_BURNIN values a path
        model = Arch1Model(omega=1.0, alpha1=0.3)
        peak = self._peak(lambda: simulate_arch1(model, 2000, self.SEEDS), 262)
        assert peak <= 262 * (2000 * 8 + 1024) + self.SLACK


# The worked example's three laws: the truth of the model, the oracle of its
# companion (a resampled record of Wold innovations) and the bootstrap of the
# sieve fitted on one data path.
_WORKED_EXAMPLE = LinearModel(b=(-2.0,), innovations=InnovationSpec("centered_exponential"))
_SPECTRAL_DOCS = [{"name": "specdens"}, {"name": "ratio-cos", "lag": 1},
                  {"name": "intper-cos", "lag": 3}]


@pytest.fixture(scope="module")
def worked_example_laws():
    """{key: the process of that law's paths}, the sieve fitted on a data
    path of 2000 values."""
    data = _WORKED_EXAMPLE.simulate(2000, [derive_seed(4, dgp.KEY_DATA)])[0]
    return {KEY_TRUTH: _WORKED_EXAMPLE, KEY_ORACLE: _WORKED_EXAMPLE.companion(4),
            KEY_BOOT: fit_sieve(data)}


class TestTiles:
    # 300 paths: a chunk of 262 and one of 38 at n = 1999 and n = 2000
    COUNT = 300

    @pytest.mark.parametrize("n", [1999, 2000])
    @pytest.mark.parametrize("doc", _SPECTRAL_DOCS, ids=lambda doc: doc["name"])
    def test_every_law_is_the_same_whatever_the_tile(self, monkeypatch, worked_example_laws,
                                                     doc, n):
        statistic, tiles = statistic_from_config(doc), []

        def recorded(block):
            tiles.append(block.shape[0])
            return type(statistic).transform(block)

        for key, process in worked_example_laws.items():
            want = replicate(process, statistic, n, self.COUNT, 11, key)
            width = n + process.burnin
            # one row, 7 rows, and 100 rows from a value count that is no
            # multiple of a path's: tiles that do not divide the chunk
            for rows, tile_values in ((1, width), (7, 7 * width), (100, 100 * width + n // 2)):
                tiles.clear()
                with monkeypatch.context() as patch:
                    patch.setattr(statistic, "transform", recorded, raising=False)
                    patch.setattr(dgp, "TILE_VALUES", tile_values)
                    law, theta = replicate(process, statistic, n, self.COUNT, 11, key)
                assert np.array_equal(law.sample, want[0].sample) and theta == want[1]
                assert sum(tiles) == self.COUNT and max(tiles) == rows

    # the oracle, a finite filter of burn-in 1, and the fitted sieve, a
    # recursive AR(4) of burn-in 56
    @pytest.mark.parametrize("key, rows", [(KEY_ORACLE, 32), (KEY_BOOT, 31)],
                             ids=["oracle", "sieve"])
    def test_a_spectral_law_holds_one_tile_at_a_time(self, worked_example_laws, key, rows):
        # specdens at paper scale, the record built beforehand: a tile's
        # innovations and filtered copy, then its block, the block's FFT and
        # its periodogram, with never a whole chunk of 262 paths
        spec = worked_example_laws[key]
        statistic = statistic_from_config({"name": "specdens"})
        assert spec.tile_rows(2000) == rows
        _, peak = _traced_peak(lambda: replicate(spec, statistic, 2000, 262, 5, key))
        assert peak <= 4 * 8 * dgp.TILE_VALUES + TestBlockMemory.SLACK


class TestRecordMemory:
    # The worked example's companion record, 10^6 Wold innovations past the
    # transient of b / b~, and the variance of such a record.
    MODEL = LinearModel(b=(-2.0,), innovations=InnovationSpec("centered_exponential"))
    SLACK = 1 << 16

    def test_the_record_is_filtered_in_place(self):
        # the draws themselves become the record: one record-sized array,
        # plus one piece of filtered output at a time
        spec, peak = _traced_peak(lambda: self.MODEL.companion(7))
        record = spec.noise.values
        assert record.size == dgp.COMPANION_RECORD_LENGTH
        assert peak <= record.base.nbytes + 8 * dgp.TILE_VALUES + self.SLACK

    def test_the_record_variance_holds_no_square_of_the_record(self):
        record = self.MODEL.companion(7).noise
        _, peak = _traced_peak(lambda: record.variance)
        assert peak < 1 << 19

    @pytest.mark.parametrize("build", [
        lambda: ResampledRecord(np.random.default_rng(2).standard_normal(10 ** 6)),
        lambda: TestRecordMemory.MODEL.companion(7).noise,
    ], ids=["record", "companion-record"])
    def test_a_dropped_record_is_freed_at_once(self, build):
        # no reference cycle holds a record whose variance was taken: it is
        # freed when its last name goes, without the cyclic collector
        enabled = gc.isenabled()
        gc.disable()
        try:
            record = build()
            assert record.variance > 0
            values = record.values if record.values.base is None else record.values.base
            alive = weakref.ref(values)
            del record, values
            assert alive() is None
        finally:
            if enabled:
                gc.enable()


class _OneBlockAlive:
    """White noise whose simulate fails while the block it last returned is
    still referenced."""

    filter = (np.ones(1), np.ones(1), 1.0)

    def __init__(self):
        self.previous, self.calls = None, 0

    def tile_rows(self, n):
        return max(1, dgp.BATCH_VALUES // n)

    def simulate(self, n, seeds):
        assert self.previous is None or self.previous() is None, "the previous block is alive"
        block = np.array([np.random.default_rng(s).standard_normal(n) for s in seeds])
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
