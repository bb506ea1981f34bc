import json

import numpy as np
import pytest
from scipy.signal import freqz

from sieveboot.dgp import (
    KEY_TRUTH,
    MA1_WOLD_FILTER,
    VE_FILTER_LAG,
    Arch1Model,
    ARModel,
    InnovationSpec,
    LinearModel,
    StabilityError,
    derive_seed,
    draw_innovations,
    ma1_example,
    ma1_model,
    model_from_json,
    model_to_json,
    replicate,
    rng_from,
    simulate_ar,
    simulate_arch1,
    simulate_linear,
)
from sieveboot.companion import parametric_companion_spec
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


class TestInnovations:
    @pytest.mark.parametrize("family,raw4", [
        ("gaussian", 3.0),
        ("centered_exponential", 9.0),
        ("centered_uniform", 1.8),
    ])
    def test_moments(self, family, raw4):
        spec = InnovationSpec(family=family, scale=2.0)
        e = draw_innovations(spec, 400_000, seed=1)
        assert abs(e.mean()) < 0.02
        assert e.var() == pytest.approx(4.0, rel=0.02)
        ratio = np.mean(e ** 4) / np.mean(e ** 2) ** 2
        assert ratio == pytest.approx(raw4, rel=0.05)
        assert spec.raw_fourth_ratio == raw4

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            InnovationSpec(family="cauchy")

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(ValueError):
            InnovationSpec(scale=0.0)


class TestLinear:
    def test_matches_manual_convolution(self):
        model = LinearModel(b=(-2.0, 0.5))
        x, e = simulate_linear(model, 50, seed=3)
        # reconstruct with the same innovation stream, by hand
        e_full = draw_innovations(model.innovations, 52, seed=3)
        for t in range(2, 50):
            want = e_full[t + 2] - 2.0 * e_full[t + 1] + 0.5 * e_full[t]
            assert x.values[t] == pytest.approx(want, abs=1e-12)
        assert np.allclose(e.values, e_full[2:])

    def test_ma1_variance(self):
        x, _ = simulate_linear(ma1_model(), 200_000, seed=4)
        assert x.values.var() == pytest.approx(5.0, rel=0.03)


class TestMa1Example:
    def test_x_matches_simulate_linear(self):
        x1, _ = simulate_linear(ma1_model(), 1000, seed=5)
        x2, _, _ = ma1_example(1000, seed=5)
        assert np.array_equal(x1.values, x2.values)

    def test_reconstruction_identity(self):
        x, _, ve = ma1_example(5000, seed=6)
        recon = ve.values[1:] - 0.5 * ve.values[:-1]
        assert np.max(np.abs(x.values[1:] - recon)) < 1e-10

    def test_wold_filter_is_all_pass_with_gain_two(self):
        lam = np.linspace(0.0, np.pi, 257)
        _, response = freqz(*MA1_WOLD_FILTER, worN=lam)
        assert np.allclose(np.abs(response), 2.0, rtol=1e-12, atol=0.0)

    def test_ve_is_white_with_variance_four(self):
        _, _, ve = ma1_example(300_000, seed=7)
        v = ve.values[VE_FILTER_LAG:]
        assert v.var() == pytest.approx(4.0, rel=0.02)
        lag1 = np.mean(v[:-1] * v[1:]) - v.mean() ** 2
        assert abs(lag1) / v.var() < 0.01


class TestAR:
    def test_stability_enforced(self):
        with pytest.raises(StabilityError):
            ARModel(a=(1.5,))

    def test_ar1_acvf(self):
        model = ARModel(a=(0.6,))
        x = simulate_ar(model, 200_000, seed=8)
        g0 = x.values.var()
        assert g0 == pytest.approx(1.0 / (1 - 0.36), rel=0.03)


class TestArch1:
    def test_marginal_variance(self):
        model = Arch1Model(omega=1.0, alpha1=0.3)
        x = simulate_arch1(model, 300_000, seed=9)
        assert x.values.var() == pytest.approx(1.0 / 0.7, rel=0.03)
        # uncorrelated but dependent: squared values are correlated
        v = x.values
        rho_sq = np.corrcoef(v[:-1] ** 2, v[1:] ** 2)[0, 1]
        assert rho_sq > 0.1
        rho = np.corrcoef(v[:-1], v[1:])[0, 1]
        assert abs(rho) < 0.02

    def test_fourth_moment_condition(self):
        with pytest.raises(ValueError):
            Arch1Model(omega=1.0, alpha1=0.8)


class TestJson:
    @pytest.mark.parametrize("model", [
        LinearModel(b=(-2.0,), innovations=InnovationSpec("centered_exponential", 1.5)),
        ARModel(a=(0.5, -0.2)),
        Arch1Model(omega=1.0, alpha1=0.3),
    ])
    def test_roundtrip(self, model):
        assert model_from_json(model_to_json(model)) == model

    def test_unknown_keys_rejected(self):
        doc = json.loads(model_to_json(ma1_model()))
        doc["extra"] = 1
        with pytest.raises(ValueError):
            model_from_json(doc)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            model_from_json({"family": "garch"})


# One process of each kind in the process protocol: DGP models, a companion
# spec and a fitted sieve.
PROCESSES = {
    "linear": lambda: ma1_model(InnovationSpec("centered_exponential")),
    "arch1": lambda: Arch1Model(omega=1.0, alpha1=0.3),
    "companion": lambda: parametric_companion_spec([1.0, 0.5], [1.0, -0.3],
                                                   InnovationSpec("centered_uniform")),
    "sieve": lambda: fit_sieve(simulate_ar(ARModel(a=(0.6,)), 400, 3), OrderRule()),
}


class TestReplicate:
    @pytest.mark.parametrize("kind", sorted(PROCESSES))
    def test_law_is_the_per_path_seed_loop(self, kind):
        # the seed contract: path i of a law is simulated from derive_seed(seed, key, i)
        process, statistic, n = PROCESSES[kind](), AcvfStatistic(1), 300
        law, theta = replicate(process, statistic, n, 7, 11, KEY_TRUTH)
        assert theta == statistic.model_center(*process.filter, n)
        vals = np.array([statistic.evaluate(process.simulate(n, derive_seed(11, KEY_TRUTH, i)))
                         for i in range(7)])
        assert np.array_equal(law.sample, np.sort(statistic.rate(n) * (vals - theta)))
