import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sieveboot.dgp import Arch1Model, InnovationSpec, LinearModel, model_from_json
from sieveboot.experiment import compute_targets, list_presets, preset_config
from sieveboot.statistics import (
    IntegratedPeriodogramStatistic,
    MeanStatistic,
    RatioStatistic,
    SpectralDensityStatistic,
    bootstrap_verdict,
    linear_limit_variance,
    rational_acvf,
    statistic_from_config,
)
from test_ar import _ma_polynomial, _reciprocal_roots, complex_roots, real_roots

MA1 = np.array([5.0, -2.0, 0.0])
EXPONENTIAL = InnovationSpec("centered_exponential")


def ma1_density(lam):
    lam = np.asarray(lam, dtype=float)
    return (5.0 - 4.0 * np.cos(lam)) / (2.0 * np.pi)


class TestKurtosisTransfer:
    def test_values(self):
        # X = e - 2 e_{-1}: the all-pass response psi = (1, -3/2, -3/4, ...)
        # has sum psi^2 = 4 and sum psi^4 = 32/5, so kappa_eps = (2/5) kappa_e,
        # that is (2/5) E e^4 / sigma^4 - 6/5
        for family, raw in (("gaussian", 3.0), ("centered_exponential", 9.0),
                            ("centered_uniform", 1.8)):
            kappa_e, kappa_eps = LinearModel(b=(-2.0,), innovations=InnovationSpec(family)).kurtoses
            assert kappa_e == pytest.approx(raw - 3.0)
            assert kappa_eps == pytest.approx(0.4 * raw - 1.2, abs=1e-12)

    def test_worked_example_value_is_the_closed_form_bit_for_bit(self):
        model = LinearModel(b=(-2.0,), innovations=InnovationSpec("centered_exponential"))
        assert model.kurtoses == (6.0, 0.4 * 9.0 - 1.2)

    def test_invertible_models_keep_the_raw_kurtosis(self):
        exponential = InnovationSpec("centered_exponential")
        assert LinearModel(b=(0.5, -0.2), innovations=exponential).kurtoses == (6.0, 6.0)
        assert LinearModel(a=(0.5,), innovations=exponential).kurtoses == (6.0, 6.0)


class TestAcvfVariance:
    """Weights {h: 1}: the lag-h sample autocovariance's limit variance."""

    def test_ma1_trio(self):
        # same second-order functional, three kurtosis values: the whole
        # validity/failure story for the lag-0 autocovariance in one formula
        assert linear_limit_variance(MA1, {0: 1.0}, 0.0) == pytest.approx(66.0)
        assert linear_limit_variance(MA1, {0: 1.0}, 2.4) == pytest.approx(126.0)
        assert linear_limit_variance(MA1, {0: 1.0}, 6.0) == pytest.approx(216.0)

    def test_ma1_lag1_gaussian(self):
        # sum_k (gamma(k)^2 + gamma(k+1) gamma(k-1)) = 25 + 2*4 + 4 = 37
        assert linear_limit_variance(MA1, {1: 1.0}, 0.0) == pytest.approx(37.0)

    def test_lags_past_the_array_are_zero(self):
        # gamma = (5, -2) with no trailing zero: at h = 1 the sum runs to
        # k = K = 2 and reads gamma(3), past the array, as 0
        assert linear_limit_variance(np.array([5.0, -2.0]), {1: 1.0}, 0.0) == 37.0
        assert (linear_limit_variance([5.0, -2.0], {0: 1.0}, 2.4)
                == linear_limit_variance(MA1, {0: 1.0}, 2.4))

    def test_white_noise_lag0(self):
        g = np.array([2.0])
        # kappa*gamma0^2 + 2*gamma0^2
        assert linear_limit_variance(g, {0: 1.0}, 1.0) == pytest.approx(12.0)

    def test_lag_symmetry(self):
        k = 2.4
        assert linear_limit_variance(MA1, {1: 1.0}, k) == linear_limit_variance(MA1, {-1: 1.0}, k)


class TestBartlett:
    """Weights {h: 1, 0: -rho(h)} on the ACF rho: Bartlett's formula, at any
    kurtosis, since sum_j c_j rho(j) = 0."""

    def test_ma1_value(self):
        rho = MA1 / MA1[0]
        # 1 - 3 rho(1)^2 + 4 rho(1)^4 at rho(1) = -0.4
        for kappa in (0.0, 6.0):
            assert linear_limit_variance(rho, {1: 1.0, 0: 0.4}, kappa) == pytest.approx(0.6224)

    def test_white_noise(self):
        assert linear_limit_variance(np.array([1.0]), {1: 1.0, 0: 0.0}, 0.0) == pytest.approx(1.0)


def _stable_polynomial(reals, pairs):
    """An AR polynomial: the reciprocal roots r, each folded into the disk as
    1 / conj(r) where |r| > 1, so its root radius is at most 1 / 1.05."""
    r = _reciprocal_roots(reals, pairs)
    return _ma_polynomial(np.where(np.abs(r) > 1.0, r / np.abs(r) ** 2, r))


class TestKurtosisEntersOnlyThroughTheMean:
    """The paper's theorem in the formula: kappa enters the limit variance of
    sum_j c_j gamma_hat(j) only as kappa (sum_j c_j gamma(j))^2. The
    autocorrelation weights sum to 0 against rho, so acf and ratio-cos hold
    at any kurtosis, and the acvf targets differ by (kappa_e - kappa_eps)
    gamma(h)^2, on ARMA filters drawn from their roots."""

    @settings(max_examples=60, deadline=None)
    @given(real_roots, complex_roots, real_roots, complex_roots, st.floats(0.2, 3.0),
           st.sampled_from(["acf", "ratio-cos"]), st.integers(1, 6))
    def test_autocorrelation_targets_ignore_the_kurtosis(self, num_reals, num_pairs, den_reals,
                                                          den_pairs, sigma2, name, lag):
        num = _ma_polynomial(_reciprocal_roots(num_reals, num_pairs))
        den = _stable_polynomial(den_reals, den_pairs)
        statistic = statistic_from_config({"name": name, "lag": lag})
        gaussian = statistic.targets(num, den, sigma2, 0.0, 0.0)
        exponential = statistic.targets(num, den, sigma2, 6.0, 6.0)
        assert gaussian.keys() == exponential.keys() and len(gaussian) == 1
        for tid, value in gaussian.items():
            assert exponential[tid] == pytest.approx(value, rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(real_roots, complex_roots, real_roots, complex_roots, st.floats(0.2, 3.0),
           st.floats(-2.0, 10.0), st.floats(-2.0, 10.0), st.integers(0, 6))
    def test_acvf_targets_differ_by_the_kurtosis_term(self, num_reals, num_pairs, den_reals,
                                                      den_pairs, sigma2, kappa_e, kappa_eps, lag):
        num = _ma_polynomial(_reciprocal_roots(num_reals, num_pairs))
        den = _stable_polynomial(den_reals, den_pairs)
        gamma = rational_acvf(num, den, sigma2)
        gamma_h = gamma[lag] if lag < gamma.size else 0.0
        targets = statistic_from_config({"name": "acvf", "lag": lag}).targets(
            num, den, sigma2, kappa_e, kappa_eps)
        linear, companion = targets["acvf_variance_linear"], targets["acvf_variance_companion"]
        # relative to the targets: the difference cancels their common part
        assert linear - companion == pytest.approx(
            (kappa_e - kappa_eps) * gamma_h ** 2, rel=1e-12, abs=1e-12 * max(linear, companion))


class TestMeanVariance:
    def test_ma1_long_run_variance(self):
        # sigma2 num(1)^2 / den(1)^2 = 5 + 2 (-2), bit for bit
        targets = MeanStatistic().targets([1.0, -2.0], [1.0], 1.0, None, None)
        assert targets == {"mean_long_run_variance": 1.0}

    def test_ar1_long_run_variance(self):
        # gamma(h) = 0.5^h / 0.75: sum over all h gives (1/0.75)*(2/(1-0.5) - 1) = 4
        targets = MeanStatistic().targets([1.0], [1.0, -0.5], 1.0, None, None)
        assert targets["mean_long_run_variance"] == pytest.approx(4.0, rel=1e-15)


class TestFrequencyDomain:
    def test_integrated_periodogram_white_noise(self):
        # f = sigma2/(2 pi) constant, phi = 2cos(0) = 2:
        # kappa (2 pi sigma2/2 pi)^2 + 2 pi * pi * 4 (sigma2/2 pi)^2 = kappa sigma4 + 2 sigma4
        sigma2 = 3.0
        v = IntegratedPeriodogramStatistic(h=0).targets([1.0], [1.0], sigma2, 2.0, 2.0)
        assert v == {"intper_variance_linear": 4.0 * sigma2 ** 2,
                     "intper_variance_companion": 4.0 * sigma2 ** 2}

    def test_ratio_variance_kurtosis_free_value(self):
        # R(I_n, 2cos(.)) is 2 rho_hat(1): four times Bartlett's 0.6224
        v = RatioStatistic(h=1).targets([1.0, -2.0], [1.0], 1.0, 6.0, 2.4)
        assert v["ratio_statistic_variance"] == pytest.approx(4.0 * 0.6224, rel=1e-12)
        assert v["ratio_statistic_variance"] == pytest.approx(2.4896, rel=1e-12)

    def test_ratio_variance_vanishes_for_constant_weight(self):
        # phi = 2cos(0) = 2 makes R the constant 2
        v = RatioStatistic(h=0).targets([1.0, -2.0], [1.0], 1.0, 6.0, 2.4)
        assert v["ratio_statistic_variance"] == pytest.approx(0.0, abs=1e-12)

    def test_spectral_variance_boundary_doubling(self):
        def variance(num, sigma2, lam):
            stat = SpectralDensityStatistic(lam=lam, bandwidth=0.3)
            return stat.targets(num, [1.0], sigma2, None, None)["specdens_nh_variance"]

        # white noise has f = sigma2 / 2 pi at every lambda
        interior = variance([1.0], 1.7, math.pi / 2)
        assert variance([1.0], 1.7, math.pi) == pytest.approx(2.0 * interior)
        assert variance([1.0], 1.7, 0.0) == pytest.approx(2.0 * interior)
        # MA(1) worked example, f = (5 - 4 cos l) / (2 pi): 2 pi f^2 int K^2 with
        # int K^2 = 3 / (5 pi) is 7.5 / pi^2 at pi/2 and, doubled, 48.6 / pi^2 at pi
        assert variance([1.0, -2.0], 1.0, math.pi / 2) == pytest.approx(0.760, abs=5e-4)
        assert variance([1.0, -2.0], 1.0, math.pi) == pytest.approx(4.924, abs=5e-4)


# Midpoint rule on [0, pi]: exact for the trigonometric polynomials of an MA
# and geometrically convergent for an AR, at the lags tested here.
QUAD_POINTS = 2048
QUAD_LAM = (np.arange(QUAD_POINTS) + 0.5) * np.pi / QUAD_POINTS
QUAD_STEP = np.pi / QUAD_POINTS


def _quadrature_density(model):
    num, den, sigma2 = model.filter
    z = np.exp(-1j * QUAD_LAM)
    gain = np.abs(np.polyval(num[::-1], z) / np.polyval(den[::-1], z)) ** 2
    return sigma2 * gain / (2 * np.pi)


class TestFrequencyDomainIdentity:
    """The cosine targets against their frequency-domain forms, computed here
    by quadrature of the spectral density f apart from the ACVF sums: with
    phi = 2cos(. h), kappa (int phi f)^2 + 2 pi int phi^2 f^2 for M(I_n, phi),
    and 2 pi int psi^2 f^2 / (int f)^4, psi = phi int f - int phi f, for
    R(I_n, phi), every integral over [0, pi]."""

    MODELS = {"ma2-noninvertible": LinearModel(b=(0.5, -3.0), innovations=EXPONENTIAL),
              "ar2": LinearModel(a=(0.5, -0.2), innovations=EXPONENTIAL),
              "ar1-persistent": LinearModel(a=(0.9,), innovations=EXPONENTIAL)}

    @pytest.mark.parametrize("lag", range(6))
    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_integrated_periodogram(self, name, lag):
        model = self.MODELS[name]
        f = _quadrature_density(model)
        phi = 2.0 * np.cos(QUAD_LAM * lag)
        targets = compute_targets(model, statistic_from_config({"name": "intper-cos", "lag": lag}))
        for kind, kappa in zip(("linear", "companion"), model.kurtoses):
            want = (kappa * (np.sum(phi * f) * QUAD_STEP) ** 2
                    + 2.0 * np.pi * np.sum(phi ** 2 * f ** 2) * QUAD_STEP)
            assert targets[f"intper_variance_{kind}"] == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("lag", range(6))
    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_ratio(self, name, lag):
        model = self.MODELS[name]
        f = _quadrature_density(model)
        phi = 2.0 * np.cos(QUAD_LAM * lag)
        int_f = np.sum(f) * QUAD_STEP
        psi = phi * int_f - np.sum(phi * f) * QUAD_STEP
        want = 2.0 * np.pi * np.sum(psi ** 2 * f ** 2) * QUAD_STEP / int_f ** 4
        targets = compute_targets(model, statistic_from_config({"name": "ratio-cos", "lag": lag}))
        assert targets["ratio_statistic_variance"] == pytest.approx(want, rel=1e-9, abs=1e-12)


class TestIntegratedPeriodogramTargets:
    # X = e - 2 e_{-1}: (kappa_e, kappa_eps) = (6, 2.4) under centered
    # exponential noise and (0, 0) under Gaussian noise. With phi = 2cos(.h),
    # kappa (int phi f)^2 + 2 pi int phi^2 f^2 = 4 kappa gamma(h)^2 + 66 at
    # h = 0 and 4 kappa + 37 at h = 1, the lag-h acvf variances.
    @pytest.mark.parametrize("lag, linear, companion, gaussian", [
        (0, 216.0, 126.0, 66.0),
        (1, 61.0, 46.6, 37.0),
    ])
    def test_ma1_values(self, lag, linear, companion, gaussian):
        stat = statistic_from_config({"name": "intper-cos", "lag": lag})
        exponential = compute_targets(
            LinearModel(b=(-2.0,), innovations=InnovationSpec("centered_exponential")), stat)
        normal = compute_targets(LinearModel(b=(-2.0,)), stat)
        assert exponential["intper_variance_linear"] == pytest.approx(linear, rel=1e-6)
        assert exponential["intper_variance_companion"] == pytest.approx(companion, rel=1e-6)
        assert normal["intper_variance_linear"] == pytest.approx(gaussian, rel=1e-6)
        assert normal["intper_variance_companion"] == pytest.approx(gaussian, rel=1e-6)

    @pytest.mark.parametrize("model", [
        LinearModel(b=(0.5, -0.3), innovations=InnovationSpec("centered_exponential")),
        LinearModel(a=(0.9,), innovations=InnovationSpec("centered_exponential")),
    ])
    def test_equal_the_acvf_and_bartlett_targets_bit_for_bit(self, model):
        # M(I_n, 2cos(.h)) and the lag-h sample autocovariance share their limit
        # law; R(I_n, 2cos(.h)) is 2 rho_hat(h) up to O(1/n)
        for lag in (1, 2, 3, 17, 2048):
            intper, acvf, ratio, acf = (
                compute_targets(model, statistic_from_config({"name": name, "lag": lag}))
                for name in ("intper-cos", "acvf", "ratio-cos", "acf"))
            assert intper == {f"intper_variance_{kind}": acvf[f"acvf_variance_{kind}"]
                              for kind in ("linear", "companion")}
            assert ratio == {"ratio_statistic_variance": 4.0 * acf["bartlett_variance"]}

    @pytest.mark.parametrize("lag", [2047, 2048, 4096])
    def test_past_any_fixed_frequency_grid(self, lag):
        # gamma(h) = 0 past lag 1 of the worked example, so both targets are
        # sum_k gamma(k)^2 = 25 + 2 * 4 = 33 and the ratio's is 4 sum_k rho(k)^2
        # = 4 * 1.32; a 2048-point grid of [0, pi] folds cos(2 h l) onto
        # frequency 2h mod 4096 and gives about 0 at lag 2048
        model = LinearModel(b=(-2.0,), innovations=EXPONENTIAL)
        intper = compute_targets(model, statistic_from_config({"name": "intper-cos", "lag": lag}))
        assert intper == {"intper_variance_linear": 33.0, "intper_variance_companion": 33.0}
        ratio = compute_targets(model, statistic_from_config({"name": "ratio-cos", "lag": lag}))
        assert ratio["ratio_statistic_variance"] == pytest.approx(5.28, rel=1e-12)

    @pytest.mark.parametrize("stat, target_id, want", [
        ({"name": "acvf", "lag": 10 ** 8}, "acvf_variance_linear", 33.0),
        ({"name": "acvf", "lag": 10 ** 8}, "acvf_variance_companion", 33.0),
        ({"name": "acf", "lag": 10 ** 8}, "bartlett_variance", 1.32),
    ])
    def test_far_lags_cost_no_more_than_near_ones(self, stat, target_id, want):
        # a sum over lags up to h would run 10^8 steps here
        targets = compute_targets(LinearModel(b=(-2.0,), innovations=EXPONENTIAL),
                                  statistic_from_config(stat))
        assert targets[target_id] == pytest.approx(want, rel=1e-12)

    def test_arch1_has_only_the_companion_target(self):
        # ARCH(1) is not linear in i.i.d. noise, so it has no linear target; its
        # companion is i.i.d. with excess kurtosis 6 alpha^2 / (1 - 3 alpha^2),
        # and with phi = 2cos(.), int phi f = 2 gamma(1) = 0 leaves
        # 2 pi int phi^2 f^2 = gamma(0)^2, gamma(0) = omega / (1 - alpha)
        stat = statistic_from_config({"name": "intper-cos", "lag": 1})
        targets = compute_targets(Arch1Model(omega=1.0, alpha1=0.3), stat)
        assert set(targets) == {"intper_variance_companion"}
        assert targets["intper_variance_companion"] == pytest.approx(1.0 / 0.49, rel=1e-6)

    @pytest.mark.parametrize("stat", [{"name": "acf", "lag": 1}, {"name": "ratio-cos", "lag": 1}])
    def test_arch1_has_no_linear_process_formula(self, stat):
        # Bartlett's formula and the ratio variance hold only for processes
        # linear in i.i.d. noise: for ARCH(1) (omega = 1, alpha = 0.3) the acf
        # lag-1 limit variance is (omega E X^2 + alpha E X^4) / gamma(0)^2 =
        # 1.822, not the white-noise Bartlett value 1
        targets = compute_targets(Arch1Model(omega=1.0, alpha1=0.3), statistic_from_config(stat))
        assert targets == {}


ACVF0 = statistic_from_config({"name": "acvf", "lag": 0})


class TestNoninvertibleMaTargets:
    """Targets of finite MAs whose roots flip, derived here apart from the
    factorization: kappa_eps from the all-pass responses, gamma by hand."""

    def test_trailing_zero_coefficient_changes_nothing(self):
        # [-2, 0] is the worked example's own process
        want = {"acvf_variance_linear": 216.0, "acvf_variance_companion": 126.0}
        for b in ((-2.0,), (-2.0, 0.0)):
            assert compute_targets(LinearModel(b=b, innovations=EXPONENTIAL), ACVF0) == want

    def test_second_order_ma_with_two_flipped_roots(self):
        # 1 + 0.5 z - 3 z^2 = (1 - 1.5 z)(1 + 2 z); each factor flips to an
        # all-pass (1 - r z) / (1 - z / r) with the geometric response
        # 1, (1/r)^(j-1) (1/r - r), and psi is their convolution
        j = np.arange(299)
        responses = [np.concatenate([[1.0], (1.0 / r) ** j * (1.0 / r - r)]) for r in (1.5, -2.0)]
        psi = np.convolve(*responses)[:300]
        assert np.sum(psi ** 2) == pytest.approx(9.0, rel=1e-12)  # sigma_eps^2 = 1.5^2 2^2
        kappa_eps = 6.0 * np.sum(psi ** 4) / np.sum(psi ** 2) ** 2
        assert kappa_eps == pytest.approx(3.29495, abs=1e-5)
        # gamma = (10.25, -1, -3): sum over all lags of 2 gamma(k)^2 is 250.125
        gamma0_sq, sum_sq = 10.25 ** 2, 2.0 * (10.25 ** 2 + 2.0 * (1.0 + 9.0))
        model = LinearModel(b=(0.5, -3.0), innovations=EXPONENTIAL)
        targets = compute_targets(model, ACVF0)
        assert targets["acvf_variance_linear"] == pytest.approx(6.0 * gamma0_sq + sum_sq,
                                                                rel=1e-12)
        assert targets["acvf_variance_linear"] == pytest.approx(880.5, rel=1e-12)
        assert targets["acvf_variance_companion"] == pytest.approx(
            kappa_eps * gamma0_sq + sum_sq, rel=1e-12)
        assert targets["acvf_variance_companion"] == pytest.approx(596.30, abs=5e-3)

    def test_root_on_the_circle_rejected(self):
        with pytest.raises(ValueError, match="root on the unit circle, z = -1"):
            compute_targets(LinearModel(b=(1.0,)), ACVF0)


class TestArch1CompanionTarget:
    def test_acvf_variance_companion(self):
        # the companion is i.i.d. with the marginal law of X: variance
        # omega / (1 - alpha) = 1 / 0.7 and excess kurtosis
        # 6 alpha^2 / (1 - 3 alpha^2) = 0.54 / 0.73; the lag-0 sample
        # autocovariance of i.i.d. noise has variance (kappa + 2) gamma(0)^2
        want = (0.54 / 0.73 + 2.0) * (1.0 / 0.7) ** 2
        assert want == pytest.approx(5.591, abs=5e-4)
        targets = compute_targets(Arch1Model(omega=1.0, alpha1=0.3), ACVF0)
        assert set(targets) == {"acvf_variance_companion"}
        assert targets["acvf_variance_companion"] == pytest.approx(want, rel=1e-12)

    def test_iid_arch1_has_the_linear_targets_of_white_noise(self):
        # at alpha1 = 0, X is i.i.d. N(0, omega): kappa_e = kappa_eps = 0
        model = Arch1Model(omega=1.0, alpha1=0.0)
        assert model.kurtoses == (0.0, 0.0)
        assert compute_targets(model, ACVF0) == {"acvf_variance_linear": 2.0,
                                                 "acvf_variance_companion": 2.0}
        acf = statistic_from_config({"name": "acf", "lag": 1})
        assert compute_targets(model, acf) == {"bartlett_variance": 1.0}

    def test_mean_target_is_the_stationary_variance(self):
        targets = compute_targets(Arch1Model(omega=1.0, alpha1=0.3), MeanStatistic())
        assert targets == {"mean_long_run_variance": 1.0 / 0.7}


class TestPersistentTargets:
    """AR(0.99): targets carried over the whole rational expansion, not a
    fixed number of lags. gamma(0) = 1 / (1 - phi^2), rho(k) = phi^k."""

    PHI = 0.99

    def _targets(self, stat, phi=PHI):
        return compute_targets(LinearModel(a=(phi,)), statistic_from_config(stat))

    def test_mean(self):
        want = 1.0 / (1.0 - self.PHI) ** 2
        assert want == pytest.approx(10000.0)
        assert self._targets({"name": "mean"})["mean_long_run_variance"] == pytest.approx(
            want, rel=1e-12)

    def test_acvf_lag0(self):
        # sum over all lags of 2 gamma(k)^2 = 2 gamma(0)^2 (1 + phi^2) / (1 - phi^2)
        phi_sq = self.PHI ** 2
        want = 2.0 * (1.0 + phi_sq) / (1.0 - phi_sq) ** 3
        assert want == pytest.approx(502525.25, abs=5e-3)
        got = self._targets({"name": "acvf", "lag": 0})
        assert got["acvf_variance_linear"] == pytest.approx(want, rel=1e-9)
        assert got["acvf_variance_companion"] == pytest.approx(want, rel=1e-9)

    def test_acf_lag1_bartlett(self):
        got = self._targets({"name": "acf", "lag": 1})["bartlett_variance"]
        assert got == pytest.approx(1.0 - self.PHI ** 2, rel=1e-9)

    @pytest.mark.parametrize("stat, names", [
        ({"name": "acvf", "lag": 0}, "acvf_variance_linear, acvf_variance_companion"),
        ({"name": "acf", "lag": 1}, "bartlett_variance"),
        ({"name": "intper-cos", "lag": 0}, "intper_variance_linear, intper_variance_companion"),
        ({"name": "ratio-cos", "lag": 1}, "ratio_statistic_variance"),
    ])
    def test_unsettled_expansion_rejected_naming_the_targets(self, stat, names):
        # 0.999^(10^4) = 4.5e-5: the expansion stops at its cap unsettled
        with pytest.raises(ValueError, match=f"^{names}: the impulse response"):
            self._targets(stat, phi=0.999)

    def test_admission_boundary_follows_the_settle_rule(self):
        # every-lag targets need rho^t < 1e-12 by t = 10^4 lags, so an AR(rho)
        # is admitted iff rho < rho* = 10^(-12 / 10^4); within 10^-6 of rho*
        # the settle lag is within 4 of 10^4
        rho_star = 10 ** (-12 / 10 ** 4)
        assert rho_star == pytest.approx(0.9972407, abs=1e-7)
        stat = {"name": "acvf", "lag": 0}
        below = rho_star - 1e-6
        phi_sq = below ** 2
        got = self._targets(stat, phi=below)["acvf_variance_linear"]
        assert got == pytest.approx(2.0 * (1.0 + phi_sq) / (1.0 - phi_sq) ** 3, rel=1e-9)
        with pytest.raises(ValueError, match="^acvf_variance_linear, acvf_variance_companion: "
                                             "the impulse response"):
            self._targets(stat, phi=rho_star + 1e-6)

    def test_mean_needs_no_expansion(self):
        got = self._targets({"name": "mean"}, phi=0.999)["mean_long_run_variance"]
        assert got == pytest.approx(1e6, rel=1e-9)


class TestTargetsAgainstExactRationalForms:
    """AR(rho) with centred exponential noise (kappa = 6, sigma2 = 1), in
    exact rational arithmetic at the double rho itself: with
    gamma_0 = sigma2 / (1 - rho^2) and
    S(d) = sum_k rho^(|k| + |k + d|) = rho^d (2 / (1 - rho^2) + d - 1),
    the lag-h acvf target is gamma_0^2 [kappa rho^2h + S(0) + S(2h)] and
    Bartlett's is (1 + rho^2)(1 - rho^2h) / (1 - rho^2) - 2h rho^2h. The
    expansion of 1 / den(z) holds both to its stated accuracy up to
    rho = 0.997."""

    @staticmethod
    def _model(rho):
        return LinearModel(a=(rho,), innovations=EXPONENTIAL)

    @staticmethod
    def _relative_error(got, want):
        return abs(Fraction(got) - want) / want

    @pytest.mark.parametrize("rho", [0.5, 0.9, 0.99, 0.997])
    def test_acvf_targets(self, rho):
        r = Fraction(rho)
        gamma0 = 1 / (1 - r * r)

        def s(d):
            return r ** d * (2 / (1 - r * r) + d - 1)

        for h in (0, 1, 2, 5):
            want = gamma0 ** 2 * (6 * r ** (2 * h) + s(0) + s(2 * h))
            statistic = statistic_from_config({"name": "acvf", "lag": h})
            got = compute_targets(self._model(rho), statistic)
            assert set(got) == {"acvf_variance_linear", "acvf_variance_companion"}
            assert max(self._relative_error(v, want) for v in got.values()) <= 1e-14

    @pytest.mark.parametrize("rho", [0.5, 0.9, 0.99, 0.997])
    def test_bartlett_targets(self, rho):
        r = Fraction(rho)
        for h in (1, 2, 5):
            want = (1 + r * r) * (1 - r ** (2 * h)) / (1 - r * r) - 2 * h * r ** (2 * h)
            statistic = statistic_from_config({"name": "acf", "lag": h})
            got = compute_targets(self._model(rho), statistic)
            assert self._relative_error(got["bartlett_variance"], want) <= 1e-10


WORKED_EXAMPLE = {"family": "linear", "coefficients": [-2.0],
                  "innovation": {"family": "centered_exponential"}}
ARCH1 = {"family": "arch1", "coefficients": [1.0, 0.3]}
# ARCH(1) at alpha1 = 0 is i.i.d. N(0, omega), a linear process
IID_ARCH1 = {"family": "arch1", "coefficients": [1.0, 0.0]}


def _predicted_verdict(model_doc, stat_doc, checks_passed=True):
    """The verdict of a run, with its targets."""
    model = model_from_json(model_doc)
    statistic = statistic_from_config(stat_doc)
    targets = compute_targets(model, statistic)
    return bootstrap_verdict(targets, checks_passed), targets


class TestDerivedVerdict:
    """The bootstrap is predicted valid when the targets say its limit law is
    the same under the process and under its companion: there is a target,
    and each companion target has a linear target equal to it. Under
    X = e - 2 e_{-1}, gamma = (5, -2, 0) and the lag-h targets are
    kappa gamma(h)^2 + sum_k (gamma(k)^2 + gamma(k+h) gamma(k-h)), at kappa_e
    = 6 (linear) and kappa_eps = 2.4 (companion)."""

    @pytest.mark.parametrize("model, stat, verdict, pair", [
        (WORKED_EXAMPLE, {"name": "acvf", "lag": 0}, "FAIL-AS-PREDICTED", (216.0, 126.0)),
        (WORKED_EXAMPLE, {"name": "acvf", "lag": 1}, "FAIL-AS-PREDICTED", (61.0, 46.6)),
        (WORKED_EXAMPLE, {"name": "acvf", "lag": 2}, "PASS", (33.0, 33.0)),  # gamma(2) = 0
        (WORKED_EXAMPLE, {"name": "intper-cos", "lag": 1}, "FAIL-AS-PREDICTED", (61.0, 46.6)),
        ({**WORKED_EXAMPLE, "coefficients": [0.5]}, {"name": "acvf", "lag": 0}, "PASS", None),
        ({"family": "ar", "coefficients": [0.5], "innovation": {"family": "centered_exponential"}},
         {"name": "acvf", "lag": 0}, "PASS", None),
        (ARCH1, {"name": "acvf", "lag": 0}, "FAIL-AS-PREDICTED", None),
        (ARCH1, {"name": "acf", "lag": 1}, "FAIL-AS-PREDICTED", None),
        (ARCH1, {"name": "intper-cos", "lag": 1}, "FAIL-AS-PREDICTED", None),
        (ARCH1, {"name": "ratio-cos", "lag": 1}, "FAIL-AS-PREDICTED", None),
        (ARCH1, {"name": "mean"}, "PASS", None),
        (ARCH1, {"name": "specdens"}, "PASS", None),
        # white noise: gamma = (1), so acvf lag 0 gives (kappa + 2) gamma(0)^2 = 2
        # and lag 1 gives gamma(0)^2 = 1 at kappa_e = kappa_eps = 0
        (IID_ARCH1, {"name": "acvf", "lag": 0}, "PASS", (2.0, 2.0)),
        (IID_ARCH1, {"name": "acf", "lag": 1}, "PASS", None),
        (IID_ARCH1, {"name": "intper-cos", "lag": 1}, "PASS", (1.0, 1.0)),
        (IID_ARCH1, {"name": "ratio-cos", "lag": 1}, "PASS", None),
        (IID_ARCH1, {"name": "mean"}, "PASS", None),
        (IID_ARCH1, {"name": "specdens"}, "PASS", None),
    ])
    def test_prediction(self, model, stat, verdict, pair):
        got, targets = _predicted_verdict(model, stat)
        assert got == verdict
        if pair is not None:
            prefix = "intper_variance" if stat["name"] == "intper-cos" else "acvf_variance"
            assert (targets[f"{prefix}_linear"], targets[f"{prefix}_companion"]) == pytest.approx(
                pair, rel=1e-9)

    @pytest.mark.parametrize("name", list_presets())
    def test_presets(self, name):
        # only the paper's counterexample is predicted to fail
        config = preset_config(name)
        want = "FAIL-AS-PREDICTED" if name == "acvf0-ma1-exponential" else "PASS"
        assert _predicted_verdict(config.dgp, config.statistic)[0] == want

    @pytest.mark.parametrize("targets, verdict", [
        ({}, "FAIL-AS-PREDICTED"),  # nothing is known of the limit law
        ({"acvf_variance_companion": 2.0}, "FAIL-AS-PREDICTED"),  # no linear target
        ({"acvf_variance_linear": 3.0, "acvf_variance_companion": 2.0}, "FAIL-AS-PREDICTED"),
        ({"acvf_variance_linear": 2.0 * (1 + 1e-12), "acvf_variance_companion": 2.0}, "PASS"),
        ({"bartlett_variance": 1.0}, "PASS"),  # a target with no suffix holds for both
        ({"mean_long_run_variance": 1.0, "intper_variance_companion": 1.0}, "FAIL-AS-PREDICTED"),
    ])
    def test_verdict_is_read_from_the_targets(self, targets, verdict):
        assert bootstrap_verdict(targets, True) == verdict

    def test_a_failed_check_is_unexpected_whatever_the_prediction(self):
        for model, stat in ((WORKED_EXAMPLE, {"name": "acvf"}), (ARCH1, {"name": "mean"})):
            assert _predicted_verdict(model, stat, checks_passed=False)[0] == "UNEXPECTED"
