import math

import numpy as np
import pytest

from sieveboot.asymptotics import (
    KurtosisSpec,
    acvf_asymptotic_variance,
    bartlett_variance,
    integrated_periodogram_variance,
    ratio_statistic_variance,
    spectral_estimator_variance,
)
from sieveboot.dgp import Arch1Model, ARModel, InnovationSpec, LinearModel
from sieveboot.experiment import compute_targets
from sieveboot.series import ACVF
from sieveboot.spectral import KernelSpec, constant_weight, cosine_weight
from sieveboot.statistics import MeanStatistic, statistic_from_config

MA1 = ACVF(np.array([5.0, -2.0, 0.0]), kind="theoretical")


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
        assert ARModel(a=(0.5,), innovations=exponential).kurtoses == (6.0, 6.0)

    def test_kurtosis_floor(self):
        with pytest.raises(ValueError):
            KurtosisSpec(-2.5)


class TestAcvfVariance:
    def test_ma1_trio(self):
        # same second-order functional, three kurtosis values: the whole
        # validity/failure story for the lag-0 autocovariance in one formula
        assert acvf_asymptotic_variance(MA1, 0, KurtosisSpec(0.0)) == pytest.approx(66.0)
        assert acvf_asymptotic_variance(MA1, 0, KurtosisSpec(2.4)) == pytest.approx(126.0)
        assert acvf_asymptotic_variance(MA1, 0, KurtosisSpec(6.0)) == pytest.approx(216.0)

    def test_ma1_lag1_gaussian(self):
        # sum_k (gamma(k)^2 + gamma(k+1) gamma(k-1)) = 25 + 2*4 + 4 = 37
        assert acvf_asymptotic_variance(MA1, 1, KurtosisSpec(0.0)) == pytest.approx(37.0)

    def test_white_noise_lag0(self):
        g = ACVF(np.array([2.0]))
        # kappa*gamma0^2 + 2*gamma0^2
        assert acvf_asymptotic_variance(g, 0, KurtosisSpec(1.0)) == pytest.approx(12.0)

    def test_lag_symmetry(self):
        k = KurtosisSpec(2.4)
        assert acvf_asymptotic_variance(MA1, 1, k) == acvf_asymptotic_variance(MA1, -1, k)


class TestBartlett:
    def test_ma1_value(self):
        rho = MA1.gamma / MA1.gamma[0]
        # 1 - 3 rho(1)^2 + 4 rho(1)^4 at rho(1) = -0.4
        assert bartlett_variance(rho, 1) == pytest.approx(0.6224)

    def test_white_noise(self):
        assert bartlett_variance(np.array([1.0]), 1) == pytest.approx(1.0)

    def test_requires_unit_leading_value(self):
        with pytest.raises(ValueError):
            bartlett_variance(np.array([0.9, 0.1]), 1)


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
        # f = sigma2/(2 pi) constant, phi = 1:
        # kappa (sigma2/2)^2 + 2 pi * pi * (sigma2/2 pi)^2 = kappa sigma4/4 + sigma4/2
        sigma2 = 3.0
        f = lambda lam: np.full_like(np.asarray(lam, dtype=float), sigma2 / (2 * np.pi))
        v = integrated_periodogram_variance(f, constant_weight(1.0), KurtosisSpec(2.0))
        assert v == pytest.approx(2.0 * sigma2 ** 2 / 4 + sigma2 ** 2 / 2, rel=1e-6)

    def test_ratio_variance_kurtosis_free_value(self):
        v = ratio_statistic_variance(ma1_density, cosine_weight(1))
        # frozen quadrature value for the MA(1) worked example
        assert v == pytest.approx(2.4896, rel=1e-3)

    def test_ratio_variance_vanishes_for_constant_weight(self):
        v = ratio_statistic_variance(ma1_density, constant_weight(1.0))
        assert abs(v) < 1e-12

    def test_spectral_variance_boundary_doubling(self):
        k = KernelSpec(bandwidth=0.4)
        assert spectral_estimator_variance(1.7, True, k) == pytest.approx(
            2.0 * spectral_estimator_variance(1.7, False, k))
        # MA(1) worked example, f = (5 - 4 cos l) / (2 pi): 2 pi f^2 int K^2 with
        # int K^2 = 3 / (5 pi) is 7.5 / pi^2 at pi/2 and, doubled, 48.6 / pi^2 at pi
        interior = spectral_estimator_variance(5.0 / (2 * np.pi), False, k)
        boundary = spectral_estimator_variance(9.0 / (2 * np.pi), True, k)
        assert interior == pytest.approx(0.760, abs=5e-4)
        assert boundary == pytest.approx(4.924, abs=5e-4)


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

    def test_equal_the_acvf_targets(self):
        # M(I_n, 2cos(.h)) and the lag-h sample autocovariance share their limit law
        model = LinearModel(b=(0.5, -0.3), innovations=InnovationSpec("centered_exponential"))
        for lag in (0, 1, 2):
            intper = compute_targets(model, statistic_from_config({"name": "intper-cos", "lag": lag}))
            acvf = compute_targets(model, statistic_from_config({"name": "acvf", "lag": lag}))
            for kind in ("linear", "companion"):
                assert intper[f"intper_variance_{kind}"] == pytest.approx(
                    acvf[f"acvf_variance_{kind}"], rel=1e-6)

    def test_arch1_has_only_the_companion_target(self):
        # ARCH(1) is not linear in i.i.d. noise, so it has no linear target; its
        # companion is i.i.d. with excess kurtosis 6 alpha^2 / (1 - 3 alpha^2),
        # and with phi = 2cos(.), int phi f = 2 gamma(1) = 0 leaves
        # 2 pi int phi^2 f^2 = gamma(0)^2, gamma(0) = omega / (1 - alpha)
        stat = statistic_from_config({"name": "intper-cos", "lag": 1})
        targets = compute_targets(Arch1Model(omega=1.0, alpha1=0.3), stat)
        assert set(targets) == {"intper_variance_companion"}
        assert targets["intper_variance_companion"] == pytest.approx(1.0 / 0.49, rel=1e-6)


ACVF0 = statistic_from_config({"name": "acvf", "lag": 0})
EXPONENTIAL = InnovationSpec("centered_exponential")


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

    def test_mean_target_is_the_stationary_variance(self):
        targets = compute_targets(Arch1Model(omega=1.0, alpha1=0.3), MeanStatistic())
        assert targets == {"mean_long_run_variance": 1.0 / 0.7}


class TestPersistentTargets:
    """AR(0.99): targets carried over the whole rational expansion, not a
    fixed number of lags. gamma(0) = 1 / (1 - phi^2), rho(k) = phi^k."""

    PHI = 0.99

    def _targets(self, stat, phi=PHI):
        return compute_targets(ARModel(a=(phi,)), statistic_from_config(stat))

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
    ])
    def test_unsettled_expansion_rejected_naming_the_targets(self, stat, names):
        # 0.999^(10^4) = 4.5e-5: the expansion stops at its cap unsettled
        with pytest.raises(ValueError, match=f"^{names}: the impulse response"):
            self._targets(stat, phi=0.999)

    def test_mean_needs_no_expansion(self):
        got = self._targets({"name": "mean"}, phi=0.999)["mean_long_run_variance"]
        assert got == pytest.approx(1e6, rel=1e-9)
