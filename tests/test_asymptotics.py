import math

import numpy as np
import pytest

from sieveboot.asymptotics import (
    KurtosisSpec,
    acvf_asymptotic_variance,
    bartlett_variance,
    integrated_periodogram_variance,
    ma1_companion_kurtosis,
    mean_asymptotic_variance,
    ratio_statistic_variance,
    spectral_estimator_variance,
)
from sieveboot.dgp import Arch1Model, InnovationSpec, LinearModel
from sieveboot.experiment import compute_targets
from sieveboot.series import ACVF
from sieveboot.spectral import KernelSpec, constant_weight, cosine_weight
from sieveboot.statistics import statistic_from_config

MA1 = ACVF(np.array([5.0, -2.0, 0.0]), kind="theoretical")


def ma1_density(lam):
    lam = np.asarray(lam, dtype=float)
    return (5.0 - 4.0 * np.cos(lam)) / (2.0 * np.pi)


class TestKurtosisTransfer:
    def test_values(self):
        assert ma1_companion_kurtosis(3.0) == pytest.approx(0.0, abs=1e-12)
        assert ma1_companion_kurtosis(9.0) == pytest.approx(2.4)
        assert ma1_companion_kurtosis(1.8) == pytest.approx(-0.48)

    def test_invalid_ratio(self):
        with pytest.raises(ValueError):
            ma1_companion_kurtosis(0.5)

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
        assert mean_asymptotic_variance(MA1) == pytest.approx(1.0)

    def test_ar1_long_run_variance(self):
        # gamma(h) = 0.5^h / 0.75: sum over all h gives (1/0.75)*(2/(1-0.5) - 1) = 4
        g = ACVF(0.5 ** np.arange(60) / 0.75)
        assert mean_asymptotic_variance(g) == pytest.approx(4.0, rel=1e-10)


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

    def test_no_kurtosis_no_targets(self):
        # ARCH(1) has no closed-form kurtosis pair, so no kurtosis-dependent target
        stat = statistic_from_config({"name": "intper-cos", "lag": 1})
        assert compute_targets(Arch1Model(omega=1.0, alpha1=0.3), stat) == {}
