import numpy as np
import pytest
from scipy.linalg import toeplitz
from scipy.signal import lfilter

from sieveboot.dgp import (
    CompanionSpec,
    InnovationSpec,
    LinearModel,
    burnin,
    simulate_ar,
    simulate_linear,
)
from sieveboot.experiment import compute_targets
from sieveboot.series import sample_acvf
from sieveboot.sieve import (
    SieveModel,
    bootstrap_distribution,
    fit_sieve,
    generate_bootstrap_series,
    levinson_durbin,
    order_cap,
    residuals,
)
from sieveboot.statistics import AcvfStatistic, MeanStatistic


def ar1_data(n=2000, seed=1):
    return simulate_ar(LinearModel(a=(0.6,)), n, seed)


# Fixed data paths for the reference checks: AR(1), the noninvertible MA(1)
# worked example, whose AR(infinity) form has no finite order, an AR(2) and
# white noise, at a few lengths.
REFERENCE_PATHS = {
    "ar1": lambda: ar1_data(2000, seed=21),
    "ma1-example": lambda: simulate_linear(LinearModel(b=(-2.0,)), 2000, seed=22),
    "ar2": lambda: simulate_ar(LinearModel(a=(0.5, -0.3)), 800, 23),
    "white": lambda: np.random.default_rng(24).standard_normal(300),
}


def _yule_walker_by_dense_solve(gamma, p):
    """Order-p Yule-Walker coefficients and prediction variance from one
    dense solve of the Toeplitz system, without Levinson-Durbin."""
    a = np.linalg.solve(toeplitz(gamma[:p]), gamma[1 : p + 1])
    return a, gamma[0] - np.dot(a, gamma[1 : p + 1])


class TestOrderRule:
    def test_cap_value(self):
        # floor((2000 / ln 2000)^(1/4)) = 4
        assert order_cap(2000) == 4
        assert order_cap(100) == 2
        assert order_cap(20) == 1

    def test_cap_grows_slowly(self):
        caps = [order_cap(n) for n in (100, 1000, 10_000, 100_000)]
        assert caps == sorted(caps)
        assert caps[-1] <= 10

    def test_aic_finds_short_memory(self):
        # AR(1) data: AIC should not saturate the cap
        x = ar1_data(2000, seed=2)
        p = fit_sieve(x).p
        assert 1 <= p <= order_cap(2000)

    def test_short_series_rejected(self):
        with pytest.raises(ValueError, match="n >= 20"):
            fit_sieve(np.arange(10.0))


class TestFit:
    def test_is_the_companion_of_the_fitted_filter(self):
        m = fit_sieve(ar1_data())
        assert isinstance(m, SieveModel) and isinstance(m, CompanionSpec)
        assert np.array_equal(m.num, [1.0])
        assert m.p == m.den.size - 1 and m.den[0] == 1.0

    def test_residual_record_mean_zero(self):
        m = fit_sieve(ar1_data())
        assert abs(m.noise.values.mean()) < 1e-14

    def test_record_is_the_sorted_residuals_of_the_fit(self):
        x = ar1_data(700, seed=4)
        m = fit_sieve(x)
        assert np.array_equal(m.noise.values, np.sort(residuals(x, -m.den[1:])))

    def test_recovers_ar1_coefficient(self):
        m = fit_sieve(ar1_data(5000, seed=3))
        assert -m.den[1] == pytest.approx(0.6, abs=0.05)
        assert np.all(np.abs(m.den[2:]) < 0.05)
        assert m.filter[2] == pytest.approx(1.0, rel=0.1)

    def test_constant_series_rejected(self):
        from sieveboot.series import DegenerateSeriesError

        with pytest.raises(DegenerateSeriesError):
            fit_sieve(np.ones(200))

    @pytest.mark.parametrize("path", sorted(REFERENCE_PATHS))
    def test_coefficients_solve_the_toeplitz_system(self, path):
        x = REFERENCE_PATHS[path]()
        m = fit_sieve(x)
        want, _ = _yule_walker_by_dense_solve(sample_acvf(x, m.p), m.p)
        assert np.allclose(-m.den[1:], want, rtol=1e-12, atol=0.0)
        # and at the cap order, whatever order AIC picks
        cap = order_cap(x.size)
        gamma = sample_acvf(x, cap)
        a, sigma2s = levinson_durbin(gamma, cap)
        want, want_sigma2 = _yule_walker_by_dense_solve(gamma, cap)
        assert np.allclose(a, want, rtol=1e-12, atol=0.0)
        assert sigma2s[cap] == pytest.approx(want_sigma2, rel=1e-12)

    @pytest.mark.parametrize("path", sorted(REFERENCE_PATHS))
    def test_order_is_the_aic_argmin_of_per_order_solves(self, path):
        x = REFERENCE_PATHS[path]()
        cap = order_cap(x.size)
        gamma = sample_acvf(x, cap)
        aic = [x.size * np.log(_yule_walker_by_dense_solve(gamma, k)[1]) + 2.0 * k
               for k in range(1, cap + 1)]
        assert fit_sieve(x).p == 1 + int(np.argmin(aic))

    def test_reference_paths_select_several_orders(self):
        # so the AIC reference is not met by a constant order
        orders = {fit_sieve(make()).p for make in REFERENCE_PATHS.values()}
        assert {1, 2, 3} <= orders


class TestGeneration:
    def test_deterministic_and_length(self):
        m = fit_sieve(ar1_data())
        x1 = generate_bootstrap_series(m, 300, [4])
        x2 = generate_bootstrap_series(m, 300, [4])
        assert x1.shape == (1, 300)
        assert np.array_equal(x1, x2)

    def test_values_drawn_from_residual_support(self):
        m = fit_sieve(ar1_data(500, seed=5))
        x = generate_bootstrap_series(m, 200, [6])[0]
        # inverting the fitted AR(p) recursion recovers the resampled residuals
        e = np.convolve(m.den, x)[m.p: x.size]
        gap = np.abs(e[:, None] - m.noise.values[None, :]).min(axis=1)
        assert gap.max() < 1e-12

    def test_path_is_the_fitted_recursion_on_resampled_residuals(self):
        m = fit_sieve(ar1_data(600, seed=14))
        drop = burnin([1.0], m.den)
        resid = m.noise.values
        e_star = resid[np.random.default_rng(15).integers(0, resid.size, 300 + drop)]
        want = lfilter([1.0], m.den, e_star)[drop:]
        assert np.array_equal(generate_bootstrap_series(m, 300, [15])[0], want)
        assert m.filter[2] == pytest.approx(np.mean(resid ** 2), rel=1e-14)


class TestBootstrapDistribution:
    def test_mean_statistic_ar1(self):
        x = ar1_data(2000, seed=7)
        law, theta = bootstrap_distribution(fit_sieve(x), MeanStatistic(), 2000, B=400, seed=8)
        assert theta == 0.0
        # long-run variance of AR(1): sigma2/(1-a)^2 = 1/0.16 = 6.25
        assert law.variance() == pytest.approx(6.25, rel=0.35)

    def test_acvf_statistic_center_uses_fitted_model(self):
        x = ar1_data(2000, seed=9)
        m = fit_sieve(x)
        _, theta = bootstrap_distribution(m, AcvfStatistic(0), 2000, B=200, seed=10)
        # a Yule-Walker AR(p) fit has the sample ACF at lags 1..p, so its
        # gamma(0) = sigma2 / (1 - sum_k a_k rho_hat(k))
        gamma = sample_acvf(x, m.p)
        want = m.filter[2] / (1.0 + np.dot(m.den[1:], gamma[1:] / gamma[0]))
        assert theta == pytest.approx(want, rel=1e-10)

    def test_deterministic_given_seed(self):
        m = fit_sieve(simulate_linear(LinearModel(b=(-2.0,)), 600, seed=11))
        law1, _ = bootstrap_distribution(m, MeanStatistic(), 600, B=150, seed=12)
        law2, _ = bootstrap_distribution(m, MeanStatistic(), 600, B=150, seed=12)
        assert np.array_equal(law1.sample, law2.sample)


class TestPopulationSieve:
    """The AR(4) sieve that the order cap allows at n = 2000, fitted to the
    exact ACVF of X = e + 0.5 e_{-1} - 3 e_{-2} with centred exponential e
    (variance 1, excess kurtosis 6): its bootstrap law is the companion law
    of 1/A(z) driven by i.i.d. residuals, whose acvf lag-0 variance lies
    within 1.1 % of the model's companion target, so truncation at p = 4
    does not explain a bootstrap variance far below it."""

    B = np.array([1.0, 0.5, -3.0])

    def _sieve(self):
        p = order_cap(2000)
        gamma = np.array([np.dot(self.B[: self.B.size - k], self.B[k:]) if k < self.B.size
                          else 0.0 for k in range(p + 1)])
        a, prediction_variance = _yule_walker_by_dense_solve(gamma, p)
        # the population residual A(z) X = [A(z) b(z)] e, a finite MA in e
        phi = np.convolve(np.concatenate([[1.0], -a]), self.B)
        sigma2 = float(np.sum(phi ** 2))
        kappa = 6.0 * float(np.sum(phi ** 4)) / sigma2 ** 2
        return a, prediction_variance, sigma2, kappa

    def test_coefficients_and_residual_moments(self):
        a, prediction_variance, sigma2, kappa = self._sieve()
        assert a.size == 4
        assert a == pytest.approx([-0.1584, -0.3496, -0.0913, -0.1112], abs=5e-5)
        assert sigma2 == pytest.approx(9.0428, abs=5e-5)
        assert prediction_variance == pytest.approx(sigma2, rel=1e-12)
        assert kappa == pytest.approx(3.3417, abs=5e-5)

    def test_limit_variance_two_ways_near_the_companion_target(self):
        a, _, sigma2, kappa = self._sieve()
        den = np.concatenate([[1.0], -a])
        # the package's closed form over the sieve's exact ACVF
        closed = AcvfStatistic(0).targets([1.0], den, sigma2, kappa, kappa)
        # kappa gamma(0)^2 + 2 sum_k gamma(k)^2 = kappa gamma(0)^2 + 4 pi int f^2,
        # gamma(0) = int f, by the rectangle rule over a period of f
        lam = 2.0 * np.pi * np.arange(2 ** 14) / 2 ** 14
        f = sigma2 / (2.0 * np.pi) / np.abs(np.polyval(den[::-1], np.exp(-1j * lam))) ** 2
        gamma0 = 2.0 * np.pi * np.mean(f)
        spectral = kappa * gamma0 ** 2 + 8.0 * np.pi ** 2 * np.mean(f ** 2)
        assert closed["acvf_variance_companion"] == pytest.approx(602.28, abs=5e-3)
        assert spectral == pytest.approx(closed["acvf_variance_companion"], rel=1e-12)
        model = LinearModel(b=tuple(self.B[1:]), innovations=InnovationSpec("centered_exponential"))
        target = compute_targets(model, AcvfStatistic(0))["acvf_variance_companion"]
        assert target == pytest.approx(596.30, abs=5e-3)
        assert abs(spectral / target - 1.0) < 0.011
