import numpy as np
import pytest
from scipy.linalg import toeplitz
from scipy.signal import lfilter

from sieveboot.ar import residuals
from sieveboot.companion import CompanionSpec
from sieveboot.dgp import (LinearModel, default_burnin, ma1_model, rng_from, simulate_ar,
                           simulate_linear)
from sieveboot.series import Series, sample_acvf
from sieveboot.sieve import (
    BootstrapResult,
    OrderRule,
    SieveModel,
    bootstrap_distribution,
    fit_sieve,
    generate_bootstrap_series,
    order_cap,
)
from sieveboot.statistics import AcvfStatistic, MeanStatistic


def ar1_data(n=2000, seed=1):
    return Series(simulate_ar(LinearModel(a=(0.6,)), n, seed))


# Fixed data paths for the reference checks: AR(1), the noninvertible MA(1)
# worked example, whose AR(infinity) form has no finite order, an AR(2) and
# white noise, at a few lengths.
REFERENCE_PATHS = {
    "ar1": lambda: ar1_data(2000, seed=21),
    "ma1-example": lambda: Series(simulate_linear(ma1_model(), 2000, seed=22)),
    "ar2": lambda: Series(simulate_ar(LinearModel(a=(0.5, -0.3)), 800, 23)),
    "white": lambda: Series(np.random.default_rng(24).standard_normal(300)),
}


def _yule_walker_by_dense_solve(gamma, p):
    """Order-p Yule-Walker coefficients and prediction variance from one
    dense solve of the Toeplitz system, without Levinson-Durbin."""
    a = np.linalg.solve(toeplitz(gamma[:p]), gamma[1 : p + 1])
    return a, gamma[0] - np.dot(a, gamma[1 : p + 1])


class TestOrderRule:
    def test_mode_validation(self):
        with pytest.raises(ValueError):
            OrderRule(mode="bic")
        # a bool is an int to isinstance; aic_capped never reads fixed_p
        for fixed_p in (None, True, 0):
            with pytest.raises(ValueError, match="fixed_p"):
                OrderRule(mode="fixed", fixed_p=fixed_p)
        with pytest.raises(ValueError, match="fixed_p"):
            OrderRule(mode="aic_capped", fixed_p=3)

    def test_cap_value(self):
        # floor((2000 / ln 2000)^(1/4)) = 4
        assert order_cap(2000) == 4
        assert order_cap(100) == 2
        assert order_cap(20) == 1

    def test_cap_grows_slowly(self):
        caps = [order_cap(n) for n in (100, 1000, 10_000, 100_000)]
        assert caps == sorted(caps)
        assert caps[-1] <= 10

    def test_fixed_clamped_to_cap(self):
        s = ar1_data(2000)
        assert fit_sieve(s, OrderRule(mode="fixed", fixed_p=2)).p == 2
        assert fit_sieve(s, OrderRule(mode="fixed", fixed_p=99)).p == order_cap(2000)

    def test_aic_finds_short_memory(self):
        # AR(1) data: AIC should not saturate the cap
        s = ar1_data(2000, seed=2)
        p = fit_sieve(s, OrderRule(mode="aic_capped")).p
        assert 1 <= p <= order_cap(2000)

    def test_short_series_rejected(self):
        with pytest.raises(ValueError, match="n >= 20"):
            fit_sieve(Series(np.arange(10.0)), OrderRule())


class TestFit:
    def test_is_the_companion_of_the_fitted_filter(self):
        m = fit_sieve(ar1_data(), OrderRule())
        assert isinstance(m, SieveModel) and isinstance(m, CompanionSpec)
        assert np.array_equal(m.num, [1.0])
        assert m.p == m.den.size - 1 and m.den[0] == 1.0

    def test_residual_record_mean_zero(self):
        m = fit_sieve(ar1_data(), OrderRule(mode="fixed", fixed_p=1))
        assert abs(m.noise.values.mean()) < 1e-14

    def test_record_is_the_sorted_residuals_of_the_fit(self):
        s = ar1_data(700, seed=4)
        m = fit_sieve(s, OrderRule())
        assert np.array_equal(m.noise.values, np.sort(residuals(s, -m.den[1:])))

    def test_recovers_ar1_coefficient(self):
        m = fit_sieve(ar1_data(5000, seed=3), OrderRule(mode="fixed", fixed_p=1))
        assert -m.den[1] == pytest.approx(0.6, abs=0.05)
        assert m.filter[2] == pytest.approx(1.0, rel=0.1)

    def test_constant_series_rejected(self):
        from sieveboot.series import DegenerateSeriesError

        with pytest.raises(DegenerateSeriesError):
            fit_sieve(Series(np.ones(200)), OrderRule(mode="fixed", fixed_p=1))

    @pytest.mark.parametrize("path", sorted(REFERENCE_PATHS))
    def test_coefficients_solve_the_toeplitz_system(self, path):
        s = REFERENCE_PATHS[path]()
        for rule in (OrderRule(), OrderRule(mode="fixed", fixed_p=order_cap(s.n))):
            m = fit_sieve(s, rule)
            want, _ = _yule_walker_by_dense_solve(sample_acvf(s, m.p), m.p)
            assert np.allclose(-m.den[1:], want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("path", sorted(REFERENCE_PATHS))
    def test_order_is_the_aic_argmin_of_per_order_solves(self, path):
        s = REFERENCE_PATHS[path]()
        cap = order_cap(s.n)
        gamma = sample_acvf(s, cap)
        aic = [s.n * np.log(_yule_walker_by_dense_solve(gamma, k)[1]) + 2.0 * k
               for k in range(1, cap + 1)]
        assert fit_sieve(s, OrderRule()).p == 1 + int(np.argmin(aic))

    def test_reference_paths_select_several_orders(self):
        # so the AIC reference is not met by a constant order
        orders = {fit_sieve(make(), OrderRule()).p for make in REFERENCE_PATHS.values()}
        assert {1, 2, 3} <= orders


class TestGeneration:
    def test_deterministic_and_length(self):
        m = fit_sieve(ar1_data(), OrderRule(mode="fixed", fixed_p=1))
        x1 = generate_bootstrap_series(m, 300, [4])
        x2 = generate_bootstrap_series(m, 300, [4])
        assert x1.shape == (1, 300)
        assert np.array_equal(x1, x2)

    def test_values_drawn_from_residual_support(self):
        m = fit_sieve(ar1_data(500, seed=5), OrderRule(mode="fixed", fixed_p=1))
        x = generate_bootstrap_series(m, 200, [6])[0]
        # inverting the fitted AR(1) recursion recovers the resampled residuals
        e = x[1:] + m.den[1] * x[:-1]
        gap = np.abs(e[:, None] - m.noise.values[None, :]).min(axis=1)
        assert gap.max() < 1e-12

    def test_path_is_the_fitted_recursion_on_resampled_residuals(self):
        m = fit_sieve(ar1_data(600, seed=14), OrderRule())
        burnin = default_burnin(m.p)
        resid = m.noise.values
        e_star = resid[rng_from(15).integers(0, resid.size, 300 + burnin)]
        want = lfilter([1.0], m.den, e_star)[burnin:]
        assert np.array_equal(generate_bootstrap_series(m, 300, [15])[0], want)
        assert m.filter[2] == pytest.approx(np.mean(resid ** 2), rel=1e-14)


class TestBootstrapDistribution:
    def test_mean_statistic_ar1(self):
        s = ar1_data(2000, seed=7)
        res = bootstrap_distribution(s, MeanStatistic(), B=400,
                                     rule=OrderRule(mode="fixed", fixed_p=1), seed=8)
        assert isinstance(res, BootstrapResult)
        assert res.theta_star == 0.0
        assert res.p_used == 1
        # long-run variance of AR(1): sigma2/(1-a)^2 = 1/0.16 = 6.25
        assert res.law.variance() == pytest.approx(6.25, rel=0.35)

    def test_acvf_statistic_center_uses_fitted_model(self):
        s = ar1_data(2000, seed=9)
        res = bootstrap_distribution(s, AcvfStatistic(0), B=200,
                                     rule=OrderRule(mode="fixed", fixed_p=1), seed=10)
        m = fit_sieve(s, OrderRule(mode="fixed", fixed_p=1))
        want = m.filter[2] / (1.0 - m.den[1] ** 2)
        assert res.theta_star == pytest.approx(want, rel=1e-10)

    def test_deterministic_given_seed(self):
        x = Series(simulate_linear(ma1_model(), 600, seed=11))
        r1 = bootstrap_distribution(x, MeanStatistic(), B=150, rule=OrderRule(), seed=12)
        r2 = bootstrap_distribution(x, MeanStatistic(), B=150, rule=OrderRule(), seed=12)
        assert np.array_equal(r1.law.sample, r2.law.sample)

    def test_minimum_replications(self):
        with pytest.raises(ValueError):
            bootstrap_distribution(ar1_data(500), MeanStatistic(), B=50,
                                   rule=OrderRule(), seed=13)
