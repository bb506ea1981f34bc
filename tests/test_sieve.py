import numpy as np
import pytest
from scipy.signal import lfilter

from sieveboot.dgp import (ARModel, default_burnin, ma1_model, rng_from, simulate_ar,
                           simulate_linear)
from sieveboot.series import Series
from sieveboot.sieve import (
    BootstrapResult,
    OrderRule,
    bootstrap_distribution,
    fit_sieve,
    generate_bootstrap_series,
    order_cap,
    select_order,
)
from sieveboot.statistics import AcvfStatistic, MeanStatistic


def ar1_data(n=2000, seed=1):
    return simulate_ar(ARModel(a=(0.6,)), n, seed)


class TestOrderRule:
    def test_mode_validation(self):
        with pytest.raises(ValueError):
            OrderRule(mode="bic")
        with pytest.raises(ValueError):
            OrderRule(mode="fixed")

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
        assert select_order(s, OrderRule(mode="fixed", fixed_p=2)) == 2
        assert select_order(s, OrderRule(mode="fixed", fixed_p=99)) == order_cap(2000)

    def test_aic_finds_short_memory(self):
        # AR(1) data: AIC should not saturate the cap
        s = ar1_data(2000, seed=2)
        p = select_order(s, OrderRule(mode="aic_capped"))
        assert 1 <= p <= order_cap(2000)

    def test_short_series_rejected(self):
        with pytest.raises(ValueError):
            select_order(Series(np.arange(10.0)), OrderRule())


class TestFit:
    def test_residual_law_mean_zero(self):
        m = fit_sieve(ar1_data(), OrderRule(mode="fixed", fixed_p=1))
        assert abs(m.residual_law.sample.mean()) < 1e-14

    def test_recovers_ar1_coefficient(self):
        m = fit_sieve(ar1_data(5000, seed=3), OrderRule(mode="fixed", fixed_p=1))
        assert m.fit.a[0] == pytest.approx(0.6, abs=0.05)
        assert m.fit.sigma2 == pytest.approx(1.0, rel=0.1)
        assert m.residual_variance == pytest.approx(1.0, rel=0.1)

    def test_constant_series_rejected(self):
        from sieveboot.series import DegenerateSeriesError

        with pytest.raises(DegenerateSeriesError):
            fit_sieve(Series(np.ones(200)), OrderRule(mode="fixed", fixed_p=1))


class TestGeneration:
    def test_deterministic_and_length(self):
        m = fit_sieve(ar1_data(), OrderRule(mode="fixed", fixed_p=1))
        x1 = generate_bootstrap_series(m, 300, seed=4)
        x2 = generate_bootstrap_series(m, 300, seed=4)
        assert x1.n == 300
        assert np.array_equal(x1.values, x2.values)

    def test_values_drawn_from_residual_support(self):
        m = fit_sieve(ar1_data(500, seed=5), OrderRule(mode="fixed", fixed_p=1))
        x = generate_bootstrap_series(m, 200, seed=6).values
        # inverting the fitted AR(1) recursion recovers the resampled residuals
        e = x[1:] - m.fit.a[0] * x[:-1]
        gap = np.abs(e[:, None] - m.residual_law.sample[None, :]).min(axis=1)
        assert gap.max() < 1e-12

    def test_path_is_the_fitted_recursion_on_resampled_residuals(self):
        m = fit_sieve(ar1_data(600, seed=14), OrderRule())
        burnin = default_burnin(m.p)
        resid = m.residual_law.sample
        e_star = resid[rng_from(15).integers(0, resid.size, 300 + burnin)]
        want = lfilter([1.0], np.concatenate([[1.0], -m.fit.a]), e_star)[burnin:]
        assert np.array_equal(generate_bootstrap_series(m, 300, seed=15).values, want)
        assert m.filter[2] == pytest.approx(m.residual_variance, rel=1e-14)


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
        want = m.residual_variance / (1.0 - m.fit.a[0] ** 2)
        assert res.theta_star == pytest.approx(want, rel=1e-10)

    def test_deterministic_given_seed(self):
        x, _ = simulate_linear(ma1_model(), 600, seed=11)
        r1 = bootstrap_distribution(x, MeanStatistic(), B=150, rule=OrderRule(), seed=12)
        r2 = bootstrap_distribution(x, MeanStatistic(), B=150, rule=OrderRule(), seed=12)
        assert np.array_equal(r1.law.sample, r2.law.sample)

    def test_minimum_replications(self):
        with pytest.raises(ValueError):
            bootstrap_distribution(ar1_data(500), MeanStatistic(), B=50,
                                   rule=OrderRule(), seed=13)
