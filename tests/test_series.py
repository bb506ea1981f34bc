import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.stats import kstwobign

from sieveboot.series import (
    ACVF,
    DegenerateSeriesError,
    EmpiricalLaw,
    Series,
    acf_lag_descriptor,
    acvf_lag_descriptor,
    ecdf,
    generalized_mean_statistic,
    kolmogorov_distance,
    ks_critical_value,
    mean_descriptor,
    product_lag_descriptor,
    sample_acf,
    sample_acvf,
    sample_mean,
)

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def rand_series(n=200, seed=0):
    return Series(np.random.default_rng(seed).standard_normal(n))


class TestSeries:
    def test_validation(self):
        with pytest.raises(ValueError):
            Series(np.array([]))
        with pytest.raises(ValueError):
            Series(np.array([1.0, np.nan]))
        with pytest.raises(ValueError):
            Series(np.ones((2, 2)))

    def test_basic(self):
        s = Series([1, 2, 3])
        assert s.n == 3
        assert s.values.dtype == float


class TestACVF:
    def test_extension_with_zero(self):
        g = ACVF(np.array([5.0, -2.0]))
        assert g[0] == 5.0
        assert g[1] == -2.0
        assert g[-1] == -2.0  # symmetry
        assert g[7] == 0.0    # beyond stored range

    def test_negative_gamma0_rejected(self):
        with pytest.raises(ValueError):
            ACVF(np.array([-1.0]))


class TestMoments:
    def test_sample_acvf_matches_direct_sums(self):
        # oracle: direct O(n^2)-style dot products with 1/n normalization
        s = rand_series(100, seed=3)
        x = s.values - s.values.mean()
        g = sample_acvf(s, 5, centered=True)
        for h in range(6):
            assert g.gamma[h] == pytest.approx(np.dot(x[: 100 - h], x[h:]) / 100, abs=1e-12)

    def test_noncentered_second_moments(self):
        s = rand_series(64, seed=4)
        c = sample_acvf(s, 2, centered=False)
        assert c.gamma[0] == pytest.approx(np.mean(s.values ** 2), abs=1e-12)

    def test_acf_starts_at_one(self):
        rho = sample_acf(rand_series(50, seed=5), 3)
        assert rho[0] == 1.0

    def test_acf_constant_series_raises(self):
        with pytest.raises(DegenerateSeriesError):
            sample_acf(Series(np.ones(30)), 2)

    @settings(max_examples=50, deadline=None)
    @given(arrays(float, st.integers(20, 60), elements=finite_floats))
    def test_acvf_toeplitz_is_psd(self, x):
        # biased 1/n estimator guarantees a positive semidefinite Toeplitz matrix
        s = Series(x + np.linspace(0, 1e-3, x.size))  # avoid exactly-constant input
        g = sample_acvf(s, min(10, s.n - 1), centered=True)
        from scipy.linalg import toeplitz

        eig = np.linalg.eigvalsh(toeplitz(g.gamma))
        assert eig.min() >= -1e-8 * max(g.gamma[0], 1.0)


class TestEmpiricalLaw:
    def test_cdf_right_continuous_step(self):
        law = EmpiricalLaw(np.array([0.0, 1.0]))
        assert law.cdf(-0.5) == 0.0
        assert law.cdf(0.0) == 0.5  # jump attained at the point
        assert law.cdf(0.5) == 0.5
        assert law.cdf(1.0) == 1.0

    def test_kolmogorov_distance_hand_value(self):
        f = ecdf([0.0, 1.0])
        g = ecdf([0.5])
        assert kolmogorov_distance(f, g) == pytest.approx(0.5)

    def test_kolmogorov_shift_of_point_masses(self):
        # disjoint point masses: distance 1
        assert kolmogorov_distance(ecdf([0.0]), ecdf([1.0])) == 1.0

    @settings(max_examples=50, deadline=None)
    @given(arrays(float, st.integers(1, 40), elements=finite_floats),
           arrays(float, st.integers(1, 40), elements=finite_floats))
    def test_kolmogorov_metric_properties(self, a, b):
        f, g = ecdf(a), ecdf(b)
        d = kolmogorov_distance(f, g)
        assert 0.0 <= d <= 1.0
        assert d == kolmogorov_distance(g, f)
        assert kolmogorov_distance(f, f) == 0.0

    def test_ks_critical_value_hand_value(self):
        # c(0.001) = 1.9495; sqrt(4000 / 2000^2) = 0.031623
        assert ks_critical_value(2000, 2000) == pytest.approx(0.061648, abs=1e-6)
        assert ks_critical_value(300, 2000) == ks_critical_value(2000, 300)

    @pytest.mark.parametrize("alpha", [0.001, 0.01, 0.05])
    def test_ks_critical_value_matches_kolmogorov_law(self, alpha):
        want = kstwobign.isf(alpha) * np.sqrt((500 + 800) / (500 * 800))
        assert ks_critical_value(500, 800, alpha) == pytest.approx(want, rel=1e-4)

    def test_ks_critical_value_validation(self):
        with pytest.raises(ValueError):
            ks_critical_value(0, 10)
        with pytest.raises(ValueError):
            ks_critical_value(10, 10, alpha=1.0)

    def test_variance_mean(self):
        law = ecdf([1.0, 3.0])
        assert law.mean() == 2.0
        assert law.variance() == 1.0


class TestGeneralizedMean:
    def test_mean_descriptor_equals_mean(self):
        s = rand_series(80, seed=7)
        assert generalized_mean_statistic(s, mean_descriptor()) == pytest.approx(sample_mean(s))

    def test_product_lag_descriptor(self):
        s = rand_series(50, seed=8)
        x = s.values
        want = np.mean(x[:-2] * x[2:])
        assert generalized_mean_statistic(s, product_lag_descriptor(2)) == pytest.approx(want)

    def test_acvf_descriptor_close_to_exact_estimator(self):
        # windowed version differs from the exact centered estimator by O(1/n)
        s = rand_series(2000, seed=9)
        approx = generalized_mean_statistic(s, acvf_lag_descriptor(1))
        exact = sample_acvf(s, 1, centered=True)[1]
        assert abs(approx - exact) < 5.0 / s.n

    def test_acf_descriptor_close_to_exact_estimator(self):
        s = rand_series(2000, seed=10)
        approx = generalized_mean_statistic(s, acf_lag_descriptor(1))
        exact = sample_acf(s, 1)[1]
        assert abs(approx - exact) < 5.0 / s.n

    def test_window_too_long_raises(self):
        with pytest.raises(ValueError):
            generalized_mean_statistic(Series([1.0, 2.0]), product_lag_descriptor(5))
