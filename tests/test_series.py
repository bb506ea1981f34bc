import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.stats import kstwobign

from sieveboot.series import (
    EmpiricalLaw,
    kolmogorov_distance,
    ks_critical_value,
    sample_acvf,
)

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def rand_path(n=200, seed=0):
    return np.random.default_rng(seed).standard_normal(n)


class TestMoments:
    def test_sample_acvf_matches_direct_sums(self):
        # oracle: direct O(n^2)-style dot products with 1/n normalization
        x = rand_path(100, seed=3)
        g = sample_acvf(x, 5)
        x = x - x.mean()
        for h in range(6):
            assert g[h] == pytest.approx(np.dot(x[: 100 - h], x[h:]) / 100, abs=1e-12)

    @pytest.mark.parametrize("maxlag", [-1, 100])
    def test_sample_acvf_lag_outside_the_path_rejected(self, maxlag):
        with pytest.raises(ValueError, match="maxlag must satisfy"):
            sample_acvf(rand_path(100), maxlag)

    @settings(max_examples=50, deadline=None)
    @given(arrays(float, st.integers(20, 60), elements=finite_floats))
    def test_acvf_toeplitz_is_psd(self, x):
        # biased 1/n estimator guarantees a positive semidefinite Toeplitz matrix
        x = x + np.linspace(0, 1e-3, x.size)  # avoid exactly-constant input
        g = sample_acvf(x, min(10, x.size - 1))
        from scipy.linalg import toeplitz

        eig = np.linalg.eigvalsh(toeplitz(g))
        assert eig.min() >= -1e-8 * max(g[0], 1.0)


class TestEmpiricalLaw:
    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            EmpiricalLaw([])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_sample_that_is_not_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite sample"):
            EmpiricalLaw([0.0, bad, 1.0])

    def test_cdf_right_continuous_step(self):
        law = EmpiricalLaw(np.array([0.0, 1.0]))
        assert law.cdf(-0.5) == 0.0
        assert law.cdf(0.0) == 0.5  # jump attained at the point
        assert law.cdf(0.5) == 0.5
        assert law.cdf(1.0) == 1.0

    def test_kolmogorov_distance_hand_value(self):
        f = EmpiricalLaw([0.0, 1.0])
        g = EmpiricalLaw([0.5])
        assert kolmogorov_distance(f, g) == pytest.approx(0.5)

    def test_kolmogorov_shift_of_point_masses(self):
        # disjoint point masses: distance 1
        assert kolmogorov_distance(EmpiricalLaw([0.0]), EmpiricalLaw([1.0])) == 1.0

    @settings(max_examples=50, deadline=None)
    @given(arrays(float, st.integers(1, 40), elements=finite_floats),
           arrays(float, st.integers(1, 40), elements=finite_floats))
    def test_kolmogorov_metric_properties(self, a, b):
        f, g = EmpiricalLaw(a), EmpiricalLaw(b)
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
        law = EmpiricalLaw([1.0, 3.0])
        assert law.mean() == 2.0
        assert law.variance() == 1.0
