import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import lfilter

from sieveboot.companion import companion_distribution
from sieveboot.dgp import (
    COMPANION_RECORD_LENGTH,
    CompanionSpec,
    InnovationSpec,
    InversionError,
    LinearModel,
    ResampledRecord,
    build_companion,
    burnin,
    impulse_response,
)
from sieveboot.experiment import companion_spec_for
from sieveboot.series import sample_acvf
from sieveboot.statistics import AcfStatistic, AcvfStatistic, MeanStatistic, rational_acvf


class TestSpec:
    def test_unstable_coefficients_rejected(self):
        with pytest.raises(InversionError):
            CompanionSpec([1.0], [1.0, -1.5], InnovationSpec())
        with pytest.raises(InversionError):
            CompanionSpec([1.0, -2.0], [1.0], InnovationSpec())

    def test_filter_variance_is_the_noise_variance(self):
        assert CompanionSpec([1.0], [1.0], InnovationSpec(scale=2.0)).filter[2] == 4.0
        record = ResampledRecord(np.array([1.0, -1.0, 1.0, -1.0]))
        assert CompanionSpec([1.0], [1.0], record).filter[2] == pytest.approx(1.0)

    def test_record_whose_squares_overflow_rejected(self):
        # 10^6 squares of 1e152 sum past float64's largest value; no numpy
        # warning escapes (pytest would raise it)
        record = ResampledRecord(np.full(10 ** 6, 1e152))
        with pytest.raises(ValueError, match="companion noise variance must be a positive finite"):
            CompanionSpec([1.0], [1.0, -0.5], record)


class TestResampledRecord:
    # sizes on both sides of a leaf of TILE_VALUES = 2^16 squares, and a view
    # of a companion record's size at an offset, as the worked example's is
    @pytest.mark.parametrize("size, offset", [(1, 0), (7, 0), (999, 0), (1999, 0), (2 ** 14, 0),
                                              (2 ** 14 + 1, 0), (2 ** 16, 0), (2 ** 16 + 1, 0),
                                              (10 ** 6 + 60, 60)])
    def test_variance_is_the_population_variance(self, size, offset):
        values = np.random.default_rng(size).exponential(1.0, size + offset)[offset:]
        want = float(np.mean(values ** 2) - np.mean(values) ** 2)
        assert ResampledRecord(values).variance == want
        assert want == pytest.approx(np.var(values), rel=1e-12, abs=1e-15)

    def test_draws_index_the_record_with_the_seed_generator(self):
        values = np.arange(10.0) ** 2
        idx = np.random.default_rng(7).integers(0, 10, 500)
        assert np.array_equal(ResampledRecord(values).draw(500, 7), values[idx])


class TestModelAcvf:
    # Exact gamma(h) at the double rho, sigma2 = 1: rho^h / (1 - rho^2) for
    # the AR(1) den 1 - rho z, and
    # rho^h [(1 + rho^2) / (1 - rho^2)^3 + h / (1 - rho^2)^2] for the double
    # root of (1 - rho z)^2, whose psi_j = (j + 1) rho^j decays slowest
    # against the root radius that sets the expansion's length.
    @pytest.mark.parametrize("rho, double, lags", [(0.5, False, range(6)), (0.9, True, range(2)),
                                                   (0.99, True, range(2))],
                             ids=["ar1-0.5", "double-root-0.9", "double-root-0.99"])
    def test_closed_forms(self, rho, double, lags):
        r = Fraction(rho)
        den = [1.0, -2.0 * rho, rho * rho] if double else [1.0, -rho]
        for h, got in zip(lags, rational_acvf([1.0], den, 1.0, lags)):
            if double:
                want = r ** h * ((1 + r * r) / (1 - r * r) ** 3 + h / (1 - r * r) ** 2)
            else:
                want = r ** h / (1 - r * r)
            assert abs(Fraction(got) - want) / want <= 1e-12

    def test_white_noise(self):
        g = rational_acvf([1.0], [1.0], 3.0, range(3))
        assert np.allclose(g, [3.0, 0.0, 0.0])

    def test_ma1_companion_acvf_matches_original_process(self):
        # the companion process shares all second-order properties with the
        # noninvertible MA(1): gamma(0)=5, gamma(1)=-2, gamma(h>=2)=0
        den = np.concatenate([[1.0], 0.5 ** np.arange(1, 61)])
        g = rational_acvf([1.0], den, 4.0, range(5))
        assert np.allclose(g, [5.0, -2.0, 0.0, 0.0, 0.0], atol=1e-10)


    @pytest.mark.parametrize("num, den", [
        ([1.0, -2.0], [1.0]), ([1.0, 0.5, -3.0], [1.0]), ([1.0], [1.0, -0.5]),
        ([1.0], [1.0, -0.997]), ([1.0, 0.4], [1.0, -1.3, 0.42]),
        ([1.0], [1.0, -1.99, 0.990025])],
        ids=["ma1", "ma2", "ar1", "ar1-0.997", "arma21", "double-root-0.995"])
    def test_every_lag_is_the_lagged_dot_product_of_psi_bit_for_bit(self, num, den):
        # the one np.correlate over every lag gives the bits of one np.dot per lag
        gamma = rational_acvf(num, den, 1.7)
        psi = impulse_response(num, den, gamma.size)
        want = [1.7 * np.dot(psi[: psi.size - h], psi[h:]) for h in range(psi.size)]
        assert np.array_equal(gamma, want)

    @pytest.mark.parametrize("num, den", [([1.0], [1.0, -0.5]), ([1.0], [1.0, -0.5, 0.2]),
                                          ([1.0, 0.4], [1.0, -0.7])],
                             ids=["ar1", "ar2", "arma11"])
    @pytest.mark.parametrize("h", [0, 1, 5, 50])
    def test_model_centers_read_the_full_array_bit_for_bit(self, num, den, h):
        # the statistics ask only for the lags they read; each lag keeps the
        # value it has in the array over every lag up to h
        full = rational_acvf(num, den, 2.5, range(h + 1))
        assert np.array_equal(rational_acvf(num, den, 2.5, [h]), full[[h]])
        assert AcvfStatistic(h).model_center(num, den, 2.5, 2000) == full[h]
        if h:
            assert AcfStatistic(h).model_center(num, den, 2.5, 2000) == full[h] / full[0]

    # every lag up to h = n - 1 = 199 999 would cost O(h^2), about 8 s of CPU
    # on a 2-vCPU machine; the one or two lags a centre reads cost one
    # compiled expansion and two dot products. At h = 1 999 999 an expansion
    # in Python steps took 3.5 s for the acvf centre alone.
    @pytest.mark.parametrize("n, seconds", [(200_000, 4.0), (2_000_000, 1.0)])
    def test_model_centers_at_the_last_lag_cost_no_quadratic_time(self, n, seconds):
        start = time.process_time()
        acvf = AcvfStatistic(n - 1).model_center([1.0], [1.0, -0.5], 1.0, n)
        acf = AcfStatistic(n - 1).model_center([1.0], [1.0, -0.5], 1.0, n)
        assert time.process_time() - start < seconds
        assert acvf == acf == 0.0  # 0.5^(n - 1) underflows


# Reciprocal roots strictly inside the unit disk: prod_i (1 - r_i z) = np.poly(r)
# then has every root outside the closed unit disk.
reciprocal_roots = st.lists(st.floats(-0.9, 0.9), min_size=1, max_size=3)
scales = st.floats(0.2, 3.0)
families = st.sampled_from(["gaussian", "centered_exponential", "centered_uniform"])


def _ar_acvf_by_yule_walker(a, sigma2, maxlag):
    """gamma(0..maxlag) of a causal AR(p) from the exact (p+1)-equation
    Yule-Walker system, then the AR recursion."""
    p = a.size
    m = np.eye(p + 1)
    for h in range(p + 1):
        for k in range(1, p + 1):
            m[h, abs(h - k)] -= a[k - 1]
    gamma = list(np.linalg.solve(m, np.eye(p + 1)[0] * sigma2))
    for h in range(p + 1, maxlag + 1):
        gamma.append(sum(a[k - 1] * gamma[h - k] for k in range(1, p + 1)))
    return np.array(gamma[: maxlag + 1])


class TestRationalFilterProperties:
    """The companion process shares the second-order structure of the model."""

    @settings(max_examples=60, deadline=None)
    @given(reciprocal_roots, scales)
    def test_invertible_ma_companion_acvf(self, roots, scale):
        b = np.poly(roots)[1:]
        spec = companion_spec_for(LinearModel(b=tuple(b), innovations=InnovationSpec(scale=scale)), 0)
        got = rational_acvf(*spec.filter, range(7))
        c = np.concatenate([[1.0], b])
        want = scale ** 2 * np.correlate(c, c, "full")[b.size:]
        assert np.allclose(got[: want.size], want, rtol=1e-12, atol=1e-12)
        assert np.all(got[want.size:] == 0.0)

    @settings(max_examples=60, deadline=None)
    @given(reciprocal_roots, scales)
    def test_stable_ar_companion_acvf(self, roots, scale):
        a = -np.poly(roots)[1:]
        spec = companion_spec_for(LinearModel(a=tuple(a), innovations=InnovationSpec(scale=scale)), 0)
        got = rational_acvf(*spec.filter, range(9))
        want = _ar_acvf_by_yule_walker(a, scale ** 2, 8)
        assert np.allclose(got, want, rtol=1e-9, atol=1e-9 * want[0])

    def test_ma1_example_companion_acvf(self):
        spec = LinearModel(b=(-2.0,)).companion(0)
        got = rational_acvf(spec.num, spec.den, 4.0, range(6))
        assert np.array_equal(got, [5.0, -2.0, 0.0, 0.0, 0.0, 0.0])

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(-0.9, 0.9), max_size=3), st.integers(1, 300),
           st.integers(0, 2 ** 32 - 1), families)
    def test_finite_filter_path_is_a_hand_fir(self, roots, n, seed, family):
        num = np.atleast_1d(np.poly(roots))
        q = num.size - 1
        innovations = InnovationSpec(family)
        spec = CompanionSpec(num, [1.0], innovations)
        x = build_companion(spec, n, [seed])[0]
        e = innovations.draw(n + q, seed)
        want = np.convolve(e, num)[q: n + q]
        assert x.size == n
        assert np.allclose(x, want, rtol=0.0, atol=1e-12 * max(1.0, np.abs(e).max()))
        assert np.array_equal(build_companion(spec, n, [seed])[0], x)

    def test_recursive_filter_path_keeps_its_burnin(self):
        den = np.array([1.0, -0.5, 0.2])
        spec = CompanionSpec([1.0], den, InnovationSpec())
        drop = burnin([1.0], den)
        want = lfilter([1.0], den, InnovationSpec().draw(300 + drop, 11))[drop:]
        assert np.array_equal(build_companion(spec, 300, [11])[0], want)


@pytest.fixture(scope="module")
def spec():
    return LinearModel(b=(-2.0,), innovations=InnovationSpec("centered_exponential")).companion(3)


class TestMa1Companion:
    def test_coefficients(self, spec):
        # the companion of X = e - 2 e_{-1} is exactly the MA(1) (1 - z/2) eps
        assert np.array_equal(spec.num, [1.0, -0.5])
        assert np.array_equal(spec.den, [1.0])

    def test_record_moments(self, spec):
        record = spec.noise.values
        assert record.size == COMPANION_RECORD_LENGTH
        assert spec.filter[2] == pytest.approx(4.0, rel=0.03)
        # exact kurtosis transfer: 0.4 * 9 - 1.2 = 2.4 excess
        excess = np.mean(record ** 4) / np.mean(record ** 2) ** 2 - 3.0
        assert excess == pytest.approx(2.4, abs=0.3)

    def test_path_second_order_structure(self, spec):
        x = build_companion(spec, 100_000, [4])[0]
        g = sample_acvf(x, 2)
        assert g[0] == pytest.approx(5.0, rel=0.05)
        assert g[1] == pytest.approx(-2.0, rel=0.1)
        assert abs(g[2]) < 0.15

    def test_build_deterministic(self, spec):
        x1 = build_companion(spec, 500, [5])
        x2 = build_companion(spec, 500, [5])
        assert x1.shape == (1, 500) and np.array_equal(x1, x2)


class TestDistribution:
    def test_mean_statistic_centered_near_zero(self):
        spec = CompanionSpec([1.0], [1.0, -0.5], InnovationSpec())
        law, theta = companion_distribution(spec, MeanStatistic(), n=400, M=400, seed=6)
        assert theta == 0.0
        assert abs(law.mean()) < 0.3

    def test_acvf_center_is_model_value(self):
        spec = CompanionSpec([1.0], [1.0, -0.5], InnovationSpec())
        _, theta = companion_distribution(spec, AcvfStatistic(0), n=400, M=300, seed=7)
        assert theta == pytest.approx(1.0 / 0.75)
