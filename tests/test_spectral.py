import math

import numpy as np
import pytest

from sieveboot.dgp import ma1_model, simulate_linear
from sieveboot import spectral
from sieveboot.series import Series, sample_acvf
from sieveboot.spectral import (
    KernelSpec,
    fourier_quadrature,
    integrated_periodogram,
    kernel_spectral_estimate,
    rational_spectral_density,
    ratio_statistic,
    weighted_quadrature,
)
from sieveboot.statistics import statistic_from_config


def rand_series(n=512, seed=0):
    return Series(np.random.default_rng(seed).standard_normal(n))


class TestPeriodogram:
    @pytest.mark.parametrize("n", [501, 777, 1024])
    def test_parseval(self, n):
        # the ordinates j = 1..n-1 carry the centered second moment; the
        # quadrature's half weight at pi makes M(I_n, 2) that sum for even n
        s = rand_series(n, seed=1)
        assert integrated_periodogram(s, 0) == pytest.approx(sample_acvf(s, 0)[0], rel=1e-12)

    def test_nonnegative(self):
        assert np.all(spectral._ordinates(rand_series(256, seed=2)) >= 0)

    def test_zero_frequency_is_mean_term(self):
        s = rand_series(100, seed=3)
        assert spectral._ordinates(s)[0] == pytest.approx(
            s.n * s.values.mean() ** 2 / (2 * np.pi), abs=1e-12)


class TestQuadrature:
    def test_grid_covers_zero_pi(self):
        freqs, w = fourier_quadrature(10)
        assert fourier_quadrature(10)[1] is w  # the cached arrays themselves
        assert freqs[0] == pytest.approx(2 * np.pi / 10)
        assert freqs[-1] == pytest.approx(np.pi)
        # total weight: half circle, with the endpoint half-weighted
        assert np.sum(w) == pytest.approx(np.pi - np.pi / 10)

    def test_cosine_functional_tracks_noncentered_acvf(self):
        s = rand_series(1024, seed=4)
        x, n = s.values, s.n
        for h in range(4):
            c = np.dot(x[: n - h], x[h:]) / n  # n^-1 sum_t X_t X_{t+h}, not centered
            assert abs(integrated_periodogram(s, h) - c) <= 5.0 / n

    def test_alternating_tone(self):
        # X_t = (-1)^t has all spectral mass at pi; the half weight at the
        # endpoint is exactly what keeps the quadrature consistent
        n = 64
        s = Series((-1.0) ** np.arange(1, n + 1))
        assert integrated_periodogram(s, 0) == pytest.approx(1.0)
        assert integrated_periodogram(s, 1) == pytest.approx(-1.0)

    def test_ratio_statistic_normalization(self):
        # at lag 0 the weight is the constant 2, so R = M(I_n, 2) / M(I_n, 1) = 2
        s = rand_series(400, seed=5)
        assert ratio_statistic(s, 0) == pytest.approx(2.0)


class TestKernel:
    def test_epanechnikov_normalization(self):
        k = KernelSpec(bandwidth=0.4)
        u = np.linspace(-np.pi, np.pi, 200_001)
        mass = np.trapezoid(k.kernel(u), u)
        assert mass == pytest.approx(1.0, abs=1e-6)
        assert np.trapezoid(k.kernel(u) ** 2, u) == pytest.approx(k.l2_norm_sq, abs=1e-6)
        assert np.trapezoid(u ** 2 * k.kernel(u), u) == pytest.approx(np.pi ** 2 / 5.0, abs=1e-5)

    def test_bandwidth_validation(self):
        with pytest.raises(ValueError):
            KernelSpec(bandwidth=0.0)
        with pytest.raises(ValueError):
            KernelSpec(bandwidth=4.0)

    def test_estimate_recovers_ma1_density(self):
        x = simulate_linear(ma1_model(), 40_000, seed=6)
        k = KernelSpec(bandwidth=0.15)
        for lam in (np.pi / 3, np.pi / 2, 2.4):
            f_true = rational_spectral_density([1.0, -2.0], [1.0], 1.0, lam)
            f_hat = kernel_spectral_estimate(x, k, lam)
            assert f_hat == pytest.approx(f_true, rel=0.1)

    def test_frequency_range_enforced(self):
        with pytest.raises(ValueError):
            kernel_spectral_estimate(rand_series(64), KernelSpec(), 3.5)


# The per-path expressions the cached arrays replaced, kept verbatim as the
# reference every cached statistic must reproduce bit for bit.
def _inline_ordinates(s):
    dft = np.fft.rfft(s.values)
    return np.abs(dft) ** 2 / (2.0 * np.pi * s.n)


def _inline_quadrature(n):
    m = n // 2
    freqs = 2.0 * np.pi * np.arange(1, m + 1) / n
    w = np.full(m, 2.0 * np.pi / n)
    if n % 2 == 0:
        w[-1] *= 0.5
    return freqs, w


def _inline_kernel_estimate(s, k, lam):
    n = s.n
    j = np.arange(n)
    i_full = _inline_ordinates(s)[np.minimum(j, n - j)]
    mu = 2.0 * np.pi * np.arange(n) / n
    d = np.angle(np.exp(1j * (lam - mu)))
    h = k.bandwidth
    weights = k.kernel(d / h) / h
    return float(np.dot(weights, i_full) * (2.0 * np.pi / n))


def _inline_integrated(s, h):
    freqs, w = _inline_quadrature(s.n)
    return float(np.dot(w * (2.0 * np.cos(freqs * h)), _inline_ordinates(s)[1:]))


def _inline_ratio(s, h):
    values = _inline_ordinates(s)[1:]
    freqs, w = _inline_quadrature(s.n)
    return float(np.dot(w * (2.0 * np.cos(freqs * h)), values)) / float(np.dot(w, values))


def _read_only_arrays(n, k, lam, h):
    return [*fourier_quadrature(n), weighted_quadrature(h, n),
            spectral._even_fold(n), spectral._kernel_weights(k, lam, n)]


class TestCachedArrays:
    @pytest.mark.parametrize("n", [63, 64, 2000])
    @pytest.mark.parametrize("lam", [0.0, np.pi / 2, np.pi])
    def test_kernel_estimate_is_the_inline_expression(self, n, lam):
        for bandwidth in (0.3, 0.4):
            stat = statistic_from_config({"name": "specdens", "lambda": lam,
                                          "bandwidth": bandwidth})
            for seed in range(3):
                s = rand_series(n, seed)
                want = _inline_kernel_estimate(s, stat.kernel, lam)
                assert kernel_spectral_estimate(s, stat.kernel, lam) == want
                assert stat.evaluate(s) == want

    @pytest.mark.parametrize("n", [63, 64, 2000])
    def test_frequency_statistics_are_the_inline_expressions(self, n):
        for lag in (0, 1, 3):
            ratio = statistic_from_config({"name": "ratio-cos", "lag": lag})
            intper = statistic_from_config({"name": "intper-cos", "lag": lag})
            for seed in range(3):
                s = rand_series(n, seed)
                assert ratio.evaluate(s) == _inline_ratio(s, lag)
                assert intper.evaluate(s) == _inline_integrated(s, lag)
        s = rand_series(n, 9)
        assert spectral._ordinates(s).tolist() == _inline_ordinates(s).tolist()

    @pytest.mark.parametrize("n", [63, 64, 2000])
    def test_model_centers_are_the_inline_expressions(self, n):
        num, den, sigma2 = [1.0, -2.0], [1.0], 1.0
        freqs, w = _inline_quadrature(n)
        fv = rational_spectral_density(num, den, sigma2, freqs)
        for lag in (0, 1, 3):
            ratio = statistic_from_config({"name": "ratio-cos", "lag": lag})
            intper = statistic_from_config({"name": "intper-cos", "lag": lag})
            weighted = float(np.dot(w * (2.0 * np.cos(freqs * lag)), fv))
            assert ratio.model_center(num, den, sigma2, n) == weighted / float(np.dot(w, fv))
            assert intper.model_center(num, den, sigma2, n) == weighted

    def test_cached_arrays_are_read_only(self):
        arrays = _read_only_arrays(64, KernelSpec(bandwidth=0.4), np.pi / 2, 1)
        for a in arrays:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 1.0

    def test_repeated_keys_share_an_entry(self):
        k = KernelSpec(bandwidth=0.4)
        first = _read_only_arrays(128, k, np.pi / 3, 2)
        again = _read_only_arrays(128, KernelSpec(bandwidth=0.4), np.pi / 3, 2)
        # every cached array comes back as the same object; each periodogram's
        # values stay its own
        assert all(a is b for a, b in zip(first, again))
        assert spectral._ordinates(rand_series(128)) is not spectral._ordinates(rand_series(128))

    def test_statistics_of_one_lag_share_an_entry(self):
        weighted_quadrature.cache_clear()
        stats = [statistic_from_config({"name": "ratio-cos", "lag": 1}) for _ in range(3)]
        s = rand_series(96, seed=4)
        for stat in stats:
            for _ in range(2):
                stat.evaluate(s)
        info = weighted_quadrature.cache_info()
        assert (info.hits, info.misses, info.currsize) == (5, 1, 1)

    def test_lengths_and_bandwidths_never_share_an_entry(self):
        k = KernelSpec(bandwidth=0.4)
        by_length = [_read_only_arrays(n, k, np.pi / 2, 1) for n in (63, 64)]
        for a, b in zip(*by_length):
            assert a.size != b.size
        narrow = spectral._kernel_weights(KernelSpec(bandwidth=0.3), np.pi / 2, 64)
        wide = spectral._kernel_weights(KernelSpec(bandwidth=0.4), np.pi / 2, 64)
        assert narrow is not wide and not np.array_equal(narrow, wide)
        other = spectral._kernel_weights(k, np.pi / 4, 64)
        assert not np.array_equal(other, wide)
        assert not np.array_equal(weighted_quadrature(2, 64), weighted_quadrature(1, 64))


class TestModelDensities:
    def test_ma1_density_values(self):
        f = lambda lam: rational_spectral_density([1.0, -2.0], [1.0], 1.0, lam)
        assert f(0.0) == pytest.approx(1.0 / (2 * np.pi))
        assert f(np.pi) == pytest.approx(9.0 / (2 * np.pi))
        assert f(np.pi / 2) == pytest.approx(5.0 / (2 * np.pi))

    def test_ar_density_integrates_to_variance(self):
        lam = np.linspace(0, np.pi, 100_001)
        integral = 2.0 * np.trapezoid(rational_spectral_density([1.0], [1.0, -0.6], 1.0, lam), lam)
        assert integral == pytest.approx(1.0 / (1 - 0.36), rel=1e-4)

    def test_ar_approximation_of_ma1_density(self):
        # long AR truncation reproduces the MA(1) spectral density
        den = np.concatenate([[1.0], 0.5 ** np.arange(1, 41)])
        for lam in (0.3, 1.0, 2.0, math.pi):
            want = rational_spectral_density([1.0, -2.0], [1.0], 1.0, lam)
            assert rational_spectral_density([1.0], den, 4.0, lam) == pytest.approx(want, rel=1e-8)

    def test_scalar_and_array_evaluation(self):
        scalar = rational_spectral_density([1.0], [1.0, -0.3], 2.0, 1.0)
        arr = rational_spectral_density([1.0], [1.0, -0.3], 2.0, np.array([1.0, 2.0]))
        assert isinstance(scalar, float)
        assert arr.shape == (2,)
        assert arr[0] == pytest.approx(scalar)
