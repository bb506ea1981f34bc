import math

import numpy as np
import pytest

from sieveboot import dgp, statistics
from sieveboot.dgp import (
    KEY_TRUTH,
    InnovationSpec,
    LinearModel,
    derive_seed,
    replicate,
    simulate_linear,
)
from sieveboot.series import sample_acvf
from sieveboot.statistics import (
    KERNEL_L2_NORM_SQ,
    IntegratedPeriodogramStatistic,
    RatioStatistic,
    SpectralDensityStatistic,
    epanechnikov,
    fourier_quadrature,
    periodogram,
    rational_spectral_density,
    statistic_from_config,
    weighted_quadrature,
)


def rand_series(n=512, seed=0):
    return np.random.default_rng(seed).standard_normal(n)


class TestPeriodogram:
    @pytest.mark.parametrize("n", [501, 777, 1024])
    def test_parseval(self, n):
        # the ordinates j = 1..n-1 carry the centered second moment; the
        # quadrature's half weight at pi makes M(I_n, 2) that sum for even n
        s = rand_series(n, seed=1)
        assert IntegratedPeriodogramStatistic(0).evaluate(periodogram(s)) == pytest.approx(
            sample_acvf(s, 0)[0], rel=1e-12)

    def test_nonnegative(self):
        assert np.all(periodogram(rand_series(256, seed=2)) >= 0)

    def test_zero_frequency_is_mean_term(self):
        s = rand_series(100, seed=3)
        assert periodogram(s)[0] == pytest.approx(
            s.size * s.mean() ** 2 / (2 * np.pi), abs=1e-12)

    def test_a_block_is_its_rows_periodograms(self):
        # one FFT of the block, each row bit for bit the periodogram of its path
        for n in (63, 64, 999, 2000):
            block = np.random.default_rng(n).standard_normal((7, n))
            out = periodogram(block)
            assert out.shape == block.shape and out.flags.c_contiguous
            for row, path in zip(out, block):
                assert np.array_equal(row, periodogram(path))
                assert np.array_equal(row, _inline_ordinates(path)[_inline_fold(n)])

    def test_short_paths_rejected(self):
        with pytest.raises(ValueError, match="n >= 2"):
            periodogram(np.ones((3, 1)))


class TestQuadrature:
    def test_grid_covers_zero_pi(self):
        freqs, w = fourier_quadrature(10)
        assert fourier_quadrature(10)[1] is w  # the cached arrays themselves
        assert freqs[0] == pytest.approx(2 * np.pi / 10)
        assert freqs[-1] == pytest.approx(np.pi)
        # total weight: half circle, with the endpoint half-weighted
        assert np.sum(w) == pytest.approx(np.pi - np.pi / 10)

    def test_cosine_functional_tracks_noncentered_acvf(self):
        x = rand_series(1024, seed=4)
        n = x.size
        for h in range(4):
            c = np.dot(x[: n - h], x[h:]) / n  # n^-1 sum_t X_t X_{t+h}, not centered
            assert abs(IntegratedPeriodogramStatistic(h).evaluate(periodogram(x)) - c) <= 5.0 / n

    def test_alternating_tone(self):
        # X_t = (-1)^t has all spectral mass at pi; the half weight at the
        # endpoint is exactly what keeps the quadrature consistent
        n = 64
        row = periodogram((-1.0) ** np.arange(1, n + 1))
        assert IntegratedPeriodogramStatistic(0).evaluate(row) == pytest.approx(1.0)
        assert IntegratedPeriodogramStatistic(1).evaluate(row) == pytest.approx(-1.0)

    def test_ratio_statistic_normalization(self):
        # at lag 0 the weight is the constant 2, so R = M(I_n, 2) / M(I_n, 1) = 2
        s = rand_series(400, seed=5)
        assert RatioStatistic(0).evaluate(periodogram(s)) == pytest.approx(2.0)


class TestKernel:
    def test_epanechnikov_normalization(self):
        u = np.linspace(-np.pi, np.pi, 200_001)
        mass = np.trapezoid(epanechnikov(u), u)
        assert mass == pytest.approx(1.0, abs=1e-6)
        assert np.trapezoid(epanechnikov(u) ** 2, u) == pytest.approx(KERNEL_L2_NORM_SQ, abs=1e-6)
        assert np.trapezoid(u ** 2 * epanechnikov(u), u) == pytest.approx(np.pi ** 2 / 5.0,
                                                                          abs=1e-5)
        assert epanechnikov([-np.pi - 1e-9, np.pi + 1e-9]).tolist() == [0.0, 0.0]

    # the constructor validates its bandwidth as it does lambda: a number first,
    # then the range (0, pi], whose upper end is admitted
    @pytest.mark.parametrize("bandwidth, message", [
        *[(v, r"bandwidth must lie in \(0, pi\]") for v in (0.0, -0.1, 4.0, math.nan)],
        *[(v, "bandwidth must be a number") for v in ("0.3", True, None, 10 ** 400)],
    ])
    def test_bandwidth_validation(self, bandwidth, message):
        with pytest.raises(ValueError, match=message):
            SpectralDensityStatistic(bandwidth=bandwidth)
        assert SpectralDensityStatistic(bandwidth=math.pi).bandwidth == math.pi

    def test_estimate_recovers_ma1_density(self):
        row = periodogram(simulate_linear(LinearModel(b=(-2.0,)), 40_000, seed=6))
        for lam in (np.pi / 3, np.pi / 2, 2.4):
            f_true = rational_spectral_density([1.0, -2.0], [1.0], 1.0, lam)
            f_hat = SpectralDensityStatistic(lam, 0.15).evaluate(row)
            assert f_hat == pytest.approx(f_true, rel=0.1)


# The per-path expressions the cached arrays and the periodogram of a block
# replaced, kept verbatim as the reference every statistic must reproduce bit
# for bit.
def _inline_ordinates(s):
    dft = np.fft.rfft(s)
    return np.abs(dft) ** 2 / (2.0 * np.pi * s.size)


def _inline_fold(n):
    j = np.arange(n)
    return np.minimum(j, n - j)


def _inline_quadrature(n):
    m = n // 2
    freqs = 2.0 * np.pi * np.arange(1, m + 1) / n
    w = np.full(m, 2.0 * np.pi / n)
    if n % 2 == 0:
        w[-1] *= 0.5
    return freqs, w


def _inline_kernel_estimate(s, h, lam):
    n = s.size
    i_full = _inline_ordinates(s)[_inline_fold(n)]
    mu = 2.0 * np.pi * np.arange(n) / n
    d = np.angle(np.exp(1j * (lam - mu)))
    u = d / h
    weights = np.where(np.abs(u) <= np.pi, 3.0 / (4.0 * np.pi) * (1.0 - (u / np.pi) ** 2), 0.0) / h
    return float(np.dot(weights, i_full) * (2.0 * np.pi / n))


def _inline_integrated(s, h):
    freqs, w = _inline_quadrature(s.size)
    return float(np.dot(w * (2.0 * np.cos(freqs * h)), _inline_ordinates(s)[1:]))


def _inline_ratio(s, h):
    values = _inline_ordinates(s)[1:]
    freqs, w = _inline_quadrature(s.size)
    return float(np.dot(w * (2.0 * np.cos(freqs * h)), values)) / float(np.dot(w, values))


def _read_only_arrays(n, bandwidth, lam, h):
    return [*fourier_quadrature(n), weighted_quadrature(h, n),
            statistics._even_fold(n), statistics._kernel_weights(bandwidth, lam, n)]


class TestCachedArrays:
    @pytest.mark.parametrize("n", [63, 64, 2000])
    @pytest.mark.parametrize("lam", [0.0, np.pi / 2, np.pi])
    def test_kernel_estimate_is_the_inline_expression(self, n, lam):
        for bandwidth in (0.3, 0.4):
            stat = statistic_from_config({"name": "specdens", "lambda": lam,
                                          "bandwidth": bandwidth})
            for seed in range(3):
                s = rand_series(n, seed)
                want = _inline_kernel_estimate(s, bandwidth, lam)
                row = periodogram(s)
                assert SpectralDensityStatistic(lam, bandwidth).evaluate(row) == want
                assert stat.evaluate(stat.transform(s)) == want

    @pytest.mark.parametrize("n", [63, 64, 2000])
    def test_frequency_statistics_are_the_inline_expressions(self, n):
        for lag in (0, 1, 3):
            ratio = statistic_from_config({"name": "ratio-cos", "lag": lag})
            intper = statistic_from_config({"name": "intper-cos", "lag": lag})
            for seed in range(3):
                s = rand_series(n, seed)
                assert ratio.evaluate(ratio.transform(s)) == _inline_ratio(s, lag)
                assert intper.evaluate(intper.transform(s)) == _inline_integrated(s, lag)
        s = rand_series(n, 9)
        assert (periodogram(s)[: n // 2 + 1].tolist()
                == _inline_ordinates(s).tolist())

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
        arrays = _read_only_arrays(64, 0.4, np.pi / 2, 1)
        for a in arrays:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 1.0

    def test_repeated_keys_share_an_entry(self):
        first = _read_only_arrays(128, 0.4, np.pi / 3, 2)
        again = _read_only_arrays(128, 0.4, np.pi / 3, 2)
        # every cached array comes back as the same object; each periodogram's
        # values stay its own
        assert all(a is b for a, b in zip(first, again))
        assert (periodogram(rand_series(128))
                is not periodogram(rand_series(128)))

    def test_statistics_of_one_lag_share_an_entry(self):
        weighted_quadrature.cache_clear()
        stats = [statistic_from_config({"name": "ratio-cos", "lag": 1}) for _ in range(3)]
        row = periodogram(rand_series(96, seed=4))
        for stat in stats:
            for _ in range(2):
                stat.evaluate(row)
        info = weighted_quadrature.cache_info()
        assert (info.hits, info.misses, info.currsize) == (5, 1, 1)

    def test_lengths_and_bandwidths_never_share_an_entry(self):
        by_length = [_read_only_arrays(n, 0.4, np.pi / 2, 1) for n in (63, 64)]
        for a, b in zip(*by_length):
            assert a.size != b.size
        narrow = statistics._kernel_weights(0.3, np.pi / 2, 64)
        wide = statistics._kernel_weights(0.4, np.pi / 2, 64)
        assert narrow is not wide and not np.array_equal(narrow, wide)
        other = statistics._kernel_weights(0.4, np.pi / 4, 64)
        assert not np.array_equal(other, wide)
        assert not np.array_equal(weighted_quadrature(2, 64), weighted_quadrature(1, 64))


# (statistic, inline reference of a path) for each spectral statistic: the
# cosine statistics at lags 1 and 3, the kernel estimate at both boundaries
# and inside.
_SPECTRAL = [
    pytest.param({"name": name, "lag": lag}, lambda s, inline=inline, lag=lag: inline(s, lag),
                 id=f"{name}-{lag}")
    for name, inline in (("intper-cos", _inline_integrated), ("ratio-cos", _inline_ratio))
    for lag in (1, 3)
] + [
    pytest.param({"name": "specdens", "lambda": lam, "bandwidth": 0.3},
                 lambda s, lam=lam: _inline_kernel_estimate(s, 0.3, lam),
                 id=f"specdens-{name}")
    for name, lam in (("0", 0.0), ("pi/2", np.pi / 2), ("pi", np.pi))
]


class TestBlockPeriodogram:
    @pytest.mark.parametrize("n", [99, 100])
    @pytest.mark.parametrize("doc, inline", _SPECTRAL)
    def test_law_is_the_per_path_inline_loop(self, monkeypatch, doc, inline, n):
        # replicate takes one periodogram per block; the law is still that of
        # each path's own FFT, whatever the number of paths in a block
        statistic, count = statistic_from_config(doc), 15
        process = LinearModel(a=(0.5, -0.2), innovations=InnovationSpec("centered_uniform"))
        paths = [process.simulate(n, [derive_seed(11, KEY_TRUTH, i)])[0] for i in range(count)]
        theta = statistic.model_center(*process.filter, n)
        want = np.sort(statistic.rate(n) * (np.array([inline(x) for x in paths]) - theta))
        for rows in (1, 7, count):
            monkeypatch.setattr(dgp, "BATCH_VALUES", rows * n)
            law, _ = replicate(process, statistic, n, count, 11, KEY_TRUTH)
            assert np.array_equal(law.sample, want)


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
