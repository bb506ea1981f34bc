import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import toeplitz

from sieveboot.ar import (
    ARFit,
    ConditioningError,
    InversionError,
    MAInversion,
    baxter_gap,
    invert_ar_polynomial,
    levinson_durbin,
    min_modulus_on_disk,
    residuals,
    wold_factorization,
    yule_walker_fit,
)
from sieveboot.companion import rational_acvf
from sieveboot.series import ACVF, Series, sample_acvf

MA1_GAMMA = np.concatenate([[5.0, -2.0], np.zeros(59)])  # gamma of X_t = e_t - 2 e_{t-1}


def ma1_acvf(maxlag: int) -> ACVF:
    return ACVF(MA1_GAMMA[: maxlag + 1], kind="theoretical")


def random_empirical_acvf(rng, n=400, maxlag=8) -> ACVF:
    s = Series(rng.standard_normal(n))
    return sample_acvf(s, maxlag, centered=True)


class TestLevinsonDurbin:
    def test_order_one_exact(self):
        fit = yule_walker_fit(ma1_acvf(1), 1)
        assert fit.a == pytest.approx([-0.4])
        assert fit.sigma2 == pytest.approx(4.2)

    def test_order_two_exact(self):
        fit = yule_walker_fit(ma1_acvf(2), 2)
        assert fit.a == pytest.approx([-10.0 / 21.0, -4.0 / 21.0])

    def test_matches_dense_solve(self):
        rng = np.random.default_rng(11)
        for trial in range(20):
            g = random_empirical_acvf(rng)
            a, _ = levinson_durbin(g.gamma, 6)
            dense = np.linalg.solve(toeplitz(g.gamma[:6]), g.gamma[1:7])
            assert np.max(np.abs(a - dense)) <= 1e-10

    def test_sigma2_nonincreasing(self):
        _, sigma2s = levinson_durbin(MA1_GAMMA[:9], 8)
        assert np.all(np.diff(sigma2s) <= 1e-12)

    def test_innovation_variance_converges_to_four(self):
        fit = yule_walker_fit(ma1_acvf(30), 30)
        assert abs(fit.sigma2 - 4.0) < 1e-6

    def test_variance_floor_abort(self):
        # gamma of a perfectly predictable (unit-root) sequence collapses
        g = np.full(5, 1.0)
        with pytest.raises(ConditioningError):
            levinson_durbin(g, 4)

    def test_root_exclusion_on_random_empirical_acvfs(self):
        rng = np.random.default_rng(12)
        for trial in range(1000):
            fit = yule_walker_fit(random_empirical_acvf(rng, n=120, maxlag=4), 4)
            assert min_modulus_on_disk(fit.a, 1.0) > 0.0


class TestInversion:
    def test_convolution_identity(self):
        a = np.array([0.4, -0.25, 0.1])
        inv = invert_ar_polynomial(a, 60)
        conv = np.convolve(np.concatenate([[1.0], -a]), inv.alpha)[:61]
        want = np.zeros(61)
        want[0] = 1.0
        assert np.max(np.abs(conv - want)) <= 1e-10

    def test_ma1_example_inverse_is_short(self):
        # the AR(infinity) coefficients -(1/2)^j invert to the MA(1) filter
        # in the Wold innovations: alpha = (1, -1/2, 0, 0, ...)
        inv = invert_ar_polynomial(-(0.5 ** np.arange(1, 51)), 30)
        want = np.zeros(31)
        want[0], want[1] = 1.0, -0.5
        assert np.max(np.abs(inv.alpha - want)) < 1e-12

    def test_unstable_polynomial_rejected(self):
        with pytest.raises(InversionError):
            invert_ar_polynomial(np.array([2.0]), 10)

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            MAInversion(alpha=np.array([2.0, 0.0]), L=1, decay_bound=0.0)


class TestMinModulus:
    def test_ar1_boundary_minimum(self):
        # A(z) = 1 - 0.5 z has |A| minimized at z = 1: value 0.5
        assert min_modulus_on_disk(np.array([0.5]), 1.0) == pytest.approx(0.5)

    def test_root_inside_disk_gives_zero(self):
        # A(z) = 1 - 2 z has root 0.5 inside the unit disk
        assert min_modulus_on_disk(np.array([2.0]), 1.0) == 0.0

    def test_zero_polynomial_coefficients(self):
        assert min_modulus_on_disk(np.zeros(3), 1.0) == 1.0

    def test_smaller_radius_admits_noninvertible(self):
        # root at 0.5: positive minimum on the disk of radius 0.3
        assert min_modulus_on_disk(np.array([2.0]), 0.3) == pytest.approx(0.4)

    def test_tiny_trailing_coefficient_is_no_root_in_disk(self):
        # 1 - 0.5 z - c z^2 with tiny c has roots near 2 and near -1/(2c)
        for c in (1e-20, 1.7e-51, 1e-300):
            assert min_modulus_on_disk(np.array([0.5, c]), 1.0) == pytest.approx(0.5)

    def test_matches_dense_grid(self):
        rng = np.random.default_rng(21)
        for trial in range(25):
            a = rng.uniform(-0.4, 0.4, 4)
            exact = min_modulus_on_disk(a, 1.0)
            theta = np.linspace(0, np.pi, 20001)
            z = np.exp(1j * theta)
            grid = np.min(np.abs(np.polynomial.polynomial.polyval(
                z, np.concatenate([[1.0], -a]))))
            assert exact <= grid + 1e-12
            assert exact == pytest.approx(grid, abs=1e-6)


class TestBaxterAndResiduals:
    def test_baxter_ratio_bounded(self):
        a_true = -(0.5 ** np.arange(1, 81))  # the AR(infinity) coefficients -(1/2)^j
        ratios = []
        for p in (5, 10, 20, 40):
            fit = yule_walker_fit(ma1_acvf(p), p)
            lhs, rhs = baxter_gap(fit, a_true, r=0)
            assert rhs > 0
            ratios.append(lhs / rhs)
        assert max(ratios) < 10.0

    def test_residuals_recover_innovations(self):
        # data generated by a known AR(2); residuals under the true fit
        # must equal the innovations exactly (before centering)
        rng = np.random.default_rng(31)
        a = np.array([0.5, -0.3])
        e = rng.standard_normal(500)
        x = np.zeros(500)
        for t in range(500):
            x[t] = e[t] + a[0] * (x[t - 1] if t >= 1 else 0.0) + a[1] * (x[t - 2] if t >= 2 else 0.0)
        fit = ARFit(p=2, a=a, sigma2=1.0, source="theoretical")
        res = residuals(Series(x), fit)
        want = e[2:] - e[2:].mean()
        assert np.max(np.abs(res - (want - want.mean()))) < 1e-10

    def test_residuals_mean_is_zero(self):
        rng = np.random.default_rng(32)
        s = Series(rng.standard_normal(300) + 5.0)
        fit = yule_walker_fit(sample_acvf(s, 2, centered=True), 2)
        res = residuals(s, fit)
        assert abs(res.mean()) < 1e-14

    def test_innovation_variance_limit(self):
        gamma = rational_acvf([1.0, -2.0], [1.0], 1.0, 40).gamma
        v = gamma[0] - np.dot(-(0.5 ** np.arange(1, 41)), gamma[1:])
        # gamma(0) - sum a_k gamma(k) = 5 - (1/2)*2 = 4
        assert v == pytest.approx(4.0)


# Reciprocal roots r of b(z) = prod (1 - r z), kept 0.05 away from the unit
# circle in modulus: real ones, and complex ones with their conjugates. A
# modulus above 1 is a root 1/r inside the disk, which the factorization flips.
moduli = st.one_of(st.floats(0.05, 0.95), st.floats(1.05, 3.0))
real_roots = st.lists(st.tuples(moduli, st.sampled_from([-1.0, 1.0])), max_size=3)
complex_roots = st.lists(st.tuples(moduli, st.floats(0.1, np.pi - 0.1)), max_size=2)


def _reciprocal_roots(reals, pairs):
    roots = [s * m for m, s in reals]
    for m, angle in pairs:
        roots += [m * np.exp(1j * angle), m * np.exp(-1j * angle)]
    return np.array(roots, dtype=complex)


def _ma_polynomial(r):
    return np.atleast_1d(np.poly(r).real)


class TestWoldFactorization:
    def test_worked_example(self):
        num, sigma2, psi = wold_factorization([1.0, -2.0], 1.5)
        assert np.array_equal(num, [1.0, -0.5]) and sigma2 == 6.0
        # psi of (1 - 2z) / (1 - z/2): 1, then -(3/2) (1/2)^(j-1), over
        # q + lag + 1 taps with lag = 60, the first t with (1/2)^t < 1e-18
        want = np.concatenate([[1.0], -1.5 * 0.5 ** np.arange(61)])
        assert np.array_equal(psi, want)

    def test_invertible_polynomial_is_returned_as_it_is(self):
        b = np.array([1.0, 0.5, -0.2])
        num, sigma2, psi = wold_factorization(b, 2.0)
        assert num is b and sigma2 == 2.0 and np.array_equal(psi, [1.0])

    @pytest.mark.parametrize("b, root", [([1.0, 1.0], "z = -1"), ([1.0, -1.0], "z = 1"),
                                         ([1.0, 0.0, 1.0], "z = 0-1j")])
    def test_root_on_the_circle_rejected(self, b, root):
        with pytest.raises(ValueError, match=f"root on the unit circle, {root};"):
            wold_factorization(b)

    def test_root_too_close_to_the_circle_rejected(self):
        # rho = 1 / 1.001: (1 / 1.001)^t < 1e-18 only from t = 41468
        with pytest.raises(ValueError, match="41468 lags"):
            wold_factorization([1.0, -1.001])

    def test_polynomial_must_start_with_one(self):
        with pytest.raises(ValueError, match="start with 1"):
            wold_factorization([2.0, 1.0])

    @settings(max_examples=80, deadline=None)
    @given(real_roots, complex_roots, st.floats(0.2, 3.0))
    def test_flipping_keeps_the_acvf(self, reals, pairs, sigma2):
        b = _ma_polynomial(_reciprocal_roots(reals, pairs))
        num, sigma2_eps, _ = wold_factorization(b, sigma2)
        want = rational_acvf(b, [1.0], sigma2).gamma
        got = rational_acvf(num, [1.0], sigma2_eps).gamma
        assert np.allclose(got, want, rtol=0.0, atol=1e-9 * want[0])

    @settings(max_examples=80, deadline=None)
    @given(real_roots, complex_roots)
    def test_wold_polynomial_has_no_root_in_the_closed_disk(self, reals, pairs):
        b = _ma_polynomial(_reciprocal_roots(reals, pairs))
        num = wold_factorization(b)[0]
        assert num[0] == 1.0
        assert min_modulus_on_disk(-num[1:], 1.0) > 0

    @settings(max_examples=80, deadline=None)
    @given(real_roots, complex_roots, st.floats(0.2, 3.0))
    def test_allpass_gain_is_constant(self, reals, pairs, sigma2):
        r = _reciprocal_roots(reals, pairs)
        b = _ma_polynomial(r)
        num, sigma2_eps, psi = wold_factorization(b, sigma2)
        gain = np.prod(np.abs(r[np.abs(r) > 1.0]))  # prod |z_i|^-1 over flipped roots
        z = np.exp(1j * np.linspace(0.0, np.pi, 129))
        response = np.polyval(b[::-1], z) / np.polyval(num[::-1], z)
        assert np.allclose(np.abs(response), gain, rtol=1e-9, atol=0.0)
        assert sigma2_eps == pytest.approx(sigma2 * gain ** 2, rel=1e-9)
        assert np.sum(psi ** 2) == pytest.approx(gain ** 2, rel=1e-9)
