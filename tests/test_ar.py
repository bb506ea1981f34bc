import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import toeplitz

from sieveboot.dgp import (
    SETTLE_TOL,
    InnovationSpec,
    InversionError,
    LinearModel,
    build_companion,
    burnin,
    check_roots_outside_disk,
    impulse_response,
    root_radius,
    simulate_linear,
    wold_factorization,
)
from sieveboot.series import sample_acvf
from sieveboot.sieve import ConditioningError, fit_sieve, levinson_durbin, residuals
from sieveboot.statistics import rational_acvf

MA1_GAMMA = np.concatenate([[5.0, -2.0], np.zeros(59)])  # gamma of X_t = e_t - 2 e_{t-1}


def random_empirical_acvf(rng, n=400, maxlag=8) -> np.ndarray:
    return sample_acvf(rng.standard_normal(n), maxlag)


class TestLevinsonDurbin:
    def test_order_one_exact(self):
        a, sigma2s = levinson_durbin(MA1_GAMMA, 1)
        assert a == pytest.approx([-0.4])
        assert sigma2s[1] == pytest.approx(4.2)
        # the first step is the general one, bit for bit gamma(1) / gamma(0)
        assert a[0] == MA1_GAMMA[1] / MA1_GAMMA[0]
        assert sigma2s[1] == MA1_GAMMA[0] * (1.0 - a[0] * a[0])

    def test_order_two_exact(self):
        a, _ = levinson_durbin(MA1_GAMMA, 2)
        assert a == pytest.approx([-10.0 / 21.0, -4.0 / 21.0])

    def test_matches_dense_solve(self):
        rng = np.random.default_rng(11)
        for trial in range(20):
            g = random_empirical_acvf(rng)
            a, _ = levinson_durbin(g, 6)
            dense = np.linalg.solve(toeplitz(g[:6]), g[1:7])
            assert np.max(np.abs(a - dense)) <= 1e-10

    def test_sigma2_nonincreasing(self):
        _, sigma2s = levinson_durbin(MA1_GAMMA[:9], 8)
        assert np.all(np.diff(sigma2s) <= 1e-12)

    def test_innovation_variance_converges_to_four(self):
        _, sigma2s = levinson_durbin(MA1_GAMMA, 30)
        assert abs(sigma2s[30] - 4.0) < 1e-6

    def test_variance_floor_abort(self):
        # gamma of a perfectly predictable (unit-root) sequence collapses
        g = np.full(5, 1.0)
        with pytest.raises(ConditioningError):
            levinson_durbin(g, 4)

    def test_root_exclusion_on_random_empirical_acvfs(self):
        rng = np.random.default_rng(12)
        for trial in range(1000):
            a, _ = levinson_durbin(random_empirical_acvf(rng, n=120, maxlag=4), 4)
            assert root_radius(np.concatenate([[1.0], -a])) * (1.0 + 1e-12) < 1.0


class TestInversion:
    def test_convolution_identity(self):
        a = np.array([0.4, -0.25, 0.1])
        inv = impulse_response([1.0], np.concatenate([[1.0], -a]), 61)
        conv = np.convolve(np.concatenate([[1.0], -a]), inv)[:61]
        want = np.zeros(61)
        want[0] = 1.0
        assert np.max(np.abs(conv - want)) <= 1e-10

    def test_ma1_example_inverse_is_short(self):
        # the AR(infinity) coefficients -(1/2)^j invert to the MA(1) filter
        # in the Wold innovations: alpha = (1, -1/2, 0, 0, ...)
        inv = impulse_response([1.0], np.concatenate([[1.0], 0.5 ** np.arange(1, 51)]), 31)
        want = np.zeros(31)
        want[0], want[1] = 1.0, -0.5
        assert np.max(np.abs(inv - want)) < 1e-12

    def test_unstable_polynomial_rejected(self):
        with pytest.raises(InversionError):
            impulse_response([1.0], [1.0, -2.0], 11)


# Reciprocal roots r of b(z) = prod (1 - r z), kept 0.05 away from the unit
# circle in modulus: real ones, and complex ones with their conjugates. A
# modulus above 1 is a root 1/r inside the disk, which the factorization flips.
moduli = st.one_of(st.floats(0.05, 0.95), st.floats(1.05, 3.0))
real_roots = st.lists(st.tuples(moduli, st.sampled_from([-1.0, 1.0])), max_size=3)
complex_roots = st.lists(st.tuples(moduli, st.floats(0.1, np.pi - 0.1)), max_size=2)
# The same, with moduli as near the circle as 1e-3.
near_moduli = st.one_of(st.floats(0.05, 1.0 - 1e-3), st.floats(1.0 + 1e-3, 3.0))
near_real_roots = st.lists(st.tuples(near_moduli, st.sampled_from([-1.0, 1.0])), max_size=3)
near_complex_roots = st.lists(st.tuples(near_moduli, st.floats(0.1, np.pi - 0.1)), max_size=2)


def _reciprocal_roots(reals, pairs):
    roots = [s * m for m, s in reals]
    for m, angle in pairs:
        roots += [m * np.exp(1j * angle), m * np.exp(-1j * angle)]
    return np.array(roots, dtype=complex)


def _ma_polynomial(r):
    return np.atleast_1d(np.poly(r).real)


class TestRootRadius:
    def test_ar1_gives_its_coefficient(self):
        # A(z) = 1 - a z has its root at 1 / a
        for a in (0.5, -0.9, 0.0):
            assert root_radius(np.array([1.0, -a])) == pytest.approx(abs(a))

    def test_root_inside_disk_rejected(self):
        # A(z) = 1 - 2 z has root 0.5 inside the unit disk
        assert root_radius(np.array([1.0, -2.0])) == pytest.approx(2.0)
        with pytest.raises(InversionError, match="closed unit disk"):
            check_roots_outside_disk(np.array([1.0, -2.0]))

    def test_trivial_polynomial_gives_zero(self):
        assert root_radius(np.concatenate([[1.0], np.zeros(3)])) == 0.0
        assert root_radius(np.ones(1)) == 0.0

    def test_tiny_trailing_coefficient_is_no_root_in_disk(self):
        # 1 - 0.5 z - c z^2 with tiny c has roots near 2 and near -1/(2c)
        for c in (1e-20, 1.7e-51, 1e-300):
            assert root_radius(np.array([1.0, -0.5, -c])) == pytest.approx(0.5)

    def test_matches_roots_of_the_reversed_polynomial(self):
        rng = np.random.default_rng(21)
        for trial in range(200):
            a = rng.uniform(-1.5, 1.5, rng.integers(1, 7))
            poly = np.concatenate([[1.0], -a])
            z = np.roots(poly[::-1])  # roots of A itself
            assert root_radius(poly) == pytest.approx(np.max(1.0 / np.abs(z)), rel=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(near_real_roots, near_complex_roots)
    def test_matches_an_independent_root_finder(self, reals, pairs):
        # polyroots finds the roots z themselves, from the ascending
        # coefficients; two finders agree to 1e-9 only on roots kept apart
        r = _reciprocal_roots(reals, pairs)
        assume(np.all(np.abs(np.subtract.outer(r, r))[~np.eye(r.size, dtype=bool)] >= 1e-2))
        poly = _ma_polynomial(r)
        z = np.polynomial.polynomial.polyroots(poly)
        assert root_radius(poly) == pytest.approx(np.max(1.0 / np.abs(z), initial=0.0), rel=1e-9)


class TestBaxterAndResiduals:
    def test_baxter_ratio_bounded(self):
        a_true = -(0.5 ** np.arange(1, 81))  # the AR(infinity) coefficients -(1/2)^j
        ratios = []
        for p in (5, 10, 20, 40):
            a, _ = levinson_durbin(MA1_GAMMA, p)
            lhs = np.sum(np.abs(a - a_true[:p]))  # sum_{k<=p} |a_k(p) - a_k|
            rhs = np.sum(np.abs(a_true[p:]))  # sum_{k>p} |a_k|
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
        res = residuals(x, a)
        want = e[2:] - e[2:].mean()
        assert np.max(np.abs(res - (want - want.mean()))) < 1e-10

    def test_residuals_mean_is_zero(self):
        rng = np.random.default_rng(32)
        x = rng.standard_normal(300) + 5.0
        a, _ = levinson_durbin(sample_acvf(x, 2), 2)
        res = residuals(x, a)
        assert abs(res.mean()) < 1e-14

    @pytest.mark.parametrize("n, p", [(300, 0), (3, 3), (2, 5)])
    def test_residuals_need_an_order_between_zero_and_n(self, n, p):
        with pytest.raises(ValueError, match=f"0 < p < n, got p = {p} with n = {n}"):
            residuals(np.ones(n), np.full(p, 0.1))

    def test_innovation_variance_limit(self):
        gamma = rational_acvf([1.0, -2.0], [1.0], 1.0, range(41))
        v = gamma[0] - np.dot(-(0.5 ** np.arange(1, 41)), gamma[1:])
        # gamma(0) - sum a_k gamma(k) = 5 - (1/2)*2 = 4
        assert v == pytest.approx(4.0)


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
        want = rational_acvf(b, [1.0], sigma2)
        got = rational_acvf(num, [1.0], sigma2_eps)
        assert np.allclose(got, want, rtol=0.0, atol=1e-9 * want[0])

    @settings(max_examples=80, deadline=None)
    @given(real_roots, complex_roots)
    def test_wold_polynomial_has_no_root_in_the_closed_disk(self, reals, pairs):
        b = _ma_polynomial(_reciprocal_roots(reals, pairs))
        num = wold_factorization(b)[0]
        assert num[0] == 1.0
        assert np.all(np.abs(np.roots(num[::-1])) > 1.0 + 1e-12)

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


# A path kept from output t = burnin of a zero-state start misses the
# response terms psi_j, j > t, of the stationary path: an error whose RMS,
# against the path's, is at most ||psi[burnin:]|| / ||psi||, held below this.
TAIL_SHARE = 1e-16


def _worked_example_sieve():
    worked_example = LinearModel(b=(-2.0,), innovations=InnovationSpec("centered_exponential"))
    model = fit_sieve(simulate_linear(worked_example, 2000, seed=7))
    return model.num, model.den


class TestBurnin:
    FILTERS = {
        "ar1-0.5": lambda: ([1.0], [1.0, -0.5]),
        "ar1-0.9": lambda: ([1.0], [1.0, -0.9]),
        "ar1-0.999": lambda: ([1.0], [1.0, -0.999]),
        "ar2-complex-pair": lambda: ([1.0], np.poly(0.8 * np.exp([1j, -1j])).real),
        "arma21": lambda: ([1.0, 0.4], np.poly([0.7, -0.5])),
        "fitted-sieve": _worked_example_sieve,
    }

    @pytest.mark.parametrize("kind", sorted(FILTERS))
    def test_the_transient_past_the_burnin_is_negligible(self, kind):
        num, den = self.FILTERS[kind]()
        drop, q = burnin(num, den), len(num) - 1
        rho = root_radius(den)
        assert rho ** (drop - q) < SETTLE_TOL <= rho ** (drop - q - 1)
        # psi past 2 * drop is below rho^drop of the tail itself
        psi = impulse_response(num, den, 2 * drop + 100)
        assert np.linalg.norm(psi[drop:]) <= TAIL_SHARE * np.linalg.norm(psi)

    @pytest.mark.parametrize("q", [0, 1, 3, 8])
    def test_a_finite_filter_drops_its_q_presample_draws(self, q):
        num = np.concatenate([[1.0], np.random.default_rng(q).uniform(-2.0, 2.0, q)])
        assert burnin(num, [1.0]) == q

    def test_the_worked_example_oracle_keeps_one_presample_draw(self):
        model = LinearModel(b=(-2.0,), innovations=InnovationSpec("centered_exponential"))
        spec = model.companion(7)
        assert spec.den.size == 1 and spec.burnin == 1
        e = spec.noise.draw(301, 11)
        assert np.array_equal(build_companion(spec, 300, [11])[0], np.convolve(spec.num, e)[1:301])
