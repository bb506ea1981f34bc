import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import lfilter

from sieveboot.companion import (
    CompanionSpec,
    build_companion,
    companion_distribution,
    parametric_companion_spec,
    rational_acvf,
    resampling_companion_spec,
)
from sieveboot.ar import InversionError
from sieveboot.dgp import (
    COMPANION_RECORD_LENGTH,
    ARModel,
    InnovationSpec,
    LinearModel,
    default_burnin,
    draw_innovations,
    ma1_model,
)
from sieveboot.experiment import companion_spec_for
from sieveboot.series import sample_acvf
from sieveboot.statistics import AcvfStatistic, MeanStatistic


class TestSpec:
    def test_unstable_coefficients_rejected(self):
        with pytest.raises(InversionError):
            parametric_companion_spec([1.0], [1.0, -1.5], InnovationSpec())
        with pytest.raises(InversionError):
            parametric_companion_spec([1.0, -2.0], [1.0], InnovationSpec())

    def test_unknown_source_rejected(self):
        with pytest.raises(ValueError):
            CompanionSpec(num=[1.0], den=[1.0], innovation_source="mystery", payload=None)

    def test_innovation_variance_parametric(self):
        spec = parametric_companion_spec([1.0], [1.0], InnovationSpec(scale=2.0))
        assert spec.innovation_variance == 4.0

    def test_innovation_variance_record(self):
        spec = resampling_companion_spec([1.0], [1.0], np.array([1.0, -1.0, 1.0, -1.0]))
        assert spec.innovation_variance == pytest.approx(1.0)


class TestModelAcvf:
    def test_ar1_closed_form(self):
        g = rational_acvf([1.0], [1.0, -0.5], 1.0, 5)
        want = 0.5 ** np.arange(6) / 0.75
        assert np.allclose(g.gamma, want, rtol=1e-10)

    def test_white_noise(self):
        g = rational_acvf([1.0], [1.0], 3.0, 2)
        assert np.allclose(g.gamma, [3.0, 0.0, 0.0])

    def test_ma1_companion_acvf_matches_original_process(self):
        # the companion process shares all second-order properties with the
        # noninvertible MA(1): gamma(0)=5, gamma(1)=-2, gamma(h>=2)=0
        den = np.concatenate([[1.0], 0.5 ** np.arange(1, 61)])
        g = rational_acvf([1.0], den, 4.0, 4)
        assert np.allclose(g.gamma, [5.0, -2.0, 0.0, 0.0, 0.0], atol=1e-10)


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
        got = rational_acvf(spec.num, spec.den, spec.innovation_variance, 6).gamma
        c = np.concatenate([[1.0], b])
        want = scale ** 2 * np.correlate(c, c, "full")[b.size:]
        assert np.allclose(got[: want.size], want, rtol=1e-12, atol=1e-12)
        assert np.all(got[want.size:] == 0.0)

    @settings(max_examples=60, deadline=None)
    @given(reciprocal_roots, scales)
    def test_stable_ar_companion_acvf(self, roots, scale):
        a = -np.poly(roots)[1:]
        spec = companion_spec_for(ARModel(a=tuple(a), innovations=InnovationSpec(scale=scale)), 0)
        got = rational_acvf(spec.num, spec.den, spec.innovation_variance, 8).gamma
        want = _ar_acvf_by_yule_walker(a, scale ** 2, 8)
        assert np.allclose(got, want, rtol=1e-9, atol=1e-9 * want[0])

    def test_ma1_example_companion_acvf(self):
        spec = ma1_model().companion(0)
        got = rational_acvf(spec.num, spec.den, 4.0, 5).gamma
        assert np.array_equal(got, [5.0, -2.0, 0.0, 0.0, 0.0, 0.0])

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(-0.9, 0.9), max_size=3), st.integers(1, 300),
           st.integers(0, 2 ** 32 - 1), families)
    def test_finite_filter_path_is_a_hand_fir(self, roots, n, seed, family):
        num = np.atleast_1d(np.poly(roots))
        q = num.size - 1
        innovations = InnovationSpec(family)
        spec = parametric_companion_spec(num, [1.0], innovations)
        x = build_companion(spec, n, seed).values
        e = draw_innovations(innovations, n + q, seed)
        want = np.convolve(e, num)[q: n + q]
        assert x.size == n
        assert np.allclose(x, want, rtol=0.0, atol=1e-12 * max(1.0, np.abs(e).max()))
        assert np.array_equal(build_companion(spec, n, seed).values, x)

    def test_recursive_filter_path_keeps_its_burnin(self):
        den = np.array([1.0, -0.5, 0.2])
        spec = parametric_companion_spec([1.0], den, InnovationSpec())
        burnin = default_burnin(2)
        want = lfilter([1.0], den, draw_innovations(InnovationSpec(), 300 + burnin, 11))[burnin:]
        assert np.array_equal(build_companion(spec, 300, 11).values, want)


@pytest.fixture(scope="module")
def spec():
    return ma1_model(InnovationSpec("centered_exponential")).companion(3)


class TestMa1Companion:
    def test_coefficients(self, spec):
        # the companion of X = e - 2 e_{-1} is exactly the MA(1) (1 - z/2) eps
        assert np.array_equal(spec.num, [1.0, -0.5])
        assert np.array_equal(spec.den, [1.0])

    def test_record_moments(self, spec):
        record = np.asarray(spec.payload)
        assert record.size == COMPANION_RECORD_LENGTH
        assert spec.innovation_variance == pytest.approx(4.0, rel=0.03)
        # exact kurtosis transfer: 0.4 * 9 - 1.2 = 2.4 excess
        excess = np.mean(record ** 4) / np.mean(record ** 2) ** 2 - 3.0
        assert excess == pytest.approx(2.4, abs=0.3)

    def test_path_second_order_structure(self, spec):
        x = build_companion(spec, 100_000, seed=4)
        g = sample_acvf(x, 2, centered=True)
        assert g.gamma[0] == pytest.approx(5.0, rel=0.05)
        assert g.gamma[1] == pytest.approx(-2.0, rel=0.1)
        assert abs(g.gamma[2]) < 0.15

    def test_build_deterministic(self, spec):
        x1 = build_companion(spec, 500, seed=5)
        x2 = build_companion(spec, 500, seed=5)
        assert np.array_equal(x1.values, x2.values)


class TestDistribution:
    def test_mean_statistic_centered_near_zero(self):
        spec = parametric_companion_spec([1.0], [1.0, -0.5], InnovationSpec())
        res = companion_distribution(spec, MeanStatistic(), n=400, M=400, seed=6)
        assert res.theta_tilde == 0.0
        assert abs(res.law.mean()) < 0.3

    def test_acvf_center_is_model_value(self):
        spec = parametric_companion_spec([1.0], [1.0, -0.5], InnovationSpec())
        res = companion_distribution(spec, AcvfStatistic(0), n=400, M=300, seed=7)
        assert res.theta_tilde == pytest.approx(1.0 / 0.75)

    def test_minimum_replications(self):
        spec = parametric_companion_spec([1.0], [1.0], InnovationSpec())
        with pytest.raises(ValueError):
            companion_distribution(spec, MeanStatistic(), n=400, M=50, seed=8)
