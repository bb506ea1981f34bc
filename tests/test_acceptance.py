"""Acceptance suite: one test per top-level criterion, each printing a
single PASS/FAIL line. Monte Carlo scale is the default n = B = M = R = 2000;
preset runs are shared across criteria through a session fixture.
"""
import math

import numpy as np
import pytest
from scipy.linalg import toeplitz
from scipy.stats import norm

from sieveboot.ar import invert_ar_polynomial, levinson_durbin, root_radius
from sieveboot.dgp import InnovationSpec, ma1_example
from sieveboot.experiment import preset_config, run_experiment
from sieveboot.series import Series, ks_critical_value, sample_acvf
from sieveboot.spectral import integrated_periodogram, periodogram

MA1_GAMMA = np.concatenate([[5.0, -2.0], np.zeros(40)])


def _normal_kolmogorov_gap(v1, v2):
    """sup_x |Phi(x / sqrt(v1)) - Phi(x / sqrt(v2))| for variances v1 < v2.

    The supremum sits where the two densities cross,
    x^2 = v1 v2 ln(v2 / v1) / (v2 - v1).
    """
    x = math.sqrt(v1 * v2 * math.log(v2 / v1) / (v2 - v1))
    return float(norm.cdf(x / math.sqrt(v1)) - norm.cdf(x / math.sqrt(v2)))


def _separation_bound(rep):
    """d_K above which the bootstrap and truth laws differ at level 0.001."""
    return ks_critical_value(rep.counts["B"], rep.counts["R"], alpha=0.001)


def _report_line(num, label, ok):
    print(f"[ACCEPTANCE {num}] {label}: {'PASS' if ok else 'FAIL'}")


@pytest.fixture(scope="session")
def preset_runs(tmp_path_factory):
    """Run each built-in preset once at full scale, persisting outputs."""
    root = tmp_path_factory.mktemp("presets")
    runs = {}
    for name in ("mean-ma1-exponential", "mean-arch1", "acvf0-ma1-exponential",
                 "acvf0-ma1-gaussian", "acf1-ma1-exponential", "acf1-ma1-gaussian",
                 "ratio-cos1-ma1-exponential", "spectral-density-ma1",
                 "spectral-density-ma1-boundary"):
        out = root / name
        runs[name] = (run_experiment(preset_config(name), out), out)
    return runs


class TestCriterion1WorkedExample:
    def test_worked_example_identities(self):
        n = 10 ** 6
        checks = []

        _, _, ve_exp = ma1_example(n, seed=101,
                                   innovations=InnovationSpec("centered_exponential"))
        lag = 60  # ve's transient from zero state: (1/2)^t < 1e-18 from t = 60
        v = ve_exp.values[lag:]
        var_ok = abs(v.var() / 4.0 - 1.0) <= 0.025
        kurt_exp = np.mean(v ** 4) / np.mean(v ** 2) ** 2 - 3.0
        kurt_exp_ok = abs(kurt_exp - 2.4) <= 0.2
        checks += [var_ok, kurt_exp_ok]

        x, _, ve_g = ma1_example(n, seed=102, innovations=InnovationSpec("gaussian"))
        g = ve_g.values[lag:]
        kurt_g = np.mean(g ** 4) / np.mean(g ** 2) ** 2 - 3.0
        kurt_g_ok = abs(kurt_g) <= 0.05
        recon = ve_g.values[1:] - 0.5 * ve_g.values[:-1]
        recon_ok = np.max(np.abs(x.values[1:] - recon)) <= 1e-8
        checks += [kurt_g_ok, recon_ok]

        ok = all(checks)
        _report_line(1, "worked-example identities (Var=4, kurtosis transfer, "
                        "reconstruction)", ok)
        assert var_ok, f"Var(ve) = {v.var():.4f}, want 4 within 2.5%"
        assert kurt_exp_ok, f"exponential excess kurtosis {kurt_exp:.3f}, want 2.4 +/- 0.2"
        assert kurt_g_ok, f"gaussian excess kurtosis {kurt_g:.3f}, want 0 +/- 0.05"
        assert recon_ok, "X_t != ve_t - 0.5 ve_(t-1) within 1e-8"


class TestCriterion2MeanValidity:
    def test_mean_validity(self, preset_runs):
        arch, _ = preset_runs["mean-arch1"]
        ma1, _ = preset_runs["mean-ma1-exponential"]
        r_arch = arch.variances["bootstrap"] / arch.variances["truth"]
        r_ma1 = ma1.variances["bootstrap"] / ma1.variances["truth"]
        band = lambda r: 0.85 <= r <= 1.15
        analytic = ma1.targets["mean_long_run_variance"]
        close = lambda v: abs(v / analytic - 1.0) <= 0.15
        ok = (band(r_arch) and band(r_ma1)
              and close(ma1.variances["bootstrap"]) and close(ma1.variances["truth"]))
        _report_line(2, "mean validity on ARCH(1) and MA(1)", ok)
        assert band(r_arch), f"ARCH variance ratio {r_arch:.3f} outside [0.85, 1.15]"
        assert band(r_ma1), f"MA(1) variance ratio {r_ma1:.3f} outside [0.85, 1.15]"
        assert close(ma1.variances["bootstrap"]), (
            f"bootstrap variance {ma1.variances['bootstrap']:.3f} vs analytic {analytic}")
        assert close(ma1.variances["truth"]), (
            f"truth variance {ma1.variances['truth']:.3f} vs analytic {analytic}")


class TestCriterion3AcvfFailure:
    def test_acvf_failure_dichotomy(self, preset_runs):
        rep, _ = preset_runs["acvf0-ma1-exponential"]
        b, t = rep.variances["bootstrap"], rep.variances["truth"]
        b_ok = abs(b / 126.0 - 1.0) <= 0.15
        t_ok = abs(t / 216.0 - 1.0) <= 0.15
        oracle_ok = rep.dk["bootstrap_oracle"] <= 0.1
        # The limit laws N(0, 126) and N(0, 216) are only D* = 0.065 apart in
        # Kolmogorov distance, so separation is asked as "detectably different":
        # d_K(bootstrap, truth) above the two-sample KS critical value at
        # alpha = 0.001, which must itself lie below D* to be attainable.
        bound = _separation_bound(rep)
        d_star = _normal_kolmogorov_gap(rep.targets["acvf_variance_companion"],
                                        rep.targets["acvf_variance_linear"])
        d_bt, d_bo = rep.dk["bootstrap_truth"], rep.dk["bootstrap_oracle"]
        attainable = bound < d_star
        sep_ok = d_bt > bound and d_bt > d_bo
        # the Gaussian control, where the bootstrap is valid, stays under it
        control, _ = preset_runs["acvf0-ma1-gaussian"]
        d_control = control.dk["bootstrap_truth"]
        control_ok = d_control <= _separation_bound(control)
        ok = b_ok and t_ok and oracle_ok and attainable and sep_ok and control_ok
        _report_line(3, "acvf(0) failure dichotomy (126 vs 216, d_K split)", ok)
        assert b_ok, f"bootstrap variance {b:.1f} not within 15% of 126"
        assert t_ok, f"truth variance {t:.1f} not within 15% of 216"
        assert oracle_ok, f"d_K(bootstrap, oracle) = {rep.dk['bootstrap_oracle']:.3f} > 0.1"
        assert attainable, (
            f"separation bound {bound:.4f} is not below the limit-law distance "
            f"D* = {d_star:.4f}")
        assert sep_ok, (
            f"d_K(bootstrap, truth) = {d_bt:.4f} does not exceed both the "
            f"separation bound {bound:.4f} and d_K(bootstrap, oracle) = {d_bo:.4f} "
            f"(limit-law distance D* = {d_star:.4f})")
        assert control_ok, (
            f"gaussian control d_K(bootstrap, truth) = {d_control:.4f} exceeds the "
            f"separation bound {_separation_bound(control):.4f}")


class TestCriterion4GaussianRepair:
    def test_gaussian_repair(self, preset_runs):
        rep, _ = preset_runs["acvf0-ma1-gaussian"]
        vs = [rep.variances[m] for m in ("bootstrap", "oracle", "truth")]
        var_ok = all(abs(v / 66.0 - 1.0) <= 0.15 for v in vs)
        dk_ok = rep.dk["bootstrap_truth"] <= 0.1
        ok = var_ok and dk_ok
        _report_line(4, "gaussian repair (all variances 66, d_K <= 0.1)", ok)
        assert var_ok, f"variances {[round(v, 1) for v in vs]} not all within 15% of 66"
        assert dk_ok, f"d_K(bootstrap, truth) = {rep.dk['bootstrap_truth']:.3f} > 0.1"


class TestCriterion5AcfValidity:
    def test_acf_validity_both_families(self, preset_runs):
        oks = {}
        for name in ("acf1-ma1-exponential", "acf1-ma1-gaussian"):
            rep, _ = preset_runs[name]
            target = rep.targets["bartlett_variance"]
            oks[name] = all(abs(rep.variances[m] / target - 1.0) <= 0.15
                            for m in ("bootstrap", "oracle", "truth"))
        ok = all(oks.values())
        _report_line(5, "acf(1) validity, both innovation families (Bartlett 0.6224)", ok)
        for name, good in oks.items():
            assert good, f"{name}: some variance not within 15% of Bartlett value"


class TestCriterion6RatioStatistic:
    def test_ratio_statistic(self, preset_runs):
        rep, _ = preset_runs["ratio-cos1-ma1-exponential"]
        target = rep.targets["ratio_statistic_variance"]
        dk_ok = rep.dk["bootstrap_truth"] <= 0.1
        b_ok = abs(rep.variances["bootstrap"] / target - 1.0) <= 0.15
        t_ok = abs(rep.variances["truth"] / target - 1.0) <= 0.15
        ok = dk_ok and b_ok and t_ok
        _report_line(6, "ratio statistic validity (kurtosis-free variance)", ok)
        assert dk_ok, f"d_K(bootstrap, truth) = {rep.dk['bootstrap_truth']:.3f} > 0.1"
        assert b_ok, f"bootstrap variance {rep.variances['bootstrap']:.3f} vs target {target:.3f}"
        assert t_ok, f"truth variance {rep.variances['truth']:.3f} vs target {target:.3f}"


class TestCriterion7SpectralDensity:
    def test_spectral_density_estimator(self, preset_runs):
        interior, _ = preset_runs["spectral-density-ma1"]
        boundary, _ = preset_runs["spectral-density-ma1-boundary"]
        ratio = interior.variances["bootstrap"] / interior.variances["truth"]
        ratio_ok = 0.8 <= ratio <= 1.25
        f_i = interior.targets["spectral_density_value"]
        f_b = boundary.targets["spectral_density_value"]
        doubling = ((boundary.variances["truth"] / f_b ** 2)
                    / (interior.variances["truth"] / f_i ** 2))
        doubling_ok = 1.6 <= doubling <= 2.4
        ok = ratio_ok and doubling_ok
        _report_line(7, "spectral density estimator (variance match, boundary "
                        "doubling)", ok)
        assert ratio_ok, f"bootstrap/truth variance ratio {ratio:.3f} outside [0.8, 1.25]"
        assert doubling_ok, f"normalized boundary/interior factor {doubling:.3f} outside [1.6, 2.4]"


class TestCriterion8ArAlgebra:
    def test_ar_algebra_property_suite(self):
        rng = np.random.default_rng(801)
        checks = {}

        # Levinson-Durbin vs dense solve
        worst = 0.0
        for _ in range(50):
            g = sample_acvf(Series(rng.standard_normal(300)), 6)
            a, _ = levinson_durbin(g, 6)
            dense = np.linalg.solve(toeplitz(g[:6]), g[1:7])
            worst = max(worst, float(np.max(np.abs(a - dense))))
        checks["levinson-vs-dense"] = worst <= 1e-10

        # Yule-Walker root exclusion on 10^3 random empirical ACVFs
        checks["root-exclusion"] = all(
            root_radius(levinson_durbin(sample_acvf(Series(rng.standard_normal(150)), 4),
                                        4)[0]) * (1.0 + 1e-12) < 1.0
            for _ in range(1000))

        # inversion convolution identity
        a = np.array([0.5, -0.3, 0.1])
        inv = invert_ar_polynomial(a, 80)
        conv = np.convolve(np.concatenate([[1.0], -a]), inv)[:81]
        want = np.zeros(81)
        want[0] = 1.0
        checks["inversion-identity"] = float(np.max(np.abs(conv - want))) <= 1e-10

        # sigma^2(p) -> 4 for the theoretical MA(1) fit
        _, sigma2s = levinson_durbin(MA1_GAMMA, 30)
        checks["sigma2-limit"] = abs(sigma2s[30] - 4.0) < 1e-6

        # Baxter ratio bounded over p in {5, 10, 20, 40}:
        # sum_{k<=p} |a_k(p) - a_k| against sum_{k>p} |a_k|
        a_true = -(0.5 ** np.arange(1, 81))  # the AR(infinity) coefficients -(1/2)^j
        gamma80 = np.concatenate([[5.0, -2.0], np.zeros(79)])
        ratios = []
        for p in (5, 10, 20, 40):
            lhs = np.sum(np.abs(levinson_durbin(gamma80, p)[0] - a_true[:p]))
            ratios.append(lhs / np.sum(np.abs(a_true[p:])))
        checks["baxter-bounded"] = max(ratios) < 10.0

        # periodogram Parseval: M(I_n, 2) is the centered second moment
        s = Series(rng.standard_normal(777))
        gamma0 = sample_acvf(s, 0)[0]
        intper = integrated_periodogram(periodogram(s.values), 0)
        checks["parseval"] = abs(intper - gamma0) <= 1e-12 * gamma0

        # M(I_n, 2cos(.h)) vs noncentered c(h) = n^-1 sum_t X_t X_{t+h}
        s2 = Series(rng.standard_normal(2048))
        x, n = s2.values, s2.n
        row = periodogram(x)
        gap = max(abs(integrated_periodogram(row, h) - np.dot(x[: n - h], x[h:]) / n)
                  for h in range(4))
        checks["quadrature-vs-acvf"] = gap <= 5.0 / n

        ok = all(checks.values())
        _report_line(8, "AR-algebra and frequency-domain exact property suite", ok)
        assert ok, {k: v for k, v in checks.items() if not v}


class TestPresetVerdicts:
    def test_only_the_counterexample_fails_as_predicted(self, preset_runs):
        verdicts = {name: rep.bootstrap_verdict for name, (rep, _) in preset_runs.items()}
        assert len(verdicts) == 9
        assert verdicts == {name: "FAIL-AS-PREDICTED" if name == "acvf0-ma1-exponential"
                            else "PASS" for name in verdicts}


class TestCriterion9Determinism:
    def test_preset_reruns_are_bit_identical(self, preset_runs, tmp_path):
        mismatches = []
        for name, (rep, out) in preset_runs.items():
            second = tmp_path / name
            run_experiment(preset_config(name), second)
            if (second / "summary.csv").read_bytes() != (out / "summary.csv").read_bytes():
                mismatches.append(name)
        ok = not mismatches
        _report_line(9, "bit-identical summary.csv on re-run for every preset", ok)
        assert ok, f"non-deterministic presets: {mismatches}"
