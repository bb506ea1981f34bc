"""Output checks made apart from sieveboot.

Every experiment the benchmark runs is checked against its written files
(``report.json``, ``summary.csv``, ``laws/*.csv``):

* the closed forms of the worked example X_t = e_t - 2 e_{t-1} (unit
  innovations, gamma = (5, -2)) and of ARCH(1), derived here by hand, against
  the program's targets and against the oracle and truth laws;
* Kolmogorov distances recomputed with ``scipy.stats.ks_2samp``;
* law sizes B, M and R with finite values, and summary.csv against report.json;
* the preset's own verdict, at the presets' own seeds only: the bootstrap law
  rests on one data path, so its checks hold at those seeds and not at every
  seed.

The oracle and truth laws are M and R independent draws, so their variance
checks get a tolerance from M and R: Z standard errors of a sample variance,
sqrt((2 + excess kurtosis) / N), relative.
"""
from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
from scipy.integrate import quad
from scipy.stats import ks_2samp, kurtosis

Z = 5.0
METHODS = ("bootstrap", "oracle", "truth")
DK_PAIRS = {"bootstrap_truth": ("bootstrap", "truth"),
            "bootstrap_oracle": ("bootstrap", "oracle"),
            "oracle_truth": ("oracle", "truth")}

# The worked example X_t = e_t - 2 e_{t-1} with unit innovation variance.
GAMMA = (5.0, -2.0)
RHO1 = GAMMA[1] / GAMMA[0]
# Excess kurtosis of the innovation families: Gaussian 0, centred exponential 6.
KAPPA_E = {"gaussian": 0.0, "exponential": 6.0}
ARCH_OMEGA, ARCH_ALPHA = 1.0, 0.3


def wold_kurtosis(kappa_e: float) -> float:
    """Excess kurtosis of the Wold innovations eps = (1 - 2z)/(1 - z/2) e.

    The filter is all-pass with impulse response psi_0 = 1,
    psi_j = -1.5 (1/2)^(j-1); a linear filter of i.i.d. noise carries the
    excess kurtosis kappa_e sum psi^4 / (sum psi^2)^2.
    """
    psi = np.concatenate([[1.0], -1.5 * 0.5 ** np.arange(80)])
    return kappa_e * np.sum(psi ** 4) / np.sum(psi ** 2) ** 2


def acvf0_variance(kappa: float) -> float:
    """Var of sqrt(n)(gamma_hat(0) - gamma(0)): kappa gamma0^2 + sum_k 2 gamma_k^2."""
    return kappa * GAMMA[0] ** 2 + 2.0 * (GAMMA[0] ** 2 + 2.0 * GAMMA[1] ** 2)


def bartlett_lag1() -> float:
    """Bartlett's variance of sqrt(n)(rho_hat(1) - rho(1)) for an MA(1)."""
    return 1.0 - 3.0 * RHO1 ** 2 + 4.0 * RHO1 ** 4


def ma1_spectral_density(lam: float) -> float:
    """f(lambda) = |1 - 2 e^{-i lambda}|^2 / (2 pi) = (5 - 4 cos lambda) / (2 pi)."""
    return (5.0 - 4.0 * math.cos(lam)) / (2.0 * math.pi)


def epanechnikov_pi(u: float) -> float:
    """The kernel (3 / 4 pi)(1 - (u / pi)^2) on [-pi, pi]."""
    return 3.0 / (4.0 * math.pi) * (1.0 - (u / math.pi) ** 2) if abs(u) <= math.pi else 0.0


def kernel_l2() -> float:
    return quad(lambda u: epanechnikov_pi(u) ** 2, -math.pi, math.pi)[0]


def kernel_limit_variance(lam: float) -> float:
    """Limit of Var(sqrt(nh) f_hat(lambda)) as h -> 0: 2 pi f^2 int K^2, doubled at 0 and pi."""
    boundary = 2.0 if lam < 1e-9 or abs(lam - math.pi) < 1e-9 else 1.0
    return boundary * 2.0 * math.pi * ma1_spectral_density(lam) ** 2 * kernel_l2()


def kernel_variance(lam: float, h: float) -> float:
    """Var(sqrt(nh) f_hat(lambda)) at a fixed bandwidth h, to first order in 1/n.

    The periodogram ordinates at mu_j in (0, pi) are asymptotically
    independent with variance f(mu_j)^2, and the estimate weighs each of them
    at mu_j and at -mu_j, so the variance is
    2 pi h int_0^pi (W(lambda - mu) + W(lambda + mu))^2 f(mu)^2 dmu with
    W(u) = K(u mod 2 pi / h) / h. As h -> 0 this tends to
    ``kernel_limit_variance`` (both terms coincide at lambda = pi, which is
    the doubling).
    """
    def w(u):
        return epanechnikov_pi(((u + math.pi) % (2.0 * math.pi) - math.pi) / h) / h

    edges = [lam - h * math.pi, lam + h * math.pi, 2.0 * math.pi - lam - h * math.pi]
    value = quad(lambda mu: (w(lam - mu) + w(lam + mu)) ** 2 * ma1_spectral_density(mu) ** 2,
                 0.0, math.pi, limit=200, points=[p for p in edges if 0.0 < p < math.pi])[0]
    return 2.0 * math.pi * h * value


def expectations(preset: str) -> dict:
    """Closed forms for a preset: {"laws": {method: variance}, "targets": {id: value}}."""
    family = "exponential" if preset.endswith("exponential") else "gaussian"
    if preset == "mean-arch1":
        lrv = ARCH_OMEGA / (1.0 - ARCH_ALPHA)  # uncorrelated, so gamma(0) alone
        return {"laws": {"oracle": lrv, "truth": lrv},
                "targets": {"mean_long_run_variance": lrv}}
    if preset.startswith("mean-"):
        lrv = GAMMA[0] + 2.0 * GAMMA[1]
        return {"laws": {"oracle": lrv, "truth": lrv},
                "targets": {"mean_long_run_variance": lrv}}
    if preset.startswith("acvf0-"):
        linear = acvf0_variance(KAPPA_E[family])
        companion = acvf0_variance(wold_kurtosis(KAPPA_E[family]))
        return {"laws": {"oracle": companion, "truth": linear},
                "targets": {"acvf_variance_linear": linear,
                            "acvf_variance_companion": companion}}
    if preset.startswith("acf1-"):
        v = bartlett_lag1()
        return {"laws": {"oracle": v, "truth": v}, "targets": {"bartlett_variance": v}}
    if preset.startswith("ratio-cos1-"):
        # R(I_n, 2 cos) = 2 rho_hat(1) up to O(1/n): four times Bartlett.
        v = 4.0 * bartlett_lag1()
        return {"laws": {"oracle": v, "truth": v}, "targets": {"ratio_statistic_variance": v}}
    if preset.startswith("spectral-density-"):
        lam = math.pi if preset.endswith("boundary") else math.pi / 2
        v = kernel_variance(lam, 0.4)
        return {"laws": {"oracle": v, "truth": v},
                "targets": {"spectral_density_value": ma1_spectral_density(lam)}}
    raise KeyError(f"no closed forms for preset {preset!r}")


def variance_tolerance(law: np.ndarray) -> float:
    """Z relative standard errors of the sample variance of N i.i.d. draws."""
    excess = max(float(kurtosis(law)), 0.0)
    return Z * math.sqrt((2.0 + excess) / law.size)


def read_outputs(out_dir) -> tuple:
    """(report.json as a dict, summary.csv rows, {method: law}) of one experiment."""
    out = Path(out_dir)
    report = json.loads((out / "report.json").read_text())
    with open(out / "summary.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    laws = {m: np.loadtxt(out / "laws" / f"{m}.csv", ndmin=1) for m in METHODS}
    return report, rows, laws


def check_outputs(preset: str, counts: dict, out_dir, expected_verdict: str | None) -> list:
    """Failed checks of one experiment's written outputs, as messages.

    ``counts`` holds the configured B, M and R. ``expected_verdict`` is the
    preset's verdict, or None where the experiment does not run at the
    preset's own seed and scale.
    """
    report, rows, laws = read_outputs(out_dir)
    failures = []
    sizes = {"bootstrap": counts["B"], "oracle": counts["M"], "truth": counts["R"]}
    for m in METHODS:
        law = laws[m]
        if law.size != sizes[m] or not np.all(np.isfinite(law)):
            failures.append(f"{m} law has {law.size} values (want {sizes[m]}) or non-finite ones")
            return failures
        if float(np.var(law)) != report["variances"][m]:
            failures.append(f"{m} variance in report.json differs from the written law")
    for pair, (a, b) in DK_PAIRS.items():
        recomputed = ks_2samp(laws[a], laws[b]).statistic
        if abs(recomputed - report["dk"][pair]) > 1e-12:
            failures.append(f"d_K {pair}: report {report['dk'][pair]!r}, ks_2samp {recomputed!r}")
    by_method = {row["method"]: row for row in rows}
    if sorted(by_method) != sorted(METHODS):
        failures.append(f"summary.csv methods {sorted(by_method)}")
    else:
        for m in METHODS:
            if float(by_method[m]["variance"]) != report["variances"][m]:
                failures.append(f"summary.csv {m} variance differs from report.json")
    closed = expectations(preset)
    for target_id, value in closed["targets"].items():
        got = report["targets"].get(target_id)
        if got is None or abs(got / value - 1.0) > 1e-6:
            failures.append(f"target {target_id}: program {got!r}, closed form {value!r}")
    for m, value in closed["laws"].items():
        var = float(np.var(laws[m]))
        tol = variance_tolerance(laws[m])
        if abs(var / value - 1.0) > tol:
            failures.append(f"{m} variance {var:.6g} vs closed form {value:.6g} "
                            f"(relative tolerance {tol:.3f})")
    if expected_verdict is not None:
        if report["bootstrap_verdict"] != expected_verdict or not report["all_as_expected"]:
            failures.append(f"verdict {report['bootstrap_verdict']} "
                            f"(all_as_expected={report['all_as_expected']}), "
                            f"preset expects {expected_verdict}")
    return failures
