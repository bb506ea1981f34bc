"""Monte Carlo experiment orchestration.

One experiment builds three empirical laws for the same scaled statistic --
the AR-sieve bootstrap law on one fixed data realization, the companion-oracle
law over fresh companion paths, and the truth law over fresh DGP paths --
plus the closed-form asymptotic targets, then reports variances, pairwise
Kolmogorov distances and pass/fail flags.

All three laws come from ``dgp.replicate`` over a process -- the fitted
sieve, the companion spec and the DGP model -- so every replication consumes
a seed derived from (base seed, method key, replication index), and results
are independent of execution order or batching and bit-identical across
re-runs.
"""
from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import dgp
from .companion import CompanionSpec, companion_distribution
from .series import Series, kolmogorov_distance, ks_critical_value
from .sieve import OrderRule, bootstrap_distribution
from .statistics import bootstrap_verdict, statistic_from_config

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "load_json",
    "Report",
    "run_experiment",
    "list_presets",
    "preset_config",
]

_METHODS = ("bootstrap", "oracle", "truth")
_DK_PAIRS = ("bootstrap_truth", "bootstrap_oracle", "oracle_truth")
# Fields each check kind requires besides "id" and "kind".
_CHECK_FIELDS = {
    "var_close": ("method", "target_id", "tol"),
    "var_ratio": ("num", "den", "lo", "hi"),
    "dk_le": ("pair", "bound"),
    "dk_gt": ("pair", "bound"),
}
# The numeric fields among them.
_THRESHOLDS = ("tol", "lo", "hi", "bound")
# Per check kind, the thresholds no value can pass and the rule they break: a
# relative error and a Kolmogorov distance lie in [0, inf) and [0, 1].
_UNPASSABLE = {
    "var_close": (lambda c: c["tol"] < 0, "tol must be >= 0"),
    "var_ratio": (lambda c: c["lo"] > c["hi"], "lo must be <= hi"),
    "dk_le": (lambda c: c["bound"] < 0, "bound must be >= 0"),
    "dk_gt": (lambda c: c["bound"] >= 1, "bound must be < 1"),
}
# JSON kind of each annotated config field type, and how errors name it.
_FIELD_KINDS = {"str": (str, "a string"), "dict": (dict, "an object"), "int": (int, "an integer"),
                "tuple": ((list, tuple), "a list")}
_FLOORS = {"n": 100, "B": 200, "M": 200, "R": 200, "seed": 0}


class ConfigError(ValueError):
    """Invalid experiment configuration, with field diagnostics."""


def load_json(doc):
    """A JSON document given as text starting with '{' or '[', or the path of
    a file holding one; anything else (a mapping) is returned as it is."""
    if isinstance(doc, str) and doc.lstrip().startswith(("{", "[")):
        return json.loads(doc)
    if isinstance(doc, (str, Path)):
        return json.loads(Path(doc).read_text())
    return doc


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    dgp: dict
    statistic: dict
    n: int = 2000
    B: int = 2000
    M: int = 2000
    R: int = 2000
    order_rule: dict = field(default_factory=lambda: {"mode": "aic_capped"})
    seed: int = 20110
    checks: tuple = ()

    def __post_init__(self):
        """Reject malformed values before anything is simulated; run_experiment
        validates the checks themselves against the targets."""
        for f in fields(self):
            kind, noun = _FIELD_KINDS[f.type]
            value = getattr(self, f.name)
            if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
                raise ConfigError(f"{f.name} must be {noun}, got {value!r}")
        try:
            dgp.model_from_json(self.dgp)
        except ValueError as exc:
            raise ConfigError(f"dgp: {exc}") from exc
        try:
            statistic = statistic_from_config(self.statistic)
        except ValueError as exc:
            raise ConfigError(f"statistic: {exc}") from exc
        for label, floor in _FLOORS.items():
            if getattr(self, label) < floor:
                raise ConfigError(f"{label} must be >= {floor}, got {getattr(self, label)}")
        try:
            statistic.check_n(self.n)
        except ValueError as exc:
            raise ConfigError(f"statistic: {exc}") from exc
        extra = set(self.order_rule) - {"mode", "fixed_p"}
        if extra:
            raise ConfigError(f"order_rule: unknown keys {sorted(extra)}; known: mode, fixed_p")
        try:
            OrderRule(**self.order_rule)
        except ValueError as exc:
            raise ConfigError(f"order_rule: {exc}") from exc
        for i, check in enumerate(self.checks):
            if not isinstance(check, dict):
                raise ConfigError(f"check #{i} must be an object, got {check!r}")
            if not isinstance(check.get("id", ""), str):
                raise ConfigError(f"check #{i}: id must be a string, got {check['id']!r}")
        object.__setattr__(self, "checks", tuple(dict(c) for c in self.checks))

    @staticmethod
    def from_json(doc, **overrides) -> "ExperimentConfig":
        doc = load_json(doc)
        if not isinstance(doc, dict):
            raise ConfigError(f"config must be an object, got {doc!r}")
        doc = {**doc, **overrides}
        extra = set(doc) - {f.name for f in fields(ExperimentConfig)}
        if extra:
            raise ConfigError(f"unknown config keys: {sorted(extra)}")
        missing = {"name", "dgp", "statistic"} - set(doc)
        if missing:
            raise ConfigError(f"missing config keys: {sorted(missing)}")
        return ExperimentConfig(**doc)


@dataclass
class Report:
    experiment: str
    statistic: str
    n: int
    counts: dict
    seed: int
    variances: dict
    dk: dict
    targets: dict
    checks: list
    bootstrap_verdict: str
    laws: dict
    runtime: dict

    @property
    def all_as_expected(self) -> bool:
        """Every check passed; a predicted bootstrap failure is stated by the
        verdict, not by a check that fails."""
        return all(c["passed"] for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "statistic": self.statistic,
            "n": self.n,
            "counts": self.counts,
            "seed": self.seed,
            "variances": self.variances,
            "dk": self.dk,
            "targets": self.targets,
            "checks": self.checks,
            "bootstrap_verdict": self.bootstrap_verdict,
            "all_as_expected": self.all_as_expected,
            "runtime": self.runtime,
        }

    def summary_rows(self) -> list:
        """One row per method for summary.csv (no runtime metadata)."""
        rows = []
        method_target = {}
        method_pass = {}
        for c in self.checks:
            m = c.get("method")
            if m and c["kind"] == "var_close" and m not in method_target:
                method_target[m] = c["target_id"]
            if m:
                method_pass[m] = method_pass.get(m, True) and c["passed"]
        for m in _METHODS:
            tid = method_target.get(m, "")
            rows.append({
                "experiment": self.experiment,
                "method": m,
                "statistic": self.statistic,
                "n": self.n,
                "variance": repr(self.variances[m]),
                "dk_vs_truth": repr(self.dk[f"{m}_truth"]) if m != "truth" else "0.0",
                "dk_vs_oracle": repr(self.dk[f"{'bootstrap_oracle' if m == 'bootstrap' else 'oracle_truth'}"]) if m != "oracle" else "0.0",
                "target": repr(self.targets[tid]) if tid else "",
                "target_id": tid,
                "pass": str(method_pass.get(m, True)),
            })
        return rows


def companion_spec_for(model, seed) -> CompanionSpec:
    """The model's companion, its record drawn from the companion-record key."""
    return model.companion(dgp.derive_seed(seed, dgp.KEY_COMPANION_RECORD))


def compute_targets(model, statistic) -> dict:
    """Analytic targets, recomputed from the asymptotics module at run time.

    Raises ValueError naming each target that is not finite, or the
    statistic, as when the model's second moments overflow float64; an MA
    root on the unit circle; or the targets whose ACVF has not decayed."""
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            targets = statistic.targets(*model.filter, *model.kurtoses)
    except OverflowError:
        raise ValueError(f"targets of statistic {statistic.name!r} overflow float64 "
                         "under this model") from None
    bad = [tid for tid, value in targets.items() if not math.isfinite(value)]
    if bad:
        raise ValueError(f"targets not finite under this model (its second moments overflow "
                         f"float64): {', '.join(bad)}")
    return targets


def _validate_checks(checks, targets: dict) -> None:
    """Reject, naming the check, any check that could not be evaluated: an
    unknown kind, a missing field or one its kind does not read, an unknown
    method or pair, a target_id that is not a string or names a target the
    model and statistic do not produce, a tol, lo, hi or bound that is
    not a number or is NaN, or thresholds that no value can pass: a
    negative tol or dk_le bound, a dk_gt bound of 1 or more (a Kolmogorov
    distance lies in [0, 1]) or a var_ratio lo above its hi."""
    for i, check in enumerate(checks):
        cid = check.get("id")
        if cid is None:
            raise ConfigError(f"check #{i} has no id")
        kind = check.get("kind")
        if not isinstance(kind, str) or kind not in _CHECK_FIELDS:
            raise ConfigError(f"check {cid!r}: unknown kind {kind!r}; "
                              f"known: {', '.join(_CHECK_FIELDS)}")
        missing = [f for f in _CHECK_FIELDS[kind] if f not in check]
        if missing:
            raise ConfigError(f"check {cid!r}: missing fields {missing}")
        extra = set(check) - {"id", "kind", *_CHECK_FIELDS[kind]}
        if extra:
            raise ConfigError(f"check {cid!r}: unknown fields {sorted(extra, key=str)} for kind "
                              f"{kind!r}; known: id, kind, {', '.join(_CHECK_FIELDS[kind])}")
        for f in ("method", "num", "den"):
            if f in _CHECK_FIELDS[kind] and check[f] not in _METHODS:
                raise ConfigError(f"check {cid!r}: unknown {f} {check[f]!r}; "
                                  f"known: {', '.join(_METHODS)}")
        if "pair" in _CHECK_FIELDS[kind] and check["pair"] not in _DK_PAIRS:
            raise ConfigError(f"check {cid!r}: unknown pair {check['pair']!r}; "
                              f"known: {', '.join(_DK_PAIRS)}")
        for f in _THRESHOLDS:
            if f in _CHECK_FIELDS[kind] and (isinstance(check[f], bool)
                                            or not isinstance(check[f], (int, float))
                                            or math.isnan(check[f])):
                raise ConfigError(f"check {cid!r}: {f} must be a number, not NaN, "
                                  f"got {check[f]!r}")
        unpassable, rule = _UNPASSABLE[kind]
        if unpassable(check):
            got = ", ".join(f"{f} = {check[f]!r}" for f in _CHECK_FIELDS[kind] if f in _THRESHOLDS)
            raise ConfigError(f"check {cid!r}: no value can pass it: {rule}, got {got}")
        if kind == "var_close" and not isinstance(check["target_id"], str):
            raise ConfigError(f"check {cid!r}: target_id must be a string, "
                              f"got {check['target_id']!r}")
        if kind == "var_close" and check["target_id"] not in targets:
            raise ConfigError(f"check {cid!r}: target {check['target_id']!r} is not produced "
                              f"for this model and statistic; available: "
                              f"{', '.join(targets) or 'none'}")


def _evaluate_check(check: dict, variances: dict, dk: dict, targets: dict) -> dict:
    out = dict(check)
    kind = check["kind"]
    if kind == "var_close":
        target = targets[check["target_id"]]
        value = variances[check["method"]]
        rel = abs(value / target - 1.0)
        out.update(value=value, target=target, rel_error=rel,
                   passed=bool(rel <= check["tol"]))
    elif kind == "var_ratio":
        ratio = variances[check["num"]] / variances[check["den"]]
        out.update(value=ratio, passed=bool(check["lo"] <= ratio <= check["hi"]))
    elif kind == "dk_le":
        value = dk[check["pair"]]
        out.update(value=value, passed=bool(value <= check["bound"]))
    else:  # dk_gt
        value = dk[check["pair"]]
        out.update(value=value, passed=bool(value > check["bound"]))
    return out


def run_experiment(config: ExperimentConfig, out_dir: str | Path | None = None) -> Report:
    """Run one full three-way comparison and (optionally) persist the report."""
    t0 = time.perf_counter()
    stages = {}

    def timed(stage, fn, *args):
        start = time.perf_counter()
        out = fn(*args)
        stages[stage] = time.perf_counter() - start
        return out

    model = dgp.model_from_json(config.dgp)
    statistic = statistic_from_config(config.statistic)
    rule = OrderRule(**config.order_rule)
    seed = config.seed
    n = config.n
    targets = timed("targets", compute_targets, model, statistic)
    _validate_checks(config.checks, targets)
    spec = timed("companion", companion_spec_for, model, seed)

    data = Series(timed("data", model.simulate, n, [dgp.derive_seed(seed, dgp.KEY_DATA)])[0])
    boot = timed("bootstrap", bootstrap_distribution, data, statistic, config.B, rule, seed)
    oracle_law, _ = timed("oracle", companion_distribution, spec, statistic, n, config.M, seed)
    truth_law, _ = timed("truth", dgp.replicate, model, statistic, n, config.R, seed,
                         dgp.KEY_TRUTH)

    laws = {"bootstrap": boot.law, "oracle": oracle_law, "truth": truth_law}
    variances = {m: laws[m].variance() for m in _METHODS}
    dk = {
        "bootstrap_truth": kolmogorov_distance(laws["bootstrap"], laws["truth"]),
        "bootstrap_oracle": kolmogorov_distance(laws["bootstrap"], laws["oracle"]),
        "oracle_truth": kolmogorov_distance(laws["oracle"], laws["truth"]),
    }
    checks = [_evaluate_check(check, variances, dk, targets) for check in config.checks]
    verdict = bootstrap_verdict(statistic, targets, model.kurtoses[0],
                                all(c["passed"] for c in checks))

    report = Report(
        experiment=config.name,
        statistic=statistic.name,
        n=n,
        counts={"B": config.B, "M": config.M, "R": config.R, "p_used": boot.p_used},
        seed=seed,
        variances=variances,
        dk=dk,
        targets=targets,
        checks=checks,
        bootstrap_verdict=verdict,
        laws=laws,
        runtime={"seconds": time.perf_counter() - t0, "stages": stages},
    )
    if out_dir is not None:
        write_report(report, out_dir)
    return report


def write_report(report: Report, out_dir: str | Path) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(json.dumps(report.to_json_dict(), indent=2) + "\n")
    with open(out / "summary.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=[
            "experiment", "method", "statistic", "n", "variance",
            "dk_vs_truth", "dk_vs_oracle", "target", "target_id", "pass"])
        writer.writeheader()
        for row in report.summary_rows():
            writer.writerow(row)
    laws_dir = out / "laws"
    laws_dir.mkdir(exist_ok=True)
    for method, law in report.laws.items():
        # the bytes of np.savetxt(fmt="%.17g"), formatted in one pass
        text = "".join(["%.17g\n" % v for v in law.sample.tolist()])
        (laws_dir / f"{method}.csv").write_text(text)


def _ma1_dgp(family: str) -> dict:
    return {"family": "linear", "coefficients": [-2.0],
            "innovation": {"family": family, "scale": 1.0}}


def _preset(name, dgp_doc, stat, checks, seed):
    return {"name": name, "dgp": dgp_doc, "statistic": stat, "checks": checks, "seed": seed}


_PRESETS = {
    "mean-ma1-exponential": _preset(
        "mean-ma1-exponential", _ma1_dgp("centered_exponential"), {"name": "mean"},
        [
            {"id": "boot-vs-truth-variance", "kind": "var_ratio",
             "num": "bootstrap", "den": "truth", "lo": 0.85, "hi": 1.15},
            {"id": "boot-variance-vs-analytic", "kind": "var_close",
             "method": "bootstrap", "target_id": "mean_long_run_variance", "tol": 0.15},
            {"id": "truth-variance-vs-analytic", "kind": "var_close",
             "method": "truth", "target_id": "mean_long_run_variance", "tol": 0.15},
        ],
        seed=13),
    "mean-arch1": _preset(
        "mean-arch1", {"family": "arch1", "coefficients": [1.0, 0.3]}, {"name": "mean"},
        [
            {"id": "boot-vs-truth-variance", "kind": "var_ratio",
             "num": "bootstrap", "den": "truth", "lo": 0.85, "hi": 1.15},
        ],
        seed=1102),
    "acvf0-ma1-exponential": _preset(
        "acvf0-ma1-exponential", _ma1_dgp("centered_exponential"),
        {"name": "acvf", "lag": 0},
        [
            {"id": "boot-variance-vs-companion", "kind": "var_close",
             "method": "bootstrap", "target_id": "acvf_variance_companion", "tol": 0.15},
            {"id": "oracle-variance-vs-companion", "kind": "var_close",
             "method": "oracle", "target_id": "acvf_variance_companion", "tol": 0.15},
            {"id": "truth-variance-vs-linear", "kind": "var_close",
             "method": "truth", "target_id": "acvf_variance_linear", "tol": 0.15},
            {"id": "boot-vs-truth-variance-gap", "kind": "var_ratio",
             "num": "bootstrap", "den": "truth", "lo": 0.4, "hi": 0.75},
            # bootstrap and truth laws differ detectably: d_K exceeds the
            # two-sample KS critical value at the default B and R
            {"id": "dk-boot-truth-separated", "kind": "dk_gt",
             "pair": "bootstrap_truth",
             "bound": ks_critical_value(ExperimentConfig.B, ExperimentConfig.R)},
            {"id": "dk-boot-oracle-close", "kind": "dk_le",
             "pair": "bootstrap_oracle", "bound": 0.1},
        ],
        seed=24),
    "acvf0-ma1-gaussian": _preset(
        "acvf0-ma1-gaussian", _ma1_dgp("gaussian"), {"name": "acvf", "lag": 0},
        [
            {"id": "boot-variance-vs-companion", "kind": "var_close",
             "method": "bootstrap", "target_id": "acvf_variance_companion", "tol": 0.15},
            {"id": "oracle-variance-vs-companion", "kind": "var_close",
             "method": "oracle", "target_id": "acvf_variance_companion", "tol": 0.15},
            {"id": "truth-variance-vs-linear", "kind": "var_close",
             "method": "truth", "target_id": "acvf_variance_linear", "tol": 0.15},
            {"id": "dk-boot-truth-close", "kind": "dk_le",
             "pair": "bootstrap_truth", "bound": 0.1},
        ],
        seed=8),
    "acf1-ma1-exponential": _preset(
        "acf1-ma1-exponential", _ma1_dgp("centered_exponential"), {"name": "acf", "lag": 1},
        [
            {"id": "boot-variance-vs-bartlett", "kind": "var_close",
             "method": "bootstrap", "target_id": "bartlett_variance", "tol": 0.15},
            {"id": "oracle-variance-vs-bartlett", "kind": "var_close",
             "method": "oracle", "target_id": "bartlett_variance", "tol": 0.15},
            {"id": "truth-variance-vs-bartlett", "kind": "var_close",
             "method": "truth", "target_id": "bartlett_variance", "tol": 0.15},
        ],
        seed=1105),
    "acf1-ma1-gaussian": _preset(
        "acf1-ma1-gaussian", _ma1_dgp("gaussian"), {"name": "acf", "lag": 1},
        [
            {"id": "boot-variance-vs-bartlett", "kind": "var_close",
             "method": "bootstrap", "target_id": "bartlett_variance", "tol": 0.15},
            {"id": "oracle-variance-vs-bartlett", "kind": "var_close",
             "method": "oracle", "target_id": "bartlett_variance", "tol": 0.15},
            {"id": "truth-variance-vs-bartlett", "kind": "var_close",
             "method": "truth", "target_id": "bartlett_variance", "tol": 0.15},
        ],
        seed=1106),
    "ratio-cos1-ma1-exponential": _preset(
        "ratio-cos1-ma1-exponential", _ma1_dgp("centered_exponential"),
        {"name": "ratio-cos", "lag": 1},
        [
            {"id": "dk-boot-truth-close", "kind": "dk_le",
             "pair": "bootstrap_truth", "bound": 0.1},
            {"id": "boot-variance-vs-analytic", "kind": "var_close",
             "method": "bootstrap", "target_id": "ratio_statistic_variance", "tol": 0.15},
            {"id": "truth-variance-vs-analytic", "kind": "var_close",
             "method": "truth", "target_id": "ratio_statistic_variance", "tol": 0.15},
        ],
        seed=1107),
    "spectral-density-ma1": _preset(
        "spectral-density-ma1", _ma1_dgp("gaussian"),
        {"name": "specdens", "lambda": math.pi / 2, "bandwidth": 0.4},
        [
            {"id": "boot-vs-truth-variance", "kind": "var_ratio",
             "num": "bootstrap", "den": "truth", "lo": 0.8, "hi": 1.25},
        ],
        seed=13),
    "spectral-density-ma1-boundary": _preset(
        "spectral-density-ma1-boundary", _ma1_dgp("gaussian"),
        {"name": "specdens", "lambda": math.pi, "bandwidth": 0.4},
        [
            {"id": "boot-vs-truth-variance", "kind": "var_ratio",
             "num": "bootstrap", "den": "truth", "lo": 0.8, "hi": 1.25},
        ],
        seed=13),
}


def list_presets() -> list:
    return sorted(_PRESETS)


def preset_config(name: str, **overrides) -> ExperimentConfig:
    if name not in _PRESETS:
        raise ConfigError(f"unknown preset {name!r}; known: {', '.join(sorted(_PRESETS))}")
    return ExperimentConfig.from_json(dict(_PRESETS[name]), **overrides)
