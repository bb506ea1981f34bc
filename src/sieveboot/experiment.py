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

A config is validated when it loads: ``ExperimentConfig`` rejects every
malformed value and check. The one rule that needs the targets -- a
``var_close`` check's target must be among those the model and statistic
produce -- is checked by ``run_experiment`` once it has computed them,
before the companion is built or any path is simulated.
"""
from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import dgp
from .ar import burnin
from .companion import CompanionSpec, companion_distribution
from .series import kolmogorov_distance, ks_critical_value
from .sieve import bootstrap_distribution
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
# Fields each check kind requires besides "id" and "kind", and what each may
# hold: one of a tuple of names, a string (str), or a number that is not NaN
# (float).
_CHECK_FIELDS = {
    "var_close": {"method": _METHODS, "target_id": str, "tol": float},
    "var_ratio": {"num": _METHODS, "den": _METHODS, "lo": float, "hi": float},
    "dk_le": {"pair": _DK_PAIRS, "bound": float},
    "dk_gt": {"pair": _DK_PAIRS, "bound": float},
}
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
# Bytes that a run's arrays may take at once, by ``_memory_estimate``: far
# past the paper's sizes (n up to about 1.5 * 10^7, B + M + R up to about
# 6 * 10^6) and well inside a 7 GB machine.
_MEMORY_BOUND = 1 << 30


class ConfigError(ValueError):
    """Invalid experiment configuration, with field diagnostics."""


def _memory_estimate(n: int, B: int, M: int, R: int, burnin: int) -> int:
    """Upper estimate of the bytes a run's arrays take at once, for paths of
    n values past a burn-in of ``burnin``.

    - A chunk of paths is a block of max(BATCH_VALUES, n) values (one path
      when n is larger). While it is simulated and evaluated, seven float64
      per block value are alive: the block, the FFT and fold a spectral
      statistic makes of it, the data path and its residual record, and a
      truth path's draws and filter output. ``replicate`` holds only one
      tile of a rational filter's paths at a time, so this over-counts a
      run of any model but ARCH(1) whose n is below BATCH_VALUES.
    - A companion block is one tile of max(TILE_VALUES, n + burnin) values,
      all that ``replicate`` hands ``build_companion`` at once, drawn and
      then filtered into a copy: two more.
    - A companion record of COMPANION_RECORD_LENGTH values is drawn and
      then filtered in place, a tile at a time: one per record value.
    - A replication costs 160 bytes: its value in the law and in the
      temporaries that centre and sort it. This over-counts, as a law is
      written one value at a time; a lower figure would admit larger runs.

    Traced with tracemalloc, a run of a ratio statistic at n = 10^6 peaked
    at 8.5 float64 per value, and one at B = 5 * 10^5, n = 100, at 28.2 MB,
    56 bytes per replication with nothing else counted.
    """
    values = (7 * max(dgp.BATCH_VALUES, n) + 2 * max(dgp.TILE_VALUES, n + burnin)
              + dgp.COMPANION_RECORD_LENGTH)
    return 8 * values + 160 * (B + M + R)


def load_json(doc):
    """A JSON document given as text starting with '{' or '[', or the path of
    a file holding one; anything else (a mapping) is returned as it is."""
    if isinstance(doc, str) and doc.lstrip().startswith(("{", "[")):
        return json.loads(doc)
    if isinstance(doc, (str, Path)):
        return json.loads(Path(doc).read_text())
    return doc


def _validate_check(i: int, check) -> None:
    """Reject, naming the check, a check #i that could not be evaluated: one
    that is not an object, has no id or an id that is not a string, an
    unknown kind, a missing field or one its kind does not read, an unknown
    method or pair, a target_id that is not a string, a tol, lo, hi or bound
    that is not a number, is NaN or is an integer too large for a float, or
    thresholds that no value can pass: a negative tol or dk_le bound, a dk_gt
    bound of 1 or more (a Kolmogorov distance lies in [0, 1]) or a var_ratio
    lo above its hi."""
    if not isinstance(check, dict):
        raise ConfigError(f"check #{i} must be an object, got {check!r}")
    if "id" not in check:
        raise ConfigError(f"check #{i} has no id")
    cid, kind = check["id"], check.get("kind")
    if not isinstance(cid, str):
        raise ConfigError(f"check #{i}: id must be a string, got {cid!r}")
    if not isinstance(kind, str) or kind not in _CHECK_FIELDS:
        raise ConfigError(f"check {cid!r}: unknown kind {kind!r}; "
                          f"known: {', '.join(_CHECK_FIELDS)}")
    allowed = _CHECK_FIELDS[kind]
    missing = [f for f in allowed if f not in check]
    if missing:
        raise ConfigError(f"check {cid!r}: missing fields {missing}")
    extra = set(check) - {"id", "kind", *allowed}
    if extra:
        raise ConfigError(f"check {cid!r}: unknown fields {sorted(extra, key=str)} for kind "
                          f"{kind!r}; known: id, kind, {', '.join(allowed)}")
    for f, values in allowed.items():
        value = check[f]
        if values is str and not isinstance(value, str):
            raise ConfigError(f"check {cid!r}: {f} must be a string, got {value!r}")
        if values is float:
            try:
                number = dgp._number(value, f)
            except ValueError as exc:
                raise ConfigError(f"check {cid!r}: {exc}") from None
            if math.isnan(number):
                raise ConfigError(f"check {cid!r}: {f} must be a number, not NaN, got {value!r}")
        if isinstance(values, tuple) and value not in values:
            raise ConfigError(f"check {cid!r}: unknown {f} {value!r}; "
                              f"known: {', '.join(values)}")
    unpassable, rule = _UNPASSABLE[kind]
    if unpassable(check):
        got = ", ".join(f"{f} = {check[f]!r}" for f, values in allowed.items() if values is float)
        raise ConfigError(f"check {cid!r}: no value can pass it: {rule}, got {got}")


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    dgp: dict
    statistic: dict
    n: int = 2000
    B: int = 2000
    M: int = 2000
    R: int = 2000
    seed: int = 20110
    checks: tuple = ()

    def __post_init__(self):
        """Reject malformed values, each check included, before anything is
        simulated; run_experiment checks var_close targets once it has them."""
        for f in fields(self):
            kind, noun = _FIELD_KINDS[f.type]
            value = getattr(self, f.name)
            if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
                raise ConfigError(f"{f.name} must be {noun}, got {value!r}")
        try:
            model = dgp.model_from_json(self.dgp)
        except ValueError as exc:
            raise ConfigError(f"dgp: {exc}") from exc
        try:
            statistic = statistic_from_config(self.statistic)
        except ValueError as exc:
            raise ConfigError(f"statistic: {exc}") from exc
        for label, floor in _FLOORS.items():
            if getattr(self, label) < floor:
                raise ConfigError(f"{label} must be >= {floor}, got {getattr(self, label)}")
        need = _memory_estimate(self.n, self.B, self.M, self.R, burnin(*model.filter[:2]))
        if need > _MEMORY_BOUND:
            raise ConfigError(f"n, B, M, R = {self.n}, {self.B}, {self.M}, {self.R} would hold "
                              f"about {need / 2 ** 30:.3g} GiB of arrays at once, above the "
                              f"bound of {_MEMORY_BOUND / 2 ** 30:g} GiB")
        try:
            statistic.check_n(self.n)
        except ValueError as exc:
            raise ConfigError(f"statistic: {exc}") from exc
        for i, check in enumerate(self.checks):
            _validate_check(i, check)
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
        """report.json: every field but the laws, all_as_expected before runtime."""
        doc = {f.name: getattr(self, f.name) for f in fields(self)
               if f.name not in ("laws", "runtime")}
        return {**doc, "all_as_expected": self.all_as_expected, "runtime": self.runtime}

    def summary_rows(self) -> list:
        """One row per method for summary.csv (no runtime metadata): the
        target of its first var_close check, and whether all of them passed."""
        target, passed = {}, {}
        for c in self.checks:
            if c["kind"] == "var_close":
                target.setdefault(c["method"], c["target_id"])
                passed[c["method"]] = passed.get(c["method"], True) and c["passed"]
        vs_oracle = {"bootstrap": "bootstrap_oracle", "truth": "oracle_truth"}
        return [{
            "experiment": self.experiment,
            "method": m,
            "statistic": self.statistic,
            "n": self.n,
            "variance": repr(self.variances[m]),
            "dk_vs_truth": repr(self.dk[f"{m}_truth"]) if m != "truth" else "0.0",
            "dk_vs_oracle": repr(self.dk[vs_oracle[m]]) if m in vs_oracle else "0.0",
            "target": repr(self.targets[target[m]]) if m in target else "",
            "target_id": target.get(m, ""),
            "pass": str(passed.get(m, True)),
        } for m in _METHODS]


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
    else:  # dk_le or dk_gt
        value = dk[check["pair"]]
        passed = value <= check["bound"] if kind == "dk_le" else value > check["bound"]
        out.update(value=value, passed=bool(passed))
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
    seed = config.seed
    n = config.n
    targets = timed("targets", compute_targets, model, statistic)
    for check in config.checks:
        if check["kind"] == "var_close" and check["target_id"] not in targets:
            raise ConfigError(f"check {check['id']!r}: target {check['target_id']!r} is not "
                              f"produced for this model and statistic; available: "
                              f"{', '.join(targets) or 'none'}")
    spec = timed("companion", companion_spec_for, model, seed)

    data = dgp.check_finite(timed("data", model.simulate, n,
                                  [dgp.derive_seed(seed, dgp.KEY_DATA)])[0])
    boot = timed("bootstrap", bootstrap_distribution, data, statistic, config.B, seed)
    oracle_law, _ = timed("oracle", companion_distribution, spec, statistic, n, config.M, seed)
    truth_law, _ = timed("truth", dgp.replicate, model, statistic, n, config.R, seed,
                         dgp.KEY_TRUTH)

    laws = {"bootstrap": boot.law, "oracle": oracle_law, "truth": truth_law}
    variances = {m: laws[m].variance() for m in _METHODS}
    dk = {pair: kolmogorov_distance(*(laws[m] for m in pair.split("_"))) for pair in _DK_PAIRS}
    checks = [_evaluate_check(check, variances, dk, targets) for check in config.checks]
    verdict = bootstrap_verdict(targets, all(c["passed"] for c in checks))

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
    rows = report.summary_rows()
    with open(out / "summary.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    laws_dir = out / "laws"
    laws_dir.mkdir(exist_ok=True)
    for method, law in report.laws.items():
        # the bytes of np.savetxt(fmt="%.17g"), formatted one value at a time
        with open(laws_dir / f"{method}.csv", "w") as fh:
            law.sample.tofile(fh, sep="\n", format="%.17g")
            fh.write("\n")


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
