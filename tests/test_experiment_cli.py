import copy
import dataclasses
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sieveboot
from sieveboot import experiment
from sieveboot.ar import ConditioningError
from sieveboot.cli import main
from sieveboot.companion import CompanionSpec
from sieveboot.experiment import (
    ConfigError,
    ExperimentConfig,
    companion_spec_for,
    list_presets,
    preset_config,
    run_experiment,
    write_report,
)
from sieveboot.dgp import Arch1Model, InnovationSpec, LinearModel, ResampledRecord
from sieveboot.series import EmpiricalLaw
from sieveboot.sieve import SieveModel

SMALL = dict(n=200, B=200, M=200, R=200)

TINY_CONFIG = {
    "name": "tiny",
    "dgp": {"family": "linear", "coefficients": [-2.0],
            "innovation": {"family": "gaussian", "scale": 1.0}},
    "statistic": {"name": "acvf", "lag": 0},
    "checks": [
        {"id": "boot-var", "kind": "var_close", "method": "bootstrap",
         "target_id": "acvf_variance_companion", "tol": 0.5},
    ],
    "seed": 5,
    **SMALL,
}


class TestConfig:
    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json({**TINY_CONFIG, "bogus": 1})

    def test_missing_keys_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json({"name": "x"})

    def test_scale_floors(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json({**TINY_CONFIG, "n": 50})
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json({**TINY_CONFIG, "B": 100})

    def test_overrides(self):
        cfg = ExperimentConfig.from_json(TINY_CONFIG, seed=99)
        assert cfg.seed == 99

    def test_cosine_lags_below_half_n_accepted(self):
        for stat in ({"name": "ratio-cos", "lag": 99}, {"name": "intper-cos", "lag": 99},
                     {"name": "intper-cos", "lag": 0}):
            assert ExperimentConfig.from_json({**TINY_CONFIG, "statistic": stat}).n == 200

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            preset_config("nonexistent")

    def test_every_preset_loads_from_its_json_text(self):
        for name in list_presets():
            cfg = preset_config(name)
            text = json.dumps(dataclasses.asdict(cfg))
            assert ExperimentConfig.from_json(text) == cfg

    def test_config_loads_from_path(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(TINY_CONFIG))
        assert ExperimentConfig.from_json(path) == ExperimentConfig.from_json(str(path))
        assert ExperimentConfig.from_json(path).name == "tiny"

    def test_preset_catalog(self):
        names = list_presets()
        assert "acvf0-ma1-exponential" in names
        assert "mean-arch1" in names
        assert "spectral-density-ma1" in names


class TestCompanionConstruction:
    def test_invertible_ma_coefficients(self):
        # X_t = e_t + 0.5 e_{t-1} is invertible: its own companion, (1 + z/2) e
        spec = companion_spec_for(LinearModel(b=(0.5,)), seed=1)
        assert np.array_equal(spec.num, [1.0, 0.5])
        assert np.array_equal(spec.den, [1.0])
        assert spec.noise == InnovationSpec()

    def test_worked_example_companion_resamples_its_wold_record(self):
        # X_t = e_t - 2 e_{t-1}: the invertible (1 - z/2) eps, with eps drawn
        # i.i.d. from a record of its Wold innovations, variance 4
        spec = companion_spec_for(LinearModel(b=(-2.0,)), seed=1)
        assert np.array_equal(spec.num, [1.0, -0.5])
        assert np.array_equal(spec.den, [1.0])
        assert isinstance(spec.noise, ResampledRecord)
        assert spec.noise.variance == pytest.approx(4.0, rel=0.01)

    def test_any_noninvertible_ma_resamples_its_wold_record(self):
        # 1 + 0.5 z - 3 z^2 = (1 - 1.5 z)(1 + 2 z): both roots flip, giving
        # (1 - 2z/3)(1 + z/2) = 1 - z/6 - z^2/3 and Var(eps) = 1.5^2 2^2 = 9
        spec = companion_spec_for(LinearModel(b=(0.5, -3.0)), seed=1)
        assert np.allclose(spec.num, [1.0, -1.0 / 6.0, -1.0 / 3.0], rtol=0.0, atol=1e-15)
        assert isinstance(spec.noise, ResampledRecord)
        assert spec.noise.variance == pytest.approx(9.0, rel=0.01)

    def test_ma_with_a_root_on_the_circle_rejected(self):
        with pytest.raises(ValueError, match="root on the unit circle, z = -1"):
            companion_spec_for(LinearModel(b=(1.0,)), seed=1)

    def test_ar_model_is_its_own_companion(self):
        spec = companion_spec_for(LinearModel(a=(0.5, -0.2)), seed=1)
        assert np.array_equal(spec.num, [1.0])
        assert np.array_equal(spec.den, [1.0, -0.5, 0.2])
        assert spec.noise == InnovationSpec()

    def test_arch_companion_is_resampled_white_noise(self):
        spec = companion_spec_for(Arch1Model(omega=1.0, alpha1=0.3), seed=1)
        assert np.array_equal(spec.num, [1.0])
        assert np.array_equal(spec.den, [1.0])
        assert isinstance(spec.noise, ResampledRecord)
        assert spec.noise.variance == pytest.approx(1.0 / 0.7, rel=0.05)


ARCH_ACVF_CONFIG = {
    **TINY_CONFIG,
    "name": "arch-acvf",
    "dgp": {"family": "arch1", "coefficients": [1.0, 0.3]},
    "checks": [
        {"id": "truth-vs-linear", "kind": "var_close", "method": "truth",
         "target_id": "acvf_variance_linear", "tol": 0.15},
    ],
}

BAD_CHECKS = [
    ({"id": "c1", "kind": "var_between", "method": "truth"}, "unknown kind"),
    ({"id": "c1", "kind": "var_close", "method": "truth", "tol": 0.1}, "missing fields"),
    ({"id": "c1", "kind": "var_close", "method": "bootstap",
      "target_id": "acvf_variance_companion", "tol": 0.1}, "unknown method"),
    ({"id": "c1", "kind": "var_ratio", "num": "truth", "den": "orcale",
      "lo": 0.5, "hi": 2.0}, "unknown den"),
    ({"id": "c1", "kind": "dk_le", "pair": "truth_bootstrap", "bound": 0.1}, "unknown pair"),
    ({"kind": "dk_le", "pair": "bootstrap_truth", "bound": 0.1}, "no id"),
    (1, "check #0 must be an object"),
    ({"id": "c1", "kind": "var_close", "method": "truth",
      "target_id": "acvf_variance_companion", "tol": "0.15"}, "c1.*tol must be a number"),
    ({"id": "c1", "kind": "var_close", "method": "truth",
      "target_id": "acvf_variance_companion", "tol": True}, "c1.*tol must be a number"),
    ({"id": "c1", "kind": "dk_le", "pair": "bootstrap_truth", "bound": None},
     "c1.*bound must be a number"),
    ({"id": "c1", "kind": "var_ratio", "num": "truth", "den": "oracle",
      "lo": False, "hi": 2.0}, "c1.*lo must be a number"),
    ({"id": "c1", "kind": "var_ratio", "num": "truth", "den": "oracle",
      "lo": 0.5, "hi": "2"}, "c1.*hi must be a number"),
    ({"id": "c1", "kind": "var_close", "method": "truth", "target_id": ["a"], "tol": 0.1},
     r"c1.*target_id must be a string, got \['a'\]"),
    ({"id": ["c"], "kind": "dk_le", "pair": "bootstrap_truth", "bound": 0.1},
     r"check #0: id must be a string, got \['c'\]"),
    # a field the check's kind does not read
    ({"id": "c1", "kind": "var_close", "method": "truth", "target_id": "acvf_variance_companion",
      "tol": 0.1, "expected": False}, r"c1.*unknown fields \['expected'\] for kind 'var_close'"),
    ({"id": "c1", "kind": "dk_le", "pair": "bootstrap_truth", "bound": 0.1, "tol": 0.1},
     r"c1.*unknown fields \['tol'\] for kind 'dk_le'"),
    ({"id": "c1", "kind": "var_ratio", "num": "truth", "den": "oracle", "lo": 0.5, "hi": 2.0,
      "method": "truth", "bound": 1.0}, r"c1.*unknown fields \['bound', 'method'\]"),
    # a NaN threshold, which no value passes or fails as meant
    ({"id": "c1", "kind": "var_close", "method": "truth",
      "target_id": "acvf_variance_companion", "tol": float("nan")}, "c1.*tol must be a number"),
    ({"id": "c1", "kind": "var_ratio", "num": "truth", "den": "oracle",
      "lo": float("nan"), "hi": 2.0}, "c1.*lo must be a number"),
    ({"id": "c1", "kind": "var_ratio", "num": "truth", "den": "oracle",
      "lo": 0.5, "hi": float("nan")}, "c1.*hi must be a number"),
    ({"id": "c1", "kind": "dk_gt", "pair": "bootstrap_truth", "bound": float("nan")},
     "c1.*bound must be a number, not NaN"),
    # a threshold no value can pass: a relative error and a Kolmogorov
    # distance lie in [0, inf) and [0, 1]
    ({"id": "c1", "kind": "var_close", "method": "truth",
      "target_id": "acvf_variance_companion", "tol": -0.1},
     r"c1.*no value can pass it: tol must be >= 0, got tol = -0.1"),
    ({"id": "c1", "kind": "var_ratio", "num": "truth", "den": "oracle", "lo": 2.0, "hi": 0.5},
     r"c1.*no value can pass it: lo must be <= hi, got lo = 2.0, hi = 0.5"),
    ({"id": "c1", "kind": "dk_le", "pair": "bootstrap_truth", "bound": -0.01},
     r"c1.*no value can pass it: bound must be >= 0, got bound = -0.01"),
    ({"id": "c1", "kind": "dk_gt", "pair": "bootstrap_truth", "bound": 1},
     r"c1.*no value can pass it: bound must be < 1, got bound = 1"),
    ({"id": "c1", "kind": "dk_gt", "pair": "bootstrap_truth", "bound": float("inf")},
     r"c1.*no value can pass it: bound must be < 1, got bound = inf"),
    # a kind that is not a string, which no lookup of the known kinds may hash
    ({"id": "c1", "kind": ["var_close"], "method": "truth"}, r"c1.*unknown kind \['var_close'\]"),
    ({"id": "c1", "kind": {"var_close": 1}}, r"c1.*unknown kind \{'var_close': 1\}"),
]

# Malformed model documents and the field each rejection names.
BAD_MODELS = [
    ({"family": "linear", "coefficients": 5}, "coefficients"),
    ({"family": "linear", "coefficients": [-2.0], "burnin": 500}, "burnin"),
    ({"family": "linear", "coefficients": [-2.0],
      "innovation": {"family": "gaussian", "shape": 2.0}}, "innovation"),
    ({"family": "arch1", "coefficients": [1.0, 0.3],
      "innovation": {"family": "gaussian"}}, "innovation"),
    ({"family": "arch1", "coefficients": [1.0, 0.3, 0.1]}, "omega, alpha1"),
    ({"family": "arch1", "coefficients": [float("nan"), 0.3]}, "omega"),
    ({"family": "arch1", "coefficients": [float("inf"), 0.3]}, "omega"),
    ({"family": "linear", "coefficients": [-2.0],
      "innovation": {"family": "gaussian", "scale": float("nan")}}, "scale"),
    ({"family": "linear", "coefficients": [-2.0],
      "innovation": {"family": "gaussian", "scale": 1e200}}, "scale"),
    ({"family": "ar", "coefficients": [1.5]}, "closed unit disk"),
]

# Models whose second moments overflow float64, a statistic, and the target
# (or, where the overflow stops the computation, the statistic) each
# rejection names.
OVERFLOWING_TARGETS = [
    ({"family": "linear", "coefficients": [1e308]}, {"name": "mean"}, "mean_long_run_variance"),
    ({"family": "linear", "coefficients": [1e200]}, {"name": "acf", "lag": 1}, "bartlett_variance"),
    ({"family": "linear", "coefficients": [1e200]}, {"name": "acvf", "lag": 0},
     "acvf_variance_linear, acvf_variance_companion"),
    ({"family": "linear", "coefficients": [1e200]}, {"name": "acvf", "lag": 1}, "'acvf-lag-1'"),
]

# Malformed statistic documents and the field each rejection names.
BAD_STATISTICS = [
    ({"name": "specdens", "lambda": float("nan"), "bandwidth": 0.4}, "lambda"),
    ({"name": "specdens", "lambda": 4.0}, "lambda"),
    ({"name": "specdens", "lambda": "1.0"}, "lambda"),
    ({"name": "specdens", "bandwidth": float("nan")}, "bandwidth"),
    ({"name": "acvf", "lag": -1}, "lag"),
    ({"name": "acvf", "lag": 1.7}, "lag"),
    ({"name": "acvf", "lag": True}, "lag"),
    ({"name": "acf", "lag": 0}, "lag"),
    ({"name": "ratio-cos", "lag": -1}, "lag"),
    ({"name": "intper-cos", "lag": 2.0}, "lag"),
]

# Malformed config values, as overrides of TINY_CONFIG, and the field each
# rejection names.
BAD_VALUES = [
    ({"order_rule": {"bogus": 1}}, "order_rule: unknown keys"),
    ({"order_rule": {"mode": "fixed", "fixed_p": "2"}}, "order_rule: .*integer fixed_p"),
    # True is an int to isinstance; it would run as p = 1 and report p_used true
    ({"order_rule": {"mode": "fixed", "fixed_p": True}}, "order_rule: .*integer fixed_p"),
    # aic_capped never reads fixed_p
    ({"order_rule": {"mode": "aic_capped", "fixed_p": 3}},
     "order_rule: fixed_p is read only in mode 'fixed'"),
    ({"order_rule": {"mode": "bic"}}, "order_rule: unknown order rule mode"),
    ({"n": "2000"}, "n must be an integer"),
    ({"n": 2000.0}, "n must be an integer"),
    ({"B": True}, "B must be an integer"),
    ({"M": 300.5}, "M must be an integer"),
    ({"R": None}, "R must be an integer"),
    ({"seed": "5"}, "seed must be an integer"),
    ({"seed": False}, "seed must be an integer"),
    ({"checks": 1}, "checks must be a list"),
    # the verdict is derived from the model and statistic, never asserted
    ({"expect": {"boot-var": False}}, r"unknown config keys: \['expect'\]"),
    ({"bootstrap_valid": False}, r"unknown config keys: \['bootstrap_valid'\]"),
    ({"statistic": {"name": "acvf", "lag": 5000}, "n": 2000},
     "statistic: acvf-lag-5000 needs lag 5000 < n, got n = 2000"),
    ({"statistic": {"name": "acf", "lag": 300}, "n": 300},
     "statistic: acf-lag-300 needs lag 300 < n, got n = 300"),
    # on the Fourier grid lag h weighs as lag n - h: lag 150 would run as 50
    ({"statistic": {"name": "ratio-cos", "lag": 150}},
     r"statistic: ratio\[2cos\(150l\)\] needs 2 \* lag 150 < n, got n = 200"),
    ({"statistic": {"name": "intper-cos", "lag": 100}},
     r"statistic: intper\[2cos\(100l\)\] needs 2 \* lag 100 < n, got n = 200"),
    ({"statistic": {"name": "ratio-cos", "lag": 0}}, "statistic: .* is the constant 2 at lag 0"),
] + [({"dgp": doc}, f"dgp: .*{field}") for doc, field in BAD_MODELS] + [
    ({"statistic": doc}, f"statistic: .*{field}") for doc, field in BAD_STATISTICS]


def _no_simulation(*args, **kwargs):
    raise AssertionError("a path was simulated before the config was validated")


@pytest.fixture
def no_simulation(monkeypatch):
    """Fail on any DGP, companion or bootstrap path simulated meanwhile."""
    for process in (LinearModel, Arch1Model, CompanionSpec, SieveModel):
        monkeypatch.setattr(process, "simulate", _no_simulation)


class TestFailFast:
    def test_missing_target_rejected_before_simulation(self, no_simulation):
        with pytest.raises(ConfigError, match="truth-vs-linear.*acvf_variance_linear"):
            run_experiment(ExperimentConfig.from_json(ARCH_ACVF_CONFIG))

    @pytest.mark.parametrize("check, message", BAD_CHECKS)
    def test_bad_check_rejected_before_simulation(self, no_simulation, check, message):
        with pytest.raises(ConfigError, match=message):
            run_experiment(ExperimentConfig.from_json({**TINY_CONFIG, "checks": [check]}))

    @pytest.mark.parametrize("check, message", BAD_CHECKS)
    def test_cli_rejects_bad_checks_with_one_error_line(self, tmp_path, capsys, no_simulation,
                                                        check, message):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({**TINY_CONFIG, "checks": [check]}))
        assert main(["run", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and re.match(f"error: .*{message}", err[0])

    @pytest.mark.parametrize("override, message", BAD_VALUES)
    def test_bad_value_rejected_before_simulation(self, no_simulation, override, message):
        with pytest.raises(ConfigError, match=message):
            run_experiment(ExperimentConfig.from_json({**TINY_CONFIG, **override}))

    @pytest.mark.parametrize("override, field", [
        ({"order_rule": {"bogus": 1}}, "order_rule"),
        ({"order_rule": {"mode": "fixed", "fixed_p": True}}, "integer fixed_p >= 1, got True"),
        ({"order_rule": {"mode": "aic_capped", "fixed_p": 3}}, "fixed_p is read only"),
        ({"n": "2000"}, "n must be"),
        ({"checks": [1]}, "check #0"),
        ({"expect": {"boot-var": False}}, "unknown config keys: ['expect']"),
        ({"bootstrap_valid": False}, "unknown config keys: ['bootstrap_valid']"),
        ({"statistic": {}}, "unknown statistic"),
        ({"statistic": {"name": "acvf", "lag": 5000}, "n": 2000}, "lag 5000 < n, got n = 2000"),
        ({"statistic": {"name": "ratio-cos", "lag": 150}}, "2 * lag 150 < n, got n = 200"),
        ({"statistic": {"name": "intper-cos", "lag": 100}}, "2 * lag 100 < n, got n = 200"),
        ({"statistic": {"name": "ratio-cos", "lag": 0}}, "constant 2 at lag 0"),
    ] + [({"dgp": doc}, field) for doc, field in BAD_MODELS]
      + [({"statistic": doc}, field) for doc, field in BAD_STATISTICS])
    def test_cli_rejects_malformed_values_with_one_error_line(self, tmp_path, capsys,
                                                              no_simulation, override, field):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({**TINY_CONFIG, **override}))
        assert main(["run", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and field in err[0]

    @pytest.mark.parametrize("doc, field", BAD_MODELS + [([1], "model must be an object")])
    def test_cli_asymptotics_rejects_bad_models_with_one_error_line(self, capsys, doc, field):
        assert main(["asymptotics", "--model", json.dumps(doc), "--statistic", "mean"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and field in err[0]

    @pytest.mark.parametrize("doc, field",
                             BAD_STATISTICS + [([1], "statistic must be an object")])
    def test_cli_asymptotics_rejects_bad_statistics_with_one_error_line(self, capsys, doc, field):
        assert main(["asymptotics", "--model", json.dumps(TINY_CONFIG["dgp"]),
                     "--statistic", json.dumps(doc)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and field in err[0]

    @pytest.mark.parametrize("model, stat, name", OVERFLOWING_TARGETS)
    def test_overflowing_targets_rejected_before_simulation(self, no_simulation, model, stat, name):
        config = ExperimentConfig.from_json({**TINY_CONFIG, "dgp": model, "statistic": stat})
        with pytest.raises(ValueError, match=name):
            run_experiment(config)

    @pytest.mark.parametrize("model, stat, name", OVERFLOWING_TARGETS)
    def test_cli_asymptotics_rejects_overflowing_targets(self, capsys, model, stat, name):
        assert main(["asymptotics", "--model", json.dumps(model),
                     "--statistic", json.dumps(stat)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        err = err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and name in err[0]
        assert not re.search(r"\b(inf|nan)\b", err[0], re.IGNORECASE)

    def test_cli_rejects_an_ma_root_on_the_circle_before_simulation(self, tmp_path, capsys,
                                                                   no_simulation):
        cfg_path = tmp_path / "unit-root.json"
        cfg_path.write_text(json.dumps({**TINY_CONFIG, "dgp": {"family": "linear",
                                                               "coefficients": [1.0]}}))
        assert main(["run", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "root on the unit circle, z = -1" in err[0]

    def test_cli_asymptotics_rejects_an_unsettled_expansion(self, capsys):
        assert main(["asymptotics", "--model", '{"family": "ar", "coefficients": [0.999]}',
                     "--statistic", '{"name": "acf", "lag": 1}']) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: bartlett_variance: ")

    def test_cli_run_rejects_a_config_that_is_not_an_object(self, capsys):
        assert main(["run", "--config", "[1]"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0] == "error: config must be an object, got [1]"

    def test_cli_exits_2_without_traceback(self, tmp_path, capsys, no_simulation):
        cfg_path = tmp_path / "arch.json"
        cfg_path.write_text(json.dumps(ARCH_ACVF_CONFIG))
        assert main(["run", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "truth-vs-linear" in err
        assert "Traceback" not in err

    def test_cli_maps_arithmetic_errors_to_exit_2(self, capsys, monkeypatch):
        def ill_conditioned(*args, **kwargs):
            raise ConditioningError("prediction variance collapsed at order 3")

        monkeypatch.setattr("sieveboot.cli.run_experiment", ill_conditioned)
        assert main(["preset", "mean-ma1-exponential"]) == 2
        assert "prediction variance collapsed" in capsys.readouterr().err

    def test_cli_rejects_an_overflowing_arch1_path_with_one_error_line(self):
        # sigma_t^2 = omega + alpha1 x_{t-1}^2 overflows at omega = 1e308; the
        # finiteness check names it, and no numpy warning reaches stderr (a
        # child process, since pytest turns warnings into errors)
        config = {**TINY_CONFIG, "dgp": {"family": "arch1", "coefficients": [1e308, 0.3]},
                  "statistic": {"name": "mean"}, "checks": []}
        src = str(Path(sieveboot.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run([sys.executable, "-m", "sieveboot.cli", "run", "--config",
                               json.dumps(config)], env=env, capture_output=True, text=True,
                              timeout=120)
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr.splitlines() == ["error: series values must be finite"]


class _Accepted(Exception):
    """A config that passed every check, stopped where its Monte Carlo would begin."""


def _accept(*args, **kwargs):
    raise _Accepted


# Values a mutant puts in place of a config value, a list or an object among
# them, besides the values of the other fields.
FUZZ_VALUES = [None, True, False, 0, 1, -1, 2.5, -0.5, 10 ** 20, 1e308, -1e308, float("nan"),
               float("inf"), "", "x", "mean", "var_close", [], [1.0], ["truth"], {}, {"a": 1}]


def _nodes(doc, path=()):
    """(path, value) of every value inside a config document, depth first."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield path + (key,), value
        yield from _nodes(value, path + (key,))


def _mutant(rng: random.Random, docs: list) -> dict:
    """One to three mutations of a copy of one of docs: a value replaced by a
    fuzz value or by the value of another field, a key deleted or a key
    added."""
    doc = copy.deepcopy(rng.choice(docs))
    for _ in range(rng.randint(1, 3)):
        nodes = list(_nodes(doc))
        path, _ = rng.choice(nodes)
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        op = rng.random()
        value = copy.deepcopy(rng.choice(nodes)[1] if op < 0.3 else rng.choice(FUZZ_VALUES))
        if op >= 0.9 and isinstance(parent, dict):
            del parent[path[-1]]
        elif op >= 0.8 and isinstance(parent, dict):
            parent[rng.choice(["bogus", "lag", "kind", "tol", "mode", "scale"])] = value
        else:
            parent[path[-1]] = value
    return doc


def test_config_fuzz_either_exits_2_with_one_error_line_or_is_accepted(monkeypatch, capsys,
                                                                       no_simulation):
    # A seeded mutation loop over every preset and TINY_CONFIG: each mutant
    # exits 2 with one error line before any path, or passes validation and
    # reaches the companion build, stubbed here; any other exception fails.
    monkeypatch.setattr(experiment, "companion_spec_for", _accept)
    docs = [json.loads(json.dumps(dataclasses.asdict(preset_config(name))))
            for name in list_presets()] + [TINY_CONFIG]
    rng = random.Random(20110)
    outcomes, kinds = {"accepted": 0, "rejected": 0}, set()
    for _ in range(1000):
        doc = _mutant(rng, docs)
        if isinstance(doc.get("checks"), list):
            kinds.update(type(c.get("kind")).__name__ for c in doc["checks"]
                         if isinstance(c, dict))
        try:
            code = main(["run", "--config", json.dumps(doc)])
        except _Accepted:
            outcomes["accepted"] += 1
            continue
        out, err = capsys.readouterr()
        assert code == 2 and out == "", doc
        assert len(err.splitlines()) == 1 and err.startswith("error: "), (doc, err)
        outcomes["rejected"] += 1
    # the loop reached both outcomes, and check kinds of each JSON type
    assert all(outcomes.values()), outcomes
    assert {"list", "dict", "str", "NoneType"} <= kinds, kinds


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    out = tmp_path_factory.mktemp("exp")
    cfg = ExperimentConfig.from_json(TINY_CONFIG)
    return run_experiment(cfg, out), out


class TestRunExperiment:
    def test_report_contents(self, report):
        rep, _ = report
        assert set(rep.variances) == {"bootstrap", "oracle", "truth"}
        assert all(v > 0 for v in rep.variances.values())
        assert set(rep.dk) == {"bootstrap_truth", "bootstrap_oracle", "oracle_truth"}
        assert all(0 <= v <= 1 for v in rep.dk.values())
        assert rep.targets["acvf_variance_companion"] == pytest.approx(66.0)

    def test_output_files(self, report):
        _, out = report
        assert json.loads((out / "report.json").read_text())["experiment"] == "tiny"
        lines = (out / "summary.csv").read_text().strip().splitlines()
        assert lines[0].split(",") == [
            "experiment", "method", "statistic", "n", "variance",
            "dk_vs_truth", "dk_vs_oracle", "target", "target_id", "pass"]
        assert len(lines) == 4
        for method, count in (("bootstrap", 200), ("oracle", 200), ("truth", 200)):
            law = np.loadtxt(out / "laws" / f"{method}.csv")
            assert law.size == count

    def test_law_files_are_the_bytes_of_savetxt(self, report, tmp_path):
        rep, _ = report
        edge = EmpiricalLaw(np.array([-0.0, 0.0, 5e-324, 1e308, -1e308, 1 / 3, 7.0, -42.0,
                                      2.0 ** 53, 0.1]))
        laws = {**rep.laws, "truth": edge}
        write_report(dataclasses.replace(rep, laws=laws), tmp_path)
        for method, law in laws.items():
            np.savetxt(tmp_path / "want.csv", law.sample, fmt="%.17g")
            got = (tmp_path / "laws" / f"{method}.csv").read_bytes()
            assert got == (tmp_path / "want.csv").read_bytes()
        assert {b"-0", b"0", b"4.9406564584124654e-324", b"-42", b"9007199254740992",
                b"0.33333333333333331"} <= set(got.splitlines())

    def test_runtime_has_stage_timings_within_the_total(self, report):
        _, out = report
        runtime = json.loads((out / "report.json").read_text())["runtime"]
        assert set(runtime) == {"seconds", "stages"}
        stages = runtime["stages"]
        assert set(stages) == {"companion", "data", "bootstrap", "oracle", "truth", "targets"}
        assert all(t >= 0 for t in stages.values())
        assert sum(stages.values()) <= runtime["seconds"]

    def test_deterministic_rerun(self, report, tmp_path):
        _, out = report
        cfg = ExperimentConfig.from_json(TINY_CONFIG)
        run_experiment(cfg, tmp_path)
        assert (tmp_path / "summary.csv").read_bytes() == (out / "summary.csv").read_bytes()

    def test_seed_changes_laws(self, tmp_path):
        cfg = ExperimentConfig.from_json(TINY_CONFIG, seed=6)
        rep = run_experiment(cfg)
        base = run_experiment(ExperimentConfig.from_json(TINY_CONFIG))
        assert not np.array_equal(rep.laws["bootstrap"].sample,
                                  base.laws["bootstrap"].sample)


# M(I_n, 2cos(.)) under X = e - 2 e_{-1} with centered exponential noise: the
# truth law has limit variance 61.0 (raw kurtosis 6) and the companion law 46.6
# (Wold kurtosis 2.4). A sample variance of R near-normal draws has relative
# standard error sqrt(2 / R) = 0.032 at R = M = 2000, so tol = 0.15 allows four
# standard errors (0.126) plus 0.024 for the O(1/n) finite-sample bias at
# n = 1000. The bootstrap law runs at the minimum B and is not checked.
INTPER_CONFIG = {
    "name": "intper-cos1-ma1-exponential",
    "dgp": {"family": "linear", "coefficients": [-2.0],
            "innovation": {"family": "centered_exponential", "scale": 1.0}},
    "statistic": {"name": "intper-cos", "lag": 1},
    "checks": [
        {"id": "truth-vs-linear", "kind": "var_close", "method": "truth",
         "target_id": "intper_variance_linear", "tol": 0.15},
        {"id": "oracle-vs-companion", "kind": "var_close", "method": "oracle",
         "target_id": "intper_variance_companion", "tol": 0.15},
    ],
    "n": 1000, "B": 200, "M": 2000, "R": 2000, "seed": 31,
}


def test_intper_laws_match_their_kurtosis_targets():
    rep = run_experiment(ExperimentConfig.from_json(INTPER_CONFIG))
    assert rep.targets["intper_variance_linear"] == pytest.approx(61.0, rel=1e-6)
    assert rep.targets["intper_variance_companion"] == pytest.approx(46.6, rel=1e-6)
    for check in rep.checks:
        assert check["passed"], check


# X = e + 0.5 e_{-1} - 3 e_{-2} under centered exponential noise: both roots
# lie inside the unit disk, and the companion target is 596.30 (Wold kurtosis
# 3.29495). The oracle's sample variance over M = 2000 paths has a relative
# standard error of about 0.032, so tol = 0.15 is some 4.7 of them.
MA2_CONFIG = {
    "name": "acvf0-ma2-exponential",
    "dgp": {"family": "linear", "coefficients": [0.5, -3.0],
            "innovation": {"family": "centered_exponential", "scale": 1.0}},
    "statistic": {"name": "acvf", "lag": 0},
    "checks": [
        {"id": "oracle-vs-companion", "kind": "var_close", "method": "oracle",
         "target_id": "acvf_variance_companion", "tol": 0.15},
    ],
    "n": 2000, "B": 200, "M": 2000, "R": 200, "seed": 1,
}


def test_second_order_noninvertible_ma_oracle_matches_its_companion_target(tmp_path, capsys):
    cfg_path = tmp_path / "ma2.json"
    cfg_path.write_text(json.dumps(MA2_CONFIG))
    assert main(["run", "--config", str(cfg_path)]) == 0
    assert "check oracle-vs-companion: pass" in capsys.readouterr().out


# The paper's counterexample with no checks: the verdict comes from the model
# and statistic alone, so no config can report this run as a valid bootstrap.
COUNTEREXAMPLE_CONFIG = {
    "name": "acvf0-ma1-exponential-unchecked",
    "dgp": {"family": "linear", "coefficients": [-2.0],
            "innovation": {"family": "centered_exponential"}},
    "statistic": {"name": "acvf", "lag": 0},
    "seed": 3,
    **SMALL,
}


def test_counterexample_verdict_is_derived_not_configured():
    rep = run_experiment(ExperimentConfig.from_json(COUNTEREXAMPLE_CONFIG))
    assert rep.targets == pytest.approx({"acvf_variance_linear": 216.0,
                                         "acvf_variance_companion": 126.0})
    assert rep.checks == [] and rep.all_as_expected
    assert rep.bootstrap_verdict == "FAIL-AS-PREDICTED"


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "acvf0-ma1-exponential" in out

    def test_run_config_file(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(TINY_CONFIG))
        code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        out = capsys.readouterr().out
        assert code == 0
        assert "check boot-var" in out
        assert (tmp_path / "out" / "summary.csv").exists()

    def test_run_bad_config_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({**TINY_CONFIG, "bogus": 1}))
        assert main(["run", "--config", str(cfg_path)]) == 2

    def test_unknown_preset_exits_2(self, capsys):
        assert main(["preset", "nope"]) == 2

    def test_asymptotics(self, capsys):
        code = main([
            "asymptotics",
            "--model", json.dumps(TINY_CONFIG["dgp"]),
            "--statistic", json.dumps({"name": "acvf", "lag": 0}),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "acvf_variance_companion = 66" in out

    @pytest.mark.parametrize("coefficients, companion", [
        ([-2.0], "126"), ([-2.0, 0.0], "126"), ([0.5, -3.0], "596.30")])
    def test_asymptotics_of_noninvertible_mas(self, capsys, coefficients, companion):
        model = {"family": "linear", "coefficients": coefficients,
                 "innovation": {"family": "centered_exponential"}}
        assert main(["asymptotics", "--model", json.dumps(model), "--statistic", "acvf"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].startswith(f"acvf_variance_companion = {companion}")

    @pytest.mark.parametrize("stat", ["acf", "ratio-cos"])
    def test_asymptotics_has_no_linear_process_formula_for_arch1(self, capsys, stat):
        assert main(["asymptotics", "--model", '{"family": "arch1", "coefficients": [1.0, 0.3]}',
                     "--statistic", stat]) == 1
        assert capsys.readouterr().out.startswith("no closed-form targets")

    def test_asymptotics_mean(self, capsys):
        code = main(["asymptotics", "--model", json.dumps(TINY_CONFIG["dgp"]),
                     "--statistic", "mean"])
        out = capsys.readouterr().out
        assert code == 0
        assert "mean_long_run_variance = 1" in out
