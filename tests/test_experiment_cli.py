import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

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
)
from sieveboot.dgp import Arch1Model, ARModel, InnovationSpec, LinearModel
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
        assert spec.innovation_source == "parametric"

    def test_noninvertible_ma_other_than_worked_example_rejected(self):
        with pytest.raises(ValueError):
            companion_spec_for(LinearModel(b=(0.1, -3.0)), seed=1)

    def test_ar_model_is_its_own_companion(self):
        spec = companion_spec_for(ARModel(a=(0.5, -0.2)), seed=1)
        assert np.array_equal(spec.num, [1.0])
        assert np.array_equal(spec.den, [1.0, -0.5, 0.2])

    def test_arch_companion_is_resampled_white_noise(self):
        spec = companion_spec_for(Arch1Model(omega=1.0, alpha1=0.3), seed=1)
        assert np.array_equal(spec.num, [1.0])
        assert np.array_equal(spec.den, [1.0])
        assert spec.innovation_source == "residual_resample"
        assert spec.innovation_variance == pytest.approx(1.0 / 0.7, rel=0.05)


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
]

# Malformed config values, as overrides of TINY_CONFIG, and the field each
# rejection names.
BAD_VALUES = [
    ({"order_rule": {"bogus": 1}}, "order_rule: unknown keys"),
    ({"order_rule": {"mode": "fixed", "fixed_p": "2"}}, "order_rule: .*integer fixed_p"),
    ({"order_rule": {"mode": "bic"}}, "order_rule: unknown order rule mode"),
    ({"n": "2000"}, "n must be an integer"),
    ({"n": 2000.0}, "n must be an integer"),
    ({"B": True}, "B must be an integer"),
    ({"M": 300.5}, "M must be an integer"),
    ({"R": None}, "R must be an integer"),
    ({"seed": "5"}, "seed must be an integer"),
    ({"seed": False}, "seed must be an integer"),
    ({"checks": 1}, "checks must be a list"),
    ({"expect": {"nonexistent-check": False}}, "expect names no check: 'nonexistent-check'"),
    ({"expect": {"boot-var": "no"}}, "expect 'boot-var' must be true or false"),
]


def _no_simulation(*args, **kwargs):
    raise AssertionError("a path was simulated before the config was validated")


@pytest.fixture
def no_simulation(monkeypatch):
    """Fail on any DGP, companion or bootstrap path simulated meanwhile."""
    for process in (LinearModel, ARModel, Arch1Model, CompanionSpec, SieveModel):
        monkeypatch.setattr(process, "simulate", _no_simulation)


class TestFailFast:
    def test_missing_target_rejected_before_simulation(self, no_simulation):
        with pytest.raises(ConfigError, match="truth-vs-linear.*acvf_variance_linear"):
            run_experiment(ExperimentConfig.from_json(ARCH_ACVF_CONFIG))

    @pytest.mark.parametrize("check, message", BAD_CHECKS)
    def test_bad_check_rejected_before_simulation(self, no_simulation, check, message):
        with pytest.raises(ConfigError, match=message):
            run_experiment(ExperimentConfig.from_json({**TINY_CONFIG, "checks": [check]}))

    @pytest.mark.parametrize("override, message", BAD_VALUES)
    def test_bad_value_rejected_before_simulation(self, no_simulation, override, message):
        with pytest.raises(ConfigError, match=message):
            run_experiment(ExperimentConfig.from_json({**TINY_CONFIG, **override}))

    @pytest.mark.parametrize("override, field", [
        ({"order_rule": {"bogus": 1}}, "order_rule"),
        ({"n": "2000"}, "n must be"),
        ({"checks": [1]}, "check #0"),
        ({"expect": {"nonexistent-check": False}}, "nonexistent-check"),
        ({"statistic": {}}, "unknown statistic"),
    ])
    def test_cli_rejects_malformed_values_with_one_error_line(self, tmp_path, capsys,
                                                              no_simulation, override, field):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({**TINY_CONFIG, **override}))
        assert main(["run", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and field in err[0]

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

    def test_asymptotics_mean(self, capsys):
        code = main(["asymptotics", "--model", json.dumps(TINY_CONFIG["dgp"]),
                     "--statistic", "mean"])
        out = capsys.readouterr().out
        assert code == 0
        assert "mean_long_run_variance = 1" in out
