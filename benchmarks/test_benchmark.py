"""The benchmark's own tests: python3 -m pytest benchmarks -q (from the repo root)."""
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
from sieveboot.experiment import preset_config, run_experiment  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "benchmarks" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def _smoke(trace):
    done = _bench("--workload", "ma1-spectral", "--seed", "3", "--seconds", "0.1",
                  "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def _units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_smoke_run_prints_the_end_to_end_metrics():
    result = _smoke(trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 3
    assert {k: m["unit"] for k, m in result["metrics"].items()} == _units("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_smoke_run_prints_the_per_layer_metrics_and_partitions_time():
    result = _smoke(trace=1)
    assert result["correct"] and result["failed"] == 0
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == _units("per_layer")
    self_total = sum(metrics[k] for k in tracing.SELF_TIME_METRICS)
    assert self_total == pytest.approx(metrics["experiment.run_experiment_s"], rel=1e-9)
    # three experiments at n = B = M = R = 200: data + R truth paths each
    assert metrics["dgp.simulate_calls"] == 3 * 201
    assert metrics["statistics.evaluate_calls"] == 3 * 600


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__", "_out"))
    done = _bench("--workload", "arch1-mean", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("acvf0")
    config = preset_config("acvf0-ma1-gaussian", n=400, B=400, M=400, R=400, seed=5)
    run_experiment(config, out)
    return out, {"B": 400, "M": 400, "R": 400}


def test_outputs_of_a_correct_run_pass_the_checks(small_run):
    out, counts = small_run
    assert checks.check_outputs("acvf0-ma1-gaussian", counts, out, None) == []


@pytest.mark.parametrize("method", ["oracle", "truth"])
def test_a_law_scaled_by_one_and_a_half_fails_the_checks(small_run, tmp_path, method):
    out, counts = small_run
    corrupted = tmp_path / "out"
    shutil.copytree(out, corrupted)
    path = corrupted / "laws" / f"{method}.csv"
    np.savetxt(path, 1.5 * np.loadtxt(path), fmt="%.17g")
    failures = checks.check_outputs("acvf0-ma1-gaussian", counts, corrupted, None)
    assert any(f.startswith(f"{method} variance") for f in failures)
    assert any(f.startswith("d_K") for f in failures)


def test_closed_forms_of_the_worked_example():
    assert checks.expectations("mean-ma1-exponential")["laws"]["truth"] == 1.0
    acvf_exp = checks.expectations("acvf0-ma1-exponential")["laws"]
    assert acvf_exp["truth"] == pytest.approx(216.0)
    assert acvf_exp["oracle"] == pytest.approx(126.0)
    assert checks.expectations("acvf0-ma1-gaussian")["laws"] == pytest.approx(
        {"oracle": 66.0, "truth": 66.0})
    assert checks.bartlett_lag1() == pytest.approx(0.6224)
    assert checks.expectations("mean-arch1")["laws"]["truth"] == pytest.approx(1 / 0.7)
    assert checks.kernel_limit_variance(math.pi / 2) == pytest.approx(0.760, abs=5e-4)
    assert checks.kernel_limit_variance(math.pi) == pytest.approx(4.924, abs=5e-4)


@pytest.mark.parametrize("lam", [math.pi / 2, math.pi])
def test_fixed_bandwidth_kernel_variance_tends_to_the_limit(lam):
    assert checks.kernel_variance(lam, 0.005) == pytest.approx(
        checks.kernel_limit_variance(lam), rel=1e-3)
