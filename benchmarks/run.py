"""Replication-throughput benchmark of sieveboot, run as its users run it.

    python3 benchmarks/run.py --workload ma1-moments --seed 1 --seconds 12 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 12

Run from the root of a source checkout; sieveboot is imported from ``src/``.
One process runs whole rounds of the workload's experiments -- each a
``run_experiment(config, out_dir)`` writing report.json, summary.csv and
laws/ -- until ``--seconds`` have passed, checks every experiment's written
outputs (see checks.py) and prints one JSON object as its last line:
``{"correct", "attempted", "failed", "metrics"}``. An operation is one
experiment.

``--trace 0`` reports the end-to-end metrics (untraced):
  replications_per_s  B + M + R over the experiments run, per second of the
                      CPU time they took, output writing included
  setup_s             median over three fresh interpreters of the CPU time to
                      import sieveboot, build the configs and run one small
                      warm-up experiment
  peak_rss_mb         peak resident memory of the benchmark process
Times are the process's CPU time: with BLAS and OpenMP pinned to one thread
it is the wall time less what the hypervisor steals from the virtual CPU.
The wall-clock rate goes to standard error.

``--trace 1`` alternates untraced and traced rounds and reports per-layer
self times (wall clock) and counts per traced round (see tracing.py), plus
the tracing overhead: traced minus untraced wall time per round.

``--seed 0`` runs every experiment at its preset's own seed, where the
preset's verdict is checked as well; any other seed derives a fresh seed per
experiment.
"""
from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_BASE = BENCH_DIR / "_out"
SETUP_SAMPLES = 3

PAPER_SCALE = {"n": 2000, "reps": 2000}
WORKLOADS = {
    # Statistic evaluation is cheap; the companion's long filter and burn-in
    # and the per-replication loop dominate.
    "ma1-moments": {"presets": ("mean-ma1-exponential", "acvf0-ma1-exponential",
                                "acvf0-ma1-gaussian", "acf1-ma1-exponential",
                                "acf1-ma1-gaussian"), **PAPER_SCALE},
    # A periodogram FFT and kernel weights per path: evaluation is a large share.
    "ma1-spectral": {"presets": ("ratio-cos1-ma1-exponential", "spectral-density-ma1",
                                 "spectral-density-ma1-boundary"), **PAPER_SCALE},
    # The pure-Python ARCH(1) recursion dominates; the companion has order 0.
    "arch1-mean": {"presets": ("mean-arch1",), **PAPER_SCALE},
    # Per-sample arithmetic outweighs per-call overhead.
    "long-path": {"presets": ("mean-ma1-exponential", "acvf0-ma1-gaussian",
                              "spectral-density-ma1"), "n": 16000, "reps": 500},
}
SMALL_SCALE = {"n": 200, "reps": 200}  # the warm-up, and every experiment under --smoke
EXPECTED_VERDICT = {"acvf0-ma1-exponential": "FAIL-AS-PREDICTED"}


def _experiment_seed(workload_seed: int, preset_seed: int) -> int:
    import numpy as np

    if workload_seed == 0:
        return preset_seed
    return int(np.random.SeedSequence([workload_seed, preset_seed]).generate_state(1)[0])


def _configs(workload: str, seed: int, smoke: bool) -> list:
    """(preset, config) for each experiment of one round."""
    from sieveboot.experiment import preset_config

    spec = WORKLOADS[workload]
    scale = SMALL_SCALE if smoke else spec
    out = []
    for preset in spec["presets"]:
        preset_seed = preset_config(preset).seed
        out.append((preset, preset_config(preset, n=scale["n"], B=scale["reps"], M=scale["reps"],
                                          R=scale["reps"], seed=_experiment_seed(seed, preset_seed))))
    return out


def _setup(workload: str, seed: int, smoke: bool, out_dir: Path) -> tuple:
    """Import sieveboot, build the configs and run one small warm-up experiment.

    Returns (CPU seconds taken, configs, experiment module).
    """
    t0 = time.process_time()
    from sieveboot import experiment
    from sieveboot.experiment import preset_config

    configs = _configs(workload, seed, smoke)
    preset = WORKLOADS[workload]["presets"][0]
    reps = SMALL_SCALE["reps"]
    warmup = preset_config(preset, n=SMALL_SCALE["n"], B=reps, M=reps, R=reps)
    experiment.run_experiment(warmup, out_dir / "warmup")
    return time.process_time() - t0, configs, experiment


def _setup_in_child(workload: str, seed: int, smoke: bool) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", workload, "--seed", str(seed)] + (["--smoke"] if smoke else [])
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def _law_digest(report) -> str:
    h = hashlib.sha256()
    for method in sorted(report.laws):
        h.update(report.laws[method].sample.tobytes())
    return h.hexdigest()


class Run:
    """Rounds of one workload's experiments, with their checks."""

    def __init__(self, experiment, configs, out_dir: Path, seed: int, smoke: bool):
        from checks import check_outputs

        self.check_outputs = check_outputs
        self.experiment = experiment
        self.configs = configs
        self.out_dir = out_dir
        self.verdict_checked = seed == 0 and not smoke
        self.attempted = 0
        self.errors = []
        self.problems = []
        self.digests = {}

    def round(self) -> tuple:
        """Run every experiment once; return (wall seconds, CPU seconds,
        replications) of the experiments that completed."""
        wall = 0.0
        cpu = 0.0
        reps = 0
        for i, (preset, config) in enumerate(self.configs):
            out = self.out_dir / f"{i}-{preset}"
            self.attempted += 1
            t0 = time.perf_counter()
            c0 = time.process_time()
            try:
                report = self.experiment.run_experiment(config, out)
            except Exception as exc:  # a failed operation is counted, not fatal
                self.errors.append(f"{preset}: {type(exc).__name__}: {exc}")
                continue
            cpu += time.process_time() - c0
            wall += time.perf_counter() - t0
            reps += config.B + config.M + config.R
            self._check(i, preset, config, report, out)
        return wall, cpu, reps

    def _check(self, i, preset, config, report, out):
        expected = EXPECTED_VERDICT.get(preset, "PASS") if self.verdict_checked else None
        counts = {"B": config.B, "M": config.M, "R": config.R}
        problems = self.check_outputs(preset, counts, out, expected)
        digest = _law_digest(report)
        if self.digests.setdefault(i, digest) != digest:
            problems.append("laws differ from an earlier round of the same experiment")
        self.problems += [f"{preset}: {p}" for p in problems]


def _measure(run: Run, seconds: float) -> dict:
    wall = 0.0
    cpu = 0.0
    reps = 0
    start = time.perf_counter()
    while True:
        w, c, r = run.round()
        wall += w
        cpu += c
        reps += r
        if time.perf_counter() - start >= seconds:
            break
    print(f"wall-clock replications_per_s {reps / wall:.6g}", file=sys.stderr)
    return {"replications_per_s": {"value": reps / cpu, "unit": "1/s"}}


def _measure_traced(run: Run, seconds: float) -> dict:
    from tracing import Tracer

    untraced = []
    traced = []
    layers = []
    start = time.perf_counter()
    while True:
        untraced.append(run.round()[0])
        tracer = Tracer()
        with tracer.installed():
            traced.append(run.round()[0])
        layers.append(tracer.layer_metrics())
        if time.perf_counter() - start >= seconds:
            break
    metrics = {}
    for name, value in layers[0].items():
        unit = "s" if name.endswith("_s") else "count"
        metrics[name] = {"value": statistics.fmean(layer[name] for layer in layers), "unit": unit}
    metrics["trace.untraced_s"] = {"value": statistics.fmean(untraced), "unit": "s"}
    metrics["trace.overhead_s"] = {"value": statistics.fmean(traced) - statistics.fmean(untraced),
                                   "unit": "s"}
    return metrics


def _scratch_dir(prefix: str):
    """A directory under benchmarks/_out that is removed when the block ends."""
    OUT_BASE.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(prefix=prefix, dir=OUT_BASE)


def _run_workload(args) -> int:
    with _scratch_dir(f"{args.workload}-") as scratch:
        out_dir = Path(scratch)
        setup_s, configs, experiment = _setup(args.workload, args.seed, args.smoke, out_dir)
        run = Run(experiment, configs, out_dir, args.seed, args.smoke)
        if args.trace:
            metrics = _measure_traced(run, args.seconds)
        else:
            metrics = _measure(run, args.seconds)
            samples = [setup_s] + [_setup_in_child(args.workload, args.seed, args.smoke)
                                   for _ in range(SETUP_SAMPLES - 1)]
            metrics["setup_s"] = {"value": statistics.median(samples), "unit": "s"}
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics["peak_rss_mb"] = {"value": peak_kb / 1024.0, "unit": "MB"}
    for error in run.errors:
        print(f"FAILED {error}", file=sys.stderr)
    for problem in run.problems:
        print(f"CHECK FAILED {problem}", file=sys.stderr)
    print(json.dumps({"correct": not run.problems, "attempted": run.attempted,
                      "failed": len(run.errors), "metrics": metrics}))
    return 0


def _run_all(args) -> int:
    """Each workload in its own process, one after another, as a table."""
    results = {}
    status = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        if done.returncode != 0:
            print(f"{workload}: exit code {done.returncode}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(done.stdout.strip().splitlines()[-1])
        results[workload] = result
        status |= not result["correct"] or result["failed"] > 0
        print(f"{workload}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for name, metric in result["metrics"].items():
            print(f"  {name:44s} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="n = B = M = R = 200, for the benchmark's own tests")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "sieveboot" / "__init__.py").is_file():
        print(f"sieveboot sources not found under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return _run_all(args)
    if args.setup_only:
        with _scratch_dir("setup-") as scratch:
            print(json.dumps({"setup_s": _setup(args.workload, args.seed, args.smoke,
                                                Path(scratch))[0]}))
        return 0
    return _run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
