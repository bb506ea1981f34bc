"""Command-line harness.

Subcommands:
  run          run an experiment from a JSON config file
  preset       run a named built-in experiment
  list         list built-in presets
  asymptotics  print the closed-form asymptotic targets for a model/statistic

`run` and `preset` exit 0 exactly when every check passes. The verdict,
PASS or FAIL-AS-PREDICTED, is the paper's prediction for the model and
statistic, so a predicted bootstrap failure that does occur still exits 0.
"""
from __future__ import annotations

import argparse
import sys

from .dgp import model_from_json
from .experiment import (
    ConfigError,
    ExperimentConfig,
    compute_targets,
    list_presets,
    load_json,
    preset_config,
    run_experiment,
)
from .statistics import statistic_from_config

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sieveboot",
        description="Autoregressive-sieve bootstrap Monte Carlo harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a JSON config")
    p_run.add_argument("--config", required=True, help="path to a JSON experiment config")

    p_preset = sub.add_parser("preset", help="run a built-in experiment")
    p_preset.add_argument("name", help="preset name (see `sieveboot list`)")

    for p, source in ((p_run, "config"), (p_preset, "preset")):
        p.add_argument("--seed", type=int, default=None, help=f"override the {source} seed")
        p.add_argument("--out", default=None, help="output directory for report/summary/laws")

    sub.add_parser("list", help="list built-in presets")

    p_asym = sub.add_parser("asymptotics",
                            help="print closed-form targets for a model/statistic")
    p_asym.add_argument("--model", required=True,
                        help="model JSON document or path to one")
    p_asym.add_argument("--statistic", required=True,
                        help="statistic JSON document or a bare statistic name")
    return parser


def _print_report(report) -> None:
    print(f"experiment: {report.experiment}  statistic: {report.statistic}  "
          f"n={report.n}  p={report.counts['p_used']}")
    for m in ("bootstrap", "oracle", "truth"):
        print(f"  var[{m}] = {report.variances[m]:.6g}")
    for pair, value in report.dk.items():
        print(f"  d_K[{pair.replace('_', ' vs ')}] = {value:.4f}")
    for tid, value in report.targets.items():
        print(f"  target {tid} = {value:.6g}")
    for c in report.checks:
        status = "pass" if c["passed"] else "fail"
        unexpected = "" if c["passed"] else "  [UNEXPECTED]"
        print(f"  check {c['id']}: {status} (value {c.get('value', float('nan')):.6g}){unexpected}")
    print(f"  verdict: {report.bootstrap_verdict}")


def _cmd_asymptotics(args) -> int:
    model = model_from_json(load_json(args.model))
    stat_doc = args.statistic.strip()
    stat_cfg = load_json(stat_doc) if stat_doc.startswith(("{", "[")) else {"name": stat_doc}
    statistic = statistic_from_config(stat_cfg)
    targets = compute_targets(model, statistic)
    if not targets:
        print(f"no closed-form targets for statistic {statistic.name!r} under this model")
        return 1
    for tid, value in targets.items():
        print(f"{tid} = {value:.10g}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "list":
            for name in list_presets():
                print(name)
            return 0
        if args.command in ("run", "preset"):
            overrides = {} if args.seed is None else {"seed": args.seed}
            config = (ExperimentConfig.from_json(args.config, **overrides) if args.command == "run"
                      else preset_config(args.name, **overrides))
            report = run_experiment(config, args.out)
            _print_report(report)
            return 0 if report.all_as_expected else 1
        return _cmd_asymptotics(args)  # the one command left
    except (ConfigError, ValueError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
