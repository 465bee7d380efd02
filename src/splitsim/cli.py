"""Command-line entry point: run, sweep, cost, and leakage verbs.

Exit codes: 0 success, 2 configuration error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .comm import METHODS, CostParams
from .errors import ConfigError, SplitSimError
from .harness import (
    ExperimentConfig,
    build_section,
    emit_cost_report,
    run_experiment,
    set_by_path,
    sweep,
)
from .protocols import KINDS

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _parse_value(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def load_config_dict(path: str | None, seed, overrides) -> dict:
    if path:
        try:
            with open(path) as f:
                raw = json.load(f)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}")
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
    else:
        raw = {}
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, text = item.split("=", 1)
        set_by_path(raw, key, _parse_value(text))
    if seed is not None:
        set_by_path(raw, "protocol.seed", seed)
    return raw


def cmd_run(args) -> int:
    raw = load_config_dict(args.config, args.seed, args.set)
    cfg = ExperimentConfig.from_dict(raw)
    result = run_experiment(cfg, args.out)
    row = result.summary_row()
    print(json.dumps(row, sort_keys=True))
    return EXIT_OK


def cmd_sweep(args) -> int:
    raw = load_config_dict(args.config, None, args.set)
    grid = raw.pop("grid", None)
    seeds = raw.pop("seeds", None)
    base = raw.pop("experiment", raw)
    if base is not raw and raw:
        raise ConfigError("unknown key; a sweep config with an experiment holds only "
                          "experiment, grid and seeds", field=next(iter(raw)))
    if not isinstance(grid, dict) or not grid:
        raise ConfigError("sweep config needs a non-empty 'grid' object", field="grid")
    if not isinstance(seeds, list) or not seeds:
        raise ConfigError("sweep config needs a non-empty 'seeds' list", field="seeds")
    if args.seed is not None:
        seeds = [args.seed]
    rows = sweep(base, grid, seeds, args.out)
    for row in rows:
        print(json.dumps(row, sort_keys=True))
    return EXIT_OK


def cmd_cost(args) -> int:
    if args.config:
        raw = load_config_dict(args.config, None, args.set)
        methods = raw.get("methods", list(METHODS))
        if not isinstance(methods, list) or not set(methods) <= set(METHODS):
            raise ConfigError(f"must be a list of {', '.join(METHODS)}", field="methods")
        settings, names = None, None
        if "settings" in raw:
            entries = raw["settings"]
            if not isinstance(entries, list):
                raise ConfigError("must be a list of objects", field="settings")
            names = [e.pop("name", f"setting_{i}") if isinstance(e, dict) else None
                     for i, e in enumerate(entries)]
            settings = [build_section(CostParams, e, f"settings[{i}]")
                        for i, e in enumerate(entries)]
        csv_text = emit_cost_report(methods, settings, names)
    else:
        csv_text = emit_cost_report()
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "cost_report.csv").write_text(csv_text)
        print(str(out / "cost_report.csv"))
    else:
        print(csv_text, end="")
    return EXIT_OK


def cmd_leakage(args) -> int:
    raw = load_config_dict(args.config, args.seed, args.set)
    set_by_path(raw, "leakage.enabled", True)
    cfg = ExperimentConfig.from_dict(raw)
    if not KINDS[cfg.protocol.kind].server:
        raise ConfigError(f"{cfg.protocol.kind} exchanges no smashed data; pick a split protocol",
                          field="protocol.kind")
    result = run_experiment(cfg, args.out)
    scores = [r.leakage_score for r in result.records]
    print(
        json.dumps(
            {
                "run_id": cfg.resolved_run_id(),
                "final_leakage_score": scores[-1],
                "per_epoch": scores,
            },
            sort_keys=True,
        )
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splitsim",
        description="Deterministic split-learning protocol simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, need_config=True):
        p.add_argument("--config", required=need_config, help="JSON config path")
        p.add_argument("--seed", type=int, default=None, help="override protocol.seed")
        p.add_argument(
            "--set",
            action="append",
            metavar="KEY=VALUE",
            help="override a config field by dotted path (repeatable)",
        )
        p.add_argument("--out", default=None, help="directory for metrics output")

    p_run = sub.add_parser("run", help="execute one configured experiment")
    common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a config grid over seeds")
    common(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_cost = sub.add_parser("cost", help="emit the analytic cost table")
    common(p_cost, need_config=False)
    p_cost.set_defaults(func=cmd_cost)

    p_leak = sub.add_parser("leakage", help="run with leakage scoring enabled")
    common(p_leak)
    p_leak.set_defaults(func=cmd_leakage)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SplitSimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
