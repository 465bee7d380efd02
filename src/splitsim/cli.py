"""Command-line entry point: run, sweep, cost, and leakage verbs.

Exit codes: 0 success, 2 configuration error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

from .comm import METHODS, CostParams
from .errors import ConfigError, SplitSimError
from .harness import (
    ExperimentConfig,
    build_section,
    check_keys,
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
    check_keys(raw, ("experiment", "grid", "seeds"), "a sweep config")
    if not isinstance(raw.get("experiment"), dict):
        raise ConfigError("must be an object", field="experiment")
    seeds = raw.get("seeds") if args.seed is None else [args.seed]
    rows = sweep(raw["experiment"], raw.get("grid"), seeds, args.out)
    for row in rows:
        print(json.dumps(row, sort_keys=True))
    return EXIT_OK


def cost_setting(entry, index: int) -> tuple[str, CostParams]:
    """The ``(name, CostParams)`` pair of entry ``index`` of a cost config's
    settings, by default named after its index; ``entry`` stays as given."""
    field = f"settings[{index}]"
    if not isinstance(entry, dict):
        raise ConfigError("must be an object", field=field)
    name = entry.get("name", f"setting_{index}")
    if not isinstance(name, str):
        raise ConfigError(f"must be a string, got {name!r}", field=f"{field}.name")
    check_keys(entry, ["name", *(f.name for f in fields(CostParams))], field, f"{field}.")
    params = {key: value for key, value in entry.items() if key != "name"}
    return name, build_section(CostParams, params, field)


def cmd_cost(args) -> int:
    raw = load_config_dict(args.config, None, args.set)
    check_keys(raw, ("methods", "settings"), "a cost config")
    methods = raw.get("methods", list(METHODS))
    if not isinstance(methods, list) or not set(methods) <= set(METHODS):
        raise ConfigError(f"must be a list of {', '.join(METHODS)}", field="methods")
    settings = raw.get("settings")
    if "settings" in raw:
        if not isinstance(settings, list):
            raise ConfigError("must be a list of objects", field="settings")
        settings = [cost_setting(entry, i) for i, entry in enumerate(settings)]
    csv_text = emit_cost_report(methods, settings)
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


# verb: (handler, help, whether it runs an experiment and so takes --seed and needs --config)
VERBS = {
    "run": (cmd_run, "execute one configured experiment", True),
    "sweep": (cmd_sweep, "run a config grid over seeds", True),
    "cost": (cmd_cost, "emit the analytic cost table", False),
    "leakage": (cmd_leakage, "run with leakage scoring enabled", True),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splitsim",
        description="Deterministic split-learning protocol simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, experiment) in VERBS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=experiment, help="JSON config path")
        if experiment:
            p.add_argument("--seed", type=int, default=None, help="override protocol.seed")
        p.add_argument(
            "--set",
            action="append",
            metavar="KEY=VALUE",
            help="override a config field by dotted path (repeatable)",
        )
        p.add_argument("--out", default=None, help="directory for metrics output")
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SplitSimError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except MemoryError as exc:
        print(f"error: out of memory{f': {exc}' if str(exc) else ''}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
