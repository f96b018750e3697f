"""Command-line entry point for the simulator scenarios."""

from __future__ import annotations

import argparse
import sys

from sectrack.config import SCENARIO_NAMES, ConfigError, parse_config
from sectrack.scenarios import run


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sectrack",
        description="Deterministic secured-tracking cluster simulator",
    )
    parser.add_argument("--config", metavar="PATH", help="scenario config file")
    parser.add_argument("--out", metavar="DIR", default="out", help="output directory")
    parser.add_argument("--master-seed", metavar="U64", type=int, help="master random seed")
    parser.add_argument("--trials", metavar="N", type=int, help="Monte Carlo trial count")
    parser.add_argument(
        "--scenario", metavar="NAME", choices=SCENARIO_NAMES, help="scenario to run"
    )
    parser.add_argument(
        "--set",
        metavar="SECTION.KEY=VALUE",
        action="append",
        default=[],
        dest="overrides",
        help="override one config value (repeatable)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    overrides: dict[str, str] = {}
    for item in args.overrides:
        if "=" not in item:
            print(f"--set expects SECTION.KEY=VALUE, got '{item}'", file=sys.stderr)
            return 2
        dotted, _, value = item.partition("=")
        overrides[dotted.strip()] = value.strip()
    if args.master_seed is not None:
        overrides["sim.master_seed"] = str(args.master_seed)
    if args.trials is not None:
        overrides["sim.trials"] = str(args.trials)
    if args.scenario is not None:
        overrides["sim.scenario"] = args.scenario

    try:
        cfg = parse_config(args.config, overrides)
        return run(cfg.scenario, cfg, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
