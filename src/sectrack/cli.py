"""Command-line entry point for the simulator scenarios."""

from __future__ import annotations

import argparse
import sys

from sectrack.config import ConfigError, parse_config
from sectrack.scenarios import run

# Flags that spell ``--set sim.<key>=VALUE``; the config checks their values.
SIM_FLAGS = {"master_seed": "U64", "trials": "N", "scenario": "NAME"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sectrack",
        description="Deterministic secured-tracking cluster simulator",
    )
    parser.add_argument("--config", metavar="PATH", help="scenario config file")
    parser.add_argument("--out", metavar="DIR", default="out", help="output directory")
    for key, metavar in SIM_FLAGS.items():
        flag = "--" + key.replace("_", "-")
        parser.add_argument(flag, metavar=metavar, help=f"same as --set sim.{key}={metavar}")
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
    try:
        overrides: dict[str, str] = {}
        for item in args.overrides:
            if "=" not in item:
                raise ConfigError(f"--set expects SECTION.KEY=VALUE, got '{item}'")
            dotted, _, value = item.partition("=")
            overrides[dotted.strip()] = value.strip()
        # The flags go in after the --set items, so each wins over its key's --set.
        for key in SIM_FLAGS:
            if (value := getattr(args, key)) is not None:
                overrides[f"sim.{key}"] = value
        cfg = parse_config(args.config, overrides)
        return run(cfg.scenario, cfg, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
