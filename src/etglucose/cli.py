"""Command-line entry point.

    etglucose train  --config c.yaml [--seed N] [--out-dir D]
    etglucose eval   --config c.yaml [--seed N] [--out-dir D]
    etglucose matrix --config m.yaml [--out-dir D]

Exit codes: 0 success, 1 configuration error, 2 runtime failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import logging
import sys
import traceback

from . import harness
from .config import ConfigError, load_config, load_matrix_config


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="etglucose",
        description="Train and evaluate event-triggered insulin controllers "
                    "on a simulated artificial pancreas.",
    )
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, seed_flag: bool = True):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="YAML config file")
        p.add_argument("--out-dir", default="runs",
                       help="output base directory (default: runs)")
        if seed_flag:
            p.add_argument("--seed", type=int, default=None,
                           help="run only this seed instead of the config list")
        return p

    add("train", "train the configured method for each seed")
    add("eval", "greedy evaluation of trained runs on the fixed scenarios")
    add("matrix", "run the full method x patient sweep", seed_flag=False)
    return parser


def _with_seed(cfg, seed: int | None):
    """cfg with its seed list replaced by --seed, checked like the list."""
    try:
        return cfg if seed is None else dataclasses.replace(cfg, seeds=(seed,))
    except ValueError as exc:
        raise ConfigError(f"--seed: {exc}") from None


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        if args.command == "matrix":
            matrix = load_matrix_config(args.config)
            path = harness.run_matrix(matrix, args.out_dir)
            print(path)
            return 0
        cfg = _with_seed(load_config(args.config), args.seed)
        if args.command == "train":
            for rd in harness.run_train(cfg, args.out_dir):
                print(rd)
        elif args.command == "eval":
            for path in harness.run_eval(cfg, args.out_dir):
                print(path)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure: missing files, bad checkpoints
        # harness.naming_run notes which run and episode or scenario failed
        notes = "".join(f" ({note})" for note in getattr(exc, "__notes__", ()))
        print(f"error: {exc}{notes}", file=sys.stderr)
        if args.verbose:
            print(traceback.format_exc(), file=sys.stderr, end="")
        return 2


if __name__ == "__main__":
    sys.exit(main())
