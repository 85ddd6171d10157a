"""Command-line interface: sweep runner, config checker, link-budget helper."""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import replace
from pathlib import Path

from .channel_model import build_geometry, path_loss_db
from .config import ConfigError, SimConfig, format_config, parse_config
from .errors import SimulatorError
from .sweep import emit_csv, run_sweep


def _load_config(path: Path | None) -> SimConfig:
    if path is None:
        return SimConfig()
    try:
        text = path.read_text(encoding="utf-8-sig")  # a leading BOM is not part of the first key
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_config(text)


def _cmd_sweep(args) -> int:
    cfg = _load_config(args.config)
    overrides = {}
    if args.trials is not None:
        overrides["trials"] = args.trials
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.arch is not None:
        overrides["architectures"] = tuple(tok.strip() for tok in args.arch.split(","))
    if overrides:
        cfg = replace(cfg, **overrides)
    with run_sweep(cfg) as records:
        count = emit_csv(records, args.out, cfg)
    print(f"wrote {count} records to {args.out}")
    return 0


def _cmd_validate(args) -> int:
    cfg = _load_config(args.config)
    cfg.link_budget(build_geometry(cfg))
    print("config ok")
    print(format_config(cfg))
    return 0


def _cmd_budget(args) -> int:
    print(f"path_loss_db = {path_loss_db(args.distance_m, args.freq_hz):.10g}")
    return 0


@functools.cache  # parsing leaves the parser as it was, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ris-ntn-sim",
        description="Simulate a relay-surface-assisted satellite downlink and "
                    "sweep energy efficiency over the element count.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="run the Monte-Carlo sweep and write CSV")
    sweep.add_argument("--config", type=Path, help="config file (defaults apply when omitted)")
    sweep.add_argument("--out", type=Path, required=True, help="output CSV path")
    sweep.add_argument("--trials", type=int, help="override trial count")
    sweep.add_argument("--seed", type=int, help="override run seed")
    sweep.add_argument("--arch", help="override architectures, e.g. sc,fc,gc:4")
    sweep.set_defaults(func=_cmd_sweep)

    validate = sub.add_parser("validate", help="parse and constraint-check a config file")
    validate.add_argument("--config", type=Path, required=True)
    validate.set_defaults(func=_cmd_validate)

    budget = sub.add_parser("budget", help="print one-hop free-space path loss in dB")
    budget.add_argument("--distance-m", type=float, required=True)
    budget.add_argument("--freq-hz", type=float, required=True)
    budget.set_defaults(func=_cmd_budget)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"ris-ntn-sim: error: config: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (SimulatorError, OSError) as exc:
        print(f"ris-ntn-sim: error: runtime: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
