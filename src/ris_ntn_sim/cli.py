"""Command-line interface: sweep runner, config checker, link-budget helper."""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .config import _PARSERS, SimConfig, _parse_keys, format_config, path_loss_db
from .errors import ConfigError, SimulatorError


def __getattr__(name: str):
    # the sweep, and numpy with it, loads on first use, so validate and budget start without it
    if name not in ("emit_csv", "run_sweep"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import sweep
    value = globals()[name] = getattr(sweep, name)
    return value


def _load_config(path: Path | None, **overrides) -> SimConfig:
    """The one SimConfig of a command: the file's keys, those of the given overrides replaced."""
    try:
        # no file is an empty document; a leading BOM is not part of the first key
        text = "" if path is None else path.read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return SimConfig(**{**_parse_keys(text), **{k: v for k, v in overrides.items() if v is not None}})


def _cmd_sweep(args) -> int:
    # --arch is spelled as the file's value, and parsed by the same parser
    arch = None if args.arch is None else _PARSERS["architectures"]("architectures", args.arch)
    cfg = _load_config(args.config, trials=args.trials, seed=args.seed, architectures=arch)
    # through the module, whose __getattr__ binds each name on first use, and which a tracer may rebind
    cli = sys.modules[__name__]
    with cli.run_sweep(cfg) as records:
        count = cli.emit_csv(records, args.out)
    print(f"wrote {count} records to {args.out}")
    return 0


def _cmd_validate(args) -> int:
    cfg = _load_config(args.config)
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
