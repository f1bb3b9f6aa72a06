"""Command-line entry point.

Subcommands: ``sweep`` (theory curves), ``hist`` (distributions at selected
times) and ``compare`` (Monte Carlo and photonic-imperfection error tables).
Exit codes: 0 on success, 2 for any invalid input (the message names the
offending key or flag), 3 when a numeric invariant fails: the first block of
times that fails a check ends the run, the message names that block's first
failing check and time, and no output file is left.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import ConfigError, RunConfig, parse_config
from .sweep import NumericInvariantError, emit_distributions, run_compare, run_sweep

_COMMANDS = {
    "sweep": (run_sweep, "write sweep.csv, realizations.csv and summary.json"),
    "hist": (emit_distributions, "write hist_dE.csv and hist_ds.csv"),
    "compare": (run_compare, "write mc_error.csv and, with --photonic, photonic_error.csv"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gate-energetics",
        description="Two-qubit gate energetics: sweeps, histograms and error tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", type=Path, default=None, help="config file path")
        cmd.add_argument("--out", type=Path, default=Path("out"), help="output directory")
    # only compare runs the photonic model; seed and samples come from the config
    sub.choices["compare"].add_argument(
        "--photonic", action="store_true", help="also write photonic_error.csv"
    )
    return parser


def _load_config(args: argparse.Namespace) -> RunConfig:
    """The config file (or the defaults), with ``photonic`` set by ``compare
    --photonic`` alone; the command validates it, as it does any caller's."""
    if args.config is None:
        cfg = RunConfig()
    else:
        try:
            cfg = parse_config(args.config)
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"--config: {exc}") from None
    cfg.photonic = getattr(args, "photonic", False)
    return cfg


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        command, _ = _COMMANDS[args.command]
        paths = command(cfg, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # _load_config reported --config; the rest only writes outputs
        print(f"config error: --out: {exc}", file=sys.stderr)
        return 2
    except NumericInvariantError as exc:
        print(f"numeric invariant violated: {exc}", file=sys.stderr)
        return 3
    for path in paths.values():
        print(path)
    return 0


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
