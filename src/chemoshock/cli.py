"""Command-line entry point.

Subcommands:
    run <cfg> --out <dir> [--emit-c]
    wave <cfg>                 print wave quantities only
    sweep <cfg> --axis <[section.]key> --values <csv-list> --out <dir>
    validate <cfg>             check config and jump-condition residuals

Every scenario value comes from the config file.  [model] needs D and chi, or mu
and xi: a missing one follows from chi = mu*xi (mu = 1 if chi is alone).  Booleans
are 1/yes/true/on or 0/no/false/off.  A non-finite number is a config error.

Exit codes: 0 success, 2 config error, 3 numerical failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import gc
import sys

from .core import ConfigError, NumericalError
from .scenarios import (
    build_initial,
    manifest_line,
    parse_scenario,
    read_config,
    run_scenario,
    sweep,
    wave_summary,
    wire_reference,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


def _wave_block(cfg) -> str:
    """The manifest's wave and jump-condition lines for a scenario."""
    state0 = build_initial(cfg)
    summary = wave_summary(cfg, state0, wire_reference(state0, cfg.params))
    return "\n".join(manifest_line(key, val) for key, val in summary.items())


def _cmd_run(args) -> int:
    cfg = parse_scenario(args.config)
    manifest, _ = run_scenario(cfg, args.out, emit_c=args.emit_c)
    print(f"wrote {args.out}/manifest.txt ({manifest['snapshot_count']} snapshots, "
          f"{manifest['step_count']} steps, {manifest['wall_time_s']:.2f} s)")
    if manifest.get("boundary_warning"):
        print("warning: wave front approached a domain boundary", file=sys.stderr)
    return EXIT_OK


def _cmd_wave(args) -> int:
    cfg = parse_scenario(args.config)
    print(_wave_block(cfg))
    return EXIT_OK


def _cmd_validate(args) -> int:
    cfg = parse_scenario(args.config)
    block = _wave_block(cfg)
    print(f"scenario '{cfg.name}' ok: {cfg.grid.n_nodes} nodes, "
          f"t_end={cfg.scheme.t_end}, initial_kind={cfg.initial_kind}")
    print(block)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    texts = [text.strip() for text in args.values.split(",") if text.strip()]
    manifests = sweep(read_config(args.config), args.config, args.axis, texts, args.out)
    print(f"swept {args.axis} over {len(texts)} values "
          f"({len(manifests)} succeeded); see {args.out}/sweep.csv")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chemoshock",
        description="1D parabolic-hyperbolic chemotaxis lab: waves, runs, diagnostics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario and write outputs")
    p_run.add_argument("config")
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--emit-c", action="store_true",
                       help="append the attractant concentration as a 4th snapshot column")
    p_run.set_defaults(fn=_cmd_run)

    p_wave = sub.add_parser("wave", help="print wave quantities for a scenario")
    p_wave.add_argument("config")
    p_wave.set_defaults(fn=_cmd_wave)

    p_val = sub.add_parser("validate", help="check a scenario without running it")
    p_val.add_argument("config")
    p_val.set_defaults(fn=_cmd_validate)

    p_sweep = sub.add_parser("sweep", help="run a one-axis parameter sweep")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--axis", required=True, metavar="[SECTION.]KEY",
                         help="the config key to vary, e.g. n_nodes or initial.v_amplitude")
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated list, e.g. 0,0.5,1,2")
    p_sweep.add_argument("--out", required=True)
    p_sweep.set_defaults(fn=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    finally:
        if argv is None:
            # the process entry point: the interpreter exits next, and frozen
            # objects are left out of its final garbage collections
            gc.freeze()


if __name__ == "__main__":
    raise SystemExit(main())
