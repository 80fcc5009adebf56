"""Command-line interface for the lane pipeline.

Subcommands mirror the pipeline stages (generate, encode, predict, decode,
cluster, eval, loss, pipeline). Exit codes: 0 on success, 2 for
configuration problems (bad flags, a ConfigError), 3 for data problems (a
SchemaError on a missing or malformed stage file, or an OSError); any other
exception is a fault of the program and ends in its traceback. The
BEVLANES_OUTPUT_DIR environment variable overrides the configured output
directory; no other setting is read from the environment.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

from .clustering import ClusterParams
from .config import ConfigError, PipelineConfig
from .io import SchemaError, load_json
from .pipeline import MAX_JOBS, STAGES, cmd_eval, cmd_loss, cmd_pipeline, run_stage

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3

ENV_OUTPUT_DIR = "BEVLANES_OUTPUT_DIR"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bevlanes",
        description="Tile-grid 3D lane pipeline: synthetic scenes, encoding, "
                    "noisy oracle predictions, decoding, clustering, evaluation.")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, doc in [
        ("generate", "generate scene files"),
        ("encode", "encode scenes into target grids"),
        ("predict", "run the noisy oracle over target grids"),
        ("decode", "decode prediction grids into segments"),
        ("cluster", "group segments into lanes"),
        ("eval", "evaluate lanes against scenes"),
        ("loss", "compute loss terms for predictions vs targets"),
        ("pipeline", "run every stage and emit report + plots"),
    ]:
        sub = subs.add_parser(name, help=doc)
        sub.add_argument("--config", metavar="PATH", help="pipeline config JSON file")
        sub.add_argument("--seed", type=int, metavar="U64", help="override master_seed")
        sub.add_argument("--out", metavar="DIR", help="override output_dir")
        sub.add_argument("--jobs", type=int, default=1, metavar="N",
                         help=f"processes that share the scenes, 1 to {MAX_JOBS}")
        if name in ("cluster", "pipeline"):
            methods = ClusterParams.__dataclass_fields__["method"].metadata["one of"]
            sub.add_argument("--method", choices=methods, help="override cluster.method")
        if name == "loss":
            sub.add_argument("--check-grads", action="store_true",
                             help="append a finite-difference gradient summary")
    return parser


def load_config(args: argparse.Namespace) -> PipelineConfig:
    if args.config is not None:
        config = PipelineConfig.from_dict(load_json(args.config))
    else:
        config = PipelineConfig()
    if args.seed is not None:
        config = replace(config, master_seed=args.seed)
    if getattr(args, "method", None) is not None:
        config = replace(config, cluster=replace(config.cluster, method=args.method))
    out = args.out or os.environ.get(ENV_OUTPUT_DIR)
    if out:
        config = replace(config, output_dir=out)
    return config


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args)
        if args.command in STAGES:
            paths = run_stage(config, args.command, args.jobs)
            print(f"wrote {len(paths)} files to "
                  f"{Path(config.output_dir) / STAGES[args.command].dir}")
        elif args.command == "loss":
            sys.stdout.write(cmd_loss(config, args.check_grads, args.jobs))
        else:
            report = (cmd_eval(config, args.jobs) if args.command == "eval" else
                      cmd_pipeline(config, args.jobs))
            print(f"map={report.map_score!r} recall@{report.operating_iou:g}="
                  f"{report.recall_at_reference!r} (artifacts in {config.output_dir})")
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (SchemaError, OSError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
