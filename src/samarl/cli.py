"""Command-line entry point: train / eval / plot / compare.

Precedence for the train command: built-in defaults, then the --config file,
then explicit command-line flags.
"""

from __future__ import annotations

import argparse
import sys

from .harness import (
    RunConfig,
    apply_config_mapping,
    compare,
    emit_plot,
    evaluate,
    load_run_config,
    train,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="samarl",
        description="Multi-agent continuous-control training framework "
                    "(MADDPG / MATD3 / SA- and DSA- attention variants)")
    sub = parser.add_subparsers(dest="command", required=True)

    tr = sub.add_parser("train", help="run a training experiment")
    tr.add_argument("--scenario", choices=["coop_nav", "predator_prey"])
    tr.add_argument("--algo", help="maddpg | matd3 | sa-maddpg | sa-matd3 | "
                                   "dsa-maddpg | dsa-matd3")
    tr.add_argument("--agents", type=int)
    tr.add_argument("--episodes", type=int)
    tr.add_argument("--seed", type=int)
    tr.add_argument("--out", help="output directory for this run")
    tr.add_argument("--config", help="key = value config file")
    tr.add_argument("--prey", help="'scripted' or a prey-actor checkpoint path")

    ev = sub.add_parser("eval", help="evaluate a checkpoint without training")
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--episodes", type=int, default=100)
    ev.add_argument("--seed", type=int, default=0)
    ev.add_argument("--prey", default="scripted")

    pl = sub.add_parser("plot", help="render learning curves from metrics CSVs")
    pl.add_argument("csvs", nargs="+", help="metrics.csv paths")
    pl.add_argument("--out", default="curves.svg")
    pl.add_argument("--window", type=int, default=1000)

    cp = sub.add_parser("compare", help="rank finished runs of one scenario")
    cp.add_argument("runs", nargs="+", help="run directories")
    return parser


def _train_config(args) -> RunConfig:
    cfg = RunConfig()
    if args.config:
        cfg = load_run_config(args.config, base=cfg)
    flags = {name: getattr(args, name)
             for name in ("scenario", "algo", "agents", "episodes", "seed",
                          "out", "prey")
             if getattr(args, name) is not None}
    return apply_config_mapping(cfg, {k: str(v) for k, v in flags.items()})


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "train":
        out = train(_train_config(args))
        print(f"run complete: {out}")
        return 0

    if args.command == "eval":
        stats = evaluate(args.checkpoint, args.episodes, args.seed, prey=args.prey)
        for i, (mean, std) in enumerate(zip(stats["mean"], stats["std"])):
            print(f"type{i}: mean episode reward {mean:.4f} +- {std:.4f} "
                  f"over {stats['episodes']} episodes")
        return 0

    if args.command == "plot":
        out = emit_plot(args.csvs, args.out, window=args.window)
        print(f"wrote {out}")
        return 0

    if args.command == "compare":
        print(compare(args.runs))
        return 0

    return 1


if __name__ == "__main__":
    sys.exit(main())
