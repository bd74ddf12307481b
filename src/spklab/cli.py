"""Command-line driver.

Subcommands; each takes --config, --seed, --out and, except gen-data, --data:

    gen-data     generate a synthetic dataset into --out
    train        train one configuration, save checkpoints and dev EERs
    grid-search  pick the best configuration on the dev set
    evaluate     score test trials for a --checkpoint (raw and s-norm)
    compare      run the full protocol per loss and emit a comparison CSV
"""

import argparse
import logging
import os
import sys

from spklab import dataset as ds
from spklab import experiment, training
from spklab.config import dataset_spec_from_config, empty_config, parse_config
from spklab.errors import ConfigError, DomainError, TrainingDiverged


def cmd_gen_data(args, config, dataset) -> int:
    spec = dataset_spec_from_config(config, seed=args.seed)
    ds.gen_synthetic_dataset(spec, args.out)
    total = spec.n_speakers_total
    print(f"wrote dataset with {total} speakers to {args.out}")
    return 0


def cmd_train(args, config, dataset) -> int:
    kind = config.get("loss", "kind", training.TrainConfig.loss_kind)
    train_config = experiment.base_config(kind, dataset, args.seed, config)

    os.makedirs(args.out, exist_ok=True)
    checkpoints, best = training.train_and_select(
        dataset.train_pool(), train_config, dataset.eval_pack("dev"))

    training.save_checkpoint(os.path.join(args.out, "best.ckpt"), best, train_config)
    with open(os.path.join(args.out, "dev_eer_curve.txt"), "w") as fh:
        for ckpt in checkpoints:
            fh.write(f"{ckpt.epoch} {ckpt.dev_eer!r}\n")
    print(f"best epoch {best.epoch} dev EER {best.dev_eer:.4f}")
    return 0


def cmd_grid_search(args, config, dataset) -> int:
    kind = config.get("loss", "kind", training.TrainConfig.loss_kind)
    grid = experiment.default_grid(kind, dataset, args.seed, config)
    budget = experiment.grid_budget(config.get("training", "grid_epochs"), grid[0].epochs)

    chosen = training.grid_search(dataset.train_pool(), grid, budget, dataset.eval_pack("dev"))

    os.makedirs(args.out, exist_ok=True)
    experiment.write_config_echo(os.path.join(args.out, "chosen_config.txt"), chosen)
    print(f"chosen: lr={chosen.learning_rate} speakers={chosen.speakers_per_batch} "
          f"chunks={chosen.chunks_per_speaker}")
    return 0


def cmd_evaluate(args, config, dataset) -> int:
    ckpt, _ = training.load_checkpoint(args.checkpoint)
    opts = experiment.eval_options(config)
    os.makedirs(args.out, exist_ok=True)

    raw, norm = experiment.evaluate_encoder(ckpt.encoder, dataset, args.out, opts, args.seed)
    print(f"raw EER {raw.eer:.4f} [{raw.ci_low:.4f}, {raw.ci_high:.4f}]")
    if norm is not None:
        print(f"s-norm EER {norm.eer:.4f} (top_n={norm.top_n})")
    return 0


def cmd_compare(args, config, dataset) -> int:
    results = experiment.compare_losses(dataset, args.out, args.seed, config)
    for kind, result in results:
        if result is None:
            print(f"{kind}: failed")
        else:
            norm = "n/a" if result.normalized is None else f"{result.normalized.eer:.4f}"
            print(f"{kind}: raw {result.raw.eer:.4f} snorm {norm}")
    print(f"comparison table: {os.path.join(args.out, 'compare.csv')}")
    return 0


COMMANDS = {
    "gen-data": ("generate a synthetic dataset", cmd_gen_data),
    "train": ("train one configuration", cmd_train),
    "grid-search": ("pick the best configuration on dev", cmd_grid_search),
    "evaluate": ("score test trials for a checkpoint", cmd_evaluate),
    "compare": ("compare loss functions end to end", cmd_compare),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spklab",
        description="Metric-learning laboratory for speaker verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, handler) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="path to a key = value config file")
        p.add_argument("--seed", type=int, default=0, help="base RNG seed")
        p.add_argument("--out", required=True, help="output directory")
        if name != "gen-data":
            p.add_argument("--data", required=True, help="dataset directory (from gen-data)")
        if name == "evaluate":
            p.add_argument("--checkpoint", required=True, help="checkpoint file to evaluate")
        p.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        if args.seed < 0:
            raise ConfigError(f"--seed must be a non-negative integer, got {args.seed}")
        config = empty_config() if args.config is None else parse_config(args.config)
        dataset = ds.load_dataset(args.data) if "data" in args else None
        return args.func(args, config, dataset)
    except (ConfigError, DomainError, TrainingDiverged, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
