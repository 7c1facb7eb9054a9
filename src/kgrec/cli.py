"""Command-line entry point.

Subcommands: ``preprocess``, ``build-cache``, ``train``, ``evaluate``,
``ablate``, ``sweep``.  Exit codes: 0 success, 1 input error, 2 numeric abort.
Every command writes the effective configuration into its output directory.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import graph
from .autodiff import (CheckpointError, NumericError, load_checkpoint,
                       read_checkpoint_meta, save_checkpoint)
from .config import RunConfig, load_config, save_config
from .evaluation import evaluate
from .graph import InputError
from .model import init_params
from .sampling import WalkCache, build_walk_cache
from .training import train


def _add_config_args(sub):
    sub.add_argument("--config", help="INI config file")
    sub.add_argument("--set", dest="overrides", action="append", default=[],
                     metavar="KEY=VALUE", help="override a config key")


def _config_from(args) -> RunConfig:
    """The config file, then ``--set`` overrides, then ``--seed``."""
    seed = getattr(args, "seed", None)
    return load_config(args.config, args.overrides + ([] if seed is None else [f"seed={seed}"]))


def _echo_config(cfg: RunConfig, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    save_config(cfg, os.path.join(out_dir, "config.ini"))


def _registry_for(cfg: RunConfig, store, kg):
    # shape-only init; a checkpoint load overwrites every value
    return init_params(cfg.model_config(), store.user_count, kg.entity_count,
                       kg.relation_embedding_count, np.random.default_rng(0))


def _checkpoint_meta(cfg: RunConfig, store, kg) -> dict:
    return {**dataclasses.asdict(cfg.model_config()), "n_users": store.user_count,
            "n_entities": kg.entity_count,
            "n_relations": kg.relation_embedding_count}


def cmd_preprocess(args) -> int:
    cfg = _config_from(args)
    store, id_maps = graph.load_interactions(args.ratings, cfg.threshold)
    kg, item_entities = graph.load_kg(args.kg, args.item_map, id_maps)
    store = graph.split_interactions(store, (0.6, 0.2, 0.2), cfg.seed)
    graph.save_dataset(args.out, store, kg, item_entities, id_maps)
    _echo_config(cfg, args.out)
    stats = graph.dataset_stats(store, kg)
    stats["density"] = f"{stats['density'] * 100:.3f}%"
    for key, value in stats.items():  # users .. triples, then the splits
        print(f"{key}\t{value}")
    return 0


def cmd_build_cache(args) -> int:
    cfg = _config_from(args)
    store, kg, item_entities, _ = graph.load_dataset(args.dataset)
    cache = build_walk_cache(kg, item_entities, cfg.walk_config(), cfg.seed)
    cache.save(args.out)
    save_config(cfg, os.path.abspath(args.out) + ".config.ini")
    print(f"cached walk contexts for {cache.item_count} items")
    return 0


def cmd_train(args) -> int:
    cfg = _config_from(args)
    store, kg, item_entities, _ = graph.load_dataset(args.dataset)
    cache = WalkCache.load(args.cache)
    params, report = train(store, kg, item_entities, cache, cfg.model_config(),
                           cfg.train_config(), eval_cfg=cfg.eval_config(),
                           log=lambda msg: print(msg, file=sys.stderr))
    os.makedirs(args.out, exist_ok=True)
    save_checkpoint(os.path.join(args.out, "checkpoint.bin"), params,
                    _checkpoint_meta(cfg, store, kg))
    with open(os.path.join(args.out, "train_report.tsv"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(report.report_lines()) + "\n")
    with open(os.path.join(args.out, "timings.tsv"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(report.timing_lines()) + "\n")
    _echo_config(cfg, args.out)
    print(f"best epoch {report.best_epoch} valid hr@20 {report.best_valid_hr20!r}")
    return 0


def cmd_evaluate(args) -> int:
    cfg = _config_from(args)
    meta = read_checkpoint_meta(args.checkpoint)
    # the run's config is valid, so a stored one that ModelConfig refuses differs from it
    for name, value in dataclasses.asdict(cfg.model_config()).items():
        if meta[name] != value:
            raise CheckpointError(f"{args.checkpoint}: trained with {name}={meta[name]!r}, "
                                  f"this run has {name}={value!r}")
    store, kg, item_entities, _ = graph.load_dataset(args.dataset)
    cache = WalkCache.load(args.cache)
    params = _registry_for(cfg, store, kg)
    load_checkpoint(args.checkpoint, params)
    report = evaluate(params, cfg.model_config(), store, kg, item_entities, cache,
                      cfg.eval_config(), split=args.split, seed=cfg.seed)
    lines = report.to_lines()
    if args.out:
        out_dir = os.path.dirname(os.path.abspath(args.out))
        os.makedirs(out_dir, exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        save_config(cfg, os.path.join(out_dir, "eval_config.ini"))
    print("\n".join(lines))
    return 0


_ABLATION_VARIANTS = (
    ("full", {}),
    ("no_local", {"disable_local": True}),
    ("no_nonlocal", {"disable_nonlocal": True}),
    ("no_user_attention", {"disable_user_attention": True}),
)


def cmd_ablate(args) -> int:
    cfg = _config_from(args)
    store, kg, item_entities, _ = graph.load_dataset(args.dataset)
    cache = WalkCache.load(args.cache)
    os.makedirs(args.out, exist_ok=True)
    rows = []
    for name, flags in _ABLATION_VARIANTS:
        # the table reports HR@20
        variant = dataclasses.replace(cfg, K=tuple(sorted(set(cfg.K) | {20})), **flags)
        params, _ = train(store, kg, item_entities, cache, variant.model_config(),
                          variant.train_config(), eval_cfg=variant.eval_config())
        report = evaluate(params, variant.model_config(), store, kg, item_entities,
                          cache, variant.eval_config(), split="test",
                          seed=variant.seed)
        rows.append((name, report.metrics[20]["hit_ratio"]))
    lines = ["variant\thr20"] + [f"{name}\t{value!r}" for name, value in rows]
    with open(os.path.join(args.out, "ablate.tsv"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    _echo_config(cfg, args.out)
    print("\n".join(lines))
    return 0


_SWEEPABLE = ("gamma", "M", "L", "S", "N", "d", "eta", "lambda1", "lambda2", "B")


def cmd_sweep(args) -> int:
    base = _config_from(args)
    if args.param not in _SWEEPABLE:
        raise InputError(f"cannot sweep {args.param!r}; choose from {_SWEEPABLE}")
    store, kg, item_entities, _ = graph.load_dataset(args.dataset)
    os.makedirs(args.out, exist_ok=True)
    is_float = args.param in ("gamma", "eta", "lambda1", "lambda2")
    try:
        values = [float(v) if is_float else int(v) for v in args.values.split(",")]
    except ValueError:
        raise InputError(f"cannot parse --values {args.values!r} for {args.param}")
    lines = ["value\tK\tmetric\tscore"]
    for value in values:
        cfg = dataclasses.replace(base, **{args.param: value})
        # walk parameters change the cache; rebuild when needed
        if args.param in ("gamma", "M", "L", "S") or args.cache is None:
            cache = build_walk_cache(kg, item_entities, cfg.walk_config(), cfg.seed)
        else:
            cache = WalkCache.load(args.cache)
        params, _ = train(store, kg, item_entities, cache, cfg.model_config(),
                          cfg.train_config(), eval_cfg=cfg.eval_config())
        report = evaluate(params, cfg.model_config(), store, kg, item_entities,
                          cache, cfg.eval_config(), split="test", seed=cfg.seed)
        for k in sorted(report.metrics):
            for metric, score in report.metrics[k].items():
                lines.append(f"{value}\t{k}\t{metric}\t{score!r}")
    with open(os.path.join(args.out, "sweep.tsv"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    _echo_config(base, args.out)
    print("\n".join(lines))
    return 0


class _Parser(argparse.ArgumentParser):
    """A usage error is an input error (exit 1); argparse would exit 2, which
    here means a numeric abort.  Subcommand parsers inherit the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise InputError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="kgrec",
        description="Knowledge-graph recommender: preprocessing, walk caching, "
                    "training, evaluation, ablations and sweeps.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("preprocess", help="index raw files and split interactions")
    p.add_argument("--ratings", required=True)
    p.add_argument("--kg", required=True)
    p.add_argument("--item-map", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    _add_config_args(p)
    p.set_defaults(func=cmd_preprocess)

    p = subs.add_parser("build-cache", help="precompute walk contexts per item")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    _add_config_args(p)
    p.set_defaults(func=cmd_build_cache)

    p = subs.add_parser("train", help="optimize the model")
    p.add_argument("--dataset", required=True)
    p.add_argument("--cache", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    _add_config_args(p)
    p.set_defaults(func=cmd_train)

    p = subs.add_parser("evaluate", help="rank and report P/R/HR at K")
    p.add_argument("--dataset", required=True)
    p.add_argument("--cache", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", default="test", choices=("train", "valid", "test"))
    p.add_argument("--out", default=None)
    _add_config_args(p)
    p.set_defaults(func=cmd_evaluate)

    p = subs.add_parser("ablate", help="train and compare context-path variants")
    p.add_argument("--dataset", required=True)
    p.add_argument("--cache", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    _add_config_args(p)
    p.set_defaults(func=cmd_ablate)

    p = subs.add_parser("sweep", help="train and evaluate across one parameter")
    p.add_argument("--dataset", required=True)
    p.add_argument("--cache", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--param", required=True)
    p.add_argument("--values", required=True, help="comma-separated values")
    p.add_argument("--seed", type=int, default=None)
    _add_config_args(p)
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (InputError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"numeric abort: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
