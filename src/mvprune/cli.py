"""Command-line entry point binding ingestion, training, and analysis.

Config precedence is flags > config file > defaults; the fully resolved
config is echoed into the run manifest so any run can be reproduced from it
(`train --config <run>/manifest.json`).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shutil
import sys
import zipfile

import numpy as np

from . import __version__, analysis, train as train_mod
from .errors import ConfigError, ContractError, FormatError, LoadError, MvpruneError
from .graphio import load_tu, save_anomaly_truth, save_tu, synth_planted_anomalies, write_csv
from .pooling import BACKEND_KINDS
from .prune import export_scores
from .train import TrainConfig, run_trials

EXIT_OK, EXIT_ERROR, EXIT_CONFIG = 0, 1, 2
# large graphs' products round by the BLAS thread count, so a replay is
# byte-identical only at the same counts; the manifest records them
THREAD_VARIABLES = ("MKL_NUM_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")


def _resolve_dataset_dir(path: str) -> str:
    if os.path.isdir(path):
        return path
    root = os.environ.get("MVPRUNE_DATA_DIR")
    if root and os.path.isdir(os.path.join(root, path)):
        return os.path.join(root, path)
    raise LoadError(f"dataset directory not found: {path}")


def _load_dataset(path: str, name: str | None):
    directory = _resolve_dataset_dir(path)
    return load_tu(directory, name or os.path.basename(os.path.normpath(directory)))


def _refuse_unusable_out(out: str, force: bool = True):
    """Refuse, before any work, an output directory that is a file or lies
    under one, or, without `force`, one that is not empty."""
    path = os.path.abspath(out)
    while not os.path.exists(path):  # the nearest part of the path that exists
        path = os.path.dirname(path)
    if not os.path.isdir(path):
        raise MvpruneError(f"cannot write to {out}: {path} is not a directory")
    if path == os.path.abspath(out) and os.listdir(out) and not force:
        raise MvpruneError(f"output directory {out} is not empty; pass --force to overwrite")


def _resolve_config(args) -> TrainConfig:
    config = {}
    if args.config:
        try:
            with open(args.config) as fh:
                config = json.load(fh)
        except (OSError, ValueError) as exc:  # missing, unreadable or not JSON
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        if isinstance(config, dict):
            config = config.get("config", config)  # accept a bare config or a manifest
    flags = {f.name: getattr(args, f.name, None) for f in dataclasses.fields(TrainConfig)}
    return dataclasses.replace(TrainConfig.from_dict(config),
                               **{k: v for k, v in flags.items() if v is not None})


def _write_manifest(out: str, config: TrainConfig, dataset, dataset_path: str,
                    report, command: str):
    manifest = {
        "tool_version": __version__,
        "command": command,
        "dataset": {"path": os.path.abspath(dataset_path), "name": dataset.name,
                    "fingerprint": dataset.fingerprint()},
        "config": config.to_dict(),
        "environment": {name: os.environ.get(name) for name in THREAD_VARIABLES},
        "seeds": report.seeds,  # the trained seeds; a failed seed has no weights
        "partitions": report.partitions,
        "artifacts": sorted(f for f in os.listdir(out) if f != "manifest.json"),
    }
    with open(os.path.join(out, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)


def _write_metrics(report, path: str):
    write_csv(path, ["seed", "accuracy", "pruned_fraction", "readout_dropped_fraction"],
              ([seed, "%.17g" % acc, "%.17g" % ps["fraction_pruned"],
                "%.17g" % ps["readout_dropped_fraction"]]
               for seed, acc, ps in zip(report.seeds, report.accuracies, report.prune_stats)))


def _scores_and_keeps(model, dataset):
    """Per graph, in dataset order: reconstruction scores (zeros without MVP)
    and the keep indicator, from `train.predict`'s batched grad-free forwards."""
    for graph, (_, scores, indicator, _) in zip(dataset.graphs,
                                                 train_mod.predict(model, dataset.graphs)):
        yield scores if scores is not None else np.zeros(graph.n), indicator


def _score_rows(model, dataset):
    for gi, (scores, keep) in enumerate(_scores_and_keeps(model, dataset)):
        deg = dataset.graphs[gi].degrees
        for node in range(len(keep)):
            yield gi, node, deg[node], scores[node], keep[node]


def _load_run_model(run_dir: str, dataset, seed: int | None = None):
    """The model a run trained at `seed`, by default its first trained seed
    (the one whose model wrote the run's scores.csv), and the run's config."""
    manifest_path = os.path.join(run_dir, "manifest.json")
    if not os.path.isfile(manifest_path):
        raise LoadError(f"missing run manifest: {manifest_path}")
    try:
        with open(manifest_path) as fh:
            manifest = json.load(fh)
        fingerprint, seeds = manifest["dataset"]["fingerprint"], list(manifest["seeds"])
        config = manifest["config"]
    except (ValueError, KeyError, TypeError) as exc:  # not JSON, or an entry missing
        raise FormatError(f"damaged run manifest {manifest_path}: "
                          f"{type(exc).__name__} {exc}") from None
    if fingerprint != dataset.fingerprint():
        raise MvpruneError("dataset fingerprint does not match the run manifest")
    config = TrainConfig.from_dict(config)
    if not seeds:
        raise LoadError(f"run {run_dir} has no trained seed")
    if seed is None:
        seed = seeds[0]
    elif seed not in seeds:
        raise LoadError(f"run {run_dir} has no trained seed {seed}; its trained seeds are "
                        f"{', '.join(map(str, seeds))}")
    model_path = os.path.join(run_dir, "models", f"seed{seed}.npz")
    if not os.path.isfile(model_path):
        raise LoadError(f"missing model weights: {model_path}")
    try:  # numpy cannot read the file, or its arrays do not fit the model
        with np.load(model_path) as state:
            return train_mod.restore_model(config, dataset, seed, dict(state)), config
    except (OSError, ValueError, EOFError, zipfile.BadZipFile, ContractError) as exc:
        raise FormatError(f"damaged model weights {model_path}: {exc}") from None


# -- commands --------------------------------------------------------------

def cmd_train(args) -> int:
    config = _resolve_config(args)
    _refuse_unusable_out(args.out, args.force)
    dataset = _load_dataset(args.dataset, args.name)
    report, models = run_trials(config, dataset, return_models=True, jobs=args.jobs)
    tmp = os.path.normpath(args.out) + ".tmp"  # replaces <out> once it holds the manifest
    shutil.rmtree(tmp, ignore_errors=True)
    try:
        os.makedirs(os.path.join(tmp, "models"))
        train_mod.save_report(report, os.path.join(tmp, "report.json"))
        _write_metrics(report, os.path.join(tmp, "metrics.csv"))
        for seed, model in zip(report.seeds, models):
            np.savez(os.path.join(tmp, "models", f"seed{seed}.npz"), **model.state_dict())
        if models:
            export_scores(_score_rows(models[0], dataset), os.path.join(tmp, "scores.csv"))
        _write_manifest(tmp, config, dataset, args.dataset, report, "train")
        shutil.rmtree(args.out, ignore_errors=True)
        os.rename(tmp, args.out)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"accuracy {report.mean_accuracy:.4f} +/- {report.std_accuracy:.4f} "
          f"over {len(report.seeds)} seeds ({len(report.failures)} failures)")
    return EXIT_OK if not report.failures else EXIT_ERROR


def cmd_synth(args) -> int:
    _refuse_unusable_out(args.out, args.force)
    dataset, truth = synth_planted_anomalies(
        args.graphs, args.nodes, args.anomaly, args.seed,
        n_classes=args.classes, n_features=args.features,
        name=os.path.basename(os.path.normpath(args.out)))
    save_tu(dataset, args.out)
    save_anomaly_truth(truth, args.out, dataset.name)
    print(f"wrote {len(dataset)} graphs to {args.out}")
    return EXIT_OK


def cmd_analyze(args) -> int:
    out_dir = args.out or args.run
    _refuse_unusable_out(out_dir)
    dataset = _load_dataset(args.dataset, args.name)
    model, config = _load_run_model(args.run, dataset, args.seed)
    os.makedirs(out_dir, exist_ok=True)
    mvp_scores, keeps_mvp = zip(*_scores_and_keeps(model, dataset))
    if args.what == "centrality":
        keeps = {"mvp": keeps_mvp}
        for policy in analysis.DEGREE_POLICIES:
            keeps[policy] = [analysis.policy_indicator(policy, g) for g in dataset.graphs]
        path = os.path.join(out_dir, "centrality.csv")
        analysis.write_centrality_csv(path, dataset, keeps)
    else:  # degree-profile
        rows = analysis.degree_pruning_profile(
            dataset, {"mvp": mvp_scores}, c=config.threshold_c,
            keep_ratio=config.keep_ratio)
        path = os.path.join(out_dir, "degree_profile.csv")
        analysis.write_profile_csv(path, rows)
    print(f"wrote {path}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    config = _resolve_config(args)
    _refuse_unusable_out(args.out, args.force)
    dataset = _load_dataset(args.dataset, args.name)
    points = analysis.threshold_sweep(dataset, config, args.multipliers, retrain=args.retrain)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "sweep.csv")
    analysis.write_sweep_csv(path, dataset.name, points)
    print(f"wrote {path}")
    return EXIT_OK


def cmd_export_scores(args) -> int:
    out = args.out or os.path.join(args.run, "scores.csv")
    out_dir = os.path.dirname(os.path.abspath(out))
    _refuse_unusable_out(out_dir)
    dataset = _load_dataset(args.dataset, args.name)
    model, _ = _load_run_model(args.run, dataset, args.seed)
    os.makedirs(out_dir, exist_ok=True)
    export_scores(_score_rows(model, dataset), out)
    print(f"wrote {out}")
    return EXIT_OK


# -- argument parsing ------------------------------------------------------

def _comma_list(kind):
    """An argparse type: comma-separated values of `kind`, as a tuple."""
    def parse(text: str) -> tuple:
        return tuple(kind(v) for v in text.split(","))
    parse.__name__ = f"comma-separated {kind.__name__}"  # argparse names it in its error
    return parse


def _at_least_one(text: str) -> int:
    """An argparse type: an int of at least 1."""
    if not text.lstrip("-").isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"needs an int of at least 1, got {text!r}")
    return int(text)


def _add_config_flags(p: argparse.ArgumentParser):
    """Each flag's dest is the TrainConfig field it sets; unset flags stay None."""
    p.add_argument("--config", help="JSON config file or a previous run's manifest.json")
    p.add_argument("--epochs", type=int)
    p.add_argument("--pretrain-epochs", dest="pretrain_epochs", type=int)
    p.add_argument("--lr", dest="learning_rate", type=float)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--seeds", type=_comma_list(int), help="comma-separated seed list")
    p.add_argument("--lam", type=float, help="adjacency/feature score blend")
    p.add_argument("--threshold", dest="threshold_c", type=float,
                   help="pruning threshold multiplier c")
    p.add_argument("--views", type=int)
    p.add_argument("--overlap", dest="overlap_ratio", type=float)
    p.add_argument("--latent-width", dest="latent_width", type=int)
    p.add_argument("--backend", help=f"one of {', '.join(BACKEND_KINDS)}")
    p.add_argument("--keep-ratio", dest="keep_ratio", type=float)
    p.add_argument("--clusters", type=int)
    p.add_argument("--no-mvp", dest="use_mvp", action="store_false", default=None,
                   help="train the bare backend without the pruning layer")


def build_parser() -> argparse.ArgumentParser:
    seed_help = "the trained seed whose model to use (default: the run's first)"
    parser = argparse.ArgumentParser(prog="mvprune",
                                     description="Multi-view pruning for graph pooling")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="run the multi-seed training protocol")
    p.add_argument("--dataset", required=True)
    p.add_argument("--name", help="TU dataset name (default: directory basename)")
    p.add_argument("--out", default="mvprune_out")
    p.add_argument("--force", action="store_true")
    p.add_argument("--jobs", type=_at_least_one, default=1)
    _add_config_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("synth", help="generate a planted-anomaly corpus")
    p.add_argument("--graphs", type=int, default=200)
    p.add_argument("--nodes", type=int, default=20)
    p.add_argument("--anomaly", type=float, default=0.15)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--classes", type=int, default=2)
    p.add_argument("--features", type=int, default=8)
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("analyze", help="pruning-quality diagnostics for a run")
    p.add_argument("what", choices=["centrality", "degree-profile"])
    p.add_argument("--dataset", required=True)
    p.add_argument("--name")
    p.add_argument("--run", required=True)
    p.add_argument("--out")
    p.add_argument("--seed", type=int, help=seed_help)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("sweep", help="threshold-multiplier sweep")
    p.add_argument("--dataset", required=True)
    p.add_argument("--name")
    p.add_argument("--multipliers", type=_comma_list(float), default="0.5,1,1.5,2,2.5,3")
    p.add_argument("--retrain", action="store_true",
                   help="retrain per multiplier instead of re-evaluating")
    p.add_argument("--out", default="mvprune_sweep")
    p.add_argument("--force", action="store_true")
    _add_config_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("export-scores", help="per-node scores of a trained run")
    p.add_argument("--dataset", required=True)
    p.add_argument("--name")
    p.add_argument("--run", required=True)
    p.add_argument("--out")
    p.add_argument("--seed", type=int, help=seed_help)
    p.set_defaults(func=cmd_export_scores)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (MvpruneError, OSError) as exc:  # OSError: a path that cannot be read or written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
