"""End-to-end optimization of the combined objective and the multi-seed protocol.

Training is two-phase: the pooling backend and classifier are pretrained on
the unpruned graphs, then the multi-view pruning layer is enabled and all
parameters train jointly. Graphs are processed one at a time with gradient
accumulation up to the batch size, which sidesteps padded batching of
variable-size graphs.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import ConfigError, MvpruneError, TrainingDiverged
from .graphio import Dataset, FeatureScaler, Graph, SplitSpec, split
from .multiview import (ViewEncoder, ViewPartition, default_overlap_ratio,
                        encode_views_xa, make_partition)
from .pooling import BACKEND_KINDS, ClassifierHead, PoolBackend, classify, make_backend
from .prune import (ReconHead, apply_mask, build_indicator, node_scores, recon_losses,
                    reconstruct)
from .rng import substream


@dataclass
class TrainConfig:
    epochs: int = 200
    pretrain_epochs: int = 50
    learning_rate: float = 5e-4
    batch_size: int = 32
    seeds: tuple = tuple(range(10))
    lam: float = 0.5
    threshold_c: float = 2.0
    views: int = 8
    overlap_ratio: float | None = None  # None -> 0.25 iff a view would have < 4 features
    latent_width: int = 64
    backend: str = "mean"
    keep_ratio: float = 0.75
    clusters: int | None = None         # None -> ceil(mean train graph size / 4)
    classifier_hidden: int = 32
    use_mvp: bool = True
    use_recon_loss: bool = True

    def __post_init__(self):
        if self.learning_rate <= 0 or self.batch_size < 1:
            raise ConfigError("learning_rate and batch_size must be positive")
        if not self.seeds:
            raise ConfigError("at least one seed is required")
        if not 0.0 <= self.lam <= 1.0:
            raise ConfigError(f"lam must be in [0, 1], got {self.lam}")
        if not (math.isfinite(self.threshold_c) and self.threshold_c > 0):
            raise ConfigError(f"threshold_c must be finite and > 0, got {self.threshold_c}")
        if self.views < 1 or self.latent_width < 1:
            raise ConfigError(f"views and latent_width must be at least 1, "
                              f"got {self.views} and {self.latent_width}")
        if self.epochs < 0 or self.pretrain_epochs < 0:
            raise ConfigError(f"epochs and pretrain_epochs must be >= 0, "
                              f"got {self.epochs} and {self.pretrain_epochs}")
        if not 0.0 < self.keep_ratio <= 1.0:
            raise ConfigError(f"keep_ratio must be in (0, 1], got {self.keep_ratio}")
        if self.backend not in BACKEND_KINDS:
            raise ConfigError(f"unknown backend '{self.backend}'; "
                              f"valid kinds: {', '.join(BACKEND_KINDS)}")

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["seeds"] = list(self.seeds)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        # removed keys load only at the one value they ever took, so run
        # manifests written before their removal still load
        removed = {"backend_hidden": 32, "aux_loss_weight": 1.0, "use_pool_loss": True,
                   "standardize_features": True, "adam_beta1": 0.9, "adam_beta2": 0.999,
                   "adam_eps": 1e-8}
        known = {f.name for f in dataclasses.fields(cls)}
        for key in d:
            if key in removed and d[key] != removed[key]:
                raise ConfigError(f"config key '{key}' was removed; it loads only at its "
                                  f"former default {removed[key]!r}, got {d[key]!r}")
            if key not in known and key not in removed:
                raise ConfigError(f"unknown config key '{key}'")
        d = {k: v for k, v in d.items() if k not in removed}
        if "seeds" in d:
            d["seeds"] = tuple(int(s) for s in d["seeds"])
        return cls(**d)


class Adam:
    """Adaptive-moment gradient descent over a list of parameter tensors."""

    def __init__(self, params: list[T.Tensor], lr: float):
        self.params = params
        self.lr = lr
        self.m = [np.zeros(p.shape) for p in params]
        self.v = [np.zeros(p.shape) for p in params]
        self.t = 0

    def step(self):
        self.t += 1
        b1, b2, eps = 0.9, 0.999, 1e-8
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            self.m[i] = b1 * self.m[i] + (1 - b1) * p.grad
            self.v[i] = b2 * self.v[i] + (1 - b2) * p.grad ** 2
            m_hat = self.m[i] / (1 - b1 ** self.t)
            v_hat = self.v[i] / (1 - b2 ** self.t)
            p.values -= self.lr * m_hat / (np.sqrt(v_hat) + eps)

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()


@dataclass
class MvpModel:
    config: TrainConfig
    partition: ViewPartition
    encoder: ViewEncoder
    recon: ReconHead
    backend: PoolBackend
    classifier: ClassifierHead
    scaler: FeatureScaler
    num_classes: int

    def mvp_parameters(self) -> dict[str, T.Tensor]:
        out = {}
        for i, (w_e, w_g) in enumerate(zip(self.encoder.embed_weights,
                                           self.encoder.gcn_weights)):
            out[f"view{i}.embed"] = w_e
            out[f"view{i}.gcn"] = w_g
        out["recon.w"] = self.recon.weight
        out["recon.b"] = self.recon.bias
        return out

    def task_parameters(self) -> dict[str, T.Tensor]:
        out = {f"backend.{k}": v for k, v in self.backend.params.items()}
        out.update({"clf.w1": self.classifier.w1, "clf.b1": self.classifier.b1,
                    "clf.w2": self.classifier.w2, "clf.b2": self.classifier.b2})
        return out

    def named_parameters(self) -> dict[str, T.Tensor]:
        out = self.mvp_parameters() if self.config.use_mvp else {}
        out.update(self.task_parameters())
        return out

    def state_dict(self) -> dict[str, np.ndarray]:
        return {k: p.values.copy() for k, p in self.named_parameters().items()}

    def load_state_dict(self, state: dict[str, np.ndarray]):
        params = self.named_parameters()
        for k, v in state.items():
            params[k].values = np.asarray(v, dtype=np.float64).copy()


def build_model(config: TrainConfig, dataset: Dataset, sp: SplitSpec, seed: int) -> MvpModel:
    rng = substream(seed, "init")
    k = config.views
    overlap = config.overlap_ratio
    if overlap is None:
        overlap = default_overlap_ratio(dataset.d, k)
    partition = make_partition(dataset.d, k, overlap, seed)
    encoder = ViewEncoder.init(partition, config.latent_width, rng)
    recon = ReconHead.init(encoder.latent_width, dataset.d, rng)
    clusters = config.clusters
    if clusters is None:
        mean_n = np.mean([dataset.graphs[i].n for i in sp.train])
        clusters = max(2, math.ceil(mean_n / 4))
    backend = make_backend(config.backend, dataset.d, rng, keep_ratio=config.keep_ratio,
                           clusters=int(clusters))
    classifier = ClassifierHead.init(backend.out_width, config.classifier_hidden,
                                     dataset.num_classes, rng)
    return MvpModel(config, partition, encoder, recon, backend, classifier,
                    FeatureScaler.fit(dataset, sp.train), dataset.num_classes)


@dataclass
class ForwardResult:
    logits: T.Tensor
    l_pool: T.Tensor | None
    scores: np.ndarray | None
    indicator: np.ndarray
    recon_args: tuple | None  # (A, standardized X, A_hat, X_hat): recon_losses' inputs


def forward_graph(model: MvpModel, graph: Graph, use_mvp: bool | None = None,
                  threshold_c: float | None = None) -> ForwardResult:
    cfg = model.config
    if use_mvp is None:
        use_mvp = cfg.use_mvp
    c = cfg.threshold_c if threshold_c is None else threshold_c
    x_std = model.scaler.transform(graph.features)
    scores = recon_args = None
    if use_mvp:
        z = encode_views_xa(x_std, graph.adjacency, model.partition, model.encoder)
        a_hat, x_hat = reconstruct(z, model.recon)
        recon_args = (graph.adjacency, x_std, a_hat, x_hat)
        scores = node_scores(graph.adjacency, x_std, a_hat.values, x_hat.values, cfg.lam)
        indicator, _, _ = build_indicator(scores, c)
        # straight-through: the indicator enters the task path only as a constant
        x_in, a_in = apply_mask(x_std, graph.adjacency, indicator)
    else:
        indicator = np.ones(graph.n)
        x_in, a_in = x_std, graph.adjacency
    h_g, l_pool, _ = model.backend.forward(T.Tensor(x_in), a_in, indicator)
    logits = classify(h_g, model.classifier)
    return ForwardResult(logits, l_pool, scores, indicator, recon_args)


def combined_loss(result: ForwardResult, label: int, use_recon: bool = True):
    """Unweighted sum of the enabled terms; disabled terms are not built and add 0."""
    loss = T.cross_entropy(result.logits, label)
    parts = {"ce": loss.item(), "la": 0.0, "lx": 0.0, "pool": 0.0}
    if use_recon and result.recon_args is not None:
        la, lx, _ = recon_losses(*result.recon_args)
        loss = T.add(T.add(loss, la), lx)
        parts["la"], parts["lx"] = la.item(), lx.item()
    if result.l_pool is not None:
        loss = T.add(loss, result.l_pool)
        parts["pool"] = result.l_pool.item()
    return loss, parts


def evaluate(model: MvpModel, dataset: Dataset, indices,
             threshold_c: float | None = None) -> tuple[float, list[np.ndarray]]:
    """Accuracy over `indices` and each graph's keep indicator, from one
    forward per graph (at `threshold_c` if given, else the configured one)."""
    correct, indicators = 0, []
    for i in indices:
        res = forward_graph(model, dataset.graphs[i], threshold_c=threshold_c)
        correct += int(np.argmax(res.logits.values) == dataset.graphs[i].label)
        indicators.append(res.indicator)
    return (correct / len(indices) if len(indices) else 0.0), indicators


def pruning_stats(dataset: Dataset, indices, indicators) -> dict:
    """Fraction of nodes pruned (pruned nodes over all nodes) and the degree
    histogram of pruned nodes, from the keep indicators `evaluate` returns."""
    total = pruned = 0
    hist: dict[int, int] = {}
    for i, indicator in zip(indices, indicators):
        graph = dataset.graphs[i]
        total += graph.n
        for deg in graph.degrees.astype(int)[indicator == 0]:
            pruned += 1
            hist[int(deg)] = hist.get(int(deg), 0) + 1
    return {"fraction_pruned": pruned / total if total else 0.0,
            "pruned_degree_histogram": {str(k): v for k, v in sorted(hist.items())}}


def _run_phase(model: MvpModel, dataset: Dataset, sp: SplitSpec, seed: int,
               trace: dict, joint: bool):
    """Pretraining (`joint` False) trains the backend and classifier on the
    unpruned graphs. The joint phase trains every parameter, through the
    pruning layer when the config uses it, and restores the weights of the
    best validation epoch."""
    cfg = model.config
    use_mvp = joint and cfg.use_mvp
    epochs = cfg.epochs if joint else cfg.pretrain_epochs
    params = model.named_parameters() if joint else model.task_parameters()
    prefix = "joint" if joint else "pretrain"
    opt = Adam(list(params.values()), cfg.learning_rate)
    order_rng = substream(seed, "batch")
    best = None  # (acc, epoch, state)
    for epoch in range(epochs):
        order = order_rng.permutation(sp.train)
        sums = {"ce": 0.0, "la": 0.0, "lx": 0.0, "pool": 0.0}
        opt.zero_grad()
        pending = 0
        for gi in order:
            graph = dataset.graphs[gi]
            res = forward_graph(model, graph, use_mvp=use_mvp)
            loss, parts = combined_loss(res, graph.label, cfg.use_recon_loss)
            if not np.isfinite(loss.item()):
                raise TrainingDiverged(
                    f"non-finite loss at seed {seed}, epoch {epoch}, graph {gi}: {parts}")
            T.backward(loss)
            for key in sums:
                sums[key] += parts[key]
            pending += 1
            if pending >= cfg.batch_size:
                opt.step()
                opt.zero_grad()
                pending = 0
        if pending:
            opt.step()
            opt.zero_grad()
        n_train = len(sp.train)
        for key in sums:
            trace[f"{prefix}_{key}"].append(sums[key] / n_train)
        trace["total_loss"].append(sum(sums.values()) / n_train)
        if joint:
            acc = evaluate(model, dataset, sp.val)[0]
            trace["val_accuracy"].append(acc)
            if best is None or acc > best[0]:  # ties keep the earlier epoch
                best = (acc, epoch, model.state_dict())
    if joint and best is not None:
        model.load_state_dict(best[2])
        trace["best_epoch"] = best[1]
        trace["best_val_accuracy"] = best[0]


def train_one(config: TrainConfig, dataset: Dataset, sp: SplitSpec, seed: int):
    """Train a single model: optional pretraining of backend + classifier,
    then joint training. Returns the model (best-validation weights restored)
    and the per-epoch trace."""
    model = build_model(config, dataset, sp, seed)
    trace: dict = {key: [] for key in
                   ("pretrain_ce", "pretrain_la", "pretrain_lx", "pretrain_pool",
                    "joint_ce", "joint_la", "joint_lx", "joint_pool",
                    "total_loss", "val_accuracy")}
    if config.use_mvp and config.pretrain_epochs > 0:
        _run_phase(model, dataset, sp, seed, trace, joint=False)
    _run_phase(model, dataset, sp, seed, trace, joint=True)
    return model, trace


@dataclass
class TrialReport:
    config: dict
    seeds: list[int]
    accuracies: list[float]
    failures: list[dict] = field(default_factory=list)
    traces: list[dict] = field(default_factory=list)
    prune_stats: list[dict] = field(default_factory=list)
    partitions: list[dict] = field(default_factory=list)

    @property
    def mean_accuracy(self) -> float:
        return float(np.mean(self.accuracies)) if self.accuracies else float("nan")

    @property
    def std_accuracy(self) -> float:
        # population std over seeds: a single trial reports 0
        return float(np.std(self.accuracies)) if self.accuracies else float("nan")

    @property
    def mean_pruned_fraction(self) -> float:
        fracs = [s["fraction_pruned"] for s in self.prune_stats]
        return float(np.mean(fracs)) if fracs else 0.0

    def to_dict(self) -> dict:
        return {"config": self.config, "seeds": self.seeds,
                "accuracies": self.accuracies,
                "mean_accuracy": self.mean_accuracy, "std_accuracy": self.std_accuracy,
                "failures": self.failures, "prune_stats": self.prune_stats,
                "partitions": self.partitions, "traces": self.traces}

    def metrics_rows(self) -> list[dict]:
        return [{"seed": s, "accuracy": "%.17g" % a,
                 "pruned_fraction": "%.17g" % ps["fraction_pruned"]}
                for s, a, ps in zip(self.seeds, self.accuracies, self.prune_stats)]


def _trial(config: TrainConfig, dataset: Dataset, seed: int) -> dict:
    try:
        sp = split(dataset, seed)
        model, trace = train_one(config, dataset, sp, seed)
        accuracy, indicators = evaluate(model, dataset, sp.test)
        stats = pruning_stats(dataset, sp.test, indicators)
    except ConfigError:
        raise  # a bad config fails every seed alike: stop the run (CLI exit 2)
    except MvpruneError as exc:  # one bad seed must not discard the others
        return {"seed": seed, "ok": False, "error": str(exc), "error_type": type(exc).__name__}
    return {"seed": seed, "ok": True, "accuracy": accuracy,
            "trace": trace, "partition": model.partition.to_dict(),
            "prune_stats": stats, "state": model.state_dict()}


def run_trials(config: TrainConfig, dataset: Dataset,
               return_models: bool = False, jobs: int = 1):
    """One split + one training per seed; aggregates accuracy mean and std.

    Seeds run independently (in `jobs` processes when > 1) and are always
    aggregated in seed order. A seed that fails with an MvpruneError other
    than ConfigError is recorded in `failures` (seed, exception type,
    message) and the report carries the other seeds' results.
    """
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(_trial, config, dataset, seed) for seed in config.seeds]
            results = [f.result() for f in futures]
    else:
        results = [_trial(config, dataset, seed) for seed in config.seeds]

    report = TrialReport(config.to_dict(), [], [])
    models = []
    for res in results:
        if not res["ok"]:
            report.failures.append({k: res[k] for k in ("seed", "error_type", "error")})
            continue
        report.seeds.append(res["seed"])
        report.accuracies.append(res["accuracy"])
        report.traces.append(res["trace"])
        report.partitions.append(res["partition"])
        report.prune_stats.append(res["prune_stats"])
        if return_models:
            model = build_model(config, dataset, split(dataset, res["seed"]), res["seed"])
            model.load_state_dict(res["state"])
            models.append(model)
    if return_models:
        return report, models
    return report


def save_report(report: TrialReport, path: str):
    with open(path, "w") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
