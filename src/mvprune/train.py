"""End-to-end optimization of the combined objective and the multi-seed protocol.

Training is two-phase: the pooling backend and classifier are pretrained on
the unpruned graphs, then the multi-view pruning layer is enabled and all
parameters train jointly. Each optimizer step's graphs, sorted by size, run
as one batch (`forward_batch`): their nodes are stacked, graphs of equal size
side by side (see `tensor.Layout`), so one forward builds one tape and one
`backward` yields the step's summed gradient. Validation and test forwards
run in the same batches without a tape. A graph's forward values do not depend on the
batch it is in; only the order in which parameter gradients are summed does.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import ConfigError, ContractError, MvpruneError, TrainingDiverged
from .graphio import Dataset, FeatureScaler, Graph, SplitSpec, split
from .multiview import (ViewEncoder, ViewPartition, default_overlap_ratio,
                        encode_views_xa, make_partition)
from .pooling import (ADJACENCY_KINDS, BACKEND_KINDS, ClassifierHead, PoolBackend, classify,
                      make_backend, mincut_loss)
from .prune import (ReconHead, apply_mask, build_indicator, node_scores, recon_losses,
                    reconstruct)
from .rng import substream


def _is(value, kind) -> bool:
    """isinstance for config values: an int is also a float, a bool is neither."""
    if isinstance(value, bool):
        return kind is bool
    return isinstance(value, (int, float) if kind is float else kind)


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
        ints = ["epochs", "pretrain_epochs", "batch_size", "views", "latent_width",
                "classifier_hidden"] + (["clusters"] if self.clusters is not None else [])
        reals = ["learning_rate", "lam", "threshold_c", "keep_ratio"] + (
            ["overlap_ratio"] if self.overlap_ratio is not None else [])
        for name in ints + reals + ["use_mvp", "use_recon_loss"]:
            kind = int if name in ints else float if name in reals else bool
            if not _is(getattr(self, name), kind):
                raise ConfigError(f"{name} must be a {kind.__name__}, got {getattr(self, name)!r}")
        if not (isinstance(self.seeds, (list, tuple)) and self.seeds
                and all(_is(s, int) for s in self.seeds)):
            raise ConfigError(f"seeds must be a non-empty list of ints, got {self.seeds!r}")
        self.seeds = tuple(self.seeds)
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if min(self.batch_size, self.views, self.latent_width, self.classifier_hidden) < 1:
            raise ConfigError(f"batch_size, views, latent_width and classifier_hidden must be "
                              f"at least 1, got {self.batch_size}, {self.views}, "
                              f"{self.latent_width} and {self.classifier_hidden}")
        if self.epochs < 0 or self.pretrain_epochs < 0:
            raise ConfigError(f"epochs and pretrain_epochs must be >= 0, "
                              f"got {self.epochs} and {self.pretrain_epochs}")
        if self.clusters is not None and self.clusters < 2:
            raise ConfigError(f"clusters must be at least 2, got {self.clusters}")
        if not 0.0 <= self.lam <= 1.0:
            raise ConfigError(f"lam must be in [0, 1], got {self.lam}")
        if not (math.isfinite(self.threshold_c) and self.threshold_c > 0):
            raise ConfigError(f"threshold_c must be finite and > 0, got {self.threshold_c}")
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
        if not isinstance(d, dict):
            raise ConfigError(f"a config is a JSON object, got {type(d).__name__}")
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
        return cls(**{k: v for k, v in d.items() if k not in removed})


class Adam:
    """Adaptive-moment gradient descent over a list of parameter tensors."""

    def __init__(self, params: list[T.Tensor], lr: float):
        self.params, self.lr = params, lr
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
        """Copy `state` into the parameters' own arrays: all, in their shapes, nothing else."""
        params = self.named_parameters()
        wrong = {"missing": params.keys() - state.keys(), "extra": state.keys() - params.keys(),
                 "mis-shaped": {k for k in params.keys() & state.keys()
                                if np.shape(state[k]) != params[k].shape}}
        if any(wrong.values()):
            raise ContractError("state dict does not fit the model: " + "; ".join(
                f"{what} {', '.join(sorted(keys))}" for what, keys in wrong.items() if keys))
        for k, v in state.items():
            np.copyto(params[k].values, np.asarray(v, dtype=np.float64))


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
                    FeatureScaler.fit(dataset, sp.train))


def restore_model(config: TrainConfig, dataset: Dataset, seed: int, state) -> MvpModel:
    """The model trained at `seed`, from its `state_dict`."""
    model = build_model(config, dataset, split(dataset, seed), seed)
    model.load_state_dict(state)
    return model


@dataclass
class ForwardResult:
    """One forward over a batch of graphs, a lone graph being a batch of one.
    Row i of `logits` is the caller's graph i; per-node arrays stack the
    graphs' nodes in that order, which `layout.split` cuts per graph."""
    logits: T.Tensor
    pool_args: tuple | None    # mincut_loss' inputs: S, A, layout, indicator (else None)
    scores: np.ndarray | None
    indicator: np.ndarray      # MVP's keep mask
    recon_args: tuple | None   # recon_losses' inputs: A, standardized X, A_hat, X_hat, layout
    selection: np.ndarray      # the keep mask that reaches the readout
    layout: T.Layout


def forward_batch(model: MvpModel, graphs: list[Graph], use_mvp: bool | None = None,
                  threshold_c: float | None = None) -> ForwardResult:
    """One forward over `graphs`, stacked in the order given (see `tensor.Layout`:
    adjacent graphs of one size share their products, so pass them sorted by
    size). Each graph gets the values its own forward would give, bit for bit.
    A's matrix is joined from the graphs' own `Graph.propagation` if the encoder
    or the backend reads it. With MVP or without, the backend gets X', A, the mask
    m and that matrix, and derives the pruned A''s from m; only m and X' differ."""
    cfg = model.config
    use_mvp = cfg.use_mvp if use_mvp is None else use_mvp
    c = cfg.threshold_c if threshold_c is None else threshold_c
    layout = T.layout_of(tuple(g.n for g in graphs))
    adjacency = layout.join([g.adjacency for g in graphs])
    x = layout.join([g.features for g in graphs], graphs[0].features.shape[1])
    x_std = model.scaler.transform(x)
    prop = (layout.join([g.propagation for g in graphs])
            if use_mvp or model.backend.kind in ADJACENCY_KINDS else None)
    scores = recon_args = None
    if use_mvp:
        z = encode_views_xa(x_std, adjacency, model.partition, model.encoder, layout, prop)
        a_hat, x_hat = reconstruct(z, model.recon, layout)
        recon_args = (adjacency, x_std, a_hat, x_hat, layout)
        scores = node_scores(adjacency, x_std, a_hat.values, x_hat.values, cfg.lam, layout)
        indicator, _, _ = build_indicator(scores, c, layout)
        # a stop-gradient, not a straight-through estimator: the indicator is a
        # constant mask, so the task loss sends no gradient to the scorer (the
        # encoder and reconstruction head), which learns from La and Lx alone
        x_in = apply_mask(x_std, None, indicator, layout)[0]
    else:
        indicator, x_in = np.ones(len(x_std)), x_std
    h_g, pool_args, selection = model.backend.forward(T.Tensor(x_in), adjacency, indicator,
                                                      layout, prop)
    logits = classify(h_g, model.classifier)
    return ForwardResult(logits, pool_args, scores, indicator, recon_args, selection, layout)


def forward_graph(model: MvpModel, graph: Graph, use_mvp: bool | None = None,
                  threshold_c: float | None = None) -> ForwardResult:
    """`forward_batch` of one graph."""
    return forward_batch(model, [graph], use_mvp, threshold_c)


def combined_loss(result: ForwardResult, labels, use_recon: bool = True):
    """Each graph's unweighted sum of the enabled terms (graphs x 1, one row
    per graph in the forward's order) and the terms as per-graph arrays;
    disabled terms are not built and add 0. The reconstruction and MinCut
    losses are built only here, from the forward's `recon_args` and
    `pool_args`. `labels` holds one class per graph in the same order, or is
    one int for a single graph."""
    labels = np.asarray(labels).reshape(-1)
    loss = T.cross_entropy(result.logits, labels)
    zero = np.zeros(len(labels))
    parts = {"ce": loss.values[:, 0], "la": zero, "lx": zero, "pool": zero}
    if use_recon and result.recon_args is not None:
        la, lx, _ = recon_losses(*result.recon_args)
        loss = T.add(T.add(loss, la), lx)
        parts["la"], parts["lx"] = la.values[:, 0], lx.values[:, 0]
    if result.pool_args is not None:
        l_pool = mincut_loss(*result.pool_args)
        loss = T.add(loss, l_pool)
        parts["pool"] = l_pool.values[:, 0]
    return loss, parts


def predict(model: MvpModel, graphs: list[Graph], threshold_c: float | None = None):
    """Each graph's (predicted class, scores or None without MVP, keep
    indicator, readout selection), in the order of `graphs`, from grad-free
    forwards of up to `batch_size` graphs of similar size (at `threshold_c` if
    given, else the configured one)."""
    by_size = sorted(range(len(graphs)), key=lambda p: graphs[p].n)
    out, step = [None] * len(graphs), model.config.batch_size
    with T.no_grad():
        for start in range(0, len(by_size), step):
            chunk = by_size[start:start + step]
            res = forward_batch(model, [graphs[p] for p in chunk], threshold_c=threshold_c)
            cut = res.layout.split
            scores = [None] * len(chunk) if res.scores is None else cut(res.scores)
            rows = zip(np.argmax(res.logits.values, axis=1), scores, cut(res.indicator),
                       cut(res.selection))
            for p, row in zip(chunk, rows):
                out[p] = row
    return out


def evaluate(model: MvpModel, dataset: Dataset, indices,
             threshold_c: float | None = None):
    """Accuracy over `indices`, and each graph's keep indicator and readout
    selection, from `predict`."""
    graphs = [dataset.graphs[i] for i in indices]
    rows = predict(model, graphs, threshold_c)
    correct = sum(int(label == g.label) for (label, *_), g in zip(rows, graphs))
    return ((correct / len(graphs) if graphs else 0.0), [r[2] for r in rows],
            [r[3] for r in rows])


def pruning_stats(dataset: Dataset, indices, indicators, selections) -> dict:
    """Over all nodes of `indices`: the fraction MVP prunes, the fraction MVP
    keeps but the backend's own selection drops before the readout, and the
    degree histogram of MVP-pruned nodes, from what `evaluate` returns."""
    total = pruned = readout_dropped = 0
    hist: dict[int, int] = {}
    for i, indicator, selection in zip(indices, indicators, selections):
        graph = dataset.graphs[i]
        total += graph.n
        readout_dropped += int(((indicator > 0) & (selection == 0)).sum())
        for deg in graph.degrees.astype(int)[indicator == 0]:
            pruned += 1
            hist[int(deg)] = hist.get(int(deg), 0) + 1
    return {"fraction_pruned": pruned / total if total else 0.0,
            "readout_dropped_fraction": readout_dropped / total if total else 0.0,
            "pruned_degree_histogram": {str(k): v for k, v in sorted(hist.items())}}


def _run_phase(model: MvpModel, dataset: Dataset, sp: SplitSpec, seed: int,
               trace: dict, joint: bool):
    """Pretraining (`joint` False) trains the backend and classifier on the
    unpruned graphs. The joint phase trains every parameter, through the
    pruning layer when the config uses it, and restores the weights of the
    best validation epoch. Each step is one size-sorted batch of `batch_size`."""
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
        for start in range(0, len(order), cfg.batch_size):
            step = order[start:start + cfg.batch_size]  # sorted stably, so ties keep their order
            ids = sorted(step, key=lambda gi: dataset.graphs[gi].n)
            batch = [dataset.graphs[gi] for gi in ids]
            res = forward_batch(model, batch, use_mvp=use_mvp)
            loss, parts = combined_loss(res, [g.label for g in batch], cfg.use_recon_loss)
            bad = {ids[r] for r in np.flatnonzero(~np.isfinite(loss.values[:, 0]))}
            if bad:  # name the step's first graph whose loss is not finite
                row = ids.index(next(gi for gi in step if gi in bad))
                raise TrainingDiverged(seed, epoch, int(ids[row]),
                                       {key: float(v[row]) for key, v in parts.items()})
            opt.zero_grad()
            T.backward(T.tsum(loss))
            opt.step()
            del res, loss  # free this step's tape before the next forward builds one
            for key in sums:
                sums[key] += float(parts[key].sum())
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
        return dict(dataclasses.asdict(self), mean_accuracy=self.mean_accuracy,
                    std_accuracy=self.std_accuracy)


def _trial(config: TrainConfig, dataset: Dataset, seed: int) -> dict:
    try:
        sp = split(dataset, seed)
        model, trace = train_one(config, dataset, sp, seed)
        accuracy, indicators, selections = evaluate(model, dataset, sp.test)
        stats = pruning_stats(dataset, sp.test, indicators, selections)
    except ConfigError:
        raise  # a bad config fails every seed alike: stop the run (CLI exit 2)
    except MvpruneError as exc:  # one bad seed must not discard the others
        failure = {"seed": seed, "error_type": type(exc).__name__, "error": str(exc)}
        if isinstance(exc, TrainingDiverged):
            failure.update(epoch=exc.epoch, graph=exc.graph, parts=exc.parts)
        return dict(failure, ok=False)
    return {"seed": seed, "ok": True, "accuracy": accuracy,
            "trace": trace, "partition": model.partition.to_dict(),
            "prune_stats": stats, "state": model.state_dict()}


def run_trials(config: TrainConfig, dataset: Dataset,
               return_models: bool = False, jobs: int = 1):
    """One split + one training per seed; aggregates accuracy mean and std.

    Seeds run independently (in `jobs` processes when > 1) and are always
    aggregated in seed order. A seed that fails with an MvpruneError other
    than ConfigError is recorded in `failures` (seed, exception type,
    message, and for a divergence its epoch, graph and loss parts) and the
    report carries the other seeds' results.
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
            report.failures.append({k: v for k, v in res.items() if k != "ok"})
            continue
        report.seeds.append(res["seed"])
        report.accuracies.append(res["accuracy"])
        report.traces.append(res["trace"])
        report.partitions.append(res["partition"])
        report.prune_stats.append(res["prune_stats"])
        if return_models:
            models.append(restore_model(config, dataset, res["seed"], res["state"]))
    return (report, models) if return_models else report


def save_report(report: TrialReport, path: str):
    with open(path, "w") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
