"""Post-hoc pruning diagnostics: centrality, degree profiles, threshold sweeps."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from . import train
from .errors import ContractError
from .graphio import Dataset, Graph, split, write_csv
from .pooling import select_topk
from .prune import build_indicator

HARMONIC_EPS = 1e-9

DEGREE_POLICIES = ("degree-bottom-10", "degree-bottom-20", "degree-lt-3", "degree-lt-4")


def betweenness(graph: Graph) -> np.ndarray:
    """Unnormalized betweenness via Brandes' accumulation, unordered-pair
    convention (the directed sum halved). Disconnected pairs contribute 0."""
    n = graph.n
    adj = [np.nonzero(row)[0].tolist() for row in graph.adjacency]
    cb = [0.0] * n
    for s in range(n):
        dist = [-1] * n
        sigma = [0.0] * n
        preds: list[list[int]] = [[] for _ in range(n)]
        dist[s] = 0
        sigma[s] = 1.0
        order = []
        queue = deque([s])
        while queue:
            v = queue.popleft()
            order.append(v)
            for w in adj[v]:
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    queue.append(w)
                if dist[w] == dist[v] + 1:
                    sigma[w] += sigma[v]
                    preds[w].append(v)
        delta = [0.0] * n
        for w in reversed(order):
            for v in preds[w]:
                delta[v] += sigma[v] / sigma[w] * (1.0 + delta[w])
            if w != s:
                cb[w] += delta[w]
    return np.array(cb) / 2.0


def harmonic_mean(values) -> float:
    """k / sum(1/(x + eps)); 0 for empty input. The eps guard keeps zero
    centralities (leaves) from blowing up the sum."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        return 0.0
    return float(values.size / (1.0 / (values + HARMONIC_EPS)).sum())


# -- pruning policies ------------------------------------------------------

def policy_indicator(policy: str, graph: Graph, scores: np.ndarray | None = None,
                     c: float = 2.0, keep_ratio: float = 0.75) -> np.ndarray:
    """Keep-mask for a named scoring policy on one graph.

    `mvp` thresholds reconstruction scores adaptively; `attention` keeps the
    top keep_ratio fraction by score; degree policies mirror the fixed
    baselines (prune the lowest-degree 10%/20%, or all nodes under a cutoff).
    """
    deg = graph.degrees
    n = graph.n
    if policy in ("mvp", "attention") and scores is None:
        raise ContractError(f"policy '{policy}' needs per-node scores")
    if policy == "mvp":
        indicator, _, _ = build_indicator(scores, c)
        return indicator
    if policy == "attention":
        return select_topk(np.asarray(scores), keep_ratio)
    if policy in ("degree-bottom-10", "degree-bottom-20"):
        frac = 0.1 if policy.endswith("10") else 0.2
        n_prune = int(np.floor(frac * n))
        order = np.lexsort((np.arange(n), deg))  # degree asc, index asc
        keep = np.ones(n)
        keep[order[:n_prune]] = 0.0
        return keep
    if policy == "degree-lt-3":
        return (deg >= 3).astype(np.float64)
    if policy == "degree-lt-4":
        return (deg >= 4).astype(np.float64)
    raise ContractError(f"unknown pruning policy '{policy}'")


@dataclass
class ProfileRow:
    policy: str
    degree: int
    nodes: int
    pruned: int

    @property
    def fraction(self) -> float:
        return self.pruned / self.nodes if self.nodes else 0.0


def degree_pruning_profile(dataset: Dataset, scores_per_graph: dict[str, list[np.ndarray]],
                           policies=None, c: float = 2.0,
                           keep_ratio: float = 0.75) -> list[ProfileRow]:
    """Bin nodes by degree and report the pruned fraction per bin per policy.

    `scores_per_graph` maps score-driven policy names ('mvp', 'attention') to
    one score vector per graph; degree policies need no scores.
    """
    if policies is None:
        policies = tuple(scores_per_graph.keys()) + DEGREE_POLICIES
    counts: dict[tuple[str, int], list[int]] = {}
    for gi, graph in enumerate(dataset.graphs):
        deg = graph.degrees.astype(int)
        for policy in policies:
            scores = scores_per_graph.get(policy, [None] * len(dataset))[gi] \
                if policy in ("mvp", "attention") else None
            keep = policy_indicator(policy, graph, scores, c=c, keep_ratio=keep_ratio)
            for node in range(graph.n):
                cell = counts.setdefault((policy, int(deg[node])), [0, 0])
                cell[0] += 1
                cell[1] += int(keep[node] == 0)
    return [ProfileRow(p, d, c0, c1) for (p, d), (c0, c1) in sorted(counts.items())]


def pruned_kept_mean_degree(dataset: Dataset, keeps: list[np.ndarray]):
    """(mean degree of pruned nodes, mean degree of kept nodes) over a corpus."""
    pruned, kept = [], []
    for graph, keep in zip(dataset.graphs, keeps):
        deg = graph.degrees
        pruned.extend(deg[keep == 0])
        kept.extend(deg[keep == 1])
    mp = float(np.mean(pruned)) if pruned else float("nan")
    mk = float(np.mean(kept)) if kept else float("nan")
    return mp, mk


def pruned_centrality_harmonic_means(dataset: Dataset, keeps: list[np.ndarray]) -> list[float]:
    """Per-graph harmonic mean of the betweenness of pruned nodes (graphs that
    prune nothing are skipped)."""
    out = []
    for graph, keep in zip(dataset.graphs, keeps):
        dropped = np.nonzero(keep == 0)[0]
        if dropped.size == 0:
            continue
        out.append(harmonic_mean(betweenness(graph)[dropped]))
    return out


# -- threshold sweep -------------------------------------------------------

DEFAULT_MULTIPLIERS = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)


@dataclass
class SweepPoint:
    multiplier: float
    accuracy: float
    pruned_fraction: float


def threshold_sweep(dataset: Dataset, config, multipliers=DEFAULT_MULTIPLIERS,
                    retrain: bool = False) -> list[SweepPoint]:
    """Test accuracy and pruned fraction (pruned test nodes over test nodes)
    per threshold multiplier.

    By default the model trained at the configured threshold is re-evaluated
    at each multiplier; `retrain` runs a full training per point instead and
    reports the mean over seeds.
    """
    # building every config first rejects a bad multiplier before any training
    configs = [replace(config, threshold_c=float(c)) for c in multipliers]
    points = []
    if retrain:
        for cfg in configs:
            report = train.run_trials(cfg, dataset)
            points.append(SweepPoint(cfg.threshold_c, report.mean_accuracy,
                                     report.mean_pruned_fraction))
        return points

    seed = config.seeds[0]
    sp = split(dataset, seed)
    model, _ = train.train_one(config, dataset, sp, seed)
    for cfg in configs:
        accuracy, indicators, selections = train.evaluate(model, dataset, sp.test, cfg.threshold_c)
        stats = train.pruning_stats(dataset, sp.test, indicators, selections)
        points.append(SweepPoint(cfg.threshold_c, accuracy, stats["fraction_pruned"]))
    return points


# -- CSV writers -----------------------------------------------------------

def write_centrality_csv(path: str, dataset: Dataset, keeps_per_policy: dict[str, list[np.ndarray]]):
    """One row per node: graph_id, node_id, degree, betweenness, then one
    pruned_<policy> flag column per policy."""
    policies = sorted(keeps_per_policy)

    def rows():
        for gi, graph in enumerate(dataset.graphs):
            cb = betweenness(graph)
            deg = graph.degrees.astype(int)
            for node in range(graph.n):
                yield ([gi, node, int(deg[node]), "%.17g" % cb[node]]
                       + [int(keeps_per_policy[p][gi][node] == 0) for p in policies])

    write_csv(path, ["graph_id", "node_id", "degree", "betweenness"]
              + [f"pruned_{p}" for p in policies], rows())


def write_profile_csv(path: str, rows: list[ProfileRow]):
    write_csv(path, ["policy", "degree", "nodes", "pruned", "fraction"],
              ([r.policy, r.degree, r.nodes, r.pruned, "%.17g" % r.fraction] for r in rows))


def write_sweep_csv(path: str, dataset_name: str, points: list[SweepPoint]):
    write_csv(path, ["dataset", "multiplier", "accuracy", "pruned_fraction"],
              ([dataset_name, "%.17g" % p.multiplier, "%.17g" % p.accuracy,
                "%.17g" % p.pruned_fraction] for p in points))
