"""Output checks that share no code with the library.

Each function returns a list of failure messages; an empty list means the
check passed. The quantities are recomputed in plain numpy or plain Python,
or follow from the method itself (Chebyshev's bound on the keep rule, the
monotonicity of the threshold in its multiplier).
"""

from __future__ import annotations

import csv
import math
from collections import deque

import numpy as np

RECALL_GATE = 0.70      # criterion-4 gates of the acceptance tests
FALSE_POSITIVE_GATE = 0.15


def recall_and_false_positives(indicators, truth) -> tuple[float, float]:
    """Share of planted anomalies pruned, and share of normal nodes pruned."""
    hit = anomalies = false_pos = normals = 0
    for keep, anom in zip(indicators, truth):
        dropped = {int(i) for i in np.flatnonzero(np.asarray(keep) == 0.0)}
        hit += len(dropped & anom)
        anomalies += len(anom)
        false_pos += len(dropped - anom)
        normals += len(keep) - len(anom)
    return hit / anomalies, false_pos / normals


def planted_gates(recall: float, false_pos: float) -> list[str]:
    out = []
    if recall < RECALL_GATE:
        out.append(f"anomaly recall {recall:.3f} below {RECALL_GATE}")
    if false_pos > FALSE_POSITIVE_GATE:
        out.append(f"normal false-positive rate {false_pos:.3f} above {FALSE_POSITIVE_GATE}")
    return out


def chebyshev(indicators, c: float) -> list[str]:
    """No more than floor(n / c^2) scores can lie above mu + c*sigma."""
    out = []
    for gi, keep in enumerate(indicators):
        n = len(keep)
        dropped = n - int(np.sum(keep))
        if dropped > math.floor(n / (c * c)):
            out.append(f"graph {gi}: {dropped} of {n} nodes dropped at c={c}")
    return out[:5]


def keep_rule(scores, c: float) -> np.ndarray:
    """The paper's keep rule: score <= mean + c * population std."""
    s = np.asarray(scores, dtype=np.float64)
    return (s <= s.mean() + c * s.std()).astype(np.float64)


def indicators_match_scores(scores_per_graph, indicators, c: float) -> list[str]:
    out = []
    for gi, (scores, keep) in enumerate(zip(scores_per_graph, indicators)):
        if not np.array_equal(keep_rule(scores, c), np.asarray(keep)):
            out.append(f"graph {gi}: indicator differs from the keep rule on its scores")
    return out[:5]


def read_exported_scores(path: str):
    """Per graph: (scores, kept flags) from an export_scores CSV."""
    per_graph: dict[int, tuple[list, list]] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != ["graph_id", "node_id", "degree", "score", "kept"]:
            raise ValueError(f"unexpected score CSV header {header}")
        for graph_id, node_id, _degree, score, kept in reader:
            scores, flags = per_graph.setdefault(int(graph_id), ([], []))
            if int(node_id) != len(scores):
                raise ValueError(f"graph {graph_id}: node ids out of order")
            scores.append(float(score))
            flags.append(float(kept))
    return [per_graph[g] for g in sorted(per_graph)]


def exported_scores(path: str, graphs, c: float) -> list[str]:
    try:
        rows = read_exported_scores(path)
    except (OSError, ValueError) as exc:
        return [f"cannot read exported scores: {exc}"]
    if len(rows) != len(graphs):
        return [f"export holds {len(rows)} graphs, corpus has {len(graphs)}"]
    out = []
    for gi, ((scores, kept), graph) in enumerate(zip(rows, graphs)):
        if len(scores) != graph.n:
            out.append(f"graph {gi}: {len(scores)} exported nodes for {graph.n}")
        elif not np.array_equal(keep_rule(scores, c), np.asarray(kept)):
            out.append(f"graph {gi}: exported kept flags differ from the keep rule")
    return out[:5]


def sweep_monotone(points) -> list[str]:
    """points: (multiplier, pruned fraction) in rising multiplier order."""
    out = []
    for (c0, f0), (c1, f1) in zip(points, points[1:]):
        if not c1 > c0:
            out.append(f"multipliers not rising: {c0} then {c1}")
        if f1 > f0:
            out.append(f"pruned fraction rose from {f0:.4f} at c={c0} to {f1:.4f} at c={c1}")
    return out


def _bfs(adjacency: np.ndarray, source: int):
    """Distances and shortest-path counts from source."""
    n = adjacency.shape[0]
    dist = [-1] * n
    count = [0] * n
    dist[source], count[source] = 0, 1
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for w in np.flatnonzero(adjacency[v]):
            w = int(w)
            if dist[w] < 0:
                dist[w] = dist[v] + 1
                queue.append(w)
            if dist[w] == dist[v] + 1:
                count[w] += count[v]
    return dist, count


def betweenness_by_pairs(adjacency: np.ndarray) -> np.ndarray:
    """For every unordered pair s < t and every v apart from them, the share of
    shortest s-t paths through v: sigma_sv * sigma_vt / sigma_st when v lies
    on one. No dependency accumulation, unlike Brandes."""
    n = adjacency.shape[0]
    paths = [_bfs(adjacency, s) for s in range(n)]
    cb = np.zeros(n)
    for s in range(n):
        dist_s, count_s = paths[s]
        for t in range(s + 1, n):
            if dist_s[t] <= 0:
                continue
            for v in range(n):
                if v in (s, t) or dist_s[v] < 0:
                    continue
                dist_v, count_v = paths[v]
                if dist_s[v] + dist_v[t] == dist_s[t]:
                    cb[v] += count_s[v] * count_v[t] / count_s[t]
    return cb


def betweenness(graphs, values) -> list[str]:
    """graphs: (graph id, Graph) pairs; values: the program's betweenness for each."""
    out = []
    for (gi, graph), got in zip(graphs, values):
        want = betweenness_by_pairs(graph.adjacency)
        if not np.allclose(got, want, rtol=1e-9, atol=1e-9):
            out.append(f"graph {gi}: betweenness differs from pair enumeration "
                       f"by {np.abs(np.asarray(got) - want).max():.3g}")
    return out


def profile_counts(rows, policies, total_nodes: int) -> list[str]:
    """Each policy's degree bins hold every node of the corpus once."""
    out = []
    for policy in policies:
        nodes = sum(r.nodes for r in rows if r.policy == policy)
        if nodes != total_nodes:
            out.append(f"degree profile '{policy}' counts {nodes} nodes, corpus has {total_nodes}")
    if any(not 0 <= r.pruned <= r.nodes for r in rows):
        out.append("a degree-profile bin prunes more nodes than it holds")
    return out


def finite_logits(logits) -> list[str]:
    bad = sum(1 for row in logits if not np.isfinite(row).all())
    return [f"{bad} graphs have non-finite logits"] if bad else []


def loss_falls(trace: dict, pretrain_epochs: int) -> list[str]:
    """The last joint epoch's loss is below the first joint epoch's."""
    joint = trace["total_loss"][pretrain_epochs:]
    if len(joint) < 2 or not joint[-1] < joint[0]:
        return [f"training loss did not fall: first {joint[0]:.4f}, last {joint[-1]:.4f}"]
    return []
