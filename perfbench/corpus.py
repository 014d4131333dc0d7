"""Corpora for the benchmark, written as TU flat files with anomaly ground truth.

Two kinds:

- ``planted``: ``synth_planted_anomalies`` as is (the acceptance corpus is
  200 graphs x 20 nodes, 15% anomalies, generator seed 7).
- ``proteins``: a PROTEINS-shaped corpus. Graph sizes follow a heavy tail
  (lognormal body with median 25, Pareto tail above 64 nodes, capped at 620).
  Each graph comes from ``synth_planted_anomalies`` at its own size, then its
  normal-to-normal edges are replaced by a sparse chain-plus-local-contacts
  graph (mean degree near PROTEINS' 3.7); the planted anomalies keep their
  single edge and their ground truth.

Sizes are stratified: they are the quantiles at (i + 0.5) / N for i < N,
jittered by a few percent from the seed, and they are dealt over
the run's train/validation/test split so that each part holds its share of
every size range. The n^2 work of training and evaluation, which sets the cost
of a run, then barely moves between seeds while structure, features,
anomalies and order do.

Run as a script to write one corpus (the benchmark does this in a child
process, so generation stays out of the workload's peak memory)::

    python3 perfbench/corpus.py --kind proteins --seed 3 --out DIR --name NAME
"""

from __future__ import annotations

import argparse
import math
import sys
from statistics import NormalDist

import numpy as np

PROTEINS_GRAPHS = 300
MEDIAN_NODES = 25
TAIL_FROM = 64          # nodes; the body's 86th percentile
TAIL_SHARE = 0.14       # share of graphs above TAIL_FROM
MIN_NODES, MAX_NODES = 4, 620
TAIL_EXPONENT = 0.513   # Pareto 1/alpha: puts the top stratum of 300 graphs at 620
SIZE_JITTER = 0.04      # +-4% per graph
PROTEINS_ANOMALY = 0.10
CONTACT_P = 0.45        # chance of each i~i+2 and i~i+3 contact along the chain


def size_quantile(q: float) -> float:
    """Heavy-tailed graph-size distribution, as an inverse CDF."""
    if q <= 1.0 - TAIL_SHARE:
        sigma = math.log(TAIL_FROM / MEDIAN_NODES) / NormalDist().inv_cdf(1.0 - TAIL_SHARE)
        return MEDIAN_NODES * math.exp(sigma * NormalDist().inv_cdf(q))
    return TAIL_FROM * (TAIL_SHARE / (1.0 - q)) ** TAIL_EXPONENT


def proteins_sizes(n_graphs: int, parts: list[list[int]], rng: np.random.Generator) -> list[int]:
    """Stratified sizes, dealt so that each part of the split (lists of graph
    positions) receives its share of every size range, the largest included."""
    sizes = []
    for i in range(n_graphs):
        base = size_quantile((i + 0.5) / n_graphs)
        jitter = 1.0 + SIZE_JITTER * (2.0 * rng.random() - 1.0)
        sizes.append(int(min(MAX_NODES, max(MIN_NODES, round(base * jitter)))))
    sizes.sort(reverse=True)
    slots = [list(rng.permutation(part)) for part in parts]
    dealt = [0] * len(parts)
    out = [0] * n_graphs
    for i, size in enumerate(sizes):
        k = max(range(len(parts)), key=lambda j: len(parts[j]) * (i + 1) / n_graphs - dealt[j])
        out[int(slots[k][dealt[k]])] = size
        dealt[k] += 1
    return out


def _sparse_normal_edges(normals: np.ndarray, rng: np.random.Generator) -> list[tuple[int, int]]:
    """A random chain through the normal nodes plus short-range contacts."""
    order = normals[rng.permutation(len(normals))]
    edges = [(int(order[i]), int(order[i + 1])) for i in range(len(order) - 1)]
    for gap in (2, 3):
        for i in range(len(order) - gap):
            if rng.random() < CONTACT_P:
                edges.append((int(order[i]), int(order[i + gap])))
    return edges


def proteins_corpus(seed: int, n_graphs: int = PROTEINS_GRAPHS):
    """Dataset and per-graph anomaly sets for the PROTEINS-shaped corpus.

    Labels alternate, so ``split(corpus, seed)`` depends only on the seed and
    is known before the graphs are drawn; sizes are dealt over that split.
    """
    from mvprune.graphio import Dataset, Graph, split, synth_planted_anomalies

    labels = [gi % 2 for gi in range(n_graphs)]
    placeholder = Dataset([Graph(np.zeros((1, 1)), np.zeros((1, 1)), y) for y in labels],
                          1, 2, "placeholder")
    sp = split(placeholder, seed)
    rng = np.random.default_rng([seed, 0x50524F54])
    graphs, truth = [], []
    for gi, n in enumerate(proteins_sizes(n_graphs, [sp.train, sp.val, sp.test], rng)):
        label = labels[gi]
        pair, anomalies = synth_planted_anomalies(
            2, n, PROTEINS_ANOMALY, seed=int(rng.integers(2**31)), n_features=8)
        planted, anom = pair.graphs[label], anomalies[label]
        normals = np.array([i for i in range(n) if i not in anom])
        adj = np.zeros((n, n))
        for i in anom:  # keep each anomaly's single edge to a normal node
            adj[i] = planted.adjacency[i]
            adj[:, i] = planted.adjacency[:, i]
        for a, b in _sparse_normal_edges(normals, rng):
            adj[a, b] = adj[b, a] = 1.0
        graphs.append(Graph(adj, planted.features, label))
        truth.append(anom)
    return Dataset(graphs, 8, 2, "proteins"), truth


def write_corpus(kind: str, seed: int, out: str, name: str,
                 graphs: int = 200, nodes: int = 20, anomaly: float = 0.15):
    from mvprune.graphio import save_anomaly_truth, save_tu, synth_planted_anomalies

    if kind == "planted":
        dataset, truth = synth_planted_anomalies(graphs, nodes, anomaly, seed, name=name)
    else:
        dataset, truth = proteins_corpus(seed)
    save_tu(dataset, out, name)
    save_anomaly_truth(truth, out, name)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--kind", choices=["planted", "proteins"], required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--name", required=True)
    p.add_argument("--graphs", type=int, default=200)
    p.add_argument("--nodes", type=int, default=20)
    p.add_argument("--anomaly", type=float, default=0.15)
    p.add_argument("--src", required=True, help="directory holding the mvprune package")
    args = p.parse_args(argv)
    sys.path.insert(0, args.src)
    write_corpus(args.kind, args.seed, args.out, args.name,
                 args.graphs, args.nodes, args.anomaly)
    return 0


if __name__ == "__main__":
    sys.exit(main())
