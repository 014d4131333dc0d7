"""TU-format dataset loading, synthetic corpora, and train/val/test splits."""

from __future__ import annotations

import csv
import hashlib
import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, FormatError, LoadError, SplitError
from .rng import substream

TRAIN_FRAC, VAL_FRAC = 0.81, 0.09


@dataclass
class Graph:
    adjacency: np.ndarray  # n x n, binary, symmetric, zero diagonal
    features: np.ndarray   # n x d
    label: int

    def __post_init__(self):
        a, x = self.adjacency, self.features
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise FormatError(f"adjacency must be square, got {a.shape}")
        if a.shape[0] == 0:
            raise FormatError("a graph needs at least one node")
        if x.ndim != 2 or x.shape[0] != a.shape[0]:
            raise FormatError(f"features {x.shape} do not match {a.shape[0]} nodes")
        if not np.array_equal(a, a.T):
            raise FormatError("adjacency is not symmetric")
        if np.any(np.diag(a) != 0):
            raise FormatError("adjacency has a nonzero diagonal")
        if not np.isin(a, (0.0, 1.0)).all():
            raise FormatError("adjacency entries must be 0 or 1")
        if not np.isfinite(x).all():
            raise FormatError("feature matrix contains NaN/Inf")

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]

    @property
    def degrees(self) -> np.ndarray:
        return self.adjacency.sum(axis=1)


@dataclass
class Dataset:
    graphs: list[Graph]
    d: int
    num_classes: int
    name: str

    def __len__(self):
        return len(self.graphs)

    def fingerprint(self) -> str:
        h = hashlib.sha256()
        for g in self.graphs:
            h.update(g.adjacency.astype(np.uint8).tobytes())
            h.update(g.features.tobytes())
            h.update(int(g.label).to_bytes(4, "little"))
        return h.hexdigest()


@dataclass
class SplitSpec:
    train: list[int]
    val: list[int]
    test: list[int]
    seed: int


# -- TU flat files ---------------------------------------------------------

def _read_lines(path: str):
    """The stripped non-empty lines of a file that must exist, read lazily."""
    if not os.path.isfile(path):
        raise LoadError(f"missing dataset file: {path}")

    def lines():
        with open(path) as fh:
            for ln in fh:
                ln = ln.strip()
                if ln:
                    yield ln

    return lines()


def load_tu(directory: str, name: str) -> Dataset:
    """Parse a TU-style dataset directory.

    Edge pairs are one-indexed and may appear in both directions; they are
    deduplicated and symmetrized. Node labels are one-hot encoded and placed
    before any real-valued attributes. Graph labels are remapped to a
    contiguous 0-based range.
    """
    pre = os.path.join(directory, name)
    indicator = [int(v) for v in _read_lines(pre + "_graph_indicator.txt")]
    graph_labels_raw = [int(v) for v in _read_lines(pre + "_graph_labels.txt")]
    edge_lines = _read_lines(pre + "_A.txt")

    node_label_path = pre + "_node_labels.txt"
    node_attr_path = pre + "_node_attributes.txt"
    has_labels = os.path.isfile(node_label_path)
    has_attrs = os.path.isfile(node_attr_path)
    if not has_labels and not has_attrs:
        raise LoadError(f"missing dataset file: {node_label_path} (or _node_attributes.txt)")

    n_total = len(indicator)
    n_graphs = len(graph_labels_raw)
    if n_graphs == 0:
        raise FormatError(f"{name}_graph_labels.txt lists no graphs")

    # global -> (graph id, local index)
    local = np.zeros(n_total, dtype=np.int64)
    counts = np.zeros(n_graphs + 1, dtype=np.int64)
    for i, gid in enumerate(indicator):
        if not 1 <= gid <= n_graphs:
            raise FormatError(f"graph_indicator line {i + 1}: graph id {gid} out of range")
        local[i] = counts[gid]
        counts[gid] += 1
    for gid in range(1, n_graphs + 1):
        if counts[gid] == 0:
            raise FormatError(f"graph {gid} has no nodes in {name}_graph_indicator.txt")

    adjacencies = [np.zeros((int(n), int(n))) for n in counts[1:]]
    for lineno, ln in enumerate(edge_lines, start=1):
        try:
            u_s, v_s = ln.split(",")
            u, v = int(u_s), int(v_s)
        except ValueError as exc:
            raise FormatError(f"{name}_A.txt line {lineno}: cannot parse edge '{ln}'") from exc
        if not (1 <= u <= n_total and 1 <= v <= n_total):
            raise FormatError(f"{name}_A.txt line {lineno}: node id out of range")
        gu, gv = indicator[u - 1], indicator[v - 1]
        if gu != gv:
            raise FormatError(
                f"{name}_A.txt line {lineno}: edge ({u},{v}) crosses graphs {gu} and {gv}")
        if u == v:
            continue  # TU files should not carry self-loops; drop defensively
        a, b = local[u - 1], local[v - 1]
        adjacencies[gu - 1][a, b] = adjacencies[gu - 1][b, a] = 1.0  # duplicates land alike

    # features: one-hot node labels first, then raw attributes
    blocks = []
    if has_labels:
        raw = [int(v) for v in _read_lines(node_label_path)]
        if len(raw) != n_total:
            raise FormatError(f"{name}_node_labels.txt: {len(raw)} lines for {n_total} nodes")
        values = sorted(set(raw))
        lookup = {v: i for i, v in enumerate(values)}
        onehot = np.zeros((n_total, len(values)))
        onehot[np.arange(n_total), [lookup[v] for v in raw]] = 1.0
        blocks.append(onehot)
    if has_attrs:
        attrs, lines = None, 0
        for lines, ln in enumerate(_read_lines(node_attr_path), start=1):
            try:
                row = [float(v) for v in ln.split(",")]
            except ValueError as exc:
                raise FormatError(f"{name}_node_attributes.txt line {lines}: bad value") from exc
            if attrs is None:
                attrs = np.empty((n_total, len(row)))  # filled row by row as lines are read
            if len(row) != attrs.shape[1]:
                raise FormatError(f"{name}_node_attributes.txt line {lines}: {len(row)} values, "
                                  f"expected {attrs.shape[1]}")
            if lines <= n_total:
                attrs[lines - 1] = row
        if lines != n_total:
            raise FormatError(f"{name}_node_attributes.txt: {lines} lines for {n_total} nodes")
        blocks.append(attrs)
    features_all = np.concatenate(blocks, axis=1)

    label_values = sorted(set(graph_labels_raw))
    label_map = {v: i for i, v in enumerate(label_values)}

    graphs = []
    node_rows = [[] for _ in range(n_graphs)]
    for i, gid in enumerate(indicator):
        node_rows[gid - 1].append(i)
    for gi in range(n_graphs):
        feats = features_all[node_rows[gi], :]
        graphs.append(Graph(adjacencies[gi], feats, label_map[graph_labels_raw[gi]]))

    return Dataset(graphs, features_all.shape[1], len(label_values), name)


def save_tu(dataset: Dataset, directory: str, name: str | None = None):
    """Write a dataset back to TU flat files (features go to _node_attributes.txt)."""
    name = name or dataset.name
    os.makedirs(directory, exist_ok=True)
    pre = os.path.join(directory, name)
    ind_lines, attr_lines, edge_lines, label_lines = [], [], [], []
    offset = 0
    for gi, g in enumerate(dataset.graphs, start=1):
        label_lines.append(str(g.label))
        for i in range(g.n):
            ind_lines.append(str(gi))
            attr_lines.append(", ".join("%.17g" % v for v in g.features[i]))
        ii, jj = np.nonzero(g.adjacency)
        for a, b in zip(ii, jj):  # both directions, TU convention
            edge_lines.append(f"{offset + a + 1}, {offset + b + 1}")
        offset += g.n
    for suffix, lines in [("_A.txt", edge_lines), ("_graph_indicator.txt", ind_lines),
                          ("_graph_labels.txt", label_lines),
                          ("_node_attributes.txt", attr_lines)]:
        with open(pre + suffix, "w") as fh:
            fh.write("\n".join(lines) + "\n")


def write_csv(path: str, header, rows):
    """Write a CSV file: the header, then each row of `rows`."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# -- synthetic planted-anomaly corpus --------------------------------------

def synth_planted_anomalies(n_graphs: int, nodes_per_graph: int, anomaly_fraction: float,
                            seed: int, n_classes: int = 2, n_features: int = 8,
                            name: str = "synth"):
    """Class-correlated community graphs with planted uninformative nodes.

    Normal nodes carry their class prototype plus noise and live in the
    positive orthant; anomaly nodes carry an independent class-agnostic draw
    from a disjoint all-negative region (a fixed-norm vector with a fresh
    random direction per node) and attach to one normal node with a single
    edge. Two hub nodes wired to every normal node carry class-agnostic
    features from a mildly negative band, so their reconstruction error is
    moderately elevated without rivaling the anomalies. A fixed share of
    graphs is generated anomaly-free, exercising the adaptive threshold on
    clean score distributions. Returns the dataset and the ground-truth
    anomaly index set per graph.
    """
    if not 0.0 <= anomaly_fraction < 0.5:
        raise ConfigError(f"anomaly_fraction must be in [0, 0.5), got {anomaly_fraction}")
    if min(n_graphs, nodes_per_graph, n_classes, n_features) < 1:
        raise ConfigError(f"graph, node, class and feature counts must be at least 1, got "
                          f"{n_graphs}, {nodes_per_graph}, {n_classes} and {n_features}")
    rng = substream(seed, "synth")
    center = 1.5
    n_signal = min(2, n_features)  # class signal lives in a few dims only
    prototypes = np.full((n_classes, n_features), float(center))
    prototypes[:, :n_signal] += 0.25 * rng.standard_normal((n_classes, n_signal))
    anomaly_radius = 7.0  # anomaly features: fixed-norm negative vector, random direction
    hub_center, hub_sd = -0.5, 0.5  # hubs: class-agnostic, mildly negative band
    noise_sd = 0.4
    edge_p = 0.2
    n_hubs = 2            # per-graph hubs wired to every normal node
    control_share = 0.3   # fraction of graphs generated without anomalies

    graphs, truth = [], []
    for gi in range(n_graphs):
        label = gi % n_classes
        n_anom = int(round(anomaly_fraction * nodes_per_graph))
        if rng.random() < control_share:
            n_anom = 0
        n_norm = nodes_per_graph - n_anom

        adj = np.zeros((nodes_per_graph, nodes_per_graph))
        upper = rng.random((n_norm, n_norm)) < edge_p
        for i in range(n_norm):
            for j in range(i + 1, n_norm):
                if upper[i, j]:
                    adj[i, j] = adj[j, i] = 1.0
        for h in range(min(n_hubs, n_norm)):
            for j in range(n_norm):
                if j != h:
                    adj[h, j] = adj[j, h] = 1.0

        feats = np.empty((nodes_per_graph, n_features))
        feats[:n_norm] = prototypes[label] + noise_sd * rng.standard_normal((n_norm, n_features))
        for h in range(min(n_hubs, n_norm)):
            feats[h] = hub_center + hub_sd * rng.standard_normal(n_features)
        for a in range(n_anom):
            direction = np.abs(rng.standard_normal(n_features))
            direction /= np.linalg.norm(direction)
            feats[n_norm + a] = (-anomaly_radius * direction
                                 + noise_sd * rng.standard_normal(n_features))
            target = int(rng.integers(n_norm))
            adj[n_norm + a, target] = adj[target, n_norm + a] = 1.0

        perm = rng.permutation(nodes_per_graph)
        inv = np.argsort(perm)
        graphs.append(Graph(adj[np.ix_(perm, perm)], feats[perm], label))
        truth.append({int(inv[n_norm + a]) for a in range(n_anom)})

    return Dataset(graphs, n_features, n_classes, name), truth


def save_anomaly_truth(truth: list[set[int]], directory: str, name: str):
    path = os.path.join(directory, f"{name}_anomalies.txt")
    with open(path, "w") as fh:
        for nodes in truth:
            fh.write(", ".join(str(i) for i in sorted(nodes)) + "\n")


def load_anomaly_truth(directory: str, name: str) -> list[set[int]]:
    path = os.path.join(directory, f"{name}_anomalies.txt")
    if not os.path.isfile(path):
        raise LoadError(f"missing ground-truth file: {path}")
    truth = []
    with open(path) as fh:
        for ln in fh:
            ln = ln.strip()
            truth.append({int(v) for v in ln.split(",")} if ln else set())
    return truth


# -- splitting -------------------------------------------------------------

def split(dataset: Dataset, seed: int) -> SplitSpec:
    """81/9/10 split, stratified by label where class counts permit.

    Train and validation sizes are floored; the leftover goes to test
    (1113 graphs -> 901/100/112).
    """
    n = len(dataset)
    if n < 12:
        raise SplitError(f"need at least 12 graphs to split, got {n}")
    n_train = int(np.floor(TRAIN_FRAC * n))
    n_val = int(np.floor(VAL_FRAC * n))
    n_test = n - n_train - n_val

    rng = substream(seed, "split")
    by_class: dict[int, list[int]] = {}
    for i, g in enumerate(dataset.graphs):
        by_class.setdefault(g.label, []).append(i)
    # deal each shuffled class round-robin into a label-balanced sequence
    pools = [list(rng.permutation(idx)) for _, idx in sorted(by_class.items())]
    order: list[int] = []
    while any(pools):
        for pool in pools:
            if pool:
                order.append(int(pool.pop()))
    train = sorted(order[:n_train])
    val = sorted(order[n_train:n_train + n_val])
    test = sorted(order[n_train + n_val:])
    assert len(test) == n_test
    return SplitSpec(train, val, test, seed)


# -- feature normalization -------------------------------------------------

@dataclass
class FeatureScaler:
    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def fit(cls, dataset: Dataset, train_idx) -> "FeatureScaler":
        stacked = np.concatenate([dataset.graphs[i].features for i in train_idx], axis=0)
        mean = stacked.mean(axis=0)
        std = stacked.std(axis=0)
        std[std < 1e-12] = 1.0
        return cls(mean, std)

    def transform(self, x: np.ndarray) -> np.ndarray:
        return (x - self.mean) / self.std
