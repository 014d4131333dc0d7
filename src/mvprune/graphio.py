"""TU-format dataset loading, synthetic corpora, and train/val/test splits."""

from __future__ import annotations

import csv
import hashlib
import os
import warnings
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
        if not (a == a.T).all():
            raise FormatError("adjacency is not symmetric")
        if a.diagonal().any():
            raise FormatError("adjacency has a nonzero diagonal")
        if not ((a == 0.0) | (a == 1.0)).all():
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

# the ASCII separators, which loadtxt strips around a field and Python's int and float do not
_SEPARATORS = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")


def _require(path: str) -> str:
    if not os.path.isfile(path):
        raise LoadError(f"missing dataset file: {path}")
    return path


def _loadtxt_reads_as_python(path: str) -> bool:
    """Whether the file is ASCII text without the ASCII separators: the bytes
    on which loadtxt's parser and Python's `int` and `float` agree."""
    with open(path, "rb") as fh:  # in small chunks: a whole-file buffer raised peak RSS
        for data in iter(lambda: fh.read(1 << 16), b""):
            if not data.isascii() or any(sep in data for sep in _SEPARATORS):
                return False
    return True


def _read_table(path: str, dtype, width: int | None = None):
    """Parse a comma-separated file of `dtype` values (int or float), one row
    per non-empty line.

    Returns (table, bad). `bad` is None when every line is a row of `width`
    values (default: as many as the first row). Otherwise it is (the line's
    number among the non-empty lines, the stripped line, its values or None
    if one does not convert) for the first line that is not, and the table
    holds the rows before it. A file that does not decode in the locale's
    encoding is a FormatError naming it.

    One `np.loadtxt` call parses the whole file. The file is read again line
    by line, stripped, split at commas and converted by Python's `int` or
    `float`, only when loadtxt fails (an empty file, a whitespace-only line,
    `1_0`, a bad line) or when the file holds bytes on which the two parsers
    disagree: non-ASCII text and the ASCII separators.
    """
    np_dtype = np.int64 if dtype is int else np.float64
    if _loadtxt_reads_as_python(_require(path)):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # an empty file warns; it is read line by line
                table = np.loadtxt(path, dtype=np_dtype, delimiter=",", ndmin=2, comments=None)
            if width in (None, table.shape[1]):
                return table, None
        except (ValueError, UserWarning):
            pass
    rows, bad = [], None
    try:
        with open(path) as fh:
            for lineno, line in enumerate(filter(None, (ln.strip() for ln in fh)), start=1):
                try:
                    values = [dtype(v) for v in line.split(",")]
                except ValueError:
                    values = None
                if width is None and values is not None:
                    width = len(values)
                if values is None or len(values) != width:
                    bad = (lineno, line, values)
                    break
                rows.append(values)
    except UnicodeDecodeError as exc:
        raise FormatError(f"{os.path.basename(path)}: not {exc.encoding} text") from None
    try:
        table = np.array(rows, dtype=np_dtype)
    except OverflowError:  # an int beyond int64: kept exact for the range checks and labels
        table = np.array(rows, dtype=object)
    return table.reshape(len(rows), width or 0), bad


def _int_column(path: str) -> np.ndarray:
    """The integer on each non-empty line of a file that must exist."""
    table, bad = _read_table(path, int, width=1)
    if bad is not None:
        raise FormatError(f"{os.path.basename(path)} line {bad[0]}: "
                          f"cannot parse integer '{bad[1]}'")
    return table[:, 0]


def _adjacencies(path: str, name: str, graph_of: np.ndarray, local: np.ndarray,
                 counts: np.ndarray) -> list[np.ndarray]:
    """Each graph's 0/1 adjacency from the edge file at `path`, given each
    node's graph and index within it, and each graph's node count. The first
    bad line, counting non-empty lines, is a FormatError."""
    edges, bad = _read_table(path, int, width=2)
    wrong = ((edges < 1) | (edges > len(graph_of))).any(axis=1)
    u, v = (np.where(wrong, 1, col).astype(np.int64) - 1 for col in edges.T)  # 0-based
    crosses = graph_of[u] != graph_of[v]
    if (wrong | crosses).any():
        i = int(np.argmax(wrong | crosses))
        if wrong[i]:
            raise FormatError(f"{name}_A.txt line {i + 1}: node id out of range")
        raise FormatError(f"{name}_A.txt line {i + 1}: edge ({u[i] + 1},{v[i] + 1}) crosses "
                          f"graphs {graph_of[u[i]] + 1} and {graph_of[v[i]] + 1}")
    if bad is not None:
        raise FormatError(f"{name}_A.txt line {bad[0]}: cannot parse edge '{bad[1]}'")
    proper = u != v  # TU files should not carry self-loops; drop defensively
    u, v = u[proper], v[proper]
    edge_graph = graph_of[u]
    by_graph = np.argsort(edge_graph, kind="stable")
    u, v = local[u[by_graph]], local[v[by_graph]]
    sizes = np.bincount(edge_graph, minlength=len(counts))
    ends = np.cumsum(sizes)
    adjacencies = []
    for n, lo, hi in zip(counts, ends - sizes, ends):
        adjacency = np.zeros((n, n))
        adjacency[u[lo:hi], v[lo:hi]] = adjacency[v[lo:hi], u[lo:hi]] = 1.0  # duplicates land alike
        adjacencies.append(adjacency)
    return adjacencies


def load_tu(directory: str, name: str) -> Dataset:
    """Parse a TU-style dataset directory.

    Edge pairs are one-indexed and may appear in both directions; they are
    deduplicated and symmetrized. Node labels are one-hot encoded and placed
    before any real-valued attributes. Graph labels are remapped to a
    contiguous 0-based range. Each file is parsed whole (`_read_table`); the
    checks then report the first bad line in file order, counting non-empty
    lines.
    """
    pre = os.path.join(directory, name)
    indicator = _int_column(pre + "_graph_indicator.txt")
    graph_labels_raw = _int_column(pre + "_graph_labels.txt")
    edge_path = _require(pre + "_A.txt")  # parsed after the indicator's checks

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

    wrong = (indicator < 1) | (indicator > n_graphs)
    if wrong.any():
        i = int(np.argmax(wrong))
        raise FormatError(f"graph_indicator line {i + 1}: graph id {indicator[i]} out of range")
    graph_of = indicator.astype(np.int64) - 1
    counts = np.bincount(graph_of, minlength=n_graphs)
    if counts.min() == 0:
        raise FormatError(f"graph {int(np.argmin(counts)) + 1} has no nodes in "
                          f"{name}_graph_indicator.txt")
    # graph g's nodes, in file order, are nodes[starts[g]:starts[g + 1]]
    nodes = np.argsort(graph_of, kind="stable")
    starts = np.concatenate(([0], np.cumsum(counts)))
    local = np.empty(n_total, dtype=np.int64)
    local[nodes] = np.arange(n_total) - np.repeat(starts[:-1], counts)

    adjacencies = _adjacencies(edge_path, name, graph_of, local, counts)

    # features: one-hot node labels first, then raw attributes
    blocks = []
    if has_labels:
        raw = _int_column(node_label_path)
        if len(raw) != n_total:
            raise FormatError(f"{name}_node_labels.txt: {len(raw)} lines for {n_total} nodes")
        values, codes = np.unique(raw, return_inverse=True)
        onehot = np.zeros((n_total, len(values)))
        onehot[np.arange(n_total), codes] = 1.0
        blocks.append(onehot)
    if has_attrs:
        attrs, bad = _read_table(node_attr_path, float)
        if bad is not None:
            lineno, _, row = bad
            raise FormatError(f"{name}_node_attributes.txt line {lineno}: " + (
                "bad value" if row is None else f"{len(row)} values, expected {attrs.shape[1]}"))
        if len(attrs) != n_total:
            raise FormatError(f"{name}_node_attributes.txt: {len(attrs)} lines for "
                              f"{n_total} nodes")
        blocks.append(attrs)
    features_all = np.concatenate(blocks, axis=1) if len(blocks) > 1 else blocks[0]

    label_values, label_codes = np.unique(graph_labels_raw, return_inverse=True)
    graphs = []
    for g in range(n_graphs):
        features = features_all[nodes[starts[g]:starts[g + 1]]]  # a fresh array per graph
        graphs.append(Graph(adjacencies[g], features, int(label_codes[g])))

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
        hubs = min(n_hubs, n_norm)
        upper = np.triu(rng.random((n_norm, n_norm)) < edge_p, 1)
        upper[:hubs] = np.arange(n_norm) > np.arange(hubs)[:, None]  # hubs: wired to every node
        adj[:n_norm, :n_norm] = upper | upper.T

        feats = np.empty((nodes_per_graph, n_features))
        feats[:n_norm] = prototypes[label] + noise_sd * rng.standard_normal((n_norm, n_features))
        for h in range(hubs):
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
