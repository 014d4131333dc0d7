"""Pooling backends consuming the pruned graph, plus the classifier head.

Every backend maps (X', A, indicator) to a fixed-width graph vector, the
inputs of its auxiliary loss (MinCut's `mincut_loss`, which only the training
loss builds; None for the others, meaning exactly zero) and the keep-mask its
readout used. The backends that read A see the pruned A' = A m m^T through the
indicator m: they derive its matrix (the masked `multiview.normalize_adjacency`),
and MinCut's training loss uses the masked `tensor.propagate`: no A' is ever
built. Their products and per-graph sums loop over a batch's size groups.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import multiview, tensor as T
from .errors import ConfigError, ContractError
from .multiview import gcn_layer

BACKEND_KINDS = ("mean", "sum", "gcn-sum", "attention-topk", "feature-topk", "mincut")
ADJACENCY_KINDS = ("gcn-sum", "attention-topk", "mincut")  # the backends that read A
BACKEND_WIDTH = 32  # the output width of the gcn-sum and mincut backends


# -- readouts --------------------------------------------------------------

def masked_mean_readout(x_prime: T.Tensor, indicator: np.ndarray,
                        layout: T.Layout | None = None) -> T.Tensor:
    """Mean over each graph's kept rows only; the denominator is the kept
    count, not n. One row per graph."""
    ind = np.asarray(indicator, dtype=np.float64)
    layout = T.as_layout(layout, len(ind))
    kept = layout.graph_sums(ind)
    if kept.min() < 1:
        raise ContractError("mean readout needs at least one kept node")
    return T.transpose_matmul(T.Tensor((ind / layout.spread(kept))[:, None]), x_prime, layout)


def masked_sum_readout(x_prime: T.Tensor, indicator: np.ndarray,
                       layout: T.Layout | None = None) -> T.Tensor:
    return T.transpose_matmul(T.Tensor(np.reshape(indicator, (-1, 1))), x_prime, layout)


# -- top-k pruning pools ---------------------------------------------------

def select_topk(scores: np.ndarray, keep_ratio: float, eligible: np.ndarray | None = None,
                layout: T.Layout | None = None):
    """Each graph's top ceil(keep_ratio * n_eligible) node mask; ties go to the
    lower index."""
    if not 0.0 < keep_ratio <= 1.0:
        raise ConfigError(f"keep_ratio must be in (0, 1], got {keep_ratio}")
    n = scores.shape[0]
    masked = scores.astype(np.float64)
    if eligible is None:
        eligible = np.ones(n, dtype=bool)
    else:
        eligible = np.asarray(eligible) > 0
        masked[~eligible] = -np.inf
    sel, stacks = np.zeros(n), T.as_layout(layout, n).stacks
    for m, e, out in zip(stacks(masked), stacks(eligible), stacks(sel)):  # per group of graphs
        n_keep = np.ceil(keep_ratio * e.sum(axis=-1))
        # a stable sort of the negated scores: score desc, then index asc
        order = np.argsort(-m, axis=-1, kind="stable")
        kept = (np.arange(m.shape[-1]) < n_keep[..., None]).astype(np.float64)
        np.put_along_axis(out, order, kept, axis=-1)
    return sel


def attention_score(x: T.Tensor, propagation: np.ndarray, weight: T.Tensor,
                    layout: T.Layout | None = None) -> T.Tensor:
    """Self-attention node score (SAGPool): a 1-output GCN of x over the
    propagation matrix of the graph (see `multiview.propagation`); n x 1."""
    return gcn_layer(x, weight, propagation, activation=None, layout=layout)


def feature_score(x: T.Tensor, projection: T.Tensor, layout: T.Layout | None = None) -> T.Tensor:
    """TopK node score (Graph U-Nets): X p / ||p||, n x 1."""
    p_norm = T.sqrt(T.tsum(T.mul(projection, projection)))
    return T.mul(T.matmul(x, projection, layout), T.reciprocal(p_norm))


def topk_pool(x: T.Tensor, score: T.Tensor, keep_ratio: float,
              eligible: np.ndarray | None = None, layout: T.Layout | None = None):
    """Top-k pruning by an n x 1 score: each graph's top fraction survives,
    and kept features are gated by tanh(score) so the score's weights receive
    gradient. Returns (gated kept features, selection)."""
    sel = select_topk(score.values[:, 0], keep_ratio, eligible, layout)
    gate = T.matmul(T.tanh(score), T.Tensor(np.ones((1, x.cols))), layout)
    return T.mul_const(T.mul(x, gate), sel[:, None]), sel


# -- mincut pooling --------------------------------------------------------

def mincut_pool(h: T.Tensor, assign_w: T.Tensor, assign_b: T.Tensor,
                layout: T.Layout | None = None):
    """Soft spectral clustering of each graph's node embeddings h: the
    assignment S = softmax(h W + b) and the coarse features S^T h (K rows per
    graph). Training adds `mincut_loss` of S.

    The backend's readout, the mean of the K coarse rows, is (1/K) 1^T S^T h
    = sum_i h_i / K, since every row of S sums to 1: the assignment never
    reaches the logits and learns from `mincut_loss` alone. MinCutPool
    (Bianchi et al., ICML 2020) runs further layers on (S^T X, S^T A S)."""
    k = assign_w.cols
    if k < 2:
        raise ConfigError(f"mincut needs at least 2 clusters, got {k}")
    s = T.softmax_rows(T.add(T.matmul(h, assign_w, layout), assign_b))
    return s, T.transpose_matmul(s, h, layout)


def mincut_loss(s: T.Tensor, adjacency: np.ndarray, layout: T.Layout | None = None,
                keep: np.ndarray | None = None) -> T.Tensor:
    """MinCut's auxiliary loss of the assignment S, one row per graph: the cut
    term -tr(S^T A S)/tr(S^T D S) (0 for edgeless graphs) plus the
    orthogonality term ||S^T S / ||S^T S||_F - I/sqrt(K)||_F. With a `keep`
    mask m, A is the pruned A' = A m m^T, never built: A'S is `T.propagate`'s
    masked product, and A''s degrees are m * (A @ m), exact integers. Only
    the products and the per-graph sums loop over size groups."""
    k = s.cols
    layout = T.as_layout(layout, s.rows)
    keep = np.ones(s.rows) if keep is None else keep
    a_s = T.propagate(adjacency, s, layout, keep)
    deg = keep * layout.map(lambda a, m: (a @ m[..., None])[..., 0], adjacency, keep, pairwise=1)
    edges = (layout.graph_sums(deg) > 0).astype(np.float64)[:, None]
    num = T.tsum(T.mul(s, a_s), layout)
    den = T.tsum(T.mul_const(T.mul(s, s), deg[:, None]), layout)
    # an edgeless graph's 0/0 becomes 0/1: its cut term and gradients are 0
    ratio = T.mul(num, T.reciprocal(T.add(den, T.Tensor(1.0 - edges))))
    cut = T.mul_const(ratio, -1.0)

    clusters = T.layout_of((k,) * len(layout.sizes))  # S^T S has k rows per graph
    ss = T.transpose_matmul(s, s, layout)
    fro = T.sqrt(T.tsum(T.mul(ss, ss), clusters))
    normed = T.mul(ss, T.reciprocal(fro), clusters)
    resid = T.add(normed, T.Tensor(np.tile(-np.eye(k) / np.sqrt(k), (ss.rows // k, 1))))
    ortho = T.sqrt(T.tsum(T.mul(resid, resid), clusters))
    return T.add(cut, ortho)


# -- backends --------------------------------------------------------------

@dataclass
class PoolBackend:
    kind: str
    out_width: int
    params: dict = field(default_factory=dict)          # name -> Tensor
    keep_ratio: float = 0.75

    def forward(self, x_prime: T.Tensor, adjacency: np.ndarray, indicator: np.ndarray,
                layout: T.Layout | None = None, prop: np.ndarray | None = None):
        """Returns (h_G, pool_args, selection): one row of h_G per graph (see
        `tensor.Layout`; one graph without a layout). `pool_args` holds
        `mincut_loss`'s inputs (S, A, layout, indicator) for MinCut, else None.

        `selection` is the keep-mask that reaches the readout: the top-k
        kinds' own selection within `indicator`, else `indicator` itself.
        MinCut's h_G does not depend on its assignment S (see `mincut_pool`).
        Only the `ADJACENCY_KINDS` read A, as the pruned A' = A m m^T of the
        0/1 `indicator` m, so A and A' give the same bits. `prop` is A's
        propagation matrix or None: they use it if m keeps every node, else
        A''s, `multiview.propagation(A, layout, m)`.
        """
        layout = T.as_layout(layout, x_prime.rows)
        if self.kind in ADJACENCY_KINDS and (prop is None or not indicator.all()):
            prop = multiview.propagation(adjacency, layout, indicator)
        if self.kind == "mean":
            return masked_mean_readout(x_prime, indicator, layout), None, indicator
        if self.kind == "sum":
            return masked_sum_readout(x_prime, indicator, layout), None, indicator
        if self.kind == "gcn-sum":
            h = gcn_layer(x_prime, self.params["w"], prop, layout=layout)
            return masked_sum_readout(h, indicator, layout), None, indicator
        if self.kind in ("attention-topk", "feature-topk"):
            score = (attention_score(x_prime, prop, self.params["score_w"], layout)
                     if self.kind == "attention-topk" else
                     feature_score(x_prime, self.params["proj"], layout))
            x_kept, sel = topk_pool(x_prime, score, self.keep_ratio, indicator, layout)
            return masked_mean_readout(x_kept, sel, layout), None, sel
        if self.kind == "mincut":
            h = gcn_layer(x_prime, self.params["gcn_w"], prop, layout=layout)
            s, x_coarse = mincut_pool(h, self.params["assign_w"], self.params["assign_b"], layout)
            mean = T.Tensor(np.full((x_coarse.rows, 1), 1.0 / s.cols))
            h_g = T.transpose_matmul(mean, x_coarse, T.layout_of((s.cols,) * len(layout.sizes)))
            return h_g, (s, adjacency, layout, indicator), indicator
        raise ConfigError(f"unknown backend kind '{self.kind}'; valid: {BACKEND_KINDS}")


def make_backend(kind: str, in_width: int, rng: np.random.Generator,
                 keep_ratio: float = 0.75, clusters: int = 4) -> PoolBackend:
    if kind in ("mean", "sum"):
        return PoolBackend(kind, in_width)
    if kind == "gcn-sum":
        return PoolBackend(kind, BACKEND_WIDTH,
                           {"w": T.param(None, rng, (in_width, BACKEND_WIDTH))})
    if kind in ("attention-topk", "feature-topk"):
        name = "score_w" if kind == "attention-topk" else "proj"
        return PoolBackend(kind, in_width, {name: T.param(None, rng, (in_width, 1))},
                           keep_ratio=keep_ratio)
    if kind == "mincut":
        params = {"gcn_w": T.param(None, rng, (in_width, BACKEND_WIDTH)),
                  "assign_w": T.param(None, rng, (BACKEND_WIDTH, clusters)),
                  "assign_b": T.param(np.zeros((1, clusters)))}
        return PoolBackend(kind, BACKEND_WIDTH, params)
    raise ConfigError(f"unknown backend kind '{kind}'; valid: {BACKEND_KINDS}")


# -- classifier ------------------------------------------------------------

@dataclass
class ClassifierHead:
    w1: T.Tensor
    b1: T.Tensor
    w2: T.Tensor
    b2: T.Tensor

    @classmethod
    def init(cls, in_width: int, hidden: int, n_classes: int,
             rng: np.random.Generator) -> "ClassifierHead":
        return cls(T.param(None, rng, (in_width, hidden)), T.param(np.zeros((1, hidden))),
                   T.param(None, rng, (hidden, n_classes)), T.param(np.zeros((1, n_classes))))


def classify(h_g: T.Tensor, head: ClassifierHead) -> T.Tensor:
    """Logits, one row per graph; each row is computed on its own (see `tensor.Layout`)."""
    if h_g.cols != head.w1.rows:
        raise ContractError(f"classifier expects width {head.w1.rows}, got {h_g.cols}")
    rows = T.layout_of((1,) * h_g.rows)
    hidden = T.relu(T.add(T.matmul(h_g, head.w1, rows), head.b1))
    return T.add(T.matmul(hidden, head.w2, rows), head.b2)
