"""Pooling backends consuming the pruned graph, plus the classifier head.

Every backend maps (X', A', indicator) to a fixed-width graph vector, an
auxiliary scalar loss (None for plain readouts, meaning exactly zero) and the
keep-mask its readout used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import multiview, tensor as T
from .errors import ConfigError, ContractError
from .multiview import gcn_layer

BACKEND_KINDS = ("mean", "sum", "gcn-sum", "attention-topk", "feature-topk", "mincut")


# -- readouts --------------------------------------------------------------

def masked_mean_readout(x_prime: T.Tensor, indicator: np.ndarray) -> T.Tensor:
    """Mean over kept rows only; the denominator is the kept count, not n."""
    ind = np.asarray(indicator, dtype=np.float64)
    kept = ind.sum()
    if kept < 1:
        raise ContractError("mean readout needs at least one kept node")
    return T.matmul(T.Tensor((ind / kept)[None, :]), x_prime)


def masked_sum_readout(x_prime: T.Tensor, indicator: np.ndarray) -> T.Tensor:
    ind = np.asarray(indicator, dtype=np.float64)
    return T.matmul(T.Tensor(ind[None, :]), x_prime)


# -- top-k pruning pools ---------------------------------------------------

def select_topk(scores: np.ndarray, keep_ratio: float, eligible: np.ndarray | None = None):
    """Top ceil(keep_ratio * n_eligible) node mask; ties go to the lower index."""
    if not 0.0 < keep_ratio <= 1.0:
        raise ConfigError(f"keep_ratio must be in (0, 1], got {keep_ratio}")
    n = scores.shape[0]
    masked = scores.astype(np.float64).copy()
    if eligible is None:
        eligible = np.ones(n, dtype=bool)
    else:
        eligible = np.asarray(eligible) > 0
        masked[~eligible] = -np.inf
    n_keep = math.ceil(keep_ratio * int(eligible.sum()))
    order = np.lexsort((np.arange(n), -masked))  # score desc, then index asc
    sel = np.zeros(n)
    sel[order[:n_keep]] = 1.0
    return sel


def attention_topk_pool(x: T.Tensor, adjacency: np.ndarray, keep_ratio: float,
                        score_weight: T.Tensor, eligible: np.ndarray | None = None):
    """Self-attention pruning: a 1-output GCN scores nodes, the top fraction
    survives, and kept features are gated by tanh(score) so the score weight
    receives gradient. Returns (gated kept features, selection)."""
    score = gcn_layer(x, score_weight, multiview.normalize_adjacency(adjacency), activation=None)
    sel = select_topk(score.values[:, 0], keep_ratio, eligible)
    gate = T.matmul(T.tanh(score), T.Tensor(np.ones((1, x.cols))))
    return T.mul_const(T.mul(x, gate), sel[:, None]), sel


def feature_topk_pool(x: T.Tensor, keep_ratio: float, projection: T.Tensor,
                      eligible: np.ndarray | None = None):
    """TopK-style pruning: score = X p / ||p||, gated by tanh. Returns
    (gated kept features, selection)."""
    p_norm = T.sqrt(T.tsum(T.mul(projection, projection)))
    score = T.mul(T.matmul(x, projection), T.reciprocal(p_norm))  # n x 1
    sel = select_topk(score.values[:, 0], keep_ratio, eligible)
    gate = T.matmul(T.tanh(score), T.Tensor(np.ones((1, x.cols))))
    return T.mul_const(T.mul(x, gate), sel[:, None]), sel


# -- mincut pooling --------------------------------------------------------

def mincut_pool(h: T.Tensor, adjacency: np.ndarray,
                assign_w: T.Tensor, assign_b: T.Tensor):
    """Soft spectral clustering of node embeddings h.

    Returns the coarse features S^T h and the auxiliary loss: cut term
    -tr(S^T A S)/tr(S^T D S) (0 for edgeless graphs) plus orthogonality
    ||S^T S / ||S^T S||_F - I/sqrt(K)||_F.
    """
    k = assign_w.cols
    if k < 2:
        raise ConfigError(f"mincut needs at least 2 clusters, got {k}")
    s = T.softmax_rows(T.add(T.matmul(h, assign_w), assign_b))
    st = T.transpose(s)
    x_coarse = T.matmul(st, h)
    a_s = T.matmul(T.Tensor(adjacency), s)

    deg = adjacency.sum(axis=1)
    if deg.sum() > 0:
        num = T.tsum(T.mul(s, a_s))
        den = T.tsum(T.mul_const(T.mul(s, s), deg[:, None]))
        cut = T.scale(T.mul(num, T.reciprocal(den)), -1.0)
    else:
        cut = T.Tensor(np.zeros((1, 1)))

    ss = T.matmul(st, s)
    fro = T.sqrt(T.tsum(T.mul(ss, ss)))
    normed = T.mul(ss, T.reciprocal(fro))
    resid = T.add_const(normed, -np.eye(k) / math.sqrt(k))
    ortho = T.sqrt(T.tsum(T.mul(resid, resid)))

    return x_coarse, T.add(cut, ortho)


# -- backends --------------------------------------------------------------

@dataclass
class PoolBackend:
    kind: str
    out_width: int
    params: dict = field(default_factory=dict)          # name -> Tensor
    keep_ratio: float = 0.75

    def parameters(self):
        return list(self.params.values())

    def forward(self, x_prime: T.Tensor, a_prime: np.ndarray, indicator: np.ndarray):
        """Returns (h_G, l_pool, selection); l_pool is None for readout kinds.

        `selection` is the keep-mask that reaches the readout: the top-k
        kinds' own selection within `indicator`, else `indicator` itself.
        """
        if self.kind == "mean":
            return masked_mean_readout(x_prime, indicator), None, indicator
        if self.kind == "sum":
            return masked_sum_readout(x_prime, indicator), None, indicator
        if self.kind == "gcn-sum":
            h = gcn_layer(x_prime, self.params["w"], multiview.normalize_adjacency(a_prime))
            return masked_sum_readout(h, indicator), None, indicator
        if self.kind == "attention-topk":
            x_kept, sel = attention_topk_pool(
                x_prime, a_prime, self.keep_ratio, self.params["score_w"], indicator)
            return masked_mean_readout(x_kept, sel), None, sel
        if self.kind == "feature-topk":
            x_kept, sel = feature_topk_pool(
                x_prime, self.keep_ratio, self.params["proj"], indicator)
            return masked_mean_readout(x_kept, sel), None, sel
        if self.kind == "mincut":
            h = gcn_layer(x_prime, self.params["gcn_w"], multiview.normalize_adjacency(a_prime))
            x_coarse, l_pool = mincut_pool(h, a_prime, self.params["assign_w"],
                                           self.params["assign_b"])
            k = self.params["assign_w"].cols
            h_g = T.matmul(T.Tensor(np.full((1, k), 1.0 / k)), x_coarse)
            return h_g, l_pool, indicator
        raise ConfigError(f"unknown backend kind '{self.kind}'; valid: {BACKEND_KINDS}")


def make_backend(kind: str, in_width: int, rng: np.random.Generator, hidden: int = 32,
                 keep_ratio: float = 0.75, clusters: int = 4) -> PoolBackend:
    if kind in ("mean", "sum"):
        return PoolBackend(kind, in_width)
    if kind == "gcn-sum":
        return PoolBackend(kind, hidden, {"w": T.param(None, rng, (in_width, hidden))})
    if kind == "attention-topk":
        return PoolBackend(kind, in_width, {"score_w": T.param(None, rng, (in_width, 1))},
                           keep_ratio=keep_ratio)
    if kind == "feature-topk":
        return PoolBackend(kind, in_width, {"proj": T.param(None, rng, (in_width, 1))},
                           keep_ratio=keep_ratio)
    if kind == "mincut":
        params = {"gcn_w": T.param(None, rng, (in_width, hidden)),
                  "assign_w": T.param(None, rng, (hidden, clusters)),
                  "assign_b": T.param(np.zeros((1, clusters)))}
        return PoolBackend(kind, hidden, params)
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

    def parameters(self):
        return [self.w1, self.b1, self.w2, self.b2]


def classify(h_g: T.Tensor, head: ClassifierHead) -> T.Tensor:
    if h_g.cols != head.w1.rows:
        raise ContractError(f"classifier expects width {head.w1.rows}, got {h_g.cols}")
    hidden = T.relu(T.add(T.matmul(h_g, head.w1), head.b1))
    return T.add(T.matmul(hidden, head.w2), head.b2)
