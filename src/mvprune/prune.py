"""Reconstruction of A and X from the latent space, node scoring, and masking.

`A_hat = sigmoid(Z Z^T)` is one fused tape op (`tensor.gram_sigmoid`), and
the reconstruction losses are one op each: the clipped edge BCE
(`tensor.clipped_bce`) and the feature MSE (`tensor.mse`). Scores drive a
hard keep/drop decision and are computed outside the tape from the values of
A_hat and X_hat; the indicator enters the training graph only as a constant
mask, so gradients reach the encoder and decoders exclusively through the
reconstruction losses. The forward masks only X (`apply_mask`): the backends
that read the graph take A and the indicator, and see the pruned A' through
the masked propagation of `multiview.normalize_adjacency`. A batch's
residuals and their squares are one pass over all its blocks; only the row
sums of the scores and the threshold's statistics loop over size groups.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, ContractError
from .graphio import write_csv

LOG_EPS = 1e-7  # clamp for sigmoid outputs before taking logs


@dataclass
class ReconHead:
    weight: T.Tensor  # h_f x d
    bias: T.Tensor    # 1 x d, broadcast over rows (shared across graph sizes)

    @classmethod
    def init(cls, latent_width: int, d: int, rng: np.random.Generator) -> "ReconHead":
        return cls(T.param(None, rng, (latent_width, d)),
                   T.param(np.zeros((1, d))))


def reconstruct(z: T.Tensor, head: ReconHead, layout: T.Layout | None = None):
    """A_hat = sigmoid(Z Z^T) (symmetric by construction), X_hat = ReLU(Z W + b).
    A batch's A_hat holds each graph's block flat (see `tensor.Layout`)."""
    a_hat = T.gram_sigmoid(z, layout)
    x_hat = T.relu(T.add(T.matmul(z, head.weight, layout), head.bias))
    return a_hat, x_hat


def recon_losses(adjacency: np.ndarray, features: np.ndarray,
                 a_hat: T.Tensor, x_hat: T.Tensor, layout: T.Layout | None = None):
    """(La, Lx, Lr): mean edge NLL over the full n x n grid (A_hat clipped to
    [LOG_EPS, 1 - LOG_EPS]), mean squared feature error, and their sum, each
    one row per graph (a 1x1 for one graph). All three stay on the tape."""
    if a_hat.values.size != adjacency.size or x_hat.shape != features.shape:
        raise ContractError(
            f"reconstruction shapes {a_hat.shape}/{x_hat.shape} do not match "
            f"graph {adjacency.shape}/{features.shape}")
    la = T.clipped_bce(a_hat, adjacency, LOG_EPS, layout)
    lx = T.mse(x_hat, features, layout)
    return la, lx, T.add(la, lx)


def node_scores(adjacency: np.ndarray, features: np.ndarray, a_hat: np.ndarray,
                x_hat: np.ndarray, lam: float = 0.5, layout: T.Layout | None = None) -> np.ndarray:
    """Per-node blend of squared adjacency-row and feature-row residuals. A
    batch's `adjacency` and `a_hat` hold each graph's block flat."""
    if not 0.0 <= lam <= 1.0:
        raise ContractError(f"lambda must be in [0, 1], got {lam}")
    layout = T.as_layout(layout, len(features))
    d = adjacency - a_hat  # a batch's one row of blocks
    d *= d  # (a - p) ** 2 in place: numpy squares by x * x
    adj_err = layout.map(lambda sq: sq.sum(axis=-1), d, pairwise=1)  # row sums per group
    feat_err = ((features - x_hat) ** 2).sum(axis=1)
    return lam * adj_err + (1.0 - lam) * feat_err


def build_indicator(scores: np.ndarray, c: float = 2.0, layout: T.Layout | None = None):
    """Keep node i iff score_i <= mu + c*sigma (population sigma) of its graph;
    boundary keeps. Returns the indicator, and mu and sigma with one entry
    per graph.

    Equivalent to thresholding sigmoid(-s + mu + c*sigma) at 0.5. Equal
    scores keep every node: their rounded mean can land an ulp below them,
    with sigma about 1e-16, which would drop them all for c < 1.
    """
    if not (math.isfinite(c) and c > 0):
        raise ConfigError(f"threshold multiplier c must be finite and > 0, got {c}")
    scores = np.asarray(scores, dtype=np.float64)
    if scores.size < 1:
        raise ContractError("build_indicator needs at least one score")
    layout = T.as_layout(layout, len(scores))
    indicators, mus, sigmas = [], [], []
    for s in layout.stacks(scores):  # a group's scores, a row per graph if it has several
        n = s.shape[-1]
        # s.mean() and s.std() (population) as numpy computes them, sharing mu
        mu = np.add.reduce(s, axis=-1, keepdims=True) / n
        d = s - mu
        d *= d
        sigma = np.sqrt(np.add.reduce(d, axis=-1, keepdims=True) / n)
        indicator = (s <= mu + c * sigma).astype(np.float64)
        dropped = n - indicator.sum(axis=-1)
        # Chebyshev: no more than n/c^2 nodes can sit above mu + c*sigma
        bound = math.floor(n / (c * c))
        if dropped.max() > min(bound, n - 1):  # too many, or all of a graph
            equal = (dropped == n) & (np.ptp(s, axis=-1) == 0)  # equal scores drop or keep alike
            indicator[equal] = 1.0
            dropped = np.where(equal, 0.0, dropped)
            if dropped.max() > bound:
                raise ContractError(f"dropped {int(dropped.max())} of {n} nodes, "
                                    f"violating the Chebyshev bound")
        indicators.append(indicator)
        mus.append(mu)
        sigmas.append(sigma)
    return layout.join(indicators), layout.join(mus), layout.join(sigmas)


def apply_mask(features: np.ndarray, adjacency: np.ndarray | None, indicator: np.ndarray,
               layout: T.Layout | None = None):
    """Zero out rows (features) and rows+columns (adjacency) of dropped nodes.

    Shapes are unchanged; downstream readouts must exclude masked nodes
    explicitly. With a layout, `adjacency` holds each graph's block flat.
    Without an adjacency, A' is None: the forward passes none, since the
    backends that read the graph take A and the indicator instead.
    """
    ind = np.asarray(indicator, dtype=np.float64)
    if ind.shape != (features.shape[0],):
        raise ContractError(f"indicator length {ind.shape} != node count {features.shape[0]}")
    keep = ind[:, None]
    if adjacency is None:
        return features * keep, None
    layout = T.as_layout(layout, len(ind))
    a_prime = layout.map(lambda a, m: a * m * m.swapaxes(-1, -2), adjacency, keep, pairwise=1)
    return features * keep, a_prime.reshape(adjacency.shape)


def export_scores(rows, path: str):
    """Write per-node scores as CSV: graph_id, node_id, degree, score, kept.

    `rows` yields (graph_id, node_id, degree, score, kept) tuples.
    """
    write_csv(path, ["graph_id", "node_id", "degree", "score", "kept"],
              ([graph_id, node_id, int(degree), "%.17g" % score, int(kept)]
               for graph_id, node_id, degree, score, kept in rows))
