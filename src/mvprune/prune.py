"""Reconstruction of A and X from the latent space, node scoring, and masking.

Scores drive a hard keep/drop decision and are computed outside the tape; the
indicator enters the training graph only as a constant mask, so gradients
reach the encoder and decoders exclusively through the reconstruction losses.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, ContractError

LOG_EPS = 1e-7  # clamp for sigmoid outputs before taking logs


@dataclass
class ReconHead:
    weight: T.Tensor  # h_f x d
    bias: T.Tensor    # 1 x d, broadcast over rows (shared across graph sizes)

    @classmethod
    def init(cls, latent_width: int, d: int, rng: np.random.Generator) -> "ReconHead":
        return cls(T.param(None, rng, (latent_width, d)),
                   T.param(np.zeros((1, d))))


def reconstruct(z: T.Tensor, head: ReconHead):
    """A_hat = sigmoid(Z Z^T) (symmetric by construction), X_hat = ReLU(Z W + b)."""
    a_hat = T.sigmoid(T.matmul(z, T.transpose(z)))
    x_hat = T.relu(T.add(T.matmul(z, head.weight), head.bias))
    return a_hat, x_hat


def recon_losses(adjacency: np.ndarray, features: np.ndarray,
                 a_hat: T.Tensor, x_hat: T.Tensor):
    """(La, Lx, Lr): mean edge NLL over the full n x n grid, mean squared
    feature error, and their sum. All three stay on the tape."""
    n = adjacency.shape[0]
    d = features.shape[1]
    if a_hat.shape != (n, n) or x_hat.shape != (n, d):
        raise ContractError(
            f"reconstruction shapes {a_hat.shape}/{x_hat.shape} do not match graph ({n}, {d})")
    a_c = T.clip(a_hat, LOG_EPS, 1.0 - LOG_EPS)
    pos = T.mul_const(T.log(a_c), adjacency)
    neg = T.mul_const(T.log(T.add_const(T.scale(a_c, -1.0), 1.0)), 1.0 - adjacency)
    la = T.scale(T.tsum(T.add(pos, neg)), -1.0 / (n * n))
    diff = T.add_const(T.scale(x_hat, -1.0), features)
    lx = T.scale(T.tsum(T.mul(diff, diff)), 1.0 / (n * d))
    return la, lx, T.add(la, lx)


def node_scores(adjacency: np.ndarray, features: np.ndarray,
                a_hat: np.ndarray, x_hat: np.ndarray, lam: float = 0.5) -> np.ndarray:
    """Per-node blend of squared adjacency-row and feature-row residuals."""
    if not 0.0 <= lam <= 1.0:
        raise ContractError(f"lambda must be in [0, 1], got {lam}")
    adj_err = ((adjacency - a_hat) ** 2).sum(axis=1)
    feat_err = ((features - x_hat) ** 2).sum(axis=1)
    return lam * adj_err + (1.0 - lam) * feat_err


def build_indicator(scores: np.ndarray, c: float = 2.0):
    """Keep node i iff score_i <= mu + c*sigma (population sigma); boundary keeps.

    Equivalent to thresholding sigmoid(-s + mu + c*sigma) at 0.5.
    """
    if not (math.isfinite(c) and c > 0):
        raise ConfigError(f"threshold multiplier c must be finite and > 0, got {c}")
    scores = np.asarray(scores, dtype=np.float64)
    if scores.size < 1:
        raise ContractError("build_indicator needs at least one score")
    mu = float(scores.mean())
    sigma = float(scores.std())  # population
    indicator = (scores <= mu + c * sigma).astype(np.float64)
    dropped = int(scores.size - indicator.sum())
    # Chebyshev: no more than n/c^2 nodes can sit above mu + c*sigma
    if dropped > math.floor(scores.size / (c * c)):
        raise ContractError(
            f"dropped {dropped} of {scores.size} nodes, violating the Chebyshev bound")
    return indicator, mu, sigma


def apply_mask(features: np.ndarray, adjacency: np.ndarray, indicator: np.ndarray):
    """Zero out rows (features) and rows+columns (adjacency) of dropped nodes.

    Shapes are unchanged; downstream readouts must exclude masked nodes
    explicitly.
    """
    ind = np.asarray(indicator, dtype=np.float64)
    if ind.shape != (adjacency.shape[0],):
        raise ContractError(f"indicator length {ind.shape} != node count {adjacency.shape[0]}")
    x_prime = features * ind[:, None]
    a_prime = adjacency * ind[:, None] * ind[None, :]
    return x_prime, a_prime


def export_scores(rows, path: str):
    """Write per-node scores as CSV: graph_id, node_id, degree, score, kept.

    `rows` yields (graph_id, node_id, degree, score, kept) tuples.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["graph_id", "node_id", "degree", "score", "kept"])
        for graph_id, node_id, degree, score, kept in rows:
            writer.writerow([graph_id, node_id, int(degree), "%.17g" % score, int(kept)])
