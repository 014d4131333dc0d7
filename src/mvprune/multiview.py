"""Random view partitions and the per-view embed + graph-convolution encoder.

Each view slices its feature columns, applies a bias-free linear embedding,
then one symmetric-normalized graph convolution with ReLU; the per-view
outputs are column-concatenated into the latent matrix Z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, ContractError
from .rng import substream


@dataclass
class ViewPartition:
    k: int
    columns_per_view: list[list[int]]
    overlap_ratio: float
    seed: int

    @property
    def d(self) -> int:
        return len({c for cols in self.columns_per_view for c in cols})

    def to_dict(self) -> dict:
        return {"k": self.k, "columns_per_view": self.columns_per_view,
                "overlap_ratio": self.overlap_ratio, "seed": self.seed}

    @classmethod
    def from_dict(cls, d: dict) -> "ViewPartition":
        return cls(d["k"], [list(map(int, c)) for c in d["columns_per_view"]],
                   d["overlap_ratio"], d["seed"])


def default_overlap_ratio(d: int, k: int) -> float:
    """0.25 when a view would have fewer than 4 features, else no overlap."""
    return 0.25 if math.ceil(d / k) < 4 else 0.0


def make_partition(d: int, k: int, overlap_ratio: float, seed: int) -> ViewPartition:
    if k < 1 or d < k:
        raise ConfigError(f"need 1 <= k <= d, got k={k}, d={d}")
    if not 0.0 <= overlap_ratio < 1.0:
        raise ConfigError(f"overlap_ratio must be in [0, 1), got {overlap_ratio}")
    rng = substream(seed, "partition")
    shuffled = [int(c) for c in rng.permutation(d)]
    base, extra = divmod(d, k)
    chunks, off = [], 0
    for i in range(k):
        width = base + (1 if i < extra else 0)
        chunks.append(shuffled[off:off + width])
        off += width
    n_shared = int(overlap_ratio * math.ceil(d / k))
    cols = []
    for i in range(k):
        view = list(chunks[i])
        if n_shared and k > 1:
            view.extend(chunks[(i + 1) % k][:n_shared])  # borrow from the cyclic successor
        cols.append(view)
    return ViewPartition(k, cols, overlap_ratio, seed)


@dataclass
class ViewEncoder:
    embed_weights: list[T.Tensor]  # d_i x e_i, bias-free
    gcn_weights: list[T.Tensor]    # e_i x h_i

    @classmethod
    def init(cls, partition: ViewPartition, latent_width: int, rng: np.random.Generator) -> "ViewEncoder":
        width = math.ceil(latent_width / partition.k)  # e_i = h_i
        embeds, gcns = [], []
        for cols in partition.columns_per_view:
            embeds.append(T.param(None, rng, (len(cols), width)))
            gcns.append(T.param(None, rng, (width, width)))
        return cls(embeds, gcns)

    @property
    def latent_width(self) -> int:
        return sum(w.cols for w in self.gcn_weights)


def normalize_adjacency(adjacency: np.ndarray) -> np.ndarray:
    """D^{-1/2} (A + I) D^{-1/2} with degrees from A + I; the I goes on the diagonal.

    Constant with respect to training, so it enters the tape as a constant.
    """
    inv_sqrt = 1.0 / np.sqrt(adjacency.sum(axis=1) + 1.0)
    prop = inv_sqrt[:, None] * adjacency
    prop *= inv_sqrt[None, :]
    prop.flat[::prop.shape[0] + 1] += inv_sqrt * inv_sqrt
    return prop


def gcn_layer(h: T.Tensor, weight: T.Tensor, propagation: np.ndarray,
              activation=T.relu) -> T.Tensor:
    """One graph convolution: act(P @ h @ weight), P = normalize_adjacency(A)."""
    prop = T.matmul(T.Tensor(propagation), T.matmul(h, weight))
    return activation(prop) if activation is not None else prop


def encode_views_xa(x: np.ndarray, adjacency: np.ndarray, partition: ViewPartition,
                    encoder: ViewEncoder) -> T.Tensor:
    """Latent matrix Z: column-concatenation of the per-view GCN outputs."""
    if len(partition.columns_per_view) != len(encoder.embed_weights):
        raise ContractError("partition and encoder view counts differ")
    x_t = T.Tensor(x)
    propagation = normalize_adjacency(adjacency)  # shared by every view
    parts = []
    for cols, w_embed, w_gcn in zip(partition.columns_per_view,
                                    encoder.embed_weights, encoder.gcn_weights):
        if len(cols) != w_embed.rows:
            raise ContractError(
                f"view expects {w_embed.rows} columns, partition provides {len(cols)}")
        embedded = T.matmul(T.slice_cols(x_t, cols), w_embed)  # linear, no activation
        parts.append(gcn_layer(embedded, w_gcn, propagation))
    return T.concat_cols(parts)
