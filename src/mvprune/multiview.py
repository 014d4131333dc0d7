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

    def to_dict(self) -> dict:
        return {"k": self.k, "columns_per_view": self.columns_per_view,
                "overlap_ratio": self.overlap_ratio, "seed": self.seed}


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

    `adjacency` is one n x n matrix or a (b, n, n) stack of them. Constant with
    respect to training, so it enters the tape as a constant.
    """
    n = adjacency.shape[-1]
    inv_sqrt = 1.0 / np.sqrt(adjacency.sum(axis=-1) + 1.0)
    prop = inv_sqrt[..., :, None] * adjacency
    prop *= inv_sqrt[..., None, :]
    diagonal = prop.reshape(prop.shape[:-2] + (n * n,))[..., ::n + 1]
    diagonal += inv_sqrt * inv_sqrt
    return prop


def propagation(adjacency: np.ndarray, layout: T.Layout) -> np.ndarray:
    """`normalize_adjacency` of each graph's block, shaped like `adjacency`
    (see `tensor.Layout`)."""
    return layout.map(normalize_adjacency, adjacency, pairwise=1).reshape(adjacency.shape)


def gcn_layer(h: T.Tensor, weight: T.Tensor, propagation: np.ndarray,
              activation=T.relu, layout: T.Layout | None = None) -> T.Tensor:
    """One graph convolution per graph: act(P @ h @ weight), P from `propagation`."""
    prop = T.propagate(propagation, T.matmul(h, weight, layout), layout)
    return activation(prop) if activation is not None else prop


def encode_views_xa(x: np.ndarray, adjacency: np.ndarray, partition: ViewPartition,
                    encoder: ViewEncoder, layout: T.Layout | None = None) -> T.Tensor:
    """Latent matrix Z: column-concatenation of the per-view GCN outputs, each
    a bias-free linear embedding of the view's columns followed by one graph
    convolution with ReLU. With a layout, `x` stacks a batch's nodes and
    `adjacency` holds its blocks flat; without one they are one graph's."""
    if len(partition.columns_per_view) != len(encoder.embed_weights):
        raise ContractError("partition and encoder view counts differ")
    for cols, w_embed in zip(partition.columns_per_view, encoder.embed_weights):
        if len(cols) != w_embed.rows:
            raise ContractError(
                f"view expects {w_embed.rows} columns, partition provides {len(cols)}")
    layout = T.as_layout(layout, len(x))
    return T.gcn_views(x, partition.columns_per_view, encoder.embed_weights,
                       encoder.gcn_weights, propagation(adjacency, layout),  # one for every view
                       layout)
