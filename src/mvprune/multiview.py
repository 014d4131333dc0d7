"""Random view partitions and the per-view embed + graph-convolution encoder.

Each view slices its feature columns, applies a bias-free linear embedding,
then one symmetric-normalized graph convolution with ReLU; the per-view
outputs are column-concatenated into the latent matrix Z.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

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
        return asdict(self)


def default_overlap_ratio(d: int, k: int) -> float:
    """0.25 when a view would have fewer than 4 features, else no overlap."""
    return 0.25 if math.ceil(d / k) < 4 else 0.0


def make_partition(d: int, k: int, overlap_ratio: float, seed: int) -> ViewPartition:
    if k < 1 or d < k:
        raise ConfigError(f"need 1 <= k <= d, got k={k}, d={d}")
    if not 0.0 <= overlap_ratio < 1.0:
        raise ConfigError(f"overlap_ratio must be in [0, 1), got {overlap_ratio}")
    # k chunks of a shuffle, the first d mod k one column wider
    chunks = [c.tolist() for c in np.array_split(substream(seed, "partition").permutation(d), k)]
    n_shared = int(overlap_ratio * math.ceil(d / k)) if k > 1 else 0
    cols = [chunks[i] + chunks[(i + 1) % k][:n_shared]  # borrow from the cyclic successor
            for i in range(k)]
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


def normalize_adjacency(adjacency: np.ndarray, keep: np.ndarray | None = None) -> np.ndarray:
    """D^{-1/2} (A + I) D^{-1/2} with degrees from A + I; the I goes on the diagonal.

    `adjacency` is one n x n matrix or a (b, n, n) stack of them. Constant with
    respect to training, so it enters the tape as a constant. With a 0/1 `keep`
    mask (n, or b x n), the matrix of A' = A m m^T, bit for bit and without
    building A': for 0/1 entries the degree sums are exact integers either
    way, and a dropped node's row and column are 0 bar its 1 on the diagonal.
    """
    n = adjacency.shape[-1]
    deg = adjacency.sum(axis=-1) if keep is None else keep * (adjacency @ keep[..., None])[..., 0]
    inv_sqrt = 1.0 / np.sqrt(deg + 1.0)
    side = inv_sqrt if keep is None else keep * inv_sqrt
    prop = side[..., :, None] * adjacency
    prop *= side[..., None, :]
    diagonal = prop.reshape(prop.shape[:-2] + (n * n,))[..., ::n + 1]
    diagonal += inv_sqrt * inv_sqrt
    return prop


def propagation(adjacency: np.ndarray, layout: T.Layout, keep: np.ndarray | None = None
                ) -> np.ndarray:
    """`normalize_adjacency` of each graph's block (masked by its rows of
    `keep` if given), shaped like `adjacency` (see `tensor.Layout`)."""
    masks = () if keep is None else (keep,)
    return layout.map(normalize_adjacency, adjacency, *masks, pairwise=1).reshape(adjacency.shape)


def gcn_layer(h: T.Tensor, weight: T.Tensor, propagation: np.ndarray,
              activation=T.relu, layout: T.Layout | None = None) -> T.Tensor:
    """One graph convolution per graph: act(P @ h @ weight), P from `propagation`."""
    prop = T.propagate(propagation, T.matmul(h, weight, layout), layout)
    return activation(prop) if activation is not None else prop


def encode_views_xa(x: np.ndarray, adjacency: np.ndarray, partition: ViewPartition,
                    encoder: ViewEncoder, layout: T.Layout | None = None,
                    prop: np.ndarray | None = None) -> T.Tensor:
    """Latent matrix Z: column-concatenation of the per-view GCN outputs, each
    a bias-free linear embedding of the view's columns followed by one graph
    convolution with ReLU. With a layout, `x` stacks a batch's nodes and
    `adjacency` holds its blocks flat; without one they are one graph's.
    All views share one propagation matrix: `prop`, if given, which the caller
    computed once for many forwards, else `propagation(adjacency, layout)`."""
    if len(partition.columns_per_view) != len(encoder.embed_weights):
        raise ContractError("partition and encoder view counts differ")
    for cols, w_embed in zip(partition.columns_per_view, encoder.embed_weights):
        if len(cols) != w_embed.rows:
            raise ContractError(
                f"view expects {w_embed.rows} columns, partition provides {len(cols)}")
    layout = T.as_layout(layout, len(x))
    return T.gcn_views(x, partition.columns_per_view, encoder.embed_weights, encoder.gcn_weights,
                       propagation(adjacency, layout) if prop is None else prop, layout)
