"""Multi-view reconstruction-based node pruning for graph pooling."""

__version__ = "0.1.0"

from .graphio import Dataset, Graph, SplitSpec, load_tu, save_tu, split, synth_planted_anomalies
from .multiview import (ViewEncoder, ViewPartition, encode_views_xa, make_partition,
                        normalize_adjacency)
from .prune import ReconHead, apply_mask, build_indicator, node_scores, reconstruct
from .train import MvpModel, TrainConfig, TrialReport, forward_graph, run_trials, train_one

__all__ = [
    "Dataset", "Graph", "SplitSpec", "load_tu", "save_tu", "split",
    "synth_planted_anomalies", "ViewEncoder", "ViewPartition", "encode_views_xa",
    "make_partition", "normalize_adjacency", "ReconHead",
    "apply_mask", "build_indicator", "node_scores", "reconstruct",
    "MvpModel", "TrainConfig", "TrialReport", "forward_graph", "run_trials",
    "train_one", "__version__",
]
