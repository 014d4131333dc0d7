"""Multi-view reconstruction-based node pruning for graph pooling."""

__version__ = "0.1.0"

import ctypes
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

# Each forward frees dozens of n x n arrays. Under glibc's adaptive mmap and
# trim thresholds, how many of them go back to the kernel, to be page-faulted in
# again, depends on earlier allocations; fixed thresholds keep them on the heap.
try:
    mallopt = ctypes.CDLL(None).mallopt  # the C library, loaded once
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: heap below 32 MB
    mallopt(-1, 512 << 20)  # M_TRIM_THRESHOLD: trim above 512 MB free
    del mallopt
except (OSError, AttributeError, TypeError):  # no glibc mallopt: leave malloc as it is
    pass
