"""Per-layer self time and counts, recorded from outside the library.

Each public function of interest is replaced, at the name its caller looks up,
by a wrapper that times the call. A layer's self time is the call's duration
minus the time spent in wrapped functions it called, so self times of nested
layers never overlap and add up to the time all wrapped calls covered. Python
GC pauses come from ``gc.callbacks``; they fall inside whichever layer was
running and are reported on their own, not subtracted.

A function missing from the library (renamed or removed) is skipped, and only
the metrics it feeds go missing from the report.
"""

from __future__ import annotations

import gc
import importlib
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable


def _rows(args, kwargs, result):
    return int(result.shape[0])


def _kept(args, kwargs, result):
    return int(result[0].sum())


def _masked_rows(args, kwargs, result):
    # PoolBackend.forward(self, x_prime, a_prime, indicator)
    x_prime, indicator = args[1], args[3]
    return int(round(x_prime.rows - float(indicator.sum())))


@dataclass(frozen=True)
class Wrap:
    module: str                 # module under mvprune whose attribute is replaced
    attr: str                   # "name" or "Class.method"
    time_metric: str | None     # self seconds go here
    count_metric: str | None = None
    amount: Callable | None = None  # count added per call; None counts calls
    inclusive: bool = False     # time the whole call; children keep their own self time


# Each row wraps one name. A library function that two modules import under
# their own names is wrapped at each of them.
WRAPS = (
    Wrap("graphio", "load_tu", "graphio.load_s"),
    Wrap("graphio", "FeatureScaler.transform", "graphio.scale_s", "graphio.scale_calls"),
    Wrap("train", "encode_views_xa", "multiview.encode_s"),
    Wrap("multiview", "gcn_layer", "multiview.gcn_s"),
    Wrap("pooling", "gcn_layer", "multiview.gcn_s"),
    Wrap("multiview", "normalize_adjacency", None, "multiview.normalize_calls"),
    Wrap("multiview", "normalized_edges", None, "multiview.normalize_calls"),
    Wrap("train", "reconstruct", "prune.reconstruct_s"),
    Wrap("train", "recon_losses", "prune.recon_loss_s"),
    Wrap("train", "node_scores", "prune.score_s", "prune.nodes_scored", _rows),
    Wrap("train", "build_indicator", "prune.threshold_s", "prune.nodes_kept", _kept),
    Wrap("analysis", "build_indicator", "prune.threshold_s"),
    Wrap("pooling", "PoolBackend.forward", "pooling.backend_s", "pooling.masked_rows",
         _masked_rows),
    Wrap("train", "classify", "pooling.classify_s"),
    Wrap("tensor", "backward", "tensor.backward_s", "tensor.backward_calls"),
    Wrap("tensor", "cross_entropy", "tensor.loss_s"),
    Wrap("train", "forward_graph", "train.forward_s", "train.forward_calls"),
    Wrap("train", "evaluate", "train.evaluate_s", inclusive=True),
    Wrap("train", "Adam.step", "train.adam_s", "train.adam_steps"),
    Wrap("train", "Adam.zero_grad", "train.adam_s"),
    Wrap("analysis", "betweenness", "analysis.betweenness_s"),
    Wrap("analysis", "degree_pruning_profile", "analysis.profile_s"),
    Wrap("prune", "export_scores", "analysis.export_s"),
)

GC_METRICS = ("runtime.gc_s", "runtime.gc_collections", "runtime.gc_collected")

# Inclusive spans the benchmark opens around its own loops.
OWN_SPANS = ("analysis.sweep_eval_s",)

# Metrics that overlap others and so stay out of a sum of self times.
OVERLAPPING = {w.time_metric for w in WRAPS if w.inclusive} | set(OWN_SPANS) | {"runtime.gc_s"}


class Tracer:
    """Installs the wrappers, accumulates totals, and removes the wrappers on exit."""

    def __init__(self):
        self.totals: dict[str, float] = defaultdict(float)
        self.metrics: list[str] = []     # every metric whose source exists
        self._open: list[float] = []     # child time of each open self-time span
        self._undo: list[tuple[object, str, object]] = []
        self._gc_start = 0.0

    # -- install / remove --------------------------------------------------
    def __enter__(self):
        found = []
        for w in WRAPS:
            owner, name = self._resolve(w)
            if owner is None:
                continue
            original = owner.__dict__[name]
            setattr(owner, name, self._wrapper(original, w))
            self._undo.append((owner, name, original))
            found += [m for m in (w.time_metric, w.count_metric) if m]
        found += list(OWN_SPANS) + list(GC_METRICS)
        self.metrics = list(dict.fromkeys(found))
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self._on_gc)
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()
        return False

    @staticmethod
    def _resolve(w: Wrap):
        try:
            owner = importlib.import_module(f"mvprune.{w.module}")
        except ModuleNotFoundError:
            return None, w.attr
        *path, name = w.attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
            if owner is None:
                return None, name
        if name not in getattr(owner, "__dict__", {}):
            return None, name
        return owner, name

    def _wrapper(self, fn, w: Wrap):
        totals, open_spans, clock = self.totals, self._open, time.perf_counter
        metric, count, amount = w.time_metric, w.count_metric, w.amount

        if w.inclusive:
            def wrapped(*args, **kwargs):
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    totals[metric] += clock() - start
        elif metric is None:
            def wrapped(*args, **kwargs):
                totals[count] += 1
                return fn(*args, **kwargs)
        else:
            def wrapped(*args, **kwargs):
                start = clock()
                open_spans.append(0.0)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    totals[metric] += elapsed - open_spans.pop()
                    if open_spans:
                        open_spans[-1] += elapsed
                if count is not None:
                    totals[count] += 1 if amount is None else amount(args, kwargs, result)
                return result

        wrapped.__wrapped__ = fn
        return wrapped

    # -- benchmark-side spans and GC ---------------------------------------
    def add(self, metric: str, value: float):
        self.totals[metric] += value

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.totals["runtime.gc_s"] += time.perf_counter() - self._gc_start
            self.totals["runtime.gc_collections"] += 1
            self.totals["runtime.gc_collected"] += info.get("collected", 0)

    def take(self) -> dict[str, float]:
        """Totals since the last call, for every metric whose source exists."""
        out = {m: float(self.totals.get(m, 0.0)) for m in self.metrics}
        self.totals.clear()
        return out


def self_time_sum(values: dict[str, float]) -> float:
    """Sum of non-overlapping self times."""
    return sum(v for m, v in values.items() if m.endswith("_s") and m not in OVERLAPPING)
