"""The benchmark's per-layer metrics come from wrappers installed at library
names (perfbench/layers.py). A renamed or removed function silently drops its
metric, so every wrapped name must still resolve."""

import importlib.util
import os
import sys

import pytest

LAYERS = os.path.join(os.path.dirname(__file__), "..", "perfbench", "layers.py")

# names the library dropped on purpose: multiview.normalized_edges went with the
# sparse propagation path (cd2395b)
GONE = {("multiview", "normalized_edges")}


@pytest.fixture(scope="module")
def layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_every_wrapped_name_resolves(layers):
    missing = [(w.module, w.attr) for w in layers.WRAPS
               if layers.Tracer._resolve(w)[0] is None and (w.module, w.attr) not in GONE]
    assert missing == []


def test_the_allowlist_names_only_what_is_gone(layers):
    wrapped = {(w.module, w.attr): w for w in layers.WRAPS}
    for key in GONE:
        assert key in wrapped
        assert layers.Tracer._resolve(wrapped[key])[0] is None, key


@pytest.mark.parametrize("name", ["encode_views_xa", "reconstruct", "recon_losses",
                                  "node_scores", "build_indicator", "classify",
                                  "forward_graph", "evaluate"])
def test_training_looks_up_the_wrapped_names(name):
    # the wrappers replace these attributes of mvprune.train, so training must
    # reach them there rather than through another module
    from mvprune import train
    assert name in vars(train)
