import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mvprune import graphio
from mvprune.errors import ConfigError, FormatError, LoadError, SplitError


def write_two_triangles(tmp_path, name="toy"):
    """Two triangle graphs with raw labels {1, 2} and integer node labels."""
    (tmp_path / f"{name}_A.txt").write_text(
        "1, 2\n2, 1\n2, 3\n3, 2\n1, 3\n3, 1\n"
        "4, 5\n5, 4\n5, 6\n6, 5\n4, 6\n6, 4\n")
    (tmp_path / f"{name}_graph_indicator.txt").write_text("1\n1\n1\n2\n2\n2\n")
    (tmp_path / f"{name}_graph_labels.txt").write_text("1\n2\n")
    (tmp_path / f"{name}_node_labels.txt").write_text("0\n1\n0\n1\n1\n0\n")
    return str(tmp_path)


def test_load_minimal_fixture(tmp_path):
    ds = graphio.load_tu(write_two_triangles(tmp_path), "toy")
    assert len(ds) == 2
    assert ds.num_classes == 2
    assert sorted(g.label for g in ds.graphs) == [0, 1]
    for g in ds.graphs:
        assert g.n == 3
        assert g.adjacency.sum() == 6  # triangle, both directions
    assert ds.d == 2  # one-hot over node label values {0, 1}


def test_duplicate_edges_deduplicated(tmp_path):
    name = "dup"
    (tmp_path / f"{name}_A.txt").write_text("1, 2\n2, 1\n1, 2\n")
    (tmp_path / f"{name}_graph_indicator.txt").write_text("1\n1\n")
    (tmp_path / f"{name}_graph_labels.txt").write_text("5\n")
    (tmp_path / f"{name}_node_labels.txt").write_text("0\n0\n")
    ds = graphio.load_tu(str(tmp_path), name)
    g = ds.graphs[0]
    assert g.degrees[0] == 1
    assert np.array_equal(g.adjacency, [[0, 1], [1, 0]])


def test_missing_file_names_the_file(tmp_path):
    write_two_triangles(tmp_path)
    os.remove(tmp_path / "toy_graph_labels.txt")
    with pytest.raises(LoadError, match="toy_graph_labels.txt"):
        graphio.load_tu(str(tmp_path), "toy")


def test_cross_graph_edge_reports_line_number(tmp_path):
    name = "bad"
    (tmp_path / f"{name}_A.txt").write_text("1, 2\n2, 3\n")
    (tmp_path / f"{name}_graph_indicator.txt").write_text("1\n1\n2\n")
    (tmp_path / f"{name}_graph_labels.txt").write_text("0\n1\n")
    (tmp_path / f"{name}_node_labels.txt").write_text("0\n0\n0\n")
    with pytest.raises(FormatError, match="line 2"):
        graphio.load_tu(str(tmp_path), name)


def test_graph_without_nodes_is_rejected(tmp_path):
    name = "gap"
    (tmp_path / f"{name}_A.txt").write_text("1, 2\n3, 4\n")
    (tmp_path / f"{name}_graph_indicator.txt").write_text("1\n1\n3\n3\n")
    (tmp_path / f"{name}_graph_labels.txt").write_text("0\n1\n0\n")
    (tmp_path / f"{name}_node_labels.txt").write_text("0\n0\n0\n0\n")
    with pytest.raises(FormatError, match="graph 2 has no nodes"):
        graphio.load_tu(str(tmp_path), name)


def test_roundtrip_identical(tmp_path):
    ds, _ = graphio.synth_planted_anomalies(12, 9, 0.2, seed=3)
    out = tmp_path / "rt"
    graphio.save_tu(ds, str(out), "rt")
    back = graphio.load_tu(str(out), "rt")
    assert len(back) == len(ds)
    assert back.num_classes == ds.num_classes
    for a, b in zip(ds.graphs, back.graphs):
        assert a.label == b.label
        assert np.array_equal(a.adjacency, b.adjacency)
        assert np.array_equal(a.features, b.features)


@st.composite
def tu_datasets(draw):
    d = draw(st.integers(min_value=1, max_value=3))
    graphs = []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        n = draw(st.integers(min_value=1, max_value=7))
        bits = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
        upper = np.triu(np.array(bits, dtype=float).reshape(n, n), 1)
        values = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                               min_size=n * d, max_size=n * d))
        label = draw(st.integers(min_value=-2, max_value=3))
        graphs.append(graphio.Graph(upper + upper.T, np.array(values).reshape(n, d), label))
    labels = sorted({g.label for g in graphs})
    return graphio.Dataset(graphs, d, len(labels), "prop")


@settings(max_examples=100, deadline=None)
@given(ds=tu_datasets())
def test_roundtrip_property(ds):
    with tempfile.TemporaryDirectory() as out:
        graphio.save_tu(ds, out)
        back = graphio.load_tu(out, ds.name)
    labels = sorted({g.label for g in ds.graphs})  # loading remaps labels to 0..C-1
    assert (len(back), back.d, back.num_classes) == (len(ds), ds.d, ds.num_classes)
    for a, b in zip(ds.graphs, back.graphs):
        assert np.array_equal(a.adjacency, b.adjacency)
        assert np.array_equal(a.features, b.features)
        assert b.label == labels.index(a.label)


def test_loaded_graphs_are_symmetric_zero_diag(tmp_path):
    ds = graphio.load_tu(write_two_triangles(tmp_path), "toy")
    for g in ds.graphs:
        assert np.array_equal(g.adjacency, g.adjacency.T)
        assert np.all(np.diag(g.adjacency) == 0)


# -- synthetic corpus ------------------------------------------------------

def test_synth_zero_fraction_has_empty_truth():
    _, truth = graphio.synth_planted_anomalies(10, 12, 0.0, seed=1)
    assert all(len(t) == 0 for t in truth)


def test_synth_fraction_out_of_range():
    with pytest.raises(ConfigError):
        graphio.synth_planted_anomalies(10, 12, 0.6, seed=1)


def test_synth_deterministic():
    a, ta = graphio.synth_planted_anomalies(8, 10, 0.2, seed=42)
    b, tb = graphio.synth_planted_anomalies(8, 10, 0.2, seed=42)
    assert ta == tb
    for ga, gb in zip(a.graphs, b.graphs):
        assert ga.features.tobytes() == gb.features.tobytes()
        assert ga.adjacency.tobytes() == gb.adjacency.tobytes()


def test_synth_anomalies_have_degree_one():
    ds, truth = graphio.synth_planted_anomalies(6, 15, 0.2, seed=5)
    for g, anom in zip(ds.graphs, truth):
        for node in anom:
            assert g.degrees[node] == 1


def test_anomaly_truth_roundtrip(tmp_path):
    ds, truth = graphio.synth_planted_anomalies(6, 10, 0.2, seed=5)
    graphio.save_anomaly_truth(truth, str(tmp_path), "x")
    assert graphio.load_anomaly_truth(str(tmp_path), "x") == truth


# -- splits ----------------------------------------------------------------

def test_split_100_graphs():
    ds, _ = graphio.synth_planted_anomalies(100, 8, 0.0, seed=0)
    sp = graphio.split(ds, seed=0)
    assert (len(sp.train), len(sp.val), len(sp.test)) == (81, 9, 10)


def test_split_1113_graphs_rounding_rule():
    ds, _ = graphio.synth_planted_anomalies(1113, 4, 0.0, seed=0)
    sp = graphio.split(ds, seed=1)
    assert (len(sp.train), len(sp.val), len(sp.test)) == (901, 100, 112)


def test_split_deterministic_per_seed():
    ds, _ = graphio.synth_planted_anomalies(50, 8, 0.0, seed=0)
    a, b = graphio.split(ds, seed=9), graphio.split(ds, seed=9)
    assert (a.train, a.val, a.test) == (b.train, b.val, b.test)


def test_split_too_small():
    ds, _ = graphio.synth_planted_anomalies(11, 8, 0.0, seed=0)
    with pytest.raises(SplitError):
        graphio.split(ds, seed=0)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_split_partition_property(seed):
    ds, _ = graphio.synth_planted_anomalies(37, 6, 0.0, seed=0)
    sp = graphio.split(ds, seed=seed)
    combined = sorted(sp.train + sp.val + sp.test)
    assert combined == list(range(37))


def test_split_is_roughly_stratified():
    ds, _ = graphio.synth_planted_anomalies(100, 8, 0.0, seed=0)
    sp = graphio.split(ds, seed=3)
    labels = [ds.graphs[i].label for i in sp.train]
    assert abs(labels.count(0) - labels.count(1)) <= 1


def test_feature_scaler():
    ds, _ = graphio.synth_planted_anomalies(20, 10, 0.1, seed=2)
    scaler = graphio.FeatureScaler.fit(ds, range(16))
    stacked = np.concatenate([ds.graphs[i].features for i in range(16)])
    z = scaler.transform(stacked)
    assert np.allclose(z.mean(axis=0), 0.0, atol=1e-10)
    assert np.allclose(z.std(axis=0), 1.0, atol=1e-10)
