import hashlib
import locale
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from mvprune import graphio
from mvprune.errors import ConfigError, FormatError, LoadError, MvpruneError, SplitError


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


@pytest.mark.parametrize("attributes, message", [
    ("0.5, 1\n2, 3\n1.5\n", "line 3: 1 values, expected 2"),
    ("0.5, 1\n2, 3\n", "2 lines for 3 nodes"),
    ("0.5, 1\n2, 3\n1, x\n", "line 3: bad value"),
])
def test_bad_node_attributes_name_the_line(tmp_path, attributes, message):
    name = "attrs"
    (tmp_path / f"{name}_A.txt").write_text("1, 2\n2, 1\n")
    (tmp_path / f"{name}_graph_indicator.txt").write_text("1\n1\n1\n")
    (tmp_path / f"{name}_graph_labels.txt").write_text("0\n")
    (tmp_path / f"{name}_node_attributes.txt").write_text(attributes)
    with pytest.raises(FormatError, match=message):
        graphio.load_tu(str(tmp_path), name)


def test_graph_without_nodes_is_rejected(tmp_path):
    name = "gap"
    (tmp_path / f"{name}_A.txt").write_text("1, 2\n3, 4\n")
    (tmp_path / f"{name}_graph_indicator.txt").write_text("1\n1\n3\n3\n")
    (tmp_path / f"{name}_graph_labels.txt").write_text("0\n1\n0\n")
    (tmp_path / f"{name}_node_labels.txt").write_text("0\n0\n0\n0\n")
    with pytest.raises(FormatError, match="graph 2 has no nodes"):
        graphio.load_tu(str(tmp_path), name)
    with pytest.raises(FormatError, match="at least one node"):
        graphio.Graph(np.zeros((0, 0)), np.zeros((0, 3)), 0)
    for suffix in ("A", "graph_indicator", "graph_labels", "node_labels"):  # a corpus of none
        (tmp_path / f"empty_{suffix}.txt").write_text("")
    with pytest.raises(FormatError, match="lists no graphs"):
        graphio.load_tu(str(tmp_path), "empty")


def _sym(*entries):
    """A 3-node adjacency with the given (i, j, value) entries, mirrored."""
    a = np.zeros((3, 3))
    for i, j, value in entries:
        a[i, j] = a[j, i] = value
    return a


@pytest.mark.parametrize("adjacency, features, message", [
    (np.zeros((3, 2)), np.zeros((3, 1)), "adjacency must be square"),
    (np.zeros((3, 3)), np.zeros((2, 1)), r"features \(2, 1\) do not match 3 nodes"),
    (np.triu(np.ones((3, 3)), 1), np.zeros((3, 1)), "not symmetric"),
    (_sym((0, 1, np.nan)), np.zeros((3, 1)), "not symmetric"),
    (_sym((1, 1, 1.0)), np.zeros((3, 1)), "nonzero diagonal"),
    (_sym((2, 2, -1e-300)), np.zeros((3, 1)), "nonzero diagonal"),
    (_sym((0, 2, 2.0)), np.zeros((3, 1)), "entries must be 0 or 1"),
    (_sym((0, 2, 1.0 + 2.0**-52)), np.zeros((3, 1)), "entries must be 0 or 1"),
    (_sym((0, 2, np.inf)), np.zeros((3, 1)), "entries must be 0 or 1"),
    (_sym((0, 1, 1.0)), np.array([[0.0], [np.inf], [0.0]]), "NaN/Inf"),
])
def test_graph_rejects_bad_arrays(adjacency, features, message):
    with pytest.raises(FormatError, match=message):
        graphio.Graph(adjacency, features, 0)


def test_graph_takes_negative_zero_for_zero():
    graphio.Graph(_sym((0, 1, 1.0), (1, 2, -0.0), (2, 2, -0.0)), np.zeros((3, 1)), 0)


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
        back, ref = load_both(out, ds.name)
    assert_same_dataset(back, ref)  # the per-line loader reads the same
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


# -- the loader against the per-line oracle ---------------------------------

def write_files(directory, name, files):
    """Write each `suffix: text` of `files` as `<name>_<suffix>.txt`, newlines as given."""
    for suffix, text in files.items():
        with open(os.path.join(directory, f"{name}_{suffix}.txt"), "w", newline="") as fh:
            fh.write(text)


def load_both(directory, name):
    """The outcomes of `load_tu` and of the oracle: a Dataset or the exception raised."""
    outcomes = []
    for load in (graphio.load_tu, oracles.load_tu_ref):
        try:
            outcomes.append(load(directory, name))
        except (MvpruneError, ValueError) as exc:
            outcomes.append(exc)
    return outcomes


def assert_same_dataset(a, b):
    assert (a.name, a.d, a.num_classes, len(a)) == (b.name, b.d, b.num_classes, len(b))
    assert type(a.d) is type(b.d) and type(a.num_classes) is type(b.num_classes)
    for g, h in zip(a.graphs, b.graphs):
        assert type(g.label) is type(h.label) and g.label == h.label
        for x, y in ((g.adjacency, h.adjacency), (g.features, h.features)):
            assert (x.dtype, x.shape, x.flags.c_contiguous, x.flags.owndata) == \
                (y.dtype, y.shape, y.flags.c_contiguous, y.flags.owndata)
            assert x.tobytes() == y.tobytes()
    assert a.fingerprint() == b.fingerprint()


def assert_same_outcome(directory, name):
    new, ref = load_both(directory, name)
    if isinstance(ref, graphio.Dataset):
        assert isinstance(new, graphio.Dataset), new
        assert_same_dataset(new, ref)
    elif isinstance(ref, MvpruneError):
        assert (type(new), str(new)) == (type(ref), str(ref))
    else:  # the oracle's bare ValueError for an id or label that is not an integer
        assert isinstance(new, FormatError) and "cannot parse integer" in str(new), (new, ref)


TWO_GRAPHS = {"graph_indicator": "1\n1\n1\n2\n2\n2\n", "graph_labels": "1\n2\n",
              "node_labels": "0\n1\n0\n1\n1\n0\n"}

FIXTURES = {
    "duplicate and two-way edges": dict(TWO_GRAPHS, A="1, 2\n2, 1\n1, 2\n4, 5\n5, 4\n5, 4\n"),
    "self-loops": dict(TWO_GRAPHS, A="1, 1\n1, 2\n6, 6\n"),
    "edgeless graphs": dict(TWO_GRAPHS, A="1, 2\n"),
    "empty edge file": dict(TWO_GRAPHS, A=""),
    "whitespace-only edge file": dict(TWO_GRAPHS, A="\n  \n\t\n"),
    "one-node graphs": {"A": "2, 3\n", "graph_indicator": "1\n2\n2\n3\n",
                        "graph_labels": "0\n1\n0\n", "node_labels": "4\n4\n5\n4\n"},
    "blank and whitespace-only lines": {
        "A": "\n1, 2\n   \n\t\n2, 3\n\n", "graph_indicator": "1\n\n1\n 1\n  \n2\n2\n2\n\n",
        "graph_labels": "\n1\n\t\n2\n", "node_labels": "0\n1\n \n0\n1\n1\n0\n"},
    "CRLF line endings": {key: text.replace("\n", "\r\n") for key, text in
                          dict(TWO_GRAPHS, A="1, 2\n2, 3\n4, 6\n").items()},
    "CR line endings": {key: text.replace("\n", "\r") for key, text in
                        dict(TWO_GRAPHS, A="1, 2\n2, 3\n4, 6\n").items()},
    "spaces around commas": dict(TWO_GRAPHS, A="1 ,2\n2 , 3\n\t4,\t5 \n 5,6\n"),
    "signs and leading zeros": {"A": "+1, 02\n+4, +5\n", "graph_indicator": "+1\n01\n1\n2\n+2\n",
                                "graph_labels": "-1\n+1\n", "node_labels": "-0\n+3\n3\n0\n-2\n"},
    "underscores in ids": dict(TWO_GRAPHS, A="1, 2\n", graph_labels="1_0\n2\n"),
    "non-ASCII digits and spaces": dict(TWO_GRAPHS, A="1, 2\n 4, 5\n",
                                        graph_labels="١\n٢\n"),
    "node labels with attributes": dict(TWO_GRAPHS, A="1, 2\n",
                                        node_attributes="0.5, -1\n2, 3e-3\n1e300, 0\n"
                                                        "-0.0, .5\n5., 7\n1_0.5, 1\n"),
    "attributes only": {"A": "1, 3\n", "graph_indicator": "1\n1\n1\n",
                        "graph_labels": "3\n", "node_attributes": "1\n2\n3\n"},
    "graph labels not contiguous": {"A": "", "graph_indicator": "1\n2\n3\n4\n",
                                    "graph_labels": "7\n-3\n7\n100\n",
                                    "node_labels": "1\n1\n1\n1\n"},
    "graph labels beyond int64": dict(
        TWO_GRAPHS, A="", graph_labels="99999999999999999999\n-99999999999999999999\n"),
    "nodes of a graph apart": {"A": "1, 3\n2, 4\n", "graph_indicator": "2\n1\n2\n1\n",
                               "graph_labels": "0\n1\n", "node_labels": "0\n1\n2\n3\n"},
}


@pytest.mark.parametrize("files", FIXTURES.values(), ids=FIXTURES)
def test_fixture_corpora_load_as_the_oracle_loads_them(tmp_path, files):
    write_files(tmp_path, "fx", files)
    new, ref = load_both(str(tmp_path), "fx")
    assert isinstance(ref, graphio.Dataset), ref
    assert_same_dataset(new, ref)


def test_empty_edge_file_loads_edgeless_graphs_without_a_warning(tmp_path):
    write_files(tmp_path, "fx", dict(TWO_GRAPHS, A=""))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")  # what a caller without pytest's filters would see
        ds = graphio.load_tu(str(tmp_path), "fx")
    assert caught == []
    assert [g.adjacency.tolist() for g in ds.graphs] == [np.zeros((3, 3)).tolist()] * 2


INT_FORMS = (str, lambda v: f" {v} ", lambda v: f"\t{v}", lambda v: f"+{v}" if v >= 0 else str(v),
             lambda v: f"0{v}" if v >= 0 else str(v))
FLOAT_FORMS = (repr, lambda x: "%.17g" % x, lambda x: "%.3e" % x, lambda x: f" {x!r} ")
SEPARATORS = (",", ", ", " , ", " ,", ",\t")
FAULTS = ("x", "0.5", "1.5", "#1", "1, 2, 3", "0", "99", "1,", "nan", "1_0", "1,\x1c2",
          "99999999999999999999", "-1")


@st.composite
def tu_files(draw):
    """A small TU corpus written with the line forms the loader accepts, and
    sometimes one line replaced by a fault."""
    sizes = draw(st.lists(st.integers(1, 5), min_size=1, max_size=4))
    graph_of = draw(st.permutations([g + 1 for g, n in enumerate(sizes) for _ in range(n)]))
    pairs = [(u + 1, v + 1) for u in range(len(graph_of)) for v in range(len(graph_of))
             if graph_of[u] == graph_of[v]]  # self-loops and both directions included
    edges = draw(st.lists(st.sampled_from(pairs), max_size=12))
    labels = draw(st.lists(st.integers(-3, 9), min_size=len(sizes), max_size=len(sizes)))
    node_labels = draw(st.lists(st.integers(-2, 5), min_size=len(graph_of),
                                max_size=len(graph_of)))
    width = draw(st.integers(1, 3))
    attrs = draw(st.lists(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                   min_size=width, max_size=width),
                          min_size=len(graph_of), max_size=len(graph_of)))
    feature_files = draw(st.sampled_from([("node_labels",), ("node_attributes",),
                                          ("node_labels", "node_attributes")]))

    def token(value, forms):
        return draw(st.sampled_from(forms))(value)

    lines = {
        "A": [token(u, INT_FORMS) + draw(st.sampled_from(SEPARATORS)) + token(v, INT_FORMS)
              for u, v in edges],
        "graph_indicator": [token(g, INT_FORMS) for g in graph_of],
        "graph_labels": [token(y, INT_FORMS) for y in labels],
        "node_labels": [token(y, INT_FORMS) for y in node_labels],
        "node_attributes": [draw(st.sampled_from(SEPARATORS)).join(token(x, FLOAT_FORMS)
                                                                   for x in row) for row in attrs],
    }
    fault = draw(st.none() | st.tuples(st.sampled_from(sorted(lines)), st.integers(0, 20),
                                       st.sampled_from(FAULTS)))
    if fault is not None and lines[fault[0]]:
        suffix, at, text = fault
        lines[suffix][at % len(lines[suffix])] = text
    files = {}
    for suffix in ("A", "graph_indicator", "graph_labels") + feature_files:
        body = list(lines[suffix])
        for _ in range(draw(st.integers(0, 2))):  # blank and whitespace-only lines anywhere
            body.insert(draw(st.integers(0, len(body))), draw(st.sampled_from(["", " ", "\t"])))
        end = draw(st.sampled_from(["\n", "\r\n"]))
        files[suffix] = end.join(body) + draw(st.sampled_from([end, ""]))
    return files


@settings(max_examples=300, deadline=None)
@given(files=tu_files())
def test_written_corpora_load_as_the_oracle_loads_them(files):
    with tempfile.TemporaryDirectory() as out:
        write_files(out, "w", files)
        assert_same_outcome(out, "w")


def _faulty(**files):
    """The two-graph corpus with some files replaced; None removes a file."""
    files = {**TWO_GRAPHS, "A": "1, 2\n2, 3\n4, 5\n", **files}
    return {suffix: text for suffix, text in files.items() if text is not None}


ATTRS = dict(node_labels=None, node_attributes="0.5, 1\n2, 3\n1, 1\n0, 0\n1, 2\n3, 4\n")
NOT_AN_INT = "cannot parse integer"
LOAD_ERRORS = [  # (id, files, exception, message; <dir> is the corpus directory)
    ("no indicator", _faulty(graph_indicator=None), LoadError,
     "missing dataset file: <dir>/bad_graph_indicator.txt"),
    ("no graph labels", _faulty(graph_labels=None), LoadError,
     "missing dataset file: <dir>/bad_graph_labels.txt"),
    ("no edges", _faulty(A=None), LoadError, "missing dataset file: <dir>/bad_A.txt"),
    ("no node labels or attributes", _faulty(node_labels=None), LoadError,
     "missing dataset file: <dir>/bad_node_labels.txt (or _node_attributes.txt)"),
    ("graph id x", _faulty(graph_indicator="1\n1\nx\n2\n2\n2\n"), FormatError,
     f"bad_graph_indicator.txt line 3: {NOT_AN_INT} 'x'"),
    ("graph id 0.5", _faulty(graph_indicator="1\n0.5\n1\n2\n2\n2\n"), FormatError,
     f"bad_graph_indicator.txt line 2: {NOT_AN_INT} '0.5'"),
    ("graph id 1.5 after blank lines", _faulty(graph_indicator="\n1\n  \n1\n1.5\n2\n2\n2\n"),
     FormatError, f"bad_graph_indicator.txt line 3: {NOT_AN_INT} '1.5'"),
    ("graph id #", _faulty(graph_indicator="# ids\n1\n1\n1\n2\n2\n2\n"), FormatError,
     f"bad_graph_indicator.txt line 1: {NOT_AN_INT} '# ids'"),
    ("two graph ids on a line", _faulty(graph_indicator="1, 1\n1\n2\n2\n2\n"), FormatError,
     f"bad_graph_indicator.txt line 1: {NOT_AN_INT} '1, 1'"),
    ("graph label x", _faulty(graph_labels="1\nx\n"), FormatError,
     f"bad_graph_labels.txt line 2: {NOT_AN_INT} 'x'"),
    ("node label 0.5", _faulty(node_labels="0.5\n1\n0\n1\n1\n0\n"), FormatError,
     f"bad_node_labels.txt line 1: {NOT_AN_INT} '0.5'"),
    ("no graphs", _faulty(graph_labels=""), FormatError, "bad_graph_labels.txt lists no graphs"),
    ("graph id 0", _faulty(graph_indicator="1\n0\n1\n2\n2\n2\n"), FormatError,
     "graph_indicator line 2: graph id 0 out of range"),
    ("graph id 3", _faulty(graph_indicator="1\n1\n1\n2\n3\n2\n"), FormatError,
     "graph_indicator line 5: graph id 3 out of range"),
    ("graph id beyond int64", _faulty(graph_indicator="99999999999999999999\n1\n1\n2\n2\n2\n"),
     FormatError, "graph_indicator line 1: graph id 99999999999999999999 out of range"),
    ("graph without nodes",
     _faulty(graph_indicator="1\n1\n1\n3\n3\n3\n", graph_labels="1\n2\n3\n"), FormatError,
     "graph 2 has no nodes in bad_graph_indicator.txt"),
    ("edge with one column", _faulty(A="1, 2\n1\n"), FormatError,
     "bad_A.txt line 2: cannot parse edge '1'"),
    ("edge with three columns", _faulty(A="1, 2\n1, 2, 3\n"), FormatError,
     "bad_A.txt line 2: cannot parse edge '1, 2, 3'"),
    ("every edge with three columns", _faulty(A="1, 2, 3\n4, 5, 6\n"), FormatError,
     "bad_A.txt line 1: cannot parse edge '1, 2, 3'"),
    ("edge a, b", _faulty(A="\n1, 2\n\na, b\n"), FormatError,
     "bad_A.txt line 2: cannot parse edge 'a, b'"),
    ("edge comment", _faulty(A="# u, v\n1, 2\n"), FormatError,
     "bad_A.txt line 1: cannot parse edge '# u, v'"),
    ("edge 1.0", _faulty(A="1.0, 2\n"), FormatError,
     "bad_A.txt line 1: cannot parse edge '1.0, 2'"),
    ("edge with a separator", _faulty(A="1,\x1c2\n"), FormatError,
     "bad_A.txt line 1: cannot parse edge '1,\x1c2'"),
    ("edge with a non-ASCII symbol", _faulty(A="1, 2\n1, 2\u2930\n"), FormatError,
     "bad_A.txt line 2: cannot parse edge '1, 2\u2930'"),
    ("edge node 0", _faulty(A="1, 2\n1, 0\n"), FormatError,
     "bad_A.txt line 2: node id out of range"),
    ("edge node 7", _faulty(A="7, 1\n"), FormatError, "bad_A.txt line 1: node id out of range"),
    ("edge node beyond int64", _faulty(A="1, 2\n1, 99999999999999999999\n"), FormatError,
     "bad_A.txt line 2: node id out of range"),
    ("edge across graphs", _faulty(A="1, 2\n2, 3\n3, 4\n"), FormatError,
     "bad_A.txt line 3: edge (3,4) crosses graphs 1 and 2"),
    ("range, then parse fault", _faulty(A="1, 2\n1, 9\nx, y\n"), FormatError,
     "bad_A.txt line 2: node id out of range"),
    ("parse, then range fault", _faulty(A="1, 2\nx, y\n1, 9\n"), FormatError,
     "bad_A.txt line 2: cannot parse edge 'x, y'"),
    ("cross, then range fault", _faulty(A="1, 2\n5, +1\n0, 1\n"), FormatError,
     "bad_A.txt line 2: edge (5,1) crosses graphs 2 and 1"),
    ("indicator and edge faults", _faulty(graph_indicator="1\n1\n1\n2\n2\n0\n", A="x\n"),
     FormatError, "graph_indicator line 6: graph id 0 out of range"),
    ("edge and node label faults", _faulty(A="1, 0\n", node_labels="x\n"), FormatError,
     "bad_A.txt line 1: node id out of range"),
    ("node label count", _faulty(node_labels="0\n1\n"), FormatError,
     "bad_node_labels.txt: 2 lines for 6 nodes"),
    ("attribute count", _faulty(**dict(ATTRS, node_attributes="0.5, 1\n2, 3\n")), FormatError,
     "bad_node_attributes.txt: 2 lines for 6 nodes"),
    ("attribute width", _faulty(**dict(ATTRS, node_attributes="0.5, 1\n2, 3\n1.5\n")),
     FormatError, "bad_node_attributes.txt line 3: 1 values, expected 2"),
    ("attribute x", _faulty(**dict(ATTRS, node_attributes="0.5, 1\n\n2, 3\n1, x\n")),
     FormatError, "bad_node_attributes.txt line 3: bad value"),
    ("first attribute x", _faulty(**dict(ATTRS, node_attributes="x\n")), FormatError,
     "bad_node_attributes.txt line 1: bad value"),
    ("attribute x past the last node",
     _faulty(**dict(ATTRS, node_attributes="1, 1\n" * 7 + "1, x\n")), FormatError,
     "bad_node_attributes.txt line 8: bad value"),
    ("attribute nan", _faulty(**dict(ATTRS, node_attributes="1, 1\n" * 4 + "nan, 1\n1, 1\n")),
     FormatError, "feature matrix contains NaN/Inf"),
]


@pytest.mark.parametrize("files, error, message", [row[1:] for row in LOAD_ERRORS],
                         ids=[row[0] for row in LOAD_ERRORS])
def test_each_load_error_names_its_file_and_line(tmp_path, files, error, message):
    write_files(tmp_path, "bad", files)
    new, ref = load_both(str(tmp_path), "bad")
    assert (type(new), str(new)) == (error, message.replace("<dir>", str(tmp_path)))
    if isinstance(ref, MvpruneError):  # the per-line loader raised the same
        assert (type(ref), str(ref)) == (type(new), str(new))
    else:
        assert message.split(": ")[1].startswith(NOT_AN_INT) and isinstance(ref, ValueError)


@pytest.mark.skipif(locale.getpreferredencoding(False).lower().replace("-", "") != "utf8",
                    reason="the undecodable byte is chosen for a UTF-8 locale")
@pytest.mark.parametrize("suffix", ["graph_indicator", "graph_labels", "A", "node_labels",
                                    "node_attributes"])
def test_a_file_that_is_not_text_is_a_format_error_naming_it(tmp_path, suffix):
    files = _faulty(**ATTRS) if suffix == "node_attributes" else _faulty()
    write_files(tmp_path, "bad", files)
    path = tmp_path / f"bad_{suffix}.txt"
    lines = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(b"".join(lines[:1] + [b"\xff" + lines[1]] + lines[2:]))
    with pytest.raises(FormatError) as info:
        graphio.load_tu(str(tmp_path), "bad")
    assert str(info.value) == f"bad_{suffix}.txt: not utf-8 text"


# -- synthetic corpus ------------------------------------------------------

def test_synth_zero_fraction_has_empty_truth():
    _, truth = graphio.synth_planted_anomalies(10, 12, 0.0, seed=1)
    assert all(len(t) == 0 for t in truth)


def test_synth_fraction_out_of_range():
    with pytest.raises(ConfigError):
        graphio.synth_planted_anomalies(10, 12, 0.6, seed=1)


def test_synth_acceptance_corpus_is_pinned():
    # the corpus every acceptance criterion and the planted benchmark train on
    ds, truth = graphio.synth_planted_anomalies(200, 20, 0.15, seed=7)
    assert ds.fingerprint() == "0cc5ca9f36b23cf1534e0f11c0f297b9bac3a31dc262ea660ff310a269f7dfb2"
    assert hashlib.sha256(repr([sorted(t) for t in truth]).encode()).hexdigest() == \
        "b59d21dce1de50c2e8dd2e2c8b87cd3dbd9190a8fc095c0aa15462cfe0f0f2eb"


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


@pytest.mark.parametrize("bad", ["1,x", "1.5", "2,,3"])
def test_a_non_integer_anomaly_entry_is_a_format_error_naming_the_line(tmp_path, bad):
    (tmp_path / "x_anomalies.txt").write_text(f"0, 3\n\n{bad}\n4\n")
    with pytest.raises(FormatError) as exc:
        graphio.load_anomaly_truth(str(tmp_path), "x")
    assert str(exc.value) == f"x_anomalies.txt line 3: cannot parse node ids '{bad}'"


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
