import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mvprune import multiview as mv, prune, tensor as T
from mvprune.errors import ConfigError

from oracles import finite_diff, normalize_adjacency_ref, random_graph, rel_err


# -- partitions ------------------------------------------------------------

def test_partition_covers_all_columns():
    p = mv.make_partition(8, 8, 0.0, seed=0)
    assert sorted(c for cols in p.columns_per_view for c in cols) == list(range(8))
    assert all(len(cols) == 1 for cols in p.columns_per_view)


def test_partition_chunk_sizes():
    p = mv.make_partition(10, 3, 0.0, seed=1)
    assert sorted(len(c) for c in p.columns_per_view) == [3, 3, 4]


def test_partition_overlap_shared_count():
    # d=82, k=8: ceil(82/8)=11, so each view borrows floor(0.25*11)=2 columns
    p = mv.make_partition(82, 8, 0.25, seed=2)
    for i in range(8):
        mine = set(p.columns_per_view[i])
        succ = set(p.columns_per_view[(i + 1) % 8])
        assert len(mine & succ) == 2


def test_partition_no_duplicates_within_view():
    p = mv.make_partition(20, 5, 0.25, seed=3)
    for cols in p.columns_per_view:
        assert len(cols) == len(set(cols))


def test_partition_deterministic():
    a = mv.make_partition(16, 4, 0.25, seed=7)
    b = mv.make_partition(16, 4, 0.25, seed=7)
    assert a.columns_per_view == b.columns_per_view


def test_partition_rejects_bad_args():
    with pytest.raises(ConfigError):
        mv.make_partition(4, 5, 0.0, seed=0)
    with pytest.raises(ConfigError):
        mv.make_partition(8, 2, 1.0, seed=0)


def test_partition_dict_roundtrip():
    p = mv.make_partition(12, 4, 0.25, seed=5)
    assert p.to_dict() == {"k": 4, "columns_per_view": p.columns_per_view,
                           "overlap_ratio": 0.25, "seed": 5}
    assert json.loads(json.dumps(p.to_dict())) == p.to_dict()  # as report.json stores it


def test_default_overlap_ratio():
    assert mv.default_overlap_ratio(8, 8) == 0.25   # 1 column per view
    assert mv.default_overlap_ratio(64, 8) == 0.0   # 8 columns per view
    assert mv.default_overlap_ratio(7, 2) == 0.0    # ceil(7/2)=4


@settings(max_examples=60, deadline=None)
@given(d=st.integers(min_value=3, max_value=40),
       k=st.integers(min_value=3, max_value=8),
       seed=st.integers(min_value=0, max_value=1000))
def test_partition_property(d, k, seed):
    if d < k:
        return
    overlap = mv.default_overlap_ratio(d, k)
    p = mv.make_partition(d, k, overlap, seed)
    covered = {c for cols in p.columns_per_view for c in cols}
    assert covered == set(range(d))
    expect_shared = int(overlap * math.ceil(d / k))
    for i in range(k):
        shared = set(p.columns_per_view[i]) & set(p.columns_per_view[(i + 1) % k])
        assert len(shared) == expect_shared


# -- adjacency normalization ----------------------------------------------

def test_normalize_single_node():
    assert mv.normalize_adjacency(np.zeros((1, 1))) == pytest.approx(np.ones((1, 1)))


def test_normalize_edgeless_is_identity():
    assert np.allclose(mv.normalize_adjacency(np.zeros((4, 4))), np.eye(4))


def test_normalize_path_of_three():
    # nodes 0-1-2; with self loops degrees are 2, 3, 2
    adj = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
    got = mv.normalize_adjacency(adj)
    expected = np.zeros((3, 3))
    deg = [2.0, 3.0, 2.0]
    a_hat = adj + np.eye(3)
    for i in range(3):
        for j in range(3):
            expected[i, j] = a_hat[i, j] / np.sqrt(deg[i] * deg[j])
    assert np.allclose(got, expected, atol=1e-15)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(min_value=1, max_value=40), seed=st.integers(min_value=0, max_value=2**32),
       density=st.floats(0.0, 1.0), keep=st.floats(0.0, 1.0))
def test_normalize_matches_explicit_self_loops_exactly(n, seed, density, keep):
    rng = np.random.default_rng(seed)
    upper = np.triu((rng.random((n, n)) < density).astype(float), 1)
    mask = (rng.random(n) < keep).astype(float)
    adj = (upper + upper.T) * mask[:, None] * mask[None, :]  # masked rows and columns
    before = adj.copy()
    got = mv.normalize_adjacency(adj)
    assert np.array_equal(got, normalize_adjacency_ref(adj))
    assert np.array_equal(adj, before)  # the input is not written


@settings(max_examples=200, deadline=None)
@given(sizes=st.lists(st.integers(min_value=1, max_value=30), min_size=1, max_size=6),
       seed=st.integers(min_value=0, max_value=2**32 - 1), density=st.floats(0.0, 1.0),
       keep=st.sampled_from([0.0, 0.3, 0.7, 1.0]))
@example(sizes=[1], seed=0, density=0.0, keep=1.0)
@example(sizes=[1, 1, 6, 6], seed=1, density=0.0, keep=0.7)
@example(sizes=[9], seed=2, density=0.5, keep=1.0)
@example(sizes=[2, 5, 5, 5], seed=3, density=0.6, keep=0.3)
def test_masked_propagation_is_the_propagation_of_the_masked_adjacency(sizes, seed, density,
                                                                        keep):
    # lone graphs and batches with size groups, edgeless and 1-node graphs
    # (density 0, size 1), and masks that drop all, some or none of the nodes
    rng = np.random.default_rng(seed)
    sizes = sorted(sizes)
    layout = T.layout_of(tuple(sizes))
    blocks = []
    for n in sizes:
        upper = np.triu((rng.random((n, n)) < density).astype(float), 1)
        blocks.append(upper + upper.T)
    adj = layout.join(blocks)
    mask = (rng.random(layout.rows) < keep).astype(float)
    before = adj.copy()
    got = mv.propagation(adj, layout, mask)
    a_prime = prune.apply_mask(np.zeros((layout.rows, 1)), adj, mask, layout)[1]
    assert np.array_equal(got, mv.propagation(a_prime, layout))
    assert got.shape == adj.shape and np.array_equal(adj, before)


@pytest.mark.parametrize("n", [150, 620])
def test_gcn_layer_matches_numpy_oracle(n):
    # sizes of PROTEINS-like graphs; the oracle builds D^-1/2 (A+I) D^-1/2 with
    # explicit diagonal matrices, sharing nothing with normalize_adjacency
    rng = np.random.default_rng(n)
    adj = np.triu((rng.random((n, n)) < 4.0 / n).astype(float), 1)
    adj = adj + adj.T
    h = T.param(rng.normal(size=(n, 3)))
    w = T.param(rng.normal(size=(3, 2)))
    a_loop = adj + np.eye(n)
    d_inv_sqrt = np.diag(1.0 / np.sqrt(a_loop.sum(axis=1)))
    want = np.maximum(d_inv_sqrt @ a_loop @ d_inv_sqrt @ h.values @ w.values, 0.0)
    got = mv.gcn_layer(h, w, mv.normalize_adjacency(adj))
    assert np.abs(got.values - want).max() < 1e-10
    if n == 150:
        weights = rng.normal(size=(n, 2))  # non-uniform functional so the Jacobian matters
        f = lambda: T.tsum(T.mul_const(mv.gcn_layer(h, w, mv.normalize_adjacency(adj)), weights))
        T.backward(f())
        fd = finite_diff(lambda: f().item(), [h, w])
        assert rel_err(h.grad, fd[0]) < 1e-6
        assert rel_err(w.grad, fd[1]) < 1e-6


# -- encoder ---------------------------------------------------------------

def test_encoder_shapes():
    rng = np.random.default_rng(1)
    p = mv.make_partition(8, 4, 0.0, seed=0)
    enc = mv.ViewEncoder.init(p, latent_width=12, rng=rng)
    adj, feats = random_graph(rng, 6, d=8)
    z = mv.encode_views_xa(feats, adj, p, enc)
    assert z.shape == (6, 12)  # ceil(12/4)=3 per view, 4 views


def test_encoder_zero_features_give_zero_latent():
    rng = np.random.default_rng(2)
    p = mv.make_partition(6, 3, 0.0, seed=0)
    enc = mv.ViewEncoder.init(p, latent_width=9, rng=rng)
    adj, _ = random_graph(rng, 5, d=6)
    z = mv.encode_views_xa(np.zeros((5, 6)), adj, p, enc)
    assert np.array_equal(z.values, np.zeros((5, 9)))


def test_encoder_matches_manual_single_view():
    # k=1 collapses to embed then one dense graph convolution
    rng = np.random.default_rng(3)
    p = mv.make_partition(4, 1, 0.0, seed=0)
    enc = mv.ViewEncoder.init(p, latent_width=5, rng=rng)
    adj, feats = random_graph(rng, 6, d=4)
    z = mv.encode_views_xa(feats, adj, p, enc)
    cols = p.columns_per_view[0]
    manual = feats[:, cols] @ enc.embed_weights[0].values @ enc.gcn_weights[0].values
    manual = np.maximum(mv.normalize_adjacency(adj) @ manual, 0.0)
    # association order differs, so exact equality is not guaranteed
    assert np.allclose(z.values, manual, atol=1e-12)


def test_encoder_permutation_equivariance():
    rng = np.random.default_rng(5)
    p = mv.make_partition(6, 3, 0.0, seed=2)
    enc = mv.ViewEncoder.init(p, latent_width=6, rng=rng)
    adj, feats = random_graph(rng, 8, d=6)
    perm = rng.permutation(8)
    z = mv.encode_views_xa(feats, adj, p, enc).values
    z_perm = mv.encode_views_xa(feats[perm], adj[np.ix_(perm, perm)], p, enc).values
    assert np.allclose(z_perm, z[perm], atol=1e-10)


def test_encoder_gradients_flow_to_all_views():
    rng = np.random.default_rng(6)
    p = mv.make_partition(8, 4, 0.0, seed=3)
    enc = mv.ViewEncoder.init(p, latent_width=8, rng=rng)
    adj, feats = random_graph(rng, 6, d=8)
    z = mv.encode_views_xa(feats, adj, p, enc)
    T.backward(T.tsum(T.mul(z, z)))
    for w in enc.embed_weights + enc.gcn_weights:
        assert w.grad is not None
        assert np.isfinite(w.grad).all()
