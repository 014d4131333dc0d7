import math

import numpy as np
import pytest

from mvprune import multiview as mv, pooling, prune, tensor as T
from mvprune.errors import ConfigError, ContractError

from oracles import finite_diff, mincut_loss_ref, mincut_losses_loop, random_graph, rel_err


def test_masked_mean_matches_manual():
    rng = np.random.default_rng(0)
    x = T.Tensor(rng.normal(size=(5, 3)))
    ind = np.array([1.0, 0.0, 1.0, 1.0, 0.0])
    out = pooling.masked_mean_readout(x, ind)
    assert np.allclose(out.values, x.values[[0, 2, 3]].mean(axis=0, keepdims=True),
                       atol=1e-12)


def test_masked_mean_requires_kept_node():
    with pytest.raises(ContractError):
        pooling.masked_mean_readout(T.Tensor(np.ones((2, 2))), np.zeros(2))


def test_masked_sum_matches_manual():
    rng = np.random.default_rng(1)
    x = T.Tensor(rng.normal(size=(4, 2)))
    ind = np.array([0.0, 1.0, 1.0, 0.0])
    out = pooling.masked_sum_readout(x, ind)
    assert np.allclose(out.values, x.values[[1, 2]].sum(axis=0, keepdims=True),
                       atol=1e-12)


def test_select_topk_counts_and_ties():
    scores = np.array([3.0, 5.0, 5.0, 1.0])
    sel = pooling.select_topk(scores, 0.5)  # keep ceil(0.5*4) = 2
    assert np.array_equal(sel, [0.0, 1.0, 1.0, 0.0])
    sel3 = pooling.select_topk(scores, 0.75)  # 3 kept, tie at 5 resolved by index
    assert np.array_equal(sel3, [1.0, 1.0, 1.0, 0.0])


def test_select_topk_respects_eligibility():
    scores = np.array([9.0, 1.0, 2.0, 3.0])
    sel = pooling.select_topk(scores, 0.5, eligible=np.array([0.0, 1.0, 1.0, 1.0]))
    # 3 eligible nodes, keep ceil(1.5) = 2 best among them
    assert np.array_equal(sel, [0.0, 0.0, 1.0, 1.0])


def test_select_topk_rejects_bad_ratio():
    with pytest.raises(ConfigError):
        pooling.select_topk(np.ones(3), 0.0)


def test_attention_topk_keeps_high_scores():
    rng = np.random.default_rng(2)
    adj, _ = random_graph(rng, 8)
    x = T.Tensor(rng.normal(size=(8, 4)))
    w = T.param(rng.normal(size=(4, 1)))
    score = pooling.attention_score(x, mv.normalize_adjacency(adj), w)
    x_kept, sel = pooling.topk_pool(x, score, 0.5)
    a_hat = adj + np.eye(8)
    d = 1.0 / np.sqrt(a_hat.sum(axis=1))
    scores = (d[:, None] * a_hat * d[None, :] @ (x.values @ w.values))[:, 0]
    assert sel.sum() == 4
    kept_min = scores[sel == 1].min()
    dropped_max = scores[sel == 0].max()
    assert kept_min >= dropped_max
    want = x.values * np.tanh(scores)[:, None] * sel[:, None]
    assert np.allclose(x_kept.values, want, atol=1e-12)
    for i in np.nonzero(sel == 0)[0]:
        assert np.all(x_kept.values[i] == 0)


def test_attention_topk_gradient_reaches_score_weight():
    rng = np.random.default_rng(3)
    adj, _ = random_graph(rng, 6)
    x = T.Tensor(rng.normal(size=(6, 3)))
    w = T.param(rng.normal(size=(3, 1)))
    score = pooling.attention_score(x, mv.normalize_adjacency(adj), w)
    x_kept, sel = pooling.topk_pool(x, score, 0.75)
    out = pooling.masked_mean_readout(x_kept, sel)
    T.backward(T.tsum(T.mul(out, out)))
    assert w.grad is not None and np.abs(w.grad).sum() > 0


def test_feature_topk_score_is_normalized_projection():
    rng = np.random.default_rng(4)
    x = T.Tensor(rng.normal(size=(7, 5)))
    p = T.param(rng.normal(size=(5, 1)))
    x_kept, sel = pooling.topk_pool(x, pooling.feature_score(x, p), 0.5)
    scores = (x.values @ p.values / np.linalg.norm(p.values))[:, 0]
    assert sel.sum() == 4  # ceil(0.5 * 7)
    assert scores[sel == 1].min() >= scores[sel == 0].max()
    want = x.values * np.tanh(scores)[:, None] * sel[:, None]
    assert np.allclose(x_kept.values, want, atol=1e-12)


def test_mincut_matches_loop_oracle():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n, k = int(rng.integers(4, 10)), int(rng.integers(2, 5))
        adj, _ = random_graph(rng, n)
        h = T.Tensor(rng.normal(size=(n, 6)))
        w = T.param(rng.normal(size=(6, k)))
        b = T.param(np.zeros((1, k)))
        s_t, x_coarse = pooling.mincut_pool(h, w, b)
        l_pool = pooling.mincut_loss(s_t, adj)
        logits = h.values @ w.values + b.values
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        s = e / e.sum(axis=1, keepdims=True)
        assert abs(l_pool.item() - mincut_losses_loop(adj, s)) < 1e-10
        assert np.allclose(x_coarse.values, s.T @ h.values, atol=1e-12)


@pytest.mark.parametrize("masked", [True, False])
def test_mincut_loss_matches_the_a_prime_chain_byte_for_byte(masked):
    # a batch with groups of one graph and of several: graphs that drop nodes,
    # one that keeps all and an edgeless one; bytes, so that signed zeros count
    rng = np.random.default_rng(22)
    sizes = (1, 3, 5, 5, 5, 7, 9, 9, 12)
    layout = T.layout_of(sizes)
    blocks = [random_graph(rng, n, p=0.5)[0] for n in sizes]
    blocks[5] = np.zeros((7, 7))
    keep = (rng.random(layout.rows) < 0.6).astype(float)
    first = layout.groups[2].row + 5  # the second 5-node graph keeps every node
    keep[first:first + 5] = 1.0
    logits, weights = rng.normal(scale=2.0, size=(layout.rows, 3)), rng.normal(size=(len(sizes), 1))

    def run(loss_fn):
        h = T.param(logits.copy())
        loss = loss_fn(T.softmax_rows(h), layout.join(blocks), layout, keep if masked else None)
        T.backward(T.tsum(T.mul_const(loss, weights)))
        return loss.values, h.grad

    for got, want in zip(run(pooling.mincut_loss), run(mincut_loss_ref)):
        assert got.tobytes() == want.tobytes()
    dropped = [n - k for n, k in zip(sizes, layout.graph_sums(keep))]
    assert 0 in dropped and sum(d > 0 for d in dropped) > 3


def test_mincut_two_cliques_perfect_assignment():
    # two disjoint triangles assigned to opposite clusters: cut term -> -1,
    # orthogonality -> 0, so the loss approaches -1
    adj = np.zeros((6, 6))
    for a, b in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]:
        adj[a, b] = adj[b, a] = 1.0
    h = T.Tensor(np.array([[1.0, 0.0]] * 3 + [[0.0, 1.0]] * 3))
    w = T.param(np.eye(2) * 50.0)  # near-hard assignment
    b = T.param(np.zeros((1, 2)))
    l_pool = pooling.mincut_loss(pooling.mincut_pool(h, w, b)[0], adj)
    assert l_pool.item() == pytest.approx(-1.0, abs=1e-6)


def test_mincut_edgeless_cut_is_zero():
    h = T.Tensor(np.random.default_rng(6).normal(size=(4, 3)))
    w = T.param(np.random.default_rng(7).normal(size=(3, 2)))
    b = T.param(np.zeros((1, 2)))
    l_pool = pooling.mincut_loss(pooling.mincut_pool(h, w, b)[0], np.zeros((4, 4)))
    # only the orthogonality term remains, which is nonnegative
    assert np.isfinite(l_pool.item())
    assert l_pool.item() >= 0.0


def test_mincut_gradient_vs_finite_differences():
    rng = np.random.default_rng(8)
    adj, _ = random_graph(rng, 6)
    h = T.param(rng.normal(size=(6, 4)))
    w = T.param(rng.normal(size=(4, 3)))
    b = T.param(np.zeros((1, 3)))

    def f():
        return pooling.mincut_loss(pooling.mincut_pool(h, w, b)[0], adj)

    T.backward(f())
    fd = finite_diff(lambda: f().item(), [h, w, b])
    assert rel_err(h.grad, fd[0]) < 1e-5
    assert rel_err(w.grad, fd[1]) < 1e-5
    assert rel_err(b.grad, fd[2]) < 1e-5


def test_mincut_rejects_single_cluster():
    with pytest.raises(ConfigError):
        pooling.mincut_pool(T.Tensor(np.ones((3, 2))), T.param(np.ones((2, 1))),
                            T.param(np.zeros((1, 1))))


# -- backends --------------------------------------------------------------

@pytest.mark.parametrize("kind", pooling.BACKEND_KINDS)
def test_backend_forward_shapes(kind):
    rng = np.random.default_rng(9)
    adj, _ = random_graph(rng, 8)
    x = T.Tensor(rng.normal(size=(8, 6)))
    backend = pooling.make_backend(kind, 6, rng, clusters=3)
    indicator = np.array([1.0, 1.0, 0.0, 1.0, 1.0, 1.0, 0.0, 1.0])
    x_prime = T.mul_const(x, indicator[:, None])
    a_prime = adj * indicator[:, None] * indicator[None, :]
    h_g, pool_args, sel = backend.forward(x_prime, a_prime, indicator)
    assert h_g.shape == (1, backend.out_width)
    assert backend.out_width == (pooling.BACKEND_WIDTH if kind in ("gcn-sum", "mincut") else 6)
    if kind in ("mean", "sum", "gcn-sum", "attention-topk", "feature-topk"):
        assert pool_args is None
    else:
        assert pooling.mincut_loss(*pool_args).shape == (1, 1)
    if kind in ("attention-topk", "feature-topk"):
        assert set(np.unique(sel)) <= {0.0, 1.0}
        assert np.all(sel <= indicator)  # a subset of the kept nodes
        assert sel.sum() == math.ceil(backend.keep_ratio * indicator.sum())
    else:
        assert np.array_equal(sel, indicator)


@pytest.mark.parametrize("sizes", [(9,), (1, 4, 6, 6, 9)])
@pytest.mark.parametrize("kind", pooling.ADJACENCY_KINDS)
def test_adjacency_backends_give_the_same_bits_for_a_and_a_prime(kind, sizes):
    # a backend sees A' = A m m^T through the indicator m, so the pruned A'
    # itself gives the same values, MinCut loss and gradients as A
    rng = np.random.default_rng(14)
    layout = T.layout_of(sizes)
    adj = layout.join([random_graph(rng, n, p=0.5)[0] for n in sizes])
    indicator = (rng.random(layout.rows) < 0.7).astype(float)
    xv = prune.apply_mask(rng.normal(size=(layout.rows, 6)), None, indicator)[0]
    a_prime = prune.apply_mask(xv, adj, indicator, layout)[1]
    backend = pooling.make_backend(kind, 6, rng, keep_ratio=0.5, clusters=3)

    def run(adjacency):
        for p in backend.params.values():
            p.zero_grad()
        h_g, pool_args, sel = backend.forward(T.Tensor(xv), adjacency, indicator, layout)
        loss = T.tsum(T.mul_const(h_g, rng.normal(size=h_g.shape)) if pool_args is None else
                      T.add(T.tsum(h_g, T.layout_of((1,) * len(sizes))),
                            pooling.mincut_loss(*pool_args)))
        T.backward(loss)
        return [h_g.values, sel, loss.values] + [p.grad for p in backend.params.values()]

    state = rng.bit_generator.state
    got = run(adj)
    rng.bit_generator.state = state  # the same loss weights
    for g, w in zip(got, run(a_prime)):
        assert np.array_equal(g, w)
    assert 0 < indicator.sum() < layout.rows


def test_make_backend_unknown_kind():
    with pytest.raises(ConfigError, match="mincut"):
        pooling.make_backend("nope", 4, np.random.default_rng(0))


def test_mean_backend_permutation_invariant():
    rng = np.random.default_rng(10)
    adj, _ = random_graph(rng, 7)
    xv = rng.normal(size=(7, 4))
    backend = pooling.make_backend("mean", 4, rng)
    perm = rng.permutation(7)
    a, _, _ = backend.forward(T.Tensor(xv), adj, np.ones(7))
    b, _, _ = backend.forward(T.Tensor(xv[perm]), adj[np.ix_(perm, perm)], np.ones(7))
    assert np.allclose(a.values, b.values, atol=1e-12)


def test_classifier_uniform_logits_give_log_c():
    rng = np.random.default_rng(11)
    head = pooling.ClassifierHead.init(4, 8, 3, rng)
    for t in (head.w1, head.b1, head.w2, head.b2):
        t.values[:] = 0.0  # all-zero weights force uniform logits
    logits = pooling.classify(T.Tensor(np.ones((1, 4))), head)
    ce = T.cross_entropy(logits, 0)
    assert ce.item() == pytest.approx(np.log(3.0), abs=1e-12)


def test_classifier_shape_mismatch():
    rng = np.random.default_rng(12)
    head = pooling.ClassifierHead.init(4, 8, 2, rng)
    with pytest.raises(ContractError):
        pooling.classify(T.Tensor(np.ones((1, 5))), head)
