import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mvprune import prune, tensor as T
from mvprune.errors import ConfigError, ContractError

from oracles import (bce_loss_loop, feature_loss_loop, finite_diff, indicator_loop,
                     mask_loop, node_scores_loop, random_graph, rel_err)


def test_reconstruct_is_symmetric_gram_sigmoid():
    rng = np.random.default_rng(0)
    z = T.Tensor(rng.normal(size=(5, 3)))
    head = prune.ReconHead.init(3, 4, rng)
    a_hat, x_hat = prune.reconstruct(z, head)
    gram = z.values @ z.values.T
    assert np.allclose(a_hat.values, 1.0 / (1.0 + np.exp(-gram)), atol=1e-12)
    assert np.allclose(a_hat.values, a_hat.values.T, atol=1e-15)
    manual = np.maximum(z.values @ head.weight.values + head.bias.values, 0.0)
    assert np.allclose(x_hat.values, manual, atol=1e-12)


def test_edge_loss_analytic_at_half():
    # a_hat identically 0.5 makes every grid term -log(1/2) = ln 2
    adj = np.array([[0.0, 1.0], [1.0, 0.0]])
    a_hat = T.Tensor(np.full((2, 2), 0.5))
    x_hat = T.Tensor(np.zeros((2, 3)))
    la, lx, lr = prune.recon_losses(adj, np.zeros((2, 3)), a_hat, x_hat)
    assert la.item() == pytest.approx(np.log(2.0), abs=1e-12)
    assert lx.item() == 0.0
    assert lr.item() == pytest.approx(np.log(2.0), abs=1e-12)


def test_losses_match_loop_oracles():
    rng = np.random.default_rng(1)
    for _ in range(20):
        n, d = int(rng.integers(2, 9)), int(rng.integers(1, 6))
        adj, feats = random_graph(rng, n, d=d)
        a_hat = rng.uniform(0.01, 0.99, size=(n, n))
        x_hat = rng.normal(size=(n, d))
        la, lx, _ = prune.recon_losses(adj, feats, T.Tensor(a_hat), T.Tensor(x_hat))
        assert abs(la.item() - bce_loss_loop(adj, a_hat)) < 1e-12
        assert abs(lx.item() - feature_loss_loop(feats, x_hat)) < 1e-12


def test_losses_gradient_vs_finite_differences():
    rng = np.random.default_rng(2)
    adj, feats = random_graph(rng, 5, d=3)
    z = T.param(rng.normal(size=(5, 4)))
    head = prune.ReconHead.init(4, 3, rng)

    def f():
        a_hat, x_hat = prune.reconstruct(z, head)
        return prune.recon_losses(adj, feats, a_hat, x_hat)[2]

    T.backward(f())
    fd = finite_diff(lambda: f().item(), [z, head.weight, head.bias])
    assert rel_err(z.grad, fd[0]) < 1e-5
    assert rel_err(head.weight.grad, fd[1]) < 1e-5
    assert rel_err(head.bias.grad, fd[2]) < 1e-5


def test_scores_match_loop_oracle():
    rng = np.random.default_rng(3)
    for lam in (0.0, 0.3, 1.0):
        adj, feats = random_graph(rng, 6, d=4)
        a_hat = rng.uniform(size=(6, 6))
        x_hat = rng.normal(size=(6, 4))
        got = prune.node_scores(adj, feats, a_hat, x_hat, lam)
        want = node_scores_loop(adj, feats, a_hat, x_hat, lam)
        assert np.allclose(got, want, atol=1e-12)


def test_scores_reject_bad_lambda():
    with pytest.raises(ContractError):
        prune.node_scores(np.zeros((2, 2)), np.zeros((2, 1)),
                          np.zeros((2, 2)), np.zeros((2, 1)), lam=1.5)


def test_indicator_drops_clear_outlier():
    scores = np.array([0.0] * 9 + [100.0])
    indicator, mu, sigma = prune.build_indicator(scores, c=2.0)
    assert indicator[-1] == 0.0
    assert indicator[:9].sum() == 9
    assert mu == pytest.approx(10.0)


def test_indicator_rejects_nonpositive_multiplier():
    # c = 0 used to divide by zero in the Chebyshev check
    for c in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ConfigError):
            prune.build_indicator(np.array([0.0, 1.0, 2.0, 10.0]), c)


def test_indicator_keeps_boundary():
    scores = np.array([1.0, 1.0, 1.0])  # sigma = 0, all scores equal mu
    indicator, _, _ = prune.build_indicator(scores, c=2.0)
    assert indicator.sum() == 3


def test_indicator_matches_sigmoid_form():
    rng = np.random.default_rng(4)
    for _ in range(100):
        scores = rng.gamma(2.0, 1.0, size=int(rng.integers(3, 30)))
        for c in (0.5, 1.0, 2.0):
            got, _, _ = prune.build_indicator(scores, c)
            assert np.array_equal(got, indicator_loop(scores, c))


def test_indicator_invariant_to_scale_and_shift():
    rng = np.random.default_rng(5)
    scores = rng.gamma(2.0, 1.0, size=20)
    base, _, _ = prune.build_indicator(scores, c=2.0)
    shifted, _, _ = prune.build_indicator(scores + 17.0, c=2.0)
    scaled, _, _ = prune.build_indicator(scores * 3.5, c=2.0)
    assert np.array_equal(base, shifted)
    assert np.array_equal(base, scaled)


@settings(max_examples=200, deadline=None)
@given(scores=st.lists(st.floats(min_value=1e-3, max_value=1e6), min_size=1, max_size=40),
       exponent=st.integers(min_value=-40, max_value=40),
       c=st.sampled_from([0.5, 1.0, 2.0, 3.0]))
def test_indicator_invariant_to_power_of_two_scaling(scores, exponent, c):
    # scaling by 2^k is exact in floating point, so mu, sigma and every
    # comparison scale exactly with it
    scores = np.array(scores)
    base, mu, sigma = prune.build_indicator(scores, c)
    scaled, mu_s, sigma_s = prune.build_indicator(np.ldexp(scores, exponent), c)
    assert np.array_equal(base, scaled)
    assert (mu_s, sigma_s) == (np.ldexp(mu, exponent), np.ldexp(sigma, exponent))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6),
       n=st.integers(min_value=2, max_value=60),
       c=st.sampled_from([1.0, 1.5, 2.0, 3.0]))
def test_indicator_chebyshev_bound(seed, n, c):
    rng = np.random.default_rng(seed)
    scores = rng.gamma(1.0, 2.0, size=n)
    indicator, _, _ = prune.build_indicator(scores, c)
    dropped = n - int(indicator.sum())
    assert dropped <= n / (c * c)


def test_mask_matches_loop_oracle():
    rng = np.random.default_rng(6)
    adj, feats = random_graph(rng, 7, d=3)
    indicator = (rng.random(7) > 0.4).astype(float)
    if indicator.sum() == 0:
        indicator[0] = 1.0
    xp, ap = prune.apply_mask(feats, adj, indicator)
    xp_o, ap_o = mask_loop(feats, adj, indicator)
    assert np.array_equal(xp, xp_o)
    assert np.array_equal(ap, ap_o)
    assert np.array_equal(ap, ap.T)
    assert xp.shape == feats.shape and ap.shape == adj.shape


def test_mask_gradient_blocks_dropped_rows():
    # mask as constant: gradient reaches only surviving entries
    rng = np.random.default_rng(8)
    x = T.param(rng.normal(size=(4, 3)))
    indicator = np.array([1.0, 0.0, 1.0, 1.0])
    masked = T.mul_const(x, indicator[:, None])
    T.backward(T.tsum(T.mul(masked, masked)))
    assert np.array_equal(x.grad[1], np.zeros(3))
    assert not np.array_equal(x.grad[0], np.zeros(3))


def test_export_scores_roundtrip(tmp_path):
    path = tmp_path / "scores.csv"
    rows = [(0, 0, 3, 0.123456789012345678, 1), (0, 1, 1, 7.5, 0)]
    prune.export_scores(iter(rows), str(path))
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "graph_id,node_id,degree,score,kept"
    parts = lines[1].split(",")
    assert float(parts[3]) == 0.123456789012345678
    assert parts[4] == "1"
