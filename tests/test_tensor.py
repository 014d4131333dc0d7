import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mvprune import multiview, prune, tensor as T
from mvprune.errors import ContractError, ShapeError

from oracles import (cross_entropy_ref, finite_diff, gcn_views_ref, gram_sigmoid_ref, matmul_ref,
                     random_graph, recon_losses_ref, rel_err, scalar_mul_ref, transpose_ref)


def test_matmul_identity():
    m = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
    out = T.matmul(T.Tensor(np.eye(2)), m)
    assert np.array_equal(out.values, m.values)


def test_matmul_hand_case():
    out = T.matmul(T.Tensor([[1.0, 2.0], [3.0, 4.0]]), T.Tensor([[0.0], [1.0]]))
    assert np.array_equal(out.values, [[2.0], [4.0]])


def test_matmul_shape_error():
    with pytest.raises(ShapeError):
        T.matmul(T.Tensor(np.ones((2, 3))), T.Tensor(np.ones((2, 3))))


def test_matmul_gradient_vs_finite_differences():
    rng = np.random.default_rng(0)
    a = T.param(rng.normal(size=(5, 4)))
    b = T.param(rng.normal(size=(4, 3)))
    loss = T.tsum(T.matmul(a, b))
    T.backward(loss)
    fd = finite_diff(lambda: T.tsum(T.matmul(a, b)).item(), [a, b])
    assert rel_err(a.grad, fd[0]) < 1e-6
    assert rel_err(b.grad, fd[1]) < 1e-6


def test_relu_values():
    assert np.array_equal(T.relu(T.Tensor([[-1.0, 2.0]])).values, [[0.0, 2.0]])
    assert np.array_equal(T.relu(T.Tensor([[-3.0, -0.5]])).values, [[0.0, 0.0]])


def test_relu_gradient():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(4, 4))
    x[np.abs(x) < 1e-3] = 0.5  # keep away from the kink
    p = T.param(x)
    loss = T.tsum(T.relu(p))
    T.backward(loss)
    fd = finite_diff(lambda: T.tsum(T.relu(p)).item(), [p])
    assert rel_err(p.grad, fd[0]) < 1e-6


def test_gram_sigmoid_values_and_saturation():
    assert T.gram_sigmoid(T.Tensor([[0.0]])).item() == 0.5
    sat = T.gram_sigmoid(T.Tensor([[40.0], [-40.0]]))  # Z Z^T = +-1600
    assert np.isfinite(sat.values).all()
    assert np.array_equal(sat.values, [[1.0, 0.0], [0.0, 1.0]])


def test_gram_sigmoid_gradient():
    rng = np.random.default_rng(2)
    p = T.param(rng.normal(size=(5, 3)))
    weights = rng.normal(size=(5, 5))  # non-uniform functional so both terms matter
    f = lambda: T.tsum(T.mul_const(T.gram_sigmoid(p), weights))
    T.backward(f())
    fd = finite_diff(lambda: f().item(), [p])
    assert rel_err(p.grad, fd[0]) < 1e-6


def _sign_branch_sigmoid(x):
    """The sign-branching sigmoid that `gram_sigmoid` took for a Z with a
    negative entry, as the op computed it: 1 / (1 + e) for x >= 0, else
    e / (1 + e), with e = exp(-|x|)."""
    e = np.negative(np.abs(x))
    np.exp(e, out=e)
    denom = e + 1.0
    block = e / denom
    np.divide(1.0, denom, out=denom)
    np.copyto(block, denom, where=x >= 0)
    return block


@settings(max_examples=120, deadline=None)
@given(sizes=st.lists(st.integers(min_value=1, max_value=30), min_size=1, max_size=5),
       seed=st.integers(min_value=0, max_value=2**32 - 1),
       scale=st.sampled_from([0.0, 0.3, 1.0, 8.0]), zeros=st.floats(0.0, 1.0))
def test_gram_sigmoid_of_a_nonnegative_z_matches_the_sign_branch_bit_for_bit(sizes, seed, scale,
                                                                               zeros):
    # a ReLU output: nonnegative, with a share of exact zeros; scale 8 saturates
    rng = np.random.default_rng(seed)
    sizes = sorted(sizes)  # adjacent equal sizes form groups of several graphs
    layout = T.layout_of(tuple(sizes))
    zv = np.abs(rng.normal(scale=scale, size=(sum(sizes), 3)))
    zv[rng.random(zv.shape) < zeros] = 0.0
    got = T.gram_sigmoid(T.Tensor(zv), layout).values
    want = [_sign_branch_sigmoid(zg @ zg.T).reshape(-1) for zg in layout.split(zv)]
    assert np.array_equal(got.reshape(-1), np.concatenate(want))


@pytest.mark.parametrize("case", ["one-negative", "negative-zero", "nan"])
def test_gram_sigmoid_of_any_other_z_matches_the_tape_oracle(case):
    rng = np.random.default_rng(4)
    zv = np.abs(rng.normal(size=(9, 3)))
    zv[4, 1] = {"one-negative": -1e-3, "negative-zero": -0.0, "nan": np.nan}[case]
    got, want = T.gram_sigmoid(T.Tensor(zv)).values, gram_sigmoid_ref(T.Tensor(zv)).values
    np.testing.assert_allclose(got, want, rtol=1e-15, atol=1e-300, equal_nan=True)
    assert np.isnan(got).any() == (case == "nan")


@settings(max_examples=120, deadline=None)
@given(n=st.integers(min_value=1, max_value=40), seed=st.integers(min_value=0, max_value=2**32 - 1),
       scale=st.sampled_from([0.3, 1.0, 8.0, 30.0]))
def test_gram_sigmoid_of_a_z_with_negative_entries_stays_within_rounding_of_the_oracle(n, seed,
                                                                                        scale):
    # off the encoder's ReLU domain, 1 / (1 + exp(-x)) of a negative x rounds
    # apart from the oracle's exp(x) / (1 + exp(x)); scale 30 puts Gram
    # entries below -709, where exp(-x) overflows and the sigmoid is 0
    rng = np.random.default_rng(seed)
    zv, weights = rng.normal(scale=scale, size=(n, 3)), rng.normal(size=(n, n))

    def run(gram_sigmoid):
        z = T.param(zv.copy())
        s = gram_sigmoid(z)
        T.backward(T.tsum(T.mul_const(s, weights)))
        return s.values, z.grad

    (got, got_grad), (want, want_grad) = run(T.gram_sigmoid), run(gram_sigmoid_ref)
    np.testing.assert_allclose(got, want, rtol=1e-15, atol=1e-300)
    assert rel_err(got_grad, want_grad) <= 1e-12


def test_backward_sum_gives_ones():
    w = T.param(np.arange(6.0).reshape(2, 3))
    T.backward(T.tsum(w))
    assert np.array_equal(w.grad, np.ones((2, 3)))


def test_backward_half_squared_norm_gives_w():
    rng = np.random.default_rng(3)
    w = T.param(rng.normal(size=(3, 3)))
    T.backward(T.mul_const(T.tsum(T.mul(w, w)), 0.5))
    assert np.allclose(w.grad, w.values)


def test_backward_rejects_nonscalar_loss():
    with pytest.raises(ContractError):
        T.backward(T.param(np.ones((2, 2))))


def test_shared_operand_accumulates_both_paths():
    w = T.param([[2.0]])
    T.backward(T.mul(w, w))  # d(w^2)/dw = 2w
    assert w.grad[0, 0] == pytest.approx(4.0)


def test_mask_is_constant_and_passes_scaled_gradient():
    rng = np.random.default_rng(4)
    p = T.param(rng.normal(size=(4, 3)))
    mask = np.array([1.0, 0.0, 1.0, 0.0])[:, None]
    T.backward(T.tsum(T.mul_const(p, mask)))
    assert np.array_equal(p.grad, np.broadcast_to(mask, (4, 3)))


def test_row_broadcast_bias_add():
    x = T.param(np.zeros((3, 2)))
    b = T.param([[1.0, 2.0]])
    out = T.add(x, b)
    assert np.array_equal(out.values, [[1.0, 2.0]] * 3)
    T.backward(T.tsum(out))
    assert np.array_equal(b.grad, [[3.0, 3.0]])


def test_softmax_rows_gradient():
    rng = np.random.default_rng(6)
    p = T.param(rng.normal(size=(3, 4)))
    weights = rng.normal(size=(3, 4))  # non-uniform functional so the Jacobian matters
    f = lambda: T.tsum(T.mul_const(T.softmax_rows(p), weights))
    loss = f()
    T.backward(loss)
    fd = finite_diff(lambda: f().item(), [p])
    assert rel_err(p.grad, fd[0]) < 1e-6


def test_misc_elementwise_gradients():
    rng = np.random.default_rng(7)
    p = T.param(rng.uniform(0.5, 2.0, size=(3, 3)))
    f = lambda: T.tsum(T.add(T.reciprocal(p), T.mul(T.sqrt(p), T.tanh(p))))
    T.backward(f())
    fd = finite_diff(lambda: f().item(), [p])
    assert rel_err(p.grad, fd[0]) < 1e-6


def test_clipped_bce_blocks_gradient_outside_clip():
    eps = 1e-3
    p = T.param([[0.5, 0.2, 1e-4, 0.9999, 0.0, 1.0, eps]])
    target = np.array([[1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0]])
    T.backward(T.clipped_bce(p, target, eps))
    assert (p.grad[0, 2:] == 0.0).all()  # clamped, the boundary included
    assert (p.grad[0, :2] != 0.0).all()


def test_clipped_bce_and_mse_gradients_vs_finite_differences():
    rng = np.random.default_rng(9)
    p = T.param(rng.uniform(0.05, 0.95, size=(4, 4)))
    target = (rng.random((4, 4)) < 0.5).astype(float)
    x = T.param(rng.normal(size=(4, 3)))
    feats = rng.normal(size=(4, 3))
    f = lambda: T.add(T.clipped_bce(p, target, 1e-7), T.mse(x, feats))
    T.backward(f())
    fd = finite_diff(lambda: f().item(), [p, x])
    assert rel_err(p.grad, fd[0]) < 1e-6
    assert rel_err(x.grad, fd[1]) < 1e-6


def test_cross_entropy_matches_log_softmax():
    logits = T.param([[2.0, -1.0, 0.5]])
    ce = T.cross_entropy(logits, 2)
    probs = np.exp([2.0, -1.0, 0.5])
    probs /= probs.sum()
    assert ce.item() == pytest.approx(-np.log(probs[2]))
    T.backward(ce)
    expected = probs.copy()
    expected[2] -= 1.0
    assert np.allclose(logits.grad, expected[None, :])


def test_forward_is_bitwise_deterministic():
    rng = np.random.default_rng(8)
    a = rng.normal(size=(6, 6))
    runs = []
    for _ in range(2):
        out = T.gram_sigmoid(T.Tensor(a))
        runs.append(out.values.tobytes())
    assert runs[0] == runs[1]


# -- what the tape records -------------------------------------------------

def _ops_on(a, b, row):
    """Every op applied to operands a (4x4), b (4x4) and row (1x4); the ops
    that take a layout also to a batch of two 2-node graphs."""
    two = T.Layout((2, 2))
    return [T.matmul(a, b), T.add(a, b), T.add(a, row), T.mul(a, b), T.mul_const(a, 2.0),
            T.mul(a, T.tsum(b)), T.relu(a), T.tanh(a), T.sqrt(T.mul(a, a)),
            T.reciprocal(T.add(T.mul(a, a), T.Tensor(np.ones((4, 4))))), T.tsum(a),
            T.softmax_rows(a), T.gram_sigmoid(a), T.clipped_bce(T.softmax_rows(a), np.eye(4), 1e-7),
            T.mse(a, np.ones((4, 4))), T.cross_entropy(row, 2),
            T.matmul(a, b, two), T.propagate(np.ones(8), a, two), T.transpose_matmul(a, b, two),
            T.tsum(a, two), T.mul(a, T.tsum(b, two), two), T.gram_sigmoid(a, two),
            T.clipped_bce(T.gram_sigmoid(a, two), np.tile([1.0, 0.0], 4), 1e-7, two),
            T.mse(a, b.values, two), T.cross_entropy(a, [0, 1, 2, 3]),
            T.gcn_views(np.ones((4, 4)), [[0, 1, 2, 3]], [a], [b], np.eye(4))]


def test_ops_on_constants_record_no_parents():
    rng = np.random.default_rng(10)
    a, b, row = (T.Tensor(rng.normal(size=s)) for s in ((4, 4), (4, 4), (1, 4)))
    for out in _ops_on(a, b, row):
        assert not out.requires_grad
        assert out._parents == () and out._backward is None


def test_ops_on_a_parameter_join_the_tape():
    rng = np.random.default_rng(11)
    a, row = T.param(rng.normal(size=(4, 4))), T.param(rng.normal(size=(1, 4)))
    b = T.Tensor(rng.normal(size=(4, 4)))
    for out in _ops_on(a, b, row):
        assert out.requires_grad and out._parents and out._backward is not None


def test_constant_operand_gets_no_gradient():
    rng = np.random.default_rng(12)
    const = T.Tensor(rng.normal(size=(3, 4)))
    derived = T.mul_const(const, 2.0)  # an op on a constant is a constant too
    w = T.param(rng.normal(size=(4, 2)))
    T.backward(T.add(T.tsum(T.matmul(const, w)), T.tsum(T.matmul(derived, w))))
    assert const.grad is None and derived.grad is None
    assert np.array_equal(w.grad, const.values.T @ np.ones((3, 2))
                          + derived.values.T @ np.ones((3, 2)))


def test_no_grad_records_nothing_and_restores_the_mode():
    w = T.param(np.ones((2, 2)))
    with T.no_grad():
        out = T.relu(T.matmul(w, w))
        with T.no_grad():
            pass
        assert not T.tanh(out).requires_grad  # the inner block restored "off"
    assert not out.requires_grad and out._parents == ()
    with pytest.raises(RuntimeError):
        with T.no_grad():
            raise RuntimeError("boom")
    assert T.matmul(w, w).requires_grad


@settings(max_examples=80, deadline=None)
@given(n=st.integers(min_value=1, max_value=40), d=st.integers(min_value=1, max_value=5),
       seed=st.integers(min_value=0, max_value=2**32 - 1),
       z_scale=st.sampled_from([0.3, 1.0, 8.0]))
def test_fused_recon_ops_match_tape_oracles_bit_for_bit(n, d, seed, z_scale):
    # Z >= 0 with exact zeros, as the encoder's ReLU gives it; z_scale 8 makes
    # most Z Z^T > 20: sigmoid saturates and the clip blocks the gradient
    rng = np.random.default_rng(seed)
    adj = np.triu(rng.random((n, n)) < 0.3, 1).astype(float)
    adj += adj.T
    feats = rng.normal(size=(n, d))
    zv, xv = np.maximum(rng.normal(scale=z_scale, size=(n, 3)), 0.0), rng.normal(size=(n, d))
    weights = rng.normal(size=(n, n))

    def run(gram_sigmoid, losses):
        z, x_hat = T.param(zv.copy()), T.param(xv.copy())
        a_hat = gram_sigmoid(z)
        la, lx, lr = losses(adj, feats, a_hat, x_hat)
        T.backward(T.mul_const(lr, 0.3))  # an upstream gradient other than 1
        z2 = T.param(zv.copy())
        T.backward(T.tsum(T.mul_const(gram_sigmoid(z2), weights)))
        return [a_hat.values, la.values, lx.values, lr.values, z.grad, x_hat.grad, z2.grad]

    got = run(T.gram_sigmoid, prune.recon_losses)
    want = run(gram_sigmoid_ref, recon_losses_ref)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


@settings(max_examples=80, deadline=None)
@given(n=st.integers(min_value=1, max_value=40), seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_clipped_bce_matches_tape_oracle_at_the_clip_bit_for_bit(n, seed):
    rng = np.random.default_rng(seed)
    adj = (rng.random((n, n)) < 0.4).astype(float)
    eps = prune.LOG_EPS
    choices = np.array([0.0, 1.0, eps, 1.0 - eps, eps / 2, 1.0 - eps / 2, 0.5])
    pv = np.where(rng.random((n, n)) < 0.5, rng.uniform(size=(n, n)),
                  choices[rng.integers(0, len(choices), size=(n, n))])
    feats = np.zeros((n, 1))

    def run(losses):
        p = T.param(pv.copy())
        la = losses(adj, feats, p, T.Tensor(feats))[0]
        T.backward(T.mul_const(la, 0.3))
        return la.values, p.grad

    for g, w in zip(run(prune.recon_losses), run(recon_losses_ref)):
        assert np.array_equal(g, w)


@settings(max_examples=80, deadline=None)
@given(c=st.integers(min_value=1, max_value=8), seed=st.integers(min_value=0, max_value=2**32 - 1),
       scale=st.sampled_from([0.1, 1.0, 30.0, 800.0]))
def test_cross_entropy_matches_tape_oracle_bit_for_bit(c, seed, scale):
    rng = np.random.default_rng(seed)
    values, label = rng.normal(scale=scale, size=(1, c)), int(rng.integers(c))

    def run(ce):
        logits = T.param(values.copy())
        loss = ce(logits, label)
        T.backward(T.mul_const(loss, 0.3))
        return loss.values, logits.grad

    for g, w in zip(run(T.cross_entropy), run(cross_entropy_ref)):
        assert np.array_equal(g, w)


def _lone_op_and_reference(op):
    """(parameter values, the op on a one-graph layout, its plain 2-D reference)."""
    rng = np.random.default_rng(13)
    n, lone, eps = 7, T.layout_of((7,)), prune.LOG_EPS
    adj, feats = random_graph(rng, n, p=0.4, d=4)
    a, w, h = rng.normal(size=(n, 4)), rng.normal(size=(4, 3)), rng.normal(size=(n, 3))
    probs = np.where(rng.random((n, n)) < 0.2, 1.0 - eps / 2, rng.uniform(size=(n, n)))
    cols = [[0, 1], [2, 3]]
    views = [rng.normal(size=(2, 3)), rng.normal(size=(2, 3)), rng.normal(size=(3, 3)),
             rng.normal(size=(3, 3))]
    one = lambda x: T.Tensor(x) if np.ndim(x) else T.Tensor([[x]])  # noqa: E731
    return {
        "matmul": ((a, w), lambda p, q: T.matmul(p, q, lone), matmul_ref),
        "propagate": ((h,), lambda q: T.propagate(multiview.normalize_adjacency(adj), q, lone),
                      lambda q: matmul_ref(T.Tensor(multiview.normalize_adjacency(adj)), q)),
        "gcn_views": (views, lambda e1, e2, g1, g2: T.gcn_views(
                          a, cols, [e1, e2], [g1, g2], multiview.normalize_adjacency(adj), lone),
                      lambda e1, e2, g1, g2: gcn_views_ref(a, cols, [e1, e2], [g1, g2], adj)),
        "transpose_matmul": ((a, h), lambda p, q: T.transpose_matmul(p, q, lone),
                             lambda p, q: matmul_ref(transpose_ref(p), q)),
        "tsum": ((a,), lambda p: T.tsum(p, lone),
                 lambda p: T._op(p.values.sum().reshape(1, 1), (p,),
                                 lambda g: T._accum(p, np.full(p.shape, g[0, 0])))),
        "mul": ((h, np.array([[1.7]])), lambda p, q: T.mul(p, q, lone), scalar_mul_ref),
        "gram_sigmoid": ((np.abs(h),), lambda p: T.gram_sigmoid(p, lone), gram_sigmoid_ref),
        "clipped_bce": ((probs,), lambda p: T.clipped_bce(p, adj, eps, lone),
                        lambda p: recon_losses_ref(adj, feats, p, one(feats))[0]),
        "mse": ((a,), lambda p: T.mse(p, feats, lone),
                lambda p: recon_losses_ref(adj, feats, one(probs), p)[1]),
    }[op]


@pytest.mark.parametrize("op", ["matmul", "propagate", "gcn_views", "transpose_matmul", "tsum",
                                "mul", "gram_sigmoid", "clipped_bce", "mse"])
def test_ops_on_a_one_graph_layout_match_the_plain_product_bit_for_bit(op):
    # a lone graph runs every layout op as a batch of one; its values and, under
    # an upstream gradient other than 1, its gradients must be those of the
    # plain 2-D product (the oracle's own tape ops)
    values, on_layout, reference = _lone_op_and_reference(op)

    def run(fn):
        params = [T.param(v.copy()) for v in values]
        out = fn(*params)
        weights = np.random.default_rng(14).normal(size=out.shape)
        T.backward(T.tsum(T.mul_const(out, weights)))
        return [out.values] + [p.grad for p in params]

    for got, want in zip(run(on_layout), run(reference)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("extra", [-1, 1])
@pytest.mark.parametrize("op", ["graph_sums", "tsum", "clipped_bce", "mul"])
def test_a_mis_sized_array_on_a_multi_graph_layout_is_a_shape_error(op, extra):
    # graphs of 2, 3 and 3 nodes: 8 rows and 4 + 9 + 9 = 22 pairwise entries;
    # one row or entry more or fewer, or one graph's value more or fewer, is an
    # error, not a silent cut
    layout = T.layout_of((2, 3, 3))
    rows, pairs = np.ones((8 + extra, 2)), np.full((1, 22 + extra), 0.5)
    with pytest.raises(ShapeError):
        if op == "graph_sums":
            layout.graph_sums(rows)
        elif op == "tsum":
            T.tsum(T.param(rows), layout)
        elif op == "mul":
            T.mul(T.param(np.ones((8, 2))), T.param(np.ones((3 + extra, 1))), layout)
        else:
            T.clipped_bce(T.param(pairs), np.ones(pairs.size), prune.LOG_EPS, layout)
