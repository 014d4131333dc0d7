import numpy as np
import pytest

from mvprune import tensor as T
from mvprune.errors import ContractError, ShapeError

from oracles import finite_diff, rel_err


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


def test_sigmoid_values_and_saturation():
    assert T.sigmoid(T.Tensor([[0.0]])).item() == 0.5
    sat = T.sigmoid(T.Tensor([[1000.0, -1000.0]]))
    assert np.isfinite(sat.values).all()
    assert sat.values[0, 0] == 1.0
    assert sat.values[0, 1] == 0.0


def test_sigmoid_gradient():
    rng = np.random.default_rng(2)
    p = T.param(rng.normal(size=(3, 5)))
    loss = T.tsum(T.sigmoid(p))
    T.backward(loss)
    fd = finite_diff(lambda: T.tsum(T.sigmoid(p)).item(), [p])
    assert rel_err(p.grad, fd[0]) < 1e-6


def test_backward_sum_gives_ones():
    w = T.param(np.arange(6.0).reshape(2, 3))
    T.backward(T.tsum(w))
    assert np.array_equal(w.grad, np.ones((2, 3)))


def test_backward_half_squared_norm_gives_w():
    rng = np.random.default_rng(3)
    w = T.param(rng.normal(size=(3, 3)))
    T.backward(T.scale(T.tsum(T.mul(w, w)), 0.5))
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


def test_concat_and_slice_cols_roundtrip_gradients():
    rng = np.random.default_rng(5)
    a = T.param(rng.normal(size=(2, 3)))
    b = T.param(rng.normal(size=(2, 2)))
    cat = T.concat_cols([a, b])
    assert cat.shape == (2, 5)
    back = T.slice_cols(cat, [3, 4])
    T.backward(T.tsum(back))
    assert np.array_equal(a.grad, np.zeros((2, 3)))
    assert np.array_equal(b.grad, np.ones((2, 2)))


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
    f = lambda: T.tsum(T.add(T.log(p), T.add(T.exp(T.scale(p, -1.0)),
                                             T.mul(T.sqrt(p), T.tanh(p)))))
    T.backward(f())
    fd = finite_diff(lambda: f().item(), [p])
    assert rel_err(p.grad, fd[0]) < 1e-6


def test_clip_blocks_gradient_outside_range():
    p = T.param([[0.5, 2.0, -1.0]])
    T.backward(T.tsum(T.clip(p, 0.0, 1.0)))
    assert np.array_equal(p.grad, [[1.0, 0.0, 0.0]])


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
        t = T.Tensor(a)
        out = T.sigmoid(T.matmul(t, T.transpose(t)))
        runs.append(out.values.tobytes())
    assert runs[0] == runs[1]
