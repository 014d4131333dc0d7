"""Dense 2-D float64 tensors with a reverse-mode differentiation tape.

An op's output requires grad iff grad mode is on and an operand requires
grad; only then does it keep its operands and a backward closure, which
`backward(loss)` replays once each in reverse topological order. Ops on
constants record nothing, a backward computes no gradient for an operand that
needs none, and inside `no_grad()` nothing is recorded at all: validation, the
test split, `sweep`, `export-scores` and `analyze` forward grad-free.

The fused ops `gram_sigmoid` (sigmoid(Z Z^T)), `clipped_bce`, `mse` and
`cross_entropy` are one tape node each. Their backward repeats the elementwise
expressions of the primitive chain they replace, in its order, so values and
gradients are bit-identical to that chain. Broadcasting is limited to
row-vectors over rows (bias add) and 1x1 scalars; everything else must match
exactly so shape bugs fail loudly.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from .errors import ContractError, ShapeError


class Tensor:
    __slots__ = ("values", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, values, requires_grad: bool = False):
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim != 2:
            raise ShapeError(f"tensors are 2-D, got shape {arr.shape}")
        self.values = arr
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._backward = None

    # -- introspection -----------------------------------------------------
    @property
    def shape(self):
        return self.values.shape

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def cols(self) -> int:
        return self.values.shape[1]

    def item(self) -> float:
        if self.shape != (1, 1):
            raise ShapeError(f"item() needs a 1x1 tensor, got {self.shape}")
        return float(self.values[0, 0])

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def param(values, rng: np.random.Generator | None = None, shape=None) -> Tensor:
    """A trainable leaf. With `rng` and `shape`, Glorot-uniform initialized."""
    if values is None:
        fan_in, fan_out = shape
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        values = rng.uniform(-bound, bound, size=shape)
    return Tensor(values, requires_grad=True)


_grad_enabled = True  # process-wide; only no_grad() changes it


@contextmanager
def no_grad():
    """Record nothing in the block; the previous mode returns on exit, even on error."""
    global _grad_enabled
    previous, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = previous


def _op(values, parents: tuple, backward) -> Tensor:
    """An op's output: on the tape iff grad mode is on and a parent requires
    grad, else a constant leaf. `backward` must not reference the output, or
    every tape becomes a reference cycle."""
    out = Tensor.__new__(Tensor)  # no __init__ checks: op values are 2-D float64
    out.values, out.grad = values, None
    out.requires_grad, out._parents, out._backward = False, (), None
    if _grad_enabled:
        for p in parents:
            if p.requires_grad:
                out.requires_grad, out._parents, out._backward = True, parents, backward
                break
    return out


def _accum(t: Tensor, g: np.ndarray):
    if not t.requires_grad:
        return
    if g.shape != t.shape:
        raise ShapeError(f"gradient shape {g.shape} != tensor shape {t.shape}")
    if t.grad is None:
        t.grad = g.copy()
    else:
        t.grad += g


# -- primitives ------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.cols != b.rows:
        raise ShapeError(f"matmul: {a.shape} @ {b.shape}")

    def bw(g):
        if a.requires_grad:
            _accum(a, g @ b.values.T)
        if b.requires_grad:
            _accum(b, a.values.T @ g)

    return _op(a.values @ b.values, (a, b), bw)


def add(a: Tensor, b: Tensor) -> Tensor:
    row_bcast = b.shape == (1, a.cols) and a.rows != 1
    if not row_bcast and a.shape != b.shape:
        raise ShapeError(f"add: {a.shape} + {b.shape}")

    def bw(g):
        _accum(a, g)
        if b.requires_grad:
            _accum(b, g.sum(axis=0, keepdims=True) if row_bcast else g)

    return _op(a.values + b.values, (a, b), bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product; either operand may be a 1x1 scalar."""
    a_scalar, b_scalar = a.shape == (1, 1), b.shape == (1, 1)
    if a.shape != b.shape and not (a_scalar or b_scalar):
        raise ShapeError(f"mul: {a.shape} * {b.shape}")
    out_vals = a.values * b.values
    out_scalar = out_vals.shape == (1, 1)

    def bw(g):
        if a.requires_grad:
            ga = g * b.values
            _accum(a, ga.sum().reshape(1, 1) if a_scalar and not out_scalar else ga)
        if b.requires_grad:
            gb = g * a.values
            _accum(b, gb.sum().reshape(1, 1) if b_scalar and not out_scalar else gb)

    return _op(out_vals, (a, b), bw)


def mul_const(a: Tensor, c) -> Tensor:
    """Multiply by a constant array (e.g. the pruning mask); c gets no gradient."""
    c = np.asarray(c, dtype=np.float64)
    vals = a.values * c
    if vals.shape != a.shape:
        raise ShapeError(f"mul_const: constant {c.shape} does not broadcast onto {a.shape}")
    return _op(vals, (a,), lambda g: _accum(a, g * c))


def add_const(a: Tensor, c) -> Tensor:
    c = np.asarray(c, dtype=np.float64)
    vals = a.values + c
    if vals.shape != a.shape:
        raise ShapeError(f"add_const: constant {c.shape} does not broadcast onto {a.shape}")
    return _op(vals, (a,), lambda g: _accum(a, g))


def scale(a: Tensor, s: float) -> Tensor:
    return _op(a.values * s, (a,), lambda g: _accum(a, g * s))


def relu(a: Tensor) -> Tensor:
    # subgradient at exactly 0 is 0
    mask = a.values > 0.0
    return _op(np.where(mask, a.values, 0.0), (a,), lambda g: _accum(a, g * mask))


def tanh(a: Tensor) -> Tensor:
    t = np.tanh(a.values)
    return _op(t, (a,), lambda g: _accum(a, g * (1.0 - t * t)))


def sqrt(a: Tensor) -> Tensor:
    r = np.sqrt(a.values)
    return _op(r, (a,), lambda g: _accum(a, g * 0.5 / r))


def reciprocal(a: Tensor) -> Tensor:
    return _op(1.0 / a.values, (a,), lambda g: _accum(a, -g / (a.values * a.values)))


def transpose(a: Tensor) -> Tensor:
    return _op(a.values.T, (a,), lambda g: _accum(a, g.T))


def tsum(a: Tensor) -> Tensor:
    """Reduce all entries to a 1x1 scalar."""
    return _op(a.values.sum().reshape(1, 1), (a,),
               lambda g: _accum(a, np.full(a.shape, g[0, 0])))


def slice_cols(a: Tensor, idx) -> Tensor:
    idx = list(idx)

    def bw(g):
        full = np.zeros(a.shape)
        np.add.at(full, (slice(None), idx), g)
        _accum(a, full)

    return _op(a.values[:, idx], (a,), bw)


def concat_cols(parts: list[Tensor]) -> Tensor:
    if not parts:
        raise ContractError("concat_cols: empty list")
    rows = parts[0].rows
    if any(p.rows != rows for p in parts):
        raise ShapeError("concat_cols: row counts differ")
    widths = [p.cols for p in parts]

    def bw(g):
        off = 0
        for p, w in zip(parts, widths):
            _accum(p, g[:, off:off + w])
            off += w

    return _op(np.concatenate([p.values for p in parts], axis=1), tuple(parts), bw)


def softmax_rows(a: Tensor) -> Tensor:
    shifted = a.values - a.values.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=1, keepdims=True)
    return _op(s, (a,), lambda g: _accum(a, (g - (g * s).sum(axis=1, keepdims=True)) * s))


# -- fused ops -------------------------------------------------------------

def gram_sigmoid(z: Tensor) -> Tensor:
    """sigmoid(Z Z^T), symmetric by construction. Backward: dG @ Z + (Z^T @ dG)^T
    with dG = g * s * (1 - s)."""
    zv = z.values
    x = zv @ zv.T
    # branch on sign so exp never overflows
    e = np.exp(-np.abs(x))
    s = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))

    def bw(g):
        dg = g * s * (1.0 - s)
        _accum(z, dg @ zv + (zv.T @ dg).T)

    return _op(s, (z,), bw)


def clipped_bce(p: Tensor, target, eps: float) -> Tensor:
    """Mean binary cross-entropy of probabilities p against target T:
    -sum(log(c) T + log(1 - c) (1 - T)) / size with c = clip(p, eps, 1 - eps).
    No gradient reaches p where the clip is active."""
    target = np.asarray(target, dtype=np.float64)
    if target.shape != p.shape:
        raise ShapeError(f"clipped_bce: target {target.shape} != probabilities {p.shape}")
    c = np.clip(p.values, eps, 1.0 - eps)
    one_minus_c = c * -1.0 + 1.0
    other = 1.0 - target
    s = -1.0 / target.size
    total = (np.log(c) * target + np.log(one_minus_c) * other).sum().reshape(1, 1)
    inside = (p.values > eps) & (p.values < 1.0 - eps)

    def bw(g):
        full = np.full(p.shape, (g * s)[0, 0])
        _accum(p, ((full * target) / c + (full * other) / one_minus_c * -1.0) * inside)

    return _op(total * s, (p,), bw)


def mse(x: Tensor, target) -> Tensor:
    """Mean squared error sum((target - x)^2) / size."""
    target = np.asarray(target, dtype=np.float64)
    if target.shape != x.shape:
        raise ShapeError(f"mse: target {target.shape} != input {x.shape}")
    diff = x.values * -1.0 + target
    s = 1.0 / target.size

    def bw(g):
        gd = np.full(x.shape, (g * s)[0, 0]) * diff
        _accum(x, (gd + gd) * -1.0)

    return _op((diff * diff).sum().reshape(1, 1) * s, (x,), bw)


def cross_entropy(logits: Tensor, label: int) -> Tensor:
    """Stable -log softmax(logits)[label] for a 1xC logit row (logsumexp)."""
    if logits.rows != 1:
        raise ShapeError(f"cross_entropy expects a 1xC row, got {logits.shape}")
    z = logits.values - float(logits.values.max())  # softmax is shift-invariant
    e = np.exp(z)
    total = e.sum().reshape(1, 1)

    def bw(g):
        gz = (g / total) * e
        gz[0, label] += g[0, 0] * -1.0
        _accum(logits, gz)

    return _op(np.log(total) + z[:, [label]] * -1.0, (logits,), bw)


def backward(loss: Tensor):
    """Accumulate d(loss)/d(t) into .grad for every tape node t the loss depends on."""
    if loss.shape != (1, 1):
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    order = _toposort(loss)
    loss.grad = np.ones((1, 1))
    for t in reversed(order):
        if t._backward is not None and t.grad is not None:
            t._backward(t.grad)


def _toposort(root: Tensor) -> list[Tensor]:
    """The root and every ancestor that requires grad, producers first."""
    order, visited = [], set()
    stack = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in visited:
                stack.append((p, False))
    return order
