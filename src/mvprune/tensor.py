"""Dense 2-D float64 tensors with a reverse-mode differentiation tape.

Every op records a backward closure on the output tensor; `backward(loss)`
replays them once each in reverse topological order. Only the handful of
primitives the 2-layer networks need are provided. Broadcasting is limited to
row-vectors over rows (bias add) and 1x1 scalars; everything else must match
exactly so shape bugs fail loudly.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, ShapeError


class Tensor:
    __slots__ = ("values", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, values, requires_grad: bool = False, _parents=()):
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim != 2:
            raise ShapeError(f"tensors are 2-D, got shape {arr.shape}")
        self.values = arr
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = tuple(_parents)
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


def _wants_grad(t: Tensor) -> bool:
    return t.requires_grad or bool(t._parents)


def _accum(t: Tensor, g: np.ndarray):
    if not _wants_grad(t):
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
    out = Tensor(a.values @ b.values, _parents=(a, b))

    def bw(g):
        _accum(a, g @ b.values.T)
        _accum(b, a.values.T @ g)

    out._backward = bw
    return out


def add(a: Tensor, b: Tensor) -> Tensor:
    row_bcast = b.shape == (1, a.cols) and a.rows != 1
    if not row_bcast and a.shape != b.shape:
        raise ShapeError(f"add: {a.shape} + {b.shape}")
    out = Tensor(a.values + b.values, _parents=(a, b))

    def bw(g):
        _accum(a, g)
        _accum(b, g.sum(axis=0, keepdims=True) if row_bcast else g)

    out._backward = bw
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product; either operand may be a 1x1 scalar."""
    a_scalar, b_scalar = a.shape == (1, 1), b.shape == (1, 1)
    if a.shape != b.shape and not (a_scalar or b_scalar):
        raise ShapeError(f"mul: {a.shape} * {b.shape}")
    out_vals = a.values * b.values
    # bw must not reference `out`, or every tape becomes a reference cycle
    out_scalar = out_vals.shape == (1, 1)
    out = Tensor(out_vals, _parents=(a, b))

    def bw(g):
        ga = g * b.values
        gb = g * a.values
        _accum(a, ga.sum().reshape(1, 1) if a_scalar and not out_scalar else ga)
        _accum(b, gb.sum().reshape(1, 1) if b_scalar and not out_scalar else gb)

    out._backward = bw
    return out


def mul_const(a: Tensor, c) -> Tensor:
    """Multiply by a constant array (e.g. the pruning mask); c gets no gradient."""
    c = np.asarray(c, dtype=np.float64)
    vals = a.values * c
    if vals.shape != a.shape:
        raise ShapeError(f"mul_const: constant {c.shape} does not broadcast onto {a.shape}")
    out = Tensor(vals, _parents=(a,))

    def bw(g):
        _accum(a, g * c)

    out._backward = bw
    return out


def add_const(a: Tensor, c) -> Tensor:
    c = np.asarray(c, dtype=np.float64)
    vals = a.values + c
    if vals.shape != a.shape:
        raise ShapeError(f"add_const: constant {c.shape} does not broadcast onto {a.shape}")
    out = Tensor(vals, _parents=(a,))
    out._backward = lambda g: _accum(a, g)
    return out


def scale(a: Tensor, s: float) -> Tensor:
    out = Tensor(a.values * s, _parents=(a,))
    out._backward = lambda g: _accum(a, g * s)
    return out


def relu(a: Tensor) -> Tensor:
    # subgradient at exactly 0 is 0
    mask = a.values > 0.0
    out = Tensor(np.where(mask, a.values, 0.0), _parents=(a,))
    out._backward = lambda g: _accum(a, g * mask)
    return out


def sigmoid(a: Tensor) -> Tensor:
    x = a.values
    # branch on sign so exp never overflows
    s = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                 np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
    out = Tensor(s, _parents=(a,))
    out._backward = lambda g: _accum(a, g * s * (1.0 - s))
    return out


def tanh(a: Tensor) -> Tensor:
    t = np.tanh(a.values)
    out = Tensor(t, _parents=(a,))
    out._backward = lambda g: _accum(a, g * (1.0 - t * t))
    return out


def log(a: Tensor) -> Tensor:
    out = Tensor(np.log(a.values), _parents=(a,))
    out._backward = lambda g: _accum(a, g / a.values)
    return out


def exp(a: Tensor) -> Tensor:
    e = np.exp(a.values)
    out = Tensor(e, _parents=(a,))
    out._backward = lambda g: _accum(a, g * e)
    return out


def sqrt(a: Tensor) -> Tensor:
    r = np.sqrt(a.values)
    out = Tensor(r, _parents=(a,))
    out._backward = lambda g: _accum(a, g * 0.5 / r)
    return out


def reciprocal(a: Tensor) -> Tensor:
    out = Tensor(1.0 / a.values, _parents=(a,))
    out._backward = lambda g: _accum(a, -g / (a.values * a.values))
    return out


def clip(a: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp values; gradient flows only strictly inside (lo, hi)."""
    inside = (a.values > lo) & (a.values < hi)
    out = Tensor(np.clip(a.values, lo, hi), _parents=(a,))
    out._backward = lambda g: _accum(a, g * inside)
    return out


def transpose(a: Tensor) -> Tensor:
    out = Tensor(a.values.T, _parents=(a,))
    out._backward = lambda g: _accum(a, g.T)
    return out


def tsum(a: Tensor) -> Tensor:
    """Reduce all entries to a 1x1 scalar."""
    out = Tensor(a.values.sum().reshape(1, 1), _parents=(a,))
    out._backward = lambda g: _accum(a, np.full(a.shape, g[0, 0]))
    return out


def slice_cols(a: Tensor, idx) -> Tensor:
    idx = list(idx)
    out = Tensor(a.values[:, idx], _parents=(a,))

    def bw(g):
        if _wants_grad(a):
            full = np.zeros(a.shape)
            np.add.at(full, (slice(None), idx), g)
            _accum(a, full)

    out._backward = bw
    return out


def concat_cols(parts: list[Tensor]) -> Tensor:
    if not parts:
        raise ContractError("concat_cols: empty list")
    rows = parts[0].rows
    if any(p.rows != rows for p in parts):
        raise ShapeError("concat_cols: row counts differ")
    out = Tensor(np.concatenate([p.values for p in parts], axis=1), _parents=tuple(parts))
    widths = [p.cols for p in parts]

    def bw(g):
        off = 0
        for p, w in zip(parts, widths):
            _accum(p, g[:, off:off + w])
            off += w

    out._backward = bw
    return out


def softmax_rows(a: Tensor) -> Tensor:
    shifted = a.values - a.values.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=1, keepdims=True)
    out = Tensor(s, _parents=(a,))

    def bw(g):
        _accum(a, (g - (g * s).sum(axis=1, keepdims=True)) * s)

    out._backward = bw
    return out


# -- helpers built from primitives ----------------------------------------

def cross_entropy(logits: Tensor, label: int) -> Tensor:
    """Stable -log softmax(logits)[label] for a 1xC logit row."""
    if logits.rows != 1:
        raise ShapeError(f"cross_entropy expects a 1xC row, got {logits.shape}")
    shift = float(logits.values.max())  # constant shift; softmax is invariant
    z = add_const(logits, -shift)
    lse = log(tsum(exp(z)))
    picked = slice_cols(z, [label])
    return add(lse, scale(picked, -1.0))


def backward(loss: Tensor):
    """Accumulate d(loss)/d(leaf) into .grad for every ancestor that wants one."""
    if loss.shape != (1, 1):
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    order = _toposort(loss)
    loss.grad = np.ones((1, 1))
    for t in reversed(order):
        if t._backward is not None and t.grad is not None:
            t._backward(t.grad)


def _toposort(root: Tensor) -> list[Tensor]:
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
            if id(p) not in visited:
                stack.append((p, False))
    return order
