"""Dense 2-D float64 tensors with a reverse-mode differentiation tape.

A tensor's `values` array is bound once, when it is made, and its `shape`,
`rows` and `cols` are attributes set then: training and `load_state_dict`
write into a parameter's array in place. An op's output requires grad iff
grad mode is on and an operand requires grad; only then does it keep its
operands and a backward closure, which `backward(loss)` replays once each in
reverse topological order. Ops on constants record nothing, a backward
computes no gradient for an operand that needs none, and inside `no_grad()`
nothing is recorded at all: validation, the test split, `sweep`,
`export-scores` and `analyze` forward grad-free.

A batch of graphs is one tensor whose rows stack the graphs' nodes in the
caller's order, as a `Layout` describes; pairwise data (A, A_hat) holds the
graphs' n x n blocks flat. The ops that take a layout (weight products,
propagation, the Gram sigmoid, the losses, sums and per-graph products) work
graph by graph inside one tape node, so a batch builds one tape, and cut it
only through `Layout`'s methods, bar `gcn_views`' slice of all views' rows.
Only the products, the per-graph sums and the per-graph scales loop over the
size groups; an elementwise pass over pairwise data (the Gram's sigmoid, the
BCE's clip, log and gradient, the masked propagation's mask) runs once over
the whole batch, since no entry's value depends on the graph it belongs to.
A lone graph is a batch of one, which these ops assume when given no layout,
bar `mul` by a 1x1 factor and `tsum`, which then take the whole array.

The fused ops `gcn_views` (the multi-view encoder), `gram_sigmoid`
(sigmoid(Z Z^T)), `clipped_bce`, `mse` and `cross_entropy` are one tape node
each. Their backward repeats the products and elementwise expressions of the
primitive chain they replace, in its order, so values and gradients are
bit-identical to that chain on a Z >= 0 (the encoder's ReLU output) and a 0/1
target (the adjacency `Graph` checks). Broadcasting is limited to row-vectors
over rows (bias add) and one value per graph or per array (`mul`); everything
else must match exactly so shape bugs fail loudly.
"""

from __future__ import annotations

import functools
import itertools
from contextlib import contextmanager
from typing import NamedTuple

import numpy as np

from .errors import ContractError, ShapeError


class Group(NamedTuple):
    """`b` adjacent graphs of `n` nodes: the first is graph `graph`, and its
    rows start at `row`."""
    n: int
    b: int
    graph: int
    row: int


class Layout:
    """Which rows of a tensor belong to which graph of a batch; a lone graph
    is a batch of one. Graph g owns the next `sizes[g]` rows. Adjacent graphs
    of one size form a `Group`, whose rows reshape to a (b, n, ...) stack (see
    `stacks`). np.matmul multiplies a stack graph by graph with the BLAS call
    a lone graph gets, so a graph's forward values do not depend on the batch
    it is in, and nothing is padded. Pairwise data is stored flat, block after
    block, and a group's blocks reshape to (b, n, n). Only these methods know
    how a batch is cut into graphs; a lone graph's arrays are not cut at all:
    they keep their shapes, its pairwise arrays n x n. Each group's cuts and
    stack shapes are worked out once, here, and `layout_of` keeps one Layout
    per size tuple, so a training step reuses them in every op.
    """

    __slots__ = ("sizes", "groups", "rows", "pairs", "_lone", "_row_cuts", "_pair_cuts", "_offsets")

    def __init__(self, sizes):
        sizes = [int(n) for n in sizes]
        if min(sizes, default=1) < 1:
            raise ContractError("every graph of a batch needs at least one node")
        self.sizes = np.array(sizes, dtype=np.int64)
        # each group, and its (first, end, stack shape) of rows and of pairwise entries
        self.groups: list[Group] = []
        self._row_cuts, self._pair_cuts = [], []
        graph = row = pair = 0
        for n, run in itertools.groupby(sizes):
            b = len(list(run))
            self.groups.append(Group(n, b, graph, row))
            self._row_cuts.append((row, row + b * n, (b, n)))
            self._pair_cuts.append((pair, pair + b * n * n, (b, n, n)))
            graph, row, pair = graph + b, row + b * n, pair + b * n * n
        self.rows, self.pairs = row, pair
        self._lone = row if len(sizes) == 1 else 0  # a lone graph's node count
        self._offsets = np.cumsum(sizes)[:-1].tolist()  # where `split` cuts

    def stacks(self, a: np.ndarray, pairwise: bool = False,
               rows: int | None = None) -> list[np.ndarray]:
        """Views of a batch array, one per group, for numpy to work on graph by
        graph: a per-node array's rows (`rows` per graph if given) as a (b, n,
        ...) stack, or a pairwise array's blocks as (b, n, n). A lone graph's
        array comes back as it is."""
        if self._lone:
            return [a]
        if pairwise:
            flat = a.reshape(-1)
            return [flat[first:end].reshape(shape) for first, end, shape in self._pair_cuts]
        tail = a.shape[1:]
        if rows is None:
            return [a[first:end].reshape(shape + tail) for first, end, shape in self._row_cuts]
        return [a[grp.graph * rows:(grp.graph + grp.b) * rows].reshape((grp.b, rows) + tail)
                for grp in self.groups]

    def join(self, parts: list[np.ndarray], cols: int | None = None) -> np.ndarray:
        """Per-group (or per-graph) arrays back in one array, flat or in rows
        of `cols` columns; a lone graph's part as it is."""
        if self._lone:
            return parts[0]
        flat = np.concatenate(parts, axis=None) if len(parts) > 1 else parts[0]
        return flat.reshape(-1) if cols is None else flat.reshape(-1, cols)

    def map(self, fn, *arrays: np.ndarray, args: tuple = (), cols: int | None = None,
            pairwise: int = 0) -> np.ndarray:
        """fn(*stacks, *args) of each group's stacks of `arrays` (the first
        `pairwise` of them pairwise), rejoined; for a lone graph fn(*arrays, *args)."""
        if self._lone:
            return fn(*arrays, *args)
        stacks = [self.stacks(a, i < pairwise) for i, a in enumerate(arrays)]
        return self.join([fn(*xs, *args) for xs in zip(*stacks)], cols)

    def split(self, a: np.ndarray) -> list[np.ndarray]:
        """A per-node array cut into one array per graph."""
        return np.split(a, self._offsets)

    def blocks(self, a: np.ndarray, pairwise: bool = False) -> list[np.ndarray]:
        """Each group's entries of a per-node (or pairwise) array as (graphs,
        entries per graph) views of its `stacks`; a lone graph's entries as
        one row."""
        if self._lone:
            return [a.reshape(1, -1)]
        if (a.size != self.pairs) if pairwise else (len(a) != self.rows):
            raise ShapeError(f"{a.size} entries do not fit a layout of sizes {self.sizes.tolist()}")
        return [s.reshape(len(s), -1) for s in self.stacks(a, pairwise)]

    def spread(self, per_graph: np.ndarray, per_node: int = 1) -> np.ndarray:
        """Each graph's value repeated over its rows' `per_node` entries, flat."""
        return per_graph.repeat(self.sizes * per_node)

    def graph_sums(self, a: np.ndarray) -> np.ndarray:
        """Each graph's sum over all entries of its rows of a per-node array."""
        return self.join([np.add.reduce(b, 1) for b in self.blocks(a)])


layout_of = functools.lru_cache(maxsize=512)(Layout)  # one Layout per size tuple, never changed


def as_layout(layout: Layout | None, rows: int) -> Layout:
    """`layout`, checked to cover `rows` rows, or else a lone graph's of `rows` nodes."""
    if layout is None:
        return layout_of((rows,))
    if layout.rows != rows:
        raise ShapeError(f"layout covers {layout.rows} rows, tensor has {rows}")
    return layout


class Tensor:
    """A 2-D float64 array, bound once, with its shape as attributes and its place on the tape."""
    __slots__ = ("values", "shape", "rows", "cols", "grad", "requires_grad", "_parents",
                 "_backward")

    def __init__(self, values, requires_grad: bool = False):
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim != 2:
            raise ShapeError(f"tensors are 2-D, got shape {arr.shape}")
        self.values, self.grad, self.requires_grad = arr, None, requires_grad
        self.rows, self.cols = self.shape = arr.shape
        self._parents, self._backward = (), None

    def item(self) -> float:
        if self.shape != (1, 1):
            raise ShapeError(f"item() needs a 1x1 tensor, got {self.shape}")
        return float(self.values[0, 0])

    def zero_grad(self):
        self.grad = None


def param(values, rng: np.random.Generator | None = None, shape=None) -> Tensor:
    """A trainable leaf. With `rng` and `shape`, Glorot-uniform initialized."""
    if values is None:
        bound = np.sqrt(6.0 / sum(shape))  # fan in + fan out
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
    out = Tensor.__new__(Tensor)  # no __init__ checks: op values are float64
    out.values, out.grad = values, None
    out.rows, out.cols = out.shape = values.shape  # fails unless 2-D
    out.requires_grad, out._parents, out._backward = False, (), None
    if _grad_enabled:
        for p in parents:
            if p.requires_grad:
                out.requires_grad, out._parents, out._backward = True, parents, backward
                break
    return out


def _accum(t: Tensor, g: np.ndarray, fresh: bool = False):
    """Add g to t.grad. A `fresh` g is a new array that nothing else holds,
    so it can become t.grad without a copy."""
    if not t.requires_grad:
        return
    if g.shape != t.shape:
        raise ShapeError(f"gradient shape {g.shape} != tensor shape {t.shape}")
    if t.grad is None:
        t.grad = g if fresh else g.copy()
    else:
        t.grad += g


# -- primitives ------------------------------------------------------------

def matmul(a: Tensor, b: Tensor, layout: Layout | None = None) -> Tensor:
    """a @ b, each graph's rows of `a` multiplied on their own, so they get
    the values a lone graph gets; the backward is one plain product."""
    if a.cols != b.rows:
        raise ShapeError(f"matmul: {a.shape} @ {b.shape}")
    layout = as_layout(layout, a.rows)
    values = layout.map(np.matmul, a.values, args=(b.values,), cols=b.cols)

    def bw(g):
        if a.requires_grad:
            _accum(a, g @ b.values.T)
        if b.requires_grad:
            _accum(b, a.values.T @ g)

    return _op(values, (a, b), bw)


def propagate(pairs: np.ndarray, h: Tensor, layout: Layout | None = None,
              keep: np.ndarray | None = None) -> Tensor:
    """Each graph's block of the constant pairwise array A times its rows of h.

    With a 0/1 `keep` mask m, the product with A' = A m m^T without building
    A': m * (A @ (m * h)), and the backward m * (A^T @ (m * g)). Each product
    term is A''s term but for the sign of a zero, which no nonzero sum
    keeps; a dropped row is +0, as A''s zero row gives."""
    layout = as_layout(layout, h.rows)
    if pairs.size != layout.pairs:
        raise ShapeError(f"propagate: {pairs.size} pairwise entries for {layout.pairs}")
    kept = None if keep is None else keep[:, None]

    def product(fn, x):
        if kept is None:
            return layout.map(fn, pairs, x, cols=h.cols, pairwise=1)
        return np.where(kept > 0.0, layout.map(fn, pairs, x * kept, cols=h.cols, pairwise=1), 0.0)

    def bw(g):
        _accum(h, product(lambda p, x: p.swapaxes(-1, -2) @ x, g))

    return _op(product(np.matmul, h.values), (h,), bw)


def gcn_views(x: np.ndarray, columns: list[list[int]], embeds: list[Tensor],
              gcns: list[Tensor], pairs: np.ndarray, layout: Layout | None = None) -> Tensor:
    """relu(P @ (X[:, columns_v] @ E_v) @ G_v) for each view v, side by side:
    a multi-view graph convolution of the constant X as one tape node. `pairs`
    is the propagation matrix as `propagate` takes it. Views with equal column
    counts are stacked, and np.matmul runs each view's and graph's product
    with the BLAS call a separate product would make, so the values (and a
    lone graph's gradients) match those of the per-view chain of ops."""
    width, rows = gcns[0].cols, len(x)
    if any(g.shape != (width, width) or e.cols != width for e, g in zip(embeds, gcns)):
        raise ShapeError("gcn_views: every view needs the same output width")
    layout = as_layout(layout, rows)
    blocks = layout.stacks(pairs, pairwise=True)

    def per_graph(fn, a):
        """fn(P, rows) of each group's propagation matrices and its (views, b,
        n, cols) rows of `a` (views x rows x cols), rows rejoined."""
        parts = [fn(p, a[:, grp.row:grp.row + grp.b * grp.n].reshape(len(a), grp.b, grp.n, -1))
                 .reshape(len(a), grp.b * grp.n, -1) for grp, p in zip(layout.groups, blocks)]
        return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)

    stacked = []  # (views, inputs, embedded, activation) per input width
    for d in dict.fromkeys(len(cols) for cols in columns):
        views = [v for v, cols in enumerate(columns) if len(cols) == d]
        # views x rows x d; each view's rows keep the layout x[:, cols] has
        x3 = x[:, [columns[v] for v in views]].transpose(1, 0, 2)
        embed_w = np.array([embeds[v].values for v in views])[:, None]
        gcn_w = np.array([gcns[v].values for v in views])[:, None]
        embedded = per_graph(lambda p, a: a @ embed_w, x3)
        pre = per_graph(lambda p, a: p @ (a @ gcn_w), embedded)
        stacked.append((views, x3, embedded, np.where(pre > 0.0, pre, 0.0)))
    out = np.empty((rows, len(columns), width))
    for views, _, _, act in stacked:
        out[:, views] = act.transpose(1, 0, 2)
    out = out.reshape(rows, -1)

    def bw(g):
        for views, x3, embedded, act in stacked:
            dpre = np.array([g[:, v * width:(v + 1) * width] for v in views]) * (act > 0.0)
            dm = per_graph(lambda p, a: p.swapaxes(-1, -2) @ a, dpre)
            d_gcn = embedded.swapaxes(-1, -2) @ dm
            d_embedded = dm @ np.array([gcns[v].values for v in views]).swapaxes(-1, -2)
            d_embed = x3.swapaxes(-1, -2) @ d_embedded
            for j, v in enumerate(views):
                _accum(gcns[v], d_gcn[j], fresh=True)
                _accum(embeds[v], d_embed[j], fresh=True)

    return _op(out, tuple(embeds) + tuple(gcns), bw)


def transpose_matmul(a: Tensor, b: Tensor, layout: Layout | None = None) -> Tensor:
    """a_g^T @ b_g for each graph g, stacked: (graphs * a.cols) x b.cols."""
    if a.rows != b.rows:
        raise ShapeError(f"transpose_matmul: {a.shape}^T @ {b.shape}")
    layout = as_layout(layout, a.rows)
    values = layout.map(lambda x, y: x.swapaxes(-1, -2) @ y, a.values, b.values, cols=b.cols)

    def bw(g):
        gs = layout.stacks(g, rows=a.cols)
        if a.requires_grad:
            _accum(a, layout.join([(gg @ y.swapaxes(-1, -2)).swapaxes(-1, -2)
                                   for gg, y in zip(gs, layout.stacks(b.values))], a.cols))
        if b.requires_grad:
            _accum(b, layout.join([x @ gg for x, gg in zip(layout.stacks(a.values), gs)], b.cols))

    return _op(values, (a, b), bw)


def add(a: Tensor, b: Tensor) -> Tensor:
    row_bcast = b.shape == (1, a.cols) and a.rows != 1
    if not row_bcast and a.shape != b.shape:
        raise ShapeError(f"add: {a.shape} + {b.shape}")

    def bw(g):
        _accum(a, g)
        if b.requires_grad:
            _accum(b, g.sum(axis=0, keepdims=True) if row_bcast else g)

    return _op(a.values + b.values, (a, b), bw)


def _total(a: np.ndarray) -> np.ndarray:  # the sum of all entries, 1x1
    return np.add.reduce(a.reshape(1, -1), 1, keepdims=True)


def mul(a: Tensor, b: Tensor, layout: Layout | None = None) -> Tensor:
    """Elementwise product; or, with a layout, each graph's rows of `a` times
    that graph's entry of `b`, a graphs x 1 column; or, without one, all of
    `a` times a 1x1 `b`."""
    if b.shape == a.shape:
        factor, sums = b.values, None
    elif layout is None and b.shape == (1, 1):
        factor, sums = b.values, _total
    else:
        layout = as_layout(layout, a.rows)
        if b.shape != (len(layout.sizes), 1):
            raise ShapeError(f"mul: {a.shape} * {b.shape} on {len(layout.sizes)} graphs")
        factor, sums = layout.spread(b.values[:, 0])[:, None], layout.graph_sums

    def bw(g):
        if a.requires_grad:
            _accum(a, g * factor)
        if b.requires_grad:
            gb = g * a.values
            _accum(b, gb if sums is None else sums(gb).reshape(b.shape))

    return _op(a.values * factor, (a, b), bw)


def mul_const(a: Tensor, c) -> Tensor:
    """Multiply by a constant array (e.g. the pruning mask); c gets no gradient."""
    c = np.asarray(c, dtype=np.float64)
    vals = a.values * c
    if vals.shape != a.shape:
        raise ShapeError(f"mul_const: constant {c.shape} does not broadcast onto {a.shape}")
    return _op(vals, (a,), lambda g: _accum(a, g * c))


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


def tsum(a: Tensor, layout: Layout | None = None) -> Tensor:
    """Each graph's entries summed, a graphs x 1 column; without a layout, all
    entries, 1x1."""
    if layout is None:
        return _op(_total(a.values), (a,), lambda g: _accum(a, np.full(a.shape, g[0, 0]), True))
    layout = as_layout(layout, a.rows)
    return _op(layout.graph_sums(a.values)[:, None], (a,),
               lambda g: _accum(a, layout.spread(g[:, 0], a.cols).reshape(a.shape)))


def softmax_rows(a: Tensor) -> Tensor:
    shifted = a.values - a.values.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=1, keepdims=True)
    return _op(s, (a,), lambda g: _accum(a, (g - (g * s).sum(axis=1, keepdims=True)) * s))


# -- fused ops -------------------------------------------------------------

def gram_sigmoid(z: Tensor, layout: Layout | None = None) -> Tensor:
    """sigmoid(Z Z^T) of each graph, symmetric by construction: the blocks flat
    in one row (a lone graph's n x n). Backward: dG @ Z + (Z^T @ dG)^T with
    dG = g * s * (1 - s).

    The sigmoid is 1 / (1 + exp(-x)) in place, exactly 0 below x = -709. On a
    Z >= 0, such as the encoder's ReLU output, it gives the bits of the
    sign-branching sigmoid; a negative Gram entry may round differently."""
    layout = as_layout(layout, z.rows)
    if layout._lone:
        s = z.values @ z.values.T
    else:  # each group's Grams written into one batch row
        s = np.empty((1, layout.pairs))
        for z3, out in zip(layout.stacks(z.values), layout.stacks(s, pairwise=True)):
            np.matmul(z3, z3.swapaxes(-1, -2), out=out)  # one buffer twice: a symmetric product
    np.negative(s, out=s)
    with np.errstate(over="ignore"):
        np.exp(s, out=s)
    s += 1.0
    np.divide(1.0, s, out=s)

    def bw(g):
        dg = g * s
        dg *= 1.0 - s
        _accum(z, layout.map(lambda d3, z3: d3 @ z3 + (z3.swapaxes(-1, -2) @ d3).swapaxes(-1, -2),
                             dg, z.values, cols=z.cols, pairwise=1))

    return _op(s, (z,), bw)


def clipped_bce(p: Tensor, target, eps: float, layout: Layout | None = None) -> Tensor:
    """Mean binary cross-entropy of probabilities p against a 0/1 target T, as
    `Graph` guarantees its adjacency: -sum(log(q)) / size, one row per graph,
    with q = c where T is 1 and 1 - c where T is 0, c = clip(p, eps, 1 - eps);
    the bits of -sum(log(c) T + log(1 - c) (1 - T)) / size. p and T hold each
    graph's n x n block flat; without a layout they are one graph's entries,
    in any shape. No gradient reaches p where the clip is active.

    Only p and T are kept: the backward recomputes the signed q and the clip
    mask from them in place. The elementwise passes run over the whole batch;
    only each graph's sum and its scale -1 / (entries per graph) run per size
    group, over the group's (graphs, entries per graph) rows."""
    target = np.asarray(target, dtype=np.float64)
    if target.size != p.values.size:
        raise ShapeError(f"clipped_bce: target {target.shape} != probabilities {p.shape}")
    layout = layout or layout_of((p.rows,))

    def signed_q():  # c + (T - 1): q where T is 1 and -q where T is 0, rounded as 1 - c is
        q = np.clip(p.values, eps, 1.0 - eps)
        q += target.reshape(q.shape) - 1.0
        return q

    log_q = signed_q()
    np.abs(log_q, out=log_q)
    np.log(log_q, out=log_q)
    totals = [q.sum(axis=1) * (-1.0 / q.shape[1]) for q in layout.blocks(log_q, pairwise=True)]

    def bw(g):
        grad = np.empty(p.shape)
        for grp, out in zip(layout.groups, layout.blocks(grad, pairwise=True)):
            np.multiply(g[grp.graph:grp.graph + grp.b], -1.0 / out.shape[1], out=out)  # g * s
        np.divide(grad, signed_q(), out=grad)  # d log(q) / dp is 1 / q, negated where T is 0
        grad *= (p.values > eps) & (p.values < 1.0 - eps)
        _accum(p, grad, fresh=True)

    return _op(layout.join(totals)[:, None], (p,), bw)


def mse(x: Tensor, target, layout: Layout | None = None) -> Tensor:
    """Mean squared error sum((target - x)^2) / size over each graph's rows,
    one row per graph."""
    target = np.asarray(target, dtype=np.float64)
    if target.shape != x.shape:
        raise ShapeError(f"mse: target {target.shape} != input {x.shape}")
    layout = as_layout(layout, x.rows)
    s = 1.0 / (layout.sizes * x.cols)
    diff = x.values * -1.0 + target

    def bw(g):
        gd = layout.spread(g[:, 0] * s, x.cols).reshape(x.shape) * diff
        _accum(x, (gd + gd) * -1.0)

    return _op((layout.graph_sums(diff * diff) * s)[:, None], (x,), bw)


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Stable -log softmax(logits)[label] of each row (logsumexp), one row per
    graph; `labels` holds one class per row, or is one int for a single row."""
    labels = np.asarray(labels, dtype=np.intp).reshape(-1)
    if labels.size != logits.rows:
        raise ShapeError(f"cross_entropy: {labels.size} labels for {logits.rows} rows")
    rows = np.arange(logits.rows)
    z = logits.values - logits.values.max(axis=1, keepdims=True)  # softmax is shift-invariant
    e = np.exp(z)
    total = e.sum(axis=1, keepdims=True)

    def bw(g):
        gz = (g / total) * e
        gz[rows, labels] += g[:, 0] * -1.0
        _accum(logits, gz)

    return _op(np.log(total) + z[rows, labels][:, None] * -1.0, (logits,), bw)


def backward(loss: Tensor):
    """Accumulate d(loss)/d(t) into .grad for every leaf t the loss depends on.
    An op output's gradient is dropped once passed on to its operands, so a
    batch's n x n gradients do not outlive their use."""
    if loss.shape != (1, 1):
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    order = _toposort(loss)
    loss.grad = np.ones((1, 1))
    for t in reversed(order):
        if t._backward is not None and t.grad is not None:
            t._backward(t.grad)
            t.grad = None


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
