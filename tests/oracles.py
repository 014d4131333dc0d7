"""Independent reference implementations used to pin expected values.

Everything here is deliberately naive (loops, enumeration, finite
differences) and shares no code with the library paths it checks, with
three exceptions. `mincut_loss_ref` is MinCut's loss through an explicit
A' = A m m^T, as it was before `T.propagate` took the keep mask m; the
library's loss must match its values and gradients byte for byte.
`forward_ref` is the slower forward that the fast one replaced,
kept as the reference the fast path must match bit for bit (MinCut's loss and
gradients to 1e-10), together with the unfused tape forms of the fused ops
(`gram_sigmoid_ref`, `recon_losses_ref`, `cross_entropy_ref`). Its products
are plain 2-D ones (`matmul_ref`), not the library's per-graph stacks. The
third is `load_tu_ref`, the line-by-line TU loader that the one-parse-per-file
`graphio.load_tu` replaced: it must give the same Dataset, and the same
exception and message for every malformed corpus, except that a non-integer
id or label raises a bare ValueError here and a FormatError there.
"""

import itertools
import os
from collections import deque

import numpy as np

from mvprune import pooling, prune, tensor as T
from mvprune.errors import FormatError, LoadError
from mvprune.graphio import Dataset, Graph


def finite_diff(f, params, step=1e-5):
    """Central-difference gradient of scalar f() w.r.t. each tensor in params.

    `f` must recompute the loss from the tensors' current values.
    """
    grads = []
    for p in params:
        g = np.zeros(p.shape)
        it = np.nditer(p.values, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = p.values[idx]
            p.values[idx] = orig + step
            hi = f()
            p.values[idx] = orig - step
            lo = f()
            p.values[idx] = orig
            g[idx] = (hi - lo) / (2 * step)
        grads.append(g)
    return grads


def rel_err(a, b):
    denom = max(np.abs(a).max(), np.abs(b).max(), 1e-12)
    return np.abs(a - b).max() / denom


def bce_loss_loop(adjacency, a_hat, eps=1e-7):
    """Scalar double loop over the full n x n grid, diagonal included."""
    n = adjacency.shape[0]
    total = 0.0
    for i in range(n):
        for j in range(n):
            p = min(max(a_hat[i, j], eps), 1 - eps)
            total -= adjacency[i, j] * np.log(p) + (1 - adjacency[i, j]) * np.log(1 - p)
    return total / (n * n)


def feature_loss_loop(features, x_hat):
    n, d = features.shape
    total = 0.0
    for i in range(n):
        for j in range(d):
            total += (features[i, j] - x_hat[i, j]) ** 2
    return total / (n * d)


def node_scores_loop(adjacency, features, a_hat, x_hat, lam):
    n = adjacency.shape[0]
    out = np.zeros(n)
    for i in range(n):
        sa = sum((adjacency[i, j] - a_hat[i, j]) ** 2 for j in range(n))
        sx = sum((features[i, j] - x_hat[i, j]) ** 2 for j in range(features.shape[1]))
        out[i] = lam * sa + (1 - lam) * sx
    return out


def indicator_loop(scores, c):
    mu = sum(scores) / len(scores)
    sigma = (sum((s - mu) ** 2 for s in scores) / len(scores)) ** 0.5
    sig = lambda x: 1.0 / (1.0 + np.exp(-x))
    return np.array([1.0 if sig(-s + mu + c * sigma) >= 0.5 else 0.0 for s in scores])


def mask_loop(features, adjacency, indicator):
    n, d = features.shape
    xp = np.zeros_like(features)
    ap = np.zeros_like(adjacency)
    for i in range(n):
        for j in range(d):
            xp[i, j] = features[i, j] * indicator[i]
    for i in range(n):
        for j in range(n):
            ap[i, j] = adjacency[i, j] * indicator[i] * indicator[j]
    return xp, ap


def betweenness_enum(adjacency):
    """Brute force: enumerate all shortest paths per pair with BFS layers.

    Unordered pairs; each intermediate node v gets sigma_st(v)/sigma_st.
    """
    n = adjacency.shape[0]
    neighbors = [list(np.nonzero(adjacency[i])[0]) for i in range(n)]

    def all_shortest_paths(s, t):
        dist = {s: 0}
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for w in neighbors[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    queue.append(w)
        if t not in dist:
            return []
        paths = []

        def extend(path):
            v = path[-1]
            if v == t:
                paths.append(list(path))
                return
            for w in neighbors[v]:
                if dist.get(w) == dist[v] + 1 and dist[w] <= dist[t]:
                    path.append(w)
                    extend(path)
                    path.pop()

        extend([s])
        return paths

    cb = np.zeros(n)
    for s, t in itertools.combinations(range(n), 2):
        paths = all_shortest_paths(s, t)
        if not paths:
            continue
        for v in range(n):
            if v in (s, t):
                continue
            through = sum(1 for p in paths if v in p)
            cb[v] += through / len(paths)
    return cb


def harmonic_mean_loop(values, eps=1e-9):
    values = list(values)
    if not values:
        return 0.0
    return len(values) / sum(1.0 / (v + eps) for v in values)


def mincut_losses_loop(adjacency, s):
    """Cut and orthogonality terms from explicit loops over entries."""
    n, k = s.shape
    deg = adjacency.sum(axis=1)
    num = sum(s[i, c] * adjacency[i, j] * s[j, c]
              for i in range(n) for j in range(n) for c in range(k))
    den = sum(s[i, c] * deg[i] * s[i, c] for i in range(n) for c in range(k))
    cut = -num / den if den > 0 else 0.0
    ss = np.zeros((k, k))
    for a in range(k):
        for b in range(k):
            ss[a, b] = sum(s[i, a] * s[i, b] for i in range(n))
    fro = np.sqrt((ss ** 2).sum())
    resid = ss / fro - np.eye(k) / np.sqrt(k)
    ortho = np.sqrt((resid ** 2).sum())
    return cut + ortho


def mincut_loss_ref(s, adjacency, layout=None, keep=None):
    """`pooling.mincut_loss` as it was before its masked propagation: with a
    `keep` mask m that drops a node it builds A' = A m m^T per size group, and
    takes A' S with `T.propagate` and the degrees as A''s row sums."""
    k = s.cols
    layout = T.as_layout(layout, len(s.values))
    if keep is not None and not keep.all():
        adjacency = layout.map(lambda a, m: a * m[..., :, None] * m[..., None, :],
                               adjacency, keep, pairwise=1)
    a_s = T.propagate(adjacency, s, layout)
    deg = layout.map(lambda a: a.sum(axis=-1), adjacency, pairwise=1)
    edges = (layout.graph_sums(deg) > 0).astype(np.float64)[:, None]
    num = T.tsum(T.mul(s, a_s), layout)
    den = T.tsum(T.mul_const(T.mul(s, s), deg[:, None]), layout)
    ratio = T.mul(num, T.reciprocal(T.add(den, T.Tensor(1.0 - edges))))
    cut = T.mul_const(ratio, -1.0)
    clusters = T.layout_of((k,) * len(layout.sizes))
    ss = T.transpose_matmul(s, s, layout)
    fro = T.sqrt(T.tsum(T.mul(ss, ss), clusters))
    normed = T.mul(ss, T.reciprocal(fro), clusters)
    resid = T.add(normed, T.Tensor(np.tile(-np.eye(k) / np.sqrt(k), (ss.rows // k, 1))))
    ortho = T.sqrt(T.tsum(T.mul(resid, resid), clusters))
    return T.add(cut, ortho)


def random_graph(rng, n, p=0.4, d=4):
    adj = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                adj[i, j] = adj[j, i] = 1.0
    feats = rng.normal(size=(n, d))
    return adj, feats


# -- the forward before one propagation matrix per call and the fused ops --
#
# Built from the tape primitives and the library helpers that the fast path
# left unchanged: each view is its own chain of slice, products and ReLU,
# joined by a concatenation, and normalizes an explicit A + I; the backends
# normalize inside every GCN call, the sigmoid takes three exps, and the
# reconstruction losses and the cross-entropy are chains of one-step tape ops
# (transpose, slice, concatenation, clip, log, exp, sigmoid below), built
# inside the forward. The readouts, MinCut (softmax, S^T h, cut and
# orthogonality terms) and the classifier are built here too, from primitive
# ops; only scoring, thresholding, masking and `select_topk` come from the
# library. It runs one graph at a time.

def normalize_adjacency_ref(adjacency):
    """D^-1/2 (A + I) D^-1/2 scaled from an explicit A + I."""
    a_loop = adjacency + np.eye(adjacency.shape[0])
    inv_sqrt = 1.0 / np.sqrt(a_loop.sum(axis=1))
    return inv_sqrt[:, None] * a_loop * inv_sqrt[None, :]


def matmul_ref(a, b):
    """a @ b as one plain 2-D product: the lone-graph product the layout ops
    must match, kept apart from the stacked code they run."""
    def bw(g):
        T._accum(a, g @ b.values.T)
        T._accum(b, a.values.T @ g)

    return T._op(a.values @ b.values, (a, b), bw)


def scalar_mul_ref(a, s):
    """a times the 1x1 s, a plain numpy broadcast; s's gradient one plain sum."""
    def bw(g):
        T._accum(a, g * s.values)
        T._accum(s, (g * a.values).sum().reshape(1, 1))

    return T._op(a.values * s.values, (a, s), bw)


def _sigmoid_ref(a):
    x = a.values
    s = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                 np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
    return T._op(s, (a,), lambda g: T._accum(a, g * s * (1.0 - s)))


def _log_ref(a):
    return T._op(np.log(a.values), (a,), lambda g: T._accum(a, g / a.values))


def _exp_ref(a):
    e = np.exp(a.values)
    return T._op(e, (a,), lambda g: T._accum(a, g * e))


def _add_const_ref(a, c):
    return T._op(a.values + c, (a,), lambda g: T._accum(a, g))


def _clip_ref(a, lo, hi):
    """Clamp values; gradient flows only strictly inside (lo, hi)."""
    inside = (a.values > lo) & (a.values < hi)
    return T._op(np.clip(a.values, lo, hi), (a,), lambda g: T._accum(a, g * inside))


def transpose_ref(a):
    return T._op(a.values.T, (a,), lambda g: T._accum(a, g.T))


def _slice_cols_ref(a, idx):
    def bw(g):
        full = np.zeros(a.shape)
        full[:, idx] += g
        T._accum(a, full)

    return T._op(a.values[:, idx], (a,), bw)


def _concat_cols_ref(parts):
    widths = np.cumsum([0] + [p.cols for p in parts])

    def bw(g):
        for p, lo, hi in zip(parts, widths[:-1], widths[1:]):
            T._accum(p, g[:, lo:hi])

    return T._op(np.concatenate([p.values for p in parts], axis=1), tuple(parts), bw)


def gram_sigmoid_ref(z):
    return _sigmoid_ref(matmul_ref(z, transpose_ref(z)))


def recon_losses_ref(adjacency, features, a_hat, x_hat):
    """(La, Lx, Lr) of `prune.recon_losses` as chains of one-step tape ops."""
    n, d = features.shape
    a_c = _clip_ref(a_hat, prune.LOG_EPS, 1.0 - prune.LOG_EPS)
    pos = T.mul_const(_log_ref(a_c), adjacency)
    neg = T.mul_const(_log_ref(_add_const_ref(T.mul_const(a_c, -1.0), 1.0)), 1.0 - adjacency)
    la = T.mul_const(T.tsum(T.add(pos, neg)), -1.0 / (n * n))
    diff = _add_const_ref(T.mul_const(x_hat, -1.0), features)
    lx = T.mul_const(T.tsum(T.mul(diff, diff)), 1.0 / (n * d))
    return la, lx, T.add(la, lx)


def cross_entropy_ref(logits, label):
    """`T.cross_entropy` as a chain of one-step tape ops."""
    shift = float(logits.values.max())  # constant shift; softmax is invariant
    z = _add_const_ref(logits, -shift)
    lse = _log_ref(T.tsum(_exp_ref(z)))
    picked = _slice_cols_ref(z, [label])
    return T.add(lse, T.mul_const(picked, -1.0))


def _gcn_ref(h, weight, adjacency, activation=T.relu):
    prop = matmul_ref(T.Tensor(normalize_adjacency_ref(adjacency)), matmul_ref(h, weight))
    return activation(prop) if activation is not None else prop


def gcn_views_ref(x, columns, embeds, gcns, adjacency):
    """`tensor.gcn_views` as one chain per view (slice, products, propagation
    of an explicit A + I, ReLU), joined by a concatenation."""
    x_t = T.Tensor(x)
    return _concat_cols_ref([_gcn_ref(matmul_ref(_slice_cols_ref(x_t, cols), w_embed), w_gcn,
                                      adjacency) for cols, w_embed, w_gcn in
                             zip(columns, embeds, gcns)])


def _row_sums_ref(a):
    return T._op(a.values.sum(axis=1, keepdims=True), (a,),
                 lambda g: T._accum(a, np.repeat(g, a.cols, axis=1)))


def _div_rows_ref(a, r):
    """Each row of a divided by that row's entry of the column r."""
    def bw(g):
        T._accum(a, g / r.values)
        T._accum(r, -(g * a.values / (r.values * r.values)).sum(axis=1, keepdims=True))

    return T._op(a.values / r.values, (a, r), bw)


def _softmax_ref(a):
    e = _exp_ref(_add_const_ref(a, -a.values.max(axis=1, keepdims=True)))
    return _div_rows_ref(e, _row_sums_ref(e))


def _mean_readout_ref(x, indicator):
    return matmul_ref(T.Tensor((indicator / indicator.sum())[None, :]), x)


def _sum_readout_ref(x, indicator):
    return matmul_ref(T.Tensor(indicator[None, :]), x)


def _mincut_ref(h, adjacency, assign_w, assign_b):
    """(S^T h, cut + orthogonality loss) of one graph; no cut term without edges."""
    k = assign_w.cols
    s = _softmax_ref(T.add(matmul_ref(h, assign_w), assign_b))
    x_coarse = matmul_ref(transpose_ref(s), h)
    ss = matmul_ref(transpose_ref(s), s)
    resid = _add_const_ref(T.mul(ss, T.reciprocal(T.sqrt(T.tsum(T.mul(ss, ss))))),
                           -np.eye(k) / np.sqrt(k))
    loss = T.sqrt(T.tsum(T.mul(resid, resid)))
    deg = adjacency.sum(axis=1)
    if deg.sum() > 0:
        num = T.tsum(T.mul(s, matmul_ref(T.Tensor(adjacency), s)))
        den = T.tsum(T.mul_const(T.mul(s, s), deg[:, None]))
        loss = T.add(T.mul_const(T.mul(num, T.reciprocal(den)), -1.0), loss)
    return x_coarse, loss


def _backend_ref(backend, x, a, indicator):
    """(h_G, l_pool or None) of `PoolBackend.forward` followed by its MinCut
    loss, normalizing inside each GCN call."""
    params = backend.params
    if backend.kind == "mean":
        return _mean_readout_ref(x, indicator), None
    if backend.kind == "sum":
        return _sum_readout_ref(x, indicator), None
    if backend.kind == "gcn-sum":
        return _sum_readout_ref(_gcn_ref(x, params["w"], a), indicator), None
    if backend.kind in ("attention-topk", "feature-topk"):
        if backend.kind == "attention-topk":
            score = _gcn_ref(x, params["score_w"], a, activation=None)
        else:
            proj = params["proj"]
            score = T.mul(matmul_ref(x, proj), T.reciprocal(T.sqrt(T.tsum(T.mul(proj, proj)))))
        sel = pooling.select_topk(score.values[:, 0], backend.keep_ratio, indicator)
        gate = matmul_ref(T.tanh(score), T.Tensor(np.ones((1, x.cols))))
        return _mean_readout_ref(T.mul_const(T.mul(x, gate), sel[:, None]), sel), None
    h = _gcn_ref(x, params["gcn_w"], a)
    x_coarse, l_pool = _mincut_ref(h, a, params["assign_w"], params["assign_b"])
    k = params["assign_w"].cols
    return matmul_ref(T.Tensor(np.full((1, k), 1.0 / k)), x_coarse), l_pool


def _classify_ref(h_g, head):
    hidden = T.relu(T.add(matmul_ref(h_g, head.w1), head.b1))
    return T.add(matmul_ref(hidden, head.w2), head.b2)


def forward_ref(model, graph):
    """MVP forward and training loss the slow way: (logits, scores, indicator, loss)."""
    cfg = model.config
    x_std = model.scaler.transform(graph.features)
    z = gcn_views_ref(x_std, model.partition.columns_per_view, model.encoder.embed_weights,
                      model.encoder.gcn_weights, graph.adjacency)
    a_hat = gram_sigmoid_ref(z)
    x_hat = T.relu(T.add(matmul_ref(z, model.recon.weight), model.recon.bias))
    la, lx, _ = recon_losses_ref(graph.adjacency, x_std, a_hat, x_hat)
    scores = prune.node_scores(graph.adjacency, x_std, a_hat.values, x_hat.values, cfg.lam)
    indicator, _, _ = prune.build_indicator(scores, cfg.threshold_c)
    x_in, a_in = prune.apply_mask(x_std, graph.adjacency, indicator)
    h_g, l_pool = _backend_ref(model.backend, T.Tensor(x_in), a_in, indicator)
    logits = _classify_ref(h_g, model.classifier)
    loss = T.add(T.add(cross_entropy_ref(logits, graph.label), la), lx)
    if l_pool is not None:
        loss = T.add(loss, l_pool)
    return logits, scores, indicator, loss


def _read_lines_ref(path):
    """The stripped non-empty lines of a file that must exist, read lazily."""
    if not os.path.isfile(path):
        raise LoadError(f"missing dataset file: {path}")

    def lines():
        with open(path) as fh:
            for ln in fh:
                ln = ln.strip()
                if ln:
                    yield ln

    return lines()


def load_tu_ref(directory, name):
    """The TU directory parsed one line at a time, with one check per line."""
    pre = os.path.join(directory, name)
    indicator = [int(v) for v in _read_lines_ref(pre + "_graph_indicator.txt")]
    graph_labels_raw = [int(v) for v in _read_lines_ref(pre + "_graph_labels.txt")]
    edge_lines = _read_lines_ref(pre + "_A.txt")

    node_label_path = pre + "_node_labels.txt"
    node_attr_path = pre + "_node_attributes.txt"
    has_labels = os.path.isfile(node_label_path)
    has_attrs = os.path.isfile(node_attr_path)
    if not has_labels and not has_attrs:
        raise LoadError(f"missing dataset file: {node_label_path} (or _node_attributes.txt)")

    n_total = len(indicator)
    n_graphs = len(graph_labels_raw)
    if n_graphs == 0:
        raise FormatError(f"{name}_graph_labels.txt lists no graphs")

    # global -> (graph id, local index)
    local = np.zeros(n_total, dtype=np.int64)
    counts = np.zeros(n_graphs + 1, dtype=np.int64)
    for i, gid in enumerate(indicator):
        if not 1 <= gid <= n_graphs:
            raise FormatError(f"graph_indicator line {i + 1}: graph id {gid} out of range")
        local[i] = counts[gid]
        counts[gid] += 1
    for gid in range(1, n_graphs + 1):
        if counts[gid] == 0:
            raise FormatError(f"graph {gid} has no nodes in {name}_graph_indicator.txt")

    adjacencies = [np.zeros((int(n), int(n))) for n in counts[1:]]
    for lineno, ln in enumerate(edge_lines, start=1):
        try:
            u_s, v_s = ln.split(",")
            u, v = int(u_s), int(v_s)
        except ValueError as exc:
            raise FormatError(f"{name}_A.txt line {lineno}: cannot parse edge '{ln}'") from exc
        if not (1 <= u <= n_total and 1 <= v <= n_total):
            raise FormatError(f"{name}_A.txt line {lineno}: node id out of range")
        gu, gv = indicator[u - 1], indicator[v - 1]
        if gu != gv:
            raise FormatError(
                f"{name}_A.txt line {lineno}: edge ({u},{v}) crosses graphs {gu} and {gv}")
        if u == v:
            continue
        a, b = local[u - 1], local[v - 1]
        adjacencies[gu - 1][a, b] = adjacencies[gu - 1][b, a] = 1.0

    blocks = []
    if has_labels:
        raw = [int(v) for v in _read_lines_ref(node_label_path)]
        if len(raw) != n_total:
            raise FormatError(f"{name}_node_labels.txt: {len(raw)} lines for {n_total} nodes")
        values = sorted(set(raw))
        lookup = {v: i for i, v in enumerate(values)}
        onehot = np.zeros((n_total, len(values)))
        onehot[np.arange(n_total), [lookup[v] for v in raw]] = 1.0
        blocks.append(onehot)
    if has_attrs:
        attrs, lines = None, 0
        for lines, ln in enumerate(_read_lines_ref(node_attr_path), start=1):
            try:
                row = [float(v) for v in ln.split(",")]
            except ValueError as exc:
                raise FormatError(f"{name}_node_attributes.txt line {lines}: bad value") from exc
            if attrs is None:
                attrs = np.empty((n_total, len(row)))
            if len(row) != attrs.shape[1]:
                raise FormatError(f"{name}_node_attributes.txt line {lines}: {len(row)} values, "
                                  f"expected {attrs.shape[1]}")
            if lines <= n_total:
                attrs[lines - 1] = row
        if lines != n_total:
            raise FormatError(f"{name}_node_attributes.txt: {lines} lines for {n_total} nodes")
        blocks.append(attrs)
    features_all = np.concatenate(blocks, axis=1)

    label_values = sorted(set(graph_labels_raw))
    label_map = {v: i for i, v in enumerate(label_values)}

    graphs = []
    node_rows = [[] for _ in range(n_graphs)]
    for i, gid in enumerate(indicator):
        node_rows[gid - 1].append(i)
    for gi in range(n_graphs):
        feats = features_all[node_rows[gi], :]
        graphs.append(Graph(adjacencies[gi], feats, label_map[graph_labels_raw[gi]]))

    return Dataset(graphs, features_all.shape[1], len(label_values), name)
