"""Independent reference implementations used to pin expected values.

Everything here is deliberately naive (loops, enumeration, finite
differences) and shares no code with the library paths it checks. The one
exception is `forward_ref`, the slower forward that the fast one replaced,
kept as the reference the fast path must match bit for bit.
"""

import itertools
from collections import deque

import numpy as np

from mvprune import pooling, prune, tensor as T


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


def random_graph(rng, n, p=0.4, d=4):
    adj = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                adj[i, j] = adj[j, i] = 1.0
    feats = rng.normal(size=(n, d))
    return adj, feats


# -- the forward before one propagation matrix per call --------------------
#
# Built from the tape primitives and the library helpers that the fast path
# left unchanged: each view normalizes an explicit A + I, the backends
# normalize inside every GCN call, the sigmoid takes three exps, and the
# reconstruction losses are built inside the forward.

def normalize_adjacency_ref(adjacency):
    """D^-1/2 (A + I) D^-1/2 scaled from an explicit A + I."""
    a_loop = adjacency + np.eye(adjacency.shape[0])
    inv_sqrt = 1.0 / np.sqrt(a_loop.sum(axis=1))
    return inv_sqrt[:, None] * a_loop * inv_sqrt[None, :]


def _sigmoid_ref(a):
    x = a.values
    s = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                 np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
    out = T.Tensor(s, _parents=(a,))
    out._backward = lambda g: T._accum(a, g * s * (1.0 - s))
    return out


def _gcn_ref(h, weight, adjacency, activation=T.relu):
    prop = T.matmul(T.Tensor(normalize_adjacency_ref(adjacency)), T.matmul(h, weight))
    return activation(prop) if activation is not None else prop


def _backend_ref(backend, x, a, indicator):
    """(h_G, l_pool) of `PoolBackend.forward`, normalizing inside each GCN call."""
    params = backend.params
    if backend.kind == "gcn-sum":
        return pooling.masked_sum_readout(_gcn_ref(x, params["w"], a), indicator), None
    if backend.kind == "attention-topk":
        score = _gcn_ref(x, params["score_w"], a, activation=None)
        sel = pooling.select_topk(score.values[:, 0], backend.keep_ratio, indicator)
        gate = T.matmul(T.tanh(score), T.Tensor(np.ones((1, x.cols))))
        return pooling.masked_mean_readout(T.mul_const(T.mul(x, gate), sel[:, None]), sel), None
    if backend.kind == "mincut":
        h = _gcn_ref(x, params["gcn_w"], a)
        x_coarse, l_pool = pooling.mincut_pool(h, a, params["assign_w"], params["assign_b"])
        k = params["assign_w"].cols
        return T.matmul(T.Tensor(np.full((1, k), 1.0 / k)), x_coarse), l_pool
    h_g, l_pool, _ = backend.forward(x, a, indicator)  # no propagation matrix
    return h_g, l_pool


def forward_ref(model, graph):
    """MVP forward and training loss the slow way: (logits, scores, indicator, loss)."""
    cfg = model.config
    x_std = model.scaler.transform(graph.features)
    x_t = T.Tensor(x_std)
    views = zip(model.partition.columns_per_view, model.encoder.embed_weights,
                model.encoder.gcn_weights)
    z = T.concat_cols([_gcn_ref(T.matmul(T.slice_cols(x_t, cols), w_embed), w_gcn,
                                graph.adjacency) for cols, w_embed, w_gcn in views])
    a_hat = _sigmoid_ref(T.matmul(z, T.transpose(z)))
    x_hat = T.relu(T.add(T.matmul(z, model.recon.weight), model.recon.bias))
    la, lx, _ = prune.recon_losses(graph.adjacency, x_std, a_hat, x_hat)
    scores = prune.node_scores(graph.adjacency, x_std, a_hat.values, x_hat.values, cfg.lam)
    indicator, _, _ = prune.build_indicator(scores, cfg.threshold_c)
    x_in, a_in = prune.apply_mask(x_std, graph.adjacency, indicator)
    h_g, l_pool = _backend_ref(model.backend, T.Tensor(x_in), a_in, indicator)
    logits = pooling.classify(h_g, model.classifier)
    loss = T.add(T.add(T.cross_entropy(logits, graph.label), la), lx)
    if l_pool is not None:
        loss = T.add(loss, l_pool)
    return logits, scores, indicator, loss
