import gc
import json

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

from mvprune import multiview as mv, train as tr, tensor as T
from mvprune.errors import ConfigError, ContractError
from mvprune.graphio import Dataset, Graph, split, synth_planted_anomalies
from mvprune.pooling import BACKEND_KINDS

from oracles import finite_diff, forward_ref, random_graph, rel_err


SMALL = dict(epochs=2, pretrain_epochs=1, views=4, latent_width=8,
             batch_size=8, seeds=(0,), classifier_hidden=8)


@pytest.fixture(scope="module")
def corpus():
    ds, _ = synth_planted_anomalies(24, 10, 0.1, seed=0)
    return ds


def test_config_rejects_unknown_key():
    with pytest.raises(ConfigError, match="bogus"):
        tr.TrainConfig.from_dict({"bogus": 1})


def test_config_roundtrip():
    cfg = tr.TrainConfig.from_dict(dict(SMALL))
    assert tr.TrainConfig.from_dict(cfg.to_dict()) == cfg


def test_config_removed_keys_load_only_at_former_defaults():
    # run manifests written before these keys were removed carry them
    former = {"backend_hidden": 32, "aux_loss_weight": 1.0, "use_pool_loss": True,
              "standardize_features": True, "adam_beta1": 0.9, "adam_beta2": 0.999,
              "adam_eps": 1e-8}
    cfg = tr.TrainConfig.from_dict(dict(SMALL, **former))
    assert cfg == tr.TrainConfig.from_dict(dict(SMALL))
    assert not set(former) & set(cfg.to_dict())
    other = {"backend_hidden": 16, "aux_loss_weight": 0.5, "use_pool_loss": False,
             "standardize_features": False, "adam_beta1": 0.8, "adam_beta2": 0.99,
             "adam_eps": 1e-6}
    for key, value in other.items():
        with pytest.raises(ConfigError, match=f"'{key}' was removed"):
            tr.TrainConfig.from_dict(dict(SMALL, **{key: value}))


@settings(max_examples=100, deadline=None)
@given(cfg=st.builds(
    tr.TrainConfig,
    epochs=st.integers(0, 500), pretrain_epochs=st.integers(0, 100),
    learning_rate=st.floats(1e-6, 1.0), batch_size=st.integers(1, 256),
    seeds=st.lists(st.integers(0, 2**31 - 1), min_size=1, max_size=10).map(tuple),
    lam=st.floats(0.0, 1.0), threshold_c=st.floats(1e-3, 10.0),
    views=st.integers(1, 16), overlap_ratio=st.none() | st.floats(0.0, 0.99),
    latent_width=st.integers(1, 128), backend=st.sampled_from(BACKEND_KINDS),
    keep_ratio=st.floats(1e-3, 1.0), clusters=st.none() | st.integers(2, 64),
    classifier_hidden=st.integers(1, 64), use_mvp=st.booleans(),
    use_recon_loss=st.booleans()))
def test_config_dict_roundtrip_property(cfg):
    # through JSON, as a run manifest stores it
    assert tr.TrainConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg


def test_config_validation():
    with pytest.raises(ConfigError):
        tr.TrainConfig(learning_rate=0.0)
    with pytest.raises(ConfigError):
        tr.TrainConfig(seeds=())
    with pytest.raises(ConfigError):
        tr.TrainConfig(lam=2.0)
    for bad in (dict(threshold_c=0.0), dict(threshold_c=-1.0), dict(threshold_c=float("nan")),
                dict(views=0), dict(latent_width=0), dict(epochs=-1),
                dict(pretrain_epochs=-1), dict(keep_ratio=0.0), dict(keep_ratio=1.5),
                dict(backend="magic")):
        with pytest.raises(ConfigError):
            tr.TrainConfig(**bad)
    tr.TrainConfig(keep_ratio=1.0, epochs=0, pretrain_epochs=0, views=1, latent_width=1)


def test_adam_decreases_quadratic():
    w = T.param(np.full((2, 2), 5.0))
    opt = tr.Adam([w], lr=0.1)
    for _ in range(200):
        opt.zero_grad()
        T.backward(T.scale(T.tsum(T.mul(w, w)), 0.5))
        opt.step()
    assert np.abs(w.values).max() < 0.5


def test_adam_matches_manual_first_step():
    w = T.param([[1.0]])
    opt = tr.Adam([w], lr=0.01)
    opt.zero_grad()
    T.backward(T.scale(T.tsum(T.mul(w, w)), 0.5))  # grad = w = 1
    opt.step()
    # bias-corrected first step moves by lr * g / (|g| + eps)
    assert w.values[0, 0] == pytest.approx(1.0 - 0.01, rel=1e-6)


def test_forward_shapes_and_indicator(corpus):
    cfg = tr.TrainConfig.from_dict(dict(SMALL))
    sp = split(corpus, 0)
    model = tr.build_model(cfg, corpus, sp, seed=0)
    g = corpus.graphs[0]
    res = tr.forward_graph(model, g)
    assert res.logits.shape == (1, corpus.num_classes)
    assert res.indicator.shape == (g.n,)
    assert set(np.unique(res.indicator)) <= {0.0, 1.0}
    assert res.scores is not None and res.scores.shape == (g.n,)


def test_forward_without_mvp_keeps_everything(corpus):
    cfg = tr.TrainConfig.from_dict(dict(SMALL, use_mvp=False))
    sp = split(corpus, 0)
    model = tr.build_model(cfg, corpus, sp, seed=0)
    res = tr.forward_graph(model, corpus.graphs[0])
    assert res.indicator.sum() == corpus.graphs[0].n
    assert res.scores is None


def test_combined_loss_is_sum_of_parts(corpus):
    cfg = tr.TrainConfig.from_dict(dict(SMALL, backend="mincut", clusters=3))
    sp = split(corpus, 0)
    model = tr.build_model(cfg, corpus, sp, seed=0)
    res = tr.forward_graph(model, corpus.graphs[0])
    loss, parts = tr.combined_loss(res, corpus.graphs[0].label)
    assert loss.item() == pytest.approx(sum(parts.values()), rel=1e-12)
    assert parts["la"] > 0 and parts["pool"] != 0


def test_loss_toggles_drop_terms(corpus):
    cfg = tr.TrainConfig.from_dict(dict(SMALL, backend="mincut", clusters=3))
    sp = split(corpus, 0)
    model = tr.build_model(cfg, corpus, sp, seed=0)
    res = tr.forward_graph(model, corpus.graphs[0])
    full, _ = tr.combined_loss(res, 0, use_recon=True)
    no_recon, parts = tr.combined_loss(res, 0, use_recon=False)
    assert parts["la"] == 0.0 and parts["lx"] == 0.0
    assert full.item() > no_recon.item()  # both recon terms are positive here
    assert no_recon.item() == pytest.approx(parts["ce"] + parts["pool"], rel=1e-12)


def test_uniform_classifier_gives_log_c(corpus):
    cfg = tr.TrainConfig.from_dict(dict(SMALL, use_mvp=False))
    sp = split(corpus, 0)
    model = tr.build_model(cfg, corpus, sp, seed=0)
    for p in model.classifier.parameters():
        p.values[:] = 0.0
    res = tr.forward_graph(model, corpus.graphs[0])
    loss, _ = tr.combined_loss(res, 0)
    assert loss.item() == pytest.approx(np.log(corpus.num_classes), abs=1e-12)


def test_combined_gradient_vs_finite_differences(corpus):
    cfg = tr.TrainConfig.from_dict(dict(SMALL))
    sp = split(corpus, 0)
    model = tr.build_model(cfg, corpus, sp, seed=0)
    g = corpus.graphs[2]

    def f():
        res = tr.forward_graph(model, g)
        return tr.combined_loss(res, g.label)[0]

    params = model.named_parameters()
    loss = f()
    T.backward(loss)
    names = ["view0.embed", "recon.w", "clf.w2"]
    fd = finite_diff(lambda: f().item(), [params[n] for n in names])
    for name, want in zip(names, fd):
        assert rel_err(params[name].grad, want) < 1e-4, name


def test_state_dict_roundtrip(corpus):
    cfg = tr.TrainConfig.from_dict(dict(SMALL))
    sp = split(corpus, 0)
    a = tr.build_model(cfg, corpus, sp, seed=0)
    b = tr.build_model(cfg, corpus, sp, seed=1)
    b.load_state_dict(a.state_dict())
    for k, p in a.named_parameters().items():
        assert np.array_equal(p.values, b.named_parameters()[k].values), k


def test_train_one_is_deterministic(corpus):
    cfg = tr.TrainConfig.from_dict(dict(SMALL))
    sp = split(corpus, 0)
    runs = []
    for _ in range(2):
        model, trace = tr.train_one(cfg, corpus, sp, seed=0)
        runs.append((model.state_dict(), trace["total_loss"]))
    for k in runs[0][0]:
        assert runs[0][0][k].tobytes() == runs[1][0][k].tobytes(), k
    assert runs[0][1] == runs[1][1]


def test_training_reduces_loss(corpus):
    cfg = tr.TrainConfig.from_dict(dict(SMALL, epochs=12, pretrain_epochs=0,
                                        learning_rate=5e-3))
    sp = split(corpus, 0)
    _, trace = tr.train_one(cfg, corpus, sp, seed=0)
    losses = trace["total_loss"]
    assert losses[-1] < losses[0]


def test_best_epoch_selection_restores_weights(corpus):
    cfg = tr.TrainConfig.from_dict(dict(SMALL, epochs=3))
    sp = split(corpus, 0)
    _, trace = tr.train_one(cfg, corpus, sp, seed=0)
    best = trace["best_epoch"]
    assert trace["val_accuracy"][best] == trace["best_val_accuracy"]
    assert trace["best_val_accuracy"] == max(trace["val_accuracy"])
    # ties resolve toward the earliest epoch
    first_max = trace["val_accuracy"].index(max(trace["val_accuracy"]))
    assert best == first_max


def test_zero_epochs_returns_initial_model(corpus):
    cfg = tr.TrainConfig.from_dict(dict(SMALL, epochs=0, pretrain_epochs=0))
    sp = split(corpus, 0)
    model, trace = tr.train_one(cfg, corpus, sp, seed=0)
    assert trace["total_loss"] == []
    fresh = tr.build_model(cfg, corpus, sp, seed=0)
    for k, p in model.named_parameters().items():
        assert np.array_equal(p.values, fresh.named_parameters()[k].values)


def test_run_trials_aggregates(corpus):
    cfg = tr.TrainConfig.from_dict(dict(SMALL, seeds=(0, 1)))
    report = tr.run_trials(cfg, corpus)
    assert report.seeds == [0, 1]
    assert len(report.accuracies) == 2
    assert report.mean_accuracy == pytest.approx(np.mean(report.accuracies))
    assert report.std_accuracy == pytest.approx(np.std(report.accuracies))
    assert len(report.partitions) == 2


def test_run_trials_keeps_good_seeds_when_one_fails(corpus, monkeypatch):
    real, error = tr.train_one, ContractError

    def flaky(config, dataset, sp, seed):
        if seed == 1:
            raise error("mean readout needs at least one kept node")
        return real(config, dataset, sp, seed)

    monkeypatch.setattr(tr, "train_one", flaky)
    cfg = tr.TrainConfig.from_dict(dict(SMALL, seeds=(0, 1, 2)))
    report = tr.run_trials(cfg, corpus)
    assert report.seeds == [0, 2]
    assert len(report.accuracies) == 2
    assert report.failures == [{"seed": 1, "error_type": "ContractError",
                                "error": "mean readout needs at least one kept node"}]
    error = ConfigError  # a config error is not one seed's fault and stops the run
    with pytest.raises(ConfigError):
        tr.run_trials(cfg, corpus)


@pytest.mark.parametrize("backend", ["mean", "mincut"])
def test_training_steps_leave_no_reference_cycles(corpus, backend):
    # tapes must be freed by reference counting alone, not by the cyclic GC
    cfg = tr.TrainConfig.from_dict(dict(SMALL, backend=backend, clusters=3))
    model = tr.build_model(cfg, corpus, split(corpus, 0), seed=0)
    gc.collect()
    gc.disable()
    try:
        for g in corpus.graphs[:10]:
            loss, _ = tr.combined_loss(tr.forward_graph(model, g), g.label)
            T.backward(loss)
        del loss
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_trial_forwards_each_test_graph_once(corpus, monkeypatch):
    real_train, real_forward = tr.train_one, tr.forward_graph
    trained, forwarded = [], []

    def train_one(*args):
        out = real_train(*args)
        trained.append(True)
        return out

    def forward_graph(model, graph, *args, **kwargs):
        if trained:
            forwarded.append(id(graph))
        return real_forward(model, graph, *args, **kwargs)

    monkeypatch.setattr(tr, "train_one", train_one)
    monkeypatch.setattr(tr, "forward_graph", forward_graph)
    result = tr._trial(tr.TrainConfig.from_dict(dict(SMALL)), corpus, 0)
    assert result["ok"]
    assert sorted(forwarded) == sorted(id(corpus.graphs[i]) for i in split(corpus, 0).test)


def test_run_trials_parallel_matches_serial(corpus):
    cfg = tr.TrainConfig.from_dict(dict(SMALL, seeds=(0, 1)))
    serial = tr.run_trials(cfg, corpus)
    parallel = tr.run_trials(cfg, corpus, jobs=2)
    assert serial.accuracies == parallel.accuracies
    assert serial.partitions == parallel.partitions


def test_save_report_is_json(tmp_path, corpus):
    cfg = tr.TrainConfig.from_dict(dict(SMALL))
    report = tr.run_trials(cfg, corpus)
    path = tmp_path / "report.json"
    tr.save_report(report, str(path))
    loaded = json.loads(path.read_text())
    assert loaded["seeds"] == [0]
    assert loaded["mean_accuracy"] == report.mean_accuracy


# -- the fast forward against the slow reference --------------------------

@pytest.fixture(scope="module")
def mixed_corpus():
    # sizes from 1 to 34 nodes, so masking, top-k and MinCut see small and odd shapes
    rng = np.random.default_rng(21)
    graphs = []
    for i, n in enumerate([1, 2, 3, 5, 8, 13, 21, 34, 4, 6, 9, 12, 15, 18]):
        adj, feats = random_graph(rng, n, p=0.3, d=6)
        graphs.append(Graph(adj, feats, i % 2))
    return Dataset(graphs, 6, 2, "mixed")


def _grads(loss, params):
    for p in params.values():
        p.zero_grad()
    T.backward(loss)
    return {k: None if p.grad is None else p.grad.copy() for k, p in params.items()}


@pytest.mark.parametrize("backend", BACKEND_KINDS)
def test_forward_matches_slow_reference_bit_for_bit(mixed_corpus, backend):
    # threshold 1 makes MVP drop nodes in most graphs
    cfg = tr.TrainConfig.from_dict(dict(SMALL, backend=backend, clusters=3, threshold_c=1.0))
    model = tr.build_model(cfg, mixed_corpus, split(mixed_corpus, 0), seed=0)
    params = model.named_parameters()
    dropped = 0
    for g in mixed_corpus.graphs:
        logits, scores, indicator, ref_loss = forward_ref(model, g)
        want = _grads(ref_loss, params)
        res = tr.forward_graph(model, g)
        loss, _ = tr.combined_loss(res, g.label)
        got = _grads(loss, params)
        assert np.array_equal(res.logits.values, logits.values)
        assert np.array_equal(res.scores, scores)
        assert np.array_equal(res.indicator, indicator)
        assert loss.item() == ref_loss.item()
        for name in params:
            assert (got[name] is None) == (want[name] is None), name
            assert want[name] is None or np.array_equal(got[name], want[name]), name
        dropped += g.n - int(indicator.sum())
    assert dropped > 0


def test_evaluate_builds_no_reconstruction_loss(corpus, monkeypatch):
    calls, real = [], tr.recon_losses

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(tr, "recon_losses", counting)
    model = tr.build_model(tr.TrainConfig.from_dict(dict(SMALL)), corpus, split(corpus, 0), 0)
    tr.evaluate(model, corpus, range(len(corpus)))
    assert calls == []
    g = corpus.graphs[0]
    tr.combined_loss(tr.forward_graph(model, g), g.label)
    assert len(calls) == 1  # the training loss still builds it


@pytest.mark.parametrize("backend", BACKEND_KINDS)
def test_one_forward_normalizes_each_adjacency_once(corpus, monkeypatch, backend):
    # the encoder shares one matrix across its views; a GCN backend adds one for A'
    calls, real = [], mv.normalize_adjacency

    def counting(adjacency):
        calls.append(adjacency.shape)
        return real(adjacency)

    monkeypatch.setattr(mv, "normalize_adjacency", counting)
    cfg = tr.TrainConfig.from_dict(dict(SMALL, backend=backend, clusters=3))
    assert cfg.views == 4
    model = tr.build_model(cfg, corpus, split(corpus, 0), seed=0)
    tr.forward_graph(model, corpus.graphs[0])
    assert len(calls) == (2 if backend in ("gcn-sum", "attention-topk", "mincut") else 1)


# -- degenerate graphs -----------------------------------------------------

def _degenerate_graphs(d):
    rng = np.random.default_rng(8)
    row = rng.normal(size=(1, d))
    path = np.diag(np.ones(4), 1)
    return {
        "single-node": Graph(np.zeros((1, 1)), row, 0),
        "edgeless": Graph(np.zeros((6, 6)), rng.normal(size=(6, d)), 1),
        "identical-features": Graph(path + path.T, np.repeat(row, 5, axis=0), 0),
        # edgeless with identical rows: every node gets the same score
        "identical-scores": Graph(np.zeros((4, 4)), np.repeat(row, 4, axis=0), 1),
    }


@pytest.mark.parametrize("backend", BACKEND_KINDS)
def test_degenerate_graphs_forward_and_train(corpus, backend):
    cfg = tr.TrainConfig.from_dict(dict(SMALL, backend=backend, clusters=3))
    model = tr.build_model(cfg, corpus, split(corpus, 0), seed=0)
    params = model.named_parameters()
    opt = tr.Adam(list(params.values()), cfg.learning_rate)
    for name, g in _degenerate_graphs(corpus.d).items():
        res = tr.forward_graph(model, g)
        loss, parts = tr.combined_loss(res, g.label)
        assert np.isfinite(loss.item()), (name, parts)
        if name in ("single-node", "identical-scores"):
            assert res.scores.std() == 0.0, name
        if res.scores.std() == 0.0:
            assert res.indicator.all(), name  # sigma = 0 keeps every node
        opt.zero_grad()
        T.backward(loss)
        opt.step()
        for key, p in params.items():
            assert np.isfinite(p.values).all(), (name, key)
