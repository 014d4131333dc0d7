import gc
import json
import tracemalloc

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

from mvprune import cli, multiview as mv, train as tr, tensor as T
from mvprune.errors import ConfigError, ContractError, TrainingDiverged
from mvprune.graphio import Dataset, Graph, split, synth_planted_anomalies
from mvprune.pooling import ADJACENCY_KINDS, BACKEND_KINDS, PoolBackend
from mvprune.rng import substream

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
    for bad in (dict(learning_rate=float("nan")), dict(learning_rate=float("inf")),
                dict(epochs=1.5), dict(batch_size=2.5), dict(views=True),
                dict(clusters=-2), dict(clusters=1), dict(clusters=2.0),
                dict(classifier_hidden=0), dict(seeds="0,1"), dict(seeds=(0, 1.0)),
                dict(seeds=3), dict(lam="0.5"), dict(overlap_ratio="x"), dict(use_mvp="no")):
        with pytest.raises(ConfigError):
            tr.TrainConfig(**bad)
    with pytest.raises(ConfigError, match="JSON object"):
        tr.TrainConfig.from_dict([["epochs", 1]])
    tr.TrainConfig(keep_ratio=1.0, epochs=0, pretrain_epochs=0, views=1, latent_width=1)
    assert tr.TrainConfig(seeds=[2, 1], clusters=2, learning_rate=1).seeds == (2, 1)


def test_restore_model_reproduces_evaluate(corpus):
    cfg = tr.TrainConfig.from_dict(dict(SMALL, backend="mincut", seeds=(1,)))
    sp = split(corpus, 1)
    model, _ = tr.train_one(cfg, corpus, sp, 1)
    restored = tr.restore_model(cfg, corpus, 1, model.state_dict())
    acc, indicators, selections = tr.evaluate(model, corpus, sp.test)
    acc_r, indicators_r, selections_r = tr.evaluate(restored, corpus, sp.test)
    assert acc_r == acc
    assert all(np.array_equal(a, b) for a, b in zip(indicators_r + selections_r,
                                                    indicators + selections))
    graphs = [corpus.graphs[i] for i in sp.test]
    with T.no_grad():
        logits = [tr.forward_batch(m, graphs).logits.values for m in (model, restored)]
    assert np.array_equal(*logits)


def test_adam_decreases_quadratic():
    w = T.param(np.full((2, 2), 5.0))
    opt = tr.Adam([w], lr=0.1)
    for _ in range(200):
        opt.zero_grad()
        T.backward(T.mul_const(T.tsum(T.mul(w, w)), 0.5))
        opt.step()
    assert np.abs(w.values).max() < 0.5


def test_adam_matches_manual_first_step():
    w = T.param([[1.0]])
    opt = tr.Adam([w], lr=0.01)
    opt.zero_grad()
    T.backward(T.mul_const(T.tsum(T.mul(w, w)), 0.5))  # grad = w = 1
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
    head = model.classifier
    for p in (head.w1, head.b1, head.w2, head.b2):
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
    real_train, real_forward = tr.train_one, tr.forward_batch
    trained, forwarded = [], []

    def train_one(*args):
        out = real_train(*args)
        trained.append(True)
        return out

    def forward_batch(model, graphs, *args, **kwargs):
        if trained:
            forwarded.extend(id(g) for g in graphs)
        return real_forward(model, graphs, *args, **kwargs)

    monkeypatch.setattr(tr, "train_one", train_one)
    monkeypatch.setattr(tr, "forward_batch", forward_batch)
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
    # the reference builds MinCut's softmax and loss from its own primitive ops,
    # whose backward rounds differently: its loss matches to 1e-10, and its
    # gradients to 1e-10 of the graph's largest gradient entry (a 1-node graph's
    # assignment gradient is 0 up to rounding)
    exact = backend != "mincut"
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
        assert loss.item() == ref_loss.item() if exact else rel_err(
            loss.values, ref_loss.values) <= 1e-10
        scale = max(np.abs(w).max() for w in want.values() if w is not None)
        for name in params:
            assert (got[name] is None) == (want[name] is None), name
            if want[name] is not None:
                assert (np.array_equal(got[name], want[name]) if exact else
                        np.abs(got[name] - want[name]).max() <= 1e-10 * scale), name
        dropped += g.n - int(indicator.sum())
    assert dropped > 0


@pytest.mark.parametrize("backend", BACKEND_KINDS)
def test_only_backends_that_read_a_prime_get_it(corpus, backend, monkeypatch):
    # forward_ref masks A for every backend; the bit-for-bit test above shows
    # that skipping it for the others changes no value
    seen, real = [], PoolBackend.forward

    def recording(self, x_prime, a_prime, *args):
        seen.append(a_prime)
        return real(self, x_prime, a_prime, *args)

    monkeypatch.setattr(PoolBackend, "forward", recording)
    cfg = tr.TrainConfig.from_dict(dict(SMALL, backend=backend))
    model = tr.build_model(cfg, corpus, split(corpus, 0), seed=0)
    tr.forward_batch(model, corpus.graphs[:3])
    tr.forward_batch(model, corpus.graphs[:3], use_mvp=False)
    assert (seen[0] is None) == (backend not in ADJACENCY_KINDS)
    assert seen[1] is not None  # without MVP the backend gets A itself


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


def test_inference_builds_no_mincut_loss(corpus, monkeypatch):
    def refuse(*args):
        raise AssertionError("built the MinCut loss")

    monkeypatch.setattr(tr, "mincut_loss", refuse)
    cfg = tr.TrainConfig.from_dict(dict(SMALL, backend="mincut", clusters=3))
    model = tr.build_model(cfg, corpus, split(corpus, 0), 0)
    tr.evaluate(model, corpus, range(len(corpus)))
    list(cli._scores_and_keeps(model, corpus))
    g = corpus.graphs[0]
    with T.no_grad():
        tr.forward_graph(model, g)
    with pytest.raises(AssertionError, match="MinCut"):  # the training loss still builds it
        tr.combined_loss(tr.forward_graph(model, g), g.label)


def test_evaluate_builds_no_tape(corpus, monkeypatch):
    results, real = [], tr.forward_batch

    def capturing(*args, **kwargs):
        results.append(real(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(tr, "forward_batch", capturing)
    model = tr.build_model(tr.TrainConfig.from_dict(dict(SMALL)), corpus, split(corpus, 0), 0)
    tr.evaluate(model, corpus, range(len(corpus)))
    assert sum(len(r.logits.values) for r in results) == len(corpus)
    assert all(r.logits._parents == () and not r.logits.requires_grad for r in results)
    assert tr.forward_graph(model, corpus.graphs[0]).logits._parents  # training still records


def _tape_size(loss):
    seen, stack = set(), [loss]
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen.add(id(t))
            stack.extend(t._parents)
    return len(seen)


def test_joint_step_tape_budget():
    # acceptance config: recording every op on constants made this tape 78 nodes
    ds, _ = synth_planted_anomalies(20, 20, 0.15, seed=7)
    cfg = tr.TrainConfig.from_dict(dict(epochs=30, pretrain_epochs=10, views=4, latent_width=32,
                                        learning_rate=2e-3, batch_size=32, seeds=(0,)))
    model = tr.build_model(cfg, ds, split(ds, 0), seed=0)
    g = ds.graphs[0]
    loss, _ = tr.combined_loss(tr.forward_graph(model, g), g.label)
    assert _tape_size(loss) <= 55
    assert len(T._toposort(loss)) <= _tape_size(loss)  # backward skips constant leaves


def _count_ops(monkeypatch):
    count, real = [0], T._op

    def counting(*args):
        count[0] += 1
        return real(*args)

    monkeypatch.setattr(T, "_op", counting)
    return count


def test_mincut_forward_op_budget(monkeypatch):
    # building MinCut's loss inside every forward made a lone forward 39 ops
    ds, _ = synth_planted_anomalies(32, 20, 0.15, seed=7)
    cfg = tr.TrainConfig.from_dict(dict(epochs=30, pretrain_epochs=10, views=4, latent_width=32,
                                        learning_rate=2e-3, batch_size=32, seeds=(0,),
                                        backend="mincut"))
    model = tr.build_model(cfg, ds, split(ds, 0), seed=0)
    count = _count_ops(monkeypatch)
    tr.forward_graph(model, ds.graphs[0])
    assert count[0] <= 18
    count[0] = 0
    tr.combined_loss(tr.forward_batch(model, ds.graphs), [g.label for g in ds.graphs])
    assert count[0] <= 46  # a training step builds the loss all the same


# a fixed corpus of mixed sizes, 4 to 210 nodes with repeats, so that a step
# holds size groups of one graph and of several
BUDGET_SIZES = (4, 6, 9, 9, 12, 12, 12, 15, 18, 18, 22, 25, 25, 25, 30, 38, 45, 60, 70, 90, 130,
                210)
# per backend: tape nodes of a pretraining step and of a joint step, and
# normalize_adjacency calls per train_one. Each is an upper bound at today's
# count; a change that does less work lowers it. Normalizing A in every step,
# not once per train_one, made the counts 34 and 85.
WORK_BUDGETS = {"mean": (11, 30, 19), "mincut": (44, 63, 53)}


def _budget_corpus():
    graphs = [synth_planted_anomalies(2, n, 0.1, seed=i)[0].graphs[i % 2]
              for i, n in enumerate(BUDGET_SIZES)]
    return Dataset(graphs, 8, 2, "mixed")


@pytest.mark.parametrize("backend", sorted(WORK_BUDGETS))
def test_training_work_stays_within_its_budget(monkeypatch, backend):
    ds = _budget_corpus()
    cfg = tr.TrainConfig.from_dict(dict(SMALL, backend=backend))
    nodes, normalized = [], []
    real_backward, real_normalize = T.backward, mv.normalize_adjacency

    def counting_backward(root):  # each step's T.tsum(loss)
        nodes.append(len(T._toposort(root)))
        real_backward(root)

    monkeypatch.setattr(T, "backward", counting_backward)
    monkeypatch.setattr(mv, "normalize_adjacency",
                        lambda a, *keep: normalized.append(a.shape) or real_normalize(a, *keep))
    tr.train_one(cfg, ds, split(ds, 0), seed=0)
    pretrain, joint, normalize_calls = WORK_BUDGETS[backend]
    steps = 3  # 17 training graphs in steps of 8
    assert len(nodes) == steps * (cfg.pretrain_epochs + cfg.epochs)
    assert max(nodes[:steps]) <= pretrain and max(nodes[steps:]) <= joint
    assert len(normalized) <= normalize_calls


@pytest.mark.parametrize("use_mvp", [True, False])
@pytest.mark.parametrize("backend", ["mean", "mincut"])
def test_predict_normalizes_each_adjacency_at_most_once_per_call(monkeypatch, backend, use_mvp):
    # per graph and call: A's matrix for the encoder, and A''s for a backend
    # that reads the graph (A' = A, through an all-ones mask, without MVP)
    ds = _budget_corpus()
    model = tr.build_model(tr.TrainConfig.from_dict(dict(SMALL, backend=backend, use_mvp=use_mvp)),
                           ds, split(ds, 0), seed=0)
    matrices, real = {"A": 0, "masked": 0}, mv.normalize_adjacency

    def counting(adjacency, *keep):
        matrices["masked" if keep else "A"] += adjacency.size // adjacency.shape[-1] ** 2
        return real(adjacency, *keep)

    monkeypatch.setattr(mv, "normalize_adjacency", counting)
    for _ in range(2):  # nothing is kept from one call for the next
        tr.predict(model, ds.graphs)
    graphs = 2 * len(ds.graphs)
    assert matrices == {"A": graphs if use_mvp else 0,
                        "masked": graphs if backend in ADJACENCY_KINDS else 0}


@pytest.mark.parametrize("backend", BACKEND_KINDS)
def test_one_forward_normalizes_each_adjacency_once(corpus, monkeypatch, backend):
    # the encoder shares one matrix across its views; a GCN backend adds one for A'
    calls, real = [], mv.normalize_adjacency

    def counting(adjacency, *keep):
        calls.append(adjacency.shape)
        return real(adjacency, *keep)

    monkeypatch.setattr(mv, "normalize_adjacency", counting)
    cfg = tr.TrainConfig.from_dict(dict(SMALL, backend=backend, clusters=3))
    assert cfg.views == 4
    model = tr.build_model(cfg, corpus, split(corpus, 0), seed=0)
    tr.forward_graph(model, corpus.graphs[0])
    assert len(calls) == (2 if backend in ("gcn-sum", "attention-topk", "mincut") else 1)


def test_every_latent_matrix_is_nonnegative(mixed_corpus, monkeypatch):
    # Z is the encoder's ReLU output, so its Gram has no negative entry, on
    # which gram_sigmoid's direct sigmoid gives the bits of its sign-branching
    # oracle; a negative entry would round some A_hat entries apart from it
    seen, real = [], tr.encode_views_xa

    def recording(*args):
        seen.append(real(*args))
        return seen[-1]

    monkeypatch.setattr(tr, "encode_views_xa", recording)
    cfg = tr.TrainConfig.from_dict(dict(SMALL, backend="mincut", clusters=3))
    graphs = mixed_corpus.graphs
    tr.forward_batch(tr.build_model(cfg, mixed_corpus, split(mixed_corpus, 0), 0), graphs)
    model, _ = tr.train_one(cfg, mixed_corpus, split(mixed_corpus, 0), seed=0)
    tr.predict(model, graphs)
    assert len(seen) >= 1 + cfg.epochs  # untrained, each joint epoch's steps, trained
    assert all(z.values.min() >= 0.0 for z in seen)


# Peak traced bytes of one lone mincut forward of a 200-node graph, in units of
# one n x n float64 array. Building A' in the forward, and the sign-branching
# sigmoid's passes, made it 5.7 with a tape and 4.3 without (4.4 and 2.6 today).
FORWARD_MEMORY_BUDGETS = {"grad": 5.0, "no_grad": 3.5}
# The same for that forward's combined_loss and its backward: the two-log BCE
# made them 3.02 and 3.60, and building A' for MinCut's loss made the first
# 2.27 (2.01 and 3.23 today).
LOSS_MEMORY_BUDGETS = {"combined_loss": 2.1, "backward": 3.4}


def _lone_mincut_graph():
    """(model, graph): an untrained mincut model and a 200-node graph whose
    forward prunes nodes, after one forward for the caches (such as the
    graph's Layout)."""
    ds, _ = synth_planted_anomalies(12, 200, 0.1, seed=3)
    cfg = tr.TrainConfig.from_dict(dict(SMALL, latent_width=32, classifier_hidden=32,
                                        backend="mincut", clusters=4))
    model = tr.build_model(cfg, ds, split(ds, 0), seed=0)
    g = ds.graphs[0]
    assert g.n - tr.forward_graph(model, g).indicator.sum() > 0  # the masked path
    return model, g


def _traced_peak(fn, n):
    """fn() and the peak traced bytes it allocated, in n x n float64 arrays."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = fn()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    return out, peak / (n * n * 8)


@pytest.mark.parametrize("mode", sorted(FORWARD_MEMORY_BUDGETS))
def test_lone_forward_memory_stays_within_its_budget(mode):
    model, g = _lone_mincut_graph()

    def forward():
        if mode == "grad":
            return tr.forward_graph(model, g)
        with T.no_grad():
            return tr.forward_graph(model, g)

    _, peak = _traced_peak(forward, g.n)
    assert peak <= FORWARD_MEMORY_BUDGETS[mode], f"{peak:.2f}"


@pytest.mark.parametrize("stage", sorted(LOSS_MEMORY_BUDGETS))
def test_lone_loss_and_backward_memory_stay_within_their_budgets(stage):
    model, g = _lone_mincut_graph()
    res = tr.forward_graph(model, g)
    (loss, parts), peak = _traced_peak(lambda: tr.combined_loss(res, g.label), g.n)
    assert parts["pool"][0] != 0.0 and parts["la"][0] != 0.0  # every term built
    if stage == "backward":
        _, peak = _traced_peak(lambda: T.backward(loss), g.n)
    assert peak <= LOSS_MEMORY_BUDGETS[stage], f"{peak:.2f}"


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


@pytest.mark.parametrize("backend", BACKEND_KINDS)
def test_equal_scores_keep_every_node_below_one_sigma(corpus, backend):
    # edgeless with identical rows: all ten scores are equal, and their rounded
    # mean lands an ulp below them, which used to drop every node at c = 0.5
    cfg = tr.TrainConfig.from_dict(dict(SMALL, backend=backend, clusters=3, threshold_c=0.5))
    model = tr.build_model(cfg, corpus, split(corpus, 0), seed=0)
    row = np.random.default_rng(1).normal(size=(1, corpus.d))
    res = tr.forward_graph(model, Graph(np.zeros((10, 10)), np.repeat(row, 10, axis=0), 0))
    assert res.scores.std() > 0.0  # not exactly 0: the rounding this guards against
    assert res.indicator.all()


# -- one tape per mini-batch -----------------------------------------------

def _batch_of_every_shape(dataset):
    # sizes 1 to 34, several sizes more than once, and the degenerate graphs
    return dataset.graphs + list(_degenerate_graphs(dataset.d).values())


@pytest.mark.parametrize("backend", BACKEND_KINDS)
def test_batched_forward_matches_lone_forwards_bit_for_bit(mixed_corpus, backend):
    cfg = tr.TrainConfig.from_dict(dict(SMALL, backend=backend, clusters=3, threshold_c=1.0))
    model = tr.build_model(cfg, mixed_corpus, split(mixed_corpus, 0), seed=0)
    graphs = _batch_of_every_shape(mixed_corpus)
    res = tr.forward_batch(model, graphs)
    loss, parts = tr.combined_loss(res, [g.label for g in graphs])
    sizes = [g.n for g in graphs]
    assert sizes != sorted(sizes) and res.layout.sizes.tolist() == sizes  # the caller's order
    cut = res.layout.split
    per_graph = zip(graphs, cut(res.scores), cut(res.indicator), cut(res.selection))
    for row, (g, scores, indicator, selection) in enumerate(per_graph):
        lone = tr.forward_graph(model, g)
        lone_loss, lone_parts = tr.combined_loss(lone, g.label)
        assert np.array_equal(res.logits.values[row], lone.logits.values[0]), row
        assert np.array_equal(scores, lone.scores), row
        assert np.array_equal(indicator, lone.indicator), row
        assert np.array_equal(selection, lone.selection), row
        assert loss.values[row, 0] == lone_loss.item(), row
        for key in parts:
            assert parts[key][row] == lone_parts[key][0], (row, key)
    assert res.indicator.sum() < len(res.indicator)  # the threshold dropped nodes


@pytest.mark.parametrize("backend", BACKEND_KINDS)
def test_batched_gradient_is_the_sum_of_lone_reference_gradients(mixed_corpus, backend):
    cfg = tr.TrainConfig.from_dict(dict(SMALL, backend=backend, clusters=3, threshold_c=1.0))
    model = tr.build_model(cfg, mixed_corpus, split(mixed_corpus, 0), seed=0)
    params = model.named_parameters()
    graphs = _batch_of_every_shape(mixed_corpus)
    want = {name: np.zeros(p.shape) for name, p in params.items()}
    for g in graphs:
        for name, grad in _grads(forward_ref(model, g)[3], params).items():
            want[name] += grad
    loss, _ = tr.combined_loss(tr.forward_batch(model, graphs), [g.label for g in graphs])
    got = _grads(T.tsum(loss), params)
    for name in params:
        assert rel_err(got[name], want[name]) <= 1e-10, name


@pytest.mark.parametrize("use_mvp", [True, False])
@pytest.mark.parametrize("backend", BACKEND_KINDS)
def test_a_step_with_given_propagation_matrices_matches_one_that_computes_them(
        mixed_corpus, backend, use_mvp):
    # train_one hands each step its graphs' normalize_adjacency(A); the encoder
    # and, without MVP, an unpruned backend use them in place of their own
    cfg = tr.TrainConfig.from_dict(dict(SMALL, backend=backend, clusters=3, threshold_c=1.0))
    model = tr.build_model(cfg, mixed_corpus, split(mixed_corpus, 0), seed=0)
    params, graphs = model.named_parameters(), _batch_of_every_shape(mixed_corpus)
    props = [mv.normalize_adjacency(g.adjacency) for g in graphs]
    runs = []
    for given in (None, props):
        res = tr.forward_batch(model, graphs, use_mvp=use_mvp, props=given)
        loss, parts = tr.combined_loss(res, [g.label for g in graphs])
        grads = _grads(T.tsum(loss), params)
        runs.append([res.logits.values, loss.values, *parts.values()]
                    + [grads[k] for k in sorted(grads) if grads[k] is not None])
    assert len(runs[0]) == len(runs[1])
    for got, want in zip(*runs):
        assert got.tobytes() == want.tobytes()


def test_batched_step_tape_budget():
    # a lone joint step records 54 nodes (test_joint_step_tape_budget); a batch
    # of 32 must record at least 5x fewer per graph
    ds, _ = synth_planted_anomalies(32, 20, 0.15, seed=7)
    cfg = tr.TrainConfig.from_dict(dict(epochs=30, pretrain_epochs=10, views=4, latent_width=32,
                                        learning_rate=2e-3, batch_size=32, seeds=(0,)))
    model = tr.build_model(cfg, ds, split(ds, 0), seed=0)
    loss, _ = tr.combined_loss(tr.forward_batch(model, ds.graphs), [g.label for g in ds.graphs])
    total = T.tsum(loss)
    assert _tape_size(total) * 5 <= 54 * len(ds.graphs)
    assert len(T._toposort(total)) <= _tape_size(total)


def test_training_runs_one_backward_per_step(corpus, monkeypatch):
    calls, real = [], T.backward

    def counting(loss):
        calls.append(loss)
        return real(loss)

    monkeypatch.setattr(T, "backward", counting)
    cfg = tr.TrainConfig.from_dict(dict(SMALL, epochs=1, pretrain_epochs=0))
    sp = split(corpus, 0)
    tr.train_one(cfg, corpus, sp, seed=0)
    assert len(calls) == -(-len(sp.train) // cfg.batch_size)


def test_training_steps_are_sorted_by_size_and_cover_the_split(monkeypatch):
    rng = np.random.default_rng(5)
    graphs = [Graph(*random_graph(rng, int(rng.integers(3, 7)), d=4), i % 2) for i in range(24)]
    ds, pos = Dataset(graphs, 4, 2, "ties"), {id(g): i for i, g in enumerate(graphs)}
    cfg = tr.TrainConfig.from_dict(dict(SMALL, batch_size=8))
    sp, steps, real = split(ds, 0), [], tr.forward_batch

    def recording(model, batch, *args, **kwargs):
        if T._grad_enabled:  # a training step, not a validation forward
            steps.append([pos[id(g)] for g in batch])
        return real(model, batch, *args, **kwargs)

    monkeypatch.setattr(tr, "forward_batch", recording)
    tr.train_one(cfg, ds, sp, seed=0)
    per_epoch = -(-len(sp.train) // cfg.batch_size)
    assert len(steps) == (cfg.pretrain_epochs + cfg.epochs) * per_epoch
    for first in range(0, len(steps), per_epoch):  # each epoch covers the train split once
        assert sorted(sum(steps[first:first + per_epoch], [])) == sp.train
    for ids in steps:
        assert all(graphs[a].n <= graphs[b].n for a, b in zip(ids, ids[1:]))
    # graphs of one size keep the epoch's shuffled order, on which the step's
    # gradient sum depends
    want = []
    for epochs in (cfg.pretrain_epochs, cfg.epochs):  # each phase draws its own epoch orders
        order_rng = substream(0, "batch")
        for _ in range(epochs):
            order = order_rng.permutation(sp.train).tolist()
            want += [sorted(order[i:i + cfg.batch_size], key=lambda gi: graphs[gi].n)
                     for i in range(0, len(order), cfg.batch_size)]
    assert steps == want


def test_divergence_names_the_graph_and_keeps_other_seeds(monkeypatch):
    ds, _ = synth_planted_anomalies(60, 10, 0.1, seed=3)
    cfg = tr.TrainConfig.from_dict(dict(SMALL, batch_size=32, seeds=(0, 1, 2)))
    target = int(split(ds, 1).train[5])  # one graph of seed 1's first 32-graph batch or later
    real = tr.forward_batch

    def poisoned(model, graphs, *args, **kwargs):
        res = real(model, graphs, *args, **kwargs)
        if model.partition.seed == 1 and any(g is ds.graphs[target] for g in graphs):
            pos = next(i for i, g in enumerate(graphs) if g is ds.graphs[target])
            res.logits.values[pos] = np.nan
        return res

    monkeypatch.setattr(tr, "forward_batch", poisoned)
    report = tr.run_trials(cfg, ds)
    assert report.seeds == [0, 2]
    [failure] = report.failures
    assert failure["seed"] == 1 and failure["error_type"] == "TrainingDiverged"
    assert failure["graph"] == target
    assert failure["epoch"] == 0
    assert np.isnan(failure["parts"]["ce"])
    assert set(failure["parts"]) == {"ce", "la", "lx", "pool"}
    assert f"graph {target}" in failure["error"]


def test_divergence_names_the_first_bad_graph_of_the_batch():
    rng = np.random.default_rng(4)
    graphs = [Graph(*random_graph(rng, int(rng.integers(4, 13)), d=4), i % 2) for i in range(40)]
    ds = Dataset(graphs, 4, 2, "sizes")
    cfg = tr.TrainConfig.from_dict(dict(SMALL, batch_size=32, use_mvp=False, backend="mincut",
                                        clusters=3))
    sp = split(ds, 0)
    order = [int(gi) for gi in substream(0, "batch").permutation(sp.train)[:32]]
    # a later graph of the batch that is smaller, so its row comes first
    first, later = next((a, b) for i, a in enumerate(order) for b in order[i + 1:]
                        if graphs[b].n < graphs[a].n)
    for gi in (first, later):
        graphs[gi].adjacency[0, 0] = np.nan  # reaches that graph's MinCut loss only
    with pytest.raises(TrainingDiverged) as info:
        tr.train_one(cfg, ds, sp, seed=0)
    assert (info.value.seed, info.value.epoch, info.value.graph) == (0, 0, first)
    assert np.isnan(info.value.parts["pool"]) and info.value.parts["la"] == 0.0


def test_evaluate_returns_what_reaches_the_readout(corpus):
    cfg = tr.TrainConfig.from_dict(dict(SMALL, use_mvp=False, backend="attention-topk"))
    model = tr.build_model(cfg, corpus, split(corpus, 0), seed=0)
    indices = split(corpus, 0).test
    _, indicators, selections = tr.evaluate(model, corpus, indices)
    for i, indicator, selection in zip(indices, indicators, selections):
        assert indicator.all()
        assert selection.sum() == np.ceil(0.75 * corpus.graphs[i].n)
    stats = tr.pruning_stats(corpus, indices, indicators, selections)
    assert stats["fraction_pruned"] == 0.0
    n = sum(corpus.graphs[i].n for i in indices)
    assert stats["readout_dropped_fraction"] == sum(
        corpus.graphs[i].n - np.ceil(0.75 * corpus.graphs[i].n) for i in indices) / n
