import gc
import json

import numpy as np
import pytest

from mvprune import train as tr, tensor as T
from mvprune.errors import ConfigError, ContractError
from mvprune.graphio import split, synth_planted_anomalies

from oracles import finite_diff, rel_err


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
    assert res.la is None and res.scores is None


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
