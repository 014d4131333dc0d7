import argparse
import csv
import json
import os
from pathlib import Path

import numpy as np
import pytest

from mvprune import cli, prune, tensor as T, train as tr
from mvprune.errors import ContractError, MvpruneError


SMALL_FLAGS = ["--epochs", "2", "--pretrain-epochs", "1", "--views", "4",
               "--latent-width", "8", "--seeds", "0", "--batch-size", "8"]


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "tiny"
    rc = cli.main(["synth", "--graphs", "24", "--nodes", "10", "--anomaly", "0.1",
                   "--seed", "0", "--out", str(out)])
    assert rc == 0
    return str(out)


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory, data_dir):
    out = tmp_path_factory.mktemp("runs") / "r0"
    rc = cli.main(["train", "--dataset", data_dir, "--out", str(out)] + SMALL_FLAGS)
    assert rc == 0
    return str(out)


def test_synth_writes_flat_files(data_dir):
    base = os.path.basename(data_dir)
    for suffix in ("A", "graph_indicator", "graph_labels", "node_attributes",
                   "anomalies"):
        assert os.path.isfile(os.path.join(data_dir, f"{base}_{suffix}.txt")), suffix


def test_synth_refuses_existing_dir_without_force(data_dir, capsys):
    rc = cli.main(["synth", "--graphs", "4", "--nodes", "6", "--out", data_dir])
    assert rc == 1
    assert "--force" in capsys.readouterr().err


def test_train_artifacts(run_dir):
    for name in ("report.json", "metrics.csv", "scores.csv", "manifest.json"):
        assert os.path.isfile(os.path.join(run_dir, name)), name
    assert os.path.isfile(os.path.join(run_dir, "models", "seed0.npz"))
    with open(os.path.join(run_dir, "metrics.csv")) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert 0.0 <= float(rows[0]["accuracy"]) <= 1.0


def test_manifest_contents(run_dir, data_dir):
    with open(os.path.join(run_dir, "manifest.json")) as fh:
        manifest = json.load(fh)
    assert manifest["command"] == "train"
    assert manifest["dataset"]["path"] == os.path.abspath(data_dir)
    assert manifest["config"]["epochs"] == 2
    assert manifest["seeds"] == [0]
    assert "report.json" in manifest["artifacts"]


def test_train_from_manifest_reproduces_metrics(tmp_path, run_dir, data_dir):
    out = tmp_path / "replay"
    rc = cli.main(["train", "--dataset", data_dir, "--out", str(out),
                   "--config", os.path.join(run_dir, "manifest.json")])
    assert rc == 0
    original = (Path(run_dir) / "metrics.csv").read_bytes()
    replay = (out / "metrics.csv").read_bytes()
    assert original == replay


def test_unknown_backend_is_config_error(tmp_path, data_dir, capsys):
    rc = cli.main(["train", "--dataset", data_dir, "--out", str(tmp_path / "x"),
                   "--backend", "magic"] + SMALL_FLAGS)
    assert rc == 2
    err = capsys.readouterr().err
    assert "magic" in err and "mincut" in err


# every flag of _add_config_flags: its argument, TrainConfig field and parsed value
CONFIG_FLAGS = {"--epochs": ("1", "epochs", 1), "--pretrain-epochs": ("0", "pretrain_epochs", 0),
                "--lr": ("0.01", "learning_rate", 0.01), "--batch-size": ("4", "batch_size", 4),
                "--seeds": ("3,5", "seeds", [3, 5]), "--lam": ("0.25", "lam", 0.25),
                "--threshold": ("1.5", "threshold_c", 1.5), "--views": ("2", "views", 2),
                "--overlap": ("0.5", "overlap_ratio", 0.5),
                "--latent-width": ("6", "latent_width", 6),
                "--backend": ("mincut", "backend", "mincut"),
                "--keep-ratio": ("0.5", "keep_ratio", 0.5), "--clusters": ("3", "clusters", 3),
                "--no-mvp": (None, "use_mvp", False)}


def test_every_config_flag_reaches_the_manifest(tmp_path, data_dir):
    parser = argparse.ArgumentParser()
    cli._add_config_flags(parser)
    dests = {a.option_strings[0]: a.dest for a in parser._actions
             if a.dest not in ("help", "config")}
    assert dests == {flag: field for flag, (_, field, _) in CONFIG_FLAGS.items()}
    argv = [part for flag, (arg, _, _) in CONFIG_FLAGS.items()
            for part in ([flag] if arg is None else [flag, arg])]
    out = tmp_path / "flags"
    assert cli.main(["train", "--dataset", data_dir, "--out", str(out)] + argv) == 0
    with open(out / "manifest.json") as fh:
        config = json.load(fh)["config"]
    assert {field: config[field] for _, field, _ in CONFIG_FLAGS.values()} == \
        {field: value for _, field, value in CONFIG_FLAGS.values()}


@pytest.mark.parametrize("flags", [["--lr", "nan", "--epochs", "1", "--pretrain-epochs", "0"],
                                   ["--lr", "inf"], ["--backend", "mincut", "--clusters", "-2"],
                                   ["--backend", "mincut", "--clusters", "1"],
                                   ["synth", "--graphs", "0"], ["synth", "--nodes", "0"],
                                   ["synth", "--classes", "0"], ["synth", "--features", "0"]])
def test_bad_flag_values_are_config_errors(tmp_path, data_dir, capsys, flags):
    if flags[0] == "synth":  # counts that synth checks before it writes anything
        argv = flags + ["--out", str(tmp_path / "x")]
    else:
        argv = ["train", "--dataset", data_dir, "--out", str(tmp_path / "x")] + SMALL_FLAGS + flags
    rc = cli.main(argv)
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("text", [json.dumps(c) for c in (
    {"classifier_hidden": 0}, {"epochs": 1.5}, {"batch_size": 2.5}, {"seeds": "0,1"},
    [["epochs", 1]])] + ["{not json", None])
def test_bad_config_files_are_config_errors(tmp_path, data_dir, capsys, text):
    path = tmp_path / "bad.json"
    if text is not None:  # None: the file is missing
        path.write_text(text)
    rc = cli.main(["train", "--dataset", data_dir, "--out", str(tmp_path / "x"),
                   "--config", str(path)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv", [["train", "--seeds", "a,b"],
                                  ["sweep", "--multipliers", "1,abc"],
                                  ["train", "--jobs", "0"], ["train", "--jobs", "-1"]])
def test_bad_list_flags_are_usage_errors(tmp_path, data_dir, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--dataset", data_dir, "--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error: argument" in err and argv[2] in err


def test_unknown_config_key_is_config_error(tmp_path, data_dir, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"momentum": 0.9}))
    rc = cli.main(["train", "--dataset", data_dir, "--out", str(tmp_path / "y"),
                   "--config", str(cfg)])
    assert rc == 2
    assert "momentum" in capsys.readouterr().err


def test_missing_dataset_is_runtime_error(tmp_path, capsys):
    rc = cli.main(["train", "--dataset", str(tmp_path / "nope"),
                   "--out", str(tmp_path / "z")] + SMALL_FLAGS)
    assert rc == 1


def test_data_dir_env_fallback(tmp_path, data_dir, monkeypatch):
    monkeypatch.setenv("MVPRUNE_DATA_DIR", os.path.dirname(data_dir))
    out = tmp_path / "env_run"
    rc = cli.main(["train", "--dataset", os.path.basename(data_dir),
                   "--name", os.path.basename(data_dir),
                   "--out", str(out)] + SMALL_FLAGS)
    assert rc == 0


def test_train_refuses_nonempty_out_without_force(run_dir, data_dir, capsys):
    rc = cli.main(["train", "--dataset", data_dir, "--out", run_dir] + SMALL_FLAGS)
    assert rc == 1
    assert "--force" in capsys.readouterr().err


def test_train_force_overwrites(tmp_path, data_dir):
    out = tmp_path / "fr"
    args = ["train", "--dataset", data_dir, "--out", str(out)] + SMALL_FLAGS
    assert cli.main(args) == 0
    assert cli.main(args + ["--force"]) == 0


def _tree_bytes(root):
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(Path(root).rglob("*")) if p.is_file()}


def test_train_failing_midway_leaves_no_partial_run(tmp_path, data_dir, monkeypatch):
    out = tmp_path / "atomic"
    args = ["train", "--dataset", data_dir, "--out", str(out)] + SMALL_FLAGS
    assert cli.main(args) == 0
    finished = _tree_bytes(out)

    def failing_export(rows, path):
        next(iter(rows))
        raise MvpruneError("disk full")

    monkeypatch.setattr(cli, "export_scores", failing_export)
    fresh = tmp_path / "fresh"
    assert cli.main(["train", "--dataset", data_dir, "--out", str(fresh)] + SMALL_FLAGS) == 1
    assert not fresh.exists()
    assert cli.main(args + ["--force"]) == 1
    assert _tree_bytes(out) == finished  # --force replaces <out> only on success
    assert sorted(os.listdir(tmp_path)) == ["atomic"]  # no <out>.tmp is left behind


def test_analyze_centrality(tmp_path, data_dir, run_dir):
    out = tmp_path / "diag"
    rc = cli.main(["analyze", "centrality", "--dataset", data_dir,
                   "--run", run_dir, "--out", str(out)])
    assert rc == 0
    with open(out / "centrality.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows and "betweenness" in rows[0]
    assert "pruned_mvp" in rows[0]
    assert any(f"pruned_{p}" in rows[0] for p in ("degree-bottom-10",))


def test_analyze_degree_profile(tmp_path, data_dir, run_dir):
    out = tmp_path / "prof"
    rc = cli.main(["analyze", "degree-profile", "--dataset", data_dir,
                   "--run", run_dir, "--out", str(out)])
    assert rc == 0
    with open(out / "degree_profile.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows and set(rows[0]) == {"policy", "degree", "nodes", "pruned", "fraction"}


def test_analyze_wrong_dataset_fingerprint(tmp_path, run_dir):
    other = tmp_path / "other"
    assert cli.main(["synth", "--graphs", "8", "--nodes", "6", "--seed", "3",
                     "--out", str(other)]) == 0
    rc = cli.main(["analyze", "centrality", "--dataset", str(other),
                   "--run", run_dir, "--out", str(tmp_path / "d")])
    assert rc == 1


def test_sweep(tmp_path, data_dir):
    out = tmp_path / "sweep"
    rc = cli.main(["sweep", "--dataset", data_dir, "--multipliers", "1,2",
                   "--out", str(out)] + SMALL_FLAGS)
    assert rc == 0
    with open(out / "sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["multiplier"] for r in rows] == ["1", "2"]
    # a looser threshold never prunes more
    assert float(rows[1]["pruned_fraction"]) <= float(rows[0]["pruned_fraction"])


def test_sweep_rejects_zero_multiplier(tmp_path, data_dir, capsys):
    rc = cli.main(["sweep", "--dataset", data_dir, "--multipliers", "0,1",
                   "--out", str(tmp_path / "sweep0")] + SMALL_FLAGS)
    assert rc == 2
    assert "threshold_c" in capsys.readouterr().err


def test_export_scores(tmp_path, data_dir, run_dir):
    out = tmp_path / "scores.csv"
    rc = cli.main(["export-scores", "--dataset", data_dir, "--run", run_dir,
                   "--out", str(out)])
    assert rc == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert rows and set(rows[0]) == {"graph_id", "node_id", "degree", "score", "kept"}
    assert all(r["kept"] in ("0", "1") for r in rows)


def test_export_scores_builds_no_tape(tmp_path, data_dir, run_dir, monkeypatch):
    results, real = [], tr.forward_batch

    def capturing(*args, **kwargs):
        results.append(real(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(tr, "forward_batch", capturing)
    assert cli.main(["export-scores", "--dataset", data_dir, "--run", run_dir,
                     "--out", str(tmp_path / "scores.csv")]) == 0
    assert results and all(r.logits._parents == () for r in results)


def test_export_scores_forwards_in_batches(tmp_path, data_dir, run_dir, monkeypatch):
    calls, real = [], tr.forward_batch

    def counting(model, graphs, *args, **kwargs):
        calls.append(len(graphs))
        return real(model, graphs, *args, **kwargs)

    monkeypatch.setattr(tr, "forward_batch", counting)
    out = tmp_path / "scores.csv"
    assert cli.main(["export-scores", "--dataset", data_dir, "--run", run_dir,
                     "--out", str(out)]) == 0
    dataset = cli._load_dataset(data_dir, None)
    model, config = cli._load_run_model(run_dir, dataset)
    assert len(calls) == -(-len(dataset) // config.batch_size) and max(calls) > 1

    def lone_rows():
        for gi, g in enumerate(dataset.graphs):
            with T.no_grad():
                res = tr.forward_graph(model, g)
            for node in range(g.n):
                yield gi, node, g.degrees[node], res.scores[node], res.indicator[node]

    lone = tmp_path / "lone.csv"
    prune.export_scores(lone_rows(), str(lone))
    assert out.read_bytes() == lone.read_bytes()


def test_analyze_and_export_use_a_trained_seed(tmp_path, data_dir, monkeypatch):
    real = tr.train_one

    def flaky(config, dataset, sp, seed):
        if seed == 0:
            raise ContractError("mean readout needs at least one kept node")
        return real(config, dataset, sp, seed)

    monkeypatch.setattr(tr, "train_one", flaky)
    run = tmp_path / "run"
    rc = cli.main(["train", "--dataset", data_dir, "--out", str(run)]
                  + SMALL_FLAGS + ["--seeds", "0,1"])
    assert rc == 1  # one seed failed
    assert sorted(os.listdir(run / "models")) == ["seed1.npz"]
    out = tmp_path / "scores.csv"
    assert cli.main(["export-scores", "--dataset", data_dir, "--run", str(run),
                     "--out", str(out)]) == 0
    assert out.read_bytes() == (run / "scores.csv").read_bytes()
    assert cli.main(["analyze", "degree-profile", "--dataset", data_dir,
                     "--run", str(run), "--out", str(tmp_path / "prof")]) == 0


@pytest.fixture(scope="module")
def two_seed_run(tmp_path_factory, data_dir):
    out = tmp_path_factory.mktemp("runs") / "r01"
    rc = cli.main(["train", "--dataset", data_dir, "--out", str(out)]
                  + SMALL_FLAGS + ["--seeds", "0,1"])
    assert rc == 0
    return out


def test_analyze_and_export_take_a_trained_seed(tmp_path, data_dir, two_seed_run,
                                                 monkeypatch):
    dataset = cli._load_dataset(data_dir, None)
    config = tr.TrainConfig.from_dict(
        json.loads((two_seed_run / "manifest.json").read_text())["config"])
    with np.load(two_seed_run / "models" / "seed1.npz") as state:
        model = tr.restore_model(config, dataset, 1, dict(state))
    want = tmp_path / "want.csv"
    prune.export_scores(cli._score_rows(model, dataset), str(want))
    base = ["--dataset", data_dir, "--run", str(two_seed_run)]
    for seed, expected in (([], two_seed_run / "scores.csv"), (["--seed", "0"],
                           two_seed_run / "scores.csv"), (["--seed", "1"], want)):
        out = tmp_path / "scores.csv"
        assert cli.main(["export-scores", *base, "--out", str(out), *seed]) == 0
        assert out.read_bytes() == expected.read_bytes(), seed
    assert want.read_bytes() != (two_seed_run / "scores.csv").read_bytes()
    restored, real = [], tr.restore_model

    def recording(config, dataset, seed, state):
        restored.append(seed)
        return real(config, dataset, seed, state)

    monkeypatch.setattr(tr, "restore_model", recording)
    for seed in ([], ["--seed", "1"], ["--seed", "0"]):
        assert cli.main(["analyze", "degree-profile", *base, "--out", str(tmp_path / "prof"),
                         *seed]) == 0
    assert restored == [0, 1, 0]


@pytest.mark.parametrize("command", [["export-scores"], ["analyze", "centrality"]])
def test_a_seed_the_run_did_not_train_is_a_load_error(tmp_path, data_dir, two_seed_run,
                                                       command, capsys):
    rc = cli.main([*command, "--dataset", data_dir, "--run", str(two_seed_run),
                   "--out", str(tmp_path / "out"), "--seed", "2"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"run {two_seed_run} has no trained seed 2" in err
    assert not (tmp_path / "out").exists()


def _copy_of(data_dir, tmp_path):
    """A copy of the corpus at `data_dir`, to break."""
    copy = tmp_path / "tiny"
    copy.mkdir()
    for path in Path(data_dir).iterdir():
        (copy / path.name).write_bytes(path.read_bytes())
    return copy


def test_a_non_integer_graph_id_exits_1_naming_the_line(tmp_path, data_dir, capsys):
    bad = _copy_of(data_dir, tmp_path)
    indicator = bad / "tiny_graph_indicator.txt"
    lines = indicator.read_text().splitlines()
    lines[4] = "1.5"
    indicator.write_text("\n".join(lines) + "\n")
    rc = cli.main(["train", "--dataset", str(bad), "--out", str(tmp_path / "run")] + SMALL_FLAGS)
    assert rc == 1
    assert capsys.readouterr().err == \
        "error: tiny_graph_indicator.txt line 5: cannot parse integer '1.5'\n"


def test_a_byte_that_is_not_text_exits_1_naming_the_file(tmp_path, data_dir, capsys):
    bad = _copy_of(data_dir, tmp_path)
    attributes = bad / "tiny_node_attributes.txt"
    attributes.write_bytes(b"\xff" + attributes.read_bytes())
    rc = cli.main(["train", "--dataset", str(bad), "--out", str(tmp_path / "run")] + SMALL_FLAGS)
    assert rc == 1
    assert capsys.readouterr().err == "error: tiny_node_attributes.txt: not utf-8 text\n"


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0


def test_metrics_count_what_the_readout_drops(tmp_path, data_dir, run_dir):
    # without MVP nothing is pruned before the backend, but attention top-k
    # keeps ceil(0.75 * 10) = 8 nodes of each 10-node graph for its readout
    out = tmp_path / "attention"
    rc = cli.main(["train", "--dataset", data_dir, "--out", str(out), "--no-mvp",
                   "--backend", "attention-topk"] + SMALL_FLAGS)
    assert rc == 0
    with open(out / "metrics.csv") as fh:
        [row] = list(csv.DictReader(fh))
    assert float(row["pruned_fraction"]) == 0.0
    assert float(row["readout_dropped_fraction"]) == 0.2
    with open(os.path.join(run_dir, "metrics.csv")) as fh:
        [row] = list(csv.DictReader(fh))
    assert float(row["readout_dropped_fraction"]) == 0.0  # MVP+mean reads what MVP keeps
