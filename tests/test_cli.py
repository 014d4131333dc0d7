import argparse
import csv
import json
import os
import shutil
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


def test_manifest_records_the_blas_thread_counts(tmp_path, data_dir, monkeypatch):
    # products of large graphs round by thread count, so a replay matches only
    # at equal counts; the counts stay out of the config and the outputs
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setenv("OMP_NUM_THREADS", "2")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    out = tmp_path / "run"
    assert cli.main(["train", "--dataset", data_dir, "--out", str(out)] + SMALL_FLAGS) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["environment"] == {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "2",
                                       "MKL_NUM_THREADS": None}
    assert not any("THREADS" in key for key in manifest["config"])
    for name in ("report.json", "metrics.csv", "scores.csv"):
        assert "THREADS" not in (out / name).read_text(), name
    replay = tmp_path / "replay"
    assert cli.main(["train", "--dataset", data_dir, "--out", str(replay),
                     "--config", str(out / "manifest.json")]) == 0
    assert (replay / "scores.csv").read_bytes() == (out / "scores.csv").read_bytes()


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


def test_export_scores_creates_the_directory_of_its_out(tmp_path, data_dir, run_dir, capsys):
    # as analyze creates its --out directory
    out = tmp_path / "missing" / "deeper" / "scores.csv"
    assert cli.main(["export-scores", "--dataset", data_dir, "--run", run_dir,
                     "--out", str(out)]) == 0
    assert out.read_bytes() == (Path(run_dir) / "scores.csv").read_bytes()
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("place", ["is-a-file", "under-a-file"])
@pytest.mark.parametrize("command", ["train", "sweep", "synth", "analyze", "export-scores"])
def test_an_out_that_is_or_lies_under_a_file_exits_1_before_any_work(
        tmp_path, data_dir, run_dir, command, place, monkeypatch, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    out = blocker if place == "is-a-file" else blocker / "out"
    if command == "export-scores":  # its --out is the file it writes, in that directory
        out = blocker / "scores.csv" if place == "is-a-file" else blocker / "out" / "scores.csv"

    def no_work(*args, **kwargs):
        raise AssertionError("worked before checking --out")

    for name in ("run_trials", "_load_dataset", "synth_planted_anomalies"):
        monkeypatch.setattr(cli, name, no_work)
    argv = {"train": ["train", "--dataset", data_dir] + SMALL_FLAGS,
            "sweep": ["sweep", "--dataset", data_dir] + SMALL_FLAGS,
            "synth": ["synth", "--graphs", "4", "--nodes", "6"],
            "analyze": ["analyze", "centrality", "--dataset", data_dir, "--run", run_dir],
            "export-scores": ["export-scores", "--dataset", data_dir, "--run", run_dir]}[command]
    assert cli.main(argv + ["--out", str(out)]) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line == f"error: cannot write to {out.parent if command == 'export-scores' else out}: " \
                   f"{blocker} is not a directory"
    assert blocker.read_text() == "not a directory"


def test_an_export_out_that_is_a_directory_exits_1(tmp_path, data_dir, run_dir, capsys):
    assert cli.main(["export-scores", "--dataset", data_dir, "--run", run_dir,
                     "--out", str(tmp_path)]) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and str(tmp_path) in line


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


DAMAGES = ["manifest-not-json", "manifest-without-fingerprint", "weights-not-numpy",
           "weights-with-an-unknown-key", "weights-with-a-mis-shaped-key", "weights-of-clf.b2-only"]


def _damage(run, case):
    """Break the copy of a run at `run` as `case` names; returns the name of
    the file it broke and what the error line must also say."""
    manifest, weights = run / "manifest.json", run / "models" / "seed0.npz"
    with np.load(weights) as npz:
        state = dict(npz)
    if case == "manifest-not-json":
        manifest.write_text("{not json")
        return "manifest.json", "JSONDecodeError"
    if case == "manifest-without-fingerprint":
        content = json.loads(manifest.read_text())
        del content["dataset"]["fingerprint"]
        manifest.write_text(json.dumps(content))
        return "manifest.json", "KeyError 'fingerprint'"
    if case == "weights-not-numpy":
        weights.write_bytes(b"weights")
        return "seed0.npz", ""
    if case == "weights-with-an-unknown-key":
        np.savez(weights, bogus=np.ones(2), **state)
        return "seed0.npz", "extra bogus"
    if case == "weights-with-a-mis-shaped-key":
        np.savez(weights, **dict(state, **{"clf.b2": np.ones((1, 5))}))
        return "seed0.npz", "mis-shaped clf.b2"
    np.savez(weights, **{"clf.b2": state["clf.b2"]})  # the rest of the model stays untrained
    return "seed0.npz", "missing clf.b1, clf.w1, clf.w2, recon.b"


@pytest.mark.parametrize("command", [["export-scores"], ["analyze", "centrality"]])
@pytest.mark.parametrize("case", DAMAGES)
def test_a_damaged_run_exits_1_naming_the_file(tmp_path, data_dir, run_dir, case, command,
                                               capsys):
    run = tmp_path / "run"
    shutil.copytree(run_dir, run)
    file_name, detail = _damage(run, case)
    rc = cli.main([*command, "--dataset", data_dir, "--run", str(run),
                   "--out", str(tmp_path / "out")])
    assert rc == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: damaged ") and file_name in line and detail in line
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
