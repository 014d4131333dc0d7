import csv
import json
import os
from pathlib import Path

import pytest

from mvprune import cli, train as tr
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


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
