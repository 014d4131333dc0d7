import csv

import numpy as np
import pytest

from mvprune import analysis, train as tr
from mvprune.errors import ContractError
from mvprune.graphio import Dataset, Graph, split, synth_planted_anomalies

from oracles import betweenness_enum, harmonic_mean_loop, random_graph


def graph_from_edges(n, edges, label=0):
    adj = np.zeros((n, n))
    for a, b in edges:
        adj[a, b] = adj[b, a] = 1.0
    return Graph(adjacency=adj, features=np.zeros((n, 2)), label=label)


def test_betweenness_path_of_four():
    # path 0-1-2-3: inner nodes carry 2 pairs each
    g = graph_from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert np.allclose(analysis.betweenness(g), [0.0, 2.0, 2.0, 0.0])


def test_betweenness_star():
    # center of a 5-star lies on all C(4,2)=6 leaf pairs
    g = graph_from_edges(5, [(0, i) for i in range(1, 5)])
    assert np.allclose(analysis.betweenness(g), [6.0, 0, 0, 0, 0])


def test_betweenness_complete_graph_is_zero():
    g = graph_from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    assert np.allclose(analysis.betweenness(g), np.zeros(4))


def test_betweenness_cycle_splits_pairs():
    # 4-cycle: opposite pairs have two shortest paths, each via one node
    g = graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert np.allclose(analysis.betweenness(g), [0.5] * 4)


def test_betweenness_disconnected_components():
    g = graph_from_edges(5, [(0, 1), (1, 2)])  # plus two isolated nodes
    assert np.allclose(analysis.betweenness(g), [0, 1.0, 0, 0, 0])


def test_betweenness_matches_enumeration_oracle():
    rng = np.random.default_rng(0)
    for _ in range(15):
        n = int(rng.integers(4, 13))
        adj, _ = random_graph(rng, n, p=0.3, d=2)
        g = Graph(adjacency=adj, features=np.zeros((n, 2)), label=0)
        assert np.allclose(analysis.betweenness(g), betweenness_enum(adj), atol=1e-9)


def test_harmonic_mean_hand_case():
    # 2 / (1/3 + 1/4) = 24/7
    assert analysis.harmonic_mean([3.0, 4.0]) == pytest.approx(24.0 / 7.0, rel=1e-8)


def test_harmonic_mean_empty_and_zeros():
    assert analysis.harmonic_mean([]) == 0.0
    assert analysis.harmonic_mean([0.0, 5.0]) == pytest.approx(0.0, abs=1e-8)


def test_harmonic_mean_matches_loop():
    rng = np.random.default_rng(1)
    for _ in range(20):
        vals = rng.uniform(0, 10, size=int(rng.integers(1, 9)))
        assert analysis.harmonic_mean(vals) == pytest.approx(
            harmonic_mean_loop(vals), rel=1e-12)


# -- policies --------------------------------------------------------------

def test_degree_bottom_policies_on_star():
    g = graph_from_edges(10, [(0, i) for i in range(1, 10)])
    keep10 = analysis.policy_indicator("degree-bottom-10", g)
    assert keep10.sum() == 9  # floor(0.1 * 10) = 1 pruned, lowest degree first
    assert keep10[1] == 0.0   # ties resolved toward the lower index; hub kept
    assert keep10[0] == 1.0
    keep20 = analysis.policy_indicator("degree-bottom-20", g)
    assert keep20.sum() == 8


def test_degree_cutoff_policies():
    g = graph_from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2)])
    lt3 = analysis.policy_indicator("degree-lt-3", g)
    assert np.array_equal(lt3, [1.0, 0.0, 0.0, 0.0, 0.0])
    lt4 = analysis.policy_indicator("degree-lt-4", g)
    assert np.array_equal(lt4, [1.0, 0.0, 0.0, 0.0, 0.0])


def test_score_policies_need_scores():
    g = graph_from_edges(3, [(0, 1)])
    with pytest.raises(ContractError):
        analysis.policy_indicator("mvp", g)
    with pytest.raises(ContractError):
        analysis.policy_indicator("unknown-policy", g)


def test_mvp_policy_matches_indicator():
    g = graph_from_edges(4, [(0, 1), (2, 3)])
    scores = np.array([0.0, 0.0, 0.0, 50.0])
    keep = analysis.policy_indicator("mvp", g, scores, c=1.0)
    assert np.array_equal(keep, [1.0, 1.0, 1.0, 0.0])


def test_attention_policy_keeps_top_fraction():
    g = graph_from_edges(4, [(0, 1), (2, 3)])
    keep = analysis.policy_indicator("attention", g, np.array([4.0, 3.0, 2.0, 1.0]),
                                     keep_ratio=0.5)
    assert np.array_equal(keep, [1.0, 1.0, 0.0, 0.0])


def test_betweenness_relabeling_invariance():
    rng = np.random.default_rng(2)
    adj, _ = random_graph(rng, 9, p=0.35, d=2)
    perm = rng.permutation(9)
    g = Graph(adjacency=adj, features=np.zeros((9, 2)), label=0)
    gp = Graph(adjacency=adj[np.ix_(perm, perm)], features=np.zeros((9, 2)), label=0)
    assert np.allclose(analysis.betweenness(gp), analysis.betweenness(g)[perm], atol=1e-9)


# -- corpus summaries ------------------------------------------------------

def make_dataset(graphs):
    return Dataset(name="t", graphs=graphs, d=graphs[0].features.shape[1],
                   num_classes=1 + max(g.label for g in graphs))


def test_pruned_kept_mean_degree():
    g = graph_from_edges(4, [(0, 1), (0, 2), (0, 3)])  # degrees 3,1,1,1
    ds = make_dataset([g])
    mp, mk = analysis.pruned_kept_mean_degree(ds, [np.array([1.0, 0.0, 0.0, 1.0])])
    assert mp == pytest.approx(1.0)
    assert mk == pytest.approx(2.0)


def test_pruned_centrality_harmonic_means_skips_no_prune():
    g1 = graph_from_edges(4, [(0, 1), (1, 2), (2, 3)])
    g2 = graph_from_edges(3, [(0, 1), (1, 2)])
    ds = make_dataset([g1, g2])
    keeps = [np.array([1.0, 0.0, 1.0, 1.0]), np.ones(3)]
    hms = analysis.pruned_centrality_harmonic_means(ds, keeps)
    assert len(hms) == 1
    assert hms[0] == pytest.approx(2.0, rel=1e-6)  # node 1 of the path


def test_degree_pruning_profile_counts():
    g = graph_from_edges(4, [(0, 1), (0, 2), (0, 3)])
    ds = make_dataset([g])
    rows = analysis.degree_pruning_profile(
        ds, {"mvp": [np.array([100.0, 0.0, 0.0, 0.0])]}, policies=("mvp",), c=0.5)
    by_degree = {r.degree: r for r in rows}
    assert by_degree[3].pruned == 1 and by_degree[3].nodes == 1
    assert by_degree[1].pruned == 0 and by_degree[1].nodes == 3
    assert by_degree[3].fraction == 1.0


def test_write_centrality_csv(tmp_path):
    g = graph_from_edges(3, [(0, 1), (1, 2)])
    ds = make_dataset([g])
    path = tmp_path / "c.csv"
    analysis.write_centrality_csv(str(path), ds, {"mvp": [np.array([1.0, 0.0, 1.0])]})
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3
    assert rows[1]["betweenness"] == "1"
    assert rows[1]["pruned_mvp"] == "1"
    assert rows[0]["pruned_mvp"] == "0"


def test_sweep_pruned_fraction_is_pruned_nodes_over_nodes():
    small, _ = synth_planted_anomalies(12, 8, 0.15, seed=0)
    large, _ = synth_planted_anomalies(12, 24, 0.15, seed=1)
    ds = Dataset(small.graphs + large.graphs, small.d, 2, "mixed")
    cfg = tr.TrainConfig(epochs=2, pretrain_epochs=1, views=4, latent_width=8,
                         batch_size=8, seeds=(0,), classifier_hidden=8)
    points = analysis.threshold_sweep(ds, cfg, (0.5, 1.0, 2.0))
    sp = split(ds, 0)
    model, _ = tr.train_one(cfg, ds, sp, 0)  # training is deterministic
    per_graph_means = []
    for p in points:
        keeps = [tr.forward_graph(model, ds.graphs[i], threshold_c=p.multiplier).indicator
                 for i in sp.test]
        pruned = sum(int((k == 0).sum()) for k in keeps)
        assert p.pruned_fraction == pruned / sum(k.size for k in keeps)
        per_graph_means.append(float(np.mean([1.0 - k.mean() for k in keeps])))
    # the corpus tells the node-weighted form from the mean of per-graph fractions
    assert [p.pruned_fraction for p in points] != per_graph_means
