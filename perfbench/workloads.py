"""The benchmark's workloads: corpus, set-up, one round of fixed work, checks.

A run sets up several times, then repeats identical rounds (same corpus, same
training seed) for its time budget. Every round trains from scratch and so
must reproduce the first round's results bit for bit.
"""

from __future__ import annotations

import csv
import gc
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from statistics import median

import numpy as np

from mvprune import analysis, graphio, prune, train
from mvprune.errors import MvpruneError

import checks

# The acceptance architecture: views 4, latent 32, lr 2e-3, batch 32.
ARCH = dict(views=4, latent_width=32, learning_rate=2e-3, batch_size=32)
SETUP_REPS = 3         # set-ups before the first round; one more follows each round
BETWEENNESS_SAMPLE = 6  # graphs checked against pair enumeration per run


@dataclass(frozen=True)
class Workload:
    name: str
    corpus: dict            # corpus.py arguments; "seed" None means the run's --seed
    config: dict
    planted_gates: bool     # apply the criterion-4 recall / false-positive gates
    post_hoc: bool          # sweep, export, degree profile and centrality after training
    eval_samples: int       # timed forwards per round, at least this many: >= 10 beyond p99


WORKLOADS = {w.name: w for w in (
    Workload("planted-mvp",
             dict(kind="planted", graphs=200, nodes=20, anomaly=0.15, seed=7),
             dict(ARCH, pretrain_epochs=10, epochs=30, backend="mean"),
             planted_gates=True, post_hoc=True, eval_samples=2000),
    Workload("large-mincut",
             dict(kind="proteins", seed=None),
             dict(ARCH, pretrain_epochs=2, epochs=4, backend="mincut"),
             planted_gates=False, post_hoc=False, eval_samples=1200),
)}


@dataclass
class Round:
    seconds: float = 0.0
    train_seconds: float = 0.0
    train_steps: int = 0
    eval_seconds: float = 0.0
    latencies: list = field(default_factory=list)
    indicators: list = field(default_factory=list)
    scores: list = field(default_factory=list)
    logits: list = field(default_factory=list)
    loss_trace: list = field(default_factory=list)
    sweep: list = field(default_factory=list)
    profile: list = field(default_factory=list)
    failed: str | None = None


class Run:
    def __init__(self, workload: Workload, seed: int, work_dir: str, src_dir: str):
        self.w, self.seed, self.work, self.src = workload, seed, work_dir, src_dir
        self.tracer = None  # a layers.Tracer during a traced run
        self.config = train.TrainConfig(seeds=(seed,), **workload.config)
        self.name = "corpus"
        self.setup_times: list[float] = []
        self.layers_setup: list[dict] = []
        self.layers_train: list[dict] = []
        self.layers_rest: list[dict] = []

    def _segment(self, into: list):
        """Close a span of the traced run: layer totals since the last segment."""
        if self.tracer is not None:
            into.append(self.tracer.take())

    # -- corpus and set-up -------------------------------------------------
    def make_corpus(self):
        spec = dict(self.w.corpus)
        gen_seed = spec.pop("seed")
        if gen_seed is None:
            gen_seed = self.seed
        cmd = [sys.executable, os.path.join(os.path.dirname(__file__), "corpus.py"),
               "--kind", spec.pop("kind"), "--seed", str(gen_seed), "--out", self.work,
               "--name", self.name, "--src", self.src]
        for key, value in spec.items():
            cmd += [f"--{key}", str(value)]
        subprocess.run(cmd, check=True, timeout=170, stdout=subprocess.DEVNULL)
        self.truth = graphio.load_anomaly_truth(self.work, self.name)

    def setup(self):
        """One timed set-up: load_tu, split, scaler fit and model build."""
        if self.tracer is not None and not self.setup_times:
            self.tracer.take()  # drop anything recorded before the first set-up
        start = time.perf_counter()
        dataset = graphio.load_tu(self.work, self.name)
        sp = graphio.split(dataset, self.seed)
        train.build_model(self.config, dataset, sp, self.seed)
        self.setup_times.append(time.perf_counter() - start)
        self._segment(self.layers_setup)
        self.dataset, self.sp = dataset, sp
        self.passes = -(-self.w.eval_samples // len(dataset))

    def measure(self, seconds: float):
        """Set up, then run whole rounds while another one fits in the budget.

        A set-up follows every round too, so that the set-up samples, like the
        rounds, spread over the whole run rather than its first seconds.
        Returns the rounds.
        """
        for _ in range(SETUP_REPS):
            self.setup()
        rounds, walls, start = [], [], time.perf_counter()
        while True:
            t0 = time.perf_counter()
            r = self.round()
            rounds.append(r)
            self.setup()
            walls.append(time.perf_counter() - t0)
            print(f"round {len(rounds)}: {r.seconds:.2f} s (train {r.train_seconds:.2f} s)"
                  + (f" FAILED {r.failed}" if r.failed else ""), file=sys.stderr)
            if time.perf_counter() - start + median(walls) > seconds:
                return rounds

    # -- one round ---------------------------------------------------------
    def operations_per_round(self) -> int:
        n = len(self.dataset)
        ops = 1 + (1 + self.passes) * n  # training, warm-up pass, timed passes
        if self.w.post_hoc:
            ops += len(analysis.DEFAULT_MULTIPLIERS) * n + 3
        return ops

    def round(self) -> Round:
        r = Round()
        start = time.perf_counter()
        segments = []
        try:
            self._train(r)
            self._segment(segments)
            self._evaluate(r)
            if self.w.post_hoc:
                self._post_hoc(r)
            self._segment(segments)
        except MvpruneError as exc:
            r.failed = f"{type(exc).__name__}: {exc}"
            self._segment(segments)
        r.seconds = time.perf_counter() - start
        if r.failed is None and segments:
            self.layers_train.append(segments[0])
            self.layers_rest.append(segments[1])
        return r

    def _train(self, r: Round):
        cfg = self.config
        epochs = cfg.epochs + (cfg.pretrain_epochs if cfg.use_mvp else 0)
        t0 = time.perf_counter()
        self.model, loss_trace = train.train_one(cfg, self.dataset, self.sp, self.seed)
        r.train_seconds = time.perf_counter() - t0
        r.train_steps = epochs * len(self.sp.train)
        r.loss_trace = loss_trace["total_loss"]

    def _evaluate(self, r: Round):
        """One untimed warm-up pass and a collection of what training left for
        the cyclic GC, then the timed passes."""
        graphs, clock = self.dataset.graphs, time.perf_counter
        for g in graphs:
            train.forward_graph(self.model, g)
        gc.collect()
        t0 = clock()
        for p in range(self.passes):
            for g in graphs:
                s = clock()
                res = train.forward_graph(self.model, g)
                r.latencies.append(clock() - s)
                if p == 0:
                    r.indicators.append(res.indicator)
                    r.scores.append(res.scores)
                    r.logits.append(res.logits.values)
        r.eval_seconds = clock() - t0

    def _post_hoc(self, r: Round):
        graphs, model = self.dataset.graphs, self.model
        t0 = time.perf_counter()
        for c in analysis.DEFAULT_MULTIPLIERS:
            pruned = [1.0 - train.forward_graph(model, g, threshold_c=c).indicator.mean()
                      for g in graphs]
            r.sweep.append((c, float(np.mean(pruned))))
        if self.tracer is not None:
            self.tracer.add("analysis.sweep_eval_s", time.perf_counter() - t0)

        def score_rows():
            for gi, g in enumerate(graphs):
                res = train.forward_graph(model, g)
                for node, (deg, score, kept) in enumerate(zip(g.degrees, res.scores,
                                                              res.indicator)):
                    yield gi, node, deg, score, kept

        prune.export_scores(score_rows(), os.path.join(self.work, "scores.csv"))
        r.profile = analysis.degree_pruning_profile(
            self.dataset, {"mvp": r.scores}, c=self.config.threshold_c,
            keep_ratio=self.config.keep_ratio)
        keeps = {"mvp": r.indicators}
        for policy in analysis.DEGREE_POLICIES:
            keeps[policy] = [analysis.policy_indicator(policy, g) for g in graphs]
        analysis.write_centrality_csv(os.path.join(self.work, "centrality.csv"),
                                      self.dataset, keeps)

    # -- checks ------------------------------------------------------------
    def recall(self, r: Round) -> tuple[float, float]:
        return checks.recall_and_false_positives(r.indicators, self.truth)

    def check(self, rounds: list[Round]) -> list[str]:
        done = [r for r in rounds if r.failed is None]
        if not done:
            return ["no round completed"]
        first, c = done[0], self.config.threshold_c
        graphs = self.dataset.graphs
        problems = checks.finite_logits(first.logits)
        problems += checks.loss_falls({"total_loss": first.loss_trace},
                                      self.config.pretrain_epochs)
        problems += checks.chebyshev(first.indicators, c)
        problems += checks.indicators_match_scores(first.scores, first.indicators, c)
        if self.w.planted_gates:
            problems += checks.planted_gates(*self.recall(first))
        if self.w.post_hoc:
            problems += checks.exported_scores(os.path.join(self.work, "scores.csv"), graphs, c)
            problems += checks.sweep_monotone(first.sweep)
            policies = ("mvp",) + tuple(analysis.DEGREE_POLICIES)
            problems += checks.profile_counts(first.profile, policies,
                                              sum(g.n for g in graphs))
            problems += self._check_betweenness()
        for i, r in enumerate(done[1:], start=2):
            same = (r.loss_trace == first.loss_trace
                    and all(np.array_equal(a, b) for a, b in zip(r.indicators, first.indicators))
                    and all(np.array_equal(a, b) for a, b in zip(r.logits, first.logits)))
            if not same:
                problems.append(f"round {i} did not reproduce round 1")
        return problems

    def _check_betweenness(self) -> list[str]:
        rng = np.random.default_rng([self.seed, 0x4245])
        picks = sorted(int(i) for i in rng.choice(len(self.dataset), BETWEENNESS_SAMPLE,
                                                  replace=False))
        values = {gi: [] for gi in picks}
        with open(os.path.join(self.work, "centrality.csv"), newline="") as fh:
            for row in csv.DictReader(fh):
                gi = int(row["graph_id"])
                if gi in values:
                    values[gi].append(float(row["betweenness"]))
        return checks.betweenness([(gi, self.dataset.graphs[gi]) for gi in picks],
                                  [values[gi] for gi in picks])
