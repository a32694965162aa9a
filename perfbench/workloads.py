"""The benchmark's three workloads, driven through csarank's public functions.

Each workload is one caller in a closed loop: it issues its next query (or
training run) only after the previous one returned, the way ``cmd_rerank``
walks its rankings. Every call into the package goes through the module
attribute (``rerank.csa_rerank``, ``training.train``, ...) so that the
tracer's wrappers, when installed, see it. Inputs come only from the seed.
See README.md for why each workload exists and what each metric means.
"""

from __future__ import annotations

import sys
import time

import numpy as np

from csarank import (affinity, checkpoint, dataset, encoder, evaluation,
                     kernels, rerank, storage, training)

SETUP_REPS = 5          # setup_s is the median of this many full set-ups
# The untrained paper-size model is a constant of csa-paper, like a shipped
# checkpoint. Drawn from the workload seed, it spread mAP across seeds by 8%
# of its median (quartile distance), as much as a real change in ranking
# quality would move it.
MODEL_SEED = 0
SEARCH_TOL = 1e-5       # float32 rounding allowed at near-ties in the search check


class RunStats:
    """Everything a run measures; times are seconds unless a name says ms."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.setup_s = []
        self.search = []     # (queries, seconds, traced)
        self.rerank_s = []   # (seconds, traced)
        self.items = []      # (items, seconds, traced) of the main timed work
        self.fingerprint = {}  # deterministic outputs: map, loss, val map
        self.counters = {"dfs_solves": 0, "dfs_not_converged": 0,
                         "train_samples": 0, "train_samples_skipped": 0,
                         "train_steps": 0, "train_aborted_steps": 0}

    def fail(self, what: str) -> None:
        self.failed += 1
        print(f"failed: {what}", file=sys.stderr)


def _pick(seed: int, stream: int, population: list, size: int) -> list:
    rng = np.random.default_rng([seed, stream])
    return [population[i] for i in rng.choice(len(population), size, replace=False)]


def _clustered_ids(labels: dict) -> list:
    return sorted(i for i, lab in labels.items() if lab is not None)


class SearchReference:
    """Brute-force top-k: full argsort of float64 scores, ties by ascending id."""

    def __init__(self, emb):
        self.emb = emb
        self.rows = emb.rows.astype(np.float64)
        id_order = sorted(range(len(emb.ids)), key=emb.ids.__getitem__)
        self.id_rank = np.empty(len(emb.ids), dtype=np.int64)
        self.id_rank[id_order] = np.arange(len(emb.ids))

    def check(self, ranking, k: int, stats: RunStats) -> None:
        """The program's ranking must equal the reference, except that two ids
        whose scores differ by float32 rounding only may swap places."""
        stats.attempted += 1
        index = self.emb.index
        scores = self.rows @ self.rows[index[ranking.query_id]]
        ref = np.lexsort((self.id_rank, -scores))[:k]
        got = np.array([index[i] for i in ranking.ids])
        if len(got) != len(ref):
            stats.fail(f"search {ranking.query_id}: {len(got)} results, expected {len(ref)}")
        elif np.any(np.abs(scores[got] - scores[ref]) > SEARCH_TOL):
            stats.fail(f"search {ranking.query_id}: differs from brute-force reference")
        elif np.any(np.abs(ranking.scores - scores[got]) > SEARCH_TOL):
            stats.fail(f"search {ranking.query_id}: returned scores are wrong")


def check_rerank(ranking, result, k: int, stats: RunStats) -> bool:
    """Query-first; the top-k holds exactly the input's top-k; tail untouched."""
    k = min(k, len(ranking))
    problems = []
    if result.ids[0] != ranking.query_id:
        problems.append("not query-first")
    if set(result.ids[:k]) != set(ranking.ids[:k]):
        problems.append("top-k ids changed")
    if list(result.ids[k:]) != list(ranking.ids[k:]):
        problems.append("tail changed")
    if not result.converged:
        problems.append("solve did not converge")
    if problems:
        stats.fail(f"rerank {ranking.query_id}: {', '.join(problems)}")
    return not problems


class RerankLoop:
    """Re-ranks a fixed query pool in order, cycling; the first pass gives mAP,
    later passes must reproduce the first pass's output exactly."""

    def __init__(self, truth):
        self.truth = truth
        self.first_pass = {}

    def record(self, ranking, result, k, stats: RunStats) -> None:
        stats.attempted += 1
        if not check_rerank(ranking, result, k, stats):
            return
        seen = self.first_pass.get(ranking.query_id)
        if seen is None:
            self.first_pass[ranking.query_id] = result.to_ranking()
        elif seen.ids != list(result.ids):
            stats.fail(f"rerank {ranking.query_id}: output differs between passes")

    def map(self) -> float:
        return evaluation.mean_average_precision(list(self.first_pass.values()),
                                                 self.truth).map


def timed_search(emb, queries, depth, stats, traced) -> list:
    """First-round rankings from one knn_search_many call over all the queries,
    as `csarank search` makes it; search_qps is the median over calls."""
    t0 = time.perf_counter()
    rankings = dataset.knn_search_many(emb, queries, depth)
    stats.search.append((len(queries), time.perf_counter() - t0, traced))
    return rankings


def timed_rerank(method, emb, raw, k, stats, traced, **kw):
    """One query as cmd_rerank runs it: force query-first, then re-rank."""
    t0 = time.perf_counter()
    ranking = affinity.ensure_query_first(raw, raw.query_id)
    result = method(emb, ranking, k=k, **kw)
    stats.rerank_s.append((time.perf_counter() - t0, traced))
    return ranking, result


# ---------------------------------------------------------------------------
# csa-paper: paper-size encoder inference
# ---------------------------------------------------------------------------

class CsaPaper:
    """Paper-size CSA re-ranking of the top 512 of each query (K = L = 512)."""

    name = "csa-paper"
    main_phase = "rerank"
    spec_kw = dict(cluster_count=250, items_per_cluster=30, dim=128,
                   noise_sigma=0.14, num_views=1, distractor_count=2500)
    depth = 512
    pool_size = 256          # at least 200 timed queries, so 10 lie beyond p95
    checked_searches = 8
    min_rounds = pool_size

    def __init__(self, seed: int, workdir, set_phase):
        self.seed = seed
        self.config = encoder.EncoderConfig()   # 2 x 12 heads x 64, hidden 768

    def setup(self, stats: RunStats, directory) -> None:
        spec = dataset.SyntheticDatasetSpec(seed=self.seed, **self.spec_kw)
        views, truth, labels = dataset.generate_synthetic(spec)
        emb_path = directory / "embeddings_view0.csae"
        storage.write_embeddings(emb_path, views[0])
        emb = storage.read_embeddings(emb_path)
        pool = _pick(self.seed, 1, _clustered_ids(labels), self.pool_size)

        rankings = timed_search(emb, pool, self.depth, stats, False)
        rank_path = directory / "rankings.jsonl"
        storage.write_rankings(rank_path, rankings)
        rankings = storage.read_rankings(rank_path)

        ckpt_path = directory / "model.ckpt"
        checkpoint.save_checkpoint(
            ckpt_path, encoder.init_params(self.config, kernels.make_rng(MODEL_SEED)))
        params, _, _ = checkpoint.load_checkpoint(ckpt_path)
        self.emb, self.truth, self.rankings, self.params = emb, truth, rankings, params

    def check_setup(self, stats: RunStats) -> None:
        reference = SearchReference(self.emb)
        for r in _pick(self.seed, 2, self.rankings, self.checked_searches):
            reference.check(r, self.depth, stats)
        self.loop = RerankLoop(self.truth)

    def warmup(self) -> None:
        for raw in self.rankings[:3]:
            rerank.csa_rerank(self.emb, affinity.ensure_query_first(raw, raw.query_id),
                              self.params, self.depth)

    def round(self, i: int, stats: RunStats, traced: bool) -> None:
        raw = self.rankings[i % self.pool_size]
        ranking, result = timed_rerank(rerank.csa_rerank, self.emb, raw, self.depth,
                                       stats, traced, params=self.params,
                                       l=self.config.input_len)
        stats.items.append((1, stats.rerank_s[-1][0], traced))
        self.loop.record(ranking, result, self.depth, stats)

    def finish(self, stats: RunStats) -> None:
        stats.fingerprint["map"] = self.loop.map()


# ---------------------------------------------------------------------------
# db-dfs: database-scale search and diffusion
# ---------------------------------------------------------------------------

class DbDfs:
    """Exact search of a 20k database plus mutual-kNN diffusion re-ranking."""

    name = "db-dfs"
    main_phase = "rerank"
    spec_kw = dict(cluster_count=500, items_per_cluster=30, dim=128,
                   noise_sigma=0.14, num_views=1, distractor_count=5000)
    depth = 100
    k_graph = 50
    alpha = 0.99
    pool_size = 1024
    round_queries = 256      # one search call per round, knn_search_many's own chunk
    checked_per_round = 16   # seeded brute-force checks in the first pass
    min_rounds = pool_size // round_queries

    def __init__(self, seed: int, workdir, set_phase):
        self.seed = seed

    def setup(self, stats: RunStats, directory) -> None:
        spec = dataset.SyntheticDatasetSpec(seed=self.seed, **self.spec_kw)
        views, truth, labels = dataset.generate_synthetic(spec)
        emb_path = directory / "embeddings_view0.csae"
        storage.write_embeddings(emb_path, views[0])
        emb = storage.read_embeddings(emb_path)
        graph = rerank.build_diffusion_graph(emb, self.k_graph, self.alpha)
        self.emb, self.truth, self.graph = emb, truth, graph
        self.pool = _pick(self.seed, 1, _clustered_ids(labels), self.pool_size)

    def check_setup(self, stats: RunStats) -> None:
        self.reference = SearchReference(self.emb)
        self.loop = RerankLoop(self.truth)
        self.check_rng = np.random.default_rng([self.seed, 2])

    def warmup(self) -> None:
        for raw in dataset.knn_search_many(self.emb, self.pool[:3], self.depth):
            rerank.dfs_diffusion(self.emb, affinity.ensure_query_first(raw, raw.query_id),
                                 self.depth, graph=self.graph)

    def round(self, i: int, stats: RunStats, traced: bool) -> None:
        lo = (i % self.min_rounds) * self.round_queries
        queries = self.pool[lo:lo + self.round_queries]
        rankings = timed_search(self.emb, queries, self.depth, stats, traced)
        search_s = stats.search[-1][1]
        if i < self.min_rounds:
            for j in self.check_rng.choice(len(rankings), self.checked_per_round,
                                           replace=False):
                self.reference.check(rankings[j], self.depth, stats)
        rerank_s = 0.0
        for raw in rankings:
            ranking, result = timed_rerank(rerank.dfs_diffusion, self.emb, raw,
                                           self.depth, stats, traced, graph=self.graph)
            rerank_s += stats.rerank_s[-1][0]
            stats.counters["dfs_solves"] += 1
            stats.counters["dfs_not_converged"] += not result.converged
            self.loop.record(ranking, result, self.depth, stats)
        stats.items.append((len(queries), search_s + rerank_s, traced))

    def finish(self, stats: RunStats) -> None:
        stats.fingerprint["map"] = self.loop.map()


# ---------------------------------------------------------------------------
# train-small: training, then serving with the trained model
# ---------------------------------------------------------------------------

class TrainSmall:
    """Small-config training run (tape forward + backward), then CSA re-ranking
    of held-out queries with the model it produced."""

    name = "train-small"
    main_phase = "train"
    spec_kw = dict(cluster_count=125, items_per_cluster=30, dim=128,
                   noise_sigma=0.14, num_views=2, distractor_count=1250)
    k = 128
    train_queries = 300      # x 2 views = 600 samples
    epochs = 2
    batch = 32
    eval_pool = 512
    eval_depth = 200         # deeper than K, so the untouched tail is checked
    checked_searches = 4
    min_rounds = 2           # the second run must reproduce the first

    def __init__(self, seed: int, workdir, set_phase):
        self.seed = seed
        self.workdir = workdir
        self.set_phase = set_phase   # names the layer spans' phase when tracing
        self.config = encoder.EncoderConfig(depth=2, heads=4, head_dim=32,
                                            hidden=128, input_len=self.k)

    def setup(self, stats: RunStats, directory) -> None:
        spec = dataset.SyntheticDatasetSpec(seed=self.seed, **self.spec_kw)
        views, truth, labels = dataset.generate_synthetic(spec)
        paths = [directory / f"embeddings_view{m}.csae" for m in range(len(views))]
        for path, view in zip(paths, views):
            storage.write_embeddings(path, view)
        storage.write_labels(directory / "labels.json", labels)
        views = [storage.read_embeddings(p) for p in paths]
        labels = storage.read_labels(directory / "labels.json")

        eligible = _clustered_ids(labels)
        train_q = sorted(_pick(self.seed, 1, eligible, self.train_queries))
        held_out = sorted(set(eligible) - set(train_q))
        self.samples = affinity.build_training_samples(views, labels, self.k, self.k,
                                                       query_ids=train_q)
        self.emb, self.truth = views[0], truth
        self.pool = _pick(self.seed, 2, held_out, self.eval_pool)

    def check_setup(self, stats: RunStats) -> None:
        self.reference = SearchReference(self.emb)
        self.loop = RerankLoop(self.truth)
        self.first = None

    def warmup(self) -> None:
        params = encoder.init_params(self.config, kernels.make_rng(self.seed))
        for raw in dataset.knn_search_many(self.emb, self.pool[:3], self.eval_depth):
            rerank.csa_rerank(self.emb, affinity.ensure_query_first(raw, raw.query_id),
                              params, self.k)

    def round(self, i: int, stats: RunStats, traced: bool) -> None:
        params = encoder.init_params(self.config, kernels.make_rng(self.seed))
        run_config = training.TrainRunConfig(epochs=self.epochs, batch_size=self.batch,
                                             seed=self.seed)
        out_dir = self.workdir / f"train{i}"   # fresh files, like set-up
        self.set_phase("train")
        t0 = time.perf_counter()
        result = training.train(self.samples, params, training.LossConfig(), run_config,
                                out_dir=out_dir, state=training.SgdState())
        train_s = time.perf_counter() - t0
        self._check_training(result, stats)
        trained = sum(rec["batch_used"] for rec in result.log)
        stats.items.append((trained, train_s, traced))
        # Serve the selected model from its file, as `csarank rerank` would.
        params, _, _ = checkpoint.load_checkpoint(out_dir / "best.ckpt")

        self.set_phase("rerank")
        rankings = timed_search(self.emb, self.pool, self.eval_depth, stats, traced)
        if i == 0:
            for r in _pick(self.seed, 3, rankings, self.checked_searches):
                self.reference.check(r, self.eval_depth, stats)
        for raw in rankings:
            ranking, result = timed_rerank(rerank.csa_rerank, self.emb, raw, self.k,
                                           stats, traced, params=params, l=self.k)
            self.loop.record(ranking, result, self.k, stats)

    def _check_training(self, result, stats: RunStats) -> None:
        c = stats.counters
        c["train_samples"] += len(self.samples)
        c["train_samples_skipped"] += result.samples_skipped
        c["train_steps"] += len(result.log)
        c["train_aborted_steps"] += result.aborted_steps
        stats.attempted += len(self.samples) + len(result.log)
        for _ in range(result.samples_skipped):
            stats.fail("training sample skipped (no positives)")
        for _ in range(result.aborted_steps):
            stats.fail("training step aborted")
        losses = [rec["loss_total"] for rec in result.log]
        if not losses or not np.all(np.isfinite(losses)):
            stats.fail("training loss is not finite")
            return
        outcome = (losses[-1], result.best_val_map)
        if self.first is None:
            self.first = outcome
            stats.fingerprint["train_loss_final"] = losses[-1]
            stats.fingerprint["train_val_map"] = result.best_val_map
        elif outcome != self.first:
            stats.fail(f"training not reproducible: {outcome} != {self.first}")

    def finish(self, stats: RunStats) -> None:
        stats.fingerprint["map"] = self.loop.map()


WORKLOADS = {w.name: w for w in (CsaPaper, DbDfs, TrainSmall)}
