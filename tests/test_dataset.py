"""Synthetic generation properties and exact first-round retrieval."""

import numpy as np
import pytest

from csarank.dataset import (
    GroundTruth,
    SyntheticDatasetSpec,
    generate_synthetic,
    knn_search,
    knn_search_many,
)
from csarank.affinity import EmbeddingMatrix
from csarank.kernels import l2_normalize_rows, make_rng


class TestGenerate:
    def test_zero_noise_collapses_clusters(self):
        spec = SyntheticDatasetSpec(cluster_count=4, items_per_cluster=5, dim=16,
                                    noise_sigma=0.0, num_views=1,
                                    distractor_count=0, seed=1)
        views, _, labels = generate_synthetic(spec)
        emb = views[0]
        first_cluster = emb.rows[:5]
        sims = first_cluster @ first_cluster.T
        np.testing.assert_allclose(sims, 1.0, atol=1e-6)

    def test_seeding_contract_across_views_and_runs(self):
        spec = SyntheticDatasetSpec(cluster_count=3, items_per_cluster=4, dim=8,
                                    noise_sigma=0.1, num_views=2,
                                    distractor_count=5, seed=7)
        run1, _, _ = generate_synthetic(spec)
        run2, _, _ = generate_synthetic(spec)
        assert run1[0].rows.tobytes() == run2[0].rows.tobytes()
        assert run1[1].rows.tobytes() == run2[1].rows.tobytes()
        assert run1[0].rows.tobytes() != run1[1].rows.tobytes()

    def test_within_cluster_cosine_exceeds_cross_cluster(self):
        spec = SyntheticDatasetSpec(cluster_count=10, items_per_cluster=8, dim=32,
                                    noise_sigma=0.1, num_views=1,
                                    distractor_count=0, seed=3)
        views, _, labels = generate_synthetic(spec)
        emb = views[0]
        lab = np.array([labels[i] for i in emb.ids])
        sims = emb.rows @ emb.rows.T
        same = lab[:, None] == lab[None, :]
        np.fill_diagonal(same, False)
        off_diag = ~np.eye(len(lab), dtype=bool)
        within = sims[same].mean()
        cross = sims[~same & off_diag].mean()
        assert within > cross

    def test_truth_and_labels_consistent(self):
        spec = SyntheticDatasetSpec(cluster_count=3, items_per_cluster=4, dim=8,
                                    num_views=1, distractor_count=6, seed=5)
        views, truth, labels = generate_synthetic(spec)
        for qid, pos in truth.positives.items():
            assert qid not in pos
            if labels[qid] is None:
                assert not pos
            else:
                assert len(pos) == 3
                assert all(labels[p] == labels[qid] for p in pos)
        assert len(truth.positives) == len(views[0])

    def test_ground_truth_invariants_enforced(self):
        with pytest.raises(ValueError, match="own positives"):
            GroundTruth({"a": {"a", "b"}})
        with pytest.raises(ValueError, match="overlap"):
            GroundTruth({"a": {"b"}}, ignores={"a": {"b"}})


def small_db(seed=0, n=12, dim=6):
    rows = l2_normalize_rows(make_rng(seed).standard_normal((n, dim)))
    return EmbeddingMatrix([f"v{i:02d}" for i in range(n)],
                           rows.astype(np.float32))


class TestKnnSearch:
    def test_query_ranks_first_with_unit_score(self):
        emb = small_db()
        r = knn_search(emb, "v03", 5)
        assert r.ids[0] == "v03"
        assert abs(r.scores[0] - 1.0) < 1e-6

    def test_full_depth_returns_everything_sorted(self):
        emb = small_db(1)
        r = knn_search(emb, "v00", len(emb))
        assert len(r) == len(emb)
        assert np.all(np.diff(r.scores) <= 1e-12)
        assert set(r.ids) == set(emb.ids)

    def test_matches_sort_oracle(self):
        emb = small_db(2)
        q = "v05"
        r = knn_search(emb, q, 12)
        sims = {i: float(emb.vector(i) @ emb.vector(q)) for i in emb.ids}
        oracle = sorted(emb.ids, key=lambda i: (-sims[i], i))
        assert r.ids == oracle

    def test_ties_broken_by_id(self):
        rows = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0], [0.0, 1.0]],
                        dtype=np.float32)
        emb = EmbeddingMatrix(["q", "c", "a", "b"], rows)
        r = knn_search(emb, "q", 4)
        assert r.ids == ["q", "a", "b", "c"]

    def test_unknown_id_rejected(self):
        with pytest.raises(KeyError):
            knn_search(small_db(), "nope", 3)

    def test_batched_equals_single(self):
        # knn_search is knn_search_many of one, so both are held to the
        # brute-force sort rather than to each other
        emb = small_db(3)
        queries = ["v01", "v07", "v11"]
        many = knn_search_many(emb, queries, 6, chunk=2)
        for q, got in zip(queries, many):
            sims = {i: float(emb.vector(i) @ emb.vector(q)) for i in emb.ids}
            oracle = sorted(emb.ids, key=lambda i: (-sims[i], i))[:6]
            assert got.ids == oracle
            np.testing.assert_allclose(got.scores, [sims[i] for i in oracle],
                                       atol=1e-6)
            assert knn_search(emb, q, 6).ids == oracle

    def test_negative_k_rejected(self):
        emb = small_db()
        with pytest.raises(ValueError, match="k must be >= 0"):
            knn_search(emb, "v00", -2)
        with pytest.raises(ValueError, match="k must be >= 0"):
            knn_search_many(emb, ["v00", "v01"], -1)

    def test_zero_k_returns_empty_rankings(self):
        emb = small_db()
        assert len(knn_search(emb, "v00", 0)) == 0
        assert [len(r) for r in knn_search_many(emb, ["v00", "v01"], 0)] == [0, 0]
