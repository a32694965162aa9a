"""Affinity sequence construction, query-first rule, training sample building."""

import numpy as np
import pytest

from csarank.affinity import (
    EmbeddingMatrix,
    RankingList,
    build_affinity_sequence,
    build_training_samples,
    ensure_query_first,
)
from csarank.kernels import l2_normalize_rows, make_rng


def unit_embeddings(seed, n, dim, prefix="img"):
    rows = l2_normalize_rows(make_rng(seed).standard_normal((n, dim)))
    return EmbeddingMatrix([f"{prefix}{i:03d}" for i in range(n)],
                           rows.astype(np.float32))


def ranking_of(ids, start=1.0):
    scores = start - 0.01 * np.arange(len(ids))
    return RankingList(ids[0], list(ids), scores)


class TestEnsureQueryFirst:
    def test_already_first_is_identity(self):
        r = ranking_of(["q", "a", "b"])
        assert ensure_query_first(r, "q") is r

    def test_moved_from_middle_keeps_relative_order(self):
        r = RankingList("q", ["a", "b", "c", "q", "e"], [0.9, 0.8, 0.7, 0.6, 0.5])
        out = ensure_query_first(r, "q")
        assert out.ids == ["q", "a", "b", "c", "e"]

    def test_absent_query_inserted_and_last_dropped(self):
        r = RankingList("q", ["a", "b", "c", "d", "e"], [0.9, 0.8, 0.7, 0.6, 0.5])
        out = ensure_query_first(r, "q")
        assert out.ids == ["q", "a", "b", "c", "d"]
        assert len(out) == 5

    def test_every_position_of_a_five_element_list(self):
        # hand-enumerated: query at position p moves to front, rest keep order
        base = ["a", "b", "c", "d", "e"]
        for p in range(5):
            ids = list(base)
            ids[p] = "q"
            out = ensure_query_first(ranking_of(ids), "q")
            expected = ["q"] + [i for i in ids if i != "q"]
            assert out.ids == expected, f"position {p}"

    def test_idempotent(self):
        r = RankingList("q", ["a", "q", "b"], [0.9, 0.8, 0.7])
        once = ensure_query_first(r, "q")
        twice = ensure_query_first(once, "q")
        assert twice is once

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ensure_query_first(RankingList("q", [], []), "q")


class TestBuildAffinitySequence:
    def test_query_self_similarity_is_one(self):
        emb = unit_embeddings(0, 10, 8)
        ids = list(emb.ids)
        seq = build_affinity_sequence(emb, ranking_of(ids), k=5, l=5)
        assert abs(seq.values[0, 0] - 1.0) < 1e-6

    def test_orthogonal_embeddings_give_identity_block(self):
        emb = EmbeddingMatrix([f"e{i}" for i in range(6)],
                              np.eye(6, dtype=np.float32))
        seq = build_affinity_sequence(emb, ranking_of(list(emb.ids)), k=4, l=6)
        expected = np.zeros((4, 6), dtype=np.float32)
        expected[np.arange(4), np.arange(4)] = 1.0
        np.testing.assert_allclose(seq.values, expected, atol=1e-7)

    def test_matches_double_loop_oracle(self):
        emb = unit_embeddings(1, 64, 8)
        ranking = ranking_of(list(emb.ids))
        k, l = 20, 32
        seq = build_affinity_sequence(emb, ranking, k, l)
        oracle = np.zeros((k, l))
        for i in range(k):
            for j in range(l):
                oracle[i, j] = float(
                    emb.vector(ranking.ids[i]) @ emb.vector(ranking.ids[j])
                )
        assert np.max(np.abs(seq.values - oracle)) < 1e-6

    def test_symmetric_on_shared_block(self):
        emb = unit_embeddings(2, 40, 16)
        seq = build_affinity_sequence(emb, ranking_of(list(emb.ids)), k=24, l=12)
        m = 12
        np.testing.assert_allclose(seq.values[:m, :m], seq.values[:m, :m].T,
                                   atol=1e-6)

    def test_rotation_invariant(self):
        rng = make_rng(3)
        emb = unit_embeddings(4, 30, 8)
        # random orthogonal rotation via QR
        q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
        rotated = EmbeddingMatrix(list(emb.ids),
                                  (emb.rows @ q.astype(np.float32)))
        ranking = ranking_of(list(emb.ids))
        a = build_affinity_sequence(emb, ranking, 10, 10).values
        b = build_affinity_sequence(rotated, ranking, 10, 10).values
        assert np.max(np.abs(a - b)) < 1e-5

    def test_short_ranking_clamped_padded_and_masked(self):
        emb = unit_embeddings(5, 4, 8)
        ranking = ranking_of(list(emb.ids))
        with pytest.warns(UserWarning, match="clamping"):
            seq = build_affinity_sequence(emb, ranking, k=6, l=6)
        assert seq.values.shape == (6, 6)
        np.testing.assert_array_equal(seq.valid, [True] * 4 + [False] * 2)
        np.testing.assert_array_equal(seq.values[4:], 0.0)
        np.testing.assert_array_equal(seq.values[:, 4:], 0.0)
        assert seq.n_candidates == 4

    def test_non_query_first_rejected(self):
        emb = unit_embeddings(6, 5, 4)
        ranking = RankingList("other", list(emb.ids), 1.0 - 0.1 * np.arange(5))
        with pytest.raises(ValueError, match="query-first"):
            build_affinity_sequence(emb, ranking, 3, 3)


class TestBuildTrainingSamples:
    def _toy(self, seed=0, views=1):
        # two clusters of three near-duplicate images each
        rng = make_rng(seed)
        centers = l2_normalize_rows(rng.standard_normal((2, 8)))
        out = []
        for _ in range(views):
            rows = np.repeat(centers, 3, axis=0) + 0.05 * rng.standard_normal((6, 8))
            out.append(EmbeddingMatrix([f"t{i}" for i in range(6)],
                                       l2_normalize_rows(rows).astype(np.float32)))
        labels = {f"t{i}": i // 3 for i in range(6)}
        return out, labels

    def test_single_view_count_equals_queries(self):
        views, labels = self._toy()
        samples = build_training_samples(views, labels, k=4, l=4)
        assert len(samples) == 6

    def test_three_views_triple_the_count(self):
        views, labels = self._toy(views=3)
        samples = build_training_samples(views, labels, k=4, l=4)
        assert len(samples) == 3 * 6

    def test_masks_match_hand_labels(self):
        views, labels = self._toy()
        samples = build_training_samples(views, labels, k=6, l=6)
        for s in samples:
            qlab = labels[s.sequence.query_id]
            hand = np.array([labels[c] == qlab for c in s.sequence.candidate_ids])
            hand[0] = True
            np.testing.assert_array_equal(s.relevance, hand)
            assert s.sequence.candidate_ids[0] == s.sequence.query_id

    def test_matches_per_query_reference(self):
        # brute force per query and view; view 1 lacks "t2", so it is
        # skipped there and the other queries keep their order
        views, labels = self._toy(seed=1, views=2)
        keep = [0, 1, 3, 4, 5]
        lacking = EmbeddingMatrix([views[1].ids[i] for i in keep], views[1].rows[keep])
        queries = ["t4", "t2", "t0", "t5"]
        skipped = []
        samples = build_training_samples([views[0], lacking], labels, k=3, l=4,
                                         query_ids=queries, skipped=skipped)
        assert skipped == [(1, "t2")]
        expected = [(views[0], q) for q in queries] + \
                   [(lacking, q) for q in queries if q != "t2"]
        assert len(samples) == len(expected)
        for sample, (emb, qid) in zip(samples, expected):
            sims = {i: float(emb.vector(i) @ emb.vector(qid)) for i in emb.ids}
            top = sorted(emb.ids, key=lambda i: (-sims[i], i))[:4]
            ranked = ([qid] + [i for i in top if i != qid])[:4]
            seq = sample.sequence
            assert seq.query_id == qid
            assert seq.candidate_ids == ranked[:3]
            assert seq.anchor_ids == ranked
            rows = emb.rows[[emb.index[i] for i in ranked]]
            np.testing.assert_allclose(seq.values, rows[:3] @ rows.T, atol=1e-6)
            rel = [labels[c] == labels[qid] for c in ranked[:3]]
            assert sample.relevance.tolist() == [True] + rel[1:]

    def test_missing_id_skipped_and_counted(self):
        views, labels = self._toy(views=2)
        trimmed = EmbeddingMatrix(views[1].ids[:-1], views[1].rows[:-1])
        skipped = []
        samples = build_training_samples(
            [views[0], trimmed], labels, k=4, l=4,
            query_ids=list(views[0].ids), skipped=skipped,
        )
        assert skipped == [(1, "t5")]
        assert len(samples) == 6 + 5
