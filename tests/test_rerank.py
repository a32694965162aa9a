"""Re-ranking contracts, query-expansion oracles, diffusion vs dense solve."""

import numpy as np
import pytest

from csarank.affinity import EmbeddingMatrix, RankingList, ensure_query_first
from csarank.dataset import knn_search
from csarank.encoder import EncoderConfig, init_params
from csarank.kernels import ShapeError, l2_normalize_rows, make_rng
from csarank.rerank import (
    alpha_qe,
    aqe,
    aqewd,
    build_diffusion_graph,
    conjugate_gradient,
    csa_rerank,
    dfs_diffusion,
    diffusion_scores,
    qe_rerank,
    qe_second_round,
)


def unit_db(seed, n, d):
    rows = l2_normalize_rows(make_rng(seed).standard_normal((n, d)))
    return EmbeddingMatrix([f"v{i:03d}" for i in range(n)],
                           rows.astype(np.float32))


def first_round(emb, qid, depth=None):
    return ensure_query_first(knn_search(emb, qid, depth or len(emb)), qid)


CFG = EncoderConfig(depth=1, heads=2, head_dim=8, hidden=16, input_len=12).validate()


class TestCsaRerank:
    def test_query_keeps_first_position_with_unit_score(self):
        emb = unit_db(0, 30, 8)
        params = init_params(CFG, make_rng(1))
        res = csa_rerank(emb, first_round(emb, "v004"), params, k=10, l=12)
        assert res.ids[0] == "v004"
        assert abs(res.scores[0] - 1.0) < 1e-5

    def test_k_one_is_identity(self):
        emb = unit_db(2, 20, 8)
        params = init_params(CFG, make_rng(3))
        ranking = first_round(emb, "v007")
        res = csa_rerank(emb, ranking, params, k=1, l=12)
        assert res.ids == ranking.ids

    def test_permutes_topk_and_leaves_tail(self):
        emb = unit_db(4, 40, 8)
        params = init_params(CFG, make_rng(5))
        ranking = first_round(emb, "v010")
        res = csa_rerank(emb, ranking, params, k=15, l=12)
        assert sorted(res.ids[:15]) == sorted(ranking.ids[:15])
        assert res.ids[15:] == ranking.ids[15:]
        assert np.all(np.diff(res.scores[:15]) <= 1e-12)
        assert res.latency_ms > 0

    def test_anchor_length_mismatch_rejected(self):
        emb = unit_db(6, 20, 8)
        params = init_params(CFG, make_rng(7))
        with pytest.raises(ShapeError, match="input width"):
            csa_rerank(emb, first_round(emb, "v000"), params, k=5, l=9)

    def test_requires_query_first(self):
        emb = unit_db(8, 10, 8)
        params = init_params(CFG, make_rng(9))
        bad = RankingList("v005", ["v001", "v005"], [0.9, 0.8])
        with pytest.raises(ValueError, match="query-first"):
            csa_rerank(emb, bad, params, k=2, l=12)


class TestQueryExpansionVectors:
    def test_aqe_zero_neighbors_is_query(self):
        emb = unit_db(10, 10, 6)
        q = emb.vector("v002")
        out = aqe(q, first_round(emb, "v002"), emb, 0)
        np.testing.assert_allclose(out, q, atol=1e-6)

    def test_aqe_identical_neighbor_keeps_direction(self):
        rows = np.stack([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]).astype(np.float32)
        emb = EmbeddingMatrix(["q", "dup", "other"], rows)
        ranking = first_round(emb, "q")
        out = aqe(emb.vector("q"), ranking, emb, 1)
        np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-6)

    def test_aqe_against_hand_oracle(self):
        emb = unit_db(11, 8, 5)
        ranking = first_round(emb, "v000")
        out = aqe(emb.vector("v000"), ranking, emb, 3)
        stack = np.stack([emb.vector("v000")] +
                         [emb.vector(i) for i in ranking.ids[1:4]])
        mean = stack.mean(axis=0)
        np.testing.assert_allclose(out, mean / np.linalg.norm(mean), atol=1e-6)

    def test_aqewd_single_neighbor_weights(self):
        # weight of rank 0 neighbor is (1-0)/1 = 1, query weight 1
        emb = unit_db(12, 6, 4)
        ranking = first_round(emb, "v001")
        out = aqewd(emb.vector("v001"), ranking, emb, 1)
        merged = emb.vector("v001") + emb.vector(ranking.ids[1])
        np.testing.assert_allclose(out, merged / np.linalg.norm(merged), atol=1e-6)

    def test_aqewd_identical_candidates_keep_query_direction(self):
        rows = np.tile(np.array([[0.6, 0.8]], dtype=np.float32), (4, 1))
        emb = EmbeddingMatrix(["q", "a", "b", "c"], rows)
        out = aqewd(emb.vector("q"), first_round(emb, "q"), emb, 3)
        np.testing.assert_allclose(out, [0.6, 0.8], atol=1e-6)

    def test_aqewd_against_weighted_oracle(self):
        emb = unit_db(13, 9, 5)
        ranking = first_round(emb, "v003")
        n = 4
        out = aqewd(emb.vector("v003"), ranking, emb, n)
        acc = emb.vector("v003").astype(np.float64).copy()
        for i in range(n):
            acc += (n - i) / n * emb.vector(ranking.ids[1 + i])
        np.testing.assert_allclose(out, acc / np.linalg.norm(acc), atol=1e-6)

    def test_alpha_zero_equals_aqe(self):
        emb = unit_db(14, 12, 6)
        ranking = first_round(emb, "v006")
        q = emb.vector("v006")
        a = alpha_qe(q, ranking, emb, 5, alpha=0.0)
        b = aqe(q, ranking, emb, 5)
        assert np.max(np.abs(a - b)) < 1e-6

    def test_alpha_large_prefers_dominant_neighbor(self):
        rows = l2_normalize_rows(np.array([
            [1.0, 0.0, 0.0],
            [0.99, 0.1, 0.0],   # dominant: nearly the query
            [0.3, 0.9, 0.3],
        ])).astype(np.float32)
        emb = EmbeddingMatrix(["q", "near", "far"], rows)
        ranking = first_round(emb, "q")
        out = alpha_qe(emb.vector("q"), ranking, emb, 2, alpha=50.0)
        pair_mean = emb.vector("q") + emb.vector("near")
        pair_mean /= np.linalg.norm(pair_mean)
        assert float(out @ pair_mean) > 0.999

    def test_alpha_three_against_oracle(self):
        emb = unit_db(15, 10, 5)
        ranking = first_round(emb, "v002")
        q = emb.vector("v002").astype(np.float64)
        out = alpha_qe(emb.vector("v002"), ranking, emb, 4, alpha=3.0)
        acc = q.copy()
        for cid in ranking.ids[1:5]:
            v = emb.vector(cid).astype(np.float64)
            acc += max(float(v @ q), 0.0) ** 3 * v
        np.testing.assert_allclose(out, acc / np.linalg.norm(acc), atol=1e-6)

    def test_negative_alpha_rejected(self):
        emb = unit_db(16, 5, 4)
        with pytest.raises(ValueError):
            alpha_qe(emb.vector("v000"), first_round(emb, "v000"), emb, 2, -1.0)


class TestSecondRound:
    def test_query_vector_reproduces_original_ranking(self):
        emb = unit_db(17, 15, 6)
        original = knn_search(emb, "v009", 15)
        again = qe_second_round("v009", emb.vector("v009"), emb, 15)
        assert again.ids == original.ids

    def test_full_depth_returns_all_ids(self):
        emb = unit_db(18, 10, 4)
        r = qe_second_round("v000", emb.vector("v000"), emb, len(emb))
        assert set(r.ids) == set(emb.ids)

    def test_small_db_against_brute_sort(self):
        emb = unit_db(19, 10, 5)
        expanded = aqe(emb.vector("v004"), first_round(emb, "v004"), emb, 3)
        r = qe_second_round("v004", expanded, emb, 10)
        sims = {i: float(emb.vector(i) @ expanded) for i in emb.ids}
        oracle = sorted(emb.ids, key=lambda i: (-sims[i], i))
        assert r.ids == oracle


class TestQeRerankRegion:
    @pytest.mark.parametrize("method", ["aqe", "aqewd", "alpha-qe"])
    def test_region_multiset_preserved_tail_untouched(self, method):
        emb = unit_db(20, 30, 8)
        ranking = first_round(emb, "v012")
        res = qe_rerank(method, emb, ranking, k=10, n_qe=5, alpha=3.0)
        assert sorted(res.ids[:10]) == sorted(ranking.ids[:10])
        assert res.ids[10:] == ranking.ids[10:]
        assert np.all(np.diff(res.scores[:10]) <= 1e-12)


class TestDiffusion:
    def test_alpha_zero_returns_seed_vector(self):
        emb = unit_db(21, 25, 6)
        graph = build_diffusion_graph(emb, k_graph=5, alpha=0.0)
        f, resid, _, converged = diffusion_scores(graph, "v004")
        expected = np.zeros(25)
        expected[emb.index["v004"]] = 1.0
        np.testing.assert_array_equal(f, expected)
        assert converged and resid == 0.0

    def test_disconnected_component_gets_zero_mass(self):
        # two orthogonal blobs; mutual kNN cannot cross between them
        rng = make_rng(22)
        a = l2_normalize_rows(np.abs(rng.standard_normal((8, 3))))
        blob_a = np.concatenate([a, np.zeros((8, 3))], axis=1)
        b = l2_normalize_rows(np.abs(rng.standard_normal((8, 3))))
        blob_b = np.concatenate([np.zeros((8, 3)), b], axis=1)
        emb = EmbeddingMatrix([f"a{i}" for i in range(8)] +
                              [f"b{i}" for i in range(8)],
                              np.concatenate([blob_a, blob_b]).astype(np.float32))
        graph = build_diffusion_graph(emb, k_graph=3, alpha=0.9)
        f, _, _, _ = diffusion_scores(graph, "a0")
        np.testing.assert_allclose(f[8:], 0.0, atol=1e-12)
        assert f[emb.index["a0"]] > 0

    def test_cg_matches_dense_solve(self):
        emb = unit_db(23, 200, 16)
        graph = build_diffusion_graph(emb, k_graph=10, alpha=0.99)
        f, resid, _, converged = diffusion_scores(graph, "v050",
                                                  cg_tol=1e-10, cg_max_iter=300)
        a = np.eye(200) - 0.99 * graph.matrix.toarray()
        y = np.zeros(200)
        y[emb.index["v050"]] = 1.0
        dense = np.linalg.solve(a, y)
        assert converged
        assert np.max(np.abs(f - dense)) < 1e-6
        assert np.linalg.norm(y - a @ f) < 1e-8

    def test_system_is_positive_definite(self):
        emb = unit_db(24, 60, 8)
        graph = build_diffusion_graph(emb, k_graph=8, alpha=0.99)
        a = np.eye(60) - graph.alpha * graph.matrix.toarray()
        rng = make_rng(25)
        for _ in range(20):
            x = rng.standard_normal(60)
            assert x @ a @ x > 0

    def test_nonconvergence_flagged_not_fatal(self):
        emb = unit_db(26, 50, 8)
        ranking = first_round(emb, "v010")
        res = dfs_diffusion(emb, ranking, k=10, k_graph=6, alpha=0.99,
                            cg_tol=1e-14, cg_max_iter=1)
        assert res.converged is False
        assert sorted(res.ids[:10]) == sorted(ranking.ids[:10])

    def test_rerank_region_contract(self):
        emb = unit_db(27, 40, 8)
        ranking = first_round(emb, "v020")
        res = dfs_diffusion(emb, ranking, k=12, k_graph=8, alpha=0.9)
        assert sorted(res.ids[:12]) == sorted(ranking.ids[:12])
        assert res.ids[12:] == ranking.ids[12:]

    def test_tie_at_kth_neighbour_keeps_lower_id(self):
        # "q" is exactly as close to "z" as to "m"; with one neighbour each,
        # q picks "m" (the lower id) and only q-m is mutual
        rows = np.array([[1.0, 0.0], [0.6, 0.8], [0.6, -0.8]], dtype=np.float32)
        emb = EmbeddingMatrix(["q", "z", "m"], rows)
        graph = build_diffusion_graph(emb, k_graph=1, alpha=0.5)
        s = graph.matrix.toarray()
        assert s[0, 2] > 0 and s[2, 0] > 0
        assert s[0, 1] == 0 and s[1, 0] == 0

    def test_single_item_graph_has_no_edges(self):
        emb = unit_db(29, 1, 4)
        graph = build_diffusion_graph(emb, k_graph=5, alpha=0.5)
        assert graph.k_graph == 0 and graph.matrix.nnz == 0

    def test_bad_alpha_rejected(self):
        emb = unit_db(28, 10, 4)
        with pytest.raises(ValueError):
            build_diffusion_graph(emb, k_graph=3, alpha=1.0)


class TestConjugateGradient:
    def test_identity_system_converges_immediately(self):
        b = make_rng(29).standard_normal(10)
        x, resid, iters, converged = conjugate_gradient(lambda v: v, b)
        np.testing.assert_allclose(x, b, atol=1e-12)
        assert converged and iters <= 1

    def test_spd_system_matches_solve(self):
        rng = make_rng(30)
        m = rng.standard_normal((30, 30))
        a = m @ m.T + 30 * np.eye(30)
        b = rng.standard_normal(30)
        x, resid, _, converged = conjugate_gradient(lambda v: a @ v, b,
                                                    tol=1e-12, max_iter=200)
        assert converged
        np.testing.assert_allclose(x, np.linalg.solve(a, b), atol=1e-8)
