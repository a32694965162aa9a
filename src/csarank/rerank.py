"""Re-ranking methods: refined-affinity scoring, query expansion, diffusion.

Every method reorders only the top-K region of the input ranking and leaves
the tail untouched, so the candidate-id multiset of the reordered region is
always preserved. Query expansion additionally offers a full second-round
search as a separate operation for pipelines that want a fresh ranking.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .affinity import EmbeddingMatrix, RankingList, build_affinity_sequence
from .dataset import knn_search
from .encoder import EncoderParams, encoder_forward
from .kernels import ShapeError, l2_normalize_rows, query_cosines


@dataclass
class RerankResult:
    """Reordered top-K (new scores, descending) followed by the untouched tail."""

    query_id: str
    ids: list
    scores: np.ndarray
    method: str
    latency_ms: float = 0.0
    reranked: int = 0
    converged: bool = True

    def to_ranking(self) -> RankingList:
        # Tail scores keep their first-round values, which may exceed the new
        # top-K scores; clamp monotonically for the RankingList invariant
        # (ordering is what downstream consumers use).
        scores = np.minimum.accumulate(np.asarray(self.scores, dtype=np.float64))
        return RankingList(self.query_id, self.ids, scores)


def _reorder_region(ranking: RankingList, region: int, new_scores: np.ndarray,
                    method: str, t0: float, converged: bool = True) -> RerankResult:
    """Stable-sort the first ``region`` entries by new score; ties keep rank."""
    order = np.lexsort((np.arange(region), -np.asarray(new_scores)))
    ids = [ranking.ids[i] for i in order] + list(ranking.ids[region:])
    scores = np.concatenate([np.asarray(new_scores, dtype=np.float64)[order],
                             ranking.scores[region:]])
    return RerankResult(ranking.query_id, ids, scores, method,
                        latency_ms=(time.perf_counter() - t0) * 1e3,
                        reranked=region, converged=converged)


# ---------------------------------------------------------------------------
# refined-affinity re-ranking
# ---------------------------------------------------------------------------

def csa_rerank(embeddings: EmbeddingMatrix, ranking: RankingList,
               params: EncoderParams, k: int, l: int = None) -> RerankResult:
    """Re-rank the top-k by cosine similarity of refined affinity rows.

    The ranking must be query-first. ``l`` defaults to the model's expected
    input width and must match it.
    """
    if ranking.ids[0] != ranking.query_id:
        raise ValueError("ranking must be query-first; call ensure_query_first")
    if l is None:
        l = params.config.input_len
    if l != params.config.input_len:
        raise ShapeError(
            f"anchor length {l} does not match model input width "
            f"{params.config.input_len}"
        )
    t0 = time.perf_counter()
    k = min(k, len(ranking))
    seq = build_affinity_sequence(embeddings, ranking, k, l)
    refined = encoder_forward(seq.values, params, valid=seq.valid)
    new_scores = query_cosines(refined[:seq.n_candidates])
    return _reorder_region(ranking, seq.n_candidates, new_scores, "csa", t0)


# ---------------------------------------------------------------------------
# query expansion
# ---------------------------------------------------------------------------

def _expansion_candidates(ranking: RankingList, embeddings: EmbeddingMatrix,
                          n_qe: int) -> np.ndarray:
    # entry 0 is the query itself (query-first rankings)
    cand_ids = ranking.ids[1:1 + n_qe]
    if len(cand_ids) < n_qe:
        raise ValueError(f"ranking too short for nQE={n_qe}")
    return embeddings.rows[[embeddings.index[i] for i in cand_ids]]


def aqe(query_emb: np.ndarray, ranking: RankingList,
        embeddings: EmbeddingMatrix, n_qe: int) -> np.ndarray:
    """Average query expansion: unit-norm mean of query and top-nQE neighbors."""
    stack = np.concatenate([query_emb[None, :],
                            _expansion_candidates(ranking, embeddings, n_qe)])
    return l2_normalize_rows(stack.mean(axis=0)[None, :])[0]


def aqewd(query_emb: np.ndarray, ranking: RankingList,
          embeddings: EmbeddingMatrix, n_qe: int) -> np.ndarray:
    """Rank-decayed expansion: neighbor i weighted (nQE - i)/nQE, query weight 1."""
    cands = _expansion_candidates(ranking, embeddings, n_qe)
    weights = (n_qe - np.arange(n_qe, dtype=np.float32)) / n_qe
    combined = query_emb + (weights[:, None] * cands).sum(axis=0)
    return l2_normalize_rows(combined[None, :])[0]


def alpha_qe(query_emb: np.ndarray, ranking: RankingList,
             embeddings: EmbeddingMatrix, n_qe: int, alpha: float = 3.0) -> np.ndarray:
    """Similarity-powered expansion: neighbor weights max(cos, 0)^alpha."""
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    cands = _expansion_candidates(ranking, embeddings, n_qe)
    sims = np.maximum(cands @ query_emb, 0.0)
    weights = sims ** np.asarray(alpha, dtype=sims.dtype)
    combined = query_emb + (weights[:, None] * cands).sum(axis=0)
    return l2_normalize_rows(combined[None, :])[0]


def qe_second_round(query_id: str, expanded: np.ndarray,
                    embeddings: EmbeddingMatrix, k: int) -> RankingList:
    """Full second-round retrieval: exact cosine top-k with the expanded query."""
    scores = embeddings.rows @ expanded
    order = np.lexsort((embeddings.id_rank, -scores))[:k]
    return RankingList(query_id, [embeddings.ids[i] for i in order],
                       scores[order].astype(np.float64))


_QE_METHODS = {"aqe": aqe, "aqewd": aqewd, "alpha-qe": alpha_qe}


def qe_rerank(method: str, embeddings: EmbeddingMatrix, ranking: RankingList,
              k: int, n_qe: int = 10, alpha: float = 3.0) -> RerankResult:
    """Re-score the top-k of the input ranking against the expanded query."""
    if ranking.ids[0] != ranking.query_id:
        raise ValueError("ranking must be query-first; call ensure_query_first")
    t0 = time.perf_counter()
    query_emb = embeddings.vector(ranking.query_id)
    n_qe = min(n_qe, len(ranking) - 1)
    if method == "alpha-qe":
        expanded = alpha_qe(query_emb, ranking, embeddings, n_qe, alpha)
    else:
        expanded = _QE_METHODS[method](query_emb, ranking, embeddings, n_qe)
    k = min(k, len(ranking))
    region = embeddings.rows[[embeddings.index[i] for i in ranking.ids[:k]]]
    return _reorder_region(ranking, k, region @ expanded, method, t0)


# ---------------------------------------------------------------------------
# diffusion
# ---------------------------------------------------------------------------

@dataclass
class DiffusionGraph:
    """Symmetrically normalized mutual-kNN affinity over a whole database."""

    ids: list
    index: dict
    matrix: sp.csr_matrix  # S = D^-1/2 W D^-1/2
    alpha: float
    k_graph: int


def build_diffusion_graph(embeddings: EmbeddingMatrix, k_graph: int = 50,
                          alpha: float = 0.99, chunk: int = 512) -> DiffusionGraph:
    """Mutual-kNN graph: cosine weights clamped at 0, zero diagonal,
    min-symmetrized, then normalized so (I - alpha*S) is positive definite.

    alpha = 0 is allowed as the degenerate identity system (mass stays on
    the seeds)."""
    if not 0 <= alpha < 1:
        raise ValueError("alpha must be in [0, 1)")
    if k_graph < 1:
        raise ValueError("k_graph must be >= 1")
    n = len(embeddings)
    k = min(k_graph, n - 1)
    rows_idx, cols_idx, vals = [], [], []
    for lo in range(0, n, chunk):
        sims = embeddings.rows[lo:lo + chunk] @ embeddings.rows.T
        for r in range(sims.shape[0]):
            sims[r, lo + r] = -np.inf  # no self loop
        top = np.argpartition(-sims, k - 1, axis=1)[:, :k]
        for r in range(sims.shape[0]):
            w = np.maximum(sims[r, top[r]], 0.0)
            keep = w > 0
            rows_idx.extend([lo + r] * int(keep.sum()))
            cols_idx.extend(top[r][keep].tolist())
            vals.extend(w[keep].tolist())
    w_dir = sp.csr_matrix((vals, (rows_idx, cols_idx)), shape=(n, n))
    w_sym = w_dir.minimum(w_dir.T)  # mutual-kNN: edge survives only both ways
    deg = np.asarray(w_sym.sum(axis=1)).ravel()
    inv_sqrt = np.where(deg > 0, 1.0 / np.sqrt(np.where(deg > 0, deg, 1.0)), 0.0)
    d_half = sp.diags(inv_sqrt)
    s = (d_half @ w_sym @ d_half).tocsr()
    return DiffusionGraph(list(embeddings.ids), dict(embeddings.index),
                          s, alpha, k)


def conjugate_gradient(matvec, b: np.ndarray, tol: float = 1e-8,
                       max_iter: int = 100, x0: np.ndarray = None):
    """Plain CG for a symmetric positive-definite system.

    Returns (x, residual_norm, iterations, converged); convergence means
    ||b - A x|| <= tol * ||b||.
    """
    b = np.asarray(b, dtype=np.float64)
    x = np.zeros_like(b) if x0 is None else np.asarray(x0, dtype=np.float64).copy()
    r = b - matvec(x)
    p = r.copy()
    rs = float(r @ r)
    b_norm = float(np.sqrt(b @ b)) or 1.0
    for it in range(max_iter):
        if np.sqrt(rs) <= tol * b_norm:
            return x, float(np.sqrt(rs)), it, True
        ap = matvec(p)
        alpha = rs / float(p @ ap)
        x = x + alpha * p
        r = r - alpha * ap
        rs_new = float(r @ r)
        p = r + (rs_new / rs) * p
        rs = rs_new
    return x, float(np.sqrt(rs)), max_iter, bool(np.sqrt(rs) <= tol * b_norm)


def diffusion_scores(graph: DiffusionGraph, query_id: str,
                     cg_tol: float = 1e-8, cg_max_iter: int = 100):
    """Solve (I - alpha*S) f = y with unit mass on the query; higher f = closer."""
    y = np.zeros(len(graph.ids))
    y[graph.index[query_id]] = 1.0
    s, alpha = graph.matrix, graph.alpha

    def matvec(v):
        return v - alpha * (s @ v)

    return conjugate_gradient(matvec, y, tol=cg_tol, max_iter=cg_max_iter)


def dfs_diffusion(embeddings: EmbeddingMatrix, ranking: RankingList, k: int,
                  k_graph: int = 50, alpha: float = 0.99, cg_tol: float = 1e-8,
                  cg_max_iter: int = 100, graph: DiffusionGraph = None) -> RerankResult:
    """Diffusion re-ranking: reorder the top-k by stationary mass from the query.

    A prebuilt graph can be passed to amortize construction over many queries.
    A non-converged solve is still returned, flagged via ``converged=False``.
    """
    t0 = time.perf_counter()
    if graph is None:
        graph = build_diffusion_graph(embeddings, k_graph, alpha)
    f, _resid, _iters, converged = diffusion_scores(graph, ranking.query_id,
                                                    cg_tol, cg_max_iter)
    k = min(k, len(ranking))
    region_scores = np.array([f[graph.index[i]] for i in ranking.ids[:k]])
    return _reorder_region(ranking, k, region_scores, "dfs", t0,
                           converged=converged)
