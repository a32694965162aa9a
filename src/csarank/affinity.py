"""Affinity features: candidate-vs-anchor similarity sequences.

Each of the top-K candidates of a query is represented by the vector of
its cosine similarities to the top-L anchor images of the same ranking.
The query is always forced to the front of the ranking before anything
else happens, and short rankings are zero-padded to fixed K x L shape
with the padding masked out downstream.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np


@dataclass
class RankingList:
    """Ordered retrieval result for one query: ids with non-increasing scores."""

    query_id: str
    ids: list
    scores: np.ndarray

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=np.float64)
        if len(self.ids) != len(self.scores):
            raise ValueError("ids and scores length mismatch")
        if len(set(self.ids)) != len(self.ids):
            raise ValueError(f"duplicate candidate ids in ranking for {self.query_id!r}")
        if len(self.scores) > 1 and np.any(np.diff(self.scores) > 1e-9):
            raise ValueError(f"scores not non-increasing for {self.query_id!r}")

    def __len__(self):
        return len(self.ids)


class EmbeddingMatrix:
    """Unit-norm feature vectors keyed by string id, one row per image."""

    def __init__(self, ids: list, rows: np.ndarray, renormalize: bool = True):
        rows = np.ascontiguousarray(rows, dtype=np.float32)
        if rows.ndim != 2:
            raise ValueError(f"embedding rows must be 2-D, got shape {rows.shape}")
        if len(ids) != rows.shape[0]:
            raise ValueError("id count does not match row count")
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate embedding ids")
        if not np.all(np.isfinite(rows)):
            raise ValueError("non-finite embedding values")
        if renormalize:
            norms = np.linalg.norm(rows, axis=1)
            off = np.abs(norms - 1.0) > 1e-4
            if np.any(off):
                safe = np.where(norms[off] == 0, 1.0, norms[off])
                rows[off] = rows[off] / safe[:, None]
        self.ids = list(ids)
        self.rows = rows
        self.index = {i: n for n, i in enumerate(self.ids)}
        self._id_rank = None

    @property
    def dim(self) -> int:
        return self.rows.shape[1]

    def __len__(self):
        return self.rows.shape[0]

    def __contains__(self, image_id) -> bool:
        return image_id in self.index

    def vector(self, image_id: str) -> np.ndarray:
        return self.rows[self.index[image_id]]

    @property
    def id_rank(self) -> np.ndarray:
        """Lexicographic rank of every id, used to break score ties."""
        if self._id_rank is None:
            order = sorted(range(len(self.ids)), key=lambda n: self.ids[n])
            rank = np.empty(len(self.ids), dtype=np.int64)
            rank[order] = np.arange(len(self.ids))
            self._id_rank = rank
        return self._id_rank


@dataclass
class AffinitySequence:
    """K x L matrix of candidate-vs-anchor cosine similarities for one query.

    ``values`` is always exactly (K, L); when the source ranking was shorter,
    the overhang is zero-padded and ``valid`` marks the real candidate rows.
    ``candidate_ids`` / ``anchor_ids`` list only the real entries.
    """

    query_id: str
    candidate_ids: list
    anchor_ids: list
    values: np.ndarray
    valid: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.valid is None:
            self.valid = np.ones(self.values.shape[0], dtype=bool)
        if self.candidate_ids[0] != self.query_id:
            raise ValueError("candidate_ids[0] must be the query (query-first rule)")

    @property
    def n_candidates(self) -> int:
        return len(self.candidate_ids)


@dataclass
class TrainingSample:
    """One affinity sequence plus the same-cluster relevance of each candidate."""

    sequence: AffinitySequence
    relevance: np.ndarray  # bool per candidate row, index 0 is the query itself


def ensure_query_first(ranking: RankingList, query_id: str) -> RankingList:
    """Force the query to position 0, preserving the list length.

    Already-first rankings are returned as-is. A query found elsewhere is
    moved to the front (others keep relative order). An absent query is
    inserted at the front with score 1.0 and the last entry is dropped.
    """
    if len(ranking) == 0:
        raise ValueError("cannot normalize an empty ranking")
    if ranking.ids[0] == query_id:
        return ranking
    ids = list(ranking.ids)
    scores = ranking.scores
    if query_id in ids:
        pos = ids.index(query_id)
        new_ids = [query_id] + ids[:pos] + ids[pos + 1:]
        new_scores = np.concatenate(
            [scores[pos:pos + 1], scores[:pos], scores[pos + 1:]]
        )
    else:
        new_ids = [query_id] + ids[:-1]
        new_scores = np.concatenate([[1.0], scores[:-1]])
    return RankingList(ranking.query_id, new_ids, _monotone_fix(new_scores))


def _monotone_fix(scores: np.ndarray) -> np.ndarray:
    # Moving the query to the front can only break monotonicity at index 0;
    # clamp it so the RankingList invariant (non-increasing) still holds.
    scores = np.asarray(scores, dtype=np.float64)
    if len(scores) > 1 and scores[0] < scores[1]:
        scores = scores.copy()
        scores[0] = scores[1]
    return scores


def build_affinity_sequence(
    embeddings: EmbeddingMatrix,
    ranking: RankingList,
    k: int,
    l: int,
) -> AffinitySequence:
    """Affinity features for the top-k candidates against the top-l anchors.

    ``values[i, j]`` is the dot product of candidate i and anchor j, where
    candidates are the top-k and anchors the top-l entries of the (query-first)
    ranking. k or l beyond the ranking length are clamped with a warning and
    the matrix is zero-padded to keep the (k, l) shape.
    """
    if ranking.ids[0] != ranking.query_id:
        raise ValueError("ranking must be query-first; call ensure_query_first")
    true_k = min(k, len(ranking))
    true_l = min(l, len(ranking))
    if true_k < k or true_l < l:
        warnings.warn(
            f"ranking for {ranking.query_id!r} has {len(ranking)} entries; "
            f"clamping K={k} -> {true_k}, L={l} -> {true_l} and zero-padding",
            stacklevel=2,
        )
    cand_ids = ranking.ids[:true_k]
    anchor_ids = ranking.ids[:true_l]
    cand = embeddings.rows[[embeddings.index[i] for i in cand_ids]]
    anch = embeddings.rows[[embeddings.index[i] for i in anchor_ids]]
    values = np.zeros((k, l), dtype=np.float32)
    values[:true_k, :true_l] = cand @ anch.T
    valid = np.zeros(k, dtype=bool)
    valid[:true_k] = True
    return AffinitySequence(ranking.query_id, cand_ids, anchor_ids, values, valid)


def build_training_samples(
    feature_sets: list,
    labels: dict,
    k: int,
    l: int,
    query_ids: list = None,
    skipped: list = None,
) -> list:
    """Training samples from M feature sets sharing one id universe.

    Every query (all ids by default, or ``query_ids``) is retrieved against
    each feature set in turn: exact top-max(k, l) search, query forced first,
    affinity sequence built, and candidates marked relevant when they share
    the query's cluster label. Output size is M x usable-query-count. Queries
    missing from a feature set are skipped and appended to ``skipped`` when a
    list is supplied.
    """
    from .dataset import knn_search_many  # local import; dataset builds on this module

    samples = []
    depth = max(k, l)
    for view_no, emb in enumerate(feature_sets):
        ids = query_ids if query_ids is not None else emb.ids
        if skipped is not None:
            skipped.extend((view_no, qid) for qid in ids if qid not in emb)
        present = [qid for qid in ids if qid in emb]
        for raw in knn_search_many(emb, present, depth):
            qid = raw.query_id
            ranking = ensure_query_first(raw, qid)
            seq = build_affinity_sequence(emb, ranking, k, l)
            qlab = labels.get(qid)
            rel = np.zeros(k, dtype=bool)
            for i, cid in enumerate(seq.candidate_ids):
                rel[i] = qlab is not None and labels.get(cid) == qlab
            rel[0] = True  # the query row itself
            samples.append(TrainingSample(seq, rel))
    return samples
