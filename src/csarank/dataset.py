"""Synthetic clustered embeddings and exact first-round retrieval.

The generator stands in for a real landmark dataset: cluster centers are
drawn uniformly on the unit sphere, each item is its center plus Gaussian
noise (re-normalized), and each of the M "views" redraws the noise around
the same latent identity, mimicking M different feature extractors.
Distractors carry their own private latent vector and belong to no
cluster, so they are never positives.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .affinity import EmbeddingMatrix, RankingList
from .kernels import make_rng, topk_rows


@dataclass(frozen=True)
class SyntheticDatasetSpec:
    cluster_count: int = 100
    items_per_cluster: int = 30
    dim: int = 32
    noise_sigma: float = 0.2
    num_views: int = 3
    distractor_count: int = 1000
    seed: int = 0

    def __post_init__(self):
        if min(self.cluster_count, self.items_per_cluster, self.dim, self.num_views) < 1:
            raise ValueError("counts must be >= 1")
        if self.distractor_count < 0 or self.noise_sigma < 0:
            raise ValueError("distractor_count and noise_sigma must be >= 0")


@dataclass
class GroundTruth:
    """Positive (and optional ignore) id sets per query."""

    positives: dict
    ignores: dict = field(default_factory=dict)

    def __post_init__(self):
        for qid, pos in self.positives.items():
            ign = self.ignores.get(qid, set())
            if qid in pos:
                raise ValueError(f"query {qid!r} listed in its own positives")
            if pos & ign:
                raise ValueError(f"positives and ignores overlap for {qid!r}")

    def queries(self):
        return self.positives.keys()


def _unit_rows(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    rows = rng.standard_normal((n, dim))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def generate_synthetic(spec: SyntheticDatasetSpec):
    """Build M embedding views plus ground truth and cluster labels.

    Returns (views, truth, labels): views is a list of
    :class:`EmbeddingMatrix` over the same ids, truth maps every query id to
    its same-cluster positives, labels maps id -> cluster index (None for
    distractors).
    """
    rng = make_rng(spec.seed)
    n_clustered = spec.cluster_count * spec.items_per_cluster

    centers = _unit_rows(rng, spec.cluster_count, spec.dim)
    distractor_latents = _unit_rows(rng, spec.distractor_count, spec.dim) \
        if spec.distractor_count else np.zeros((0, spec.dim))
    latents = np.concatenate([np.repeat(centers, spec.items_per_cluster, axis=0),
                              distractor_latents])

    ids = [f"img{n:06d}" for n in range(len(latents))]
    cluster_of = np.concatenate([
        np.repeat(np.arange(spec.cluster_count), spec.items_per_cluster),
        np.full(spec.distractor_count, -1),
    ])
    labels = {i: (int(c) if c >= 0 else None) for i, c in zip(ids, cluster_of)}

    views = []
    for _ in range(spec.num_views):
        noisy = latents + spec.noise_sigma * rng.standard_normal(latents.shape)
        noisy = noisy / np.linalg.norm(noisy, axis=1, keepdims=True)
        views.append(EmbeddingMatrix(ids, noisy.astype(np.float32)))

    positives = {}
    for ci in range(spec.cluster_count):
        members = ids[ci * spec.items_per_cluster:(ci + 1) * spec.items_per_cluster]
        member_set = set(members)
        for qid in members:
            positives[qid] = member_set - {qid}
    for qid in ids[n_clustered:]:
        positives[qid] = set()
    return views, GroundTruth(positives), labels


def knn_search(embeddings: EmbeddingMatrix, query_id: str, k: int) -> RankingList:
    """Exact cosine top-k of one query: :func:`knn_search_many` of one."""
    return knn_search_many(embeddings, [query_id], k)[0]


def knn_search_many(embeddings: EmbeddingMatrix, query_ids: list, k: int,
                    chunk: int = 256) -> list:
    """Exact cosine top-k of each query by full scan, ``chunk`` queries per GEMM;
    order and ties (by ascending id) are those of :func:`csarank.kernels.topk_rows`."""
    missing = [q for q in query_ids if q not in embeddings]
    if missing:
        raise KeyError(f"unknown query ids {missing[:5]!r}")
    out = []
    for lo in range(0, len(query_ids), chunk):
        qs = query_ids[lo:lo + chunk]
        sims = embeddings.rows[[embeddings.index[q] for q in qs]] @ embeddings.rows.T
        top = topk_rows(sims, k, embeddings.id_rank)
        scores = np.take_along_axis(sims, top, axis=1).astype(np.float64)
        for qid, order, row in zip(qs, top, scores):
            out.append(RankingList(qid, [embeddings.ids[i] for i in order], row))
    return out
