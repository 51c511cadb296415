"""Cluster refinement of unknown-object embeddings.

Embeddings of detections that landed in unknown slots are clustered so each
recovered cluster can serve as one unknown class. Centroids start from
seeded k-means; refinement then alternates a sharpened target distribution
with gradient descent of the KL divergence between target and soft
assignment, tightening clusters while the target is held fixed between
recomputations.

Soft assignments use the heavy-tailed inverse-quadratic kernel
``1 / (1 + squared distance)``; the target distribution squares assignments
and normalizes by cluster frequency so large clusters cannot swallow the
rest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

LOG_FLOOR = 1e-12
# rows per tile of _distances, whose temporaries are O(m * DISTANCE_TILE_ROWS * d)
DISTANCE_TILE_ROWS = 256


def _sq_distances(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Squared Euclidean distance from every row of ``A`` to every row of ``B``."""
    return ((A[:, None, :] - B[None, :, :]) ** 2).sum(axis=2)


def _distances(X: np.ndarray) -> np.ndarray:
    """Euclidean distance matrix of the rows of ``X``, one row tile of
    ``_sq_distances`` at a time so no m x m x d temporary exists; each entry
    is the whole-matrix value to the bit."""
    dists = np.empty((len(X), len(X)))
    for start in range(0, len(X), DISTANCE_TILE_ROWS):
        tile = slice(start, start + DISTANCE_TILE_ROWS)
        dists[tile] = np.sqrt(_sq_distances(X[tile], X))
    return dists


def kmeans_init(points: np.ndarray, n_clusters: int, seed: int = 0) -> np.ndarray:
    """Deterministic k-means: distance-squared weighted seeding followed by
    Lloyd iterations (at most 100, stopping once centroids move < 1e-6).

    Requires at least as many points as clusters. Empty clusters are re-
    seeded to the point currently farthest from its centroid.
    """
    X = np.asarray(points, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"points must be 2-d, got shape {X.shape}")
    m = len(X)
    if n_clusters < 1:
        raise ValueError(f"need at least one cluster, got {n_clusters}")
    if m < n_clusters:
        raise ValueError(f"{m} points cannot seed {n_clusters} clusters")
    rng = np.random.default_rng(seed)

    centroids = np.empty((n_clusters, X.shape[1]), dtype=float)
    d2 = np.zeros(m)
    for c in range(n_clusters):
        total = d2.sum()
        # uniform for the first pick and once all remaining points coincide
        idx = rng.choice(m, p=d2 / total) if total > 0 else rng.integers(m)
        centroids[c] = X[idx]
        d2 = _sq_distances(X, centroids[: c + 1]).min(axis=1)

    for _ in range(100):
        dists = _sq_distances(X, centroids)
        assign = dists.argmin(axis=1)
        new_centroids = centroids.copy()
        for c in range(n_clusters):
            members = assign == c
            if members.any():
                new_centroids[c] = X[members].mean(axis=0)
            else:
                farthest = int(dists[np.arange(m), assign].argmax())
                new_centroids[c] = X[farthest]
                assign[farthest] = c
        movement = np.sqrt(((new_centroids - centroids) ** 2).sum(axis=1)).max()
        centroids = new_centroids
        if movement < 1e-6:
            break
    return centroids


def _silhouette(dists: np.ndarray, assign: np.ndarray) -> float:
    """Mean silhouette (Rousseeuw 1987) of a labelling with two or more
    clusters, from the distance matrix; points in singleton clusters or with
    a zero denominator score 0. One matmul by the one-hot labels gives each
    point's sum per cluster. ``tests/reference.py`` holds its oracle."""
    _, labels = np.unique(assign, return_inverse=True)
    own = labels[:, None] == np.arange(labels.max() + 1)
    sums = dists @ own.astype(float)
    sizes = own.sum(axis=0)
    n_same = sizes[labels]
    # a point's own-cluster sum includes its zero distance to itself
    within = sums[own] / np.maximum(n_same - 1, 1)
    nearest_other = np.where(own, np.inf, sums / sizes).min(axis=1)
    denom = np.maximum(within, nearest_other)
    scores = np.divide(nearest_other - within, denom, out=np.zeros(len(labels)), where=(n_same > 1) & (denom > 0))
    return float(scores.mean())


def select_cluster_count(
    points: np.ndarray, max_clusters: int, seed: int = 0
) -> tuple[int, Optional[np.ndarray]]:
    """Pick a cluster count in [2, max_clusters] by mean silhouette under
    seeded k-means, preferring the largest count within 10% of the best
    score (coarse splits of nested structure otherwise shadow the finer
    one). Returns the count with the ``kmeans_init`` centroids it was scored
    with, for ``refine`` to start from; falls back to ``(1, None)`` when the
    points cannot support two clusters.
    """
    X = np.asarray(points, dtype=float)
    dists = _distances(X)
    fits: dict[int, np.ndarray] = {}
    scores: dict[int, float] = {}
    for k in range(2, min(max_clusters, len(X) - 1) + 1):
        fits[k] = kmeans_init(X, k, seed=seed)
        assign = _sq_distances(X, fits[k]).argmin(axis=1)
        if len(np.unique(assign)) > 1:
            scores[k] = _silhouette(dists, assign)
    if not scores:
        return 1, None
    best = max(scores.values())
    threshold = best - 0.1 * abs(best)
    chosen = max(k for k, score in scores.items() if score >= threshold)
    return chosen, fits[chosen]


def soft_assignment(embeddings: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Row-stochastic soft assignment of embeddings to centroids under the
    inverse-quadratic kernel."""
    E = np.asarray(embeddings, dtype=float)
    C = np.asarray(centroids, dtype=float)
    if len(C) == 0:
        raise ValueError("need at least one centroid")
    kernel = 1.0 / (1.0 + _sq_distances(E, C))
    return kernel / kernel.sum(axis=1, keepdims=True)


def target_distribution(assignment: np.ndarray) -> np.ndarray:
    """Sharpened, frequency-normalized target built from a soft assignment.

    Squaring emphasizes confident assignments; dividing by the per-cluster
    frequency (column sum) stops the largest clusters from dominating the
    target. Rows renormalize to 1. A cluster with zero total mass has no
    defined target and raises.
    """
    P = np.asarray(assignment, dtype=float)
    if P.ndim != 2:
        raise ValueError(f"assignment must be 2-d, got shape {P.shape}")
    freq = P.sum(axis=0)
    if (freq <= 0).any():
        raise ValueError(f"clusters with zero frequency: {np.flatnonzero(freq <= 0).tolist()}")
    weighted = (P * P) / freq
    return weighted / weighted.sum(axis=1, keepdims=True)


def kl_divergence(target: np.ndarray, assignment: np.ndarray) -> float:
    """KL divergence of the assignment from the fixed target,
    ``sum(Q * log(Q / P))``. Zero target entries contribute nothing; logs are
    floored to stay finite. Negative entries are rejected. The true value is
    never negative, so rounding residue below zero is clamped away."""
    Q = np.asarray(target, dtype=float)
    P = np.asarray(assignment, dtype=float)
    if Q.shape != P.shape:
        raise ValueError(f"shape mismatch: target {Q.shape} vs assignment {P.shape}")
    if (Q < 0).any() or (P < 0).any():
        raise ValueError("distributions cannot hold negative mass")
    log_ratio = np.log(np.maximum(Q, LOG_FLOOR)) - np.log(np.maximum(P, LOG_FLOOR))
    return max(float(np.where(Q > 0, Q * log_ratio, 0.0).sum()), 0.0)


def kl_loss(
    target: np.ndarray,
    assignment: np.ndarray,
    embeddings: np.ndarray,
    centroids: np.ndarray,
) -> tuple[float, np.ndarray, np.ndarray]:
    """KL refinement loss with analytic gradients.

    ``assignment`` must be the soft assignment of ``embeddings`` to
    ``centroids``; the target is treated as a constant. Returns
    ``(value, gradient wrt embeddings, gradient wrt centroids)``.
    """
    Q, P = np.asarray(target, dtype=float), np.asarray(assignment, dtype=float)
    E = np.asarray(embeddings, dtype=float)
    C = np.asarray(centroids, dtype=float)
    value = kl_divergence(Q, P)

    diff = E[:, None, :] - C[None, :, :]
    kernel = 1.0 / (1.0 + (diff**2).sum(axis=2))
    # d KL / d distance^2 collapses to k * (P - Q) per pair
    coeff = kernel * (P - Q)
    grad_centroids = 2.0 * np.einsum("ij,ijd->jd", coeff, diff)
    grad_embeddings = -2.0 * np.einsum("ij,ijd->id", coeff, diff)
    return value, grad_embeddings, grad_centroids


@dataclass(frozen=True)
class RefineResult:
    assignments: np.ndarray
    kl_history: tuple[float, ...]
    steps_run: int


def refine(
    embeddings: np.ndarray,
    n_clusters: int,
    steps: int = 200,
    lr: float = 0.1,
    seed: int = 0,
    centroids: Optional[np.ndarray] = None,
) -> RefineResult:
    """Cluster embeddings and tighten the clusters by KL descent, moving
    embeddings and centroids together.

    The descent starts from ``centroids`` when given, which must be what
    ``kmeans_init(embeddings, n_clusters, seed)`` returns (the sweep of
    ``select_cluster_count`` has them already), and from that call
    otherwise.

    The target distribution is recomputed every 10 steps; between
    recomputations each step must not increase the KL value, which a
    deterministic halving backoff of the step size enforces. Refinement
    stops early once the fraction of changed hard assignments between
    consecutive target recomputations falls below 0.001, and it stops
    without moving when 30 halvings find no step that keeps the KL from
    rising.
    """
    E = np.array(embeddings, dtype=float)
    if E.ndim != 2 or len(E) == 0:
        raise ValueError("need a non-empty 2-d embedding matrix")
    if steps < 0 or lr <= 0:
        raise ValueError("steps must be >= 0 and lr positive")
    if centroids is None:
        centroids = kmeans_init(E, n_clusters, seed)
    elif np.shape(centroids) != (n_clusters, E.shape[1]):
        raise ValueError(f"centroids of shape {np.shape(centroids)} for {n_clusters} clusters of {E.shape[1]}-d points")
    P = soft_assignment(E, centroids)
    Q = target_distribution(P)
    hard = P.argmax(axis=1)
    kl_history = [kl_divergence(Q, P)]
    step_lr = lr
    steps_run = 0

    # P is always the soft assignment of the current E and centroids
    for step in range(steps):
        if step > 0 and step % 10 == 0:
            new_hard = P.argmax(axis=1)
            changed = float(np.mean(new_hard != hard))
            hard = new_hard
            Q = target_distribution(P)
            if changed < 1e-3:
                break
        value, grad_e, grad_c = kl_loss(Q, P, E, centroids)
        for _ in range(30):
            new_e = E - step_lr * grad_e
            new_c = centroids - step_lr * grad_c
            trial_p = soft_assignment(new_e, new_c)
            trial_kl = kl_divergence(Q, trial_p)
            if trial_kl <= value + 1e-12:
                break
            step_lr /= 2.0
        else:  # no step size kept the KL from rising: stop where it is
            break
        E, centroids, P = new_e, new_c, trial_p
        kl_history.append(trial_kl)
        steps_run = step + 1

    return RefineResult(assignments=P.argmax(axis=1), kl_history=tuple(kl_history), steps_run=steps_run)
