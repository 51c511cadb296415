import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ucowod import (
    kl_divergence,
    kl_loss,
    kmeans_init,
    refine,
    select_cluster_count,
    soft_assignment,
    target_distribution,
)
from ucowod import refinement

from reference import (
    best_permutation_accuracy,
    central_difference,
    examples,
    kl_ref,
    kl_soft_assignment_longdouble,
    relative_error,
    silhouette_ref,
    soft_assignment_ref,
    target_distribution_ref,
)


def gaussian_blobs(seed, centers, n_per, sigma):
    g = np.random.default_rng(seed)
    centers = np.asarray(centers, dtype=float)
    points = np.vstack(
        [g.normal(0.0, sigma, size=(n_per, centers.shape[1])) + c for c in centers]
    )
    labels = np.repeat(np.arange(len(centers)), n_per)
    return points, labels


def random_stochastic(g, n, k):
    P = g.uniform(0.05, 1.0, size=(n, k))
    return P / P.sum(axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# k-means initialization


def test_kmeans_with_as_many_clusters_as_points():
    points = np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0]])
    centroids = kmeans_init(points, 3, seed=0)
    got = {tuple(c) for c in centroids}
    want = {tuple(p) for p in points}
    assert got == want


def test_kmeans_identical_points_single_cluster():
    points = np.tile([2.0, 3.0], (6, 1))
    centroids = kmeans_init(points, 1, seed=0)
    assert np.allclose(centroids, [[2.0, 3.0]], atol=1e-12)


def test_kmeans_recovers_separated_blob_means():
    true_centers = np.array([[0.0, 0.0], [5.0, 5.0]])
    m, sigma = 200, 0.5
    points, _ = gaussian_blobs(42, true_centers, m // 2, sigma)
    centroids = kmeans_init(points, 2, seed=0)
    bound = 3.0 * sigma / np.sqrt(m / 2)
    # match recovered centroids to true centers by proximity
    order = np.argsort(centroids[:, 0])
    for centroid, truth in zip(centroids[order], true_centers):
        assert np.linalg.norm(centroid - truth) < bound


def test_kmeans_input_validation():
    points = np.zeros((2, 3))
    with pytest.raises(ValueError):
        kmeans_init(points, 3, seed=0)
    with pytest.raises(ValueError):
        kmeans_init(points, 0, seed=0)
    with pytest.raises(ValueError):
        kmeans_init(np.zeros(4), 1, seed=0)


def test_kmeans_deterministic():
    points, _ = gaussian_blobs(3, [[0, 0], [4, 4], [0, 8]], 30, 0.3)
    a = kmeans_init(points, 3, seed=9)
    b = kmeans_init(points, 3, seed=9)
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# soft assignment


def test_soft_assignment_single_centroid():
    P = soft_assignment(np.array([[0.0], [3.0], [-2.0]]), np.array([[1.0]]))
    assert np.allclose(P, 1.0, atol=0)


def test_soft_assignment_equidistant_point():
    P = soft_assignment(np.array([[0.0, 0.0]]), np.array([[1.0, 0.0], [-1.0, 0.0]]))
    assert np.allclose(P, [[0.5, 0.5]], atol=1e-12)


def test_soft_assignment_kernel_hand_value():
    # point at the first centroid, squared distance 1 to the second:
    # kernels (1, 1/2) normalize to (2/3, 1/3)
    P = soft_assignment(np.array([[0.0, 0.0]]), np.array([[0.0, 0.0], [1.0, 0.0]]))
    assert np.allclose(P, [[2.0 / 3.0, 1.0 / 3.0]], atol=1e-12)


def test_soft_assignment_requires_centroids():
    with pytest.raises(ValueError):
        soft_assignment(np.zeros((2, 3)), np.zeros((0, 3)))


@settings(max_examples=examples(100), deadline=None)
@given(st.integers(0, 100_000))
def test_soft_assignment_matches_reference_and_rows_sum_to_one(seed):
    g = np.random.default_rng(seed)
    E = g.normal(0, 2, size=(int(g.integers(1, 8)), int(g.integers(1, 4))))
    C = g.normal(0, 2, size=(int(g.integers(1, 5)), E.shape[1]))
    P = soft_assignment(E, C)
    assert np.allclose(P, soft_assignment_ref(E, C), atol=1e-12)
    assert np.allclose(P.sum(axis=1), 1.0, atol=1e-9)
    assert (P > 0).all()


# ---------------------------------------------------------------------------
# target distribution


def test_target_uniform_is_fixed_point():
    P = np.full((2, 2), 0.5)
    assert np.allclose(target_distribution(P), P, atol=1e-12)


def test_target_single_instance_equals_assignment():
    P = np.array([[2.0 / 3.0, 1.0 / 3.0]])
    assert np.allclose(target_distribution(P), P, atol=1e-12)


def test_target_sharpens_confident_row():
    P = np.array([[0.9, 0.1], [0.5, 0.5]])
    Q = target_distribution(P)
    # F = (1.4, 0.6); row 1 ratios (0.81/1.4, 0.01/0.6) normalize to exactly
    # (0.972, 0.028)
    assert np.allclose(Q[0], [0.972, 0.028], atol=1e-12)
    assert Q[0, 0] > P[0, 0]


def test_target_rejects_empty_cluster():
    P = np.array([[1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="1"):
        target_distribution(P)


@settings(max_examples=examples(100), deadline=None)
@given(st.integers(0, 100_000))
def test_target_matches_reference_and_rows_sum_to_one(seed):
    g = np.random.default_rng(seed)
    P = random_stochastic(g, int(g.integers(1, 8)), int(g.integers(2, 5)))
    Q = target_distribution(P)
    assert np.allclose(Q, target_distribution_ref(P), atol=1e-12)
    assert np.allclose(Q.sum(axis=1), 1.0, atol=1e-9)


@settings(max_examples=examples(100), deadline=None)
@given(st.integers(0, 100_000))
def test_target_preserves_argmax_under_equal_frequencies(seed):
    g = np.random.default_rng(seed)
    n, k = int(g.integers(1, 6)), 2
    half = random_stochastic(g, n, k)
    # mirroring every row equalizes the column sums by construction
    P = np.vstack([half, half[:, ::-1]])
    Q = target_distribution(P)
    ties = np.isclose(P.max(axis=1), P.min(axis=1))
    assert (Q.argmax(axis=1) == P.argmax(axis=1))[~ties].all()


# ---------------------------------------------------------------------------
# KL divergence and its gradients


def test_kl_zero_at_equal_distributions():
    P = np.array([[0.3, 0.7], [0.5, 0.5]])
    assert kl_divergence(P, P) == 0.0


def test_kl_one_hot_target_against_uniform():
    Q = np.array([[1.0, 0.0]])
    P = np.array([[0.5, 0.5]])
    assert kl_divergence(Q, P) == pytest.approx(np.log(2.0), abs=1e-12)


def test_kl_rejects_negative_and_mismatched():
    with pytest.raises(ValueError):
        kl_divergence(np.array([[1.0, -0.1]]), np.array([[0.5, 0.5]]))
    with pytest.raises(ValueError):
        kl_divergence(np.ones((1, 2)), np.ones((2, 2)))


@settings(max_examples=examples(150), deadline=None)
@given(st.integers(0, 100_000))
def test_kl_matches_reference_and_is_nonnegative(seed):
    g = np.random.default_rng(seed)
    n, k = int(g.integers(1, 6)), int(g.integers(2, 5))
    Q, P = random_stochastic(g, n, k), random_stochastic(g, n, k)
    value = kl_divergence(Q, P)
    assert value == pytest.approx(kl_ref(Q, P), abs=1e-10)
    assert value >= 0.0
    assert kl_divergence(Q, Q) == 0.0


@settings(max_examples=examples(30), deadline=None)
@given(st.integers(0, 100_000))
@example(seed=10834)
@example(seed=9157)
def test_kl_loss_gradients_match_finite_differences(seed):
    # Draws with Q close to P have gradients near 1e-7, below the rounding
    # error of float64 central differences; the finite-difference objective
    # is therefore evaluated in longdouble, which relies on it being 80-bit
    # extended precision (x86-64 Linux).
    g = np.random.default_rng(seed)
    n, k, d = int(g.integers(2, 6)), int(g.integers(2, 4)), int(g.integers(1, 4))
    E = g.normal(0, 1, size=(n, d))
    C = g.normal(0, 1, size=(k, d))
    Q = target_distribution(soft_assignment(E, C))
    value, grad_e, grad_c = kl_loss(Q, soft_assignment(E, C), E, C)
    assert value == pytest.approx(kl_divergence(Q, soft_assignment(E, C)), abs=1e-12)
    fd_c = central_difference(lambda c: kl_soft_assignment_longdouble(Q, E, c), C.copy())
    fd_e = central_difference(lambda e: kl_soft_assignment_longdouble(Q, e, C), E.copy())
    assert relative_error(grad_c, fd_c) < 1e-4
    assert relative_error(grad_e, fd_e) < 1e-4


# ---------------------------------------------------------------------------
# refinement loop


def test_refine_single_cluster_is_exact_fixed_point():
    g = np.random.default_rng(5)
    E = g.normal(0, 1, size=(8, 3))
    result = refine(E, 1, steps=50, lr=0.1, seed=0)
    # one cluster: assignment and target are both all-ones, KL is 0, and the
    # gradients vanish identically, so nothing moves
    assert np.array_equal(result.embeddings, E)
    assert result.assignments.tolist() == [0] * 8
    assert all(v == 0.0 for v in result.kl_history)


def test_refine_separated_blobs_recovers_generative_labels():
    centers = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    for seed in (0, 1):
        points, truth = gaussian_blobs(seed, centers, 20, 0.1)
        result = refine(points, 3, steps=200, lr=0.1, seed=seed)
        assert best_permutation_accuracy(result.assignments, truth) >= 0.95


def test_refine_descends_kl():
    centers = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    points, _ = gaussian_blobs(7, centers, 20, 0.15)
    result = refine(points, 3, steps=200, lr=0.1, seed=0)
    assert result.kl_history[-1] <= result.kl_history[0] + 1e-12


def test_refine_stops_rather_than_take_a_rising_step(monkeypatch):
    # a KL that rises on every evaluation: no halving of the step size finds
    # a step that does not increase it, so refinement stops with nothing moved
    points, _ = gaussian_blobs(11, [[0, 0], [2, 2]], 25, 0.2)
    calls = itertools.count()
    monkeypatch.setattr(refinement, "kl_divergence", lambda target, assignment: float(next(calls)))
    centroids = kmeans_init(points, 2, 4)
    result = refine(points, 2, steps=100, lr=0.1, seed=4)
    assert result.steps_run == 0 and len(result.kl_history) == 1
    assert np.array_equal(result.embeddings, points)
    assert np.array_equal(result.centroids, centroids)
    assert np.array_equal(result.assignments, soft_assignment(points, centroids).argmax(axis=1))


def test_refine_is_deterministic():
    points, _ = gaussian_blobs(11, [[0, 0], [2, 2]], 25, 0.2)
    a = refine(points, 2, steps=100, lr=0.1, seed=4)
    b = refine(points, 2, steps=100, lr=0.1, seed=4)
    assert np.array_equal(a.centroids, b.centroids)
    assert np.array_equal(a.embeddings, b.embeddings)
    assert np.array_equal(a.assignments, b.assignments)
    assert a.kl_history == b.kl_history


def test_refine_input_validation():
    with pytest.raises(ValueError):
        refine(np.zeros((0, 2)), 1)
    with pytest.raises(ValueError):
        refine(np.zeros((4, 2)), 1, lr=0.0)
    with pytest.raises(ValueError):
        refine(np.zeros((4, 2)), 1, steps=-1)
    with pytest.raises(ValueError, match="centroids of shape \\(2, 2\\) for 1 clusters of 2-d points"):
        refine(np.eye(4, 2), 1, centroids=np.zeros((2, 2)))


def test_refine_from_given_kmeans_centroids_is_refine():
    points, _ = gaussian_blobs(11, [[0, 0], [2, 2], [0, 2]], 20, 0.2)
    fresh = refine(points, 3, steps=100, lr=0.1, seed=4)
    given = refine(points, 3, steps=100, lr=0.1, seed=4, centroids=kmeans_init(points, 3, seed=4))
    assert np.array_equal(given.centroids, fresh.centroids)
    assert np.array_equal(given.embeddings, fresh.embeddings)
    assert given.kl_history == fresh.kl_history


def test_cluster_index_equivariance():
    # permuting centroid order permutes assignment and target columns and
    # leaves the KL value unchanged
    g = np.random.default_rng(13)
    E = g.normal(0, 1, size=(9, 3))
    C = g.normal(0, 1, size=(4, 3))
    perm = [2, 0, 3, 1]
    P = soft_assignment(E, C)
    P_perm = soft_assignment(E, C[perm])
    assert np.allclose(P_perm, P[:, perm], atol=1e-12)
    Q, Q_perm = target_distribution(P), target_distribution(P_perm)
    assert np.allclose(Q_perm, Q[:, perm], atol=1e-12)
    assert kl_divergence(Q_perm, P_perm) == pytest.approx(
        kl_divergence(Q, P), abs=1e-12
    )


# ---------------------------------------------------------------------------
# cluster-count selection


def silhouette(points, assign):
    """The sweep's silhouette of one labelling."""
    return refinement._silhouette(refinement._distances(points), assign)


def test_silhouette_hand_value():
    points = np.array([[0.0], [1.0], [10.0], [11.0]])
    assign = np.array([0, 0, 1, 1])
    want = (19.0 / 21.0 + 17.0 / 19.0) / 2.0
    assert silhouette(points, assign) == pytest.approx(want, abs=1e-12)


def test_silhouette_singleton_contributes_zero():
    points = np.array([[0.0], [10.0], [11.0]])
    assign = np.array([0, 1, 1])
    want = (0.0 + 0.9 + 10.0 / 11.0) / 3.0
    assert silhouette(points, assign) == pytest.approx(want, abs=1e-12)


def test_silhouette_needs_two_clusters():
    # coincident points: every k-means labelling is one cluster, which the
    # sweep does not score, so it falls back to one cluster
    assert select_cluster_count(np.zeros((5, 2)), 4, seed=0) == (1, None)


@settings(max_examples=examples(200), deadline=None)
@given(
    seed=st.integers(0, 10_000),
    labels=st.lists(st.integers(0, 7), min_size=1, max_size=40),
    dim=st.integers(1, 4),
    positions=st.sampled_from([None, 1, 2, 3]),
)
@example(seed=0, labels=[0, 0, 1], dim=1, positions=1)  # every denominator is 0
@example(seed=0, labels=[0, 1, 1, 2], dim=2, positions=None)  # singleton clusters
@example(seed=0, labels=[3, 3, 3], dim=2, positions=None)  # one cluster raises
def test_silhouette_matches_reference(seed, labels, dim, positions):
    g = np.random.default_rng(seed)
    points = g.normal(size=(len(labels), dim))
    if positions is not None:
        # points drawn from a few positions coincide, zeroing distances
        points = g.normal(size=(positions, dim))[g.integers(positions, size=len(labels))]
    assign = np.array(labels) * 3 - 5  # arbitrary, non-contiguous cluster ids
    if len(set(labels)) < 2:
        # the sweep never passes _silhouette a one-cluster labelling
        with pytest.raises(ValueError, match="two clusters"):
            silhouette_ref(points, assign)
        return
    assert abs(silhouette(points, assign) - silhouette_ref(points, assign)) <= 1e-12


def sweep_ref(points, max_clusters, seed):
    """The cluster-count rule spelled out: k-means labelling per k, scored
    by the reference silhouette, largest k within 10% of the best."""
    scores = {}
    for k in range(2, min(max_clusters, len(points) - 1) + 1):
        centroids = kmeans_init(points, k, seed=seed)
        assign = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2).argmin(axis=1)
        if len(np.unique(assign)) > 1:
            scores[k] = silhouette_ref(points, assign)
    if not scores:
        return 1
    best = max(scores.values())
    return max(k for k, score in scores.items() if score >= best - 0.1 * abs(best))


@settings(max_examples=examples(40), deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n_centers=st.integers(1, 6),
    n_per=st.integers(1, 15),
    sigma=st.sampled_from([0.0, 0.02, 0.1, 0.5]),
    max_clusters=st.integers(1, 8),
)
def test_select_cluster_count_matches_reference_sweep(seed, n_centers, n_per, sigma, max_clusters):
    g = np.random.default_rng(seed)
    points, _ = gaussian_blobs(seed, g.uniform(-1, 1, size=(n_centers, 3)), n_per, sigma)
    k, centroids = select_cluster_count(points, max_clusters, seed=seed)
    assert k == sweep_ref(points, max_clusters, seed)
    # the centroids are the sweep's k-means fit of the chosen count
    assert (centroids is None) == (k == 1)
    if centroids is not None:
        assert np.array_equal(centroids, kmeans_init(points, k, seed=seed))


def test_select_cluster_count_on_blobs():
    points3, _ = gaussian_blobs(0, [[0, 0], [1, 0], [0, 1]], 25, 0.08)
    assert select_cluster_count(points3, 8, seed=0)[0] == 3
    points2, _ = gaussian_blobs(1, [[0, 0], [2, 2]], 25, 0.1)
    assert select_cluster_count(points2, 8, seed=0)[0] == 2


def test_select_cluster_count_respects_cap():
    points, _ = gaussian_blobs(0, [[0, 0], [1, 0], [0, 1]], 25, 0.08)
    assert select_cluster_count(points, 2, seed=0)[0] == 2


def test_select_cluster_count_degenerate_inputs():
    assert select_cluster_count(np.zeros((2, 2)), 8, seed=0) == (1, None)


@pytest.mark.parametrize("m", [7, 256, 323, 513])
def test_tiled_distances_equal_whole_matrix_bits(m):
    X = np.random.default_rng(m).normal(0.0, 1.0, size=(m, 12))
    whole = np.sqrt(((X[:, None, :] - X[None, :, :]) ** 2).sum(axis=2))
    assert np.array_equal(refinement._distances(X), whole)


def test_cluster_count_sweep_memory_is_tiled():
    m, d = 1000, 12
    points, _ = gaussian_blobs(0, np.random.default_rng(1).uniform(-1, 1, size=(4, d)), m // 4, 0.1)
    tracemalloc.start()
    try:
        select_cluster_count(points, 8, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one m x m x d float64 array alone would take 8 * m * m * d bytes (96 MB)
    assert peak < 8 * m * m * d
