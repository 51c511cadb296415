import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ucowod import (
    ClassLabel,
    LossWeights,
    band_width,
    classification_loss_from_plan,
    classification_plan,
    l1_regression_loss,
    label_codes,
    pair_plan,
    pair_similarity_loss,
    schedule_terminated,
    steps_to_termination,
    total_training_loss,
    update_lambda,
)
from ucowod import losses
from ucowod.losses import CLAMP_EPS, PAIR_TILE_ROWS

from reference import (
    central_difference,
    classification_loss_ref,
    cosine_grad_ref,
    cosine_matrix_ref,
    examples,
    l1_loss_ref,
    pair_bce_ref,
    pair_kernel_ref,
    pair_verdicts_ref,
    relative_error,
)

K = ClassLabel.known
U = ClassLabel.unknown
BG = ClassLabel.background()


def random_labels(g, n, known_count=2, unknown_count=2):
    labels = []
    for _ in range(n):
        r = g.random()
        if r < 0.4:
            labels.append(K(int(g.integers(0, known_count))))
        elif r < 0.7:
            labels.append(U(known_count + int(g.integers(0, unknown_count))))
        else:
            labels.append(BG)
    return labels


# ---------------------------------------------------------------------------
# classification loss


def planned_loss(logits, labels, known_count):
    """The classification term as training computes it: a plan for the
    labels, then the loss of the logits under it."""
    plan = classification_plan(*label_codes(labels), known_count, logits.shape[1])
    return classification_loss_from_plan(logits, plan)


def test_known_row_with_certain_prediction_costs_nothing():
    # visible slots are the known class and background; 200 logits of margin
    # put all probability mass on the target
    logits = np.array([[100.0, 5.0, -3.0, -100.0]])
    loss, _ = planned_loss(logits, [K(0)], known_count=1)
    assert loss == pytest.approx(0.0, abs=1e-12)


def test_pseudo_row_cost_is_neg_log_best_unknown_probability():
    # one known class, two unknown slots, background. The pseudo row sees
    # {known 0, best unknown, background}; logits are chosen so the masked
    # softmax puts exactly e^{-1} on the best unknown slot.
    a = math.log((math.e - 1.0) / 2.0)
    logits = np.array([[a, 0.0, -50.0, a]])
    loss, grad = planned_loss(logits, [U(1)], known_count=1)
    assert loss == pytest.approx(1.0, abs=1e-12)
    # the non-maximal unknown slot is invisible: exactly zero gradient
    assert grad[0, 2] == 0.0


def test_background_row_uses_last_slot():
    logits = np.array([[-100.0, -5.0, 4.0, 100.0]])
    loss, _ = planned_loss(logits, [BG], known_count=1)
    assert loss == pytest.approx(0.0, abs=1e-12)


def test_known_rows_never_see_unknown_slots():
    # enormous unknown logits must not disturb a known row, and the masked
    # slots must receive exactly zero gradient
    logits = np.array([[2.0, 1.0, 1e3, 1e3, 0.5]])
    loss, grad = planned_loss(logits, [K(0)], known_count=2)
    want = classification_loss_ref(logits, [K(0)], known_count=2)
    assert loss == pytest.approx(want, abs=1e-12)
    assert grad[0, 2] == 0.0 and grad[0, 3] == 0.0


def test_classification_loss_input_validation():
    def plan(labels, known_count, width=3):
        return classification_plan(*label_codes(labels), known_count, width)

    with pytest.raises(ValueError, match=r"known id 5 out of range \[0, 1\)"):
        plan([K(5)], known_count=1)
    with pytest.raises(ValueError, match="no unknown slots"):
        # width 3 with 2 known classes leaves no unknown slot for a pseudo row
        plan([U(2)], known_count=2)
    # the first offending row names the error
    with pytest.raises(ValueError, match="no unknown slots"):
        plan([U(2), K(7)], known_count=2)
    with pytest.raises(ValueError, match="known id 7"):
        plan([K(7), U(2)], known_count=2)
    with pytest.raises(ValueError, match="logit width 2 too small for 2 known classes"):
        plan([K(0)], known_count=2, width=2)
    with pytest.raises(ValueError, match=r"logits of shape \(1, 4\) for a plan of 2 rows and 3 slots"):
        classification_loss_from_plan(np.zeros((1, 4)), plan([K(0), BG], known_count=1))


@settings(max_examples=examples(100), deadline=None)
@given(st.integers(0, 100_000))
def test_classification_loss_matches_rowwise_reference(seed):
    g = np.random.default_rng(seed)
    known_count, unknown_count = 2, 3
    n = int(g.integers(1, 8))
    logits = g.normal(0, 2, size=(n, known_count + unknown_count + 1))
    labels = random_labels(g, n, known_count, unknown_count)
    got, _ = planned_loss(logits, labels, known_count)
    want = classification_loss_ref(logits, labels, known_count)
    assert got == pytest.approx(want, abs=1e-10)


@settings(max_examples=examples(40), deadline=None)
@given(st.integers(0, 100_000))
def test_classification_gradient_matches_finite_differences(seed):
    g = np.random.default_rng(seed)
    known_count, unknown_count = 2, 2
    n = int(g.integers(1, 6))
    logits = g.normal(0, 2, size=(n, known_count + unknown_count + 1))
    labels = random_labels(g, n, known_count, unknown_count)
    # keep the argmax unknown slot stable under the probe perturbation
    for i, lab in enumerate(labels):
        if lab.is_unknown:
            row = logits[i, known_count : known_count + unknown_count]
            if np.ptp(row) < 1e-3:
                logits[i, known_count] += 1.0
    _, grad = planned_loss(logits, labels, known_count)
    fd = central_difference(
        lambda z: planned_loss(z, labels, known_count)[0], logits.copy()
    )
    assert relative_error(grad, fd) < 1e-4


def test_classification_invariant_to_permuting_unknown_slots():
    g = np.random.default_rng(7)
    known_count, unknown_count = 2, 3
    logits = g.normal(0, 1, size=(5, known_count + unknown_count + 1))
    labels = random_labels(g, 5, known_count, unknown_count)
    base, _ = planned_loss(logits, labels, known_count)
    for perm in ([1, 2, 0], [2, 0, 1], [2, 1, 0]):
        shuffled = logits.copy()
        shuffled[:, known_count : known_count + unknown_count] = logits[
            :, [known_count + p for p in perm]
        ]
        value, _ = planned_loss(shuffled, labels, known_count)
        assert value == pytest.approx(base, abs=1e-12)


# ---------------------------------------------------------------------------
# clamped cosine matrix


def test_similarity_identical_rows_clamp_to_one():
    S = cosine_matrix_ref(np.array([[1.0, 2.0], [2.0, 4.0]]))
    assert S[0, 1] == pytest.approx(1.0 - CLAMP_EPS, abs=1e-15)


def test_similarity_orthogonal_rows_clamp_to_eps():
    S = cosine_matrix_ref(np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert S[0, 1] == pytest.approx(CLAMP_EPS, abs=1e-15)


def test_similarity_hand_value():
    S = cosine_matrix_ref(np.array([[1.0, 0.0], [1.0, 1.0]]))
    assert S[0, 1] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)


# ---------------------------------------------------------------------------
# pair verdicts


def kernel(E, labels, lam=None):
    """Training's pair term on embeddings ``E`` for rows of ``labels``."""
    return pair_similarity_loss(np.asarray(E, dtype=float), pair_plan(*label_codes(labels)), lam)


def at_cosine(cosine):
    """Two unit rows at the given cosine."""
    return np.array([[1.0, 0.0], [cosine, math.sqrt(1.0 - cosine**2)]])


def test_supervised_pairs_same_known_label_positive():
    # the two pinned diagonal pairs and both orders of the off-diagonal pair
    assert kernel(at_cosine(0.5), [K(1), K(1)])[2:] == (4, 0)


def test_supervised_pairs_known_background_negative():
    assert kernel(at_cosine(0.5), [K(0), BG])[2:] == (2, 2)


def test_supervised_pairs_unknown_unknown_not_selected():
    with pytest.warns(RuntimeWarning, match="no selected pairs"):
        assert kernel(at_cosine(0.5), [U(3), U(3)])[2:] == (0, 0)


def test_supervised_pairs_known_unknown_negative_even_with_equal_ids():
    # the known diagonal is positive, the unknown one undecided
    assert kernel(at_cosine(0.5), [K(3), U(3)])[2:] == (1, 2)


def test_supervised_pairs_background_background_positive():
    assert kernel(at_cosine(0.5), [BG, BG])[2:] == (4, 0)


def test_self_labels_at_lambda_zero():
    # the pinned unknown diagonal turns positive; the off-diagonal pair is
    # above TH(0) = 0.95, below TL(0) = 0.455, or inside the undecided band
    labels = [U(3), U(4)]
    assert kernel(at_cosine(0.99), labels, lam=0.0)[2:] == (4, 0)
    assert kernel(at_cosine(0.40), labels, lam=0.0)[2:] == (2, 2)
    assert kernel(at_cosine(0.7), labels, lam=0.0)[2:] == (2, 0)


def test_self_labels_only_touch_unknown_pairs():
    # the known row pairs with nothing new; only the unknown diagonal
    # self-pair clears the threshold
    labels = [K(0), U(3)]
    assert kernel(at_cosine(0.99), labels)[2:] == (1, 2)
    assert kernel(at_cosine(0.99), labels, lam=0.0)[2:] == (2, 2)


def test_self_labeling_raises_after_termination():
    with pytest.raises(RuntimeError, match="terminated"):
        kernel(at_cosine(0.7), [U(3), U(4)], lam=0.45)


@settings(max_examples=examples(100), deadline=None)
@given(st.integers(0, 100_000), st.floats(0.0, 0.3), st.floats(0.0, 0.14))
def test_selected_pairs_grow_with_lambda(seed, lam, bump):
    g = np.random.default_rng(seed)
    n = int(g.integers(2, 7))
    E = g.normal(0, 1, size=(n, 3))
    labels = [U(3 + int(g.integers(0, 3))) for _ in range(n)]
    early = kernel(E, labels, lam)[2:]
    late = kernel(E, labels, lam + bump)[2:]
    assert late[0] >= early[0] and late[1] >= early[1]


# ---------------------------------------------------------------------------
# pair similarity loss


def test_similarity_loss_positive_pair_near_one_is_near_zero():
    # identical directions: every pair is pinned at 1 - eps
    loss, _, _, _ = kernel([[1.0, 0.0], [2.0, 0.0]], [K(0), K(0)])
    assert loss == pytest.approx(0.0, abs=1e-5)


def test_similarity_loss_positive_pair_at_half_is_log_two():
    # the diagonal is pinned at the clamp, and all 4 ordered pairs count
    loss, _, _, _ = kernel(at_cosine(0.5), [K(0), K(0)])
    want = (2.0 * math.log(2.0) - 2.0 * math.log(1.0 - CLAMP_EPS)) / 4.0
    assert loss == pytest.approx(want, abs=1e-12)


def test_similarity_loss_no_pairs_warns_and_returns_zero():
    with pytest.warns(RuntimeWarning, match="no selected pairs"):
        loss, grad, _, _ = kernel(at_cosine(0.5), [U(3), U(4)])
    assert loss == 0.0
    assert not grad.any()
    # with lam every row's diagonal self-pair is decided, so only an empty
    # batch selects no pair; the band width is not part of the value
    with pytest.warns(RuntimeWarning, match="no selected pairs"):
        loss, _, _, _ = kernel(np.zeros((0, 2)), [], lam=0.0)
    assert loss == 0.0


@settings(max_examples=examples(100), deadline=None)
@given(st.integers(0, 100_000))
def test_similarity_loss_matches_reference(seed):
    g = np.random.default_rng(seed)
    n = int(g.integers(2, 7))
    E = g.normal(0, 1, size=(n, 4))
    codes, unknown = label_codes(random_labels(g, n))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        got, _, _, _ = pair_similarity_loss(E, pair_plan(codes, unknown))
    want, _ = pair_bce_ref(cosine_matrix_ref(E), *pair_verdicts_ref(codes, unknown))
    assert got == pytest.approx(want, abs=1e-10)


@settings(max_examples=examples(40), deadline=None)
@given(st.integers(0, 100_000))
def test_similarity_loss_gradient_matches_finite_differences(seed):
    # positive entries keep every off-diagonal cosine clear of the clamp
    g = np.random.default_rng(seed)
    n = int(g.integers(2, 6))
    E = g.uniform(0.1, 1.0, size=(n, 4))
    plan = pair_plan(*label_codes(random_labels(g, n)))
    if plan.positive + plan.negative == 0:
        return
    _, grad, _, _ = pair_similarity_loss(E, plan)
    fd = central_difference(lambda e: pair_similarity_loss(e, plan)[0], E.copy())
    assert relative_error(grad, fd) < 1e-4


def test_full_chain_gradient_through_embeddings():
    # the reference chain as a function of raw embeddings: cosine matrix ->
    # pair BCE, its gradient taken back through the cosine matrix
    g = np.random.default_rng(11)
    E = g.normal(0, 1, size=(5, 4))
    positive, negative = pair_verdicts_ref(*label_codes(random_labels(g, 5)))

    def full(embeddings):
        return pair_bce_ref(cosine_matrix_ref(embeddings), positive, negative)[0]

    _, gS = pair_bce_ref(cosine_matrix_ref(E), positive, negative)
    gE = cosine_grad_ref(E, gS)
    fd = central_difference(full, E.copy())
    assert relative_error(gE, fd) < 1e-4


def test_band_width_penalty_vanishes_at_crossing():
    assert band_width(0.0) == pytest.approx(0.495, abs=1e-12)
    assert band_width(0.45) == pytest.approx(0.0, abs=1e-12)
    assert schedule_terminated(0.45)
    assert not schedule_terminated(0.449)


def test_penalty_leaves_similarity_gradient_untouched():
    # no unknown rows: lam decides no pair, and the kernel's value carries
    # no band width, so value, gradient and counts equal those without lam
    g = np.random.default_rng(3)
    E = g.normal(0, 1, size=(6, 4))
    labels = [K(0), K(1), BG, K(0), BG, K(1)]
    base, g_base, *base_counts = kernel(E, labels)
    with_lam, g_lam, *lam_counts = kernel(E, labels, lam=0.1)
    assert with_lam == base and np.array_equal(g_base, g_lam)
    assert lam_counts == base_counts


# ---------------------------------------------------------------------------
# lambda schedule


def test_update_lambda_hand_value():
    assert update_lambda(0.0, 0.01) == pytest.approx(0.011, abs=1e-15)


def test_update_lambda_zero_rate_is_identity():
    assert update_lambda(0.2, 0.0) == 0.2


def test_schedule_terminates_in_exactly_41_steps():
    assert steps_to_termination(0.0, 0.01) == 41
    lam = 0.0
    for step in range(41):
        assert not schedule_terminated(lam)
        lam = update_lambda(lam, 0.01)
    assert schedule_terminated(lam)


def test_band_width_drops_by_fixed_amount_per_step():
    lam = 0.0
    for _ in range(10):
        nxt = update_lambda(lam, 0.01)
        drop = band_width(lam) - band_width(nxt)
        assert drop == pytest.approx(0.0121, abs=1e-12)
        lam = nxt


# ---------------------------------------------------------------------------
# regression loss and total


def test_l1_zero_at_exact_match():
    loss, grad = l1_regression_loss(np.ones(4), np.ones(4))
    assert loss == 0.0
    assert not grad.any()


def test_l1_hand_value_and_subgradient_levels():
    loss, grad = l1_regression_loss(np.array([1.0, -1.0, 0.0, 0.0]), np.zeros(4))
    assert loss == pytest.approx(0.5, abs=1e-15)
    assert set(np.round(grad, 12).tolist()) == {-0.25, 0.0, 0.25}


def test_l1_empty_input_costs_nothing():
    loss, grad = l1_regression_loss(np.zeros((0, 4)), np.zeros((0, 4)))
    assert loss == 0.0 and grad.shape == (0, 4)


def test_l1_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        l1_regression_loss(np.zeros(3), np.zeros(4))


@settings(max_examples=examples(60), deadline=None)
@given(st.integers(0, 100_000))
def test_l1_matches_reference_and_finite_differences(seed):
    g = np.random.default_rng(seed)
    pred = g.normal(0, 1, size=(int(g.integers(1, 5)), 4))
    target = g.normal(0, 1, size=pred.shape)
    # keep the probe away from the kink at zero
    pred[np.abs(pred - target) < 1e-3] += 0.01
    loss, grad = l1_regression_loss(pred, target)
    assert loss == pytest.approx(l1_loss_ref(pred, target), abs=1e-12)
    fd = central_difference(lambda p: l1_regression_loss(p, target)[0], pred.copy())
    assert relative_error(grad, fd) < 1e-4


def test_total_loss_zero_parts():
    assert total_training_loss(0.0, 0.0, 0.0) == 0.0


def test_total_loss_default_weights():
    assert total_training_loss(1.0, 1.0, 1.0) == pytest.approx(2.5, abs=1e-15)


def test_total_loss_similarity_weight_is_linear():
    half = total_training_loss(0.0, 0.0, 1.0, LossWeights(alpha_sim=0.5))
    full = total_training_loss(0.0, 0.0, 1.0, LossWeights(alpha_sim=1.0))
    assert full == pytest.approx(2.0 * half, abs=1e-15)


def test_loss_weights_reject_negative():
    with pytest.raises(ValueError):
        LossWeights(alpha_sim=-0.1)


# ---------------------------------------------------------------------------
# tiled pair kernel


def matrix_pair_loss(E, labels, lam=None):
    """The pair kernel's result spelled out with the dense reference forms:
    the cosine matrix, the pair verdicts, the pair cross-entropy and the
    cosine matrix's gradient."""
    S = cosine_matrix_ref(E)
    positive, negative = pair_verdicts_ref(*label_codes(labels), S, lam)
    value, grad_S = pair_bce_ref(S, positive, negative)
    return value, cosine_grad_ref(E, grad_S), int(positive.sum()), int(negative.sum())


def assert_pair_terms_agree(E, pairs, value, grad, want_value, want_grad):
    """Two computations of the pair term on ``E`` with ``pairs`` decided
    pairs agree up to the rounding of another summation order, plus what a
    pair just clear of the clamp makes of a few ulp in its similarity: its
    cost -log x (x = S or 1 - S) magnifies them by 1/x, and its derivative
    by 1/x^2."""
    unit = E / np.linalg.norm(E, axis=1, keepdims=True)
    S = unit @ unit.T
    x = np.where((S > CLAMP_EPS) & (S < 1.0 - CLAMP_EPS), np.minimum(S, 1.0 - S), np.inf)
    ulps = 16 * np.finfo(float).eps / max(pairs, 1)
    assert abs(value - want_value) <= 1e-12 * max(1.0, abs(want_value)) + ulps * (1.0 / x).sum()
    # a row's gradient sums its pairs' derivatives times unit vectors, in both orders
    row_slack = 4 * ulps * (1.0 / x**2).sum(axis=1) / np.linalg.norm(E, axis=1)
    atol = 1e-12 * max(1.0, np.abs(want_grad).max()) + row_slack[:, None]
    assert (np.abs(grad - want_grad) <= 1e-9 * np.abs(want_grad) + atol).all()


def assert_kernel_matches(E, labels, lam=None):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        value, grad, positive, negative = pair_similarity_loss(E, pair_plan(*label_codes(labels)), lam)
        want_value, want_grad, want_positive, want_negative = matrix_pair_loss(E, labels, lam)
    assert (positive, negative) == (want_positive, want_negative)
    assert_pair_terms_agree(E, positive + negative, value, grad, want_value, want_grad)


@settings(max_examples=examples(150), deadline=None)
@given(
    st.integers(0, 100_000),
    st.integers(1, 40),
    st.sampled_from([1, 3, 8, PAIR_TILE_ROWS]),
    st.one_of(st.none(), st.floats(0.0, 0.44)),
    st.booleans(),
)
# pairs at 1 - S = 1.4e-5, 2.2e-6 and 1.3e-6, just clear of the clamp
@example(seed=10473, n=34, tile_rows=1, lam=None, with_unknowns=False)
@example(seed=233, n=7, tile_rows=1, lam=None, with_unknowns=True)
@example(seed=2351, n=3, tile_rows=1, lam=None, with_unknowns=False)
def test_pair_kernel_matches_matrix_definitions(seed, n, tile_rows, lam, with_unknowns):
    # tile sizes above, below and dividing n; supervised (lam None) and
    # self-supervised modes; pinned pairs from duplicated and negated rows
    g = np.random.default_rng(seed)
    E = g.normal(0, 1, size=(n, int(g.integers(2, 6))))
    for i in range(1, n):
        if g.random() < 0.2:
            E[i] = E[int(g.integers(0, i))] * g.uniform(0.5, 2.0)
        elif g.random() < 0.1:
            E[i] = -E[int(g.integers(0, i))]
    labels = random_labels(g, n)
    if not with_unknowns:
        labels = [BG if lab.is_unknown else lab for lab in labels]
    with mock.patch.object(losses, "PAIR_TILE_ROWS", tile_rows):
        assert_kernel_matches(E, labels, lam)



def pinned_kernel_input(g, n):
    """Embeddings with duplicated (scaled) and negated rows, whose pairs are
    pinned at the clamp, and random labels."""
    E = g.normal(0, 1, size=(n, int(g.integers(2, 6))))
    for i in range(1, n):
        if g.random() < 0.2:
            E[i] = E[int(g.integers(0, i))] * g.uniform(0.5, 2.0)
        elif g.random() < 0.1:
            E[i] = -E[int(g.integers(0, i))]
    return E, random_labels(g, n)


@settings(max_examples=examples(100), deadline=None)
@given(st.integers(0, 100_000), st.integers(1, 40), st.one_of(st.none(), st.floats(0.0, 0.44)))
@example(seed=4906, n=5, lam=None)  # two negative pairs at 1 - S = 2.2e-6, just clear of the clamp
def test_pair_kernel_gradient_is_tangent(seed, n, lam):
    # S depends on each row's direction only, so no row's gradient has a
    # component along the row itself, and scaling a row by c leaves the value
    # and the counts unchanged and divides that row's gradient by c
    g = np.random.default_rng(seed)
    E, labels = pinned_kernel_input(g, n)
    row, c = int(g.integers(n)), g.uniform(0.1, 10.0)
    scaled = E.copy()
    scaled[row] *= c
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        value, grad, positive, negative = pair_similarity_loss(E, pair_plan(*label_codes(labels)), lam)
        s_value, s_grad, s_positive, s_negative = pair_similarity_loss(scaled, pair_plan(*label_codes(labels)), lam)
    along = np.abs((grad * E).sum(axis=1))
    assert (along <= 1e-12 * np.linalg.norm(grad, axis=1) * np.linalg.norm(E, axis=1)).all()
    assert (s_positive, s_negative) == (positive, negative)
    # scaling a row moves its similarities by a few ulp
    want = grad.copy()
    want[row] /= c
    assert_pair_terms_agree(scaled, positive + negative, s_value, s_grad, value, want)


@settings(max_examples=examples(100), deadline=None)
@given(
    st.integers(0, 100_000),
    st.integers(1, 40),
    st.sampled_from([1, 3, 8, PAIR_TILE_ROWS]),
    st.one_of(st.none(), st.floats(0.0, 0.44)),
)
def test_pair_kernel_is_permutation_equivariant(seed, n, tile_rows, lam):
    # moving rows between diagonal blocks and off-block strip entries must
    # not change how often each pair counts
    g = np.random.default_rng(seed)
    E, labels = pinned_kernel_input(g, n)
    perm = g.permutation(n)
    with warnings.catch_warnings(), mock.patch.object(losses, "PAIR_TILE_ROWS", tile_rows):
        warnings.simplefilter("ignore", RuntimeWarning)
        value, grad, positive, negative = pair_similarity_loss(E, pair_plan(*label_codes(labels)), lam)
        p_value, p_grad, p_positive, p_negative = pair_similarity_loss(
            E[perm], pair_plan(*label_codes([labels[i] for i in perm])), lam
        )
    assert (p_positive, p_negative) == (positive, negative)
    assert_pair_terms_agree(E[perm], positive + negative, p_value, p_grad, value, grad[perm])

@settings(max_examples=examples(120), deadline=None)
@given(
    st.integers(0, 100_000),
    st.sampled_from([1, 63, 64, 65, 165]),
    st.sampled_from([1, 3, 8, PAIR_TILE_ROWS]),
    st.sampled_from(["mixed", "no unknown", "all unknown"]),
    st.floats(0.0, 0.44),
)
def test_pair_kernel_equals_per_call_oracle(seed, n, tile_rows, rows_kind, lam):
    # the planned kernel is the per-call one with its label-only work moved
    # into the plan and its rows sorted by group: the same counts, and the
    # same value and gradient up to the rounding of another summation order,
    # in the supervised phase, the self phase and the post phase that
    # follows it on the same plan; the plan keeps the tile size it was built
    # with
    g = np.random.default_rng(seed)
    E, labels = pinned_kernel_input(g, n)
    if rows_kind == "no unknown":
        labels = [BG if lab.is_unknown else lab for lab in labels]
    elif rows_kind == "all unknown":
        labels = [U(2 + int(g.integers(0, 2))) for _ in labels]
    codes, unknown = label_codes(labels)
    with mock.patch.object(losses, "PAIR_TILE_ROWS", tile_rows):
        plan = pair_plan(codes, unknown)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for phase_lam in (None, lam, None):
            value, grad, positive, negative = pair_similarity_loss(E, plan, phase_lam)
            want_value, want_grad, want_positive, want_negative = pair_kernel_ref(E, codes, unknown, phase_lam, tile_rows)
            assert (positive, negative) == (want_positive, want_negative)
            assert_pair_terms_agree(E, positive + negative, value, grad, want_value, want_grad)


@settings(max_examples=examples(100), deadline=None)
@given(st.integers(0, 100_000), st.integers(0, 200), st.sampled_from([1, 3, 8, PAIR_TILE_ROWS]))
def test_pair_plan_strips_cover_the_rows_by_group(seed, n, tile_rows):
    # every row once, background and known codes in code order, unknown rows
    # last, each group in the caller's order; no strip is longer than a tile
    # or crosses into another group, and only unknown strips are flagged so
    g = np.random.default_rng(seed)
    codes, unknown = label_codes(random_labels(g, n, 3, 8))
    with mock.patch.object(losses, "PAIR_TILE_ROWS", tile_rows):
        plan = pair_plan(codes, unknown)
    key = np.where(unknown, codes.max(initial=0) + 1, codes)
    assert sorted(plan.order.tolist()) == list(range(n))
    assert plan.order.tolist() == sorted(range(n), key=lambda i: (key[i], i))
    bounds = [0] + [e for _, e, _, _ in plan.strips]
    assert [s for s, _, _, _ in plan.strips] == bounds[:-1] and bounds[-1] == n
    for s, e, group_end, is_unknown in plan.strips:
        rows = plan.order[s:group_end]
        assert 0 < e - s <= tile_rows and e <= group_end
        assert (key[rows] == key[rows[0]]).all() and (group_end == n or key[plan.order[group_end]] != key[rows[0]])
        assert (unknown[rows] == is_unknown).all()


def test_pair_kernel_rejects_a_plan_of_other_rows():
    plan = pair_plan(*label_codes([K(0), K(1), U(2)]))
    with pytest.raises(ValueError, match="2 embedding rows but a pair plan for 3"):
        pair_similarity_loss(np.eye(2), plan)


def test_pair_plan_memory_is_linear():
    # the row order and a handful of strips: no per-strip mask
    n = 4096
    g = np.random.default_rng(0)
    codes, unknown = label_codes(random_labels(g, n, 3, 8))
    tracemalloc.start()
    try:
        plan = pair_plan(codes, unknown)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the masks of one strip alone would take n * PAIR_TILE_ROWS bytes
    assert peak < n * PAIR_TILE_ROWS
    assert plan.order.shape == (n,)
    groups = len(np.unique(codes[~unknown])) + 1
    assert n // PAIR_TILE_ROWS <= len(plan.strips) <= n // PAIR_TILE_ROWS + groups


def test_pair_kernel_skips_unknown_pairs_outside_the_self_phase():
    # all rows unknown: no label decides any pair, so a supervised call does
    # no pair work at all, not even a strip's buffers; with lam the
    # thresholds decide them as they always did
    n = 4096
    E = np.random.default_rng(0).normal(0, 1, size=(n, 2))
    codes, unknown = np.full(n, 3), np.ones(n, dtype=bool)
    plan = pair_plan(codes, unknown)
    tracemalloc.start()
    try:
        with pytest.warns(RuntimeWarning, match="no selected pairs"):
            value, grad, positive, negative = pair_similarity_loss(E, plan)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert value == 0.0 and not grad.any() and (positive, negative) == (0, 0)
    # one strip's r x n float64 buffer alone would take 8 * n * PAIR_TILE_ROWS bytes
    assert peak < n * PAIR_TILE_ROWS
    assert pair_similarity_loss(E, plan, 0.2)[2:] == pair_kernel_ref(E, codes, unknown, 0.2)[2:]


@settings(max_examples=examples(40), deadline=None)
@given(st.integers(0, 100_000), st.integers(10, 200), st.floats(0.0, 0.44))
def test_pair_plan_buffers_serve_calls_in_any_phase_order(seed, n_unknown, lam):
    # a few known and background rows, then the unknown rows, whose strips
    # are the widest, so only a self-phase call needs the buffers' full
    # size; each call on the one plan, in whatever phase the call before it
    # ran, gives what the same call gives on a plan of its own, to the bit
    g = np.random.default_rng(seed)
    n_known = int(g.integers(1, 4))
    E, labels = pinned_kernel_input(g, n_known + n_unknown)
    labels = [BG if g.random() < 0.5 else K(0) for _ in range(n_known)]
    labels += [U(2 + int(g.integers(0, 2))) for _ in range(n_unknown)]
    codes, unknown = label_codes(labels)
    plan = pair_plan(codes, unknown)
    n = len(labels)
    widest = {False: 0, True: 0}
    for s, e, _, is_unknown in plan.strips:
        widest[is_unknown] = max(widest[is_unknown], (e - s) * (n - s))
    assert plan.work_size == widest[True] > widest[False]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for phase_lam in (None, lam, None, lam, lam, None):
            value, grad, positive, negative = pair_similarity_loss(E, plan, phase_lam)
            fresh = pair_plan(codes, unknown)
            want_value, want_grad, want_positive, want_negative = pair_similarity_loss(E, fresh, phase_lam)
            assert (positive, negative) == (want_positive, want_negative)
            assert value == want_value and np.array_equal(grad, want_grad)


@pytest.mark.parametrize("lam", [None, 0.2])
def test_pair_kernel_log_products_stay_above_underflow(lam):
    # 64-row strips of clamp-floor pair terms: a group of 64 orthogonal rows,
    # whose positive pairs off the diagonal sit at x = eps, and two groups of
    # 64 copies of one more direction, whose negative pairs sit at
    # x = 1 - (1 - eps); every other pair sits at x = 1 - eps. A product of
    # 64 such terms would underflow to 0 and make the value infinite
    assert PAIR_TILE_ROWS == 64
    eps = CLAMP_EPS
    orthogonal = np.eye(65)[:64]
    copies = np.tile(np.eye(65)[64], (128, 1))
    labels = [K(0)] * 64 + [K(1)] * 64 + [BG] * 64
    plan = pair_plan(*label_codes(labels))
    value, grad, positive, negative = pair_similarity_loss(np.vstack([orthogonal, copies]), plan, lam)
    floor_positive, floor_negative = 64 * 63, 2 * 64 * 64
    assert (positive, negative) == (3 * 64 * 64, 192 * 192 - 3 * 64 * 64)
    log_sum = (
        floor_positive * math.log(eps)
        + floor_negative * math.log(1.0 - (1.0 - eps))
        + (positive + negative - floor_positive - floor_negative) * math.log(1.0 - eps)
    )
    assert math.isfinite(value)
    assert value == pytest.approx(-log_sum / (positive + negative), rel=1e-12)
    assert not grad.any()


@pytest.mark.parametrize("lam", [None, 0.2])
def test_pair_kernel_matches_across_real_tile_boundary(lam):
    g = np.random.default_rng(5)
    n = 2 * PAIR_TILE_ROWS + 37
    assert_kernel_matches(g.normal(0, 1, size=(n, 12)), random_labels(g, n, 3, 8), lam)


def test_pair_kernel_pinned_pairs_pass_no_gradient():
    # rows 0 and 1 are identical (cosine pinned at 1 - eps), row 2 is
    # orthogonal to both (pinned at eps): every pair sits on the clamp
    E = np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 3.0]])
    value, grad, positive, negative = pair_similarity_loss(E, pair_plan(*label_codes([K(0), K(0), K(1)])))
    assert not grad.any()
    assert (positive, negative) == (5, 4)
    assert value == pytest.approx(-(5 * math.log(1.0 - CLAMP_EPS) + 4 * math.log(1.0 - CLAMP_EPS)) / 9)


def test_pair_kernel_overlays_self_verdicts():
    # known row 0, unknown rows 1 and 2 whose cosine is set per case
    def counts(cosine, lam):
        E = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, cosine, math.sqrt(1.0 - cosine**2)]])
        return pair_similarity_loss(E, pair_plan(*label_codes([K(0), U(3), U(4)])), lam)[2:]

    # supervised: the known diagonal is positive, the four known-vs-unknown
    # pairs negative, unknown-unknown pairs undecided
    assert counts(0.99, None) == (1, 4)
    # self-labelled: the unknown diagonal and the 0.99 pair turn positive
    assert counts(0.99, 0.0) == (5, 4)
    # a pair inside the band stays undecided
    assert counts(0.7, 0.0) == (3, 4)
    # below the lower threshold it turns negative
    assert counts(0.3, 0.0) == (3, 6)


def test_pair_kernel_without_selected_pairs_warns():
    E = np.array([[1.0, 0.2], [0.3, 1.0]])
    plan = pair_plan(*label_codes([U(3), U(4)]))
    with pytest.warns(RuntimeWarning, match="no selected pairs"):
        value, grad, positive, negative = pair_similarity_loss(E, plan)
    assert value == 0.0 and not grad.any() and (positive, negative) == (0, 0)
    # self-supervised: diagonal pairs are pinned positives, so the loss is
    # the clamp cost
    value, grad, positive, negative = pair_similarity_loss(E, plan, lam=0.0)
    assert (positive, negative) == (2, 0)
    assert value == pytest.approx(-math.log(1.0 - CLAMP_EPS), abs=1e-12)
    assert not grad.any()


def test_pair_kernel_rejects_zero_norm_rows_and_terminated_schedule():
    plan = pair_plan(*label_codes([K(0), K(1)]))
    with pytest.raises(ValueError, match="zero-norm embedding rows: \\[1\\]"):
        pair_similarity_loss(np.array([[1.0, 0.0], [0.0, 0.0]]), plan)
    with pytest.raises(RuntimeError, match="terminated"):
        pair_similarity_loss(np.eye(2), plan, lam=0.45)


def test_pair_kernel_memory_is_tiled():
    n = 4096
    g = np.random.default_rng(0)
    E = g.normal(0, 1, size=(n, 12))
    plan = pair_plan(*label_codes(random_labels(g, n, 3, 8)))
    tracemalloc.start()
    try:
        pair_similarity_loss(E, plan, lam=0.1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one n x n float64 array alone would take 8 * n * n bytes (134 MB)
    assert peak < 8 * n * n


def test_update_lambda_steps_until_schedule_terminates():
    lam = update_lambda(0.0, 0.01)
    assert lam == pytest.approx(0.011, abs=1e-15)
    assert not schedule_terminated(lam)
    for _ in range(50):
        lam = update_lambda(lam, 0.01)
    assert schedule_terminated(lam)
