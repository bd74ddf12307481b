"""Loss values against hand-computed fixtures, gradient checks against
central differences, and the angular-loss identities."""

import dataclasses
import math
import re
import warnings
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conftest
from conftest import KINK_GAP, draw_instance, gradient_check_instance
from spklab import losses
from spklab.embedding import stable_sigmoid
from spklab.errors import DomainError
from spklab.losses import (
    CenterLossParams,
    ClassifierParams,
    LossHyper,
    center_loss,
    contrastive_loss,
    cross_entropy,
    finite_difference_check,
    logits_aam,
    logits_coco,
    logits_linear,
    logits_nobias,
    triplet_loss_hinge,
    triplet_loss_sigmoid,
)
from spklab.sampling import TupleIndex, form_pairs, form_triplets

BASIS = ClassifierParams(np.array([[1.0, 0.0], [0.0, 1.0]]), np.zeros(2))


class TestLogitVariants:
    def test_linear_unit_basis(self):
        out = logits_linear(np.array([[1.0, 0.0]]), BASIS)
        np.testing.assert_array_equal(out.values, [[1.0, 0.0]])

    def test_linear_bias_shift(self):
        params = ClassifierParams(BASIS.centers, np.array([0.5, -0.5]))
        out = logits_linear(np.array([[1.0, 0.0]]), params)
        np.testing.assert_array_equal(out.values, [[1.5, -0.5]])

    def test_linear_zero_embedding_passes_bias(self):
        params = ClassifierParams(np.array([[3.0, 1.0], [2.0, 2.0]]), np.array([1.0, 2.0]))
        out = logits_linear(np.array([[0.0, 0.0]]), params)
        np.testing.assert_array_equal(out.values, [[1.0, 2.0]])

    def test_linear_without_bias_is_nobias(self):
        # the one linear layer: without a bias it is the bias-free layer, the
        # plain products x C^T, g C and g^T x bit for bit, with no bias gradient
        rng = np.random.default_rng(3)
        for _ in range(50):
            n, k, m = rng.integers(1, 8, size=3)
            x, c = rng.standard_normal((n, m)), rng.standard_normal((k, m))
            g = rng.standard_normal((n, k))
            linear = logits_linear(x, ClassifierParams(c))
            nobias = logits_nobias(x, ClassifierParams(c, rng.standard_normal(k)))
            for out in (linear, nobias):
                assert out.values.tobytes() == (x @ c.T).tobytes()
                dx, grads = out.backward(g)
                assert dx.tobytes() == (g @ c).tobytes()
                assert list(grads) == ["centers"]
                assert grads["centers"].tobytes() == (g.T @ x).tobytes()

    def test_nobias_is_plain_dot(self):
        # |f|*|c|*cos: 2*3*1 = 6 for aligned rows, 0 for orthogonal ones
        params = ClassifierParams(np.array([[3.0, 0.0], [0.0, 5.0]]))
        out = logits_nobias(np.array([[2.0, 0.0], [1.0, 0.0]]), params)
        np.testing.assert_array_equal(out.values, [[6.0, 0.0], [3.0, 0.0]])

    def test_coco_parallel_and_orthogonal(self):
        params = ClassifierParams(np.array([[2.0, 0.0], [0.0, 7.0]]))
        out = logits_coco(np.array([[0.5, 0.0]]), params, LossHyper(alpha=10.0))
        np.testing.assert_allclose(out.values, [[10.0, 0.0]], atol=1e-12)

    def test_coco_hand_value(self):
        # cos([1,2],[2,1]) = 0.8, alpha = 10 -> 8
        params = ClassifierParams(np.array([[2.0, 1.0]]))
        out = logits_coco(np.array([[1.0, 2.0]]), params, LossHyper(alpha=10.0))
        np.testing.assert_allclose(out.values, [[8.0]], atol=1e-9)

    def test_coco_rejects_zero_norm(self):
        with pytest.raises(DomainError):
            logits_coco(np.array([[0.0, 0.0]]), BASIS, LossHyper(alpha=10.0))
        with pytest.raises(DomainError):
            logits_coco(
                np.array([[1.0, 0.0]]),
                ClassifierParams(np.array([[0.0, 0.0]])),
                LossHyper(alpha=10.0),
            )

    def test_aam_zero_margin_equals_coco(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            x = rng.standard_normal((4, 6))
            c = rng.standard_normal((3, 6))
            y = rng.integers(0, 3, size=4)
            coco = logits_coco(x, ClassifierParams(c), LossHyper(alpha=10.0))
            aam = logits_aam(x, y, ClassifierParams(c), LossHyper(alpha=10.0, margin=0.0))
            np.testing.assert_allclose(aam.values, coco.values, atol=1e-12)

    def test_aam_target_margin_value(self):
        # theta = 0 at the target class: logit = alpha * cos(margin)
        params = ClassifierParams(np.array([[1.0, 0.0], [0.0, 1.0]]))
        out = logits_aam(
            np.array([[2.0, 0.0]]), np.array([0]), params, LossHyper(alpha=10.0, margin=0.05)
        )
        assert abs(out.values[0, 0] - 10.0 * math.cos(0.05)) < 1e-12
        # non-target at theta = pi/2 is unaffected by the margin
        assert abs(out.values[0, 1]) < 1e-12

    def test_aam_margin_bound(self):
        with pytest.raises(DomainError):
            logits_aam(np.array([[1.0, 0.0]]), np.array([0]), BASIS, LossHyper(10.0, 0.6))

    def test_equivalence_chain_unit_norm(self):
        # alpha * nobias == coco element-wise on unit-norm rows
        rng = np.random.default_rng(4)
        alpha = 10.0
        for _ in range(50):
            x = rng.standard_normal((5, 4))
            c = rng.standard_normal((3, 4))
            x /= np.linalg.norm(x, axis=1, keepdims=True)
            c /= np.linalg.norm(c, axis=1, keepdims=True)
            nobias = logits_nobias(x, ClassifierParams(c)).values
            coco = logits_coco(x, ClassifierParams(c), LossHyper(alpha=alpha)).values
            np.testing.assert_allclose(alpha * nobias, coco, atol=1e-9)

    def test_scale_invariance_of_pure_angle_logits(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            x = rng.standard_normal((4, 5))
            c = rng.standard_normal((3, 5))
            y = rng.integers(0, 3, size=4)
            s = rng.uniform(1e-3, 1e3)
            hyper = LossHyper(alpha=10.0, margin=0.05)
            base = logits_aam(x, y, ClassifierParams(c), hyper).values
            scaled = logits_aam(s * x, y, ClassifierParams(s * c), hyper).values
            np.testing.assert_allclose(base, scaled, atol=1e-9)


class TestCrossEntropy:
    def test_uniform_logits(self):
        out = cross_entropy(np.zeros((3, 4)), np.array([0, 1, 3]))
        assert abs(out.value - math.log(4.0)) < 1e-12

    def test_hand_softmax(self):
        out = cross_entropy(np.array([[math.log(3.0), 0.0]]), np.array([0]))
        assert abs(out.value - (-math.log(0.75))) < 1e-12

    def test_confident_limit(self):
        out = cross_entropy(np.array([[500.0, 0.0]]), np.array([0]))
        assert out.value < 1e-12

    def test_gradient_on_logits_uniform(self):
        out = cross_entropy(np.zeros((1, 2)), np.array([0]))
        np.testing.assert_allclose(out.grad_logits, [[-0.5, 0.5]], atol=1e-15)

    def test_gradient_matches_differences_on_logits(self):
        rng = np.random.default_rng(8)
        z = rng.standard_normal((3, 4))
        y = np.array([0, 2, 3])

        def fn(arrays):
            out = cross_entropy(arrays["z"], y)
            return out.value, {"z": out.grad_logits}

        assert finite_difference_check(fn, {"z": z}) < 1e-9

    def test_label_out_of_range(self):
        with pytest.raises(DomainError, match="label"):
            cross_entropy(np.zeros((2, 3)), np.array([0, 3]))

    def test_value_non_negative(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            z = 5.0 * rng.standard_normal((4, 6))
            y = rng.integers(0, 6, size=4)
            assert cross_entropy(z, y).value >= 0.0


class TestCenterLoss:
    def test_aligned_penalty_vanishes(self):
        x = np.array([[2.0, 0.0], [0.0, 3.0]])
        y = np.array([0, 1])
        params = ClassifierParams(np.array([[1.0, 1.0], [1.0, -1.0]]), np.zeros(2))
        gamma = np.array([[5.0, 0.0], [0.0, 1.0]])  # parallel to each embedding
        out = center_loss(x, y, params, CenterLossParams(gamma, lam=3.0))
        ce = cross_entropy(logits_linear(x, params), y)
        assert abs(out.value - ce.value) < 1e-12

    def test_orthogonal_single_sample_penalty(self):
        # cos = 0 with lambda = 1 adds (1/2) * (1 - 0)^2 = 0.5
        x = np.array([[1.0, 0.0]])
        y = np.array([0])
        params = ClassifierParams(np.array([[1.0, 0.0], [0.0, 1.0]]), np.zeros(2))
        gamma = np.array([[0.0, 1.0], [1.0, 0.0]])
        out = center_loss(x, y, params, CenterLossParams(gamma, lam=1.0))
        ce = cross_entropy(logits_linear(x, params), y)
        assert abs(out.value - (ce.value + 0.5)) < 1e-12

    def test_lambda_zero_equals_cross_entropy_exactly(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((5, 4))
        y = rng.integers(0, 3, size=5)
        params = ClassifierParams(rng.standard_normal((3, 4)), rng.standard_normal(3))
        gamma = rng.standard_normal((3, 4))
        out = center_loss(x, y, params, CenterLossParams(gamma, lam=0.0))
        ce = cross_entropy(logits_linear(x, params), y)
        assert out.value == ce.value
        np.testing.assert_array_equal(out.grad_embeddings, ce.grad_embeddings)
        np.testing.assert_array_equal(out.grads["gamma"], np.zeros_like(gamma))

    def test_alternative_penalty_reading(self):
        # At cos = 0.5 the readings differ: (1-0.5)^2 = 0.25 vs 1-0.25 = 0.75;
        # with lambda = 2 the added terms are 0.25 and 0.75.
        x = np.array([[1.0, 0.0]])
        y = np.array([0])
        params = ClassifierParams(np.eye(2), np.zeros(2))
        gamma = np.array([[1.0, np.sqrt(3.0)], [0.0, 1.0]])  # cos = 0.5
        ce = cross_entropy(logits_linear(x, params), y).value
        sq = center_loss(x, y, params, CenterLossParams(gamma, lam=2.0)).value
        alt = center_loss(
            x, y, params, CenterLossParams(gamma, lam=2.0, penalty="one_minus_cos_sq")
        ).value
        assert abs(sq - (ce + 0.25)) < 1e-12
        assert abs(alt - (ce + 0.75)) < 1e-12

    def test_gamma_zero_row_rejected_when_used(self):
        x = np.array([[1.0, 0.0]])
        params = ClassifierParams(np.eye(2), np.zeros(2))
        gamma = np.array([[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(DomainError, match="gamma"):
            center_loss(x, np.array([0]), params, CenterLossParams(gamma, lam=1.0))

    def test_overflowing_penalty_fails_the_value_check(self):
        # gamma opposite every embedding: each penalty term is (1 - (-1))^2 = 4, and a
        # finite lambda of 1e308 carries their sum past the largest float
        x = np.eye(2)
        params = ClassifierParams(np.eye(2), np.zeros(2))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DomainError, match="loss value is not finite"):
                center_loss(x, np.array([0, 1]), params, CenterLossParams(-np.eye(2), lam=1e308))

    @pytest.mark.parametrize("lam, penalty, message", [
        (math.inf, "squared_cos_distance", "lambda must be non-negative and finite, got inf"),
        (-1.0, "squared_cos_distance", "lambda must be non-negative and finite, got -1.0"),
        (1.0, "bogus", "unknown center penalty 'bogus'"),
    ])
    def test_hyper_and_params_check_lambda_and_penalty_alike(self, lam, penalty, message):
        with pytest.raises(DomainError, match=re.escape(message)):
            LossHyper(lam=lam, center_penalty=penalty)
        with pytest.raises(DomainError, match=re.escape(message)):
            CenterLossParams(np.eye(2), lam, penalty)


class TestContrastive:
    HYPER = LossHyper(margin=0.2)

    def test_identical_positive_pair_is_zero(self):
        x = np.array([[1.0, 0.0], [1.0, 0.0]])
        out = contrastive_loss(x, TupleIndex(positives=[[0, 1]]), self.HYPER)
        assert out.value == 0.0
        # generic identical vectors only reach zero up to cosine rounding
        x = np.array([[1.0, 2.0], [1.0, 2.0]])
        out = contrastive_loss(x, TupleIndex(positives=[[0, 1]]), self.HYPER)
        assert out.value < 1e-30

    def test_inactive_negative_hinge(self):
        x = np.array([[1.0, 0.0], [0.0, 1.0]])  # cos 0: hinge max(0.2-1, 0) = 0
        out = contrastive_loss(x, TupleIndex(negatives=[[0, 1]]), self.HYPER)
        assert out.value == 0.0

    def test_active_negative_hinge_value(self):
        # cos = 0.9 -> (0.2 - 0.1)^2 = 0.01
        x = np.array([[1.0, 0.0], [0.9, np.sqrt(1.0 - 0.81)]])
        out = contrastive_loss(x, TupleIndex(negatives=[[0, 1]]), self.HYPER)
        assert abs(out.value - 0.01) < 1e-9

    def test_pair_swap_invariance(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal((6, 4))
        tuples = form_pairs(np.array([0, 0, 1, 1, 2, 2]))
        swapped = TupleIndex(
            positives=tuples.positives[:, ::-1], negatives=tuples.negatives[:, ::-1]
        )
        a = contrastive_loss(x, tuples, self.HYPER)
        b = contrastive_loss(x, swapped, self.HYPER)
        assert a.value == b.value
        np.testing.assert_allclose(a.grad_embeddings, b.grad_embeddings, atol=1e-12)

    def test_same_index_pair_rejected(self):
        x = np.eye(2)
        with pytest.raises(DomainError, match="same index"):
            contrastive_loss(x, TupleIndex(positives=[[1, 1]]), self.HYPER)

    def test_requires_positive_margin(self):
        with pytest.raises(DomainError):
            contrastive_loss(np.eye(2), TupleIndex(), LossHyper(margin=0.0))

    def test_terms_non_negative(self):
        rng = np.random.default_rng(16)
        for _ in range(50):
            x = rng.standard_normal((6, 5))
            y = rng.integers(0, 3, size=6)
            assert contrastive_loss(x, form_pairs(y), self.HYPER).value >= 0.0


def _unit(vecs):
    vecs = np.asarray(vecs, dtype=np.float64)
    return vecs / np.linalg.norm(vecs, axis=1, keepdims=True)


class TestTripletHinge:
    def test_inactive_hinge(self):
        # cos_an = 0.2, cos_ap = 0.9, m = 0.1 -> max(0.2-0.9+0.1, 0) = 0
        x = _unit([[1.0, 0.0], [0.9, np.sqrt(0.19)], [0.2, np.sqrt(0.96)]])
        y = np.array([0, 0, 1])
        out = triplet_loss_hinge(x, y, TupleIndex(triplets=[[0, 1, 2]]), LossHyper(margin=0.1))
        assert out.value == 0.0

    def test_active_hinge_value(self):
        # cos_an = 0.9, cos_ap = 0.2 -> 0.9 - 0.2 + 0.1 = 0.8
        x = _unit([[1.0, 0.0], [0.2, np.sqrt(0.96)], [0.9, np.sqrt(0.19)]])
        y = np.array([0, 0, 1])
        out = triplet_loss_hinge(x, y, TupleIndex(triplets=[[0, 1, 2]]), LossHyper(margin=0.1))
        assert abs(out.value - 0.8) < 1e-9

    def test_equal_angles_give_margin(self):
        x = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        y = np.array([0, 0, 1])
        out = triplet_loss_hinge(x, y, TupleIndex(triplets=[[0, 1, 2]]), LossHyper(margin=0.1))
        assert out.value == 0.1

    def test_bad_labels_rejected(self):
        x = np.eye(3)
        with pytest.raises(DomainError, match="labels"):
            triplet_loss_hinge(
                x, np.array([0, 1, 2]), TupleIndex(triplets=[[0, 1, 2]]), LossHyper(margin=0.1)
            )
        with pytest.raises(DomainError, match="anchor"):
            triplet_loss_hinge(
                x, np.array([0, 0, 1]), TupleIndex(triplets=[[0, 0, 2]]), LossHyper(margin=0.1)
            )


class TestTripletSigmoid:
    def test_equal_angles_give_half(self):
        x = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        y = np.array([0, 0, 1])
        out = triplet_loss_sigmoid(x, y, TupleIndex(triplets=[[0, 1, 2]]), LossHyper(alpha=10.0))
        assert out.value == 0.5

    @pytest.mark.parametrize("sign", [-1.0, 1.0])
    def test_saturating_value(self, sign):
        # cos_an - cos_ap = +/-0.7 at alpha 10 -> sigmoid(+/-7)
        n = [0.7, np.sqrt(1.0 - 0.49)] if sign > 0 else [0.0, 1.0]
        p = [0.0, 1.0] if sign > 0 else [0.7, np.sqrt(1.0 - 0.49)]
        x = _unit([[1.0, 0.0], p, n])
        y = np.array([0, 0, 1])
        out = triplet_loss_sigmoid(x, y, TupleIndex(triplets=[[0, 1, 2]]), LossHyper(alpha=10.0))
        cos_an = float(x[0] @ x[2] / (np.linalg.norm(x[0]) * np.linalg.norm(x[2])))
        cos_ap = float(x[0] @ x[1] / (np.linalg.norm(x[0]) * np.linalg.norm(x[1])))
        expected = 1.0 / (1.0 + math.exp(-10.0 * (cos_an - cos_ap)))
        assert abs(out.value - expected) < 1e-12
        assert abs(expected - (0.5 + sign * (0.5 - 9.110511944006454e-4))) < 1e-6

    def test_terms_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(18)
        for _ in range(50):
            x = rng.standard_normal((6, 4))
            y = np.array([0, 0, 1, 1, 2, 2])
            tuples = form_triplets(y)
            out = triplet_loss_sigmoid(x, y, tuples, LossHyper(alpha=10.0))
            assert 0.0 < out.value < len(tuples.triplets)

    def test_stable_sigmoid_extremes(self):
        # no overflow at huge arguments; float64 saturates to exact 0/1 there
        with np.errstate(over="raise"):
            vals = stable_sigmoid(np.array([-1e4, -50.0, 0.0, 50.0, 1e4]))
        assert vals[0] == 0.0 and vals[-1] == 1.0
        assert vals[2] == 0.5
        assert 0.0 < vals[1] < 1e-20
        assert abs(vals[3] - 1.0) < 1e-20
        mid = stable_sigmoid(np.array([-7.0, 7.0]))
        assert abs(mid[0] - 1.0 / (1.0 + math.exp(7.0))) < 1e-18
        assert abs(mid[0] + mid[1] - 1.0) < 1e-15


class TestGradients:
    """Central-difference verification of every analytic gradient."""

    @pytest.mark.parametrize("kind", losses.LOSS_KINDS)
    def test_matches_finite_differences(self, kind):
        rng = np.random.default_rng(zlib.crc32(kind.encode()))
        for _ in range(10):
            assert gradient_check_instance(kind, rng) <= 1e-4

    def test_constant_center_term_has_zero_gamma_gradient(self):
        rng = np.random.default_rng(20)
        x, y, centers, bias, gamma, tuples, hyper = draw_instance("center", rng)

        def fn(arrays):
            params = ClassifierParams(centers, bias)
            cparams = CenterLossParams(arrays["g"], lam=0.0)
            out = center_loss(x, y, params, cparams)
            return out.value, {"g": out.grads["gamma"]}

        out = fn({"g": gamma})
        np.testing.assert_array_equal(out[1]["g"], np.zeros_like(gamma))
        assert finite_difference_check(fn, {"g": gamma}) == 0.0

    def test_checker_epsilon_validation(self):
        with pytest.raises(DomainError):
            finite_difference_check(lambda a: (0.0, a), {"x": np.zeros(2)}, epsilon=0.5)


DENSE = {
    "contrastive": losses.contrastive_loss_dense,
    "triplet_hinge": losses.triplet_loss_hinge_dense,
    "triplet_sigmoid": losses.triplet_loss_sigmoid_dense,
}


def oracle(kind, x, y, hyper):
    """A contrast loss over the tuple lists formed one by one."""
    if kind == "contrastive":
        return contrastive_loss(x, form_pairs(y), hyper)
    explicit = triplet_loss_hinge if kind == "triplet_hinge" else triplet_loss_sigmoid
    return explicit(x, y, form_triplets(y), hyper)


def hinge_kinks(kind, x, y):
    """The margins at which some hinge argument of the batch is zero."""
    u = x / np.linalg.norm(x, axis=1, keepdims=True)
    if kind == "contrastive":
        i, j = form_pairs(y).negatives.T
        return 1.0 - (u[i] * u[j]).sum(axis=1)
    a, p, n = form_triplets(y).triplets.T
    return (u[a] * u[p]).sum(axis=1) - (u[a] * u[n]).sum(axis=1)


def clear_margin(kinks, margin):
    """The positive margin nearest to `margin` that keeps every hinge
    argument at least KINK_GAP away from zero."""
    k = np.sort(kinks)
    if k.size == 0:
        return margin
    cands = np.concatenate([[margin], k - 1.5 * KINK_GAP, k + 1.5 * KINK_GAP])
    cands = cands[cands > 0]
    at = np.searchsorted(k, cands)
    gap = np.minimum(np.abs(cands - k[np.maximum(at - 1, 0)]),
                     np.abs(k[np.minimum(at, k.size - 1)] - cands))
    clear = cands[gap >= KINK_GAP]
    return float(clear[np.argmin(np.abs(clear - margin))])


@st.composite
def contrast_batches(draw):
    """A contrast loss kind and a batch: balanced S x c labels (S 2-12,
    c 2-4) in a shuffled order, or an unbalanced label multiset with
    singletons allowed; embeddings of dim 1-16 with row norms in [0.5, 4];
    alpha in [0.5, 30]; a margin drawn in [0.01, 1] and, for the hinge
    kinds, moved to the nearest value KINK_GAP clear of every hinge."""
    kind = draw(st.sampled_from(sorted(DENSE)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        s, c = draw(st.integers(2, 12)), draw(st.integers(2, 4))
        y = rng.permutation(np.repeat(rng.permutation(50)[:s], c))
    else:
        y = np.array(draw(st.lists(st.integers(0, 5), min_size=2, max_size=30)))
    dim = draw(st.integers(1, 16))
    x = rng.standard_normal((y.size, dim))
    x *= rng.uniform(0.5, 4.0, size=(y.size, 1)) / np.linalg.norm(x, axis=1, keepdims=True)
    alpha = draw(st.floats(0.5, 30.0))
    margin = draw(st.floats(0.01, 1.0))
    if kind != "triplet_sigmoid":
        margin = clear_margin(hinge_kinks(kind, x, y), margin)
    return kind, x, y, LossHyper(alpha=alpha, margin=margin)


class TestDenseAgainstTupleOracle:
    """The batch-matrix contrast losses against the same losses summed over
    explicitly formed tuple lists."""

    @settings(max_examples=300, deadline=None)
    @given(case=contrast_batches())
    def test_value_and_gradient_match_oracle(self, case):
        kind, x, y, hyper = case
        dense = DENSE[kind](x, y, hyper)
        expected = oracle(kind, x, y, hyper)
        assert abs(dense.value - expected.value) <= 1e-12 * abs(expected.value)
        assert dense.n_terms == expected.n_terms
        assert dense.reduction == expected.reduction == "sum"
        # 1e-12 absolute on gradients of order one; a batch whose hinge
        # terms add up to a gradient in the hundreds gets the same 1e-12
        # relative to its largest entry, as the two paths sum in different
        # orders
        scale = max(1.0, float(np.abs(expected.grad_embeddings).max(initial=0.0)))
        np.testing.assert_allclose(dense.grad_embeddings, expected.grad_embeddings,
                                   rtol=0.0, atol=1e-12 * scale)

    def test_labels_must_match_batch(self):
        with pytest.raises(DomainError, match="labels"):
            losses.triplet_loss_sigmoid_dense(np.eye(3), np.array([0, 0]), LossHyper())

    def test_contrastive_requires_positive_margin(self):
        with pytest.raises(DomainError, match="margin"):
            losses.contrastive_loss_dense(np.eye(2), np.array([0, 1]), LossHyper(margin=0.0))


class TestDenseGradients:
    """Central-difference verification of the batch-matrix contrast losses
    on the instances the explicit-tuple gradient check draws."""

    @pytest.mark.parametrize("kind", sorted(DENSE))
    def test_matches_finite_differences(self, kind):
        rng = np.random.default_rng(zlib.crc32(f"dense {kind}".encode()))
        for _ in range(20):
            x, y, _, _, _, _, hyper = draw_instance(kind, rng)

            def fn(arrays):
                out = DENSE[kind](arrays["x"], y, hyper)
                return out.value, {"x": out.grad_embeddings}

            assert finite_difference_check(fn, {"x": x}) <= 1e-4


def select_stable_sigmoid(z):
    """`stable_sigmoid` with its numerator as a select over the sign
    pattern."""
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def batch_grads(g, u, xn, s):
    """The embedding gradient of sum_ij G_ij S_ij over a batch: the gradient
    block with each pair weighed from both ends, W = G + G^T."""
    w = g + g.T
    return losses._cosine_grads(w, w * s, u, xn, u)


def select_contrastive(x, labels, hyper):
    """`contrastive_loss_dense` with nested selects over the label and
    hinge masks."""
    y = np.asarray(labels)
    u, xn, _, _, s = losses._cosines(x)
    same = y[:, None] == y[None, :]
    upper = np.triu(np.ones_like(same), k=1)
    h = hyper.margin - (1.0 - s)
    active = ~same & (h > 0)
    terms = np.where(same, (1.0 - s) ** 2, np.where(active, h**2, 0.0))
    slopes = np.where(same, -2.0 * (1.0 - s), np.where(active, 2.0 * h, 0.0))
    dx = batch_grads(np.where(upper, slopes, 0.0), u, xn, s)
    return losses.LossOutput(float(terms[upper].sum()), grad_embeddings=dx,
                             reduction="sum", n_terms=int(upper.sum()))


def select_triplet(x, labels, term):
    """`_triplet_loss_dense` with each anchor's positives found by a stable
    argsort of its row of the label mask, and the mask applied by a select;
    `term` maps the differences to (terms, slopes)."""
    y = np.asarray(labels)
    u, xn, _, _, s = losses._cosines(x)
    positive = y[:, None] == y[None, :]
    np.fill_diagonal(positive, False)
    k = int(positive.sum(axis=1).max(initial=0))
    first = np.argsort(~positive, axis=1, kind="stable")[:, :k]
    valid = np.take_along_axis(positive, first, axis=1)
    rows = np.arange(len(y))[:, None]
    p = np.where(valid, first, rows)
    mask = valid[:, :, None] & (y[:, None] != y[None, :])[:, None, :]
    terms, slopes = term(s[:, None, :] - np.take_along_axis(s, p, axis=1)[:, :, None])
    w = np.where(mask, slopes, 0.0)
    g = w.sum(axis=1)
    g[rows, p] -= w.sum(axis=2)
    dx = batch_grads(g, u, xn, s)
    return losses.LossOutput(float(terms[mask].sum()), grad_embeddings=dx,
                             reduction="sum", n_terms=int(mask.sum()))


def select_oracle(kind, x, y, hyper):
    """A dense contrast loss with the selects and per-row sorts its kernel
    replaces: the same float arithmetic, so the results agree bit for bit."""
    if kind == "contrastive":
        return select_contrastive(x, y, hyper)
    if kind == "triplet_hinge":
        def term(d):
            g = d + hyper.margin
            return np.maximum(g, 0.0), (g > 0).astype(np.float64)
    else:
        def term(d):
            sig = select_stable_sigmoid(hyper.alpha * d)
            return sig, hyper.alpha * sig * (1.0 - sig)
    return select_triplet(x, y, term)


def assert_same_bits(out, expected):
    assert out.value == expected.value
    assert out.n_terms == expected.n_terms and isinstance(out.n_terms, int)
    assert out.grad_embeddings.shape == expected.grad_embeddings.shape
    # bytes, so that the sign of a zero counts too
    assert out.grad_embeddings.tobytes() == expected.grad_embeddings.tobytes()


class TestDenseAgainstSelectOracle:
    """The dense contrast kernels against the select-and-sort versions they
    replaced, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(case=contrast_batches())
    def test_bit_for_bit(self, case):
        kind, x, y, hyper = case
        assert_same_bits(DENSE[kind](x, y, hyper), select_oracle(kind, x, y, hyper))

    @pytest.mark.parametrize("kind", sorted(DENSE))
    @pytest.mark.parametrize("speakers, chunks", [(40, 3), (20, 3), (30, 1)])
    def test_bit_for_bit_at_training_shapes(self, kind, speakers, chunks):
        # the tuned batch shapes, in speaker order and shuffled; one chunk per
        # speaker leaves every anchor without a positive (k = 0)
        rng = np.random.default_rng(zlib.crc32(f"{kind} {speakers}x{chunks}".encode()))
        hyper = LossHyper(alpha=10.0, margin=0.3)
        for _ in range(5):
            y = np.repeat(rng.permutation(200)[:speakers], chunks)
            x = rng.standard_normal((y.size, 16))
            for labels in (y, rng.permutation(y)):
                out = DENSE[kind](x, labels, hyper)
                assert_same_bits(out, select_oracle(kind, x, labels, hyper))
        if chunks == 1 and kind != "contrastive":
            assert out.value == 0.0 and out.n_terms == 0

    @pytest.mark.parametrize("kind", sorted(DENSE))
    def test_run_scratch_gives_the_bits_of_fresh_calls(self, kind):
        # a run's batches share one scratch, through a change of batch shape and back;
        # each batch keeps the bits of a call without it, and no result is a kept temporary
        rng = np.random.default_rng(zlib.crc32(kind.encode()))
        hyper = LossHyper(alpha=10.0, margin=0.3)
        state = losses.LossState(hyper)
        for speakers, chunks in ((40, 3), (40, 3), (7, 4), (40, 3)):
            y = rng.permutation(np.repeat(rng.permutation(200)[:speakers], chunks))
            x = rng.standard_normal((y.size, 16))
            out = losses.evaluate_loss(kind, x, y, state)
            assert_same_bits(out, DENSE[kind](x, y, hyper))
            assert_same_bits(out, select_oracle(kind, x, y, hyper))
            assert state.scratch
            for array in state.scratch.values():
                assert not np.shares_memory(out.grad_embeddings, array)

    def test_stable_sigmoid_special_values(self):
        z = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e4, -1e4, 7.0, -7.0, 745.2, -745.2])
        expected = select_stable_sigmoid(z)
        assert np.array_equal(stable_sigmoid(z), expected, equal_nan=True)
        in_place = z.copy()
        assert stable_sigmoid(in_place, out=in_place) is in_place
        assert np.array_equal(in_place, expected, equal_nan=True)
        in_place, den = z.copy(), np.empty_like(z)
        assert stable_sigmoid(in_place, out=in_place, den=den) is in_place
        assert np.array_equal(in_place, expected, equal_nan=True)
        finite = ~np.isnan(z)
        assert stable_sigmoid(z)[finite].tobytes() == expected[finite].tobytes()


# The arrays each loss kind trains, in draw order, and its named loss function
# called directly on a LossState's arrays: what evaluate_loss must reproduce.
TRAINED = {
    "ce": ("centers", "bias"), "ce_nobias": ("centers",), "coco": ("centers",),
    "aam": ("centers",), "center": ("centers", "bias", "gamma"),
    "contrastive": (), "triplet_hinge": (), "triplet_sigmoid": (),
}


def named_loss(kind, x, y, state):
    arrays, hyper = state.arrays, state.hyper
    params = ClassifierParams(arrays["centers"], arrays.get("bias")) if arrays else None
    if kind == "ce":
        return cross_entropy(logits_linear(x, params), y)
    if kind == "ce_nobias":
        return cross_entropy(logits_nobias(x, params), y)
    if kind == "coco":
        return cross_entropy(logits_coco(x, params, hyper), y)
    if kind == "aam":
        return cross_entropy(logits_aam(x, y, params, hyper), y)
    if kind == "center":
        cparams = CenterLossParams(arrays["gamma"], hyper.lam, hyper.center_penalty)
        return center_loss(x, y, params, cparams)
    return DENSE[kind](x, y, hyper)


class TestLossStateDispatch:
    @pytest.mark.parametrize("kind", losses.LOSS_KINDS)
    def test_dispatch_equals_named_loss(self, kind):
        # a lambda and a penalty reading off their defaults, so the table
        # must pass the state's own values through
        rng = np.random.default_rng(20)
        hyper = dataclasses.replace(conftest.INSTANCE_HYPER[kind], lam=0.5,
                                    center_penalty="one_minus_cos_sq")
        state = losses.init_loss_state(kind, 3, 4, hyper, rng)
        if "bias" in state.arrays:
            state.arrays["bias"] = 0.1 * rng.standard_normal(3)
        x = rng.standard_normal((6, 4))
        y = np.array([2, 0, 2, 1, 0, 1])
        out = losses.evaluate_loss(kind, x, y, state)
        expected = named_loss(kind, x, y, state)
        assert_same_bits(out, expected)
        assert out.reduction == expected.reduction
        assert list(out.grads) == list(expected.grads) == list(TRAINED[kind])
        for name, grad in out.grads.items():
            assert grad.tobytes() == expected.grads[name].tobytes()
        if expected.grad_logits is None:
            assert out.grad_logits is None
        else:
            assert out.grad_logits.tobytes() == expected.grad_logits.tobytes()

    @pytest.mark.parametrize("kind", losses.LOSS_KINDS)
    def test_init_state_draws_the_row_arrays_in_order(self, kind):
        # centers, then gamma, from the run's generator; the bias draws nothing
        rng = np.random.default_rng(21)
        state = losses.init_loss_state(kind, 5, 4, LossHyper(), rng)
        assert tuple(state.arrays) == losses.KINDS[kind].arrays == TRAINED[kind]
        by_hand = np.random.default_rng(21)
        for name in ("centers", "gamma"):
            if name in state.arrays:
                drawn = by_hand.uniform(-0.5, 0.5, size=(5, 4))
                assert state.arrays[name].tobytes() == drawn.tobytes()
        if "bias" in state.arrays:
            assert state.arrays["bias"].tobytes() == np.zeros(5).tobytes()
        assert rng.bit_generator.state == by_hand.bit_generator.state

    def test_unknown_kind_fails(self):
        state = losses.LossState(LossHyper())
        with pytest.raises(DomainError, match="unknown loss kind 'arcface'"):
            losses.init_loss_state("arcface", 3, 4, LossHyper(), np.random.default_rng(0))
        with pytest.raises(DomainError, match="unknown loss kind 'arcface'"):
            losses.evaluate_loss("arcface", np.ones((2, 4)), np.array([0, 1]), state)

    def test_init_state_shapes(self):
        rng = np.random.default_rng(22)
        state = losses.init_loss_state("center", 7, 5, LossHyper(lam=0.5), rng)
        assert state.arrays["centers"].shape == (7, 5)
        assert state.arrays["bias"].shape == (7,)
        assert state.arrays["gamma"].shape == (7, 5)
        assert state.hyper.lam == 0.5
        state = losses.init_loss_state("coco", 7, 5, LossHyper(alpha=10.0), rng)
        assert "bias" not in state.arrays
        state = losses.init_loss_state("contrastive", 7, 5, LossHyper(margin=0.2), rng)
        assert state.arrays == {}

    def test_dispatch_takes_contrast_tuples_from_labels(self):
        rng = np.random.default_rng(24)
        x = rng.standard_normal((6, 4))
        y = np.array([2, 0, 2, 1, 0, 1])
        for kind in [k for k, row in losses.KINDS.items() if row.mode != "classification"]:
            state = losses.init_loss_state(kind, 3, 4, conftest.INSTANCE_HYPER[kind], rng)
            out = losses.evaluate_loss(kind, x, y, state)
            expected = oracle(kind, x, y, state.hyper)
            assert out.value == pytest.approx(expected.value, rel=1e-12, abs=0.0)
            assert out.n_terms == expected.n_terms
            np.testing.assert_allclose(out.grad_embeddings, expected.grad_embeddings,
                                       rtol=0.0, atol=1e-12)

    def test_output_is_frozen(self):
        state = losses.init_loss_state("ce", 2, 2, LossHyper(), np.random.default_rng(25))
        out = losses.evaluate_loss("ce", np.eye(2), np.array([0, 1]), state)
        for name, value in (("value", 0.0), ("grads", {}), ("reduction", "sum")):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(out, name, value)

    def test_reduction_metadata(self):
        rng = np.random.default_rng(26)
        x = rng.standard_normal((4, 4))
        y = np.array([0, 0, 1, 1])
        state = losses.init_loss_state("ce", 2, 4, LossHyper(), rng)
        assert losses.evaluate_loss("ce", x, y, state).reduction == "mean"
        state = losses.init_loss_state("contrastive", 2, 4, LossHyper(margin=0.2), rng)
        out = losses.evaluate_loss("contrastive", x, y, state)
        assert out.reduction == "sum"
        assert out.n_terms == 6


def readme_batch(kind):
    """The README batch shape of a kind, as (speakers, chunks): 25 x 1 for the
    classification kinds, the tuned shape of each contrast kind's grid."""
    tuned = losses.KINDS[kind].tuned
    return tuned.get("speakers_per_batch", 25), tuned.get("chunks_per_speaker", 1)


class TestRowChecks:
    """Every kind checks its embeddings once, and a bad row fails with one
    DomainError that names it."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0], ids=["nan", "inf", "zero"])
    @pytest.mark.parametrize("shape", ["batch6", "readme"])
    @pytest.mark.parametrize("kind", losses.LOSS_KINDS)
    def test_bad_row_fails_naming_it(self, kind, shape, bad):
        rng = np.random.default_rng(zlib.crc32(f"{kind} {shape} {bad}".encode()))
        speakers, chunks = (3, 2) if shape == "batch6" else readme_batch(kind)
        y = rng.permutation(np.repeat(np.arange(speakers), chunks))
        state = losses.init_loss_state(kind, speakers, 16, conftest.INSTANCE_HYPER[kind], rng)
        x = rng.standard_normal((y.size, 16))
        row = y.size // 2 + 1
        x[row] = 0.0
        x[row, 1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the error comes alone, with no numpy warning
            with pytest.raises(DomainError, match=rf"embedding.* at row {row}$"):
                losses.evaluate_loss(kind, x, y, state)
