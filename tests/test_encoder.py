"""Forward/backward contracts of the feedforward encoder."""

import numpy as np
import pytest

from spklab.embedding import cosine_similarity
from spklab.encoder import (
    EncoderParams,
    backward,
    forward,
    init_encoder,
    sgd_step,
)
from spklab.errors import DomainError
from spklab.losses import finite_difference_check


def identity_params(dim):
    return EncoderParams(
        w1=np.eye(dim), b1=np.zeros(dim), w2=np.eye(dim), b2=np.zeros(dim),
        activation="identity",
    )


class TestForward:
    def test_identity_network_passes_input_through(self):
        params = identity_params(4)
        x = np.random.default_rng(0).standard_normal((3, 4))
        out, _ = forward(params, x)
        np.testing.assert_array_equal(out, x)

    def test_zero_weights_give_zero_embedding(self):
        params = EncoderParams(
            w1=np.zeros((4, 3)), b1=np.zeros(4), w2=np.zeros((2, 4)), b2=np.zeros(2),
            activation="tanh",
        )
        out, _ = forward(params, np.ones((1, 3)))
        np.testing.assert_array_equal(out, np.zeros((1, 2)))
        with pytest.raises(DomainError):
            cosine_similarity(out[0], np.ones(2))

    def test_finite_outputs_for_finite_inputs(self):
        rng = np.random.default_rng(1)
        params = init_encoder(6, 8, 4, rng)
        x = rng.standard_normal((1000, 6)) * rng.uniform(0.1, 10.0, size=(1000, 1))
        out, _ = forward(params, x)
        assert np.all(np.isfinite(out))

    def test_dimension_mismatch(self):
        params = init_encoder(6, 8, 4, np.random.default_rng(2))
        with pytest.raises(DomainError, match="features"):
            forward(params, np.zeros((3, 5)))
        with pytest.raises(DomainError):
            forward(params, np.zeros(6))  # 1-D input not accepted
        with pytest.raises(DomainError, match="features"):
            forward(params, np.zeros((2, 3, 5)))  # a stack of the wrong feature dim
        with pytest.raises(DomainError):
            forward(params, np.zeros((2, 2, 3, 6)))  # 4-D input not accepted

    def test_stack_encodes_each_slice_as_alone(self):
        rng = np.random.default_rng(4)
        params = init_encoder(6, 8, 4, rng)
        stack = rng.standard_normal((5, 3, 6))
        out, _ = forward(params, stack)
        assert out.shape == (5, 3, 4)
        for x, e in zip(stack, out):
            assert np.array_equal(forward(params, x)[0], e)


class TestBackward:
    def test_zero_upstream_gradient(self):
        rng = np.random.default_rng(3)
        params = init_encoder(5, 7, 3, rng)
        _, cache = forward(params, rng.standard_normal((4, 5)))
        grads = backward(params, cache, np.zeros((4, 3)))
        for arr in grads.values():
            np.testing.assert_array_equal(arr, np.zeros_like(arr))

    def test_linear_single_sample_outer_products(self):
        rng = np.random.default_rng(4)
        params = EncoderParams(
            w1=rng.standard_normal((4, 3)), b1=np.zeros(4),
            w2=rng.standard_normal((2, 4)), b2=np.zeros(2),
            activation="identity",
        )
        x = rng.standard_normal((1, 3))
        de = rng.standard_normal((1, 2))
        emb, cache = forward(params, x)
        grads = backward(params, cache, de)
        h = x @ params.w1.T
        np.testing.assert_allclose(grads["w2"], np.outer(de[0], h[0]), atol=1e-15)
        np.testing.assert_allclose(
            grads["w1"], np.outer(de[0] @ params.w2, x[0]), atol=1e-15
        )

    @pytest.mark.parametrize("activation", ["tanh", "identity", "sigmoid"])
    def test_matches_finite_differences(self, activation):
        rng = np.random.default_rng(5)
        for _ in range(100):
            params = init_encoder(5, 6, 4, rng, activation)
            x = rng.standard_normal((3, 5))
            upstream = rng.standard_normal((3, 4))

            def fn(arrays):
                p = EncoderParams(
                    arrays["w1"], arrays["b1"], arrays["w2"], arrays["b2"], activation
                )
                emb, cache = forward(p, x)
                grads = backward(p, cache, upstream)
                return float((upstream * emb).sum()), grads

            assert finite_difference_check(fn, params.arrays()) <= 1e-4

    def test_stale_cache_rejected(self):
        rng = np.random.default_rng(6)
        params = init_encoder(4, 5, 3, rng)
        _, cache = forward(params, rng.standard_normal((2, 4)))
        sgd_step(params, backward(params, cache, np.zeros((2, 3))), 0.1)
        with pytest.raises(DomainError, match="stale"):
            backward(params, cache, np.zeros((2, 3)))

    def test_gradient_shape_mismatch(self):
        rng = np.random.default_rng(7)
        params = init_encoder(4, 5, 3, rng)
        _, cache = forward(params, rng.standard_normal((2, 4)))
        with pytest.raises(DomainError):
            backward(params, cache, np.zeros((3, 3)))


class TestInitAndStep:
    def test_init_ranges(self):
        rng = np.random.default_rng(8)
        params = init_encoder(16, 8, 4, rng)
        assert np.abs(params.w1).max() <= 1.0 / np.sqrt(16)
        assert np.abs(params.w2).max() <= 1.0 / np.sqrt(8)
        np.testing.assert_array_equal(params.b1, np.zeros(8))
        np.testing.assert_array_equal(params.b2, np.zeros(4))

    def test_init_deterministic(self):
        a = init_encoder(6, 5, 4, np.random.default_rng(9))
        b = init_encoder(6, 5, 4, np.random.default_rng(9))
        np.testing.assert_array_equal(a.w1, b.w1)
        np.testing.assert_array_equal(a.w2, b.w2)

    def test_sgd_step_updates_and_bumps_version(self):
        rng = np.random.default_rng(10)
        params = init_encoder(3, 4, 2, rng)
        w1_before = params.w1.copy()
        _, cache = forward(params, rng.standard_normal((2, 3)))
        grads = backward(params, cache, rng.standard_normal((2, 2)))
        version = params.version
        sgd_step(params, grads, 0.5)
        np.testing.assert_array_equal(params.w1, w1_before - 0.5 * grads["w1"])
        assert params.version == version + 1

    def test_copy_is_independent_and_keeps_order(self):
        rng = np.random.default_rng(12)
        params = init_encoder(3, 4, 2, rng, activation="sigmoid")
        params.loss_arrays = {"gamma": rng.standard_normal((5, 2)), "centers": np.ones((5, 2))}
        params.version = 7
        copied = params.copy()
        assert (copied.activation, copied.version) == ("sigmoid", 7)
        assert list(copied.arrays()) == list(params.arrays())
        for name, arr in params.arrays().items():
            assert copied.arrays()[name].tobytes() == arr.tobytes()
            assert not np.shares_memory(copied.arrays()[name], arr)

    def test_bad_dimensions_rejected(self):
        with pytest.raises(DomainError):
            init_encoder(0, 4, 2, np.random.default_rng(0))
        with pytest.raises(DomainError):
            EncoderParams(
                w1=np.zeros((4, 3)), b1=np.zeros(4),
                w2=np.zeros((2, 5)), b2=np.zeros(2),
            )

    def test_unknown_activation(self):
        with pytest.raises(DomainError):
            init_encoder(3, 4, 2, np.random.default_rng(0), activation="relu6")
