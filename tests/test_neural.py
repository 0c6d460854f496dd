import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from spkdeid.neural import (
    AdamState,
    DenseLayer,
    DivergenceError,
    adam_step,
    cross_entropy_and_accuracy,
    dense_backward,
    dense_forward,
    finite_difference_check,
    flatten,
    grl_backward,
    init_dense,
    mse_loss,
    sgd_step,
    softmax_cross_entropy,
)

rng = np.random.default_rng(20240214)


class TestDenseForward:
    def test_identity(self):
        layer = DenseLayer(np.eye(2), np.zeros(2), "linear")
        out, _ = dense_forward(layer, np.array([[1.0, 2.0]]))
        assert np.array_equal(out, [[1.0, 2.0]])

    def test_constant_map(self):
        layer = DenseLayer(np.zeros((1, 2)), np.array([3.0]), "relu")
        out, _ = dense_forward(layer, np.array([[5.0, -7.0]]))
        assert np.array_equal(out, [[3.0]])

    def test_tanh_at_zero(self):
        layer = DenseLayer(np.array([[1.0, 1.0]]), np.zeros(1), "tanh")
        out, _ = dense_forward(layer, np.array([[0.0, 0.0]]))
        assert np.array_equal(out, [[0.0]])

    def test_shape_mismatch_names_sizes(self):
        layer = DenseLayer(np.zeros((2, 3)), np.zeros(2), "linear")
        with pytest.raises(ValueError, match="3"):
            dense_forward(layer, np.zeros((1, 4)))


class TestDenseBackward:
    def test_linear_identity_passes_gradient_through(self):
        layer = DenseLayer(np.eye(2), np.zeros(2), "linear")
        g = np.array([[0.5, -1.5]])
        _, cache = dense_forward(layer, np.array([[1.0, 2.0]]))
        dx, _, _ = dense_backward(layer, cache, g)
        assert np.array_equal(dx, g)

    def test_dead_relu_blocks_gradient(self):
        layer = DenseLayer(-np.eye(2), np.zeros(2), "relu")
        _, cache = dense_forward(layer, np.array([[1.0, 2.0]]))  # pre < 0
        dx, dw, db = dense_backward(layer, cache, np.ones((1, 2)))
        assert np.array_equal(dx, np.zeros((1, 2)))
        assert np.array_equal(dw, np.zeros((2, 2)))
        assert np.array_equal(db, np.zeros(2))

    @pytest.mark.parametrize("activation", ["tanh", "relu", "linear"])
    def test_gradients_land_in_the_layer_arrays(self, activation):
        # oracle: the chain rule written out with fresh arrays
        layer = init_dense(5, 3, activation, np.random.default_rng(2))
        layer.bias[:] = np.random.default_rng(3).normal(size=3)
        x = np.random.default_rng(4).normal(size=(7, 5))
        out, cache = dense_forward(layer, x)
        upstream = np.random.default_rng(5).normal(size=(7, 3))
        dpre = {"tanh": (1.0 - out ** 2) * upstream,
                "relu": upstream * (cache.pre > 0.0),
                "linear": upstream}[activation]
        dx, dw, db = dense_backward(layer, cache, upstream)
        assert dw is layer.weight_grad and db is layer.bias_grad
        assert dx.tobytes() == (dpre @ layer.weights).tobytes()
        for input_grad in (True, False):
            layer.weight_grad[...] = np.nan
            layer.bias_grad[...] = np.nan
            dx, _, _ = dense_backward(layer, cache, upstream, input_grad=input_grad)
            assert (dx is None) == (not input_grad)
            assert layer.weight_grad.tobytes() == (dpre.T @ x).tobytes()
            assert layer.bias_grad.tobytes() == dpre.sum(axis=0).tobytes()

    @pytest.mark.parametrize("activation", ["tanh", "relu", "linear"])
    def test_matches_finite_differences(self, activation):
        # oracle: central differences of r . layer(x) for a random direction r
        layer = init_dense(2, 3, activation, np.random.default_rng(5), scale=1.0)
        layer.bias[:] = np.random.default_rng(6).uniform(-1, 1, 3)
        x = np.random.default_rng(7).uniform(0.1, 1.0, (4, 2))
        r = np.random.default_rng(8).uniform(-1, 1, (4, 3))

        def loss_at(weights, bias, inputs):
            probe = DenseLayer(weights, bias, activation)
            out, _ = dense_forward(probe, inputs)
            return float((r * out).sum())

        out, cache = dense_forward(layer, x)
        dx, dw, db = dense_backward(layer, cache, r)
        eps = 1e-5
        worst = 0.0
        for array, grad, kind in ((layer.weights, dw, "w"), (layer.bias, db, "b"),
                                  (x, dx, "x")):
            flat = array.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                plus = loss_at(layer.weights, layer.bias, x)
                flat[i] = orig - eps
                minus = loss_at(layer.weights, layer.bias, x)
                flat[i] = orig
                numeric = (plus - minus) / (2 * eps)
                analytic = grad.reshape(-1)[i]
                worst = max(worst, abs(analytic - numeric)
                            / max(abs(analytic), abs(numeric), 1e-8))
        assert worst < 1e-6


class TestSoftmaxCrossEntropy:
    def test_uniform_logits(self):
        loss, _ = softmax_cross_entropy(np.zeros((3, 4)), np.array([0, 1, 3]))
        assert loss == pytest.approx(math.log(4.0), abs=1e-12)

    def test_saturated_correct_label(self):
        logits = np.zeros((1, 3))
        logits[0, 2] = 1e9
        loss, _ = softmax_cross_entropy(logits, np.array([2]))
        assert loss == pytest.approx(0.0, abs=1e-9)

    def test_matches_direct_formula(self):
        # oracle: per-row -log(exp(l_y) / sum(exp(l))) via plain math
        logits = rng.normal(size=(2, 5))
        labels = np.array([3, 0])
        loss, grad = softmax_cross_entropy(logits, labels)
        expected_rows = []
        for row, label in zip(logits, labels):
            denom = sum(math.exp(v) for v in row)
            expected_rows.append(-math.log(math.exp(row[label]) / denom))
        assert loss == pytest.approx(np.mean(expected_rows), abs=1e-12)
        expected_grad = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        expected_grad[np.arange(2), labels] -= 1
        np.testing.assert_allclose(grad, expected_grad / 2, atol=1e-12)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError, match="labels"):
            softmax_cross_entropy(np.zeros((1, 3)), np.array([3]))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_in_place_loss_and_accuracy_match(self, data):
        shape = data.draw(hnp.array_shapes(min_dims=2, max_dims=2, max_side=9))
        logits = data.draw(hnp.arrays(np.float64, shape,
                                      elements=st.floats(-1e300, 1e300)))
        labels = data.draw(hnp.arrays(np.int64, shape[0],
                                      elements=st.integers(0, shape[1] - 1)))
        loss, _ = softmax_cross_entropy(logits, labels)
        accuracy = float((logits.argmax(axis=1) == labels).mean())
        got_loss, got_accuracy = cross_entropy_and_accuracy(logits.copy(), labels)
        assert np.float64(got_loss).tobytes() == np.float64(loss).tobytes()
        assert got_accuracy == accuracy

    def test_in_place_rejects_bad_labels(self):
        with pytest.raises(ValueError, match="labels"):
            cross_entropy_and_accuracy(np.zeros((2, 3)), np.array([0, 3]))

    @settings(max_examples=50, deadline=None)
    @given(hnp.arrays(np.float64, (3, 5), elements=st.floats(-50, 50)),
           st.integers(min_value=0, max_value=4))
    def test_loss_nonnegative(self, logits, label):
        loss, _ = softmax_cross_entropy(logits, np.full(3, label))
        assert loss >= 0.0


class TestMseLoss:
    def test_zero_for_equal_inputs(self):
        x = rng.normal(size=(3, 4))
        loss, grad = mse_loss(x, x.copy())
        assert loss == 0.0
        assert np.array_equal(grad, np.zeros_like(x))

    def test_hand_value(self):
        loss, _ = mse_loss(np.array([[0.0, 0.0]]), np.array([[2.0, 0.0]]))
        assert loss == pytest.approx(2.0, abs=1e-15)

    def test_gradient_matches_finite_differences(self):
        pred = rng.normal(size=(2, 3))
        target = rng.normal(size=(2, 3))
        _, grad = mse_loss(pred, target)
        eps = 1e-6
        flat = pred.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            plus, _ = mse_loss(pred, target)
            flat[i] = orig - eps
            minus, _ = mse_loss(pred, target)
            flat[i] = orig
            numeric = (plus - minus) / (2 * eps)
            assert abs(numeric - grad.reshape(-1)[i]) < 1e-8 * max(1, abs(numeric))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            mse_loss(np.zeros((1, 2)), np.zeros((1, 3)))


class TestGradientReversal:
    def test_hand_value(self):
        out = grl_backward(np.array([[1.0, -2.0]]), 8.0)
        assert np.array_equal(out, [[-8.0, 16.0]])

    def test_lambda_zero_detaches(self):
        out = grl_backward(rng.normal(size=(2, 2)), 0.0)
        assert np.all(out == 0.0)

    @settings(max_examples=50, deadline=None)
    @given(hnp.arrays(np.float64, (2, 3), elements=st.floats(-1e6, 1e6)),
           st.floats(0.0, 100.0))
    def test_exact_scaling(self, g, lam):
        assert np.array_equal(grl_backward(g, lam), -lam * g)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError, match="lam"):
            grl_backward(np.zeros((1, 1)), -1.0)


class TestAdam:
    def test_zero_gradient_is_identity(self):
        params = rng.normal(size=(3, 2))
        before = params.copy()
        state = AdamState.for_params(params)
        adam_step(params, np.zeros((3, 2)), state)
        assert np.array_equal(params, before)

    def test_single_step_matches_hand_formula(self):
        # fresh-state Adam: theta -= lr * g / (|g| + eps) after bias correction
        g = np.array([0.3, -1.2, 4.0])
        params = np.array([1.0, 2.0, 3.0])
        expected = params - 0.1 * g / (np.abs(g) + 1e-8)
        adam_step(params, g, AdamState.for_params(params), lr=0.1)
        np.testing.assert_allclose(params, expected, atol=1e-15)

    def test_constant_gradient_step_approaches_lr_sign(self):
        g = np.array([0.5, -2.0])
        params = np.zeros(2)
        state = AdamState.for_params(params)
        for _ in range(10_000):
            previous = params.copy()
            adam_step(params, g, state, lr=0.1)
        step = params - previous
        np.testing.assert_allclose(step, -0.1 * np.sign(g), atol=1e-3)

    def test_non_finite_gradient_raises(self):
        params = np.zeros(2)
        with pytest.raises(DivergenceError, match="divergence detected"):
            adam_step(params, np.array([1.0, np.nan]), AdamState.for_params(params))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_flat_entry_matches_per_tensor_oracle(self, data):
        # one flat array and its split into 1-6 tensors go through the same
        # per-element arithmetic, so p, m and v agree bit for bit
        n = data.draw(st.integers(1, 60), label="n")
        cuts = sorted(data.draw(st.sets(st.integers(1, n - 1), max_size=5), label="cuts")
                      if n > 1 else [])
        steps = data.draw(st.integers(1, 20), label="steps")
        lr = data.draw(st.floats(0.0, 1.0), label="lr")
        beta1 = data.draw(st.floats(0.0, 0.999), label="beta1")
        beta2 = data.draw(st.floats(0.0, 0.9999), label="beta2")
        eps = data.draw(st.floats(1e-12, 1e-2), label="eps")
        values = st.one_of(st.just(0.0), st.floats(-100.0, 100.0))
        start = data.draw(hnp.arrays(np.float64, n, elements=values), label="p")
        grads = [data.draw(hnp.arrays(np.float64, n, elements=values), label=f"g{i}")
                 for i in range(steps)]

        flat = start.copy()
        state = AdamState.for_params(flat)
        pieces = {f"t{i}": piece.copy() for i, piece in enumerate(np.split(start, cuts))}
        oracle = {"t": 0, "m": {k: np.zeros_like(p) for k, p in pieces.items()},
                  "v": {k: np.zeros_like(p) for k, p in pieces.items()}}
        for g in grads:
            adam_step(flat, g, state, lr=lr, beta1=beta1, beta2=beta2, eps=eps)
            per_tensor_adam(pieces, dict(zip(pieces, np.split(g, cuts))), oracle,
                            lr, beta1, beta2, eps)
        assert state.t == oracle["t"] == steps
        for name, ours, theirs in (("p", flat, pieces), ("m", state.m, oracle["m"]),
                                   ("v", state.v, oracle["v"])):
            assert np.array_equal(ours, np.concatenate(list(theirs.values()))), name

    def test_sgd_step(self):
        params = np.array([1.0, -1.0])
        sgd_step(params, np.array([0.5, 0.5]), lr=0.1)
        np.testing.assert_allclose(params, [0.95, -1.05], atol=1e-15)


def per_tensor_adam(params, grads, state, lr, beta1, beta2, eps):
    """Reference Adam: the per-tensor formula with fresh temporaries."""
    state["t"] += 1
    t = state["t"]
    for name, p in params.items():
        g = grads[name]
        m = state["m"][name]
        v = state["v"][name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1 ** t)
        v_hat = v / (1.0 - beta2 ** t)
        p -= lr * m_hat / (np.sqrt(v_hat) + eps)


class TestFiniteDifferenceCheck:
    def test_linear_mse_model(self):
        layer = init_dense(3, 2, "linear", np.random.default_rng(0), scale=0.5)
        x = np.random.default_rng(1).normal(size=(4, 3))
        target = np.random.default_rng(2).normal(size=(4, 2))

        def loss_and_grads():
            out, cache = dense_forward(layer, x)
            loss, d_out = mse_loss(out, target)
            _, dw, db = dense_backward(layer, cache, d_out)
            return loss, {"w": dw, "b": db}

        err = finite_difference_check(
            loss_and_grads, {"w": layer.weights, "b": layer.bias})
        assert err < 1e-9

    def test_gradients_in_a_reused_buffer(self):
        # f(p) = sum((p - c)^2) writes its gradient into one array that every
        # call overwrites, as a model's gradient vector is
        c = np.array([0.5, -1.0, 2.0])
        p = np.array([1.5, 0.25, -0.75])
        buffer = np.empty(3)

        def loss_and_grads():
            np.multiply(2.0, p - c, out=buffer)
            return float(((p - c) ** 2).sum()), {"p": buffer}

        assert finite_difference_check(loss_and_grads, {"p": p}) < 1e-9

    def test_zero_eps_rejected(self):
        with pytest.raises(ValueError, match="eps must be positive"):
            finite_difference_check(lambda: (0.0, {}), {}, eps=0.0)


class TestFlatten:
    def test_layer_order_and_views(self):
        gen = np.random.default_rng(6)
        layers = [init_dense(3, 4, "tanh", gen), init_dense(4, 2, "relu", gen),
                  init_dense(2, 5, "linear", gen)]
        for layer in layers:
            layer.bias[:] = gen.normal(size=layer.bias.shape)
        expected = np.concatenate([a.ravel() for layer in layers
                                   for a in (layer.weights, layer.bias)])
        params, grads = flatten(layers)
        assert params.dtype == grads.dtype == np.float64
        assert params.tobytes() == expected.tobytes()
        assert grads.shape == params.shape and not np.shares_memory(grads, params)
        offset = 0
        for layer in layers:
            for array, grad in ((layer.weights, layer.weight_grad),
                                (layer.bias, layer.bias_grad)):
                assert array.shape == grad.shape
                assert array.base is params and grad.base is grads
                stop = offset + array.size
                assert np.array_equal(array.ravel(), params[offset:stop])
                assert np.shares_memory(grad, grads[offset:stop])
                offset = stop
        assert offset == params.size

    def test_backward_writes_into_the_gradient_vector(self):
        layer = init_dense(3, 2, "tanh", np.random.default_rng(7))
        x = np.random.default_rng(8).normal(size=(4, 3))
        upstream = np.random.default_rng(9).normal(size=(4, 2))
        _, cache = dense_forward(layer, x)
        _, dw, db = dense_backward(layer, cache, upstream)
        expected = np.concatenate([dw.ravel(), db])
        _, grads = flatten([layer])
        _, cache = dense_forward(layer, x)
        dense_backward(layer, cache, upstream)
        assert grads.tobytes() == expected.tobytes()
