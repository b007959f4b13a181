import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (assert_grads_close, central_difference, l2_normalize_rows_backward,
                      to_float64)
from tabpretrain.nn import (
    Adam,
    DenseLayer,
    Mlp,
    ShapeError,
    StateError,
    dropout_mask,
    l2_normalize_backward,
    l2_normalize_rows,
    l2_normalize_rows_with_norms,
    mse,
    smooth_labels,
    softmax_cross_entropy,
)


def naive_forward(mlp, batch):
    """Triple-loop matmul oracle."""
    x = np.array(batch, dtype=float)
    for layer in mlp.layers:
        out = np.zeros((x.shape[0], layer.out_dim))
        for i in range(x.shape[0]):
            for j in range(layer.out_dim):
                acc = layer.bias[j]
                for k in range(x.shape[1]):
                    acc += x[i, k] * layer.weights[k, j]
                out[i, j] = acc
        x = np.maximum(out, 0.0) if layer.activation == "relu" else out
    return x


class TestForward:
    def test_identity_layer(self):
        mlp = Mlp([DenseLayer(np.eye(2), np.zeros(2), "identity")])
        np.testing.assert_array_equal(mlp.forward([[1.0, 2.0]]), [[1.0, 2.0]])

    def test_relu_layer(self):
        mlp = Mlp([DenseLayer(np.eye(2), np.zeros(2), "relu")])
        np.testing.assert_array_equal(mlp.forward([[-1.0, 2.0]]), [[0.0, 2.0]])

    def test_matches_naive_matmul_oracle(self, rng):
        mlp = to_float64(Mlp.create([4, 5, 3], rng))
        batch = rng.normal(size=(6, 4))
        np.testing.assert_allclose(mlp.forward(batch), naive_forward(mlp, batch), atol=1e-12)

    def test_forward_is_pure(self, rng):
        mlp = Mlp.create([4, 5, 3], rng)
        batch = rng.normal(size=(6, 4))
        a = mlp.forward(batch)
        b = mlp.forward(batch)
        assert np.array_equal(a, b)

    def test_dimension_mismatch(self, rng):
        mlp = Mlp.create([4, 3], rng)
        with pytest.raises(ShapeError):
            mlp.forward(np.zeros((2, 5)))

    def test_computes_in_the_dtype_of_its_weights(self, rng):
        mlp = Mlp.create([4, 3], rng)
        assert mlp.dtype == np.float32
        assert mlp.forward(rng.normal(size=(2, 4))).dtype == np.float32
        assert to_float64(mlp).forward(np.ones((2, 4), dtype=np.float32)).dtype == np.float64

    def test_mixed_layer_dtypes_rejected(self):
        with pytest.raises(ValueError, match="dtype"):
            Mlp([DenseLayer(np.eye(2, dtype=np.float32), np.zeros(2)),
                 DenseLayer(np.eye(2), np.zeros(2))])


class TestBackward:
    def test_requires_forward(self, rng):
        mlp = Mlp.create([3, 2], rng)
        with pytest.raises(StateError):
            mlp.backward(np.zeros((1, 2)))

    @pytest.mark.parametrize("input_grad", [True, False])
    def test_second_backward_raises(self, input_grad, rng):
        """Backward consumes the tape: one forward pass serves one backward
        pass. A rejected output gradient leaves the tape in place."""
        mlp = Mlp.create([3, 4, 2], rng)
        mlp.forward(rng.normal(size=(5, 3)))
        with pytest.raises(ShapeError):
            mlp.backward(np.zeros((4, 2)))
        mlp.backward(np.zeros((5, 2)), input_grad)
        with pytest.raises(StateError, match="forward pass since the last backward"):
            mlp.backward(np.zeros((5, 2)), input_grad)
        mlp.forward(rng.normal(size=(5, 3)))
        mlp.backward(np.zeros((5, 2)), input_grad)

    def test_zero_grad_gives_zero_param_grads(self, rng):
        mlp = Mlp.create([3, 4, 2], rng)
        mlp.forward(rng.normal(size=(5, 3)))
        grads, gin = mlp.backward(np.zeros((5, 2)))
        assert all(np.all(g == 0) for g in grads)
        assert np.all(gin == 0)

    def test_identity_net_sum_loss_closed_form(self):
        mlp = Mlp([DenseLayer(np.eye(3), np.zeros(3), "identity")])
        x = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        mlp.forward(x)
        grads, _ = mlp.backward(np.ones((2, 3)))
        np.testing.assert_allclose(grads[0], x.T @ np.ones((2, 3)))

    def test_matches_finite_differences_3_layers(self, rng):
        mlp = to_float64(Mlp.create([4, 6, 5, 3], rng))
        x = rng.normal(size=(7, 4))
        target = rng.normal(size=(7, 3))

        def loss_fn():
            return mse(mlp.forward(x), target)[0]

        mlp.forward(x)
        _, grad = mse(mlp.forward(x), target)
        analytic, _ = mlp.backward(grad)
        numeric = central_difference(loss_fn, mlp.parameters())
        assert_grads_close(analytic, numeric, rtol=1e-5)


def out_of_place_pass(mlp, batch, output_grad, dropout_rate=0.0, rng=None):
    """Forward and full backward as the plain out-of-place composition: z = x @ W
    + b, relu(z), times the dropout mask; the gradient through the mask and
    (z > 0), with every preactivation kept. Returns (output, grads, input
    grad)."""
    x = np.asarray(batch, dtype=mlp.dtype)
    inputs, preacts, masks = [], [], []
    for k, layer in enumerate(mlp.layers):
        inputs.append(x)
        z = x @ layer.weights + layer.bias
        preacts.append(z)
        x = np.maximum(z, 0.0) if layer.activation == "relu" else z
        masks.append(dropout_mask(x, dropout_rate, rng)
                     if dropout_rate and k < len(mlp.layers) - 1 else None)
        if masks[-1] is not None:
            x = x * masks[-1]
    g = np.asarray(output_grad, dtype=mlp.dtype)
    grads = [None] * (2 * len(mlp.layers))
    for k in range(len(mlp.layers) - 1, -1, -1):
        if masks[k] is not None:
            g = g * masks[k]
        if mlp.layers[k].activation == "relu":
            g = g * (preacts[k] > 0)
        grads[2 * k], grads[2 * k + 1] = inputs[k].T @ g, g.sum(axis=0)
        g = g @ mlp.layers[k].weights.T
    return x, grads, g


def random_net(rng, dtype, final_activation="relu"):
    """A [6, 9, 8, 4] net in `dtype` with nonzero biases, so some units are cut
    by the ReLU and the bias add is exercised."""
    mlp = Mlp.create([6, 9, 8, 4], rng, final_activation)
    for layer in mlp.layers:
        layer.weights = layer.weights.astype(dtype)
        layer.bias = rng.normal(scale=0.5, size=layer.out_dim).astype(dtype)
    return mlp


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("dropout", [0.0, 0.3])
@pytest.mark.parametrize("final_activation", ["relu", "identity"])
class TestTape:
    """The in-place forward pass and its tape give, bit for bit, what the
    out-of-place composition gives, and backward writes into neither the
    tape's arrays nor its argument. Backward consumes the tape, so every
    backward pass here follows a forward pass of its own."""

    def test_matches_out_of_place_composition_bit_for_bit(self, dtype, dropout,
                                                            final_activation, rng):
        mlp = random_net(rng, dtype, final_activation)
        x = rng.normal(size=(11, 6))
        output_grad = rng.normal(size=(11, 4))
        out = mlp.forward(x, dropout, np.random.default_rng(5))
        grads, grad_in = mlp.backward(output_grad)
        want_out, want_grads, want_in = out_of_place_pass(mlp, x, output_grad, dropout,
                                                          np.random.default_rng(5))
        for got, want in zip([out, *grads, grad_in], [want_out, *want_grads, want_in]):
            assert got.dtype == dtype
            np.testing.assert_array_equal(got, want)

    def test_skipping_the_input_gradient_keeps_the_parameter_gradients(self, dtype, dropout,
                                                                      final_activation, rng):
        mlp = random_net(rng, dtype, final_activation)
        x = rng.normal(size=(11, 6))
        output_grad = rng.normal(size=(11, 4)).astype(dtype)
        mlp.forward(x, dropout, np.random.default_rng(5))
        full, grad_in = mlp.backward(output_grad)
        mlp.forward(x, dropout, np.random.default_rng(5))
        skipped, none = mlp.backward(output_grad, input_grad=False)
        assert grad_in.shape == (11, 6) and none is None
        for a, b in zip(full, skipped):
            np.testing.assert_array_equal(a, b)

    def test_backward_changes_neither_the_tape_nor_output_grad(self, dtype, dropout,
                                                               final_activation, rng):
        mlp = random_net(rng, dtype, final_activation)
        x = rng.normal(size=(11, 6)).astype(dtype)
        out = mlp.forward(x, dropout, np.random.default_rng(5))
        output_grad = rng.normal(size=(11, 4)).astype(dtype)
        kept = [a.copy() for a in (x, out, output_grad)]
        first = mlp.backward(output_grad)
        for a, b in zip((x, out, output_grad), kept):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(mlp.forward(x, dropout, np.random.default_rng(5)), out)
        second = mlp.backward(output_grad)
        for a, b in zip([*first[0], first[1]], [*second[0], second[1]]):
            np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("columns, dropout, error", [(5, 0.0, ShapeError), (6, 0.3, ValueError)],
                         ids=["ShapeError", "dropout_without_rng"])
def test_rejected_forward_keeps_the_previous_tape(dtype, columns, dropout, error, rng):
    """Forward drops the previous tape only once the batch has passed its
    checks, so backward still runs from the last accepted pass."""
    mlp = random_net(rng, dtype)
    x = rng.normal(size=(11, 6))
    output_grad = rng.normal(size=(11, 4)).astype(dtype)
    mlp.forward(x, 0.3, np.random.default_rng(5))
    want = mlp.backward(output_grad)
    mlp.forward(x, 0.3, np.random.default_rng(5))
    with pytest.raises(error):
        mlp.forward(np.zeros((3, columns)), dropout)
    got = mlp.backward(output_grad)
    for a, b in zip([*got[0], got[1]], [*want[0], want[1]]):
        np.testing.assert_array_equal(a, b)


class TestAdam:
    def test_zero_grad_leaves_params_bit_identical(self, rng):
        p = rng.normal(size=(3, 2))
        before = p.copy()
        opt = Adam([p], learning_rate=1e-3)
        for _ in range(5):
            opt.step([np.zeros_like(p)])
        assert np.array_equal(p, before)
        assert opt.step_count == 5

    def test_first_step_magnitude_is_lr(self):
        p = np.array([1.0])
        opt = Adam([p], learning_rate=0.001)
        opt.step([np.array([1.0])])
        # first step: m_hat/sqrt(v_hat) = sign(g), so update ~ lr
        assert p[0] == pytest.approx(1.0 - 0.001, abs=1e-8)

    def test_two_steps_match_closed_form_ema(self):
        p = np.array([0.0])
        opt = Adam([p], learning_rate=0.1)
        g = np.array([2.0])
        opt.step([g.copy()])
        opt.step([g.copy()])
        assert opt.step_count == 2
        b1, b2 = 0.9, 0.999
        m_expect = (1 - b1) * 2.0 * (b1 + 1)  # b1*m1 + (1-b1)*g with m1=(1-b1)*g
        v_expect = (1 - b2) * 4.0 * (b2 + 1)
        assert opt.first_moment[0][0] == pytest.approx(m_expect)
        assert opt.second_moment[0][0] == pytest.approx(v_expect)

    def test_shape_mismatch(self):
        opt = Adam([np.zeros(3)], learning_rate=1e-3)
        with pytest.raises(ShapeError):
            opt.step([np.zeros(4)])

    @pytest.mark.parametrize("param_dtype, grad_dtype", [(np.float32, np.float64),
                                                          (np.float64, np.float32)])
    def test_gradient_of_another_dtype_raises_before_any_update(self, param_dtype, grad_dtype,
                                                                rng):
        """The step runs in its gradients, so a gradient of another dtype
        would change the rounding; it is refused before any array moves."""
        params = [rng.normal(size=(3, 2)).astype(param_dtype),
                  rng.normal(size=2).astype(param_dtype)]
        before = [p.copy() for p in params]
        opt = Adam(params, learning_rate=1e-3)
        grads = [np.ones((3, 2), dtype=param_dtype), np.ones(2, dtype=grad_dtype)]
        with pytest.raises(ValueError, match="dtype"):
            opt.step(grads)
        assert opt.step_count == 0
        for p, b in zip(params, before):
            np.testing.assert_array_equal(p, b)
        np.testing.assert_array_equal(grads[0], 1.0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_in_place_step_matches_reference_formula_bit_for_bit(self, dtype, rng):
        def reference_step(p, g, m, v, t, lr=1e-3, b1=0.9, b2=0.999, eps=1e-8):
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            m_hat = m / (1 - b1**t)
            v_hat = v / (1 - b2**t)
            p -= lr * m_hat / (np.sqrt(v_hat) + eps)

        params = [rng.normal(size=(7, 5)).astype(dtype), rng.normal(size=5).astype(dtype)]
        ref = [p.copy() for p in params]
        moments = [(np.zeros_like(p), np.zeros_like(p)) for p in ref]
        opt = Adam(params, learning_rate=1e-3)
        for t in range(1, 26):
            grads = [rng.normal(scale=10.0 ** rng.integers(-4, 2), size=p.shape).astype(dtype)
                     for p in params]
            opt.step([g.copy() for g in grads])  # step overwrites its gradients
            for p, g, (m, v) in zip(ref, grads, moments):
                reference_step(p, g, m, v, t)
        for got, want in zip(params + opt.first_moment + opt.second_moment,
                             ref + [m for m, _ in moments] + [v for _, v in moments]):
            assert got.dtype == dtype
            np.testing.assert_array_equal(got, want)


class TestSoftmaxCrossEntropy:
    def test_uniform_logits_hard_target(self):
        k = 5
        logits = np.zeros((3, k))
        target = np.zeros((3, k))
        target[:, 2] = 1.0
        loss, _ = softmax_cross_entropy(logits, target)
        assert loss == pytest.approx(np.log(k))

    def test_saturated_correct_prediction(self):
        logits = np.array([[100.0, 0.0]])
        target = np.array([[1.0, 0.0]])
        loss, _ = softmax_cross_entropy(logits, target)
        assert loss == pytest.approx(0.0, abs=1e-10)

    def test_matches_per_element_oracle(self, rng):
        logits = rng.normal(size=(4, 6))
        target = rng.dirichlet(np.ones(6), size=4)
        loss, grad = softmax_cross_entropy(logits, target)
        # brute-force formula per element
        expected = 0.0
        for i in range(4):
            p = np.exp(logits[i]) / np.exp(logits[i]).sum()
            expected += -(target[i] * np.log(p)).sum()
        assert loss == pytest.approx(expected / 4, abs=1e-10)
        numeric = central_difference(lambda: softmax_cross_entropy(logits, target)[0], [logits])
        assert_grads_close([grad], numeric)

    def test_rejects_unnormalized_target(self):
        with pytest.raises(ValueError):
            softmax_cross_entropy(np.zeros((1, 2)), np.array([[0.5, 0.9]]))


class TestSmoothLabels:
    def test_weight_zero_is_identity(self):
        onehot = np.array([[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_array_equal(smooth_labels(onehot, 0.0, 2), onehot)

    def test_direct_formula(self):
        out = smooth_labels(np.array([[1.0, 0.0]]), 0.1, 2)
        np.testing.assert_allclose(out, [[0.95, 0.05]])

    @given(st.floats(0.0, 0.99), st.integers(2, 6))
    @settings(max_examples=30)
    def test_rows_sum_to_one(self, weight, k):
        onehot = np.eye(k)
        out = smooth_labels(onehot, weight, k)
        np.testing.assert_allclose(out.sum(axis=1), 1.0)

    def test_rejects_bad_weight(self):
        with pytest.raises(ValueError):
            smooth_labels(np.eye(2), 1.0, 2)


class TestDropoutMask:
    def test_rate_zero_all_ones(self, rng):
        np.testing.assert_array_equal(dropout_mask(np.zeros((3, 4)), 0.0, rng), np.ones((3, 4)))

    def test_values_are_zero_or_scaled(self, rng):
        mask = dropout_mask(np.zeros((100, 10)), 0.3, rng)
        assert set(np.unique(mask)) <= {0.0, 1.0 / 0.7}

    def test_mean_preserved_statistically(self, rng):
        mask = dropout_mask(np.zeros((1000, 1000)), 0.5, rng)
        assert abs(mask.mean() - 1.0) < 0.01

    def test_rejects_rate_one(self, rng):
        with pytest.raises(ValueError):
            dropout_mask(np.zeros((2, 2)), 1.0, rng)


class TestL2Normalize:
    def test_three_four_five(self):
        np.testing.assert_allclose(l2_normalize_rows([[3.0, 4.0]]), [[0.6, 0.8]])

    def test_unit_row_unchanged(self):
        np.testing.assert_allclose(l2_normalize_rows([[1.0, 0.0]]), [[1.0, 0.0]])

    def test_random_rows_unit_norm(self, rng):
        out = l2_normalize_rows(rng.normal(size=(20, 5)))
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-12)

    def test_zero_row_passes_through(self):
        out = l2_normalize_rows(np.array([[0.0, 0.0], [3.0, 4.0]]))
        np.testing.assert_array_equal(out[0], [0.0, 0.0])

    def test_backward_matches_finite_differences(self, rng):
        raw = rng.normal(size=(4, 3))
        w = rng.normal(size=(4, 3))

        def f():
            return float((l2_normalize_rows(raw) * w).sum())

        analytic = l2_normalize_rows_backward(raw, w)
        numeric = central_difference(f, [raw])
        assert_grads_close([analytic], numeric)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_norms_of_the_forward_pass_serve_the_backward_pass(self, dtype, rng):
        raw = rng.normal(size=(7, 5)).astype(dtype)
        raw[3] = 0.0
        grad = rng.normal(size=(7, 5)).astype(dtype)
        z, norms = l2_normalize_rows_with_norms(raw)
        np.testing.assert_array_equal(z, l2_normalize_rows(raw))
        assert norms.shape == (7, 1) and norms[3, 0] == 1.0
        want = l2_normalize_rows_backward(raw, grad)
        got = l2_normalize_backward(z, norms, grad)
        assert got is grad  # computed in place in the gradient it is handed
        np.testing.assert_array_equal(got, want)

    def test_backward_refuses_a_gradient_of_another_dtype(self, rng):
        """Written in place, a float32 gradient of float64 rows would round
        the float64 result to float32."""
        z, norms = l2_normalize_rows_with_norms(rng.normal(size=(4, 3)))
        with pytest.raises(ValueError, match="dtype"):
            l2_normalize_backward(z, norms, rng.normal(size=(4, 3)).astype(np.float32))


class TestMse:
    def test_equal_inputs(self):
        assert mse(np.ones((2, 2)), np.ones((2, 2)))[0] == 0.0

    def test_unit_difference(self):
        assert mse(np.array([[1.0]]), np.array([[0.0]]))[0] == 1.0

    def test_gradient_matches_finite_differences(self, rng):
        pred = rng.normal(size=(3, 4))
        target = rng.normal(size=(3, 4))
        _, grad = mse(pred, target)
        numeric = central_difference(lambda: mse(pred, target)[0], [pred])
        assert_grads_close([grad], numeric, rtol=1e-6)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            mse(np.zeros((2, 2)), np.zeros((2, 3)))



@pytest.mark.parametrize("call, error, message", [
    (lambda: DenseLayer(np.zeros((2, 3)), np.zeros(3), "tanh"), ValueError,
     "unknown activation 'tanh'"),
    (lambda: DenseLayer(np.zeros((2, 3)), np.zeros(2)), ShapeError,
     "bias length must equal the layer output width"),
    (lambda: Mlp([DenseLayer(np.zeros((2, 3)), np.zeros(3)),
                  DenseLayer(np.zeros((4, 1)), np.zeros(1))]), ShapeError,
     "adjacent layer widths disagree"),
    (lambda: Adam([np.zeros(2), np.zeros(3)], 0.1).step([np.zeros(2)]), ShapeError,
     "gradient list length does not match parameter list"),
    (lambda: softmax_cross_entropy(np.zeros((2, 3)), np.full((2, 2), 0.5)), ShapeError,
     "logits and target shapes differ"),
], ids=["unknown_activation", "bias_length", "adjacent_widths", "adam_gradient_count",
        "cross_entropy_shapes"])
def test_bad_input_raises_with_its_message(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message
