import numpy as np
import pytest

from conftest import assert_grads_close, central_difference
from tabpretrain.losses import (
    align_uniform,
    barlow_twins,
    binary_logistic,
    infonce,
    infonce_error,
)
from tabpretrain.nn import ShapeError, l2_normalize_rows


def naive_infonce(s, tau):
    """Per-element evaluation of the contrastive loss as written, with the
    1/N factor inside the denominator."""
    n = s.shape[0]
    total = 0.0
    for i in range(n):
        denom = sum(np.exp(s[i, k] / tau) for k in range(n)) / n
        total += -np.log(np.exp(s[i, i] / tau) / denom)
    return total / n


def standard_infonce(s, tau):
    """The log-N-free convention (plain softmax cross-entropy on the diagonal)."""
    n = s.shape[0]
    total = 0.0
    for i in range(n):
        denom = sum(np.exp(s[i, k] / tau) for k in range(n))
        total += -np.log(np.exp(s[i, i] / tau) / denom)
    return total / n


def embeddings(rng, n, d=16, dtype=np.float64):
    """Two views' unit-norm embeddings, (n, d) each."""
    return (l2_normalize_rows(rng.normal(size=(n, d))).astype(dtype) for _ in range(2))


class TestInfonce:
    """A similarity matrix s goes in as z = s against zt = I: s @ I.T
    reproduces s exactly, and grad_z is then the gradient w.r.t. s."""

    def test_single_positive(self):
        loss, _, _ = infonce(np.array([[1.0]]), np.eye(1), 1.0)
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_all_ones_saturation(self):
        loss, _, _ = infonce(np.ones((2, 2)), np.eye(2), 1.0)
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_pair_closed_form(self):
        loss, _, _ = infonce(np.eye(2), np.eye(2), 1.0)
        expected = -np.log(2 * np.e / (np.e + 1))
        assert loss == pytest.approx(expected, abs=1e-10)
        assert loss == pytest.approx(-0.3799, abs=1e-4)

    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("tau", [0.5, 1.0, 2.0])
    def test_matches_naive_oracle(self, n, tau):
        rng = np.random.default_rng(n * 17 + int(tau * 10))
        s = rng.uniform(-1, 1, size=(n, n))
        loss, _, _ = infonce(s, np.eye(n), tau)
        assert loss == pytest.approx(naive_infonce(s, tau), abs=1e-10)

    def test_offset_identity_vs_standard_form(self, rng):
        for n in (2, 4, 7):
            s = rng.uniform(-1, 1, size=(n, n))
            loss, _, _ = infonce(s, np.eye(n), 1.0)
            assert loss - standard_infonce(s, 1.0) == pytest.approx(-np.log(n), abs=1e-12)

    def test_gradient_matches_finite_differences(self, rng):
        s = rng.uniform(-1, 1, size=(6, 6))
        _, grad, _ = infonce(s, np.eye(6), 0.7)
        numeric = central_difference(lambda: infonce(s, np.eye(6), 0.7)[0], [s])
        assert_grads_close([grad], numeric)

    def test_embedding_gradients_match_finite_differences(self, rng):
        z, zt = rng.normal(size=(6, 4)), rng.normal(size=(6, 4))
        _, grad_z, grad_zt = infonce(z, zt, 0.7)
        numeric = central_difference(lambda: infonce(z, zt, 0.7)[0], [z, zt])
        assert_grads_close([grad_z, grad_zt], numeric)

    def test_permutation_invariance(self, rng):
        s = rng.uniform(-1, 1, size=(5, 5))
        perm = rng.permutation(5)
        loss, _, _ = infonce(s, np.eye(5), 1.0)
        loss_p, _, _ = infonce(s[np.ix_(perm, perm)], np.eye(5), 1.0)
        assert loss == pytest.approx(loss_p, abs=1e-12)

    def test_rejects_bad_temperature(self):
        with pytest.raises(ValueError):
            infonce(np.eye(2), np.eye(2), 0.0)

    def test_rejects_views_of_different_shapes(self):
        with pytest.raises(ShapeError):
            infonce(np.eye(2), np.eye(3), 1.0)

    def test_finite_on_extreme_inputs(self):
        s = np.array([[500.0, -500.0], [-500.0, 500.0]])
        loss, grad_z, grad_zt = infonce(s, np.eye(2), 0.01)
        assert np.isfinite(loss) and np.all(np.isfinite(grad_z)) and np.all(np.isfinite(grad_zt))


def out_of_place_infonce(s, tau):
    """InfoNCE value and gradient w.r.t. s as the plain composition: exp(s/t -
    rowmax), its row sums recomputed for the softmax, which is copied before
    the diagonal is taken off."""
    n = s.shape[0]
    st = s / tau
    row_max = st.max(axis=1, keepdims=True)
    e = np.exp(st - row_max)
    lse = np.log(e.sum(axis=1)) + row_max[:, 0]
    loss = float(np.mean(-np.diag(st) + lse - np.log(st.dtype.type(n))))
    grad = (e / e.sum(axis=1, keepdims=True)).copy()
    grad[np.arange(n), np.arange(n)] -= 1.0
    grad /= n * tau
    return loss, grad


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("tau", [0.01, 0.7, 1.0])
class TestInfonceBitForBit:
    def test_value_only_equals_the_value_of_infonce(self, dtype, tau, rng):
        for n in (2, 5, 64, 128):
            z, zt = embeddings(rng, n, dtype=dtype)
            loss = infonce(z, zt, tau, value_only=True)
            assert loss == infonce(z, zt, tau)[0]
            assert isinstance(loss, float)

    def test_matches_out_of_place_composition(self, dtype, tau, rng):
        """s = z @ zt.T, then the chain rule's two GEMMs grad_s @ zt and
        grad_s.T @ z, with the rounding of the composition."""
        z, zt = embeddings(rng, 64, dtype=dtype)
        kept = z.copy(), zt.copy()
        loss, grad_z, grad_zt = infonce(z, zt, tau)
        want_loss, want_grad = out_of_place_infonce(z @ zt.T, tau)
        assert loss == want_loss and grad_z.dtype == grad_zt.dtype == dtype
        np.testing.assert_array_equal(grad_z, want_grad @ zt)
        np.testing.assert_array_equal(grad_zt, want_grad.T @ z)
        for a, b in zip((z, zt), kept):
            np.testing.assert_array_equal(a, b)  # the inputs are not written

    def test_similarities_against_the_identity_reproduce_s(self, dtype, tau, rng):
        s = rng.uniform(-1, 1, size=(64, 64)).astype(dtype)
        loss, grad_s, _ = infonce(s, np.eye(64, dtype=dtype), tau)
        want_loss, want_grad = out_of_place_infonce(s, tau)
        assert loss == want_loss
        np.testing.assert_array_equal(grad_s, want_grad)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_barlow_value_equals_the_full_call_bit_for_bit(dtype, rng):
    """What validation scores with: the value without the gradients."""
    for n in (2, 5, 128):
        z, zt = embeddings(rng, n, dtype=dtype)
        loss = barlow_twins(z, zt, 5e-3, value_only=True)
        assert loss == barlow_twins(z, zt, 5e-3)[0]
        assert isinstance(loss, float)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_align_uniform_value_equals_the_full_call_bit_for_bit(dtype, rng):
    """What validation scores with: the value without the gradients."""
    for n in (2, 5, 128):
        z, zt = embeddings(rng, n, dtype=dtype)
        for a, u in ((1.0, 1.0), (0.3, 2.0)):
            loss = align_uniform(z, zt, a, u, value_only=True)
            assert loss == align_uniform(z, zt, a, u)[0]
            assert isinstance(loss, float)


class TestInfonceError:
    def test_diagonal_dominant_is_zero(self):
        assert infonce_error(np.eye(4), np.eye(4)) == 0.0

    def test_diagonal_smallest_is_one(self):
        s = np.ones((3, 3))
        np.fill_diagonal(s, -1.0)
        assert infonce_error(s, np.eye(3)) == 1.0

    def test_matches_row_scan(self, rng):
        s = rng.normal(size=(8, 8))
        expected = np.mean([int(np.argmax(s[i]) != i) for i in range(8)])
        assert infonce_error(s, np.eye(8)) == pytest.approx(expected)

    def test_scores_the_similarities_of_the_embeddings(self, rng):
        z, zt = embeddings(rng, 8, d=3)
        s = z @ zt.T
        assert infonce_error(z, zt) == np.mean(s.argmax(axis=1) != np.arange(8))

    def test_values_quantized(self, rng):
        for _ in range(20):
            e = infonce_error(rng.normal(size=(5, 5)), np.eye(5))
            assert e in {0.0, 0.2, 0.4, 0.6, 0.8, 1.0}


class TestBinaryLogistic:
    def test_zero_logit_ln2(self):
        for y in (0.0, 1.0):
            loss, _ = binary_logistic(np.array([0.0]), np.array([y]))
            assert loss == pytest.approx(np.log(2))

    def test_saturated_correct(self):
        loss, _ = binary_logistic(np.array([1e3]), np.array([1.0]))
        assert loss == pytest.approx(0.0, abs=1e-10)

    def test_gradient_matches_finite_differences(self, rng):
        logits = rng.normal(size=8)
        labels = (rng.random(8) > 0.5).astype(float)
        _, grad = binary_logistic(logits, labels)
        numeric = central_difference(lambda: binary_logistic(logits, labels)[0], [logits])
        assert_grads_close([grad], numeric, rtol=1e-6)

    @pytest.mark.parametrize("logits, labels", [([0.0, 1.0], [1.0]), ([[0.0]], [0.0, 1.0])])
    def test_rejects_lengths_that_differ(self, logits, labels):
        with pytest.raises(ShapeError, match="^logits and labels lengths differ$"):
            binary_logistic(np.array(logits), np.array(labels))

    def test_rejects_nonbinary_labels(self):
        with pytest.raises(ValueError):
            binary_logistic(np.array([0.0]), np.array([0.5]))


class TestBarlowTwins:
    def test_identical_views_zero_diagonal_term(self, rng):
        z = rng.normal(size=(16, 4))
        loss, _, _ = barlow_twins(z, z.copy(), 0.0)
        assert loss == pytest.approx(0.0, abs=1e-10)

    def test_decorrelated_dims_zero_offdiagonal_term(self):
        # columns of an orthogonal design are exactly decorrelated
        z = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
        loss, _, _ = barlow_twins(z, z.copy(), 1.0)
        assert loss == pytest.approx(0.0, abs=1e-10)

    def test_correlation_matrix_matches_naive_oracle(self, rng):
        z_a = rng.normal(size=(12, 3))
        z_b = rng.normal(size=(12, 3))
        lam = 5e-3
        loss, _, _ = barlow_twins(z_a, z_b, lam)
        ya = (z_a - z_a.mean(0)) / (z_a.std(0) + 1e-12)
        yb = (z_b - z_b.mean(0)) / (z_b.std(0) + 1e-12)
        c = np.zeros((3, 3))
        for d in range(3):
            for e in range(3):
                c[d, e] = np.mean(ya[:, d] * yb[:, e])
        expected = sum((1 - c[d, d]) ** 2 for d in range(3)) + lam * sum(
            c[d, e] ** 2 for d in range(3) for e in range(3) if d != e
        )
        assert loss == pytest.approx(expected, abs=1e-10)

    def test_loss_nonnegative(self, rng):
        for _ in range(10):
            loss, _, _ = barlow_twins(rng.normal(size=(8, 4)), rng.normal(size=(8, 4)), 5e-3)
            assert loss >= 0.0

    def test_gradients_match_finite_differences(self, rng):
        z_a = rng.normal(size=(6, 3))
        z_b = rng.normal(size=(6, 3))
        _, ga, gb = barlow_twins(z_a, z_b, 5e-3)
        num_a = central_difference(lambda: barlow_twins(z_a, z_b, 5e-3)[0], [z_a])
        num_b = central_difference(lambda: barlow_twins(z_a, z_b, 5e-3)[0], [z_b])
        assert_grads_close([ga, gb], [num_a[0], num_b[0]])

    def test_needs_two_rows(self, rng):
        with pytest.raises(ValueError):
            barlow_twins(np.ones((1, 3)), np.ones((1, 3)), 1.0)


class TestAlignUniform:
    def test_identical_views_zero_alignment(self, rng):
        z = rng.normal(size=(4, 3))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        loss, _, _ = align_uniform(z, z.copy(), 1.0, 0.0)
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_antipodal_closed_form(self):
        z = np.array([[1.0, 0.0], [-1.0, 0.0]])
        loss, _, _ = align_uniform(z, z.copy(), 0.0, 1.0)
        assert loss == pytest.approx(-8.0, abs=1e-12)  # log exp(-2*4)

    def test_matches_pairwise_loop_oracle(self, rng):
        z = rng.normal(size=(6, 3))
        zt = rng.normal(size=(6, 3))
        a, u = 0.7, 1.3
        loss, _, _ = align_uniform(z, zt, a, u)
        align = np.mean([np.sum((z[i] - zt[i]) ** 2) for i in range(6)])
        pair_terms = [
            np.exp(-2 * np.sum((z[i] - z[j]) ** 2))
            for i in range(6) for j in range(6) if i != j
        ]
        expected = a * align + u * np.log(np.mean(pair_terms))
        assert loss == pytest.approx(expected, abs=1e-10)

    def test_gradients_match_finite_differences(self, rng):
        z = rng.normal(size=(5, 3))
        zt = rng.normal(size=(5, 3))
        _, gz, gzt = align_uniform(z, zt, 1.0, 1.0)
        num_z = central_difference(lambda: align_uniform(z, zt, 1.0, 1.0)[0], [z])
        num_zt = central_difference(lambda: align_uniform(z, zt, 1.0, 1.0)[0], [zt])
        assert_grads_close([gz, gzt], [num_z[0], num_zt[0]])

    def test_needs_two_rows(self):
        with pytest.raises(ValueError):
            align_uniform(np.ones((1, 2)), np.ones((1, 2)), 1.0, 1.0)
