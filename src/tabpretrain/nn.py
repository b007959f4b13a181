"""Dense MLP forward/backward, losses, and the Adam optimizer.

Training runs in `TRAINING_DTYPE`, float32, and the dtype is carried by the
weights: `Mlp` computes in the dtype of its layers, `DenseLayer.init` makes
layers of the training dtype, `data.scale` returns X in it, and every
function here returns its input's floating dtype. A net built from float64
arrays computes in float64, which is how the finite-difference oracles run.
Weight matrices are stored (in_dim, out_dim) so a batch forward is
``x @ W + b``. Gradients of every loss are averaged over the batch, which
keeps learning-rate semantics independent of batch size.

`Mlp.forward` keeps a tape of each layer's input and of the net's output (no
preactivations) and works in place on the arrays it allocates; it drops the
previous pass's tape before it allocates the new one, so a net holds one
tape at a time. `Mlp.backward` consumes that tape, dropping each activation
and dropout mask after its last read, so one forward pass serves one
backward pass; it applies the ReLU and dropout masks in place on its own
gradient arrays and skips the first layer's input-gradient GEMM when the
caller discards the input gradient (`input_grad=False`). `Adam.step` and
`l2_normalize_backward` consume the gradients they are handed: each is
overwritten after its last read.
"""

from __future__ import annotations

import numpy as np


class ShapeError(ValueError):
    """Incompatible array shapes passed to a numerical operation."""


class StateError(RuntimeError):
    """Operation called out of order (e.g. backward before forward)."""


_ACTIVATIONS = ("relu", "identity")

TRAINING_DTYPE = np.float32  # the precision of the nets' weights and of the scaled X


def as_float(x) -> np.ndarray:
    """x as an array that keeps a floating dtype; anything else becomes float64."""
    a = np.asarray(x)
    return a if np.issubdtype(a.dtype, np.floating) else a.astype(np.float64)


class DenseLayer:
    def __init__(self, weights: np.ndarray, bias: np.ndarray, activation: str = "relu"):
        if activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        self.weights = as_float(weights)
        self.bias = np.asarray(bias, dtype=self.weights.dtype)
        if self.weights.ndim != 2 or self.bias.shape != (self.weights.shape[1],):
            raise ShapeError("bias length must equal the layer output width")
        self.activation = activation

    @classmethod
    def init(cls, in_dim: int, out_dim: int, activation: str, rng: np.random.Generator) -> "DenseLayer":
        # Scaled-uniform init with bound sqrt(6 / fan_in), drawn in float64
        # and stored in the training precision; bias zero.
        bound = np.sqrt(6.0 / in_dim)
        w = rng.uniform(-bound, bound, size=(in_dim, out_dim))
        return cls(w.astype(TRAINING_DTYPE), np.zeros(out_dim, dtype=TRAINING_DTYPE), activation)

    @property
    def in_dim(self) -> int:
        return self.weights.shape[0]

    @property
    def out_dim(self) -> int:
        return self.weights.shape[1]


class Mlp:
    """Fixed-topology MLP that records a tape of its last forward pass for
    backprop.

    Optional inverted dropout is applied to every layer's post-activation
    output except the last layer's. The tape holds each layer's input and,
    after the last, the net's output: layer k's post-activation (and
    post-dropout) output is layer k+1's input, and the ReLU mask is read off
    it (relu(z) > 0 exactly where z > 0), so no preactivation is kept. It
    also holds the dropout masks. Forward adds the bias and applies ReLU and
    dropout in place on each GEMM's output, with the rounding of
    ``relu(x @ W + b) * mask``. A caller must not write into the array that
    forward returns before the backward pass that reads it.

    The tape lives from a forward pass to its backward pass, which drops
    each array of it after its last read and leaves no tape, so a second
    backward raises StateError. A batch that passes forward's checks drops
    the previous tape before the first GEMM, and a batch that fails them
    leaves it in place for `backward`.
    """

    def __init__(self, layers: list[DenseLayer]):
        for prev, nxt in zip(layers, layers[1:]):
            if prev.out_dim != nxt.in_dim:
                raise ShapeError("adjacent layer widths disagree")
            if prev.weights.dtype != nxt.weights.dtype:
                raise ValueError("all layers of a net must share one dtype")
        self.layers = layers
        self._cache = None

    @classmethod
    def create(
        cls,
        dims: list[int],
        rng: np.random.Generator,
        final_activation: str = "identity",
    ) -> "Mlp":
        layers = []
        for k in range(len(dims) - 1):
            act = "relu" if k < len(dims) - 2 else final_activation
            layers.append(DenseLayer.init(dims[k], dims[k + 1], act, rng))
        return cls(layers)

    @property
    def in_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def out_dim(self) -> int:
        return self.layers[-1].out_dim

    @property
    def dtype(self) -> np.dtype:
        return self.layers[0].weights.dtype

    def forward(
        self,
        batch: np.ndarray,
        dropout_rate: float = 0.0,
        rng: np.random.Generator | None = None,
    ) -> np.ndarray:
        x = np.asarray(batch, dtype=self.dtype)
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise ShapeError(
                f"batch has {x.shape[1] if x.ndim == 2 else '?'} columns, layer expects {self.in_dim}"
            )
        if dropout_rate and rng is None:
            raise ValueError("dropout requires an rng")
        self._cache = None  # the previous tape dies before the new one is allocated
        acts, masks = [x], []
        for k, layer in enumerate(self.layers):
            x = x @ layer.weights
            x += layer.bias
            if layer.activation == "relu":
                np.maximum(x, 0.0, out=x)
            if dropout_rate and k < len(self.layers) - 1:
                mask = dropout_mask(x, dropout_rate, rng)
                x *= mask
                masks.append(mask)
            else:
                masks.append(None)
            acts.append(x)
        self._cache = (acts, masks)
        return x

    def backward(self, output_grad: np.ndarray,
                 input_grad: bool = True) -> tuple[list[np.ndarray], np.ndarray | None]:
        """Gradients w.r.t. every parameter (same order as parameters()) and
        the input of the last forward pass; the input gradient is None, and
        the first layer's input-gradient GEMM is skipped, when `input_grad`
        is False. `output_grad` is not changed. The tape is consumed: each
        activation and dropout mask is dropped after its last read, so a
        second backward without a forward pass in between raises
        StateError. An `output_grad` of the wrong shape raises ShapeError
        and leaves the tape in place."""
        if self._cache is None:
            raise StateError("backward needs a forward pass since the last backward")
        acts, masks = self._cache
        g = np.asarray(output_grad, dtype=self.dtype)
        if g.shape != (acts[0].shape[0], self.out_dim):
            raise ShapeError("output_grad shape does not match the last forward output")
        self._cache = None
        grads: list[np.ndarray] = [None] * (2 * len(self.layers))
        owned = False  # until the first product, g may be the caller's array
        for k in range(len(self.layers) - 1, -1, -1):
            layer = self.layers[k]
            dropout, out = masks.pop(), acts.pop()  # layer k's: dead after this step
            relu = out > 0 if layer.activation == "relu" else None
            del out
            for mask in (dropout, relu):
                if mask is not None:
                    g = np.multiply(g, mask, out=g if owned else None)
                    owned = True
            del dropout, relu, mask
            grads[2 * k] = acts[k].T @ g
            grads[2 * k + 1] = g.sum(axis=0)
            if k or input_grad:
                g = g @ layer.weights.T
                owned = True
        return grads, g if input_grad else None

    def parameters(self) -> list[np.ndarray]:
        out = []
        for layer in self.layers:
            out.append(layer.weights)
            out.append(layer.bias)
        return out


class Adam:
    """Adam with bias correction over a flat list of parameter arrays, with
    the fixed b1 = BETA1, b2 = BETA2 and eps = EPSILON; the learning rate's
    one default is `training.Hyperparameters.learning_rate`.

    Updates are applied in place; a zero gradient leaves parameters
    bit-identical. Each parameter's moments have that parameter's dtype. The
    step runs in one scratch buffer per dtype, as large as the largest
    parameter, and in each gradient after its last read, with the
    operations, and so the rounding, of
    ``m = b1*m + (1-b1)*g; v = b2*v + (1-b2)*g*g;
    p -= lr * (m / (1-b1**t)) / (sqrt(v / (1-b2**t)) + eps)``.
    So `step` consumes its gradients: each is overwritten. A gradient whose
    shape or dtype differs from its parameter's raises before any update.
    """

    BETA1, BETA2, EPSILON = 0.9, 0.999, 1e-8

    def __init__(self, params: list[np.ndarray], learning_rate: float):
        self.params = params
        self.learning_rate = learning_rate
        self.step_count = 0
        self.first_moment = [np.zeros_like(p) for p in params]
        self.second_moment = [np.zeros_like(p) for p in params]
        # one scratch buffer per dtype, shared by the parameters in turn
        size = max((p.size for p in params), default=0)
        self._scratch = {p.dtype: np.empty(size, p.dtype) for p in params}

    def step(self, grads: list[np.ndarray]) -> None:
        if len(grads) != len(self.params):
            raise ShapeError("gradient list length does not match parameter list")
        for p, g in zip(self.params, grads):
            if g.shape != p.shape:
                raise ShapeError("gradient shape does not match parameter shape")
            if g.dtype != p.dtype:  # a gradient of another dtype would round differently
                raise ValueError(f"gradient dtype {g.dtype} does not match "
                                 f"parameter dtype {p.dtype}")
        self.step_count += 1
        t = self.step_count
        for p, g, m, v in zip(self.params, grads, self.first_moment, self.second_moment):
            a = self._scratch[p.dtype][: p.size].reshape(p.shape)
            m *= self.BETA1
            m += np.multiply(g, 1 - self.BETA1, out=a)
            v *= self.BETA2
            np.multiply(g, 1 - self.BETA2, out=a)
            v += np.multiply(a, g, out=a)  # g's last read: from here on it is scratch
            np.divide(m, 1 - self.BETA1**t, out=a)  # m_hat
            a *= self.learning_rate
            np.divide(v, 1 - self.BETA2**t, out=g)  # v_hat
            np.sqrt(g, out=g)
            g += self.EPSILON
            p -= np.divide(a, g, out=a)


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def softmax_cross_entropy(logits: np.ndarray, target_dist: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy between row softmax and a target distribution.

    Returns the loss and its gradient w.r.t. the logits, in the logits' dtype
    (the target is cast to it).
    """
    logits = as_float(logits)
    target = np.asarray(target_dist, dtype=logits.dtype)
    if logits.shape != target.shape:
        raise ShapeError("logits and target shapes differ")
    if np.any(target < 0) or not np.allclose(target.sum(axis=1), 1.0, atol=1e-8):
        raise ValueError("target rows must be distributions (nonnegative, sum to 1)")
    n = logits.shape[0]
    z = logits - logits.max(axis=1, keepdims=True)
    log_probs = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    loss = float(-(target * log_probs).sum() / n)
    grad = (np.exp(log_probs) - target) / n
    return loss, grad


def smooth_labels(onehot: np.ndarray, weight: float, num_classes: int) -> np.ndarray:
    if not 0.0 <= weight < 1.0:
        raise ValueError("smoothing weight must lie in [0, 1)")
    return (1.0 - weight) * as_float(onehot) + weight / num_classes


def dropout_mask(activations: np.ndarray, rate: float, rng: np.random.Generator) -> np.ndarray:
    """Inverted-dropout mask of the activations' shape and dtype: 0 with
    probability `rate`, else 1/(1-rate), from one draw of `rng` at any rate."""
    if not 0.0 <= rate < 1.0:
        raise ValueError("dropout rate must lie in [0, 1)")
    activations = as_float(activations)
    keep = rng.random(activations.shape) >= rate
    return np.divide(keep, 1.0 - rate, dtype=activations.dtype)


def l2_normalize_rows(m: np.ndarray) -> np.ndarray:
    """Divide each row by its Euclidean norm; zero rows pass through unchanged."""
    return l2_normalize_rows_with_norms(m)[0]


def l2_normalize_rows_with_norms(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(z, norms): the normalized rows and the (n, 1) norms they were divided
    by, 1 for a zero row; `l2_normalize_backward` takes both."""
    m = as_float(m)
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    safe = np.where(norms == 0.0, 1.0, norms)
    return m / safe, safe


def l2_normalize_backward(z: np.ndarray, norms: np.ndarray, grad_z: np.ndarray) -> np.ndarray:
    """Backprop through row normalization from the output of
    `l2_normalize_rows_with_norms`: (grad_z - z * <z, grad_z>) / norms,
    computed in place in `grad_z`, an array of z's dtype and shape, which is
    returned; it takes one temporary of that shape."""
    if grad_z.dtype != z.dtype or grad_z.shape != z.shape:
        raise ValueError("grad_z must have the dtype and shape of z")
    tmp = np.multiply(z, grad_z)
    inner = tmp.sum(axis=1, keepdims=True)
    grad_z -= np.multiply(z, inner, out=tmp)
    grad_z /= norms
    return grad_z


def mse(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean squared error and its gradient w.r.t. pred, in pred's dtype (the
    target is cast to it)."""
    pred = as_float(pred)
    target = np.asarray(target, dtype=pred.dtype)
    if pred.shape != target.shape:
        raise ShapeError("pred and target shapes differ")
    diff = pred - target
    loss = float((diff * diff).mean())
    grad = 2.0 * diff / diff.size
    return loss, grad

