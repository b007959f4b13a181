import tracemalloc

import numpy as np
import pytest

from tabpretrain.data import ProcessedDataset
from tabpretrain.nn import as_float, l2_normalize_backward, l2_normalize_rows_with_norms
from tabpretrain.training import Hyperparameters, ModelBundle, _fit


def encoded_dataset(X, y, classes=("0", "1"), blocks=None):
    """ProcessedDataset over an already encoded X, one column per feature
    unless `blocks` gives the feature blocks."""
    if blocks is None:
        blocks = [(j, j + 1) for j in range(X.shape[1])]
    return ProcessedDataset(X, np.asarray(y), blocks, list(classes))


def make_numeric_dataset(n=200, d=6, seed=0, separable=True, num_classes=2):
    """Synthetic all-numerical ProcessedDataset with an optional separable
    signal in the first two features."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    if separable:
        y = (X[:, 0] + X[:, 1] > 0).astype(np.int64)
    else:
        y = rng.integers(0, num_classes, size=n)
    return encoded_dataset(X, y, [str(k) for k in range(num_classes)])


def scripted_fit(metrics, patience):
    """`_fit` with a no-op step and the validation metric `metrics`, one value
    an epoch, for at most `len(metrics)` epochs."""
    values = iter(metrics)
    return _fit([np.zeros(1)], np.arange(4), Hyperparameters(patience=patience), len(metrics),
                np.random.default_rng(0), lambda rows: (0.0, [np.zeros(1)]),
                lambda: next(values), "scripted")


def traced_peak(fn, *args):
    """(result, peak bytes that tracemalloc saw allocated during the call)."""
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def make_blob_dataset(n=400, d=8, seed=0, sep=4.0):
    """Two well-separated Gaussian blobs; linearly separable with margin."""
    rng = np.random.default_rng(seed)
    half = n // 2
    X = np.vstack([
        rng.normal(-sep / 2, 1.0, size=(half, d)),
        rng.normal(sep / 2, 1.0, size=(n - half, d)),
    ])
    y = np.concatenate([np.zeros(half, dtype=np.int64), np.ones(n - half, dtype=np.int64)])
    perm = rng.permutation(n)
    return encoded_dataset(X[perm], y[perm])


def bundle_weights(bundle):
    """Copies of every net's parameters (f, then the heads in the order of
    `bundle.heads`) and of the learnable missing-value vector of a
    ModelBundle, in that order."""
    out = []
    for net in (bundle.f, *bundle.heads.values()):
        out.extend(p.copy() for p in net.parameters())
    if bundle.learnable_missing is not None:
        out.append(bundle.learnable_missing.copy())
    return out


def to_float64(model):
    """Cast an Mlp, or every net and the learnable missing vector of a
    ModelBundle, to float64 in place and return it. Nets are created in
    float32, the training precision; the finite-difference oracles need
    float64."""
    if isinstance(model, ModelBundle):
        for net in (model.f, *model.heads.values()):
            to_float64(net)
        if model.learnable_missing is not None:
            model.learnable_missing = model.learnable_missing.astype(np.float64)
        return model
    for layer in model.layers:
        layer.weights = layer.weights.astype(np.float64)
        layer.bias = layer.bias.astype(np.float64)
    return model


def l2_normalize_rows_backward(raw: np.ndarray, grad_z: np.ndarray) -> np.ndarray:
    """Backprop through row normalization from the raw rows u, z = u/||u||:
    the plain composition that `training.contrastive_step` must match."""
    raw = as_float(raw)
    return l2_normalize_backward(*l2_normalize_rows_with_norms(raw),
                                 np.asarray(grad_z, dtype=raw.dtype))


def central_difference(f, params, h=1e-5):
    """Central finite-difference gradient of scalar f() w.r.t. each array in
    params (mutated in place during probing)."""
    grads = []
    for p in params:
        g = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + h
            fp = f()
            p[idx] = orig - h
            fm = f()
            p[idx] = orig
            g[idx] = (fp - fm) / (2 * h)
        grads.append(g)
    return grads


def assert_grads_close(analytic, numeric, rtol=1e-5):
    for a, n in zip(analytic, numeric):
        scale = max(np.abs(a).max(), np.abs(n).max(), 1e-8)
        np.testing.assert_allclose(a, n, atol=rtol * scale, rtol=0)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
