"""Training precision: float32 in, float32 out, at every step of a trial.

A silent float64 upcast anywhere on the training path doubles the GEMM cost
and fails no accuracy test, so each step is checked here for its dtype. A
loss value is a Python float; it counts as float32 when it is exactly a
float32 number, which a value computed in float64 almost never is.
"""

from dataclasses import replace

import numpy as np
import pytest

from conftest import bundle_weights, l2_normalize_rows_backward, make_numeric_dataset
from tabpretrain import losses, methods
from tabpretrain.baselines import mixup_batch
from tabpretrain.corruption import (
    STRATEGIES,
    build_marginal_pool,
    corrupt_batch,
    make_views,
)
from tabpretrain.data import make_splits
from tabpretrain.nn import (
    Adam,
    Mlp,
    dropout_mask,
    l2_normalize_rows,
    mse,
    smooth_labels,
    softmax_cross_entropy,
)
from tabpretrain.training import (AUTOENCODERS, Hyperparameters, ModelBundle, _objective,
                                  contrastive_step)

F32 = np.float32


def float32_dataset(n=40, d=5, seed=0):
    ds = make_numeric_dataset(n=n, d=d, seed=seed)
    return replace(ds, X=ds.X.astype(F32))


def assert_float32(*arrays):
    for a in arrays:
        assert a.dtype == F32, a.dtype


def assert_float32_value(value):
    assert isinstance(value, float) and float(F32(value)) == value, value


def embeddings(rng, n=6, d=4):
    return (l2_normalize_rows(rng.normal(size=(n, d)).astype(F32)),
            l2_normalize_rows(rng.normal(size=(n, d)).astype(F32)))


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("view_policy", ["corrupt_one", "corrupt_both"])
def test_views_keep_float32(strategy, view_policy, rng):
    ds = float32_dataset()
    pool = build_marginal_pool(ds, np.arange(30))
    pool.learnable = rng.normal(size=ds.X.shape[1]).astype(F32)
    cfg = Hyperparameters(corruption_strategy=strategy, view_policy=view_policy)
    batch = ds.X[:8]
    view_a, view_b, _ = make_views(batch, cfg, pool, rng)
    out, _ = corrupt_batch(batch, cfg, pool, rng)
    assert_float32(pool.X, pool.encoded_mean, view_a, view_b, out)


@pytest.mark.parametrize("variant", AUTOENCODERS)
def test_autoencoder_inputs_keep_float32(variant, rng):
    ds = float32_dataset()
    pool = build_marginal_pool(ds, np.arange(30))
    view, _ = _objective(variant, None, Hyperparameters(), pool, rng)
    assert_float32(view(ds.X[:8])[0])


def test_loss_values_and_gradients_keep_float32(rng):
    z, zt = embeddings(rng)
    for loss_fn in (lambda **kw: losses.infonce(z, zt, 0.7, **kw),
                    lambda **kw: losses.barlow_twins(z, zt, 5e-3, **kw),
                    lambda **kw: losses.align_uniform(z, zt, 0.7, 1.3, **kw)):
        assert_float32_value(loss_fn(value_only=True))
        loss, grad_z, grad_zt = loss_fn()
        assert_float32_value(loss)
        assert_float32(grad_z, grad_zt)
    logits = rng.normal(size=6).astype(F32)
    loss, grad = losses.binary_logistic(logits, np.array([0, 1, 0, 1, 1, 0]))
    assert_float32_value(loss)
    assert_float32(grad)
    # targets come in float64 (np.eye, soft targets); the loss casts them
    logits = rng.normal(size=(6, 3)).astype(F32)
    loss, grad = softmax_cross_entropy(logits, smooth_labels(np.eye(3)[[0, 1, 2, 0, 1, 2]], 0.1, 3))
    assert_float32_value(loss)
    assert_float32(grad, smooth_labels(np.eye(3, dtype=F32), 0.1, 3))
    loss, grad = mse(logits, rng.normal(size=(6, 3)))
    assert_float32_value(loss)
    assert_float32(grad)
    raw = rng.normal(size=(6, 3)).astype(F32)
    assert_float32(l2_normalize_rows(raw), l2_normalize_rows_backward(raw, rng.normal(size=(6, 3))))


def test_bundle_steps_keep_float32(rng):
    ds = float32_dataset()
    hp = Hyperparameters(hidden_dim=8, encoder_layers=2, head_layers=1)
    bundle = ModelBundle.create(ds.X.shape[1], 2, rng, hp, "scarf", "ae_cotrain")
    assert_float32(*bundle_weights(bundle))
    x, x2 = ds.X[:6], ds.X[6:12]
    loss, grads, grad_in = contrastive_step(
        bundle.net("scarf"), x, x2, lambda z, zt: losses.infonce(z, zt, 1.0))
    assert_float32_value(loss)
    assert_float32(*grads, grad_in)
    _, reconstruction_step = _objective("no_noise_ae", bundle.net("no_noise_ae"), hp, None, rng)
    loss, grads = reconstruction_step(x)
    assert_float32_value(loss)
    assert_float32(*grads)
    classifier = bundle.net(None)
    logits = classifier.forward(x.astype(np.float64), 0.5, rng)  # input is cast
    _, grad = softmax_cross_entropy(logits, np.eye(2)[ds.y[:6]])
    grads, _ = classifier.backward(grad, input_grad=False)
    assert_float32(logits, *grads)
    # inference casts its input too, in one slice and in several
    for rows in (ds.X[:6], np.repeat(ds.X, 8, axis=0)):
        assert_float32(bundle.predict(rows.astype(np.float64)), bundle.embed(rows.astype(np.float64)))


def test_dropout_mixup_and_adam_keep_float32(rng):
    x = rng.normal(size=(8, 4)).astype(F32)
    assert_float32(dropout_mask(x, 0.3, rng), dropout_mask(x, 0.0, rng))
    mixed_x, mixed_y = mixup_batch(x, np.eye(2, dtype=F32)[[0, 1] * 4], 0.2, rng)
    assert_float32(mixed_x, mixed_y)
    net = Mlp.create([4, 3], rng)
    opt = Adam(net.parameters(), learning_rate=1e-3)
    net.forward(x)
    grads, _ = net.backward(np.ones((8, 3), dtype=F32))
    opt.step(grads)
    assert_float32(*net.parameters(), *opt.first_moment, *opt.second_moment)


def test_run_method_trains_on_float32(monkeypatch):
    ds = make_numeric_dataset(n=120, d=4, seed=2)
    seen = []

    def spy(trainer):
        def wrapped(dataset, *args, **kwargs):
            seen.append(dataset.X.dtype)
            return trainer(dataset, *args, **kwargs)
        return wrapped

    monkeypatch.setattr(methods, "pretrain_scarf", spy(methods.pretrain_scarf))
    monkeypatch.setattr(methods, "finetune", spy(methods.finetune))
    hp = Hyperparameters(hidden_dim=8, encoder_layers=2, head_layers=1, pretrain_max_epochs=1,
                         finetune_max_epochs=1, val_build_epochs=1)
    methods.run_method("scarf", ds, make_splits(120, 0), "full", 0, hp)
    assert seen == [F32, F32]
    assert ds.X.dtype == np.float64  # the caller's dataset is not modified
