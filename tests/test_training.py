from dataclasses import fields, replace
from functools import partial

import numpy as np
import pytest

from conftest import (assert_grads_close, bundle_weights, central_difference,
                      l2_normalize_rows_backward, make_blob_dataset, make_numeric_dataset,
                      scripted_fit, to_float64, traced_peak)
from tabpretrain import losses, methods, nn, training
from tabpretrain.corruption import (STRATEGIES, ConfigurationError, CorruptionDraw,
                                    build_marginal_pool, corrupt_batch)
from tabpretrain.data import Splits, make_splits
from tabpretrain.nn import l2_normalize_rows, mse
from tabpretrain.training import (
    AUTOENCODERS,
    DRAWS_SCARF_VIEWS,
    FINETUNE_RECIPES,
    INFERENCE_ROWS,
    PRETRAINERS,
    Hyperparameters,
    ModelBundle,
    Phase,
    StaticValidationPairs,
    TrainingDiverged,
    build_static_validation,
    classification_error,
    finetune,
    finetune_phase,
    pretrain_phase,
    pretrain_scarf,
    _contrastive_loss,
    _fit,
    _objective,
    contrastive_step,
)

SMALL = Hyperparameters(hidden_dim=16, encoder_layers=2, head_layers=1)
LEARNABLE = replace(SMALL, corruption_strategy="missing_learnable")


def small_bundle(ds, rng, arch=SMALL, pre=None, recipe="control"):
    """The bundle of method (`pre`, `recipe`) under `arch`."""
    return ModelBundle.create(ds.X.shape[1], ds.num_classes, rng, arch, pre, recipe)


def view_of(pre, hp, pool, rng):
    """The `view` of objective `pre` that `build_static_validation` takes."""
    return _objective(pre, None, hp, pool, rng)[0]


def test_hyperparameters_are_the_corruption_config_then_the_trial_fields():
    """The field names and order that the CLI flags, the config keys and
    `config.json` follow: the corruption settings first."""
    names = [f.name for f in fields(Hyperparameters)]
    assert names == [
        "corruption_strategy", "corruption_rate", "index_selection", "view_policy",
        "index_sharing", "donor", "gaussian_sigma", "unique_pool", "batch_size", "learning_rate",
        "patience", "pretrain_max_epochs", "finetune_max_epochs", "temperature",
        "val_build_epochs", "pretrain_loss", "validation_metric", "label_smoothing", "dropout",
        "mixup_alpha", "cotrain_weight", "self_train_threshold", "self_train_iterations",
        "hidden_dim", "encoder_layers", "head_layers", "noise_rate", "labeled_fraction",
        "scaling"]


def test_every_hyperparameter_has_exactly_one_rule():
    """Each field but the boolean `unique_pool` is named by exactly one
    `CHOICES` key or one `RANGES` row, so no field is built unchecked."""
    named = list(Hyperparameters.CHOICES) + [
        name for _, _, names in Hyperparameters.RANGES for name in names]
    assert sorted(named) == sorted(f.name for f in fields(Hyperparameters)
                                   if f.name != "unique_pool")


class TestEarlyStopping:
    """`_fit` stops after `patience` epochs without a new first minimum of the
    validation curve; each sequence has one value after its expected stop."""

    def test_stops_after_patience_nonimproving(self):
        out = scripted_fit([5.0, 4.0, 3.0, 3.0, 3.0, 3.0, 2.0], patience=3)
        assert out.epochs_used == 6 and out.stop_reason == "patience"
        assert out.best_epoch == 3 and out.val_curve[out.best_epoch - 1] == 3.0

    def test_improvement_resets_counter(self):
        out = scripted_fit([5.0, 5.0, 4.0, 4.0, 4.0, 3.0], patience=2)
        assert out.epochs_used == 5 and out.stop_reason == "patience"
        assert out.best_epoch == 3

    def test_equal_metric_is_not_improvement(self):
        out = scripted_fit([1.0, 1.0, 0.0], patience=1)
        assert out.epochs_used == 2 and out.stop_reason == "patience"
        assert out.best_epoch == 1


class TestStaticValidation:
    def test_pair_count(self, rng):
        ds = make_numeric_dataset(n=100, d=4)
        pool = build_marginal_pool(ds, np.arange(50))
        pairs = build_static_validation(
            ds.X[50:100], view_of("scarf", Hyperparameters(), pool, rng), rng, epochs=10,
            batch_size=128,
        )
        assert sum(pos.size for pos in pairs.positions) == 500
        assert len(pairs.positions) == 10  # one 50-row batch per pass
        np.testing.assert_array_equal(pairs.originals, ds.X[50:100])  # each row once

    def test_corruption_none_identical_halves(self, rng):
        ds = make_numeric_dataset(n=60, d=4)
        pool = build_marginal_pool(ds, np.arange(40))
        pairs = build_static_validation(
            ds.X[40:60], view_of("scarf", Hyperparameters(corruption_strategy="none"), pool, rng),
            rng, epochs=3, batch_size=128,
        )
        for pos, corr in zip(pairs.positions, pairs.corrupted):
            np.testing.assert_array_equal(pairs.originals[pos], corr)

    def test_same_seed_bit_identical(self):
        ds = make_numeric_dataset(n=60, d=4)
        pool = build_marginal_pool(ds, np.arange(40))
        a, b = [build_static_validation(ds.X[40:60],
                                        view_of("scarf", Hyperparameters(), pool, r), r,
                                        epochs=2, batch_size=128)
                for r in (np.random.default_rng(5), np.random.default_rng(5))]
        for x, y in zip(a.corrupted, b.corrupted):
            np.testing.assert_array_equal(x, y)

    @pytest.mark.parametrize("pre", ["scarf", "scarf_ae", "scarf_disc"])
    def test_corrupt_both_view_draws_one_corrupted_copy(self, pre):
        """Under corrupt_both the view is still one corrupted copy: one
        `corrupt_batch` draw, no discarded first view."""
        ds = make_numeric_dataset(n=60, d=4)
        pool = build_marginal_pool(ds, np.arange(40))
        hp = Hyperparameters(view_policy="corrupt_both")
        rng, twin = np.random.default_rng(8), np.random.default_rng(8)
        batch = ds.X[40:60]
        copy, _ = view_of(pre, hp, pool, rng)(batch)
        want, _ = corrupt_batch(batch, hp, pool, twin)
        np.testing.assert_array_equal(copy, want)
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_no_noise_view_is_the_batch_itself(self):
        """Every batch is a fresh gather that nothing writes into, so the
        no-noise autoencoder's view copies nothing and draws nothing."""
        rng, twin = np.random.default_rng(8), np.random.default_rng(8)
        batch = make_numeric_dataset(n=20, d=4).X[np.arange(20)]
        view, draw = view_of("no_noise_ae", Hyperparameters(), None, rng)(batch)
        assert view is batch and draw is None
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_empty_split_rejected(self, rng):
        ds = make_numeric_dataset()
        pool = build_marginal_pool(ds, np.arange(10))
        with pytest.raises(ValueError):
            build_static_validation(ds.X[:0], view_of("scarf", Hyperparameters(), pool, rng),
                                    rng, epochs=10, batch_size=128)


def per_batch_metric(pre, bundle, pairs, cfg):
    """The validation metrics computed batch by batch, the reference for the
    positions: every stored batch of originals goes through the nets on its
    own, next to its corrupted copy. The discriminative error is weighted by
    the 2B rows it scores."""
    vals, weights = [], []
    f, heads = bundle.f, bundle.heads
    for pos, corr in zip(pairs.positions, pairs.corrupted):
        orig = pairs.originals[pos]
        if pre == "scarf":
            if orig.shape[0] < 2:
                continue
            z = l2_normalize_rows(heads["g"].forward(f.forward(orig)))
            zt = l2_normalize_rows(heads["g"].forward(f.forward(corr)))
            if cfg.validation_metric == "infonce_error":
                vals.append(losses.infonce_error(z, zt))
            else:
                vals.append(_contrastive_loss(cfg, z, zt)[0])
            weights.append(orig.shape[0])
        elif pre in AUTOENCODERS:
            vals.append(mse(heads["decoder"].forward(f.forward(corr)), orig)[0])
            weights.append(orig.shape[0])
        else:
            logit = heads["disc_proj"].forward(
                heads["g"].forward(f.forward(np.vstack([orig, corr]))))
            labels = np.concatenate([np.zeros(len(orig)), np.ones(len(corr))])
            vals.append(float(np.mean((logit.reshape(-1) > 0) != labels)))
            weights.append(len(labels))
    return float(np.average(vals, weights=weights))


METRICS = {
    "scarf-infonce_loss": ("scarf", dict()),
    "scarf-infonce_error": ("scarf", dict(validation_metric="infonce_error")),
    "scarf-barlow": ("scarf", dict(pretrain_loss="barlow")),
    "scarf-align_uniform": ("scarf", dict(pretrain_loss="align_uniform")),
    "autoencoder": ("scarf_ae", dict()),
    "add_noise_ae": ("add_noise_ae", dict()),
    "no_noise_ae": ("no_noise_ae", dict()),
    "discriminative": ("scarf_disc", dict()),
}
assert {pre for pre, _ in METRICS.values()} == set(PRETRAINERS)


class TestValidationMetrics:
    """Each metric embeds the validation rows once per epoch and gathers the
    stored batches by position; the value equals the per-batch computation."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("name", METRICS)
    def test_equals_per_batch_computation(self, name, dtype):
        pre, overrides = METRICS[name]
        ds = make_numeric_dataset(n=1000, d=12, seed=14)
        splits = make_splits(ds.n, 10)  # 100 validation rows: batches of 32, 32, 32, 4
        rng = np.random.default_rng(6)
        # every head: the decoder of ae_cotrain and the disc_proj of scarf_disc
        bundle = small_bundle(ds, rng, replace(SMALL, hidden_dim=64), "scarf_disc", "ae_cotrain")
        if dtype == np.float64:
            to_float64(bundle)
        cfg = Hyperparameters(batch_size=32, val_build_epochs=3, **overrides)
        pool = build_marginal_pool(ds, splits.train)
        pairs = build_static_validation(ds.X[splits.validation],
                                        view_of(pre, cfg, pool, rng), rng,
                                        cfg.val_build_epochs, cfg.batch_size)
        assert training._validation_metric(bundle, pairs, cfg, pre) == \
            per_batch_metric(pre, bundle, pairs, cfg)


class TestInference:
    """`predict` and `embed` run `Mlp.forward` over slices of at most
    INFERENCE_ROWS rows, so they keep no full-split activations."""

    @staticmethod
    def bundle_and_rows(n, dtype):
        rng = np.random.default_rng(n)
        bundle = ModelBundle.create(100, 2, rng, Hyperparameters())
        if dtype == np.float64:
            to_float64(bundle)
        return bundle, rng.normal(size=(n, 100)).astype(dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n", [1, 255, 256, 257, 4000])
    def test_embed_equals_unchunked_forward(self, n, dtype):
        bundle, X = self.bundle_and_rows(n, dtype)
        np.testing.assert_array_equal(
            bundle.embed(X), l2_normalize_rows(bundle.heads["g"].forward(bundle.f.forward(X))))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n", [1, 255, 256, 257, 4000])
    def test_predict_equals_forward_of_each_slice(self, n, dtype):
        """Up to INFERENCE_ROWS rows, `predict` is the unchunked forward.
        Above, it is bit for bit one forward per slice, and within rounding
        of the unchunked forward with the same classes: OpenBLAS sums the
        product of a layer only 2 columns wide in an order that depends on
        its row count, so a 4,000-row and a 250-row product of the same rows
        differ in the last bits (the 256-wide layers of `embed` do not)."""
        bundle, X = self.bundle_and_rows(n, dtype)
        logits = bundle.predict(X)
        full = bundle.heads["h"].forward(bundle.f.forward(X))
        assert logits.dtype == dtype
        if n <= INFERENCE_ROWS:
            np.testing.assert_array_equal(logits, full)
            return
        slices = np.array_split(X, -(-n // INFERENCE_ROWS))
        assert max(len(part) for part in slices) <= INFERENCE_ROWS
        np.testing.assert_array_equal(
            logits,
            np.concatenate([bundle.heads["h"].forward(bundle.f.forward(part)) for part in slices]))
        np.testing.assert_allclose(logits, full, rtol=0,
                                   atol=64 * np.finfo(dtype).eps * np.abs(full).max())
        np.testing.assert_array_equal(logits.argmax(axis=1), full.argmax(axis=1))

    def test_no_rows(self, rng):
        bundle = ModelBundle.create(5, 3, rng, SMALL)
        assert bundle.predict(np.zeros((0, 5))).shape == (0, 3)
        assert bundle.embed(np.zeros((0, 5))).shape == (0, 16)

    @pytest.mark.parametrize("name", ["classification_error", "embed"])
    def test_peak_memory_under_a_third_of_a_full_split_tape(self, name):
        """A forward over all 4,000 rows keeps every layer's input and
        pre-activation for a backward pass that never comes: a peak of about
        10 (classification error) or 12 (embedding) matrices of 4,000 x 256
        float32 values. Slicing holds the peak under a third of that."""
        rng = np.random.default_rng(0)
        bundle = ModelBundle.create(100, 2, rng, Hyperparameters())
        X = rng.normal(size=(4000, 100)).astype(np.float32)
        y = rng.integers(0, 2, size=4000)
        run = {"classification_error": lambda: classification_error(bundle, X, y),
               "embed": lambda: bundle.embed(X)}[name]
        full_split_peak = {"classification_error": 10, "embed": 12}[name] * X.shape[0] * 256 * 4
        run()
        assert traced_peak(run)[1] < full_split_peak / 3

    def test_embed_holds_its_output_once(self):
        """Each slice's embedding is written into one output: 4,000 rows at
        width 256 peaked at 2.38 times the output's bytes while the slices'
        results were kept for one concatenation, and at 1.45 since."""
        rng = np.random.default_rng(0)
        bundle = ModelBundle.create(20, 2, rng, Hyperparameters())
        X = rng.normal(size=(4000, 20)).astype(np.float32)
        bundle.embed(X)
        out, peak = traced_peak(bundle.embed, X)
        assert out.shape == (4000, 256)
        assert peak < 1.8 * out.nbytes


# the ids name each autoencoder by its input: clean, additive noise, SCARF corruption
TRAINERS = ["scarf", pytest.param("scarf_learnable", id="scarf-missing_learnable"),
            pytest.param("no_noise_ae", id="autoencoder-no_noise"),
            pytest.param("add_noise_ae", id="autoencoder-additive_noise"),
            pytest.param("scarf_ae", id="autoencoder-scarf_corruption"), "discriminative", "finetune",
            "cotrain", "ae_cotrain"]


# the (pre-trainer, recipe) of each trainer that is not a pre-trainer's own name
TRAINER_METHODS = {"scarf_learnable": ("scarf", "control"),
                   "discriminative": ("scarf_disc", "control"), "finetune": (None, "control"),
                   "cotrain": (None, "cotrain"), "ae_cotrain": (None, "ae_cotrain")}


def trainer_bundle(trainer, ds, rng):
    pre, recipe = TRAINER_METHODS.get(trainer, (trainer, "control"))
    return small_bundle(ds, rng, LEARNABLE if trainer == "scarf_learnable" else SMALL, pre, recipe)


def run_trainer(trainer, ds, splits, max_epochs, seed, batch_size=16):
    """A fresh small bundle trained by `_fit` of `trainer`'s phase; returns
    (outcome, the bundle's weights by `bundle_weights`, then the learnable
    missing-value vector that the phase of scarf_learnable creates and steps)."""
    rng = np.random.default_rng(seed)
    bundle = trainer_bundle(trainer, ds, rng)
    hp = Hyperparameters(batch_size=batch_size, pretrain_max_epochs=max_epochs,
                         finetune_max_epochs=max_epochs)
    if trainer == "scarf_learnable":
        hp = replace(hp, corruption_strategy="missing_learnable")
    pre, recipe = TRAINER_METHODS.get(trainer, (trainer, "control"))
    if pre is not None:
        phase = pretrain_phase(ds, splits, bundle, hp, rng, pre)
    else:
        phase = finetune_phase(ds, splits, splits.train, bundle, hp, rng, recipe)
    out = _fit(phase, hp, rng)
    vector = [phase.params[-1].copy()] if trainer == "scarf_learnable" else []
    return out, bundle_weights(bundle) + vector


@pytest.mark.parametrize("trainer", ["scarf", "no_noise_ae", "discriminative"])
def test_pre_trainers_reject_batch_size_one_before_any_work(trainer, monkeypatch):
    ds = make_numeric_dataset(n=100, d=4)
    splits = make_splits(100, 0)
    monkeypatch.setattr(training, "build_marginal_pool", lambda *a: pytest.fail("pool built"))
    with pytest.raises(ValueError, match="contrastive batches need at least 2 examples"):
        run_trainer(trainer, ds, splits, 1, seed=0, batch_size=1)


@pytest.mark.parametrize("pre", PRETRAINERS)
def test_marginal_pool_built_only_for_objectives_that_draw_scarf_views(pre, monkeypatch):
    ds = make_numeric_dataset(n=100, d=4)
    splits = make_splits(100, 0)
    built = []
    if pre in DRAWS_SCARF_VIEWS:
        monkeypatch.setattr(training, "build_marginal_pool",
                            lambda *a: built.append(1) or build_marginal_pool(*a))
    else:
        monkeypatch.setattr(training, "build_marginal_pool", lambda *a: pytest.fail("pool built"))
    run_trainer(pre, ds, splits, 1, seed=0)
    assert len(built) == (pre in DRAWS_SCARF_VIEWS)


@pytest.mark.parametrize("pre, strategy, error", [
    *[(pre, "marginal", "needs the bundle's decoder") for pre in AUTOENCODERS],
    ("scarf_disc", "marginal", "needs the bundle's disc_proj"),
])
def test_pre_trainers_without_their_head_rejected_before_any_work(pre, strategy, error,
                                                                   monkeypatch):
    ds = make_numeric_dataset(n=100, d=4)
    splits = make_splits(100, 0)
    rng = np.random.default_rng(0)
    monkeypatch.setattr(training, "build_marginal_pool", lambda *a: pytest.fail("pool built"))
    with pytest.raises(ConfigurationError, match=error):
        pretrain_scarf(ds, splits, small_bundle(ds, rng),
                       Hyperparameters(corruption_strategy=strategy), rng, pre)


@pytest.mark.parametrize("pre", ["typo", "control", None])
def test_unknown_pre_trainer_rejected_before_any_work(pre, monkeypatch):
    ds = make_numeric_dataset(n=100, d=4)
    rng = np.random.default_rng(0)
    monkeypatch.setattr(training, "build_marginal_pool", lambda *a: pytest.fail("pool built"))
    with pytest.raises(ConfigurationError, match=f"unknown pre-trainer {pre!r}"):
        pretrain_scarf(ds, make_splits(100, 0), small_bundle(ds, rng), Hyperparameters(), rng, pre)


class TestBundleDraws:
    """The nets `ModelBundle.create` draws, in the order the outputs pin."""

    @pytest.mark.parametrize("method, heads", [
        ("scarf", ("g", "h")),
        ("scarf_ae", ("g", "h", "decoder")),
        ("scarf_disc", ("g", "h", "disc_proj")),
        ("control", ("g", "h")),
        ("scarf+ae_cotrain", ("g", "h", "decoder")),
    ])
    def test_f_then_each_head_from_a_twin_generator(self, method, heads):
        """f and each head the method steps get the weights of the same
        `Mlp.create` calls, made in that order on a twin generator."""
        pre, recipe = methods.parse_method(method)
        hp = Hyperparameters(hidden_dim=6, encoder_layers=2, head_layers=2)
        bundle = ModelBundle.create(5, 3, np.random.default_rng(3), hp, pre, recipe)
        twin = np.random.default_rng(3)
        widths = {"g": [6, 6, 6], "h": [6, 6, 3], "decoder": [6, 6, 5], "disc_proj": [6, 1]}
        want = [nn.Mlp.create([5, 6, 6], twin, final_activation="relu"),
                *(nn.Mlp.create(widths[name], twin) for name in heads)]
        assert list(bundle.heads) == list(heads)
        for got, net in zip([bundle.f, *bundle.heads.values()], want, strict=True):
            assert [layer.activation for layer in got.layers] == \
                [layer.activation for layer in net.layers]
            assert_arrays_equal(got.parameters(), net.parameters())

    @pytest.mark.parametrize("pre, head", [("scarf_disc", "disc_proj"), ("no_noise_ae", "decoder"),
                                           (None, "h")])
    def test_net_without_the_objectives_head_rejected(self, pre, head, rng):
        bundle = ModelBundle.create(5, 3, rng, SMALL)
        if pre is None:
            bundle = ModelBundle(bundle.f, {"g": bundle.heads["g"]})
        with pytest.raises(ConfigurationError,
                           match=f"the {pre} objective needs the bundle's {head}"):
            bundle.net(pre)


class TestLearnableMissingVector:
    """Under missing_learnable, the vector that fills the corrupted cells
    belongs to the scarf pre-training phase, not to the bundle."""

    def test_bundle_holds_the_nets_only(self):
        assert [field.name for field in fields(ModelBundle)] == ["f", "heads"]

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("pre", PRETRAINERS)
    def test_only_scarf_under_missing_learnable_appends_a_zero_vector(self, pre, strategy,
                                                                     monkeypatch):
        """The phase steps the objective's net's own arrays, then, for scarf
        under missing_learnable alone, one zero vector in the net's dtype,
        whatever the data's dtype."""
        ds = make_numeric_dataset(n=60, d=4)
        monkeypatch.setattr(training, "build_static_validation", lambda *a, **k: None)
        hp = replace(SMALL, corruption_strategy=strategy)
        for dtype in (np.float32, np.float64):
            rng = np.random.default_rng(0)
            bundle = small_bundle(ds, rng, hp, pre)
            if dtype == np.float64:
                to_float64(bundle)
            phase = pretrain_phase(ds, make_splits(60, 0), bundle, hp, rng, pre)
            own = bundle.net(pre).parameters()
            assert all(p is q for p, q in zip(phase.params, own))
            if pre == "scarf" and strategy == "missing_learnable":
                assert len(phase.params) == len(own) + 1
                assert_arrays_equal(phase.params[-1:], [np.zeros(4, dtype)])
            else:
                assert len(phase.params) == len(own)

    def test_fit_steps_the_vector_and_restores_its_best_epoch_value(self):
        """Epoch 2 is the best of four, so `_fit` leaves the vector as the
        metric saw it after epoch 2, though epochs 3 and 4 moved it on."""
        ds = make_numeric_dataset(n=100, d=4, seed=6)
        rng = np.random.default_rng(4)
        hp = replace(LEARNABLE, batch_size=32, pretrain_max_epochs=10, patience=2)
        phase = pretrain_phase(ds, make_splits(100, 3), small_bundle(ds, rng, hp, "scarf"), hp,
                               rng)
        seen, metrics = [], iter([1.0, 0.5, 0.7, 0.6])

        def metric():
            seen.append(phase.params[-1].copy())
            return next(metrics)

        out = _fit(replace(phase, metric=metric), hp, rng)
        assert (out.best_epoch, out.epochs_used, out.stop_reason) == (2, 4, "patience")
        assert np.any(seen[0] != 0.0)
        for later in seen[2:]:
            assert not np.array_equal(later, seen[1])
        assert_arrays_equal(phase.params[-1:], seen[1:2])


class TestFit:
    """The epoch driver every trainer runs on."""

    @pytest.mark.parametrize("trainer", TRAINERS)
    def test_max_epochs_zero(self, trainer):
        ds = make_numeric_dataset(n=100, d=4)
        splits = make_splits(100, 0)
        before = bundle_weights(trainer_bundle(trainer, ds, np.random.default_rng(0)))
        if trainer == "scarf_learnable":  # the vector its phase creates
            before.append(np.zeros(4, np.float32))
        out, weights = run_trainer(trainer, ds, splits, 0, seed=0)
        assert out.epochs_used == 0 and out.stop_reason == "max_epochs"
        assert out.train_curve == [] and out.val_curve == [] and out.best_epoch == 0
        assert_arrays_equal(weights, before)

    @pytest.mark.parametrize("trainer", TRAINERS)
    def test_best_epoch_weights_restored(self, trainer):
        ds = make_numeric_dataset(n=100, d=4, seed=4)
        splits = make_splits(100, 2)
        out, weights = run_trainer(trainer, ds, splits, 200, seed=3)
        assert out.stop_reason == "patience"
        assert len(out.train_curve) == len(out.val_curve) == out.epochs_used
        assert out.val_curve[out.best_epoch - 1] == min(out.val_curve)
        assert out.best_epoch < out.epochs_used  # a later epoch was rolled back
        # the same seeds stopped at the best epoch end on that epoch's weights
        short, best = run_trainer(trainer, ds, splits, out.best_epoch, seed=3)
        assert short.val_curve == out.val_curve[: out.best_epoch]
        assert_arrays_equal(best, weights)


    @pytest.mark.parametrize("fault, message", [
        ("loss", "toy phase diverged at epoch 2: the mean training loss is nan"),
        ("array", "toy phase diverged at epoch 2: stepped array 1 of 2 holds a non-finite value"),
        ("metric", "toy phase diverged at epoch 2: the validation metric is inf"),
    ])
    def test_non_finite_epoch_raises_naming_phase_epoch_and_value(self, fault, message):
        """A diverged phase is an error, not an outcome: the first epoch is
        finite, the second carries one non-finite loss, array or metric."""
        params = [np.zeros(3), np.zeros(2)]
        metrics = iter([1.0, np.inf if fault == "metric" else 0.5])
        steps = []

        def step(rows):
            steps.append(rows)
            late = len(steps) > 2  # two batches of two rows an epoch
            if fault == "array" and late:
                params[1][0] = np.inf  # a zero gradient keeps it so
            return (np.nan if fault == "loss" and late else 1.0), [np.zeros(3), np.zeros(2)]

        with pytest.raises(TrainingDiverged, match=f"^{message}$") as caught:
            _fit(Phase("toy phase", params, np.arange(4), 5, step, lambda: next(metrics)),
                 Hyperparameters(batch_size=2), np.random.default_rng(0))
        assert isinstance(caught.value, ArithmeticError)
        assert len(steps) == 4


# The traced peak of a short default-width scarf pre-training, in units of
# the bytes of the arrays it steps (f and g, 1.28 MiB here). Adam's two
# moments and the one best-epoch snapshot are three of those units. The peak
# read 7.87 while a step ran beside the previous step's tape and gradients,
# the loss's arrays lived through the backward pass and each new best epoch
# copied a snapshot beside the old one; 6.28 once each array died after its
# last read; 5.27 once backward dropped each activation after its last read
# and Adam ran in one scratch buffer and the gradients.
PRETRAIN_PEAK_BOUND = 5.8


class TestPretrainScarf:
    def test_peak_holds_one_step_of_arrays(self):
        ds = make_numeric_dataset(n=400, d=20)
        ds = replace(ds, X=ds.X.astype(np.float32))
        hp = Hyperparameters(pretrain_max_epochs=2)
        bundle = ModelBundle.create(20, 2, np.random.default_rng(0), hp, pre="scarf")
        stepped = sum(p.nbytes for p in bundle.net("scarf").parameters())
        out, peak = traced_peak(pretrain_scarf, ds, make_splits(ds.n, 0), bundle, hp,
                                np.random.default_rng(1))
        assert out.epochs_used == out.best_epoch == 2  # both epochs took a snapshot
        assert peak / stepped < PRETRAIN_PEAK_BOUND

    def test_desk_scale_run_terminates_with_patience(self):
        ds = make_numeric_dataset(n=200, d=6, seed=3)
        splits = make_splits(200, 1)
        rng = np.random.default_rng(2)
        bundle = small_bundle(ds, rng)
        cfg = Hyperparameters(batch_size=32, pretrain_max_epochs=1000)
        out = pretrain_scarf(ds, splits, bundle, cfg, rng)
        assert out.epochs_used < 1000
        assert out.stop_reason == "patience"
        assert out.val_curve[out.best_epoch - 1] == min(out.val_curve)
        # running minimum of the validation curve is non-increasing by construction
        run_min = np.minimum.accumulate(out.val_curve)
        assert all(x >= y for x, y in zip(run_min, run_min[1:]))

    @pytest.mark.parametrize("pretrain_loss, name", [("infonce", "infonce"), ("barlow", "barlow_twins"),
                                                     ("align_uniform", "align_uniform")])
    def test_contrastive_losses_looked_up_in_losses_at_call_time(self, monkeypatch, pretrain_loss,
                                                                  name):
        """The training step calls the loss for its gradients and the
        validation metric for its value alone, each through the one name that
        `losses` binds when called, so a wrapper bound there, as
        perfbench/spans.py binds one to `losses.infonce`, sees both."""
        calls = []

        def counting(*args, _loss=getattr(losses, name), **kwargs):
            result = _loss(*args, **kwargs)
            calls.append((kwargs.get("value_only", False), isinstance(result, tuple)))
            return result

        monkeypatch.setattr(losses, name, counting)
        ds = make_numeric_dataset(n=60, d=4)
        rng = np.random.default_rng(0)
        hp = replace(SMALL, batch_size=16, pretrain_max_epochs=1, val_build_epochs=1,
                     pretrain_loss=pretrain_loss)
        pretrain_scarf(ds, make_splits(ds.n, 0), small_bundle(ds, rng, hp, "scarf"), hp, rng)
        assert set(calls) == {(True, False), (False, True)}, calls

    def test_one_row_validation_split_rejected_before_any_work(self, monkeypatch):
        ds = make_numeric_dataset(n=12, d=4)
        splits = make_splits(12, 0)
        rng = np.random.default_rng(0)
        bundle = small_bundle(ds, rng)
        called = []
        for name in ("build_marginal_pool", "build_static_validation"):
            monkeypatch.setattr(training, name, lambda *a, _name=name, **k: called.append(_name))
        with pytest.raises(ValueError, match="at least 2 validation rows, got 1"):
            pretrain_phase(ds, splits, bundle, Hyperparameters(), rng)
        assert called == []

    @pytest.mark.parametrize("pre, n_train", [("scarf", 1), ("scarf", 0), ("no_noise_ae", 0)])
    def test_training_split_without_a_step_rejected_before_any_work(self, pre, n_train,
                                                                    monkeypatch):
        """Every batch of a one-row split is skipped by scarf, and an empty
        split has no batch, so no epoch would step."""
        ds = make_numeric_dataset(n=12, d=4)
        splits = Splits(np.arange(n_train), np.arange(1, 4), np.arange(4, 12))
        rng = np.random.default_rng(0)
        bundle = small_bundle(ds, rng, pre=pre)
        state = rng.bit_generator.state
        called = []
        for name in ("build_marginal_pool", "build_static_validation"):
            monkeypatch.setattr(training, name, lambda *a, _name=name, **k: called.append(_name))
        need = 2 if pre == "scarf" else 1
        with pytest.raises(ValueError, match=f"^{pre} pre-training needs at least {need} "
                                             f"training rows, got {n_train}$"):
            pretrain_phase(ds, splits, bundle, Hyperparameters(), rng, pre)
        assert called == [] and rng.bit_generator.state == state

    def test_one_row_batches_skip_their_step_and_their_metric(self, monkeypatch):
        """Training and validation splits one row past a multiple of the
        batch size leave a one-row batch in each epoch and in each stored
        validation cycle. A one-row contrastive batch has no negative, so it
        takes no Adam step, has no share in the train loss and no share in the
        validation metric."""
        ds = make_numeric_dataset(n=60, d=4, seed=1)
        hp = replace(SMALL, batch_size=8, pretrain_max_epochs=2, patience=5, val_build_epochs=2)
        splits = Splits(np.arange(25), np.arange(25, 42), np.arange(42, 60))
        rng = np.random.default_rng(0)
        bundle = small_bundle(ds, rng, hp, "scarf")
        built, adam_steps = [], []

        class CountingAdam(nn.Adam):
            def step(self, grads):
                adam_steps.append(1)
                super().step(grads)

        monkeypatch.setattr(training, "Adam", CountingAdam)
        monkeypatch.setattr(training, "build_static_validation",
                            lambda *args: built.append(build_static_validation(*args)) or built[-1])
        phase = pretrain_phase(ds, splits, bundle, hp, rng)
        # (loss, rows) of each step taken; per epoch, those and the Adam steps so far
        stepped, epochs = [], []

        def step(rows):
            if (result := phase.step(rows)) is not None:
                stepped.append((result[0], len(rows)))
            return result

        def metric():
            epochs.append((stepped.copy(), len(adam_steps)))
            stepped.clear()
            return phase.metric()

        out = _fit(replace(phase, step=step, metric=metric), hp, rng)
        assert out.epochs_used == 2
        assert [taken for _, taken in epochs] == [3, 6]  # 4 batches an epoch, the last of one row
        for (losses_and_rows, _), train_loss in zip(epochs, out.train_curve):
            step_losses, step_rows = zip(*losses_and_rows)
            assert step_rows == (8, 8, 8)
            assert train_loss == np.average(step_losses, weights=step_rows)
        pairs = built[0]
        assert [pos.size for pos in pairs.positions] == [8, 8, 1] * hp.val_build_epochs
        z = bundle.embed(pairs.originals)
        kept = [(_contrastive_loss(hp, z[pos], bundle.embed(corr), value_only=True), pos.size)
                for pos, corr in zip(pairs.positions, pairs.corrupted) if pos.size >= 2]
        values, weights = zip(*kept)
        best = out.val_curve[out.best_epoch - 1]
        assert best == pytest.approx(np.average(values, weights=weights), rel=1e-9)

    def test_restored_weights_achieve_best_metric(self):
        ds = make_numeric_dataset(n=150, d=5, seed=4)
        splits = make_splits(150, 2)
        bundle = small_bundle(ds, np.random.default_rng(8))
        cfg = Hyperparameters(batch_size=32, pretrain_max_epochs=20)
        # fresh run generator: the static pairs are drawn from it first, so
        # they can be rebuilt below from an identically seeded generator
        out = pretrain_scarf(ds, splits, bundle, cfg, np.random.default_rng(3))
        # recompute the validation metric with the restored weights
        pool = build_marginal_pool(ds, splits.train)
        rng = np.random.default_rng(3)
        pairs = build_static_validation(ds.X[splits.validation],
                                        view_of("scarf", cfg, pool, rng), rng,
                                        cfg.val_build_epochs, cfg.batch_size)
        from tabpretrain.training import _validation_metric

        best = out.val_curve[out.best_epoch - 1]
        assert _validation_metric(bundle, pairs, cfg, "scarf") == pytest.approx(best)

    def test_deterministic(self):
        ds = make_numeric_dataset(n=120, d=4, seed=5)
        splits = make_splits(120, 7)
        outs = []
        weights = []
        for _ in range(2):
            rng = np.random.default_rng(11)
            bundle = small_bundle(ds, rng)
            out = pretrain_scarf(ds, splits, bundle,
                                 Hyperparameters(batch_size=32, pretrain_max_epochs=5), rng)
            outs.append(out)
            weights.append(bundle_weights(bundle))
        assert outs[0].val_curve == outs[1].val_curve
        for a, b in zip(*weights):
            np.testing.assert_array_equal(a, b)

    def test_missing_learnable_values_get_updates(self):
        ds = make_numeric_dataset(n=100, d=4, seed=6)
        splits = make_splits(100, 3)
        rng = np.random.default_rng(4)
        bundle = small_bundle(ds, rng, LEARNABLE, "scarf")
        cfg = Hyperparameters(batch_size=32, pretrain_max_epochs=3,
                              corruption_strategy="missing_learnable")
        phase = pretrain_phase(ds, splits, bundle, cfg, rng)
        _fit(phase, cfg, rng)
        assert np.any(phase.params[-1] != 0.0)

    def test_metric_reads_the_current_learnable_vector(self, monkeypatch):
        """The stored validation copies used to keep the zeros that the vector
        held when they were drawn, so the metric never read the vector it
        chose the best epoch of. A new vector moves the metric to that of the
        copies whose masked cells hold it."""
        ds = make_numeric_dataset(n=100, d=4, seed=6)
        rng = np.random.default_rng(4)
        bundle = small_bundle(ds, rng, LEARNABLE, "scarf")
        built = []
        monkeypatch.setattr(training, "build_static_validation",
                            lambda *args: built.append(build_static_validation(*args)) or built[-1])
        phase = pretrain_phase(ds, make_splits(100, 3), bundle, LEARNABLE, rng)
        at_zero = phase.metric()
        vector = rng.normal(size=phase.params[-1].shape).astype(phase.params[-1].dtype)
        phase.params[-1][...] = vector
        assert phase.metric() != at_zero
        [pairs] = built
        filled = [np.where(mask, vector, corr) for mask, corr in zip(pairs.masks, pairs.corrupted)]
        filled_pairs = StaticValidationPairs(pairs.originals, pairs.positions, filled, None, [])
        assert phase.metric() == training._validation_metric(bundle, filled_pairs, LEARNABLE, "scarf")

    def test_missing_learnable_gradient_matches_finite_differences(self, monkeypatch):
        """The learnable-vector gradient of the pre-training phase's step, for fixed
        views and a fixed encoded mask, against central differences of the
        contrastive loss: only the masked cells of view_b carry the vector."""
        ds = make_numeric_dataset(n=100, d=4, seed=6)
        splits = make_splits(100, 3)
        rng = np.random.default_rng(4)
        bundle = to_float64(small_bundle(ds, rng, LEARNABLE, "scarf"))
        cfg = Hyperparameters(corruption_strategy="missing_learnable")
        rows = splits.train[:16]
        mask = rng.random((16, ds.X.shape[1])) < 0.5  # one column per feature

        def fixed_views(batch, config, pool, rng):
            return batch.copy(), np.where(mask, pool.learnable, batch), CorruptionDraw(mask, mask)

        monkeypatch.setattr(training, "make_views", fixed_views)
        monkeypatch.setattr(training, "build_static_validation", lambda *a, **k: None)
        phase = pretrain_phase(ds, splits, bundle, cfg, rng)
        lmv = phase.params[-1]
        lmv[:] = rng.normal(size=lmv.shape)
        _, grads = phase.step(rows)

        batch = ds.X[rows]

        def loss():
            view_b = np.where(mask, lmv, batch)
            return _contrastive_loss(cfg, bundle.embed(batch), bundle.embed(view_b))[0]

        assert_grads_close([grads[-1]], central_difference(loss, [lmv]))

    @pytest.mark.parametrize("view_policy", ["corrupt_one", "corrupt_both"])
    def test_missing_learnable_gradient_through_make_views(self, view_policy):
        """The learnable-vector gradient of the scarf step, with the views of
        `make_views` itself, against central differences of the step's loss
        over the same draws. Under corrupt_both the vector fills masked cells
        of both views, and both shares of its gradient count."""
        ds = make_numeric_dataset(n=100, d=4, seed=6)
        rng = np.random.default_rng(4)
        hp = replace(LEARNABLE, corruption_rate=0.5, view_policy=view_policy)
        bundle = to_float64(small_bundle(ds, rng, hp, "scarf"))
        lmv = rng.normal(size=ds.X.shape[1])
        pool = replace(build_marginal_pool(ds, np.arange(100)), learnable=lmv)
        net, batch = bundle.net("scarf"), ds.X[:16]

        def step():
            """Loss and gradients of one step, its views drawn from one fixed seed."""
            rng = np.random.default_rng(9)
            return _objective("scarf", net, hp, pool, rng)[1](batch)

        assert_grads_close([step()[1][-1]], central_difference(lambda: step()[0], [lmv]))

    @pytest.mark.parametrize("loss", ["barlow", "align_uniform"])
    def test_alternative_losses_run(self, loss):
        ds = make_numeric_dataset(n=100, d=4, seed=7)
        splits = make_splits(100, 4)
        rng = np.random.default_rng(5)
        bundle = small_bundle(ds, rng)
        out = pretrain_scarf(ds, splits, bundle,
                             Hyperparameters(batch_size=32, pretrain_max_epochs=3, pretrain_loss=loss),
                             rng)
        assert len(out.val_curve) == out.epochs_used
        assert np.all(np.isfinite(out.val_curve))


def normalize_then_backward(bundle, view_a, view_b, loss_fn):
    """contrastive_step as the plain composition: l2_normalize_rows, then
    l2_normalize_rows_backward from the raw rows, then the full f backward.
    Returns the loss, the f and g gradients and the gradient of the 2B
    stacked input rows."""
    n = len(view_a)
    raw = bundle.heads["g"].forward(bundle.f.forward(np.vstack([view_a, view_b])))
    z = l2_normalize_rows(raw)
    loss, grad_z, grad_zt = loss_fn(z[:n], z[n:])
    grad_raw = l2_normalize_rows_backward(raw, np.vstack([grad_z, grad_zt]))
    g_grads, grad_mid = bundle.heads["g"].backward(grad_raw)
    f_grads, grad_in = bundle.f.backward(grad_mid)
    return loss, f_grads, g_grads, grad_in


def assert_arrays_equal(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
class TestContrastiveStep:
    """The step normalizes once, reuses the norms in its backward pass and
    skips f's first input-gradient GEMM unless asked for it, with the rounding
    of the plain composition."""

    @pytest.mark.parametrize("loss", ["infonce", "barlow", "align_uniform"])
    def test_matches_normalize_then_backward_bit_for_bit(self, dtype, loss, rng):
        ds = make_numeric_dataset(n=40, d=5)
        bundle = small_bundle(ds, rng, pre="scarf")
        if dtype == np.float64:
            to_float64(bundle)
        view_a, view_b = ds.X[:12], ds.X[12:24] + 0.3
        loss_fn = partial(_contrastive_loss, Hyperparameters(pretrain_loss=loss, temperature=0.7))
        want = normalize_then_backward(bundle, view_a, view_b, loss_fn)
        for input_grad in (True, False):
            got = contrastive_step(bundle.net("scarf"), view_a, view_b, loss_fn,
                                   input_grad=input_grad)
            assert got[0] == want[0]
            assert_arrays_equal(got[1], want[1] + want[2])
            if input_grad:
                assert_arrays_equal([got[2]], [want[3]])
            else:
                assert got[2] is None

    @pytest.mark.parametrize("learns", [True, False])
    def test_objective_step_matches_the_composition(self, dtype, learns, rng, monkeypatch):
        """pretrain_scarf's step, with fixed views: the f and g gradients and,
        when the learnable missing-value vector is stepped, its gradient from
        the view_b input rows, which the fixed draw covers."""
        ds = make_numeric_dataset(n=40, d=5)
        ds = replace(ds, X=ds.X.astype(dtype))
        bundle = small_bundle(ds, rng, LEARNABLE, "scarf")
        if dtype == np.float64:
            to_float64(bundle)
        lmv = rng.normal(size=5).astype(dtype)
        mask = rng.random((16, 5)) < 0.5

        def fixed_views(batch, config, pool, rng):
            return batch.copy(), np.where(mask, lmv, batch), CorruptionDraw(mask, mask)

        monkeypatch.setattr(training, "make_views", fixed_views)
        pool = replace(build_marginal_pool(ds, np.arange(20)), learnable=lmv if learns else None)
        _, step = _objective("scarf", bundle.net("scarf"), LEARNABLE, pool, rng)
        batch = ds.X[:16]
        loss, grads = step(batch)
        want_loss, f_grads, g_grads, grad_in = normalize_then_backward(
            bundle, batch, np.where(mask, lmv, batch), partial(_contrastive_loss, LEARNABLE))
        want = f_grads + g_grads
        if learns:
            want.append(np.where(mask, grad_in[len(batch):], 0.0).sum(axis=0))
        assert loss == want_loss
        assert_arrays_equal(grads, want)


def chained_nets(bundle, pre):
    """The nets that objective `pre` chains: f, then each of its heads."""
    return [bundle.f] + [bundle.heads[name] for name in training.OBJECTIVE_HEADS[pre]]


def chain_forward(nets, x):
    for net in nets:
        x = net.forward(x)
    return x


def chain_backward(nets, grad):
    """Each net's backward pass in turn, last net first; the gradients in the
    order of the nets."""
    grads = []
    for net in reversed(nets):
        net_grads, grad = net.backward(grad)
        grads = net_grads + grads
    return grads


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("pre", ["scarf_disc", "no_noise_ae"])
class TestComposedNet:
    """The step and the validation outputs of objective `pre` run `bundle.net(pre)`,
    with the rounding of the plain chain of nets: disc_proj(g(f(x))) or
    decoder(f(x)) forward, then each net's backward pass in turn."""

    @staticmethod
    def bundle_and_data(pre, dtype, n, rng):
        ds = make_numeric_dataset(n=n, d=5, seed=2)
        ds = replace(ds, X=ds.X.astype(dtype))
        bundle = small_bundle(ds, rng, pre=pre)
        if dtype == np.float64:
            to_float64(bundle)
        return bundle, ds, build_marginal_pool(ds, np.arange(n // 2))

    def test_step_matches_the_chained_nets(self, dtype, pre, rng):
        bundle, ds, pool = self.bundle_and_data(pre, dtype, 40, rng)
        batch = ds.X[:16]
        _, step = _objective(pre, bundle.net(pre), SMALL, pool, np.random.default_rng(3))
        loss, grads = step(batch)
        # the objective's copy of the batch, drawn from a twin of the step's rng
        copy, _ = view_of(pre, SMALL, pool, np.random.default_rng(3))(batch)
        nets = chained_nets(bundle, pre)
        if pre == "scarf_disc":
            labels = np.concatenate([np.zeros(len(batch)), np.ones(len(copy))])
            want_loss, grad = losses.binary_logistic(
                chain_forward(nets, np.vstack([batch, copy])), labels)
            grad = grad.reshape(-1, 1)
        else:
            want_loss, grad = mse(chain_forward(nets, copy), batch)
        assert loss == want_loss
        assert_arrays_equal(grads, chain_backward(nets, grad))

    def test_validation_outputs_match_the_chained_nets(self, dtype, pre, rng, monkeypatch):
        """Every net output of the validation metric, over the 300 validation
        rows (two slices) and over each stored copy."""
        bundle, ds, pool = self.bundle_and_data(pre, dtype, 3000, rng)
        splits = make_splits(ds.n, 1)
        hp = Hyperparameters(val_build_epochs=1)
        pairs = build_static_validation(ds.X[splits.validation], view_of(pre, hp, pool, rng),
                                        rng, hp.val_build_epochs, hp.batch_size)
        outputs, in_slices = [], training._in_slices
        monkeypatch.setattr(training, "_in_slices",
                            lambda fn, X: outputs.append((X, in_slices(fn, X))) or outputs[-1][1])
        training._validation_metric(bundle, pairs, hp, pre)
        assert len(outputs) == len(pairs.corrupted) + (pre == "scarf_disc")
        nets = chained_nets(bundle, pre)
        for X, out in outputs:
            assert_arrays_equal([out], [in_slices(partial(chain_forward, nets), X)])


class TestPretrainAutoencoder:
    def test_missing_decoder_rejected(self):
        ds = make_numeric_dataset(n=100, d=4)
        splits = make_splits(100, 0)
        rng = np.random.default_rng(0)
        bundle = small_bundle(ds, rng)
        with pytest.raises(ConfigurationError):
            pretrain_scarf(ds, splits, bundle, Hyperparameters(), rng, "no_noise_ae")

    def test_unknown_variant_rejected(self):
        ds = make_numeric_dataset(n=100, d=4)
        splits = make_splits(100, 0)
        rng = np.random.default_rng(0)
        bundle = small_bundle(ds, rng, pre="no_noise_ae")
        with pytest.raises(ConfigurationError):
            pretrain_scarf(ds, splits, bundle, Hyperparameters(), rng, "typo")

    def test_perfect_parameterization_reconstructs(self):
        # identity weights + positive inputs pass unchanged through relu stacks
        ds = make_numeric_dataset(n=40, d=4, seed=8)
        ds.X[...] = np.abs(ds.X)
        rng = np.random.default_rng(0)
        bundle = ModelBundle.create(4, 2, rng, replace(SMALL, hidden_dim=4, head_layers=2),
                                    "no_noise_ae")
        for net in (bundle.f, bundle.heads["decoder"]):
            for layer in net.layers:
                layer.weights[...] = np.eye(4)
                layer.bias[...] = 0.0
        recon = bundle.heads["decoder"].forward(bundle.f.forward(ds.X))
        assert mse(recon, ds.X)[0] == pytest.approx(0.0, abs=1e-24)

    def test_scarf_corruption_variant_targets_uncorrupted_input(self):
        # with max_epochs=1 and a heavily corrupted input, training loss must be
        # measured against the clean batch: a reconstruction equal to the clean
        # input would give zero loss even though the network input differs
        ds = make_numeric_dataset(n=100, d=4, seed=9)
        splits = make_splits(100, 5)
        rng = np.random.default_rng(1)
        bundle = small_bundle(ds, rng, pre="scarf_ae")
        cfg = Hyperparameters(batch_size=32, pretrain_max_epochs=2, corruption_rate=1.0)
        out = pretrain_scarf(ds, splits, bundle, cfg, rng, "scarf_ae")
        assert np.all(np.isfinite(out.train_curve))

    def test_additive_noise_sigma_default(self):
        ds = make_numeric_dataset(n=200, d=6, seed=10)
        splits = make_splits(200, 6)
        rng = np.random.default_rng(2)
        bundle = small_bundle(ds, rng, pre="add_noise_ae")
        hp = Hyperparameters(batch_size=64, pretrain_max_epochs=5)
        out = pretrain_scarf(ds, splits, bundle, hp, rng, "add_noise_ae")
        assert out.epochs_used >= 1

    def test_training_reduces_reconstruction_loss(self):
        ds = make_numeric_dataset(n=200, d=5, seed=11)
        splits = make_splits(200, 7)
        rng = np.random.default_rng(3)
        bundle = small_bundle(ds, rng, pre="no_noise_ae")
        hp = Hyperparameters(batch_size=32, pretrain_max_epochs=30)
        out = pretrain_scarf(ds, splits, bundle, hp, rng, "no_noise_ae")
        assert out.val_curve[out.best_epoch - 1] < out.val_curve[0]


class TestPretrainDiscriminative:
    def test_requires_projection_head(self):
        ds = make_numeric_dataset(n=100, d=4)
        splits = make_splits(100, 0)
        rng = np.random.default_rng(0)
        bundle = small_bundle(ds, rng)
        with pytest.raises(ConfigurationError):
            pretrain_scarf(ds, splits, bundle, Hyperparameters(), rng, "scarf_disc")

    def test_corruption_none_long_run_error_near_half(self):
        # originals and "corrupted" copies are identical, so the validation
        # error of any threshold rule on the balanced static set is exactly 0.5
        # ... unless the logit lands exactly at 0; with random weights the two
        # classes are indistinguishable
        ds = make_numeric_dataset(n=200, d=6, seed=12)
        splits = make_splits(200, 8)
        rng = np.random.default_rng(4)
        bundle = small_bundle(ds, rng, pre="scarf_disc")
        cfg = Hyperparameters(batch_size=32, pretrain_max_epochs=5, corruption_strategy="none")
        out = pretrain_scarf(ds, splits, bundle, cfg, rng, "scarf_disc")
        assert abs(out.val_curve[out.best_epoch - 1] - 0.5) <= 0.1

    def test_learns_to_discriminate_heavy_corruption(self):
        ds = make_blob_dataset(n=300, d=6, seed=13)
        splits = make_splits(300, 9)
        rng = np.random.default_rng(5)
        bundle = small_bundle(ds, rng, pre="scarf_disc")
        cfg = Hyperparameters(batch_size=64, pretrain_max_epochs=30, corruption_rate=1.0)
        out = pretrain_scarf(ds, splits, bundle, cfg, rng, "scarf_disc")
        assert out.val_curve[out.best_epoch - 1] < 0.5


class TestFinetune:
    def test_separable_blobs_high_accuracy(self):
        ds = make_blob_dataset(n=400, d=8, seed=0)
        splits = make_splits(400, 0)
        rng = np.random.default_rng(0)
        bundle = small_bundle(ds, rng, replace(SMALL, hidden_dim=32))
        finetune(ds, splits, splits.train, bundle, Hyperparameters(batch_size=64), rng)
        assert 1.0 - classification_error(bundle, ds.X[splits.test], ds.y[splits.test]) >= 0.99

    def test_max_epochs_zero_near_chance(self):
        ds = make_blob_dataset(n=300, d=6, seed=1)
        splits = make_splits(300, 1)
        rng = np.random.default_rng(1)
        bundle = small_bundle(ds, rng)
        out = finetune(ds, splits, splits.train, bundle, Hyperparameters(finetune_max_epochs=0), rng)
        assert out.epochs_used == 0
        assert 0.0 <= 1.0 - classification_error(bundle, ds.X[splits.test], ds.y[splits.test]) <= 1.0

    def test_unknown_recipe_rejected(self):
        ds = make_blob_dataset(n=100)
        splits = make_splits(100, 0)
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigurationError, match="unknown fine-tuning recipe 'smoth'"):
            finetune(ds, splits, splits.train, small_bundle(ds, rng), Hyperparameters(), rng,
                     recipe="smoth")

    def test_no_labeled_rows_rejected(self):
        ds = make_blob_dataset(n=100)
        splits = make_splits(100, 0)
        rng = np.random.default_rng(0)
        bundle = small_bundle(ds, rng)
        with pytest.raises(ValueError):
            finetune(ds, splits, np.array([], dtype=int), bundle, Hyperparameters(), rng)

    def test_regularizer_options_run(self):
        ds = make_blob_dataset(n=200, d=4, seed=2)
        splits = make_splits(200, 2)
        for recipe, cfg in (
            ("smooth", Hyperparameters(finetune_max_epochs=3, label_smoothing=0.1)),
            ("dropout", Hyperparameters(finetune_max_epochs=3, dropout=0.04)),
            ("mixup", Hyperparameters(finetune_max_epochs=3, mixup_alpha=0.2)),
            ("scarf_aug", Hyperparameters(finetune_max_epochs=3)),
        ):
            rng = np.random.default_rng(2)
            bundle = small_bundle(ds, rng)
            out = finetune(ds, splits, splits.train, bundle, cfg, rng, recipe=recipe)
            assert np.all(np.isfinite(out.train_curve))

    def test_dropout_masks_every_hidden_layer_of_the_classifier(self, monkeypatch):
        """Dropout follows every layer of f then h but the last: f's output,
        a hidden layer of that net, is masked too. One step, one mask each."""
        ds = make_blob_dataset(n=100, d=4)
        splits = make_splits(100, 0)
        rng = np.random.default_rng(0)
        hp = replace(SMALL, hidden_dim=8, encoder_layers=3, head_layers=2, dropout=0.5,
                     finetune_max_epochs=1, batch_size=128)
        bundle = small_bundle(ds, rng, hp)
        shapes = []
        mask = nn.dropout_mask
        monkeypatch.setattr(nn, "dropout_mask",
                            lambda a, rate, rng: shapes.append(a.shape) or mask(a, rate, rng))
        finetune(ds, splits, splits.train, bundle, hp, rng, recipe="dropout")
        assert len(shapes) == len(bundle.f.layers) + len(bundle.heads["h"].layers) - 1 == 4
        assert shapes == [(len(splits.train), 8)] * 4

    @pytest.mark.parametrize("recipe", ["control", "mixup", "cotrain"])
    def test_one_hot_targets_train_as_the_default(self, recipe):
        """`targets` given as the one-hot rows of `dataset.y` in X's dtype
        give the weights and curves of the default targets bit for bit."""
        ds = make_blob_dataset(n=200, d=4, seed=8)
        ds = replace(ds, X=ds.X.astype(np.float32))
        splits = make_splits(200, 8)
        hp = replace(SMALL, finetune_max_epochs=3, batch_size=64)
        runs = []
        for targets in (None, np.eye(ds.num_classes, dtype=ds.X.dtype)[ds.y]):
            rng = np.random.default_rng(8)
            bundle = small_bundle(ds, rng, recipe=recipe)
            out = finetune(ds, splits, splits.train, bundle, hp, rng, recipe, targets=targets)
            runs.append((bundle_weights(bundle), out))
        (weights, out), (given_weights, given_out) = runs
        for a, b in zip(weights, given_weights, strict=True):
            np.testing.assert_array_equal(a, b)
        assert out == given_out and out.epochs_used == 3

    def test_early_stop_restores_best_validation_error(self):
        ds = make_blob_dataset(n=300, d=5, seed=3)
        splits = make_splits(300, 3)
        rng = np.random.default_rng(3)
        bundle = small_bundle(ds, rng)
        out = finetune(ds, splits, splits.train, bundle, Hyperparameters(batch_size=64), rng)
        err = classification_error(bundle, ds.X[splits.validation], ds.y[splits.validation])
        assert err == pytest.approx(min(out.val_curve))


class TestCotrain:
    def test_zero_weight_first_epoch_matches_plain_finetune(self):
        ds = make_blob_dataset(n=200, d=4, seed=4)
        splits = make_splits(200, 4)
        results = []
        hp = Hyperparameters(finetune_max_epochs=1, batch_size=256, cotrain_weight=0.0)
        for recipe in ("control", "cotrain"):
            rng = np.random.default_rng(9)
            bundle = small_bundle(ds, rng)
            finetune(ds, splits, splits.train, bundle, hp, rng, recipe=recipe)
            results.append(bundle_weights(bundle))
        for a, b in zip(results[0][: len(results[1])], results[1]):
            if a.shape == b.shape:
                np.testing.assert_array_equal(a, b)

    def test_positive_weight_changes_updates(self):
        ds = make_blob_dataset(n=200, d=4, seed=5)
        splits = make_splits(200, 5)
        results = []
        for lam in (0.0, 0.5):
            rng = np.random.default_rng(6)
            bundle = small_bundle(ds, rng)
            out = finetune(ds, splits, splits.train, bundle,
                           Hyperparameters(finetune_max_epochs=1, batch_size=256, cotrain_weight=lam),
                           rng, recipe="cotrain")
            assert np.isfinite(out.train_curve[0])
            results.append(bundle_weights(bundle))
        assert any(not np.array_equal(a, b) for a, b in zip(*results))

    @pytest.mark.parametrize("pretrain_loss, name", [("infonce", "infonce"),
                                                     ("barlow", "barlow_twins"),
                                                     ("align_uniform", "align_uniform")])
    def test_steps_the_pretrain_loss(self, monkeypatch, pretrain_loss, name):
        """Co-training adds the scarf objective with the loss that scarf
        pre-training steps; it used to add InfoNCE whatever `pretrain_loss`."""
        called = []
        for each in ("infonce", "barlow_twins", "align_uniform"):
            def counting(*args, _each=each, _loss=getattr(losses, each), **kwargs):
                called.append(_each)
                return _loss(*args, **kwargs)
            monkeypatch.setattr(losses, each, counting)
        ds = make_blob_dataset(n=100, d=4, seed=6)
        splits = make_splits(100, 6)
        rng = np.random.default_rng(7)
        hp = replace(SMALL, finetune_max_epochs=1, batch_size=32, pretrain_loss=pretrain_loss)
        bundle = small_bundle(ds, rng, hp, recipe="cotrain")
        finetune(ds, splits, splits.train, bundle, hp, rng, recipe="cotrain")
        assert called == [name] * 3  # one a batch of the 70 training rows

    def test_negative_weight_rejected_before_any_work(self, monkeypatch):
        """`Hyperparameters` rejects the weight, so a co-training method
        fails before it pre-trains or builds a pool."""
        ds = make_blob_dataset(n=100, d=4, seed=6)
        splits = make_splits(100, 6)
        monkeypatch.setattr(training, "build_marginal_pool", lambda *a: pytest.fail("pool built"))
        with pytest.raises(ValueError, match="cotrain_weight must be nonnegative"):
            methods.run_method("scarf+cotrain", ds, splits, "full", 7,
                               Hyperparameters(cotrain_weight=-0.1))

    def test_ae_cotrain_requires_decoder(self):
        ds = make_blob_dataset(n=100, d=4, seed=6)
        splits = make_splits(100, 6)
        rng = np.random.default_rng(7)
        bundle = small_bundle(ds, rng)
        with pytest.raises(ConfigurationError,
                           match="the add_noise_ae objective needs the bundle's decoder"):
            finetune(ds, splits, splits.train, bundle,
                     Hyperparameters(finetune_max_epochs=1, cotrain_weight=0.1), rng,
                     recipe="ae_cotrain")


# every kind of phase step `_fit` takes: (pre-trainer, or None to fine-tune; Hyperparameters
# fields over SMALL; recipe)
STEP_KINDS = ([(pre, {}, "control") for pre in PRETRAINERS]
              + [("scarf", fields, "control") for fields in (
                  {"view_policy": "corrupt_both"},
                  {"corruption_strategy": "missing_learnable"},
                  {"corruption_strategy": "missing_learnable", "view_policy": "corrupt_both"},
                  {"pretrain_loss": "barlow"},
                  {"pretrain_loss": "align_uniform"})]
              + [(None, {}, recipe) for recipe in FINETUNE_RECIPES])


@pytest.mark.parametrize("pre, fields, recipe", STEP_KINDS,
                         ids=["-".join([pre or recipe, *fields.values()])
                              for pre, fields, recipe in STEP_KINDS])
def test_step_gradients_match_finite_differences(pre, fields, recipe):
    """The step of the phase that `pretrain_phase` or `finetune_phase`
    builds: its gradients of the phase's `params` against central
    differences of its loss, with the run rng's state restored before every
    call so that the corruption, noise, dropout and mixup draws repeat. Width
    16 keeps every embedding row off zero, where the l2 normalization has no
    gradient."""
    ds = make_numeric_dataset(n=40, d=4, seed=3)
    splits = make_splits(40, 3)
    rng = np.random.default_rng(5)
    hp = replace(SMALL, **fields)
    bundle = to_float64(small_bundle(ds, rng, hp, pre, recipe))
    if pre is None:
        phase = finetune_phase(ds, splits, splits.train, bundle, hp, rng, recipe)
    else:
        phase = pretrain_phase(ds, splits, bundle, hp, rng, pre)
    if hp.corruption_strategy == "missing_learnable":
        phase.params[-1][:] = rng.normal(size=phase.params[-1].shape)
    rows, state = splits.train[:6], rng.bit_generator.state

    def call():
        rng.bit_generator.state = state
        return phase.step(rows)

    grads = call()[1]
    assert len(grads) == len(phase.params)
    assert_grads_close(grads, central_difference(lambda: call()[0], phase.params))


@pytest.mark.parametrize("pre, recipe", [("scarf", "control"), ("no_noise_ae", "control"),
                                         (None, "control"), (None, "cotrain")])
def test_trainer_is_fit_of_its_phase(pre, recipe):
    """`pretrain_scarf` and `finetune` against `_fit` of `pretrain_phase` and
    `finetune_phase`, from equal rng states: bit-identical weights, outcomes
    and final rng states. scarf and cotrain draw a marginal pool and static
    or per-batch views; no_noise_ae and control draw none."""
    ds = make_numeric_dataset(n=60, d=4, seed=2)
    splits = make_splits(ds.n, 4)
    hp = replace(SMALL, batch_size=16, pretrain_max_epochs=3, finetune_max_epochs=3,
                 val_build_epochs=2)
    runs = []
    for through_phase in (False, True):
        rng = np.random.default_rng(9)
        bundle = small_bundle(ds, rng, hp, pre, recipe)
        if pre is None:
            trainer, builder = finetune, finetune_phase
            args = (ds, splits, splits.train[:24], bundle, hp, rng, recipe)
        else:
            trainer, builder = pretrain_scarf, pretrain_phase
            args = (ds, splits, bundle, hp, rng, pre)
        out = _fit(builder(*args), hp, rng) if through_phase else trainer(*args)
        runs.append((out, bundle_weights(bundle), rng.bit_generator.state))
    (out, weights, state), (phase_out, phase_weights, phase_state) = runs
    assert out.epochs_used >= 1
    assert phase_out == out and phase_state == state
    for a, b in zip(weights, phase_weights, strict=True):
        np.testing.assert_array_equal(a, b)
