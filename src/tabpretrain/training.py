"""Training loops: contrastive pre-training with early stopping on a static
corrupted validation set, autoencoder and discriminative variants, supervised
fine-tuning, and co-training.

Every trainer is its set-up plus two closures handed to `_fit`, the one epoch
driver: a per-batch step returning the loss and the gradients for one Adam
step, and a per-epoch validation metric. `_fit` owns the shuffling, the
train/validation curves, early stopping and the best-epoch restore of the
arrays it steps. The two contrastive views go through the encoder as one
stacked 2B-row forward and backward pass (`ModelBundle.contrastive_step`),
shared by SCARF pre-training and the contrastive co-training term.

Every forward pass that is never backpropagated (embedding, prediction and
the validation metrics) runs in slices of at most `INFERENCE_ROWS` rows, so it
keeps at most that many rows of activations for the backward pass that
`Mlp.forward` records. The static validation set stores each validation row
once: the metrics run the nets over it once per epoch and gather each stored
batch by position, and only the corrupted copies go through the nets batch by
batch.

Every trainer reads one frozen `Hyperparameters`, the single declaration of
the trial hyperparameters and their defaults. `finetune` maps its `recipe` to
the one regularizer it turns on: `smooth` to `label_smoothing`, `dropout` to
`dropout`, `mixup` to `mixup_alpha`, `scarf_aug` to per-batch corruption under
`corruption`, and `cotrain`/`ae_cotrain` to `cotrain_weight` times the
contrastive or reconstruction term; `control` turns on none.

All loops are deterministic given (dataset, splits, hyperparameters, seed):
the run RNG drives shuffling, corruption, and any dropout/mixup draws in a
fixed order. The nets compute in the dtype of the bundle's weights (float32
from `ModelBundle.create`); data of another dtype is cast on the way in.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from tabpretrain import losses
from tabpretrain.baselines import mixup_batch
from tabpretrain.corruption import (
    ConfigurationError,
    CorruptionConfig,
    MarginalPool,
    build_marginal_pool,
    corrupt_batch,
    make_views,
    select_indices,
)
from tabpretrain.data import ProcessedDataset, Splits
from tabpretrain.nn import (
    Adam,
    Mlp,
    l2_normalize_rows,
    l2_normalize_rows_backward,
    mse,
    smooth_labels,
    softmax_cross_entropy,
)

HIDDEN_DIM = 256
# Rows per forward pass of inference: a default contrastive step already
# keeps a 2 x 128-row tape for its backward pass.
INFERENCE_ROWS = 256


def _in_slices(fn, X: np.ndarray) -> np.ndarray:
    """fn over X in row slices of at most INFERENCE_ROWS rows, stacked.

    The slices are of equal size up to one row, so a slice of one row (which
    numpy sends to a matrix-vector product with a different summation order)
    only occurs when X has one row."""
    n = len(X)
    if n <= INFERENCE_ROWS:
        return fn(X)
    return np.concatenate([fn(part) for part in np.array_split(X, -(-n // INFERENCE_ROWS))])


@dataclass(frozen=True)
class Hyperparameters:
    """Every trial hyperparameter and its default, declared once: the trainers
    read it, `methods.run_method` builds it from a dict of overrides, and each
    field is a CLI config key and `run` flag. An invalid corruption setting
    raises ConfigurationError when one is built."""

    # corruption, one CorruptionConfig for pre-training, scarf_aug and cotrain
    corruption_strategy: str = CorruptionConfig.strategy
    corruption_rate: float = CorruptionConfig.rate
    index_selection: str = CorruptionConfig.index_selection
    view_policy: str = CorruptionConfig.view_policy
    index_sharing: str = CorruptionConfig.index_sharing
    donor: str = CorruptionConfig.donor
    gaussian_sigma: float = CorruptionConfig.gaussian_sigma
    unique_pool: bool = CorruptionConfig.unique_pool
    # optimisation, for pre-training and fine-tuning alike
    batch_size: int = 128
    learning_rate: float = 0.001
    patience: int = 3
    pretrain_max_epochs: int = 1000
    finetune_max_epochs: int = 200
    # pre-training objective
    temperature: float = 1.0
    val_build_epochs: int = 10
    pretrain_loss: str = "infonce"  # infonce | barlow | align_uniform
    validation_metric: str = "infonce_loss"  # infonce_loss | infonce_error
    # fine-tuning recipes
    label_smoothing: float = 0.1
    dropout: float = 0.04
    mixup_alpha: float = 0.2
    cotrain_weight: float = 0.1
    self_train_threshold: float = 0.75
    self_train_iterations: int = 10
    # architecture
    hidden_dim: int = HIDDEN_DIM
    encoder_layers: int = 4
    head_layers: int = 2
    # settings
    noise_rate: float = 0.3
    labeled_fraction: float = 0.25

    def __post_init__(self):
        self.corruption  # built once here, so an invalid setting raises now

    @cached_property
    def corruption(self) -> CorruptionConfig:
        return CorruptionConfig(
            strategy=self.corruption_strategy, rate=self.corruption_rate,
            index_selection=self.index_selection, view_policy=self.view_policy,
            index_sharing=self.index_sharing, donor=self.donor,
            gaussian_sigma=self.gaussian_sigma, unique_pool=self.unique_pool)


@dataclass
class TrainOutcome:
    train_curve: list[float]
    val_curve: list[float]
    epochs_used: int
    stop_reason: str  # "patience" | "max_epochs"
    best_epoch: int  # 1-based; 0 when no epoch ran
    best_metric: float


class ModelBundle:
    """Encoder f (4 layers), contrastive head g (2 layers, l2-normalized
    output), classification head h (2 layers), plus optional decoder /
    discriminator-projection heads and the learnable missing-value vector."""

    def __init__(self, f: Mlp, g: Mlp, h: Mlp, decoder: Mlp | None = None,
                 disc_proj: Mlp | None = None, learnable_missing: np.ndarray | None = None):
        self.f = f
        self.g = g
        self.h = h
        self.decoder = decoder
        self.disc_proj = disc_proj
        self.learnable_missing = learnable_missing

    @classmethod
    def create(
        cls,
        input_dim: int,
        num_classes: int,
        rng: np.random.Generator,
        hidden: int = HIDDEN_DIM,
        with_decoder: bool = False,
        with_disc_proj: bool = False,
        with_learnable_missing: bool = False,
        encoder_layers: int = 4,
        head_layers: int = 2,
    ) -> "ModelBundle":
        f = Mlp.create([input_dim] + [hidden] * encoder_layers, rng, final_activation="relu")
        g = Mlp.create([hidden] * head_layers + [hidden], rng)
        h = Mlp.create([hidden] * head_layers + [num_classes], rng)
        decoder = Mlp.create([hidden] * head_layers + [input_dim], rng) if with_decoder else None
        disc_proj = Mlp.create([hidden, 1], rng) if with_disc_proj else None
        lmv = np.zeros(input_dim, dtype=f.dtype) if with_learnable_missing else None
        return cls(f, g, h, decoder, disc_proj, lmv)

    def embed(self, X: np.ndarray) -> np.ndarray:
        """z = normalize(g(f(X))), computed in slices of INFERENCE_ROWS rows."""
        return _in_slices(lambda b: l2_normalize_rows(self.g.forward(self.f.forward(b))), X)

    def contrastive_step(self, view_a: np.ndarray, view_b: np.ndarray, loss_fn):
        """Embed both views as one stacked 2B-row forward and backward pass.

        `loss_fn(z, zt)` returns the loss and its gradients w.r.t. the two
        normalized embeddings. Returns the loss, the f and g gradients (summed
        over both views), and the gradient w.r.t. the view_b input rows."""
        n = view_a.shape[0]
        raw = self.g.forward(self.f.forward(np.vstack([view_a, view_b])))
        z = l2_normalize_rows(raw)
        loss, grad_z, grad_zt = loss_fn(z[:n], z[n:])
        grad_raw = l2_normalize_rows_backward(raw, np.vstack([grad_z, grad_zt]))
        g_grads, grad_mid = self.g.backward(grad_raw)
        f_grads, grad_in = self.f.backward(grad_mid)
        return loss, f_grads, g_grads, grad_in[n:]

    def reconstruction_step(self, x_in: np.ndarray, target: np.ndarray):
        """MSE of decoder(f(x_in)) against target; loss, f and decoder gradients."""
        loss, grad = mse(self.decoder.forward(self.f.forward(x_in)), target)
        d_grads, grad_mid = self.decoder.backward(grad)
        f_grads, _ = self.f.backward(grad_mid)
        return loss, f_grads, d_grads

    def classify(self, batch: np.ndarray, dropout: float = 0.0,
                 rng: np.random.Generator | None = None) -> np.ndarray:
        """Logits h(f(batch)) of a fine-tuning step; `classify_backward` uses
        the activations this forward pass keeps."""
        return self.h.forward(self.f.forward(batch, dropout, rng), dropout, rng)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Logits h(f(X)) without dropout, computed in slices of
        INFERENCE_ROWS rows."""
        return _in_slices(self.classify, X)

    def classify_backward(self, grad_logits: np.ndarray) -> tuple[list, list]:
        h_grads, grad_mid = self.h.backward(grad_logits)
        f_grads, _ = self.f.backward(grad_mid)
        return f_grads, h_grads


class EarlyStopper:
    """Stops after `patience` consecutive epochs without strict improvement."""

    def __init__(self, patience: int):
        if patience < 1:
            raise ValueError("patience must be at least 1")
        self.patience = patience
        self.best = np.inf
        self.best_epoch = 0
        self._bad = 0

    def update(self, metric: float, epoch: int) -> bool:
        if metric < self.best:
            self.best = metric
            self.best_epoch = epoch
            self._bad = 0
        else:
            self._bad += 1
        return self._bad >= self.patience


def iterate_batches(n: int, batch_size: int, rng: np.random.Generator):
    perm = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield perm[start : start + batch_size]


@dataclass
class StaticValidationPairs:
    """The static validation set. `originals` holds the validation rows once,
    in split order; stored batch k is the rows `originals[positions[k]]` and
    their corrupted copies `corrupted[k]`."""

    originals: np.ndarray
    positions: list[np.ndarray]
    corrupted: list[np.ndarray]


def build_static_validation(
    dataset: ProcessedDataset,
    val_indices: np.ndarray,
    config: CorruptionConfig,
    pool: MarginalPool,
    rng: np.random.Generator,
    epochs: int = 10,
    batch_size: int = 128,
    learnable_values: np.ndarray | None = None,
    view=None,
) -> StaticValidationPairs:
    """Cycle the validation split `epochs` times, storing one corrupted view
    per example per pass. Built once; immutable during training.

    `view(batch)` returns the corrupted copy of a batch; by default it is the
    second view of `make_views` under `config`."""
    val_indices = np.asarray(val_indices)
    if val_indices.size == 0:
        raise ValueError("validation split is empty")
    if view is None:
        def view(batch):
            return make_views(batch, dataset, config, pool, rng, learnable_values)[1]
    originals = dataset.X[val_indices]
    positions, corrupted = [], []
    for _ in range(epochs):
        for batch_idx in iterate_batches(len(val_indices), batch_size, rng):
            positions.append(batch_idx)
            corrupted.append(view(originals[batch_idx]))
    return StaticValidationPairs(originals, positions, corrupted)


def _fit(params: list[np.ndarray], rows: np.ndarray, hp: Hyperparameters, max_epochs: int,
         rng: np.random.Generator, step, metric) -> TrainOutcome:
    """The epoch loop shared by every trainer.

    Each of at most `max_epochs` epochs shuffles `rows` (dataset row indices)
    into batches of `hp.batch_size`; `step(batch_rows)` returns (loss,
    gradients of `params`) for one Adam step, or None to skip the batch. After
    the epoch, `metric()` is the validation value (lower is better) that
    drives early stopping with `hp.patience`. `params`, the only arrays a step
    changes, are copied at each new best epoch (and before the first) and
    restored from the last copy in place."""
    opt = Adam(params, learning_rate=hp.learning_rate)
    stopper = EarlyStopper(hp.patience)
    train_curve, val_curve = [], []
    best = [p.copy() for p in params]
    stop_reason = "max_epochs"
    for epoch in range(1, max_epochs + 1):
        epoch_losses, epoch_sizes = [], []
        for sel in iterate_batches(len(rows), hp.batch_size, rng):
            result = step(rows[sel])
            if result is None:
                continue
            loss, grads = result
            opt.step(grads)
            epoch_losses.append(loss)
            epoch_sizes.append(sel.size)
        train_curve.append(float(np.average(epoch_losses, weights=epoch_sizes)) if epoch_losses else np.nan)
        value = metric()
        val_curve.append(value)
        stop = stopper.update(value, epoch)
        if stopper.best_epoch == epoch:
            best = [p.copy() for p in params]
        if stop:
            stop_reason = "patience"
            break
    for p, b in zip(params, best):
        p[...] = b
    return TrainOutcome(train_curve, val_curve, len(val_curve), stop_reason,
                        stopper.best_epoch, stopper.best)


def _infonce_pair(z: np.ndarray, zt: np.ndarray, temperature: float):
    s = z @ zt.T  # rows already unit-norm
    loss, grad_s = losses.infonce(s, temperature)
    return loss, grad_s @ zt, grad_s.T @ z


def _contrastive_loss(hp: Hyperparameters, z: np.ndarray, zt: np.ndarray):
    """Loss value and gradients w.r.t. the normalized embeddings."""
    if hp.pretrain_loss == "infonce":
        return _infonce_pair(z, zt, hp.temperature)
    if hp.pretrain_loss == "barlow":
        return losses.barlow_twins(z, zt, 5e-3)  # the off-diagonal weight of Barlow Twins
    if hp.pretrain_loss == "align_uniform":
        return losses.align_uniform(z, zt, 1.0, 1.0)
    raise ConfigurationError(f"unknown pre-training loss {hp.pretrain_loss!r}")


def _validation_metric(bundle: ModelBundle, pairs: StaticValidationPairs, hp: Hyperparameters) -> float:
    """The contrastive metric of the static pairs, averaged over the stored
    batches of at least two rows (weighted by size). The loss metric is the
    pre-training loss; InfoNCE takes its value alone, without gradients."""
    z_all = bundle.embed(pairs.originals)
    vals, weights = [], []
    for pos, corr in zip(pairs.positions, pairs.corrupted):
        if pos.size < 2:
            continue
        z = z_all[pos]
        zt = bundle.embed(corr)
        if hp.validation_metric == "infonce_error":
            vals.append(losses.infonce_error(z @ zt.T))
        elif hp.pretrain_loss == "infonce":
            vals.append(losses.infonce(z @ zt.T, hp.temperature)[0])
        else:
            vals.append(_contrastive_loss(hp, z, zt)[0])
        weights.append(pos.size)
    return float(np.average(vals, weights=weights))


def _require_batch_pairs(hp: Hyperparameters) -> None:
    """A pre-trainer's first check: its batches pair rows with other rows."""
    if hp.batch_size < 2:
        raise ValueError("contrastive batches need at least 2 examples")


def pretrain_scarf(
    dataset: ProcessedDataset,
    splits: Splits,
    bundle: ModelBundle,
    hp: Hyperparameters,
    rng: np.random.Generator,
) -> TrainOutcome:
    """Contrastive pre-training of f and g; labels are never read.

    Per mini-batch: generate views, embed both through normalize(g(f(.))),
    take one Adam step. After each epoch the metric on the static validation
    pairs decides early stopping; best-epoch weights are restored."""
    _require_batch_pairs(hp)
    if (n_val := len(splits.validation)) < 2:
        raise ValueError(f"contrastive validation needs at least 2 validation rows, got {n_val}")
    pool = build_marginal_pool(dataset, splits.train)
    learnable = bundle.learnable_missing if hp.corruption_strategy == "missing_learnable" else None
    if hp.corruption_strategy == "missing_learnable" and learnable is None:
        raise ConfigurationError("bundle lacks learnable missing values")
    pairs = build_static_validation(
        dataset, splits.validation, hp.corruption, pool, rng,
        hp.val_build_epochs, hp.batch_size, learnable,
    )
    params = bundle.f.parameters() + bundle.g.parameters()
    if learnable is not None:
        params = params + [learnable]
    loss_fn = partial(_contrastive_loss, hp)

    def step(rows):
        if rows.size < 2:
            return None  # InfoNCE needs a negative
        batch = dataset.X[rows]
        view_a, view_b, draw = make_views(batch, dataset, hp.corruption, pool, rng, learnable)
        loss, f_grads, g_grads, grad_in_b = bundle.contrastive_step(view_a, view_b, loss_fn)
        grads = f_grads + g_grads
        if learnable is not None:
            grads.append(np.where(draw.encoded_mask, grad_in_b, 0.0).sum(axis=0))
        return loss, grads

    return _fit(params, np.asarray(splits.train), hp, hp.pretrain_max_epochs, rng, step,
                lambda: _validation_metric(bundle, pairs, hp))


AUTOENCODERS = ("scarf_ae", "add_noise_ae", "no_noise_ae")


def _ae_input(batch, variant, dataset, config, pool, rng):
    """Encoder input: the batch, the batch plus N(0, 0.5^2) noise, or its SCARF view."""
    if variant == "no_noise_ae":
        return np.array(batch, copy=True)
    if variant == "add_noise_ae":
        return batch + rng.normal(0.0, 0.5, size=batch.shape).astype(batch.dtype)
    _, view_b, _ = make_views(batch, dataset, config, pool, rng)
    return view_b


def pretrain_autoencoder(
    dataset: ProcessedDataset,
    splits: Splits,
    bundle: ModelBundle,
    variant: str,
    hp: Hyperparameters,
    rng: np.random.Generator,
) -> TrainOutcome:
    """Reconstruction pre-training: decoder(f(x_in)) vs the uncorrupted input,
    MSE loss, early stopping on static validation reconstruction loss. The
    variant is one of the AUTOENCODERS method names."""
    _require_batch_pairs(hp)
    if variant not in AUTOENCODERS:
        raise ConfigurationError(f"unknown autoencoder variant {variant!r}")
    if bundle.decoder is None:
        raise ConfigurationError("autoencoder pre-training requires a decoder head")
    pool = build_marginal_pool(dataset, splits.train)

    def view(batch):
        return _ae_input(batch, variant, dataset, hp.corruption, pool, rng)

    pairs = build_static_validation(
        dataset, splits.validation, hp.corruption, pool, rng,
        hp.val_build_epochs, hp.batch_size, view=view,
    )

    def step(rows):
        batch = dataset.X[rows]
        loss, f_grads, d_grads = bundle.reconstruction_step(view(batch), batch)
        return loss, f_grads + d_grads

    return _fit(bundle.f.parameters() + bundle.decoder.parameters(),
                np.asarray(splits.train), hp, hp.pretrain_max_epochs, rng, step,
                lambda: _reconstruction_metric(bundle, pairs))


def _reconstruction_metric(bundle: ModelBundle, pairs: StaticValidationPairs) -> float:
    """MSE of decoder(f(corrupted copy)) against the original rows, averaged
    over the stored batches weighted by size."""
    def reconstruct(x):
        return bundle.decoder.forward(bundle.f.forward(x))

    vals = [mse(_in_slices(reconstruct, corr), pairs.originals[pos])[0]
            for pos, corr in zip(pairs.positions, pairs.corrupted)]
    return float(np.average(vals, weights=[pos.size for pos in pairs.positions]))


def pretrain_discriminative(
    dataset: ProcessedDataset,
    splits: Splits,
    bundle: ModelBundle,
    hp: Hyperparameters,
    rng: np.random.Generator,
) -> TrainOutcome:
    """Original-vs-corrupted discrimination through a final scalar projection
    on g; binary logistic loss, validation metric is classification error at
    logit 0 on the static pairs."""
    _require_batch_pairs(hp)
    if bundle.disc_proj is None:
        raise ConfigurationError("discriminative pre-training requires the scalar projection head")
    pool = build_marginal_pool(dataset, splits.train)
    pairs = build_static_validation(
        dataset, splits.validation, hp.corruption, pool, rng,
        hp.val_build_epochs, hp.batch_size,
    )
    params = bundle.f.parameters() + bundle.g.parameters() + bundle.disc_proj.parameters()

    def step(rows):
        batch = dataset.X[rows]
        _, view_b, _ = make_views(batch, dataset, hp.corruption, pool, rng)
        labels = np.concatenate([np.zeros(len(batch)), np.ones(len(view_b))])
        loss, grad = losses.binary_logistic(_disc_logits(bundle, np.vstack([batch, view_b])), labels)
        p_grads, grad_mid = bundle.disc_proj.backward(grad.reshape(-1, 1))
        g_grads, grad_mid = bundle.g.backward(grad_mid)
        f_grads, _ = bundle.f.backward(grad_mid)
        return loss, f_grads + g_grads + p_grads

    return _fit(params, np.asarray(splits.train), hp, hp.pretrain_max_epochs, rng, step,
                lambda: _discrimination_metric(bundle, pairs))


def _disc_logits(bundle: ModelBundle, x: np.ndarray) -> np.ndarray:
    """Logit that a row is a corrupted copy: disc_proj(g(f(x)))."""
    return bundle.disc_proj.forward(bundle.g.forward(bundle.f.forward(x)))


def _discrimination_metric(bundle: ModelBundle, pairs: StaticValidationPairs) -> float:
    """Error of the rule "logit > 0 means corrupted" on each stored batch and
    its corrupted copy, averaged over the batches weighted by size."""
    def logits(x):
        return _in_slices(partial(_disc_logits, bundle), x).reshape(-1)

    orig_logits = logits(pairs.originals)
    errs, sizes = [], []
    for pos, corr in zip(pairs.positions, pairs.corrupted):
        logit = np.concatenate([orig_logits[pos], logits(corr)])
        labels = np.concatenate([np.zeros(pos.size), np.ones(len(corr))])
        errs.append(float(np.mean((logit > 0) != labels)))
        sizes.append(len(labels))
    return float(np.average(errs, weights=sizes))


def classification_error(bundle: ModelBundle, X: np.ndarray, y: np.ndarray) -> float:
    return float(np.mean(bundle.predict(X).argmax(axis=1) != y))


# the recipes that `finetune` trains itself (the pseudo-labeling ones call it)
FINETUNE_RECIPES = ("control", "smooth", "dropout", "mixup", "scarf_aug", "cotrain", "ae_cotrain")


def finetune(
    dataset: ProcessedDataset,
    splits: Splits,
    labeled_indices: np.ndarray,
    bundle: ModelBundle,
    hp: Hyperparameters,
    rng: np.random.Generator,
    recipe: str = "control",
    soft_targets: np.ndarray | None = None,
) -> TrainOutcome:
    """Supervised training of f and h with cross-entropy on the labels
    `dataset.y` of the labeled rows, early stopping on validation
    classification error, best weights restored; the test split is not read.

    `recipe` turns on one regularizer, as the module docstring maps them;
    the others are off. A smoothing, dropout or mixup alpha of 0 trains as
    `control` does, with no extra draw.

    soft_targets, when given, is an (n, K) matrix of target distributions
    indexed by dataset row and overrides hard labels."""
    if recipe not in FINETUNE_RECIPES:
        raise ConfigurationError(f"unknown fine-tuning recipe {recipe!r}")
    aux = {"cotrain": "contrastive", "ae_cotrain": "autoencoder"}.get(recipe)
    if aux is not None and hp.cotrain_weight < 0:
        raise ValueError("co-training weight must be nonnegative")
    labeled_indices = np.asarray(labeled_indices)
    if labeled_indices.size == 0:
        raise ValueError("no labeled training rows")
    K = dataset.num_classes
    smoothing = hp.label_smoothing if recipe == "smooth" else 0.0
    dropout = hp.dropout if recipe == "dropout" else 0.0
    alpha = hp.mixup_alpha if recipe == "mixup" else 0.0

    pool = None
    if recipe == "scarf_aug" or aux is not None:
        pool = build_marginal_pool(dataset, splits.train)
    params = bundle.f.parameters() + bundle.h.parameters()
    if aux == "contrastive":
        params = params + bundle.g.parameters()
    if aux == "autoencoder":
        if bundle.decoder is None:
            raise ConfigurationError("autoencoder co-training requires a decoder head")
        params = params + bundle.decoder.parameters()

    def step(rows):
        x = dataset.X[rows]
        if soft_targets is not None:
            targets = soft_targets[rows]
        else:
            targets = np.eye(K, dtype=x.dtype)[dataset.y[rows]]
            if smoothing:
                targets = smooth_labels(targets, smoothing, K)
        if alpha:
            x, targets = mixup_batch(x, targets, alpha, rng)
        if recipe == "scarf_aug":
            draw = select_indices(dataset.M, hp.corruption, len(x), rng)
            x, _ = corrupt_batch(x, dataset, hp.corruption, pool, draw, rng)
        loss, grad = softmax_cross_entropy(bundle.classify(x, dropout, rng), targets)
        f_grads, h_grads = bundle.classify_backward(grad)
        if aux is None:
            return loss, f_grads + h_grads
        w = hp.cotrain_weight
        aux_loss, aux_f, aux_extra = _cotrain_term(bundle, x, dataset, pool, rng, hp, aux)
        f_grads = [g + w * a for g, a in zip(f_grads, aux_f)]
        return loss + w * aux_loss, f_grads + h_grads + [w * g for g in aux_extra]

    val_X = dataset.X[splits.validation]
    val_y = dataset.y[splits.validation]
    return _fit(params, labeled_indices, hp, hp.finetune_max_epochs, rng, step,
                lambda: classification_error(bundle, val_X, val_y))


def _cotrain_term(bundle, x, dataset, pool, rng, hp: Hyperparameters, aux: str):
    """The auxiliary term of co-training on the supervised mini-batch: InfoNCE
    between two views corrupted under `hp.corruption` (aux "contrastive"), or
    reconstruction of the batch from an additive-noise copy, sigma 0.5 (aux
    "autoencoder"). Returns its loss plus its gradients for f and for the
    auxiliary head (g or the decoder)."""
    if aux == "contrastive":
        if x.shape[0] < 2:
            return (0.0, [np.zeros_like(p) for p in bundle.f.parameters()],
                    [np.zeros_like(p) for p in bundle.g.parameters()])
        view_a, view_b, _ = make_views(x, dataset, hp.corruption, pool, rng)
        loss, f_grads, g_grads, _ = bundle.contrastive_step(
            view_a, view_b, partial(_infonce_pair, temperature=hp.temperature))
        return loss, f_grads, g_grads
    x_in = _ae_input(x, "add_noise_ae", dataset, hp.corruption, pool, rng)
    return bundle.reconstruction_step(x_in, x)
