"""Training loops: pre-training with early stopping on a static corrupted
validation set (SCARF and its autoencoder and discriminative alternatives),
supervised fine-tuning, and co-training.

Every trainer is its set-up plus two closures handed to `_fit`, the one epoch
driver: a per-batch step returning the loss and the gradients for one Adam
step, and a per-epoch validation metric. `_fit` owns the shuffling, the
train/validation curves, early stopping and the best-epoch restore of the
arrays it steps. The two contrastive views go through the encoder as one
stacked 2B-row forward and backward pass (`ModelBundle.contrastive_step`).

Every forward pass that is never backpropagated (embedding, prediction and
the validation metrics) runs in slices of at most `INFERENCE_ROWS` rows, so it
keeps at most that many rows of activations for the backward pass that
`Mlp.forward` records. The static validation set stores each validation row
once: the metrics run the nets over it once per epoch and gather each stored
batch by position, and only the corrupted copies go through the nets batch by
batch.

Every trainer reads one frozen `Hyperparameters`, the single declaration of
the trial hyperparameters and their defaults. `_objective` defines each
pre-training objective once, and `pretrain_scarf(..., pre)` trains one:
`scarf` is the loss `pretrain_loss` between the two views of `make_views`;
`no_noise_ae`, `add_noise_ae` and `scarf_ae` are MSE reconstruction of the
batch from itself, from the batch plus N(0, 0.5^2) noise or from its SCARF
view; `scarf_disc` is the logistic loss of telling the batch from its SCARF
view. `finetune` maps its `recipe` to the one regularizer it turns on:
`smooth` to `label_smoothing`, `dropout` to `dropout`, `mixup` to
`mixup_alpha`, `scarf_aug` to per-batch corruption under `corruption`, and
`cotrain`/`ae_cotrain` to `cotrain_weight` times the `scarf` (InfoNCE at
`temperature`) or `add_noise_ae` objective; `control` turns on none. A
bundle's heads follow from the method (`ModelBundle.create`).

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
    field is a CLI config key and `run` flag. An invalid corruption setting,
    an unknown `pretrain_loss` or `validation_metric` and a negative
    `cotrain_weight` raise ConfigurationError when one is built."""

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
    hidden_dim: int = 256
    encoder_layers: int = 4
    head_layers: int = 2
    # settings
    noise_rate: float = 0.3
    labeled_fraction: float = 0.25

    def __post_init__(self):
        self.corruption  # built once here, so an invalid setting raises now
        if self.pretrain_loss not in ("infonce", "barlow", "align_uniform"):
            raise ConfigurationError(f"unknown pretrain_loss {self.pretrain_loss!r}")
        if self.validation_metric not in ("infonce_loss", "infonce_error"):
            raise ConfigurationError(f"unknown validation_metric {self.validation_metric!r}")
        if self.cotrain_weight < 0:
            raise ConfigurationError("co-training weight must be nonnegative")

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
    """Encoder f, contrastive head g (l2-normalized output), classification
    head h, plus the decoder, discriminator-projection head and learnable
    missing-value vector of the methods that step them."""

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
        hp: Hyperparameters,
        pre: str | None = None,
        recipe: str = "control",
    ) -> "ModelBundle":
        """The nets of method (`pre`, `recipe`) at the widths and depths of
        `hp`, drawn in this order: f, g, h, and the decoder, disc_proj and
        learnable missing-value vector if its objectives step them."""
        heads = {name for objective in (pre, COTRAIN_OBJECTIVES.get(recipe))
                 for name in OBJECTIVE_HEADS.get(objective, ())}
        hidden, head_layers = hp.hidden_dim, hp.head_layers
        f = Mlp.create([input_dim] + [hidden] * hp.encoder_layers, rng, final_activation="relu")
        g = Mlp.create([hidden] * head_layers + [hidden], rng)
        h = Mlp.create([hidden] * head_layers + [num_classes], rng)
        decoder = Mlp.create([hidden] * head_layers + [input_dim], rng) if "decoder" in heads else None
        disc_proj = Mlp.create([hidden, 1], rng) if "disc_proj" in heads else None
        lmv = np.zeros(input_dim, dtype=f.dtype) if _learns_missing(pre, hp) else None
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


def build_static_validation(originals: np.ndarray, view, rng: np.random.Generator, epochs: int,
                            batch_size: int) -> StaticValidationPairs:
    """Cycle the validation rows `originals` `epochs` times in shuffled
    batches of `batch_size`, storing `view(batch)`, the corrupted copy of each
    batch. Built once; immutable during training."""
    if len(originals) == 0:
        raise ValueError("validation split is empty")
    positions, corrupted = [], []
    for _ in range(epochs):
        for batch_idx in iterate_batches(len(originals), batch_size, rng):
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
    return losses.align_uniform(z, zt, 1.0, 1.0)


def _validation_metric(bundle: ModelBundle, pairs: StaticValidationPairs, hp: Hyperparameters,
                       pre: str) -> float:
    """The validation metric of pre-trainer `pre` on the static pairs (lower
    is better). The nets map the stored rows once and each corrupted copy
    once; each stored batch is scored on its gathered rows and its copy, and
    the scores are averaged weighted by batch size. Per pre-trainer:

    - scarf: the contrastive metric of normalize(g(f(.))) over batches of at
      least two rows. The loss metric is the pre-training loss; InfoNCE takes
      its value alone, without gradients.
    - the autoencoders: MSE of decoder(f(copy)) against the rows.
    - scarf_disc: error of the rule "disc_proj(g(f(x))) > 0 means corrupted"
      over the rows and their copy."""
    if pre == "scarf":
        rows_out = copy_out = bundle.embed

        def score(z, zt):
            if hp.validation_metric == "infonce_error":
                return losses.infonce_error(z @ zt.T)
            if hp.pretrain_loss == "infonce":
                return losses.infonce(z @ zt.T, hp.temperature)[0]
            return _contrastive_loss(hp, z, zt)[0]
    elif pre == "scarf_disc":
        def rows_out(x):
            return _in_slices(partial(_disc_logits, bundle), x).reshape(-1)
        copy_out = rows_out

        def score(orig_logit, corr_logit):
            labels = np.concatenate([np.zeros(orig_logit.size), np.ones(corr_logit.size)])
            return float(np.mean((np.concatenate([orig_logit, corr_logit]) > 0) != labels))
    else:
        def rows_out(x):
            return x

        def copy_out(x):
            return _in_slices(lambda b: bundle.decoder.forward(bundle.f.forward(b)), x)

        def score(orig, recon):
            return mse(recon, orig)[0]
    at_rows = rows_out(pairs.originals)
    vals, weights = [], []
    for pos, corr in zip(pairs.positions, pairs.corrupted):
        if pre == "scarf" and pos.size < 2:
            continue
        vals.append(score(at_rows[pos], copy_out(corr)))
        weights.append(pos.size)
    return float(np.average(vals, weights=weights))


AUTOENCODERS = ("scarf_ae", "add_noise_ae", "no_noise_ae")
PRETRAINERS = ("scarf", *AUTOENCODERS, "scarf_disc")
# the nets each objective steps besides f; the objective each co-training adds
OBJECTIVE_HEADS = {"scarf": ("g",), **dict.fromkeys(AUTOENCODERS, ("decoder",)),
                   "scarf_disc": ("g", "disc_proj")}
COTRAIN_OBJECTIVES = {"cotrain": "scarf", "ae_cotrain": "add_noise_ae"}


def _learns_missing(pre: str | None, hp: Hyperparameters) -> bool:
    """Only scarf pre-training steps the learnable missing-value vector."""
    return pre == "scarf" and hp.corruption_strategy == "missing_learnable"


def _objective_params(bundle: ModelBundle, pre: str, learnable: bool = False) -> list[np.ndarray]:
    """The arrays that objective `pre` steps, in the order of its step's
    gradients: f, its heads, and the learnable missing-value vector when
    `learnable`. A bundle without one of them raises ConfigurationError."""
    for name in OBJECTIVE_HEADS[pre] + (("learnable_missing",) if learnable else ()):
        if getattr(bundle, name) is None:
            raise ConfigurationError(f"the {pre} objective needs the bundle's {name}")
    heads = [p for name in OBJECTIVE_HEADS[pre] for p in getattr(bundle, name).parameters()]
    return bundle.f.parameters() + heads + ([bundle.learnable_missing] if learnable else [])


def _objective(pre, bundle: ModelBundle, dataset: ProcessedDataset, hp: Hyperparameters, pool,
               rng: np.random.Generator, loss_fn, learnable: np.ndarray | None = None):
    """Objective `pre` as `(view, step)`: `view(batch)` is the copy of a batch
    that it works on (itself, plus N(0, 0.5^2) noise, or the second SCARF view
    with `learnable` as the missing values), and `step(batch)` returns the loss
    and the gradients of `_objective_params`, or None for a one-row scarf
    batch, where the contrastive `loss_fn(z, zt)` has no negative."""
    def view(batch):
        if pre == "no_noise_ae":
            return np.array(batch, copy=True)
        if pre == "add_noise_ae":
            return batch + rng.normal(0.0, 0.5, size=batch.shape).astype(batch.dtype)
        return make_views(batch, dataset, hp.corruption, pool, rng, learnable)[1]

    def step(batch):
        if pre == "scarf":
            if len(batch) < 2:
                return None
            view_a, view_b, draw = make_views(batch, dataset, hp.corruption, pool, rng, learnable)
            loss, f_grads, g_grads, grad_in_b = bundle.contrastive_step(view_a, view_b, loss_fn)
            grads = f_grads + g_grads
            if learnable is not None:
                grads.append(np.where(draw.encoded_mask, grad_in_b, 0.0).sum(axis=0))
            return loss, grads
        if pre == "scarf_disc":
            view_b = view(batch)
            labels = np.concatenate([np.zeros(len(batch)), np.ones(len(view_b))])
            loss, grad = losses.binary_logistic(_disc_logits(bundle, np.vstack([batch, view_b])),
                                                labels)
            p_grads, grad_mid = bundle.disc_proj.backward(grad.reshape(-1, 1))
            g_grads, grad_mid = bundle.g.backward(grad_mid)
            f_grads, _ = bundle.f.backward(grad_mid)
            return loss, f_grads + g_grads + p_grads
        loss, grad = mse(bundle.decoder.forward(bundle.f.forward(view(batch))), batch)
        d_grads, grad_mid = bundle.decoder.backward(grad)
        f_grads, _ = bundle.f.backward(grad_mid)
        return loss, f_grads + d_grads

    return view, step


def pretrain_scarf(
    dataset: ProcessedDataset,
    splits: Splits,
    bundle: ModelBundle,
    hp: Hyperparameters,
    rng: np.random.Generator,
    pre: str = "scarf",
) -> TrainOutcome:
    """Pre-training of the encoder f by objective `pre`, one of PRETRAINERS,
    as the module docstring maps them; labels are never read.

    The name stays `pretrain_scarf` for every pre-trainer because
    perfbench/spans.py wraps it by name and reads `splits` at position 1.

    Per mini-batch of the training split: one step of the objective, one Adam
    step. After each epoch the metric on the static validation pairs, built
    from the objective's view, decides early stopping; best-epoch weights
    are restored. Every check runs before any work."""
    if pre not in PRETRAINERS:
        raise ConfigurationError(f"unknown pre-trainer {pre!r}")
    if hp.batch_size < 2:
        raise ValueError("contrastive batches need at least 2 examples")
    if pre == "scarf" and (n_val := len(splits.validation)) < 2:
        raise ValueError(f"contrastive validation needs at least 2 validation rows, got {n_val}")
    learns = _learns_missing(pre, hp)
    params = _objective_params(bundle, pre, learns)
    pool = build_marginal_pool(dataset, splits.train)
    view, step = _objective(pre, bundle, dataset, hp, pool, rng, partial(_contrastive_loss, hp),
                            bundle.learnable_missing if learns else None)
    pairs = build_static_validation(dataset.X[splits.validation], view, rng,
                                    hp.val_build_epochs, hp.batch_size)
    return _fit(params, np.asarray(splits.train), hp, hp.pretrain_max_epochs, rng,
                lambda rows: step(dataset.X[rows]),
                lambda: _validation_metric(bundle, pairs, hp, pre))


def _disc_logits(bundle: ModelBundle, x: np.ndarray) -> np.ndarray:
    """Logit that a row is a corrupted copy: disc_proj(g(f(x)))."""
    return bundle.disc_proj.forward(bundle.g.forward(bundle.f.forward(x)))


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
    `control` does, with no extra draw. `cotrain` and `ae_cotrain` add the
    `scarf` or `add_noise_ae` objective (zero on a one-row batch).

    soft_targets, when given, is an (n, K) matrix of target distributions
    indexed by dataset row and overrides hard labels."""
    if recipe not in FINETUNE_RECIPES:
        raise ConfigurationError(f"unknown fine-tuning recipe {recipe!r}")
    labeled_indices = np.asarray(labeled_indices)
    if labeled_indices.size == 0:
        raise ValueError("no labeled training rows")
    K = dataset.num_classes
    smoothing = hp.label_smoothing if recipe == "smooth" else 0.0
    dropout = hp.dropout if recipe == "dropout" else 0.0
    alpha = hp.mixup_alpha if recipe == "mixup" else 0.0

    pool = build_marginal_pool(dataset, splits.train) if recipe in ("scarf_aug", "cotrain") else None
    params = bundle.f.parameters() + bundle.h.parameters()
    aux = COTRAIN_OBJECTIVES.get(recipe)
    if aux is not None:
        aux_params = _objective_params(bundle, aux)
        params = params + aux_params[len(bundle.f.parameters()):]
        _, aux_step = _objective(aux, bundle, dataset, hp, pool, rng,
                                 partial(_infonce_pair, temperature=hp.temperature))

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
        aux_loss, aux_grads = aux_step(x) or (0.0, [np.zeros_like(p) for p in aux_params])
        w = hp.cotrain_weight
        f_grads = [g + w * a for g, a in zip(f_grads, aux_grads)]
        return loss + w * aux_loss, f_grads + h_grads + [w * g for g in aux_grads[len(f_grads):]]

    val_X = dataset.X[splits.validation]
    val_y = dataset.y[splits.validation]
    return _fit(params, labeled_indices, hp, hp.finetune_max_epochs, rng, step,
                lambda: classification_error(bundle, val_X, val_y))
