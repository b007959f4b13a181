"""Training loops: pre-training with early stopping on a static corrupted
validation set (SCARF and its autoencoder and discriminative alternatives),
supervised fine-tuning, and co-training.

Every trainer is `_fit`, the one epoch driver, of one `Phase` record that a
phase builder sets up: `pretrain_phase` for `pretrain_scarf` and
`finetune_phase` for `finetune`. A Phase holds the arrays it steps, the
dataset rows it shuffles, its epoch cap, a per-batch step returning the loss
and the gradients for one Adam step, a per-epoch validation metric and its
name. `_fit(phase, hp, rng)` owns the shuffling, the train/validation
curves, early stopping and the best-epoch restore of the stepped arrays, and
raises TrainingDiverged when an epoch's loss, a stepped array or the metric
goes non-finite. Every step is one forward and one backward pass of one
chained net, `ModelBundle.net(pre)`: f followed by the objective's heads for
pre-training, f followed by h (`net(None)`) for fine-tuning, plus the
co-training objective's own step. The two contrastive views go through the
scarf net as one stacked 2B-row pass (`contrastive_step`).

Every forward pass that is never backpropagated (embedding, prediction and
the validation metrics) runs in slices of at most `INFERENCE_ROWS` rows, so it
keeps at most that many rows of activations for the backward pass that
`Mlp.forward` records. The static validation set stores each validation row
once: the metrics run the nets over it once per epoch and gather each stored
batch by position, and only the corrupted copies go through the nets batch by
batch.

Every trainer reads one frozen `Hyperparameters`, the single declaration of
the trial hyperparameters and their defaults, with the corruption fields
among them, so it is passed as is wherever views are drawn. `_objective` defines each
pre-training objective once, and `pretrain_scarf(..., pre)` trains one:
`scarf` is the loss `pretrain_loss` between the two views of `make_views`;
`no_noise_ae`, `add_noise_ae` and `scarf_ae` are MSE reconstruction of the
batch from itself, from the batch plus N(0, 0.5^2) noise or from its SCARF
view; `scarf_disc` is the logistic loss of telling the batch from its SCARF
view. `finetune` maps its `recipe` to the one regularizer it turns on:
`smooth` to `label_smoothing`, `dropout` to `dropout`, `mixup` to
`mixup_alpha`, `scarf_aug` to per-batch corruption under the corruption
fields, and `cotrain`/`ae_cotrain` to `cotrain_weight` times the `scarf`
(the `pretrain_loss`) or `add_noise_ae` objective; `control` turns on
none. A bundle's heads follow from the method (`ModelBundle.create`).

All loops are deterministic given (dataset, splits, hyperparameters, seed):
the run RNG drives shuffling, corruption, and any dropout/mixup draws in a
fixed order. The nets compute in the dtype of the bundle's weights (float32
from `ModelBundle.create`); data of another dtype is cast on the way in.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, fields
from functools import partial
from typing import ClassVar

import numpy as np

from tabpretrain import losses
from tabpretrain.baselines import mixup_batch, one_hot_targets
from tabpretrain.corruption import (
    STRATEGIES,
    ConfigurationError,
    build_marginal_pool,
    check_type,
    corrupt_batch,
    make_views,
)
from tabpretrain.data import SCALINGS, ProcessedDataset, Splits
from tabpretrain.nn import (
    Adam,
    Mlp,
    l2_normalize_backward,
    l2_normalize_rows,
    l2_normalize_rows_with_norms,
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
    only occurs when X has one row. Each slice's result is written into one
    output, allocated at the first slice, and dropped before the next slice
    runs."""
    n = len(X)
    if n <= INFERENCE_ROWS:
        return fn(X)
    out, start = None, 0
    for part in np.array_split(X, -(-n // INFERENCE_ROWS)):
        result = fn(part)
        if out is None:
            out = np.empty((n, *result.shape[1:]), result.dtype)
        out[start:start + len(part)] = result
        start += len(part)
        del result
    return out


@dataclass(frozen=True)
class Hyperparameters:
    """Every trial hyperparameter and its default, declared once: the trainers
    and `corruption` read it, `methods.run_method` and `run_benchmark` take
    it, and each field is a CLI config key and `run` flag. `scaling` is read
    by `run_benchmark`, where it scales each trial's table; `run_method` takes
    data already scaled. Building one checks each field's type, the `CHOICES`
    of a string and the `RANGES` rows of a number (tests false for NaN), and
    raises ConfigurationError. A maximum of 0 epochs is legal and trains no
    epoch."""

    # corruption, for pre-training, scarf_aug and cotrain alike
    corruption_strategy: str = "marginal"
    corruption_rate: float = 0.6
    index_selection: str = "fixed_count"
    view_policy: str = "corrupt_one"
    index_sharing: str = "per_example"
    donor: str = "per_example"
    gaussian_sigma: float = 0.5
    unique_pool: bool = False  # True: deduplicate each feature's marginal pool
    # optimisation, for pre-training and fine-tuning alike
    batch_size: int = 128
    learning_rate: float = 0.001
    patience: int = 3
    pretrain_max_epochs: int = 1000
    finetune_max_epochs: int = 200
    # pre-training objective
    temperature: float = 1.0
    val_build_epochs: int = 10
    pretrain_loss: str = "infonce"
    validation_metric: str = "infonce_loss"
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
    scaling: str = "zscore"  # of the numerical columns, on each trial's training rows

    CHOICES: ClassVar[dict[str, tuple[str, ...]]] = {
        "corruption_strategy": STRATEGIES,
        "index_selection": ("fixed_count", "bernoulli"),
        "view_policy": ("corrupt_one", "corrupt_both"),
        "index_sharing": ("per_example", "shared_batch"),
        "donor": ("per_example", "single_row"),
        "pretrain_loss": ("infonce", "barlow", "align_uniform"),
        "validation_metric": ("infonce_loss", "infonce_error"),
        "scaling": SCALINGS,
    }
    RANGES: ClassVar[tuple] = (
        ("in [0, 1]", lambda v: 0 <= v <= 1, ("corruption_rate", "noise_rate")),
        ("positive and finite", lambda v: 0 < v < np.inf,
         ("gaussian_sigma", "learning_rate", "temperature")),
        ("at least 1", lambda v: v >= 1, ("batch_size", "patience", "val_build_epochs",
                                          "hidden_dim", "encoder_layers", "head_layers")),
        ("nonnegative and finite", lambda v: 0 <= v < np.inf,
         ("pretrain_max_epochs", "finetune_max_epochs", "self_train_iterations", "mixup_alpha",
          "cotrain_weight")),
        ("in [0, 1)", lambda v: 0 <= v < 1, ("label_smoothing", "dropout")),
        ("in (0, 1]", lambda v: 0 < v <= 1, ("self_train_threshold", "labeled_fraction")),
    )

    def __post_init__(self):
        for field in fields(self):
            check_type("hyperparameter", field.name, getattr(self, field.name), field.default)
        for name, allowed in self.CHOICES.items():
            if (value := getattr(self, name)) not in allowed:
                raise ConfigurationError(f"unknown {name} {value!r}")
        for rule, holds, names in self.RANGES:
            for name in names:
                if not holds(value := getattr(self, name)):
                    raise ConfigurationError(f"{name} must be {rule}, got {value!r}")
        if self.index_selection == "bernoulli" and self.corruption_rate == 0:
            raise ConfigurationError("bernoulli index_selection needs a positive rate")


@dataclass
class TrainOutcome:
    train_curve: list[float]
    val_curve: list[float]
    epochs_used: int
    stop_reason: str  # "patience" | "max_epochs"
    best_epoch: int  # 1-based; 0 when no epoch ran


@dataclass(eq=False)  # a generated __eq__ would compare arrays
class ModelBundle:
    """Encoder f and its heads by name: `heads` holds the contrastive head g
    (l2-normalized output) and the classifier h always, and the decoder and
    discriminator projection `disc_proj` of the methods that step them."""

    f: Mlp
    heads: dict[str, Mlp]

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
        `hp`, drawn in this order: f, g, h, and the decoder and disc_proj
        if its objectives step them."""
        drawn = {"g", "h"} | {name for objective in (pre, COTRAIN_OBJECTIVES.get(recipe))
                              for name in OBJECTIVE_HEADS.get(objective, ())}
        hidden, stack = hp.hidden_dim, [hp.hidden_dim] * hp.head_layers
        widths = {"g": stack + [hidden], "h": stack + [num_classes], "decoder": stack + [input_dim],
                  "disc_proj": [hidden, 1]}
        f = Mlp.create([input_dim] + [hidden] * hp.encoder_layers, rng, final_activation="relu")
        heads = {name: Mlp.create(w, rng) for name, w in widths.items() if name in drawn}
        return cls(f, heads)

    def net(self, pre: str | None) -> Mlp:
        """f then the heads of objective `pre` (h for None, the classifier), as
        one net over the bundle's own layers, with the operations of the chained
        nets. A bundle without one of the heads raises ConfigurationError."""
        names = OBJECTIVE_HEADS[pre]
        for name in names:
            if name not in self.heads:
                raise ConfigurationError(f"the {pre} objective needs the bundle's {name}")
        return Mlp(self.f.layers + [layer for name in names for layer in self.heads[name].layers])

    def embed(self, X: np.ndarray) -> np.ndarray:
        """z = normalize(g(f(X))) by `net("scarf")`, in slices of INFERENCE_ROWS rows."""
        net = self.net("scarf")
        return _in_slices(lambda b: l2_normalize_rows(net.forward(b)), X)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Logits h(f(X)) by `net(None)`, without dropout, in slices of
        INFERENCE_ROWS rows."""
        return _in_slices(self.net(None).forward, X)


def iterate_batches(n: int, batch_size: int, rng: np.random.Generator):
    perm = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield perm[start : start + batch_size]


@dataclass
class StaticValidationPairs:
    """The static validation set. `originals` holds the validation rows once,
    in split order; stored batch k is the rows `originals[positions[k]]` and
    their corrupted copy `current_copy(k)`. Under missing_learnable, `masks[k]`
    marks the cells of `corrupted[k]` that hold `learnable`, the vector that
    the phase steps in place."""

    originals: np.ndarray
    positions: list[np.ndarray]
    corrupted: list[np.ndarray]
    learnable: np.ndarray | None
    masks: list[np.ndarray]

    def current_copy(self, k: int) -> np.ndarray:
        """Stored copy k, its masked cells holding the current `learnable`."""
        corr = self.corrupted[k]
        if self.learnable is None:
            return corr
        return np.where(self.masks[k], self.learnable, corr).astype(corr.dtype, copy=False)


def build_static_validation(originals: np.ndarray, view, rng: np.random.Generator, epochs: int,
                            batch_size: int, learnable: np.ndarray | None = None
                            ) -> StaticValidationPairs:
    """Cycle the validation rows `originals` `epochs` times in shuffled
    batches of `batch_size`, storing the corrupted copy of each batch from
    `view(batch)`, which returns it with its `CorruptionDraw` (None for a
    noise copy), and, given the learnable missing values, the draw's encoded
    mask. Built once; only the learnable cells change during training."""
    if len(originals) == 0:
        raise ValueError("validation split is empty")
    positions, corrupted, masks = [], [], []
    for _ in range(epochs):
        for batch_idx in iterate_batches(len(originals), batch_size, rng):
            copy, draw = view(originals[batch_idx])
            positions.append(batch_idx)
            corrupted.append(copy)
            if learnable is not None:
                masks.append(draw.encoded_mask)
    return StaticValidationPairs(originals, positions, corrupted, learnable, masks)


class TrainingDiverged(ArithmeticError):
    """A training phase produced a non-finite loss, metric or weight."""


@dataclass(frozen=True, eq=False)  # a generated __eq__ would compare arrays
class Phase:
    """One training phase, as `_fit` runs it: `params`, the only arrays a step
    changes; `rows`, the dataset row indices that each epoch shuffles into
    batches; `max_epochs`; `step(batch_rows)`, which returns (loss, gradients
    of `params`) for one Adam step, or None to skip the batch; `metric()`, the
    validation value after each epoch (lower is better); and `name`, which a
    TrainingDiverged message names."""

    name: str
    params: list[np.ndarray]
    rows: np.ndarray
    max_epochs: int
    step: Callable[[np.ndarray], tuple | None]
    metric: Callable[[], float]


def _fit(phase: Phase, hp: Hyperparameters, rng: np.random.Generator) -> TrainOutcome:
    """The epoch loop that runs every `Phase`.

    Each of at most `phase.max_epochs` epochs shuffles `phase.rows` into
    batches of `hp.batch_size` by `rng` and takes one Adam step (at
    `hp.learning_rate`) per batch that `phase.step` does not skip. After the
    epoch, `phase.metric()` is appended to the validation curve. The best
    epoch is the curve's first minimum, so an equal value is no improvement;
    training stops after `hp.patience` epochs without a new one. The stepped
    `phase.params` are copied once before the first epoch into one snapshot,
    which each new best epoch overwrites in place and from which they are
    restored in place.

    A step's gradients live until `Adam.step` has applied them, using each
    as scratch after its last read, so the next step's forward and backward
    passes run without them.

    An epoch whose mean loss is non-finite, after which a stepped array holds
    a non-finite value, or whose metric is non-finite raises TrainingDiverged
    naming the phase, the epoch and what went non-finite, checked in that
    order."""
    opt = Adam(phase.params, learning_rate=hp.learning_rate)
    train_curve, val_curve = [], []
    best = [p.copy() for p in phase.params]
    stop_reason, best_epoch = "max_epochs", 0
    for epoch in range(1, phase.max_epochs + 1):
        epoch_losses, epoch_sizes = [], []
        for sel in iterate_batches(len(phase.rows), hp.batch_size, rng):
            result = phase.step(phase.rows[sel])
            if result is None:
                continue
            loss, grads = result
            opt.step(grads)
            del result, grads  # dead before the next step allocates its own
            epoch_losses.append(loss)
            epoch_sizes.append(sel.size)
        train_curve.append(float(np.average(epoch_losses, weights=epoch_sizes)) if epoch_losses else np.nan)
        diverged = f"{phase.name} diverged at epoch {epoch}:"
        if not np.isfinite(train_curve[-1]):
            raise TrainingDiverged(f"{diverged} the mean training loss is {train_curve[-1]}")
        for k, p in enumerate(phase.params):
            if not np.isfinite(p).all():
                raise TrainingDiverged(f"{diverged} stepped array {k} of {len(phase.params)} "
                                       "holds a non-finite value")
        value = phase.metric()
        if not np.isfinite(value):
            raise TrainingDiverged(f"{diverged} the validation metric is {value}")
        val_curve.append(value)
        best_epoch = int(np.argmin(val_curve)) + 1
        if best_epoch == epoch:
            for b, p in zip(best, phase.params):
                b[...] = p
        if epoch - best_epoch >= hp.patience:
            stop_reason = "patience"
            break
    for p, b in zip(phase.params, best):
        p[...] = b
    return TrainOutcome(train_curve, val_curve, len(val_curve), stop_reason, best_epoch)


BARLOW_OFFDIAG = 5e-3  # the off-diagonal weight of Barlow Twins


def _contrastive_loss(hp: Hyperparameters, z: np.ndarray, zt: np.ndarray, value_only: bool = False):
    """The `pretrain_loss` of the normalized embeddings: its value and
    gradients, or its value alone, bit for bit. Each function is looked up in
    `losses` at call time, so a wrapper bound there is the one called."""
    name, args = {"infonce": ("infonce", (hp.temperature,)),
                  "barlow": ("barlow_twins", (BARLOW_OFFDIAG,)),
                  "align_uniform": ("align_uniform", (1.0, 1.0))}[hp.pretrain_loss]
    return getattr(losses, name)(z, zt, *args, value_only=value_only)


def contrastive_step(net: Mlp, view_a: np.ndarray, view_b: np.ndarray, loss_fn,
                     input_grad: bool = True):
    """Both views through the scarf net `ModelBundle.net("scarf")` (f then g)
    as one stacked 2B-row forward and backward pass. `loss_fn(z, zt)` returns
    the loss and its gradients w.r.t. the two normalized embeddings. Returns
    the loss, the net's gradients (summed over both views) and the gradient
    w.r.t. the 2B stacked input rows (view_a's, then view_b's), or None
    without f's first input-gradient GEMM when `input_grad` is False. The row
    norms of the forward pass serve the backward pass of the normalization,
    which works in place on the stacked gradients of the two embeddings; of
    the loss's arrays, only the net's output gradient is alive while the
    net's backward pass runs, and the net's output only on the tape, which
    that pass drops first."""
    n = view_a.shape[0]
    z, norms = l2_normalize_rows_with_norms(net.forward(np.vstack([view_a, view_b])))
    loss, grad_z, grad_zt = loss_fn(z[:n], z[n:])
    grad = l2_normalize_backward(z, norms, np.asarray(np.vstack([grad_z, grad_zt]), dtype=z.dtype))
    del z, norms, grad_z, grad_zt
    grads, grad_in = net.backward(grad, input_grad)
    return loss, grads, grad_in


def _validation_metric(bundle: ModelBundle, pairs: StaticValidationPairs, hp: Hyperparameters,
                       pre: str) -> float:
    """The validation metric of pre-trainer `pre` on the static pairs (lower
    is better). The stored rows, raw for the autoencoders, and each corrupted
    copy go once, in slices, through `bundle.embed` for scarf or else through
    `bundle.net(pre)`; the `_score` of each stored batch (one-row batches
    skipped for scarf) is averaged weighted by batch size."""
    through = bundle.embed if pre == "scarf" else partial(_in_slices, bundle.net(pre).forward)
    at_rows = pairs.originals if pre in AUTOENCODERS else through(pairs.originals)
    vals, weights = [], []
    for k, pos in enumerate(pairs.positions):
        if pre == "scarf" and pos.size < 2:
            continue
        vals.append(_score(pre, hp, at_rows[pos], through(pairs.current_copy(k))))
        weights.append(pos.size)
    return float(np.average(vals, weights=weights))


def _score(pre: str, hp: Hyperparameters, rows: np.ndarray, copy: np.ndarray) -> float:
    """One stored batch's validation value from its mapped rows and copy:

    - scarf: the contrastive metric of the two embeddings. The loss metric is
      the pre-training loss, its value alone, without gradients.
    - the autoencoders: MSE of the reconstruction `copy` against the rows.
    - scarf_disc: error of the rule "logit > 0 means corrupted" over the
      rows' and the copy's logits."""
    if pre in AUTOENCODERS:
        return mse(copy, rows)[0]
    if pre == "scarf_disc":
        logits = np.concatenate([rows, copy]).reshape(-1)
        return float(np.mean((logits > 0) != (np.arange(logits.size) >= len(rows))))
    if hp.validation_metric == "infonce_error":
        return losses.infonce_error(rows, copy)
    return _contrastive_loss(hp, rows, copy, value_only=True)


AUTOENCODERS = ("scarf_ae", "add_noise_ae", "no_noise_ae")
PRETRAINERS = ("scarf", *AUTOENCODERS, "scarf_disc")
# the nets each objective (None: fine-tuning) steps besides f; the objective each co-training adds
OBJECTIVE_HEADS = {None: ("h",), "scarf": ("g",), **dict.fromkeys(AUTOENCODERS, ("decoder",)),
                   "scarf_disc": ("g", "disc_proj")}
COTRAIN_OBJECTIVES = {"cotrain": "scarf", "ae_cotrain": "add_noise_ae"}
# the objectives and recipes that draw SCARF views, so corrupt under hp's corruption fields
DRAWS_SCARF_VIEWS = ("scarf", "scarf_ae", "scarf_disc", "scarf_aug", "cotrain")


def _objective(pre, net: Mlp | None, hp: Hyperparameters, pool, rng: np.random.Generator):
    """Objective `pre` as `(view, step)`: `view(batch)` returns what it works
    on (the batch itself, not a copy, as no caller writes into it; a copy
    plus N(0, 0.5^2) noise; or one SCARF view drawn from `pool`, the phase's
    `MarginalPool`, with the pool's learnable values as the missing values)
    and its `CorruptionDraw`, None for the first two; it does not read
    `net`. `step(batch)` returns the loss and the gradients of `net`, the
    bundle's `net(pre)`, and of the pool's learnable values if it has them,
    from one forward and one backward pass of `net`; or None for a one-row
    scarf batch, where the contrastive loss, hp's `pretrain_loss` by
    `_contrastive_loss`, has no negative."""
    def view(batch):
        if pre == "no_noise_ae":
            return batch, None
        if pre == "add_noise_ae":
            return batch + rng.normal(0.0, 0.5, size=batch.shape).astype(batch.dtype), None
        return corrupt_batch(batch, hp, pool, rng)

    def step(batch):
        if pre == "scarf":
            if len(batch) < 2:
                return None
            view_a, view_b, draw = make_views(batch, hp, pool, rng)
            learns = pool.learnable is not None
            loss, grads, grad_in = contrastive_step(net, view_a, view_b, partial(_contrastive_loss, hp),
                                                    input_grad=learns)
            if learns:  # the draw covers the last rows, those it corrupted
                masked = draw.encoded_mask
                grads.append(np.where(masked, grad_in[-len(masked):], 0.0).sum(axis=0))
            return loss, grads
        if pre == "scarf_disc":
            view_b = view(batch)[0]
            labels = np.concatenate([np.zeros(len(batch)), np.ones(len(view_b))])
            loss, grad = losses.binary_logistic(net.forward(np.vstack([batch, view_b])), labels)
            return loss, net.backward(grad.reshape(-1, 1), input_grad=False)[0]
        loss, grad = mse(net.forward(view(batch)[0]), batch)
        return loss, net.backward(grad, input_grad=False)[0]

    return view, step


def pretrain_phase(
    dataset: ProcessedDataset,
    splits: Splits,
    bundle: ModelBundle,
    hp: Hyperparameters,
    rng: np.random.Generator,
    pre: str = "scarf",
) -> Phase:
    """The pre-training phase of the encoder f by objective `pre`, one of
    PRETRAINERS, as the module docstring maps them; labels are never read.

    Per mini-batch of the training split: one step of the objective. After
    each epoch, the metric on the static validation pairs, built from the
    objective's view. Under missing_learnable, scarf creates the learnable
    missing-value vector at zero in the net's dtype as its pool's `learnable`
    and steps it as the last of the phase's params; it lives no longer than
    the phase, and the metric reads its current values in the masked cells
    of the stored copies. Every check runs before any work; then the static
    validation pairs are drawn from `rng`."""
    if pre not in PRETRAINERS:
        raise ConfigurationError(f"unknown pre-trainer {pre!r}")
    if hp.batch_size < 2:
        raise ValueError("contrastive batches need at least 2 examples")
    if (n_train := len(splits.train)) < (need := 2 if pre == "scarf" else 1):
        raise ValueError(f"{pre} pre-training needs at least {need} training rows, got {n_train}")
    if pre == "scarf" and (n_val := len(splits.validation)) < 2:
        raise ValueError(f"contrastive validation needs at least 2 validation rows, got {n_val}")
    net, learnable = bundle.net(pre), None
    pool = build_marginal_pool(dataset, splits.train) if pre in DRAWS_SCARF_VIEWS else None
    if pre == "scarf" and hp.corruption_strategy == "missing_learnable":
        learnable = pool.learnable = np.zeros(net.in_dim, net.dtype)
    view, step = _objective(pre, net, hp, pool, rng)
    pairs = build_static_validation(dataset.X[splits.validation], view, rng,
                                    hp.val_build_epochs, hp.batch_size, learnable)
    return Phase(f"{pre} pre-training", net.parameters() + ([] if learnable is None else [learnable]),
                 np.asarray(splits.train), hp.pretrain_max_epochs,
                 lambda rows: step(dataset.X[rows]),
                 lambda: _validation_metric(bundle, pairs, hp, pre))


def pretrain_scarf(
    dataset: ProcessedDataset,
    splits: Splits,
    bundle: ModelBundle,
    hp: Hyperparameters,
    rng: np.random.Generator,
    pre: str = "scarf",
) -> TrainOutcome:
    """`_fit` of `pretrain_phase`: pre-training by objective `pre`, early
    stopping on the static validation pairs, best-epoch weights restored.

    The name stays `pretrain_scarf` for every pre-trainer because
    perfbench/spans.py wraps it by name and reads `splits` at position 1."""
    return _fit(pretrain_phase(dataset, splits, bundle, hp, rng, pre), hp, rng)


def classification_error(bundle: ModelBundle, X: np.ndarray, y: np.ndarray) -> float:
    return float(np.mean(bundle.predict(X).argmax(axis=1) != y))


# the recipes that `finetune` trains itself (the pseudo-labeling ones call it)
FINETUNE_RECIPES = ("control", "smooth", "dropout", "mixup", "scarf_aug", "cotrain", "ae_cotrain")


def finetune_phase(
    dataset: ProcessedDataset,
    splits: Splits,
    labeled_indices: np.ndarray,
    bundle: ModelBundle,
    hp: Hyperparameters,
    rng: np.random.Generator,
    recipe: str = "control",
    targets: np.ndarray | None = None,
) -> Phase:
    """The supervised phase of the classifier `bundle.net(None)` (f then h)
    on the labeled rows: one forward and one backward pass a step, with
    cross-entropy against `targets`; after each epoch, the classification
    error on the validation split. The test split is not read.

    `recipe` turns on one regularizer, as the module docstring maps them;
    the others are off. A smoothing, dropout or mixup alpha of 0 trains as
    `control` does, with no extra draw; dropout masks every layer but the
    net's last. `cotrain` and `ae_cotrain` add the `scarf` or `add_noise_ae`
    objective (zero on a one-row batch), whose gradients of f add by position.

    `targets` is an (n, K) matrix of target distributions indexed by dataset
    row; by default the one-hot rows of `dataset.y` in the dtype of
    `dataset.X`, smoothed under `smooth`. Every check runs before any work;
    the marginal pool, if the recipe corrupts, is drawn here."""
    if recipe not in FINETUNE_RECIPES:
        raise ConfigurationError(f"unknown fine-tuning recipe {recipe!r}")
    labeled_indices = np.asarray(labeled_indices)
    if labeled_indices.size == 0:
        raise ValueError("no labeled training rows")
    if targets is None:
        targets = one_hot_targets(dataset, dataset.y)
        if recipe == "smooth":
            targets = smooth_labels(targets, hp.label_smoothing, dataset.num_classes)
    pool = build_marginal_pool(dataset, splits.train) if recipe in DRAWS_SCARF_VIEWS else None
    net, aux = bundle.net(None), COTRAIN_OBJECTIVES.get(recipe)
    params = net.parameters()
    if aux is not None:
        aux_net, n_f = bundle.net(aux), len(bundle.f.parameters())
        aux_params = aux_net.parameters()
        params = params + aux_params[n_f:]
        _, aux_step = _objective(aux, aux_net, hp, pool, rng)

    def step(rows):
        x, target = dataset.X[rows], targets[rows]
        if recipe == "mixup" and hp.mixup_alpha:
            x, target = mixup_batch(x, target, hp.mixup_alpha, rng)
        if recipe == "scarf_aug":
            x = corrupt_batch(x, hp, pool, rng)[0]
        dropout = hp.dropout if recipe == "dropout" else 0.0
        loss, grad = softmax_cross_entropy(net.forward(x, dropout, rng), target)
        grads = net.backward(grad, input_grad=False)[0]
        if aux is None:
            return loss, grads
        aux_loss, aux_grads = aux_step(x) or (0.0, [np.zeros_like(p) for p in aux_params])
        w = hp.cotrain_weight
        grads[:n_f] = [g + w * a for g, a in zip(grads, aux_grads[:n_f])]
        return loss + w * aux_loss, grads + [w * a for a in aux_grads[n_f:]]

    val_X, val_y = dataset.X[splits.validation], dataset.y[splits.validation]
    return Phase("fine-tuning", params, labeled_indices, hp.finetune_max_epochs, step,
                 lambda: classification_error(bundle, val_X, val_y))


def finetune(
    dataset: ProcessedDataset,
    splits: Splits,
    labeled_indices: np.ndarray,
    bundle: ModelBundle,
    hp: Hyperparameters,
    rng: np.random.Generator,
    recipe: str = "control",
    targets: np.ndarray | None = None,
) -> TrainOutcome:
    """`_fit` of `finetune_phase`: supervised training under `recipe`, early
    stopping on validation classification error, best weights restored.

    perfbench/spans.py wraps it by name and reads `labeled_indices` at
    position 2."""
    return _fit(finetune_phase(dataset, splits, labeled_indices, bundle, hp, rng, recipe, targets),
                hp, rng)
