"""Semi-supervised and regularization baselines: mixup, self-training,
tri-training, self-distillation.

The pseudo-labeling loops take a train_fn so they compose with a pre-trained
encoder: train_fn(rows, targets) must train a fresh (or warm-started) model
on the dataset rows `rows` against `targets`, the (n, K) target matrix of
`training.finetune` in the dtype of dataset.X, and return a ModelBundle. A
pool is an index array of dataset rows plus a label vector over all dataset
rows (-1 outside the pool), handed over as its one-hot rows. Pseudo-labels
are frozen once assigned and original labels are never overwritten.
"""

from __future__ import annotations

import numpy as np

from tabpretrain.nn import softmax


def mixup_batch(
    x: np.ndarray, y_onehot: np.ndarray, alpha: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Convex combination of the batch with a shuffled copy of itself; one
    Beta(alpha, alpha) weight per batch, applied to features and labels."""
    if alpha <= 0:
        raise ValueError("mixup alpha must be positive")
    lam = rng.beta(alpha, alpha)
    perm = rng.permutation(x.shape[0])
    return lam * x + (1 - lam) * x[perm], lam * y_onehot + (1 - lam) * y_onehot[perm]


def one_hot_targets(dataset, label: np.ndarray) -> np.ndarray:
    """(n, K) one-hot rows of `label` in the dtype of dataset.X, zero where it
    is -1: the target matrix of `training.finetune`."""
    return (label[:, None] == np.arange(dataset.num_classes)).astype(dataset.X.dtype)


def self_train(
    dataset,
    labeled: np.ndarray,
    unlabeled: np.ndarray,
    train_fn,
    threshold: float,
    iterations: int,
):
    """Iterative pseudo-labeling: each round, train on the current pool and
    absorb unlabeled rows whose max softmax clears the threshold. Rounds stop
    once no unlabeled row is left. A final model is trained on the final
    pool."""
    if not 0.0 < threshold <= 1.0:
        raise ValueError("threshold must lie in (0, 1]")
    rows = np.asarray(labeled)
    remaining = np.asarray(unlabeled)
    label = np.full(dataset.n, -1)
    label[rows] = dataset.y[rows]
    for _ in range(iterations):
        if remaining.size == 0:
            break
        model = train_fn(rows, one_hot_targets(dataset, label))
        probs = softmax(model.predict(dataset.X[remaining]))
        confident = probs.max(axis=1) >= threshold
        absorbed = remaining[confident]
        label[absorbed] = probs.argmax(axis=1)[confident]
        rows = np.concatenate([rows, absorbed])
        remaining = remaining[~confident]
    return train_fn(rows, one_hot_targets(dataset, label)), rows


def tri_train(
    dataset,
    labeled: np.ndarray,
    unlabeled: np.ndarray,
    train_fn,
    rng: np.random.Generator,
    iterations: int,
):
    """Three models seeded with bootstrap resamples of the labeled set; an
    unlabeled row joins model k's pool once the other two agree on its class.
    Rounds stop once every unlabeled row is in all three pools. The final
    model trains on the union of the pools: a labeled row keeps its label,
    any other row takes the label of the first pool holding it."""
    labeled = np.asarray(labeled)
    unlabeled = np.asarray(unlabeled)
    pools = [rng.choice(labeled, size=len(labeled), replace=True) for _ in range(3)]
    labels = np.full((3, dataset.n), -1)
    for label, rows in zip(labels, pools):
        label[rows] = dataset.y[rows]
    for _ in range(iterations):
        if (labels[:, unlabeled] >= 0).all():
            break
        models = [train_fn(rows, one_hot_targets(dataset, label)) for rows, label in zip(pools, labels)]
        preds = [m.predict(dataset.X[unlabeled]).argmax(axis=1) for m in models]
        for k in range(3):
            i, j = [m for m in range(3) if m != k]
            new = (preds[i] == preds[j]) & (labels[k, unlabeled] < 0)
            labels[k, unlabeled[new]] = preds[i][new]
            pools[k] = np.concatenate([pools[k], unlabeled[new]])
    union = np.where(labels[0] >= 0, labels[0], np.where(labels[1] >= 0, labels[1], labels[2]))
    union[labeled] = dataset.y[labeled]
    rows = np.flatnonzero(union >= 0)
    return train_fn(rows, one_hot_targets(dataset, union)), rows


def self_distill(dataset, labeled: np.ndarray, unlabeled: np.ndarray, train_fn):
    """Teacher on the labeled rows, student on labeled + unlabeled rows against
    the teacher's softmax vectors as soft targets."""
    labeled = np.asarray(labeled)
    unlabeled = np.asarray(unlabeled)
    label = np.full(dataset.n, -1)
    label[labeled] = dataset.y[labeled]
    teacher = train_fn(labeled, one_hot_targets(dataset, label))
    all_rows = np.concatenate([labeled, unlabeled]) if unlabeled.size else labeled
    soft = np.zeros((dataset.n, dataset.num_classes), dtype=dataset.X.dtype)
    soft[all_rows] = softmax(teacher.predict(dataset.X[all_rows]))
    return train_fn(all_rows, soft)
