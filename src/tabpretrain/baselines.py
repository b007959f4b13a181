"""Semi-supervised and regularization baselines: mixup, self-training,
tri-training, self-distillation.

The pseudo-labeling loops take a train_fn so they compose with a pre-trained
encoder: train_fn(labeled_rows, labels_for_rows, soft_targets) must train a
fresh (or warm-started) model and return a ModelBundle. Pseudo-labels are
frozen once assigned and original labels are never overwritten.
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


def self_train(
    dataset,
    labeled: np.ndarray,
    unlabeled: np.ndarray,
    train_fn,
    threshold: float = 0.75,
    iterations: int = 10,
):
    """Iterative pseudo-labeling: each round, train on the current pool and
    absorb unlabeled rows whose max softmax clears the threshold. A final model
    is trained on the final pool."""
    if not 0.0 < threshold <= 1.0:
        raise ValueError("threshold must lie in (0, 1]")
    pool_rows = list(np.asarray(labeled))
    pool_labels = {int(i): int(dataset.y[i]) for i in pool_rows}
    remaining = list(np.asarray(unlabeled))
    for _ in range(iterations):
        labels = np.array([pool_labels[int(i)] for i in pool_rows])
        model = train_fn(np.array(pool_rows), labels, None)
        if not remaining:
            continue
        probs = softmax(model.predict(dataset.X[np.array(remaining)]))
        confident = probs.max(axis=1) >= threshold
        for r, keep, cls in zip(list(remaining), confident, probs.argmax(axis=1)):
            if keep:
                pool_labels[int(r)] = int(cls)
                pool_rows.append(r)
        remaining = [r for r, keep in zip(remaining, confident) if not keep]
    labels = np.array([pool_labels[int(i)] for i in pool_rows])
    return train_fn(np.array(pool_rows), labels, None), np.array(pool_rows)


def tri_train(
    dataset,
    labeled: np.ndarray,
    unlabeled: np.ndarray,
    train_fn,
    rng: np.random.Generator,
    iterations: int = 10,
):
    """Three models seeded with bootstrap resamples of the labeled set; an
    unlabeled row joins model k's pool once the other two agree on its class.
    The final model trains on the union of the three pools."""
    labeled = np.asarray(labeled)
    unlabeled = np.asarray(unlabeled)
    boots = [rng.choice(labeled, size=len(labeled), replace=True) for _ in range(3)]
    pools = [{int(i): int(dataset.y[i]) for i in b} for b in boots]
    pool_rows = [list(b) for b in boots]
    for _ in range(iterations):
        models = []
        for rows, pool in zip(pool_rows, pools):
            labels = np.array([pool[int(i)] for i in rows])
            models.append(train_fn(np.array(rows), labels, None))
        if unlabeled.size == 0:
            continue
        preds = [m.predict(dataset.X[unlabeled]).argmax(axis=1) for m in models]
        for k in range(3):
            i, j = [m for m in range(3) if m != k]
            agree = preds[i] == preds[j]
            for r, ok, cls in zip(unlabeled, agree, preds[i]):
                if ok and int(r) not in pools[k]:
                    pools[k][int(r)] = int(cls)
                    pool_rows[k].append(r)
    union: dict[int, int] = {}
    for pool in pools:
        for r, cls in pool.items():
            union.setdefault(r, cls)
    for i in labeled:  # original labels take precedence in the union
        union[int(i)] = int(dataset.y[i])
    rows = np.array(sorted(union))
    labels = np.array([union[int(r)] for r in rows])
    return train_fn(rows, labels, None), rows


def self_distill(dataset, labeled: np.ndarray, unlabeled: np.ndarray, train_fn):
    """Teacher on the labeled rows, student on labeled + unlabeled rows against
    the teacher's softmax vectors as soft targets."""
    labeled = np.asarray(labeled)
    unlabeled = np.asarray(unlabeled)
    teacher = train_fn(labeled, dataset.y[labeled], None)
    all_rows = np.concatenate([labeled, unlabeled]) if unlabeled.size else labeled
    soft = np.zeros((dataset.n, dataset.num_classes))
    soft[all_rows] = softmax(teacher.predict(dataset.X[all_rows]))
    return train_fn(all_rows, None, soft)
