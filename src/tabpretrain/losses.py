"""Contrastive and auxiliary pre-training objectives.

Every loss returns (value, gradients) with gradients averaged so that they are
the exact derivatives of the returned scalar, computed in the floating dtype
of the inputs (float32 in training, float64 in the oracles). The three
contrastive losses, InfoNCE, Barlow Twins and alignment/uniformity, take the
embeddings z and zt of the two views and return (value, grad_z, grad_zt), or
with `value_only=True` the float value alone, bit for bit the same, as soon as
it is computed; InfoNCE forms the similarities z @ zt.T itself. InfoNCE keeps
the 1/N factor inside the log denominator, so its value differs from the more
common convention by exactly -log N while the gradients coincide.
"""

from __future__ import annotations

import numpy as np

from tabpretrain.nn import ShapeError, as_float


def _two_views(z: np.ndarray, zt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The embeddings of the two views as floating arrays of one shape."""
    z, zt = as_float(z), as_float(zt)
    if z.shape != zt.shape:
        raise ShapeError("view embeddings must share a shape")
    return z, zt


def infonce(z: np.ndarray, zt: np.ndarray, temperature: float, value_only: bool = False):
    """Mean over rows of -log(exp(s_ii/t) / mean_k exp(s_ik/t)) on the
    similarities s = z @ zt.T of the two views' embeddings (rows already unit
    norm), with the gradients w.r.t. z and zt."""
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    z, zt = _two_views(z, zt)
    st = (z @ zt.T) / temperature
    n = st.shape[0]
    row_max = st.max(axis=1, keepdims=True)
    e = np.exp(st - row_max)
    sums = e.sum(axis=1, keepdims=True)
    lse = np.log(sums[:, 0]) + row_max[:, 0]
    # per-row: -s_ii/t + log((1/n) sum_k exp(s_ik/t))
    loss = float(np.mean(-np.diag(st) + lse - np.log(st.dtype.type(n))))
    if value_only:
        return loss
    grad_s = np.divide(e, sums, out=e)  # the row softmax p
    grad_s[np.arange(n), np.arange(n)] -= 1.0
    grad_s /= n * temperature
    return loss, grad_s @ zt, grad_s.T @ z


def infonce_error(z: np.ndarray, zt: np.ndarray) -> float:
    """Fraction of rows of s = z @ zt.T whose argmax is off the diagonal (ties
    break to the smallest index)."""
    z, zt = _two_views(z, zt)
    return float(np.mean((z @ zt.T).argmax(axis=1) != np.arange(len(z))))


def binary_logistic(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    logits = as_float(logits).reshape(-1)
    labels = np.asarray(labels, dtype=logits.dtype).reshape(-1)
    if logits.shape != labels.shape:
        raise ShapeError("logits and labels lengths differ")
    if not np.all((labels == 0) | (labels == 1)):
        raise ValueError("labels must be 0 or 1")
    n = logits.size
    # log(1 + exp(-x)) computed stably via logaddexp
    loss = float(np.mean(np.logaddexp(0.0, logits) - labels * logits))
    sigma = 1.0 / (1.0 + np.exp(-logits))
    grad = (sigma - labels) / n
    return loss, grad


def _batch_norm_columns(z: np.ndarray, eps: float = 1e-12):
    mu = z.mean(axis=0)
    centered = z - mu
    std = np.sqrt((centered**2).mean(axis=0))
    denom = std + eps
    return centered / denom, centered, std, denom


def _batch_norm_backward(grad_y, centered, std, denom):
    n = centered.shape[0]
    safe_std = np.where(std == 0.0, 1.0, std)
    term = centered * ((grad_y * centered).sum(axis=0) / (n * safe_std * denom**2))
    return (grad_y - grad_y.mean(axis=0)) / denom - term


def barlow_twins(z_a: np.ndarray, z_b: np.ndarray, lambda_offdiag: float, value_only: bool = False):
    """Redundancy-reduction loss on the cross-correlation of batch-normalized
    embeddings: sum_d (1 - C_dd)^2 + lambda * sum_{d != e} C_de^2."""
    z_a, z_b = _two_views(z_a, z_b)
    n, d = z_a.shape
    if n < 2:
        raise ValueError("batch normalization needs at least 2 rows")
    (ya, ca, sa, da), (yb, cb, sb, db) = _batch_norm_columns(z_a), _batch_norm_columns(z_b)
    c = ya.T @ yb / n
    off = ~np.eye(d, dtype=bool)
    loss = float(((1.0 - np.diag(c)) ** 2).sum() + lambda_offdiag * (c[off] ** 2).sum())
    if value_only:
        return loss
    grad_c = 2.0 * lambda_offdiag * c
    grad_c[np.arange(d), np.arange(d)] = -2.0 * (1.0 - np.diag(c))
    grad_ya = yb @ grad_c.T / n
    grad_yb = ya @ grad_c / n
    return loss, _batch_norm_backward(grad_ya, ca, sa, da), _batch_norm_backward(grad_yb, cb, sb, db)


def align_uniform(z: np.ndarray, z_tilde: np.ndarray, weight_align: float, weight_uniform: float,
                  value_only: bool = False):
    """a * mean_i ||z_i - zt_i||^2 + u * log(mean_{i != j} exp(-2||z_i - z_j||^2)),
    the uniformity term over original-view pairs."""
    z, zt = _two_views(z, z_tilde)
    n = z.shape[0]
    if n < 2:
        raise ValueError("uniformity needs at least 2 rows")
    diff = z - zt
    align = (diff**2).sum() / n
    # ||z_i - z_j||^2 from the Gram matrix, clipped at 0 against rounding
    norms = (z * z).sum(axis=1)
    sq = np.maximum(norms[:, None] + norms[None, :] - 2.0 * (z @ z.T), 0.0)
    off = ~np.eye(n, dtype=bool)
    expv = np.where(off, np.exp(-2.0 * sq), 0.0)
    total = expv.sum()
    uniform = np.log(total / (n * (n - 1)))
    loss = float(weight_align * align + weight_uniform * uniform)
    if value_only:
        return loss
    grad_z = weight_align * 2.0 * diff / n
    grad_zt = -weight_align * 2.0 * diff / n
    # d/dz_i of log(sum): each unordered pair appears twice in the ordered sum
    w = expv / total
    grad_uniform = -8.0 * (z * w.sum(axis=1, keepdims=True) - w @ z)
    grad_uniform *= weight_uniform
    grad_z += grad_uniform
    return loss, grad_z, grad_zt
