"""Corrupted-view generation: marginal sampling and its ablation variants.

Everything works on the encoded matrix X. Corruption reads one context besides
the batch, the settings and the rng: the phase's `MarginalPool`, which holds
X, the training rows, the feature blocks and their encoded-column map, and the
learnable missing values. A marginal draw for feature j is block j of a
uniformly chosen training row, which the pool reads from X itself.
`corrupt_batch` draws the (B, M) boolean feature mask through `select_indices`,
expands it to encoded columns, builds one replacement matrix (donor gather,
train means, noise, zeros or learnable values) and writes it with one
`np.where`; untouched cells stay bit-identical, and the views keep the batch's
floating dtype.

Draw order from the run RNG is fixed: each `corrupt_batch` draws its mask,
one (B, M) uniform matrix (one row under shared_batch; bernoulli then redraws
only the rows that came out empty), under every strategy, then one donor draw:
(B, M) per-cell donors for marginal, (B,) row donors for joint, one donor for
single_row, or one (B, M_enc) normal matrix for gaussian. The settings are
the corruption fields of `training.Hyperparameters`, which checks each
field's type and value when built.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from tabpretrain.data import ProcessedDataset
from tabpretrain.nn import as_float

if TYPE_CHECKING:
    from tabpretrain.training import Hyperparameters

STRATEGIES = ("marginal", "none", "mean", "gaussian", "joint", "missing_learnable", "zero")


class ConfigurationError(ValueError):
    """An illegal hyperparameter, or missing_learnable without its values."""


def check_type(what: str, key: str, value, default) -> None:
    """Raise ConfigurationError naming `what` and `key` unless `value` is of
    the type of `default`: an int also passes for a float, a bool never for a
    number."""
    kind = type(default)
    allowed = {int: numbers.Integral, float: numbers.Real}.get(kind, kind)
    if not isinstance(value, allowed) or (isinstance(value, bool) and kind is not bool):
        raise ConfigurationError(f"{what} {key!r} must be of type {kind.__name__}, not {value!r}")


@dataclass
class MarginalPool:
    """What corruption reads besides the batch, the settings and the rng: the
    encoded matrix, the training rows `X[rows]` whose feature blocks are the
    marginal draws, and the learnable missing values of missing_learnable,
    which the scarf phase that steps them sets. X is not copied, so nothing
    may write into it while the pool is in use."""

    X: np.ndarray  # the encoded matrix, (n, M_enc)
    rows: np.ndarray  # the training row indices
    feature_blocks: list[tuple[int, int]]
    learnable: np.ndarray | None = None  # (M_enc,), stepped in place

    @cached_property
    def column_feature(self) -> np.ndarray:
        """Feature index of each encoded column."""
        return np.repeat(np.arange(len(self.feature_blocks)), [hi - lo for lo, hi in self.feature_blocks])

    @cached_property
    def encoded_mean(self) -> np.ndarray:
        """Training-split means of the encoded columns, for the mean strategy."""
        return self.X[self.rows].mean(axis=0)

    @cached_property
    def distinct_rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """unique_pool draw table: per feature, the pool positions where each
        distinct block first occurs, as (concatenated positions, start, count).
        Built on first use, so pools that never dedupe never pay for it."""
        firsts = [_first_occurrences(self.X[self.rows, lo:hi]) for lo, hi in self.feature_blocks]
        count = np.array([len(f) for f in firsts])
        return np.concatenate(firsts), np.cumsum(count) - count, count


def _first_occurrences(block: np.ndarray) -> np.ndarray:
    order = np.lexsort(block.T)  # stable: equal rows keep their order
    ordered = block[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    return order[first]


def build_marginal_pool(dataset: ProcessedDataset, train_indices) -> MarginalPool:
    rows = np.asarray(train_indices)
    if rows.size == 0:
        raise ValueError("cannot build a marginal pool from an empty training split")
    return MarginalPool(dataset.X, rows, list(dataset.feature_blocks))


@dataclass
class CorruptionDraw:
    features: np.ndarray  # bool (batch, M): the features select_indices drew
    encoded_mask: np.ndarray  # bool (batch, M_enc): encoded columns that were replaced

    @property
    def index_sets(self) -> list[np.ndarray]:
        """Per-example drawn feature indices, read only by `perfbench/spans.py`'s
        `corruption.cells_replaced` counter; ROADMAP item 1 deletes it."""
        return [np.flatnonzero(row) for row in self.features]


def select_indices(
    M: int, config: Hyperparameters, batch_size: int, rng: np.random.Generator
) -> np.ndarray:
    """The (batch_size, M) boolean feature mask: True marks a feature to corrupt.

    fixed_count marks the q = floor(rate * M) smallest ranks of a uniform row,
    a uniform q-subset; bernoulli marks each feature with probability rate,
    redrawing the rows that came out empty. shared_batch draws one row and
    broadcasts it (read-only) to every example.
    """
    if M < 1:
        raise ValueError("need at least one feature")
    rows = 1 if config.index_sharing == "shared_batch" else batch_size
    if config.index_selection == "fixed_count":
        q = int(np.floor(config.corruption_rate * M))
        hit = np.zeros((rows, M), dtype=bool)
        np.put_along_axis(hit, np.argsort(rng.random((rows, M)), axis=1)[:, :q], True, axis=1)
    else:
        hit = rng.random((rows, M)) < config.corruption_rate
        empty = ~hit.any(axis=1)
        while empty.any():
            hit[empty] = rng.random((int(empty.sum()), M)) < config.corruption_rate
            empty = ~hit.any(axis=1)
    return np.broadcast_to(hit, (batch_size, M))


def corrupt_batch(
    batch: np.ndarray, config: Hyperparameters, pool: MarginalPool, rng: np.random.Generator
) -> tuple[np.ndarray, CorruptionDraw]:
    """Apply the configured strategy to a copy of `batch` at the features of
    the (B, M) mask it draws by `select_indices`, before its donors (none
    replaces nothing). Untouched coordinates stay bit-identical, and the
    result has the batch's floating dtype."""
    batch = as_float(batch)
    strategy = config.corruption_strategy
    if strategy == "missing_learnable" and pool.learnable is None:
        raise ConfigurationError("missing_learnable strategy requires learnable values")
    B, M = batch.shape[0], len(pool.feature_blocks)
    features = select_indices(M, config, B, rng)
    column_feature = pool.column_feature
    mask = features[:, column_feature] & (strategy != "none")

    if strategy in ("marginal", "joint") and config.donor == "single_row":
        replacement = pool.X[pool.rows[rng.integers(0, len(pool.rows))]]
    elif strategy == "joint":
        replacement = pool.X[pool.rows[rng.integers(0, len(pool.rows), size=B)]]
    elif strategy == "marginal":
        if config.unique_pool:
            rows, start, count = pool.distinct_rows
            donors = rows[start + rng.integers(0, count, size=(B, M))]
        else:
            donors = rng.integers(0, len(pool.rows), size=(B, M))
        replacement = pool.X[pool.rows[donors][:, column_feature], np.arange(len(column_feature))]
    elif strategy == "mean":
        replacement = pool.encoded_mean
    elif strategy == "gaussian":
        replacement = batch + rng.normal(0.0, config.gaussian_sigma, size=batch.shape)
    elif strategy == "missing_learnable":
        replacement = pool.learnable
    else:  # zero, and none (whose mask is empty)
        replacement = 0.0
    out = np.where(mask, replacement, batch).astype(batch.dtype, copy=False)
    return out, CorruptionDraw(features, mask)


def make_views(
    batch: np.ndarray, config: Hyperparameters, pool: MarginalPool, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, CorruptionDraw]:
    """Build the two contrastive views. view_b is one `corrupt_batch` of the
    input; view_a is the input itself under corrupt_one (not a copy: no
    caller writes into it), and another `corrupt_batch`, drawn first, under
    corrupt_both. The returned draw describes the rows it corrupted, as the
    learnable-missing gradient needs: view_b's B rows under corrupt_one, and
    view_a's then view_b's, 2B rows stacked, under corrupt_both."""
    if config.view_policy == "corrupt_one":
        view_a = as_float(batch)
    else:
        view_a, draw_a = corrupt_batch(batch, config, pool, rng)
    view_b, draw = corrupt_batch(batch, config, pool, rng)
    if config.view_policy == "corrupt_both":
        draw = CorruptionDraw(np.vstack([draw_a.features, draw.features]),
                              np.vstack([draw_a.encoded_mask, draw.encoded_mask]))
    return view_a, view_b, draw
