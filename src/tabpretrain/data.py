"""CSV ingestion, imputation, scaling, one-hot encoding, splits, and the
label-noise / label-masking protocols.

Datasets arrive as a CSV with a header row (empty cells mean missing) plus a
JSON schema sidecar mapping each column name to one of "numerical",
"categorical", or "label"; both are UTF-8, and the CSV may start with a
byte-order mark. Exactly one label column is required, no header name may
repeat, every row needs a label, every present numerical cell must be a
finite number, and at least one feature column must have a value. Ingestion
and `scale` each hold one copy of the encoded table, with no full-size
temporaries on the way.
"""

from __future__ import annotations

import csv
import json
import math
from array import array
from collections import Counter
from dataclasses import dataclass, field, replace
from itertools import accumulate

import numpy as np

MISSING = None  # internal missing marker; empty CSV cells map to it

KINDS = ("numerical", "categorical", "label")
SCALINGS = ("zscore", "minmax", "mean", "none")


class IngestionError(ValueError):
    """Malformed CSV input or schema mismatch."""


@dataclass
class Schema:
    names: list[str]
    kinds: list[str]

    def __post_init__(self):
        for k in self.kinds:
            if k not in KINDS:
                raise IngestionError(f"unknown column kind {k!r}")
        if self.kinds.count("label") != 1:
            raise IngestionError("schema must declare exactly one label column")
        if len(self.names) < 2:
            raise IngestionError("schema needs at least one feature column")

    @classmethod
    def from_file(cls, path) -> "Schema":
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise IngestionError("schema file must be a JSON object of column -> kind")
        return cls(list(raw.keys()), list(raw.values()))


@dataclass
class RawTable:
    """Column-major cells: a numerical column is a float64 array with NaN for
    a missing cell, any other column a list of strings with MISSING."""

    names: list[str]
    kinds: list[str]
    columns: list

    @property
    def n_rows(self) -> int:
        return len(self.columns[0]) if self.columns else 0

    def gaps(self, j: int) -> np.ndarray:
        """Boolean mask of the missing cells of column j."""
        if self.kinds[j] == "numerical":
            return np.isnan(self.columns[j])
        return np.array([c is MISSING for c in self.columns[j]], dtype=bool)


def _parse_number(cell: str, name: str, row: int) -> float:
    """A numerical cell as a float, NaN when empty. Text, nan or inf raises
    IngestionError naming the column and the CSV row (the header is row 1)."""
    if cell == "":
        return math.nan
    try:
        value = float(cell)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise IngestionError(f"column {name!r}, row {row}: {cell!r} is not a finite number")
    return value


def load_csv(path, schema: Schema) -> RawTable:
    """Read the CSV, as UTF-8 with an optional byte-order mark, in schema
    column order. A header that names a column twice raises IngestionError
    before any row is read. Numerical cells are parsed as they are read into
    a compact float64 buffer per column, 8 bytes a cell, which becomes the
    column's array once at the end; an empty label cell raises
    IngestionError naming its row."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestionError(f"{path}: empty file") from None
        repeated = sorted(name for name, count in Counter(header).items() if count > 1)
        if repeated:
            raise IngestionError(f"{path}: header names column(s) more than once: {repeated}")
        if set(header) != set(schema.names):
            unknown = set(header) - set(schema.names)
            missing = set(schema.names) - set(header)
            bad = sorted(unknown | missing)
            raise IngestionError(f"{path}: header does not match schema, offending column(s): {bad}")
        order = [header.index(name) for name in schema.names]
        numerical = [kind == "numerical" for kind in schema.kinds]
        label = schema.kinds.index("label")
        columns = [array("d") if num else [] for num in numerical]
        for rownum, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise IngestionError(f"{path}: row {rownum} has {len(row)} cells, expected {len(header)}")
            for j, (col, src) in enumerate(zip(columns, order)):
                cell = row[src].strip()
                if numerical[j]:
                    col.append(_parse_number(cell, schema.names[j], rownum))
                elif cell:
                    col.append(cell)
                elif j == label:
                    raise IngestionError(f"{path}: row {rownum} has no label")
                else:
                    col.append(MISSING)
    columns = [np.array(col, dtype=float) if num else col for col, num in zip(columns, numerical)]
    return RawTable(list(schema.names), list(schema.kinds), columns)


def drop_empty_columns(table: RawTable) -> RawTable:
    """The table without its all-missing feature columns; IngestionError if
    no feature column is left."""
    keep = [j for j in range(len(table.names))
            if table.kinds[j] == "label" or not table.gaps(j).all()]
    if len(keep) == 1:  # the label alone
        raise IngestionError("no feature column has a value")
    return RawTable(
        [table.names[j] for j in keep],
        [table.kinds[j] for j in keep],
        [table.columns[j] for j in keep],
    )


def impute(table: RawTable) -> RawTable:
    """Fill missing cells: numerical -> mean of the present cells in row
    order, categorical -> mode.

    Mode ties break to the lexicographically smallest category. Statistics are
    computed over the full dataset by design (scalers, by contrast, fit on the
    training split only).
    """
    columns = []
    for j, (name, kind, col) in enumerate(zip(table.names, table.kinds, table.columns)):
        gaps = table.gaps(j)
        if gaps.all():
            raise IngestionError(f"column {name!r} is entirely missing; drop it first")
        if not gaps.any():
            columns.append(col.copy())
        elif kind == "numerical":
            filled = col.copy()
            filled[gaps] = col[~gaps].mean()
            columns.append(filled)
        else:
            counts = Counter(c for c in col if c is not MISSING)
            best = max(counts.values())
            fill = min(c for c, n in counts.items() if n == best)
            columns.append([fill if c is MISSING else c for c in col])
    return RawTable(list(table.names), list(table.kinds), columns)


@dataclass
class ProcessedDataset:
    """Encoded features X, one row per example, and integer class labels y.

    feature_blocks[j] is the half-open range of X's columns that encode
    feature j: one column for a numerical feature, one binary column per
    observed category for a categorical one. X is the only copy of the
    features; corruption replaces whole blocks of it. numerical_columns lists
    the columns that `scale` rescales.
    """

    X: np.ndarray
    y: np.ndarray
    feature_blocks: list[tuple[int, int]]
    classes: list[str]
    numerical_columns: list[int] = field(default_factory=list)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def M(self) -> int:
        return len(self.feature_blocks)

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    @property
    def column_feature(self) -> np.ndarray:
        """Feature index of each encoded column."""
        return np.repeat(np.arange(self.M), [hi - lo for lo, hi in self.feature_blocks])


def _codes(cells: list, levels: list) -> np.ndarray:
    """Index of each cell in `levels`, as int64."""
    index = {level: k for k, level in enumerate(levels)}
    return np.fromiter((index[c] for c in cells), dtype=np.int64, count=len(cells))


def one_hot(table: RawTable) -> ProcessedDataset:
    """Encode an imputed table, unscaled. Numerical features pass through;
    each categorical feature becomes one binary column per observed category,
    in first-appearance order. Class indices follow first appearance in file
    order. X is allocated once, at its final width, and each feature's block
    is written into it."""
    feat_idx = [j for j, k in enumerate(table.kinds) if k != "label"]
    levels = {j: list(dict.fromkeys(table.columns[j]))
              for j in feat_idx if table.kinds[j] == "categorical"}
    ends = list(accumulate(len(levels[j]) if j in levels else 1 for j in feat_idx))
    blocks = list(zip([0] + ends[:-1], ends))
    X = np.zeros((table.n_rows, ends[-1]))
    for j, (lo, _) in zip(feat_idx, blocks):
        if j in levels:
            X[np.arange(table.n_rows), lo + _codes(table.columns[j], levels[j])] = 1.0
        else:
            X[:, lo] = table.columns[j]
    label_col = table.columns[table.kinds.index("label")]
    classes = list(dict.fromkeys(label_col))
    numerical = [lo for j, (lo, _) in zip(feat_idx, blocks) if j not in levels]
    return ProcessedDataset(X, _codes(label_col, classes), blocks, classes, numerical)


def encode_csv(csv_path, schema: Schema) -> ProcessedDataset:
    """Load, drop all-missing columns, impute and encode; no scaling."""
    return one_hot(impute(drop_empty_columns(load_csv(csv_path, schema))))


def scale(dataset: ProcessedDataset, train_indices, kind: str = "zscore") -> ProcessedDataset:
    """Copy of the dataset whose numerical columns are scaled with statistics
    of the given training rows; the other columns are left as they are.

    A numerical column becomes (x - center) / denom, 0 where denom is 0:
    zscore takes the mean and the population standard deviation (divide by
    n), minmax the minimum and the range, mean the mean and the range, and
    none leaves it as it is. The copy of X is the one full-size array made:
    one numerical column of it at a time is rescaled in place."""
    if kind not in SCALINGS:
        raise ValueError(f"unknown scaling kind {kind!r}")
    cols = np.asarray(dataset.numerical_columns, dtype=int)
    X = dataset.X.copy()
    if kind == "none":
        return replace(dataset, X=X)
    train = X[np.ix_(train_indices, cols)].astype(float, copy=False)
    center = train.min(axis=0) if kind == "minmax" else train.mean(axis=0)
    denom = train.std(axis=0) if kind == "zscore" else train.max(axis=0) - train.min(axis=0)
    for c, mu, d in zip(cols, center, denom):
        X[:, c] = (X[:, c] - mu) / d if d != 0 else 0.0
    return replace(dataset, X=X)


@dataclass
class Splits:
    train: np.ndarray
    validation: np.ndarray
    test: np.ndarray


def _round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


def make_splits(n: int, seed: int) -> Splits:
    """Seeded 70/10/20 partition (round-half-up on the first two, test takes
    the remainder)."""
    if n < 10:
        raise ValueError("need at least 10 rows to split")
    perm = np.random.default_rng(seed).permutation(n)
    n_train = _round_half_up(0.7 * n)
    n_val = _round_half_up(0.1 * n)
    return Splits(perm[:n_train], perm[n_train : n_train + n_val], perm[n_train + n_val :])


def corrupt_labels(
    y_train: np.ndarray, noise_rate: float, num_classes: int, rng: np.random.Generator
) -> np.ndarray:
    """Redraw exactly round(noise_rate * n) labels uniformly over all classes
    (the true class included)."""
    if not 0.0 <= noise_rate <= 1.0:
        raise ValueError("noise_rate must lie in [0, 1]")
    y = np.asarray(y_train).copy()
    k = _round_half_up(noise_rate * len(y))
    chosen = rng.choice(len(y), size=k, replace=False)
    y[chosen] = rng.integers(0, num_classes, size=k)
    return y


def mask_labels(
    train_indices: np.ndarray, labeled_fraction: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Seeded partition of the training indices into (labeled, unlabeled)."""
    if not 0.0 < labeled_fraction <= 1.0:
        raise ValueError("labeled_fraction must lie in (0, 1]")
    idx = np.asarray(train_indices)
    perm = rng.permutation(len(idx))
    k = _round_half_up(labeled_fraction * len(idx))
    return idx[perm[:k]], idx[perm[k:]]


def process_csv(
    csv_path, schema: Schema, splits_seed: int, scaling: str = "zscore"
) -> tuple[ProcessedDataset, Splits]:
    """Full pipeline: encode, split, scale the numerical columns with
    statistics of the training rows only."""
    dataset = encode_csv(csv_path, schema)
    splits = make_splits(dataset.n, splits_seed)
    return scale(dataset, splits.train, scaling), splits
