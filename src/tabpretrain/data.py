"""CSV ingestion, imputation, scaling, one-hot encoding, splits, a trial's
set-up (`split_and_scale`), and the label-noise / label-masking protocols.

Datasets arrive as a CSV with a header row (empty cells mean missing) plus a
JSON schema sidecar mapping each column name to one of "numerical",
"categorical", or "label"; both are UTF-8, and the CSV may start with a
byte-order mark. Exactly one label column is required, no header name may
repeat, every row needs a label, every present numerical cell must be a
finite number, and at least one feature column must have a value (`impute`
drops the all-missing ones). Every column is one array from the first read: a
numerical cell a float64, any other cell an int32 code into its column's
levels.

Ingestion holds at most two copies of the table at once: the column buffers
and their arrays while reading, the read and the imputed columns while
imputing, and the imputed columns and the encoded X while encoding. On an
all-numeric table each copy is the size of X (a categorical column's int32
codes are smaller than its one-hot block), so ingestion peaks at about twice
X. `scale` takes its statistics over the training rows of the numerical
columns, as one gathered float64 temporary and, for zscore, a centred
temporary of the same size, each 70% of X on an all-numeric table, and frees
them before it makes its one copy of X, in the training dtype (float32, half
of a float64 X). So `scale` peaks at about 1.4 times X on an all-numeric
table, and at about half of X on a table whose numerical columns are few.
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

from tabpretrain.nn import TRAINING_DTYPE

KINDS = ("numerical", "categorical", "label")
SCALINGS = ("zscore", "minmax", "mean", "none")
MIN_SPLIT_ROWS = 10  # the fewest rows `make_splits` partitions


class IngestionError(ValueError):
    """Any malformed input file, or a CSV that does not match its schema."""


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's pairs as a dict; ValueError naming each key that the
    object names more than once, where a dict would keep the last value."""
    repeated = sorted(key for key, count in Counter(key for key, _ in pairs).items() if count > 1)
    if repeated:
        raise ValueError(f"object names key(s) more than once: {repeated}")
    return dict(pairs)


def parse_json_object(text: str, source: str) -> dict:
    """The JSON object that `text` holds, by the package's one JSON rule:
    IngestionError, its message led by `source`, if `text` is not JSON (or
    is nested past the recursion limit), is not a JSON object, or holds an
    object, at any depth, that names a key twice. Every JSON reader of the
    package parses here: `read_json_object` (pin, schema and config files)
    and `rundir.load_runs` (each results line)."""
    try:
        raw = json.loads(text, object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as exc:  # not JSON, a key twice, too deep
        raise IngestionError(f"{source}: {exc}") from exc
    if not isinstance(raw, dict):
        raise IngestionError(f"{source} must be a JSON object, not {type(raw).__name__}")
    return raw


def read_json_object(path, what: str) -> dict:
    """The JSON object in the UTF-8 file at `path`, parsed by
    `parse_json_object`; IngestionError naming the `what` file if it is not
    UTF-8 or if the parse refuses it."""
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_json_object(fh.read(), f"{what} file {path}")
    except UnicodeDecodeError as exc:  # not UTF-8
        raise IngestionError(f"{what} file {path}: {exc}") from exc


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
        """The schema in the JSON object at `path`; each IngestionError names the file."""
        raw = read_json_object(path, "schema")
        try:
            return cls(list(raw.keys()), list(raw.values()))
        except IngestionError as exc:
            raise IngestionError(f"schema file {path}: {exc}") from exc


@dataclass
class RawTable:
    """Column-major cells, one array per column: a numerical column is
    float64 with NaN for a missing cell; any other column is int32 codes into
    its `levels` list (empty for a numerical column), -1 for a missing cell."""

    names: list[str]
    kinds: list[str]
    columns: list[np.ndarray]
    levels: list[list[str]]

    @property
    def n_rows(self) -> int:
        return len(self.columns[0]) if self.columns else 0

    def gaps(self, j: int) -> np.ndarray:
        """Boolean mask of the missing cells of column j."""
        col = self.columns[j]
        return np.isnan(col) if self.kinds[j] == "numerical" else col < 0


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
    column order. A header that names a column twice, or whose cell holds a
    line break (a quote opened it), raises IngestionError before any row is
    read. Each cell goes into a compact buffer per column as it is read,
    which becomes the column's array once at the end: a numerical cell parsed
    to a float64, any other cell the int32 code of its level, numbered in
    first-read order, or -1 when empty. An empty label cell raises
    IngestionError naming its row, and a header with no row after it raises
    IngestionError. So does a field that the csv module refuses, such as one
    opened by a stray quote that runs past the field size limit; the error
    names the row where that field starts. So do bytes that are not UTF-8;
    the file is decoded as it is read, in chunks ahead of the rows, so the
    error names the row they come at or after."""
    rownum = 0  # the last row read whole; the header is row 1
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise IngestionError(f"{path}: empty file")
            if any("\n" in name or "\r" in name for name in header):
                raise IngestionError(f"{path}: row 1: a quote opens a header cell "
                                     "that runs past the end of the line")
            rownum = 1
            repeated = sorted(name for name, count in Counter(header).items() if count > 1)
            if repeated:
                raise IngestionError(f"{path}: header names column(s) more than once: {repeated}")
            if bad := sorted(set(header) ^ set(schema.names)):
                raise IngestionError(f"{path}: header does not match schema, "
                                     f"offending column(s): {bad}")
            order = [header.index(name) for name in schema.names]
            numerical = [kind == "numerical" for kind in schema.kinds]
            label = schema.kinds.index("label")
            columns = [array("d" if num else "i") for num in numerical]
            codes = [{} for _ in numerical]  # level -> code, per non-numerical column
            for rownum, row in enumerate(reader, start=2):
                if len(row) != len(header):
                    raise IngestionError(f"{path}: row {rownum} has {len(row)} cells, "
                                         f"expected {len(header)}")
                for j, (col, src) in enumerate(zip(columns, order)):
                    cell = row[src].strip()
                    if numerical[j]:
                        col.append(_parse_number(cell, schema.names[j], rownum))
                    elif cell:
                        col.append(codes[j].setdefault(cell, len(codes[j])))
                    elif j == label:
                        raise IngestionError(f"{path}: row {rownum} has no label")
                    else:
                        col.append(-1)
    except csv.Error as exc:  # a field the reader refuses starts after the last whole row
        raise IngestionError(f"{path}: row {rownum + 1}: {exc}") from exc
    except UnicodeDecodeError as exc:  # decoded ahead of the reader: at or after the next row
        raise IngestionError(f"{path}: not UTF-8 at row {rownum + 1} or after: "
                             f"{exc.reason}, byte 0x{exc.object[exc.start]:02x}") from exc
    if not columns[label]:
        raise IngestionError(f"{path}: no data rows")
    columns = [np.array(col, dtype=np.float64 if num else np.int32)
               for col, num in zip(columns, numerical)]
    return RawTable(list(schema.names), list(schema.kinds), columns, [list(c) for c in codes])


def impute(table: RawTable) -> RawTable:
    """The table without its all-missing feature columns, IngestionError if
    none is left, and with every missing cell filled: numerical -> mean of
    the present cells in row order, categorical -> mode.

    Mode ties break to the lexicographically smallest category. A filled
    categorical column is renumbered so that its levels follow first
    appearance in the imputed column. Statistics are computed over the full
    dataset by design (scalers, by contrast, fit on the training split only).
    """
    names, kinds, columns, levels = [], [], [], []
    for j, (name, kind, col, col_levels) in enumerate(
            zip(table.names, table.kinds, table.columns, table.levels)):
        gaps = table.gaps(j)
        if gaps.all() and kind != "label":
            continue
        filled = col.copy()
        if gaps.any() and kind == "numerical":
            filled[gaps] = col[~gaps].mean()
        elif gaps.any():
            counts = np.bincount(col[~gaps], minlength=len(col_levels))
            filled[gaps] = min(np.flatnonzero(counts == counts.max()), key=col_levels.__getitem__)
            order = np.argsort(np.unique(filled, return_index=True)[1])  # codes by first appearance
            # argsort of that permutation is its inverse: the new code of each old one
            filled = np.argsort(order).astype(np.int32)[filled]
            col_levels = [col_levels[k] for k in order]
        names.append(name)
        kinds.append(kind)
        columns.append(filled)
        levels.append(list(col_levels))
    if len(names) == 1:  # the label alone
        raise IngestionError("no feature column has a value")
    return RawTable(names, kinds, columns, levels)


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


def one_hot(table: RawTable) -> ProcessedDataset:
    """Encode an imputed table, unscaled. Numerical features pass through;
    each categorical feature becomes one binary column per level, in the
    table's level order (first appearance, after `impute`). Class indices are
    the label column's codes (first appearance in file order). X is allocated
    once, at its final width, and each feature's block is written into it
    straight from the codes."""
    feat_idx = [j for j, k in enumerate(table.kinds) if k != "label"]
    numerical = [table.kinds[j] == "numerical" for j in feat_idx]
    ends = list(accumulate(1 if num else len(table.levels[j]) for j, num in zip(feat_idx, numerical)))
    blocks = list(zip([0] + ends[:-1], ends))
    X = np.zeros((table.n_rows, ends[-1]))
    for j, num, (lo, _) in zip(feat_idx, numerical, blocks):
        if num:
            X[:, lo] = table.columns[j]
        else:
            X[np.arange(table.n_rows), lo + table.columns[j]] = 1.0
    label = table.kinds.index("label")
    numerical_columns = [lo for num, (lo, _) in zip(numerical, blocks) if num]
    return ProcessedDataset(X, table.columns[label].astype(np.int64), blocks,
                            list(table.levels[label]), numerical_columns)


def encode_csv(csv_path, schema: Schema) -> ProcessedDataset:
    """Load, impute (dropping the all-missing columns) and encode; no scaling."""
    return one_hot(impute(load_csv(csv_path, schema)))


def scale(dataset: ProcessedDataset, train_indices, kind: str = "zscore") -> ProcessedDataset:
    """Copy of the dataset, with X in `nn.TRAINING_DTYPE`, whose numerical
    columns are scaled with statistics of the given training rows; the other
    columns are left as they are.

    A numerical column becomes (x - center) / denom, 0 where denom is 0:
    zscore takes the mean and the population standard deviation (divide by
    n), minmax the minimum and the range, mean the mean and the range, and
    none leaves it as it is. The statistics are taken in float64 over the
    gather `X[np.ix_(train_indices, cols)]`, and zscore's standard deviation
    makes a centred temporary of that size: on an all-numeric float64 table
    each holds the training share of X. Both die before X is cast once into
    the training dtype. Each numerical column is then computed in float64
    from the source column and rounded once as it is stored, so the result
    is, bit for bit, the float64 scaled copy cast to the training dtype,
    without that copy. A kind that takes statistics refuses an empty
    `train_indices`."""
    if kind not in SCALINGS:
        raise ValueError(f"unknown scaling kind {kind!r}")
    if kind == "none":
        return replace(dataset, X=dataset.X.astype(TRAINING_DTYPE))
    if len(train_indices) == 0:
        raise ValueError(f"{kind} scaling needs at least one training row")
    cols = np.asarray(dataset.numerical_columns, dtype=int)
    train = dataset.X[np.ix_(train_indices, cols)].astype(float, copy=False)
    center = train.min(axis=0) if kind == "minmax" else train.mean(axis=0)
    denom = train.std(axis=0) if kind == "zscore" else train.max(axis=0) - train.min(axis=0)
    del train  # the statistics' temporaries die before the copy is allocated
    X = dataset.X.astype(TRAINING_DTYPE)
    for c, mu, d in zip(cols, center, denom):
        X[:, c] = (dataset.X[:, c] - mu) / d if d != 0 else 0.0
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
    if n < MIN_SPLIT_ROWS:
        raise ValueError(f"need at least {MIN_SPLIT_ROWS} rows to split")
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


def split_and_scale(dataset: ProcessedDataset, splits_seed: int,
                    scaling: str = "zscore") -> tuple[ProcessedDataset, Splits]:
    """The one set-up of a trial: the splits of `splits_seed`, and `scale`'s
    copy of the encoded `dataset`, scaled by `scaling` on their training
    rows, with its `X` read-only, so that every method of the trial can
    share it; a write into it raises ValueError. The caller's `X` is left
    as it was and stays writable."""
    splits = make_splits(dataset.n, splits_seed)
    scaled = scale(dataset, splits.train, scaling)
    scaled.X.flags.writeable = False
    return scaled, splits


def process_csv(
    csv_path, schema: Schema, splits_seed: int, scaling: str = "zscore"
) -> tuple[ProcessedDataset, Splits]:
    """Full pipeline: encode, then `split_and_scale`."""
    return split_and_scale(encode_csv(csv_path, schema), splits_seed, scaling)
