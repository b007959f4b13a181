"""Seeded input generators for the benchmark workloads.

Everything here is a function of the workload seed only; the package under
test receives the generated arrays or files and nothing else.
"""

from __future__ import annotations

import json

import numpy as np

N_NUMERICAL = 20
N_CATEGORICAL = 10
N_LEVELS = 8


def make_mixture(n: int = 2000, d: int = 20, seed: int = 0):
    """The acceptance-suite mixture (``tests/test_acceptance.py:make_mixture``),
    reproduced draw for draw so seed 0 gives the data of criteria 5 and 7."""
    from tabpretrain.data import ProcessedDataset

    rng = np.random.default_rng(seed)
    mu = rng.uniform(0.5, 0.7, size=d) * rng.choice([-1.0, 1.0], size=d)
    y = rng.integers(0, 2, size=n)
    X = np.where(y[:, None] == 1, mu, -mu) + rng.normal(size=(n, d))
    return ProcessedDataset(
        X, y, [X[:, j].copy() for j in range(d)], ["numerical"] * d, {},
        [(j, j + 1) for j in range(d)], ["0", "1"],
    )


def mixed_table(n: int, seed: int, missing_rate: float = 0.0):
    """Header, schema kinds and string rows of a two-class table with
    N_NUMERICAL numerical and N_CATEGORICAL categorical features of N_LEVELS
    levels each. Both kinds carry class signal: numerical features follow the
    mixture above, categorical levels lean to one half of the alphabet per
    class. A ``missing_rate`` share of feature cells is left empty."""
    rng = np.random.default_rng(seed)
    mu = rng.uniform(0.5, 0.7, size=N_NUMERICAL) * rng.choice([-1.0, 1.0], size=N_NUMERICAL)
    y = rng.integers(0, 2, size=n)
    num = np.where(y[:, None] == 1, mu, -mu) + rng.normal(size=(n, N_NUMERICAL))
    half = N_LEVELS // 2
    lean = rng.random((n, N_CATEGORICAL)) < 0.7
    level = rng.integers(0, half, size=(n, N_CATEGORICAL))
    level = level + half * (lean == (y[:, None] == 1))
    empty = rng.random((n, N_NUMERICAL + N_CATEGORICAL)) < missing_rate

    header = [f"n{j}" for j in range(N_NUMERICAL)] + [f"c{j}" for j in range(N_CATEGORICAL)] + ["label"]
    kinds = ["numerical"] * N_NUMERICAL + ["categorical"] * N_CATEGORICAL + ["label"]
    rows = []
    for i in range(n):
        cells = [f"{v:.6f}" for v in num[i]] + [f"c{j}l{level[i, j]}" for j in range(N_CATEGORICAL)]
        cells = ["" if e else c for c, e in zip(cells, empty[i])]
        cells.append("pos" if y[i] else "neg")
        rows.append(cells)
    return header, kinds, rows


def write_table(csv_path, schema_path, header, kinds, rows) -> None:
    with open(csv_path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(r) + "\n" for r in rows)
    with open(schema_path, "w") as fh:
        json.dump(dict(zip(header, kinds)), fh)
