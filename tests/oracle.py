"""Output oracle: one digest per entry of a fixed `run_method` grid, and one
over all entries.

Run as `python tests/oracle.py [--margins]`. It prints an `env`
line, then one line per entry, `<digest> <dataset> <variant> <setting>
<method>`, then `overall <digest>` and the runtime. Digests depend on the BLAS
build and on the kernels that OpenBLAS picks for the CPU at run time (the
`core` of the `env` line), so they compare only between runs with the same
`env` line; the script runs numpy on one BLAS thread.

`tests/oracle_digests.txt` holds that output without the runtime line.
`python tests/oracle.py --check` reruns the grid and compares it with the file
line by line: after the output it names each line that differs and exits 1.
It exits 1 at once when the `env` line differs. `--variant NAME` runs only
the entries of one hyperparameter variant and `--method NAME` only those of
one method name, both together only those of both, with no overall digest. A change
that must leave outputs alone passes `--check`. A change that moves outputs on
purpose regenerates the file with
`python tests/oracle.py | grep -v '^runtime ' > tests/oracle_digests.txt`, and
the file's diff names the entries it moved. It also bumps
`methods.RESULTS_VERSION`, which every run directory pins, and appends the
line `<version> <overall digest>` to `tests/results_versions.txt`.

The grid is the 65 method names x 3 settings x 2 datasets of 90 rows (a
numeric one, and one with a 3-level one-hot block and 3 classes) x 14
hyperparameter variants, at hidden width 8 and 3 epochs a phase, plus one
`scarf` entry on a mixed CSV with gaps, ingested by `encode_csv`. An entry
hashes the test accuracy, the epoch counts, both phases' curves, stop
reasons, best epochs and best metrics, or the type and message of the error
that the trial raised.

`--margins` also prints the per-trial accuracies of acceptance criteria 5 and
7 (control and scarf, 10 trials) and their margins, scarf's mean accuracy
minus control's: criterion 5 holds at a margin of at least 0, criterion 7 at
one of at least -0.005.
"""

from __future__ import annotations

import os
import sys

if __name__ == "__main__":  # before numpy loads its BLAS
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

import argparse
import ctypes
import glob
import hashlib
import platform
import tempfile
import time
from functools import lru_cache

import numpy as np

from tabpretrain import training
from tabpretrain.data import ProcessedDataset, Schema, encode_csv, split_and_scale
from tabpretrain.methods import FINETUNERS, SETTINGS, derive_seed, run_method

METHODS = ([*training.PRETRAINERS, *FINETUNERS]
           + [f"{pre}+{recipe}" for pre in training.PRETRAINERS for recipe in FINETUNERS])
BASE_HP = {"hidden_dim": 8, "pretrain_max_epochs": 3, "finetune_max_epochs": 3}
VARIANTS = {
    "defaults": {},
    "corrupt_both": {"view_policy": "corrupt_both"},
    "barlow": {"pretrain_loss": "barlow"},
    "align_uniform": {"pretrain_loss": "align_uniform"},
    "infonce_error": {"validation_metric": "infonce_error"},
    "gaussian": {"corruption_strategy": "gaussian"},
    "unique_bernoulli": {"unique_pool": True, "index_selection": "bernoulli"},
    "single_row_shared_batch": {"donor": "single_row", "index_sharing": "shared_batch"},
    "batch33": {"batch_size": 33},
    "patience1": {"patience": 1},
    "missing_learnable": {"corruption_strategy": "missing_learnable"},
    "missing_learnable_corrupt_both": {"corruption_strategy": "missing_learnable",
                                       "view_policy": "corrupt_both"},
    "joint": {"corruption_strategy": "joint"},
    "mean": {"corruption_strategy": "mean"},
}
GAPS_ENTRY = ("gaps", "defaults", "semi25", "scarf")
DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "oracle_digests.txt")


def _numeric() -> ProcessedDataset:
    rng = np.random.default_rng(0)
    X = rng.normal(size=(90, 5))
    y = (X[:, 0] + X[:, 1] > 0).astype(np.int64)
    return ProcessedDataset(X, y, [(j, j + 1) for j in range(5)], ["0", "1"], list(range(5)))


def _one_hot_block() -> ProcessedDataset:
    rng = np.random.default_rng(1)
    level = rng.integers(0, 3, size=90)
    X = np.hstack([rng.normal(size=(90, 3)), np.eye(3)[level]])
    y = (level + (X[:, 0] > 0.5)) % 3
    return ProcessedDataset(X, y.astype(np.int64), [(0, 1), (1, 2), (2, 3), (3, 6)],
                            ["0", "1", "2"], [0, 1, 2])


def _gaps() -> ProcessedDataset:
    """A 90-row CSV with 2 numerical and 2 categorical columns, about one cell
    in six of each feature column empty."""
    rng = np.random.default_rng(2)
    lines = ["a,b,c,d,label"]
    for _ in range(90):
        a, b = rng.normal(size=2)
        c, d = rng.choice(["x", "y", "z"]), rng.choice(["p", "q"])
        label = "pos" if a + (c == "x") > 0.5 else "neg"
        cells = [f"{a:.6f}", f"{b:.6f}", c, d]
        cells = ["" if rng.random() < 1 / 6 else cell for cell in cells]
        lines.append(",".join(cells + [label]))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "gaps.csv")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        schema = Schema(["a", "b", "c", "d", "label"],
                        ["numerical", "numerical", "categorical", "categorical", "label"])
        return encode_csv(path, schema)


DATASETS = {"numeric": _numeric, "one_hot_block": _one_hot_block, "gaps": _gaps}


def entries() -> list[tuple[str, str, str, str]]:
    """The grid, in print order: (dataset, variant, setting, method)."""
    return [(dataset, variant, setting, method)
            for dataset in ("numeric", "one_hot_block") for variant in VARIANTS
            for setting in SETTINGS for method in METHODS] + [GAPS_ENTRY]


@lru_cache(maxsize=None)
def _dataset(name: str) -> ProcessedDataset:
    return DATASETS[name]()


def _outcome_fields(outcome) -> tuple:
    if outcome is None:
        return (None,)
    return ([float(v) for v in outcome.train_curve], [float(v) for v in outcome.val_curve],
            outcome.epochs_used, outcome.stop_reason, outcome.best_epoch,
            float(outcome.best_metric))


def entry_digest(entry: tuple[str, str, str, str]) -> str:
    """The digest of one trial of `entry`, seeded as `run_benchmark` seeds
    trial 0 of base seed 0."""
    dataset_id, variant, setting, method = entry
    seed = derive_seed(0, dataset_id, 0, salt=f"{method}|{setting}")
    hp = training.Hyperparameters(**BASE_HP, **VARIANTS[variant])
    try:
        res = run_method(method, *split_and_scale(_dataset(dataset_id), derive_seed(0, dataset_id, 0),
                                                  hp.scaling), setting, seed, hp)
        payload = (float(res["test_accuracy"]), res["epochs_used"], res["pretrain_epochs"],
                   _outcome_fields(res["pretrain_outcome"]),
                   _outcome_fields(res["finetune_outcome"]))
    except Exception as exc:  # an error is an output too
        payload = ("error", type(exc).__name__, str(exc))
    return hashlib.sha256(repr(payload).encode()).hexdigest()[:16]


def blas_core() -> str:
    """The kernel set that numpy's bundled OpenBLAS, built with DYNAMIC_ARCH,
    picked for this CPU when it loaded (`OPENBLAS_CORETYPE` overrides it), or
    `unknown` where that library or its symbol is absent."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas64_*")):
        try:
            corename = ctypes.CDLL(path).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return "unknown"


def env_line() -> str:
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return (f"env numpy {np.__version__} blas {blas['name']} {blas['version']} "
            f"python {platform.python_version()} threads {os.environ.get('OPENBLAS_NUM_THREADS')} "
            f"core {blas_core()}")


def margins() -> None:
    from test_acceptance import _trial_accuracies, make_mixture

    by_setting = _trial_accuracies(make_mixture(), ["semi25", "noise30"], ["control", "scarf"])
    for num, setting in ((5, "semi25"), (7, "noise30")):
        accs = by_setting[setting]
        for method in ("control", "scarf"):
            print(f"criterion {num} {setting} {method} "
                  + " ".join(f"{a:.4f}" for a in accs[method]))
        margin = np.mean(accs["scarf"]) - np.mean(accs["control"])
        print(f"criterion {num} margin {margin:+.5f}")


def line_key(line: str) -> str:
    """What a printed line is about: `env`, `overall` or the entry."""
    head, rest = line.split(" ", 1)
    return head if head in ("env", "overall") else rest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--margins", action="store_true",
                        help="also print criteria 5 and 7's accuracies and margins")
    parser.add_argument("--check", action="store_true",
                        help=f"compare with {os.path.basename(DIGESTS)}; exit 1 if a line differs")
    parser.add_argument("--variant", choices=VARIANTS,
                        help="run only the entries of this hyperparameter variant")
    parser.add_argument("--method", choices=METHODS, help="run only the entries of this method")
    args = parser.parse_args(argv)
    start = time.time()
    env = env_line()
    print(env, flush=True)
    if args.check:
        with open(DIGESTS) as fh:
            recorded = {line_key(line): line for line in fh.read().splitlines()}
        if recorded["env"] != env:
            print(f"differs: {os.path.basename(DIGESTS)} holds {recorded['env']!r}", flush=True)
            return 1
    grid = [entry for entry in entries()
            if args.variant in (None, entry[1]) and args.method in (None, entry[3])]
    overall = hashlib.sha256()
    lines = []
    for entry in grid:
        lines.append(f"{entry_digest(entry)} {' '.join(entry)}")
        overall.update((lines[-1] + "\n").encode())
        print(lines[-1], flush=True)
    if args.variant is None and args.method is None:
        lines.append(f"overall {overall.hexdigest()[:16]}")
        print(lines[-1], flush=True)
    print(f"runtime {len(grid)} entries, {time.time() - start:.0f} s", flush=True)
    if args.check:
        differ = [line for line in lines if recorded.get(line_key(line)) != line]
        for line in differ:
            print(f"differs: {line} (file: {recorded.get(line_key(line))})", flush=True)
        print(f"check: {len(differ)} of {len(lines)} lines differ from "
              f"{os.path.basename(DIGESTS)}", flush=True)
        if differ:
            return 1
    if args.margins:
        margins()
    return 0


if __name__ == "__main__":
    sys.exit(main())
