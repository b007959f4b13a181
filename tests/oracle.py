"""Output oracle: one digest per entry of a fixed `run_method` grid, and one
over all entries.

Run as `python tests/oracle.py [--margins [--salts K]]`. It prints an `env`
line, then one line per entry, `<digest> <dataset> <variant> <setting>
<method>`, then `overall <digest>` and the runtime. Digests depend on the BLAS
build and on the kernels that OpenBLAS picks for the CPU at run time (the
`core` of the `env` line), so they compare only between runs with the same
`env` line; the script runs numpy on one BLAS thread.

`tests/oracle_digests.txt` holds that output without the runtime line.
`python tests/oracle.py --check` reruns the grid and compares it with the file
line by line: after the output it names each line that differs and exits 1.
It exits 1 at once when the `env` line differs. `--against REV` compares with
what git revision REV's own oracle prints on this host instead, so it works
on any host and offline: it exports REV's `src` and `tests` by `git archive`
into a temporary directory, runs that tree's `tests/oracle.py` on that
tree's `src` with the same filters, and after the output names each entry
that moved, was added or was removed, then exits 1 if any line differs.
`--variant NAME` runs only the entries of one hyperparameter variant and
`--method NAME` only those of one method name, both together only those of
both, with no overall digest. A change that must leave outputs alone passes
`--check`; `--against HEAD` names the entries that uncommitted changes
move. A change that moves outputs on purpose regenerates the file with
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
one of at least -0.005. `--margins --salts K` then reruns those 40 trials K
times, rerun k on the same splits and scaling with each method seed salted
by k, and prints both margins of each rerun, then the mean, min and max of
each criterion's margin over the K reruns, so a margin that a change moves can
be told from one that a reseed moves.
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
import subprocess
import tempfile
import time
from functools import lru_cache

import numpy as np

from tabpretrain import training
from tabpretrain.data import ProcessedDataset, Schema, encode_csv, split_and_scale
from tabpretrain.methods import METHODS, SETTINGS, derive_seed, run_method

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
# acceptance criteria 5 and 7: their numbers and settings
CRITERIA = ((5, "semi25"), (7, "noise30"))
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


def run_trial(dataset_id: str, dataset: ProcessedDataset, trial: int, setting: str, method: str,
              hp: training.Hyperparameters, salt: int | None = None) -> dict:
    """`run_method` of one trial of base seed 0, split, scaled and seeded as
    `run_benchmark` does it; salt k keeps the split and the scaling and
    reseeds the method alone, from `f"{method}|{setting}|{k}"`."""
    method_salt = f"{method}|{setting}" + ("" if salt is None else f"|{salt}")
    return run_method(method, *split_and_scale(dataset, derive_seed(0, dataset_id, trial), hp.scaling),
                      setting, derive_seed(0, dataset_id, trial, salt=method_salt), hp)


def entry_digest(entry: tuple[str, str, str, str]) -> str:
    """The digest of trial 0 of `entry`, as `run_trial` runs it unsalted."""
    dataset_id, variant, setting, method = entry
    hp = training.Hyperparameters(**BASE_HP, **VARIANTS[variant])
    try:
        res = run_trial(dataset_id, _dataset(dataset_id), 0, setting, method, hp)
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


def _accuracies(mixture, setting: str, salt: int | None = None) -> dict[str, list[float]]:
    """Control's and scarf's test accuracies on trials 0..9 of the mixture,
    unscaled as criteria 5 and 7 run them, under `run_trial`'s salt."""
    hp = training.Hyperparameters(scaling="none")
    return {method: [run_trial("mixture", mixture, trial, setting, method, hp, salt)["test_accuracy"]
                     for trial in range(10)] for method in ("control", "scarf")}


def margins(salts: int = 0) -> None:
    """Prints criteria 5 and 7's per-trial accuracies and margins; then, for
    each salt k of 1..`salts`, the two margins of the rerun under salt k;
    then each criterion's mean, min and max margin over those reruns."""
    from test_acceptance import make_mixture

    mixture = make_mixture()
    for num, setting in CRITERIA:
        accs = _accuracies(mixture, setting)
        for method, values in accs.items():
            print(f"criterion {num} {setting} {method} " + " ".join(f"{a:.4f}" for a in values))
        print(f"criterion {num} margin {_margin(accs):+.5f}")
    salted = {num: [] for num, _ in CRITERIA}
    for salt in range(1, salts + 1):
        for num, setting in CRITERIA:
            salted[num].append(_margin(_accuracies(mixture, setting, salt)))
            print(f"salt {salt} criterion {num} margin {salted[num][-1]:+.5f}")
    if salts:
        for num, values in salted.items():
            print(f"criterion {num} margin over {salts} salts: mean {np.mean(values):+.5f} "
                  f"min {min(values):+.5f} max {max(values):+.5f}")


def _margin(accs: dict[str, list[float]]) -> float:
    """Scarf's mean accuracy minus control's."""
    return np.mean(accs["scarf"]) - np.mean(accs["control"])


def line_key(line: str) -> str:
    """What a printed line is about: `env`, `overall` or the entry."""
    head, rest = line.split(" ", 1)
    return head if head in ("env", "overall") else rest


def compare(theirs: list[str], ours: list[str], rev: str) -> list[str]:
    """The report of `ours` against `theirs`, REV's lines, matched by
    `line_key`: one line per entry that moved, then per entry that only
    `ours` has (added) or only `theirs` has (removed), then the count."""
    there = {line_key(line): line for line in theirs}
    here = {line_key(line): line for line in ours}
    report = [f"moved: {line} ({rev}: {there[key]})" for key, line in here.items()
              if key in there and there[key] != line]
    report += [f"added: {line}" for key, line in here.items() if key not in there]
    report += [f"removed: {line}" for key, line in there.items() if key not in here]
    return report + [f"against {rev}: {len(report)} of {len(here | there)} lines differ"]


def run_at(rev: str, filters: list[str]) -> list[str]:
    """The lines, without the runtime, that revision `rev`'s own oracle prints
    on its own `src` under `filters`, from a `git archive` of its `src` and
    `tests` in a temporary directory (no worktree, so nothing is written
    into `.git`)."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    tree = subprocess.run(["git", "-C", root, "archive", rev, "src", "tests"],
                          stdout=subprocess.PIPE, check=True).stdout
    with tempfile.TemporaryDirectory() as tmp:
        subprocess.run(["tar", "-x", "-C", tmp], input=tree, check=True)
        env = {**os.environ, "PYTHONPATH": os.path.join(tmp, "src")}
        proc = subprocess.run([sys.executable, os.path.join(tmp, "tests", "oracle.py"), *filters],
                              capture_output=True, text=True, env=env, cwd=tmp)
    if proc.returncode:
        raise SystemExit(f"the oracle at {rev} exited {proc.returncode}:\n{proc.stderr}")
    return [line for line in proc.stdout.splitlines() if not line.startswith("runtime ")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--margins", action="store_true",
                        help="also print criteria 5 and 7's accuracies and margins")
    parser.add_argument("--salts", type=int, default=0, metavar="K",
                        help="with --margins, also rerun those trials with the method seeds "
                             "salted K ways and print each margin's mean, min and max")
    parser.add_argument("--check", action="store_true",
                        help=f"compare with {os.path.basename(DIGESTS)}; exit 1 if a line differs")
    parser.add_argument("--variant", choices=VARIANTS,
                        help="run only the entries of this hyperparameter variant")
    parser.add_argument("--method", choices=METHODS, help="run only the entries of this method")
    parser.add_argument("--against", metavar="REV",
                        help="compare with what git revision REV's oracle prints here; "
                             "exit 1 if a line differs")
    args = parser.parse_args(argv)
    if args.salts < 0 or args.salts and not args.margins:
        parser.error("--salts K needs --margins and K of at least 0")
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
    if args.against:
        filters = [arg for flag in ("variant", "method") if getattr(args, flag)
                   for arg in (f"--{flag}", getattr(args, flag))]
        report = compare(run_at(args.against, filters), [env, *lines], args.against)
        print("\n".join(report), flush=True)
        if len(report) > 1:
            return 1
    if args.margins:
        margins(args.salts)
    return 0


if __name__ == "__main__":
    sys.exit(main())
