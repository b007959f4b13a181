"""Named training methods and the multi-trial benchmark runner.

A method name is either a fine-tuning recipe ("control", "mixup", ...), a
pre-trainer of `training.PRETRAINERS` ("scarf", "no_noise_ae", ...), or a
"pretrain+recipe" combination such as "scarf+mixup" or "scarf+self_train".
`training.pretrain_scarf(..., pre)` runs every pre-trainer and
`training.finetune(..., recipe=)` every recipe it trains itself; the
pseudo-labeling recipes of `baselines.PSEUDO_LABELERS` call `finetune`.
Within a trial every method sees the same splits; per-trial seeds derive
deterministically from (base_seed, dataset_id, trial).

`run_benchmark` is the one loop over trials, for the library and the CLI. It
and `run_method` take the trial hyperparameters as the one frozen
`training.Hyperparameters` that the trainers read.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import os
import traceback
from collections import Counter
from collections.abc import Callable, Iterator
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack, closing, nullcontext
from dataclasses import asdict, dataclass, replace

import numpy as np

from tabpretrain import baselines, stats, training
from tabpretrain.data import (MIN_SPLIT_ROWS, ProcessedDataset, Splits, corrupt_labels, make_splits,
                              mask_labels, read_json_object, scale, write_json_object)
from tabpretrain.training import (
    FINETUNE_RECIPES,
    Hyperparameters,
    ModelBundle,
    classification_error,
    finetune,
    pretrain_scarf,
)

FINETUNERS = (*FINETUNE_RECIPES, *baselines.PSEUDO_LABELERS)

SETTINGS = ("full", "noise30", "semi25")

# The version of the program's outputs, pinned in every out_dir: bumped by
# each change that moves an entry of tests/oracle_digests.txt, with a line of
# tests/results_versions.txt naming the new overall digest.
RESULTS_VERSION = 1


class UnknownMethodError(ValueError):
    pass


def parse_method(name: str) -> tuple[str | None, str]:
    parts = name.split("+")
    if len(parts) == 1:
        if parts[0] in training.PRETRAINERS:
            return parts[0], "control"
        if parts[0] in FINETUNERS:
            return None, parts[0]
    elif len(parts) == 2 and parts[0] in training.PRETRAINERS and parts[1] in FINETUNERS:
        return parts[0], parts[1]
    raise UnknownMethodError(f"unknown method {name!r}")


def check_method(name: str, hp: Hyperparameters) -> tuple[str | None, str]:
    """`parse_method(name)`, rejecting a method whose every trial fails under
    `hp`: pre-training on batches of fewer than 2 rows, or SCARF views drawn
    under missing_learnable outside scarf pre-training, which alone steps it."""
    pre, recipe = parse_method(name)
    if pre is not None and hp.batch_size < 2:
        raise ValueError(f"method {name!r} pre-trains: its batches need at least 2 examples")
    if hp.corruption_strategy == "missing_learnable" and any(
            name in training.DRAWS_SCARF_VIEWS and name != "scarf" for name in (pre, recipe)):
        raise ValueError(f"method {name!r} corrupts under missing_learnable but never steps "
                         "the learnable vector")
    return pre, recipe


def derive_seed(base_seed: int, dataset_id: str, trial: int, salt: str = "") -> int:
    digest = hashlib.sha256(f"{base_seed}|{dataset_id}|{trial}|{salt}".encode()).digest()
    return int.from_bytes(digest[:8], "big") % (2**63)


def apply_setting(
    dataset: ProcessedDataset, splits: Splits, setting: str, rng: np.random.Generator,
    hp: Hyperparameters,
):
    """Returns (y_effective over all rows, labeled train indices, unlabeled);
    noise30 redraws `hp.noise_rate` of the training labels, and semi25 keeps
    `hp.labeled_fraction` of them."""
    train = np.asarray(splits.train)
    if setting == "full":
        return dataset.y.copy(), train, np.array([], dtype=int)
    if setting == "noise30":
        y = dataset.y.copy()
        y[train] = corrupt_labels(dataset.y[train], hp.noise_rate, dataset.num_classes, rng)
        return y, train, np.array([], dtype=int)
    if setting == "semi25":
        labeled, unlabeled = mask_labels(train, hp.labeled_fraction, rng)
        return dataset.y.copy(), labeled, unlabeled
    raise ValueError(f"unknown setting {setting!r}")


def run_method(
    method: str,
    dataset: ProcessedDataset,
    splits: Splits,
    setting: str,
    seed: int,
    hp: Hyperparameters = Hyperparameters(),
) -> dict:
    """Execute one method on one prepared (dataset, splits) pair under `hp`.

    The setting's training labels replace `dataset.y` for the whole trial,
    and test accuracy is scored once, on the model the recipe returns. X is
    cast once to the weights' dtype, which copies nothing when it comes from
    `scale`, already in that dtype. A method that `check_method` rejects
    under `hp` raises ValueError. Returns test accuracy plus epoch counters
    for the results record."""
    pre, recipe = check_method(method, hp)
    rng = np.random.default_rng(seed)
    y_eff, labeled, unlabeled = apply_setting(dataset, splits, setting, rng, hp)
    bundle = ModelBundle.create(dataset.X.shape[1], dataset.num_classes, rng, hp, pre, recipe)
    # one cast per trial to the weights' dtype (none for `scale`'s output),
    # before any pool or view exists
    dataset = replace(dataset, X=dataset.X.astype(bundle.f.dtype, copy=False), y=y_eff)

    pretrain_outcome = pretrain_scarf(dataset, splits, bundle, hp, rng, pre) if pre else None

    def train_fn(rows, targets):
        """Fresh model (encoder warm-started from the pre-trained `bundle.f`),
        trained on the given rows against the (n, K) `targets`; used by the
        pseudo-labeling baselines."""
        sub = ModelBundle.create(dataset.X.shape[1], dataset.num_classes, rng, hp)
        if pre is not None:
            for p, w in zip(sub.f.parameters(), bundle.f.parameters()):
                p[...] = w
        finetune(dataset, splits, rows, sub, hp, rng, targets=targets)
        return sub

    outcome = None
    if recipe in baselines.PSEUDO_LABELERS:
        model = baselines.PSEUDO_LABELERS[recipe](dataset, labeled, unlabeled, train_fn, rng, hp)
    else:
        outcome = finetune(dataset, splits, labeled, bundle, hp, rng, recipe=recipe)
        model = bundle
    return {
        "test_accuracy": 1.0 - classification_error(model, dataset.X[splits.test],
                                                    dataset.y[splits.test]),
        "epochs_used": outcome.epochs_used if outcome else 0,
        "pretrain_epochs": pretrain_outcome.epochs_used if pretrain_outcome else 0,
        "finetune_outcome": outcome,
        "pretrain_outcome": pretrain_outcome,
    }


@dataclass
class TrialFailure:
    """A trial that raised. It has no results record, so it reruns on resume."""

    dataset_id: str
    method_name: str
    setting: str
    trial_index: int
    error: Exception


def run_benchmark(
    datasets: dict[str, ProcessedDataset | Callable[[], ProcessedDataset]],
    methods: list[str],
    settings: list[str],
    trials: int,
    base_seed: int,
    out_dir=None,
    hp: Hyperparameters = Hyperparameters(),
    jobs: int = 1,
) -> Iterator[stats.MethodRun | TrialFailure]:
    """An iterator that yields, in trial order, a MethodRun (or a TrialFailure
    if it raised) for each (dataset, method, setting, trial) not yet in
    `out_dir/results.jsonl`.

    Datasets come encoded but unscaled, or as zero-argument loaders that the
    calling thread runs only for a dataset with a trial left to run, so a
    resume with nothing to do ingests nothing. The split seed derives from
    (base_seed, dataset, trial) only, so all methods of a trial share the
    split, and each trial scales the numerical columns on its training rows
    by `hp.scaling`.
    The calling thread appends each MethodRun and its curves_*.csv to
    `out_dir` before yielding it, so the files are the same bytes for any
    `jobs` (threads running trials at once). A failure writes no record: it
    appends its key, exception and traceback to `out_dir/failures.jsonl`.
    Every trial reads the one `hp`; a bad hyperparameter raises where the
    caller builds it, before this call.
    The first call into `out_dir` pins what decides its records in
    `out_dir/pin.json`: `base_seed`, `RESULTS_VERSION`, each field of `hp` as
    a top-level key and, by dataset id, the `_data_digest` of each dataset it
    loads; a later call adds the ids new to it. A pin of another results
    version, or of none, is refused like any other difference. The methods,
    settings, `trials` and `jobs` stay free. The checks, the read of the
    completed keys, the loading of the datasets with trials left and the
    creation of a missing `out_dir` run in this call, before it returns the
    iterator: unknown method or setting names, a method or setting named
    twice, a dataset id that is not one file name, a method that
    `check_method` rejects under `hp`, `trials` or `jobs` below 1, a dataset
    that fails to load, has fewer than `MIN_SPLIT_ROWS` rows or gives every
    row one label, and a pin that differs from `out_dir`'s raise here, before
    anything is written; only the data is checked after loading, so a dataset
    with no trial left goes unchecked.
    One call at a time writes to `out_dir`: the call takes an exclusive
    advisory `flock` on the directory itself, one that exists before it reads
    the pin, a missing one as soon as it creates it, and holds it until the
    iterator ends, is closed or is collected, or until the call raises. A
    call that finds the lock taken raises ValueError naming `out_dir` before
    it reads or writes anything there; so does one that created `out_dir` and
    then finds a pin or a results file that another call wrote meanwhile.
    """
    for name, count in (("trials", trials), ("jobs", jobs)):
        if count < 1:
            raise ValueError(f"{name} must be at least 1, got {count}")
    for kind, names in (("method", methods), ("setting", settings)):
        repeated = sorted(name for name, count in Counter(names).items() if count > 1)
        if repeated:
            raise ValueError(f"{kind}(s) named more than once: {repeated}")
    for method in methods:
        check_method(method, hp)
    for setting in settings:
        if setting not in SETTINGS:
            raise ValueError(f"unknown setting {setting!r}")
    for dataset_id in datasets:  # it names the curves files
        if dataset_id in ("", ".", "..") or os.path.basename(dataset_id) != dataset_id:
            raise ValueError(f"dataset id {dataset_id!r} is not one file name")
    locked = out_dir is not None and os.path.exists(out_dir)
    with ExitStack() as held:  # out_dir's lock, released here if this call raises
        if locked:
            held.callback(os.close, _lock_dir(out_dir))
        pin_path = os.path.join(out_dir, "pin.json") if out_dir else None
        pinned = {}
        if pin_path and os.path.exists(pin_path):
            pinned = read_json_object(pin_path, "pin")
        digests = pinned.get("data_digest", {})
        # a pin that holds one string for all its data names no dataset: refused
        pin = {"seed": base_seed, "results_version": RESULTS_VERSION,
               "data_digest": dict(digests) if isinstance(digests, dict) else {}, **asdict(hp)}
        if pinned:
            _check_pin(pin_path, pinned, pin)
        results_path = os.path.join(out_dir, "results.jsonl") if out_dir else None
        done = stats.completed_keys(results_path) if results_path else set()
        todo = [(dataset_id, method, setting, trial)
                for dataset_id in datasets for trial in range(trials)
                for setting in settings for method in methods
                if (dataset_id, method, setting, trial) not in done]
        loaded = {}
        for dataset_id, _, _, _ in todo:
            if dataset_id not in loaded:
                source = datasets[dataset_id]
                dataset = loaded[dataset_id] = source() if callable(source) else source
                if dataset.n < MIN_SPLIT_ROWS:
                    raise ValueError(f"dataset {dataset_id!r} has {dataset.n} rows, fewer than the "
                                     f"{MIN_SPLIT_ROWS} a split needs")
                if (dataset.y == dataset.y[0]).all():
                    raise ValueError(f"dataset {dataset_id!r} labels every row "
                                     f"{dataset.classes[dataset.y[0]]!r}; a classifier needs 2 classes")
        if out_dir is not None:
            here = {dataset_id: _data_digest(dataset) for dataset_id, dataset in loaded.items()}
            there = {dataset_id: pin["data_digest"].get(dataset_id, digest)  # a new id pins its own
                     for dataset_id, digest in here.items()}
            _check_pin(pin_path, {"data_digest": there}, {"data_digest": here})
            pin["data_digest"].update(here)
            if not locked:
                os.makedirs(out_dir, exist_ok=True)
                held.callback(os.close, _lock_dir(out_dir))
                if any(os.path.exists(path) for path in (pin_path, results_path)):
                    raise ValueError(f"{out_dir} was written by another run_benchmark call while "
                                     "this one loaded its data")
            if pin != pinned:  # whole: a torn pin would refuse every resume
                write_json_object(pin_path, pin)
        held = held.pop_all()  # the iterator's now

    def run_one(key):
        dataset_id, method, setting, trial = key
        seed = derive_seed(base_seed, dataset_id, trial, salt=f"{method}|{setting}")
        try:
            splits = make_splits(loaded[dataset_id].n, derive_seed(base_seed, dataset_id, trial))
            res = run_method(method, scale(loaded[dataset_id], splits.train, hp.scaling),
                             splits, setting, seed, hp)
        except Exception as exc:  # reported to the caller; no record is written
            return TrialFailure(dataset_id, method, setting, trial, exc), None
        run = stats.MethodRun(dataset_id, method, trial, seed, setting, res["test_accuracy"],
                              res["epochs_used"], res["pretrain_epochs"])
        return run, res

    def in_trial_order():
        # the outcomes close before the pool shuts down, so that closing this
        # iterator early cancels the trials not yet started
        with held:
            yield  # primed below: from here on, closing or collecting the iterator unlocks
            with (ThreadPoolExecutor(jobs) if jobs > 1 else nullcontext() as pool,
                  closing(pool.map(run_one, todo) if pool else (run_one(k) for k in todo)) as outcomes):
                for outcome, res in outcomes:
                    if out_dir and res is None:
                        _append_failure(out_dir, outcome)
                    elif out_dir:  # the record last: a trial with a record has its curves
                        _write_curves(out_dir, outcome, res)
                        stats.append_run(results_path, outcome)
                    yield outcome

    outcomes = in_trial_order()
    next(outcomes)
    return outcomes


def _lock_dir(out_dir) -> int:
    """A descriptor of directory `out_dir` that holds its exclusive flock;
    closing it unlocks."""
    fd = os.open(out_dir, os.O_RDONLY | os.O_DIRECTORY)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except BlockingIOError:
        os.close(fd)
        raise ValueError(f"{out_dir} is locked by another run_benchmark call writing to it") from None
    return fd


def _check_pin(pin_path, pinned: dict, pin: dict) -> None:
    differ = [key for key in {**pinned, **pin} if pinned.get(key) != pin.get(key)]
    if differ:
        raise ValueError(f"{pin_path} pins another run: " + "; ".join(
            f"{key} is {pinned.get(key)!r} there, {pin.get(key)!r} here" for key in differ))


def _data_digest(dataset: ProcessedDataset) -> str:
    """sha256 of X and y (dtype, shape and bytes, hashed in place), the
    feature blocks, the classes and the numerical columns."""
    digest = hashlib.sha256()
    for array in (dataset.X, dataset.y):
        array = np.ascontiguousarray(array)  # a copy only if it is not contiguous
        digest.update(f"{array.dtype.str}{array.shape}".encode())
        digest.update(array)
    digest.update(repr((dataset.feature_blocks, dataset.classes,
                        dataset.numerical_columns)).encode())
    return digest.hexdigest()


def _append_failure(out_dir, failure: TrialFailure) -> None:
    """One JSON line per failed trial, by `stats.append_line`: its key, the
    exception and its traceback."""
    exc = failure.error
    record = {"dataset_id": failure.dataset_id, "method_name": failure.method_name,
              "setting": failure.setting, "trial_index": failure.trial_index,
              "error_type": type(exc).__name__, "message": str(exc),
              "traceback": "".join(traceback.format_exception(exc))}
    stats.append_line(os.path.join(out_dir, "failures.jsonl"), json.dumps(record))


def _write_curves(out_dir, run: stats.MethodRun, res: dict) -> None:
    """Per-epoch train and validation metrics of a trial's two phases."""
    name = f"curves_{run.dataset_id}_{run.method_name}_{run.setting}_{run.trial_index}.csv"
    with open(os.path.join(out_dir, name), "w") as fh:
        fh.write("phase,epoch,train_metric,validation_metric\n")
        for phase_name, outcome in (("pretrain", res["pretrain_outcome"]),
                                    ("finetune", res["finetune_outcome"])):
            if outcome is None:
                continue
            for e, (tr, va) in enumerate(zip(outcome.train_curve, outcome.val_curve), start=1):
                fh.write(f"{phase_name},{e},{tr:.10g},{va:.10g}\n")
