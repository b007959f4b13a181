"""Named training methods and the multi-trial benchmark runner.

`METHODS` maps each of the 65 method names to its (pre-trainer, recipe): a
fine-tuning recipe of `FINETUNERS` alone ("control", "mixup", ...), a
pre-trainer of `training.PRETRAINERS` ("scarf", "no_noise_ae", ...) fine-tuned
by control, or a "pretrain+recipe" combination such as "scarf+mixup".
`training.pretrain_scarf(..., pre)` runs every pre-trainer and
`training.finetune(..., recipe=)` every recipe it trains itself; the
pseudo-labeling recipes of `baselines.PSEUDO_LABELERS` call `finetune`.
Seeds derive deterministically by `derive_seed`. The split seed of a
(dataset, trial) comes from (base_seed, dataset_id, trial) alone, so every
method and setting of the trial shares its splits and the table scaled on
their training rows (`data.split_and_scale`). The seed of one (method,
setting) of the trial is also salted with "method|setting": its rng draws
the setting's labels first (noise30's redrawn labels, semi25's labeled
subset), then the model's weights and batches. So under noise30 and semi25
two methods of one trial train on the same rows but not on the same labels.

`run_benchmark` is the one loop over trials, for the library and the CLI. It
and `run_method` take the trial hyperparameters as the one frozen
`training.Hyperparameters` that the trainers read. Every `run_benchmark`
call keeps its pin, lock, records and the trace of every attempted trial in
its run directory, through the `rundir.RunDir` it opens, the one owner of
that directory.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import threading
import warnings
from collections import Counter
from collections.abc import Callable, Iterator
from contextlib import ExitStack, closing, contextmanager
from dataclasses import asdict, dataclass, replace

import numpy as np

from tabpretrain import baselines, rundir, training
from tabpretrain.data import (MIN_SPLIT_ROWS, ProcessedDataset, Splits, corrupt_labels, mask_labels,
                              split_and_scale)
from tabpretrain.training import (
    FINETUNE_RECIPES,
    Hyperparameters,
    ModelBundle,
    classification_error,
    finetune,
    pretrain_scarf,
)

FINETUNERS = (*FINETUNE_RECIPES, *baselines.PSEUDO_LABELERS)

# in print order: the pre-trainers, the recipes, then each pre-trainer under each recipe
METHODS = {**{pre: (pre, "control") for pre in training.PRETRAINERS},
           **{recipe: (None, recipe) for recipe in FINETUNERS},
           **{f"{pre}+{r}": (pre, r) for pre in training.PRETRAINERS for r in FINETUNERS}}

SETTINGS = ("full", "noise30", "semi25")

# The version of the program's outputs, pinned in every out_dir: bumped by
# each change that moves an entry of tests/oracle_digests.txt, with a line of
# tests/results_versions.txt naming the new overall digest.
RESULTS_VERSION = 2


class UnknownMethodError(ValueError):
    pass


def parse_method(name: str) -> tuple[str | None, str]:
    if isinstance(name, str) and name in METHODS:
        return METHODS[name]
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
    if setting not in SETTINGS:
        raise ValueError(f"unknown setting {setting!r}")
    y, labeled, unlabeled = dataset.y.copy(), np.asarray(splits.train), np.array([], dtype=int)
    if setting == "noise30":
        y[labeled] = corrupt_labels(dataset.y[labeled], hp.noise_rate, dataset.num_classes, rng)
    elif setting == "semi25":
        labeled, unlabeled = mask_labels(labeled, hp.labeled_fraction, rng)
    return y, labeled, unlabeled


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
    """A trial that raised, or whose record `rundir.MethodRun` refused. It has
    no results record, so it reruns on resume."""

    dataset_id: str
    method_name: str
    setting: str
    trial_index: int
    error: Exception


def run_benchmark(datasets: dict[str, ProcessedDataset | Callable[[], ProcessedDataset]],
                  methods: list[str], settings: list[str], trials: int, base_seed: int,
                  out_dir, hp: Hyperparameters = Hyperparameters(),
                  jobs: int = 1) -> Iterator[rundir.MethodRun | TrialFailure]:
    """An iterator that yields, in trial order, a MethodRun (or a TrialFailure
    if it raised) for each (dataset, method, setting, trial) not yet recorded
    in `out_dir`, whose `rundir.RunDir` pins, locks and keeps the records.

    Datasets come encoded but unscaled, or as zero-argument loaders that the
    calling thread runs only for a dataset with a trial left to run, so a
    resume with nothing to do ingests nothing. Each (dataset, trial) is set
    up once, by `data.split_and_scale` with the split seed of (base_seed,
    dataset, trial) and `hp.scaling`, the one `hp` of every trial, checked
    where it is built: the first of the trial's keys to start builds it,
    every key of the trial, of any method and setting, trains on that one
    read-only object, and the last key to start lets it go. So each running
    trial holds one set-up, and a trial that writes into its `X` fails; a
    set-up that raises is kept by no key, and each key of its trial fails.
    The calling thread records each outcome before yielding it, so the files
    are the same bytes for any `jobs` (threads running trials at once); a
    failure leaves no record, so it reruns on resume. Under `jobs` > 1,
    OpenBLAS runs on one thread while the trials run (process-wide, and not
    at all where no known OpenBLAS is found: see `_one_blas_thread`), and
    its thread count comes back once they have stopped, also when the
    iterator is closed early; `jobs` = 1 leaves it alone.
    These raise in this call, before anything is written: unknown or repeated
    method or setting names, a method that `check_method` rejects under
    `hp`, `trials` or `jobs` below 1, a locked `out_dir` or one whose pin
    differs, and a dataset with trials left that fails to load, has fewer
    than `MIN_SPLIT_ROWS` rows or gives every row one label. `out_dir` stays
    locked until the iterator ends, is closed or is collected, or until the
    call raises.
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
    pin = {"seed": base_seed, "results_version": RESULTS_VERSION, "data_digest": {}, **asdict(hp)}
    with ExitStack() as held:  # out_dir's lock, released here if this call raises
        run_dir = held.enter_context(closing(rundir.RunDir(out_dir, pin)))
        todo = [(dataset_id, method, setting, trial)
                for dataset_id in datasets for trial in range(trials)
                for setting in settings for method in methods
                if (dataset_id, method, setting, trial) not in run_dir.done]
        loaded = {dataset_id: _load(dataset_id, datasets[dataset_id])
                  for dataset_id in dict.fromkeys(key[0] for key in todo)}
        run_dir.pin_data(loaded)
        held = held.pop_all()  # the iterator's now

    # the keys left to start and the live set-up of each (dataset, trial)
    keys_left, set_ups, set_up_lock = Counter((key[0], key[3]) for key in todo), {}, threading.Lock()

    def set_up(dataset_id, trial):
        """The trial's `split_and_scale`, built by its first key to start and
        dropped from `set_ups` by its last; one that raises is not kept."""
        with set_up_lock:
            keys_left[dataset_id, trial] -= 1
            shared = set_ups.pop((dataset_id, trial), None) or split_and_scale(
                loaded[dataset_id], derive_seed(base_seed, dataset_id, trial), hp.scaling)
            if keys_left[dataset_id, trial]:
                set_ups[dataset_id, trial] = shared
            return shared

    def run_one(key):
        dataset_id, method, setting, trial = key
        seed = derive_seed(base_seed, dataset_id, trial, salt=f"{method}|{setting}")
        try:
            res = run_method(method, *set_up(dataset_id, trial), setting, seed, hp)
            run = rundir.MethodRun(dataset_id, method, trial, seed, setting, res["test_accuracy"],
                                   res["epochs_used"], res["pretrain_epochs"])
        except Exception as exc:  # reported to the caller; no record is written
            return TrialFailure(dataset_id, method, setting, trial, exc), None
        return run, res

    def in_trial_order():
        with held:
            yield  # primed below: from here on, closing or collecting the iterator unlocks
            if jobs > 1:
                from concurrent.futures import ThreadPoolExecutor
                # `held` exits last in first: the outcomes close before the pool
                # shuts down, so closing this iterator early cancels the trials not
                # yet started, and the BLAS threads come back once no trial runs
                held.enter_context(_one_blas_thread())
                pool = held.enter_context(ThreadPoolExecutor(jobs))
                outcomes = held.enter_context(closing(pool.map(run_one, todo)))
            else:
                outcomes = map(run_one, todo)
            for outcome, res in outcomes:
                run_dir.record(outcome, res)
                yield outcome

    outcomes = in_trial_order()
    next(outcomes)
    return outcomes


def _load(dataset_id, source) -> ProcessedDataset:
    """The dataset, run if it is a loader; ValueError if it has fewer rows
    than a split needs or labels every row alike."""
    dataset = source() if callable(source) else source
    if dataset.n < MIN_SPLIT_ROWS:
        raise ValueError(f"dataset {dataset_id!r} has {dataset.n} rows, fewer than the "
                         f"{MIN_SPLIT_ROWS} a split needs")
    if (dataset.y == dataset.y[0]).all():
        raise ValueError(f"dataset {dataset_id!r} labels every row "
                         f"{dataset.classes[dataset.y[0]]!r}; a classifier needs 2 classes")
    return dataset


# the thread-count functions, "get" and "set", of the OpenBLAS builds that
# numpy's wheels bundle
_OPENBLAS_NAMES = ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads",
                   "openblas_{}_num_threads64_", "openblas_{}_num_threads")
# process-wide, as the OpenBLAS thread count it guards: the iterators that
# hold it at one thread, and the count before the first of them
_blas_lock = threading.Lock()
_blas_hold = {"iterators": 0, "threads_before": 0}


@functools.cache
def _openblas_threads():
    """The (get, set) thread-count functions of the OpenBLAS library in
    numpy's wheel, or None, with one warning, where none is known."""
    import glob

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        lib = ctypes.CDLL(path)  # the library numpy loaded: a loaded path is opened once
        for name in _OPENBLAS_NAMES:
            if hasattr(lib, name.format("get")) and hasattr(lib, name.format("set")):
                get, set_ = getattr(lib, name.format("get")), getattr(lib, name.format("set"))
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    warnings.warn("no OpenBLAS thread count found to set: under jobs > 1 each trial's "
                  "matrix products may still use every core")
    return None


@contextmanager
def _one_blas_thread():
    """OpenBLAS on one thread while any `jobs > 1` iterator runs its trials,
    so the threads of the trials share the cores instead of each using them
    all; the count before the first such iterator comes back when the last
    one ends. The setting is process-wide: it reaches every thread of the
    process meanwhile. Where no thread count is known, nothing changes."""
    blas = _openblas_threads()
    if blas is None:
        yield
        return
    get, set_ = blas
    with _blas_lock:
        if not _blas_hold["iterators"]:
            _blas_hold["threads_before"] = get()
        _blas_hold["iterators"] += 1
        set_(1)
    try:
        yield
    finally:
        with _blas_lock:
            _blas_hold["iterators"] -= 1
            if not _blas_hold["iterators"]:
                set_(_blas_hold["threads_before"])
