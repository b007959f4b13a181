"""Named training methods and the multi-trial benchmark runner.

A method name is either a fine-tuning recipe ("control", "mixup", ...), a
pre-training recipe ("scarf", "no_noise_ae", ...), or a "pretrain+recipe"
combination such as "scarf+mixup" or "scarf+self_train". Within a trial every
method sees the same splits; per-trial seeds derive deterministically from
(base_seed, dataset_id, trial).

`run_benchmark` is the one loop over trials, for the library and the CLI, and
`HYPERPARAMETERS` is the one table of trial hyperparameters and their
defaults, for both.
"""

from __future__ import annotations

import hashlib
import json
import numbers
import os
import time
import traceback
from collections.abc import Callable, Iterator
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, replace

import numpy as np

from tabpretrain import baselines, stats
from tabpretrain.corruption import CorruptionConfig
from tabpretrain.data import (SCALINGS, ProcessedDataset, Splits, corrupt_labels, make_splits,
                              mask_labels, scale)
from tabpretrain.training import (
    AUTOENCODERS,
    CotrainSpec,
    FinetuneConfig,
    ModelBundle,
    PretrainConfig,
    classification_error,
    finetune,
    pretrain_autoencoder,
    pretrain_discriminative,
    pretrain_scarf,
)

PRETRAINERS = ("scarf", *AUTOENCODERS, "scarf_disc")
FINETUNERS = (
    "control",
    "smooth",
    "dropout",
    "mixup",
    "scarf_aug",
    "distill",
    "self_train",
    "tri_train",
    "cotrain",
    "ae_cotrain",
)

SETTINGS = ("full", "noise30", "semi25")


class UnknownMethodError(ValueError):
    pass


def parse_method(name: str) -> tuple[str | None, str]:
    parts = name.split("+")
    if len(parts) == 1:
        if parts[0] in PRETRAINERS:
            return parts[0], "control"
        if parts[0] in FINETUNERS:
            return None, parts[0]
    elif len(parts) == 2 and parts[0] in PRETRAINERS and parts[1] in FINETUNERS:
        return parts[0], parts[1]
    raise UnknownMethodError(f"unknown method {name!r}")


def derive_seed(base_seed: int, dataset_id: str, trial: int, salt: str = "") -> int:
    digest = hashlib.sha256(f"{base_seed}|{dataset_id}|{trial}|{salt}".encode()).digest()
    return int.from_bytes(digest[:8], "big") % (2**63)


def apply_setting(
    dataset: ProcessedDataset, splits: Splits, setting: str, rng: np.random.Generator,
    noise_rate: float = 0.3, labeled_fraction: float = 0.25,
):
    """Returns (y_effective over all rows, labeled train indices, unlabeled)."""
    train = np.asarray(splits.train)
    if setting == "full":
        return dataset.y.copy(), train, np.array([], dtype=int)
    if setting == "noise30":
        y = dataset.y.copy()
        y[train] = corrupt_labels(dataset.y[train], noise_rate, dataset.num_classes, rng)
        return y, train, np.array([], dtype=int)
    if setting == "semi25":
        labeled, unlabeled = mask_labels(train, labeled_fraction, rng)
        return dataset.y.copy(), labeled, unlabeled
    raise ValueError(f"unknown setting {setting!r}")


# Every trial hyperparameter and its default. `run_method` overlays its `hp`
# on this table; the CLI takes each key as a config key and as a `run` flag.
HYPERPARAMETERS = {
    # corruption, one CorruptionConfig for pre-training, scarf_aug and cotrain
    "corruption_strategy": "marginal",
    "corruption_rate": 0.6,
    "index_selection": "fixed_count",
    "view_policy": "corrupt_one",
    "index_sharing": "per_example",
    "donor": "per_example",
    "gaussian_sigma": 0.5,
    "unique_pool": False,
    # optimisation, for pre-training and fine-tuning alike
    "batch_size": 128,
    "learning_rate": 0.001,
    "patience": 3,
    "pretrain_max_epochs": 1000,
    "finetune_max_epochs": 200,
    # pre-training objective
    "temperature": 1.0,
    "val_build_epochs": 10,
    "pretrain_loss": "infonce",
    "validation_metric": "infonce_loss",
    # fine-tuning recipes
    "label_smoothing": 0.1,
    "dropout": 0.04,
    "mixup_alpha": 0.2,
    "cotrain_weight": 0.1,
    "self_train_threshold": 0.75,
    "self_train_iterations": 10,
    # architecture
    "hidden_dim": 256,
    "encoder_layers": 4,
    "head_layers": 2,
    # settings
    "noise_rate": 0.3,
    "labeled_fraction": 0.25,
}


def _resolve(hp: dict | None) -> tuple[dict, CorruptionConfig]:
    """HYPERPARAMETERS overlaid with `hp`, and the corruption config of the
    result. An unknown key, a value not of its default's type (an int also
    passes for a float, a bool never for a number) or an invalid corruption
    setting raises ValueError."""
    unknown = sorted(set(hp or {}) - set(HYPERPARAMETERS))
    if unknown:
        raise ValueError(f"unknown hyperparameter(s): {unknown}")
    for key, value in (hp or {}).items():
        kind = type(HYPERPARAMETERS[key])
        allowed = {int: numbers.Integral, float: numbers.Real}.get(kind, kind)
        if not isinstance(value, allowed) or (isinstance(value, bool) and kind is not bool):
            raise ValueError(f"hyperparameter {key!r} must be of type {kind.__name__}, "
                             f"not {value!r}")
    hp = {**HYPERPARAMETERS, **(hp or {})}
    corruption = CorruptionConfig(
        strategy=hp["corruption_strategy"], rate=hp["corruption_rate"],
        index_selection=hp["index_selection"], view_policy=hp["view_policy"],
        index_sharing=hp["index_sharing"], donor=hp["donor"],
        gaussian_sigma=hp["gaussian_sigma"], unique_pool=hp["unique_pool"],
    )
    return hp, corruption


def _finetune_config(recipe: str, hp: dict, corruption: CorruptionConfig) -> FinetuneConfig:
    cfg = FinetuneConfig(
        batch_size=hp["batch_size"], max_epochs=hp["finetune_max_epochs"],
        patience=hp["patience"], learning_rate=hp["learning_rate"],
        augmentation=corruption if recipe == "scarf_aug" else None,
    )
    if recipe == "smooth":
        cfg.label_smoothing = hp["label_smoothing"]
    elif recipe == "dropout":
        cfg.dropout = hp["dropout"]
    elif recipe == "mixup":
        cfg.mixup_alpha = hp["mixup_alpha"]
    return cfg


def _pretrain_config(hp: dict, corruption: CorruptionConfig) -> PretrainConfig:
    return PretrainConfig(
        batch_size=hp["batch_size"], temperature=hp["temperature"], corruption=corruption,
        max_epochs=hp["pretrain_max_epochs"], patience=hp["patience"],
        val_build_epochs=hp["val_build_epochs"], loss=hp["pretrain_loss"],
        validation_metric=hp["validation_metric"], learning_rate=hp["learning_rate"],
    )


def run_method(
    method: str,
    dataset: ProcessedDataset,
    splits: Splits,
    setting: str,
    seed: int,
    hp: dict | None = None,
) -> dict:
    """Execute one method on one prepared (dataset, splits) pair.

    The setting's training labels replace `dataset.y` for the whole trial,
    and test accuracy is scored once, on the model the recipe returns. `hp`
    overrides entries of HYPERPARAMETERS; an unknown key or a value of the
    wrong type raises ValueError. Returns test accuracy plus epoch counters for the results record."""
    hp, corruption = _resolve(hp)
    pre, recipe = parse_method(method)
    rng = np.random.default_rng(seed)
    y_eff, labeled, unlabeled = apply_setting(
        dataset, splits, setting, rng, hp["noise_rate"], hp["labeled_fraction"],
    )

    def new_bundle(**heads) -> ModelBundle:
        return ModelBundle.create(
            dataset.X.shape[1], dataset.num_classes, rng, hidden=hp["hidden_dim"],
            encoder_layers=hp["encoder_layers"], head_layers=hp["head_layers"], **heads,
        )

    bundle = new_bundle(
        with_decoder=pre in AUTOENCODERS or recipe == "ae_cotrain",
        with_disc_proj=pre == "scarf_disc",
        with_learnable_missing=corruption.strategy == "missing_learnable",
    )
    # one cast per trial to the weights' dtype, before any pool or view exists
    dataset = replace(dataset, X=dataset.X.astype(bundle.f.dtype, copy=False), y=y_eff)

    pretrain_outcome = None
    if pre is not None:
        pcfg = _pretrain_config(hp, corruption)
        if pre == "scarf":
            pretrain_outcome = pretrain_scarf(dataset, splits, bundle, pcfg, rng)
        elif pre == "scarf_disc":
            pretrain_outcome = pretrain_discriminative(dataset, splits, bundle, pcfg, rng)
        else:
            pretrain_outcome = pretrain_autoencoder(dataset, splits, bundle, pre, pcfg, rng)

    fcfg = _finetune_config(recipe, hp, corruption)

    def train_fn(rows, labels, soft):
        """Fresh model (encoder warm-started from the pre-trained `bundle.f`),
        trained on the given rows; used by the pseudo-labeling baselines."""
        sub = new_bundle()
        if pre is not None:
            sub.f.set_weights(bundle.f.parameters())
        if soft is not None:
            finetune(dataset, splits, rows, sub, fcfg, rng, soft_targets=soft)
        else:
            y_over = dataset.y.copy()
            y_over[rows] = labels
            finetune(replace(dataset, y=y_over), splits, rows, sub, fcfg, rng)
        return sub

    outcome = None
    if recipe == "self_train":
        model, _ = baselines.self_train(dataset, labeled, unlabeled, train_fn,
                                        hp["self_train_threshold"], hp["self_train_iterations"])
    elif recipe == "tri_train":
        model, _ = baselines.tri_train(dataset, labeled, unlabeled, train_fn, rng,
                                       hp["self_train_iterations"])
    elif recipe == "distill":
        model = baselines.self_distill(dataset, labeled, unlabeled, train_fn)
    else:
        spec = None
        if recipe in ("cotrain", "ae_cotrain"):
            spec = CotrainSpec(
                weight=hp["cotrain_weight"],
                aux="contrastive" if recipe == "cotrain" else "autoencoder",
                corruption=corruption,
                temperature=hp["temperature"],
            )
        outcome = finetune(dataset, splits, labeled, bundle, fcfg, rng, cotrain=spec)
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
    hp: dict | None = None,
    scaling: str = "zscore",
    jobs: int = 1,
) -> Iterator[stats.MethodRun | TrialFailure]:
    """Yield, in trial order, a MethodRun (or a TrialFailure if it raised) for
    each (dataset, method, setting, trial) not yet in `out_dir/results.jsonl`.

    Datasets come encoded but unscaled, or as zero-argument loaders that the
    calling thread runs only for a dataset with a trial left to run, so a
    resume with nothing to do ingests nothing. The split seed derives from
    (base_seed, dataset, trial) only, so all methods of a trial share the
    split, and each trial scales the numerical columns on its training rows.
    The calling thread appends each MethodRun and its curves_*.csv to
    `out_dir` before yielding it, so the files are the same bytes for any
    `jobs` (threads running trials at once). A failure writes no record: it
    appends its key, exception and traceback to `out_dir/failures.jsonl`.
    Unknown method, setting, scaling or hyperparameter names and `trials` or
    `jobs` below 1 raise ValueError before the first trial writes anything.
    """
    _resolve(hp)
    for name, count in (("trials", trials), ("jobs", jobs)):
        if count < 1:
            raise ValueError(f"{name} must be at least 1, got {count}")
    for method in methods:
        parse_method(method)
    for setting in settings:
        if setting not in SETTINGS:
            raise ValueError(f"unknown setting {setting!r}")
    if scaling not in SCALINGS:
        raise ValueError(f"unknown scaling {scaling!r}")
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
            loaded[dataset_id] = source() if callable(source) else source

    def run_one(key):
        dataset_id, method, setting, trial = key
        seed = derive_seed(base_seed, dataset_id, trial, salt=f"{method}|{setting}")
        start = time.time()
        try:
            splits = make_splits(loaded[dataset_id].n, derive_seed(base_seed, dataset_id, trial))
            # no name holds the float64 scaled copy, so it is freed as soon as
            # run_method rebinds its argument to the float32 cast
            res = run_method(method, scale(loaded[dataset_id], splits.train, scaling),
                             splits, setting, seed, hp)
        except Exception as exc:  # reported to the caller; no record is written
            return TrialFailure(dataset_id, method, setting, trial, exc), None
        run = stats.MethodRun(dataset_id, method, trial, seed, setting, res["test_accuracy"],
                              res["epochs_used"], res["pretrain_epochs"], time.time() - start)
        return run, res

    with ThreadPoolExecutor(jobs) if jobs > 1 else nullcontext() as pool:
        outcomes = pool.map(run_one, todo) if pool else map(run_one, todo)
        for outcome, res in outcomes:
            if out_dir and res is None:
                _append_failure(out_dir, outcome)
            elif out_dir:
                stats.append_run(results_path, outcome)
                _write_curves(out_dir, outcome, res)
            yield outcome


def _append_failure(out_dir, failure: TrialFailure) -> None:
    """One JSON line per failed trial: its key, the exception and its traceback."""
    exc = failure.error
    record = {"dataset_id": failure.dataset_id, "method_name": failure.method_name,
              "setting": failure.setting, "trial_index": failure.trial_index,
              "error_type": type(exc).__name__, "message": str(exc),
              "traceback": "".join(traceback.format_exception(exc))}
    with open(os.path.join(out_dir, "failures.jsonl"), "a") as fh:
        fh.write(json.dumps(record) + "\n")


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
