"""Named training methods and the multi-trial benchmark runner.

A method name is either a fine-tuning recipe ("control", "mixup", ...), a
pre-training recipe ("scarf", "no_noise_ae", ...), or a "pretrain+recipe"
combination such as "scarf+mixup" or "scarf+self_train". Within a trial every
method sees the same splits; per-trial seeds derive deterministically from
(base_seed, dataset_id, trial).
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import replace

import numpy as np

from tabpretrain import baselines, stats
from tabpretrain.data import ProcessedDataset, Splits, corrupt_labels, mask_labels, make_splits
from tabpretrain.training import (
    CotrainSpec,
    FinetuneConfig,
    ModelBundle,
    PretrainConfig,
    TrainOutcome,
    classification_error,
    finetune,
    pretrain_autoencoder,
    pretrain_discriminative,
    pretrain_scarf,
)

PRETRAINERS = ("scarf", "scarf_ae", "add_noise_ae", "no_noise_ae", "scarf_disc")
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


def _finetune_config(recipe: str, hp: dict) -> FinetuneConfig:
    cfg = FinetuneConfig(
        batch_size=hp.get("finetune_batch_size", 128),
        max_epochs=hp.get("finetune_max_epochs", 200),
        patience=hp.get("patience", 3),
        learning_rate=hp.get("learning_rate", 1e-3),
    )
    if recipe == "smooth":
        cfg.label_smoothing = hp.get("label_smoothing", 0.1)
    elif recipe == "dropout":
        cfg.dropout = hp.get("dropout", 0.04)
    elif recipe == "mixup":
        cfg.mixup_alpha = hp.get("mixup_alpha", 0.2)
    elif recipe == "scarf_aug":
        cfg.scarf_augmentation = True
        cfg.augmentation_corruption = hp.get("corruption", cfg.augmentation_corruption)
    return cfg


def _pretrain_config(hp: dict) -> PretrainConfig:
    cfg = PretrainConfig(
        batch_size=hp.get("pretrain_batch_size", 128),
        temperature=hp.get("temperature", 1.0),
        max_epochs=hp.get("pretrain_max_epochs", 1000),
        patience=hp.get("patience", 3),
        val_build_epochs=hp.get("val_build_epochs", 10),
        loss=hp.get("pretrain_loss", "infonce"),
        validation_metric=hp.get("validation_metric", "infonce_loss"),
        learning_rate=hp.get("learning_rate", 1e-3),
    )
    if "corruption" in hp:
        cfg.corruption = hp["corruption"]
    return cfg


def run_method(
    method: str,
    dataset: ProcessedDataset,
    splits: Splits,
    setting: str,
    seed: int,
    hp: dict | None = None,
) -> dict:
    """Execute one method on one prepared (dataset, splits) pair.

    Returns test accuracy plus epoch counters for the results record."""
    hp = hp or {}
    pre, recipe = parse_method(method)
    rng = np.random.default_rng(seed)
    y_eff, labeled, unlabeled = apply_setting(
        dataset, splits, setting, rng,
        hp.get("noise_rate", 0.3), hp.get("labeled_fraction", 0.25),
    )
    hidden = hp.get("hidden_dim", 256)
    pcfg = _pretrain_config(hp)
    needs_decoder = pre in ("scarf_ae", "add_noise_ae", "no_noise_ae") or recipe == "ae_cotrain"
    bundle = ModelBundle.create(
        dataset.X.shape[1], dataset.num_classes, rng, hidden=hidden,
        with_decoder=needs_decoder,
        with_disc_proj=pre == "scarf_disc",
        with_learnable_missing=pcfg.corruption.strategy == "missing_learnable",
        encoder_layers=hp.get("encoder_layers", 4),
        head_layers=hp.get("head_layers", 2),
    )

    pretrain_epochs = 0
    pretrained_f = None
    pretrain_outcome = None
    if pre is not None:
        if pre == "scarf":
            out = pretrain_scarf(dataset, splits, bundle, pcfg, rng)
        elif pre == "scarf_disc":
            out = pretrain_discriminative(dataset, splits, bundle, pcfg, rng)
        else:
            variant = {"scarf_ae": "scarf_corruption", "add_noise_ae": "additive_noise",
                       "no_noise_ae": "no_noise"}[pre]
            if variant != "scarf_corruption":
                pcfg.corruption = pcfg.corruption.with_(strategy="none")
            out = pretrain_autoencoder(dataset, splits, bundle, variant, pcfg,
                                       rng, hp.get("ae_noise_sigma", 0.5))
        pretrain_epochs = out.epochs_used
        pretrain_outcome = out
        pretrained_f = bundle.f.copy_weights()

    fcfg = _finetune_config(recipe, hp)

    def train_fn(rows, labels, soft):
        """Fresh model (encoder warm-started when pre-trained), trained on the
        given rows; used by the pseudo-labeling baselines."""
        sub = ModelBundle.create(
            dataset.X.shape[1], dataset.num_classes, rng, hidden=hidden,
            encoder_layers=hp.get("encoder_layers", 4), head_layers=hp.get("head_layers", 2),
        )
        if pretrained_f is not None:
            sub.f.set_weights(pretrained_f)
        if soft is not None:
            finetune(dataset, splits, rows, sub, fcfg, rng, soft_targets=soft,
                     evaluate_test=False)
        else:
            y_over = y_eff.copy()
            y_over[rows] = labels
            finetune(dataset, splits, rows, sub, fcfg, rng,
                     y_train_override=y_over, evaluate_test=False)
        return sub

    if recipe == "self_train":
        model, _ = baselines.self_train(
            replace(dataset, y=y_eff), labeled, unlabeled, train_fn,
            hp.get("self_train_threshold", 0.75), hp.get("self_train_iterations", 10),
        )
        outcome = _test_outcome(model, dataset, splits)
    elif recipe == "tri_train":
        model, _ = baselines.tri_train(
            replace(dataset, y=y_eff), labeled, unlabeled, train_fn, rng,
            hp.get("self_train_iterations", 10),
        )
        outcome = _test_outcome(model, dataset, splits)
    elif recipe == "distill":
        model = baselines.self_distill(replace(dataset, y=y_eff), labeled, unlabeled, train_fn)
        outcome = _test_outcome(model, dataset, splits)
    elif recipe in ("cotrain", "ae_cotrain"):
        spec = CotrainSpec(
            weight=hp.get("cotrain_weight", 0.1),
            aux="contrastive" if recipe == "cotrain" else "autoencoder",
            corruption=hp.get("corruption", CotrainSpec().corruption),
            temperature=hp.get("temperature", 1.0),
        )
        outcome = finetune(dataset, splits, labeled, bundle, fcfg, rng,
                           y_train_override=y_eff, cotrain=spec)
    else:
        outcome = finetune(dataset, splits, labeled, bundle, fcfg, rng, y_train_override=y_eff)
    return {
        "test_accuracy": outcome.test_accuracy,
        "epochs_used": outcome.epochs_used,
        "pretrain_epochs": pretrain_epochs,
        "finetune_outcome": outcome,
        "pretrain_outcome": pretrain_outcome,
    }


def _test_outcome(bundle: ModelBundle, dataset: ProcessedDataset, splits: Splits) -> TrainOutcome:
    acc = 1.0 - classification_error(bundle, dataset.X[splits.test], dataset.y[splits.test])
    return TrainOutcome([], [], 0, "max_epochs", 0, float("nan"), test_accuracy=acc)


def run_benchmark(
    datasets: dict[str, ProcessedDataset] | dict[str, tuple],
    methods: list[str],
    settings: list[str],
    trials: int,
    base_seed: int,
    results_path=None,
    hp: dict | None = None,
    on_result=None,
) -> list[stats.MethodRun]:
    """One MethodRun per (dataset, method, setting, trial). Splits are derived
    from (base_seed, dataset, trial) only, so all methods in a trial share
    them. Completed keys in an existing results file are skipped; individual
    run failures are recorded as records with NaN accuracy."""
    done = stats.completed_keys(results_path) if results_path else set()
    records = []
    for dataset_id, dataset in datasets.items():
        for trial in range(trials):
            split_seed = derive_seed(base_seed, dataset_id, trial)
            splits = make_splits(dataset.n, split_seed)
            for setting in settings:
                for method in methods:
                    key = (dataset_id, method, setting, trial)
                    if key in done:
                        continue
                    seed = derive_seed(base_seed, dataset_id, trial, salt=f"{method}|{setting}")
                    start = time.time()
                    try:
                        res = run_method(method, dataset, splits, setting, seed, hp)
                        acc = res["test_accuracy"]
                        epochs = res["epochs_used"]
                        pre_epochs = res["pretrain_epochs"]
                    except UnknownMethodError:
                        raise
                    except Exception:
                        acc, epochs, pre_epochs = float("nan"), 0, 0
                    run = stats.MethodRun(
                        dataset_id, method, trial, seed, setting, acc,
                        epochs, pre_epochs, time.time() - start,
                    )
                    records.append(run)
                    if results_path:
                        stats.append_run(results_path, run)
                    if on_result:
                        on_result(run)
    return records
