"""The names and argument positions of the package that perfbench/spans.py
wraps and counts, and the entry points that the gated workloads of
perfbench/run.py call: a rename or a reordered parameter fails here rather
than in a benchmark run."""

import importlib.util
import math
import os
import sys

import numpy as np
import pytest

from conftest import make_blob_dataset
from tabpretrain import methods, rundir, stats
from tabpretrain.data import Schema, make_splits, process_csv
from tabpretrain.training import Hyperparameters

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")

HP = Hyperparameters(hidden_dim=8, encoder_layers=2, head_layers=1, batch_size=16,
                     pretrain_max_epochs=2, finetune_max_epochs=2, val_build_epochs=2)


def load_perfbench(name, monkeypatch):
    """perfbench/<name>.py, registered in sys.modules first: a dataclass of
    the module looks its module up there while it is defined."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_gated_workloads_run(tmp_path, monkeypatch):
    """The argv that `cli_control` passes to `cli.main` and the
    `run_method` call of `scarf_mixed`, each on one trial over a 200-row
    table of the benchmark's generator."""
    run, workloads = load_perfbench("run", monkeypatch), load_perfbench("workloads", monkeypatch)

    cli_work = run.Workload("cli_control", 0, str(tmp_path))
    workloads.write_table(cli_work.csv, cli_work.schema, *workloads.mixed_table(200, 0, 0.02))
    out = tmp_path / "out"
    _, code = cli_work.sweep(str(out), 1)
    assert code == 0
    [record] = stats.load_runs(out / "results.jsonl")
    assert math.isfinite(record.test_accuracy)

    mixed = run.Workload("scarf_mixed", 0, str(tmp_path))
    workloads.write_table(mixed.csv, mixed.schema, *workloads.mixed_table(200, 0))
    mixed.dataset, _ = process_csv(mixed.csv, Schema.from_file(mixed.schema),
                                   methods.derive_seed(0, mixed.dataset_id, 0))
    [trial] = mixed.library_trials(1)
    assert trial is not None and math.isfinite(trial.accuracy)


def test_trace_counts_one_scarf_trial(monkeypatch):
    spans = load_perfbench("spans", monkeypatch)
    ds = make_blob_dataset(n=120, d=4, seed=0)
    splits = make_splits(ds.n, 1)
    tracer, patches = spans.Tracer(), spans.Patches()
    try:
        spans.install_trace(tracer, patches)
        res = methods.run_method("scarf", ds, splits, "semi25", 2, HP)
    finally:
        patches.restore()
    assert patches.verify_clean() == []

    _, labeled, _ = methods.apply_setting(ds, splits, "semi25", np.random.default_rng(2),
                                          Hyperparameters())
    [(_, pretrain_rows)] = tracer.calls["training.pretrain_scarf"]
    [(_, finetune_rows)] = tracer.calls["training.finetune"]
    assert res["pretrain_epochs"] >= 1 and res["epochs_used"] >= 1
    assert pretrain_rows == len(splits.train) * res["pretrain_epochs"]
    assert finetune_rows == len(labeled) * res["epochs_used"]
    assert tracer.counts["training.pretrain_epochs"] == res["pretrain_epochs"]
    assert tracer.counts["training.finetune_epochs"] == res["epochs_used"]
    assert tracer.counts["corruption.make_views_calls"] == len(tracer.calls["corruption.make_views"]) > 0
    assert tracer.counts["corruption.cells_replaced"] > 0


def test_trace_counts_every_infonce_evaluation(monkeypatch):
    """A scarf trial evaluates InfoNCE once per pre-training step on a batch
    of two or more rows and, in each epoch's validation metric, once per
    stored static-validation batch of two or more rows; the span on
    `losses.infonce` counts both."""
    spans = load_perfbench("spans", monkeypatch)
    ds = make_blob_dataset(n=120, d=4, seed=0)
    splits = make_splits(ds.n, 1)
    tracer, patches = spans.Tracer(), spans.Patches()
    try:
        spans.install_trace(tracer, patches)
        res = methods.run_method("scarf", ds, splits, "semi25", 2, HP)
    finally:
        patches.restore()
    assert patches.verify_clean() == []

    def contrastive_batches(rows):
        full, rest = divmod(rows, HP.batch_size)
        return full + (rest >= 2)

    steps = contrastive_batches(len(splits.train)) * res["pretrain_epochs"]
    stored = contrastive_batches(len(splits.validation)) * HP.val_build_epochs
    assert res["pretrain_epochs"] >= 1 and stored >= 1
    assert tracer.counts["losses.infonce_calls"] == steps + stored * res["pretrain_epochs"]


@pytest.mark.parametrize("method", ["scarf_ae", "scarf_disc"])
def test_trace_sees_every_pre_trainer(method, monkeypatch):
    """Every pre-trainer runs through `training.pretrain_scarf` and its
    per-epoch `training._validation_metric`, so the spans count its rows and
    its validation calls."""
    spans = load_perfbench("spans", monkeypatch)
    ds = make_blob_dataset(n=120, d=4, seed=0)
    splits = make_splits(ds.n, 1)
    tracer, patches = spans.Tracer(), spans.Patches()
    try:
        spans.install_trace(tracer, patches)
        res = methods.run_method(method, ds, splits, "full", 2, HP)
    finally:
        patches.restore()
    assert patches.verify_clean() == []

    [(_, pretrain_rows)] = tracer.calls["training.pretrain_scarf"]
    assert res["pretrain_epochs"] >= 1
    assert pretrain_rows == len(splits.train) * res["pretrain_epochs"]
    assert tracer.counts["training.pretrain_epochs"] == res["pretrain_epochs"]
    assert len(tracer.calls["training.validation"]) == res["pretrain_epochs"]
    assert len(tracer.calls["training.build_static_validation"]) == 1


def test_trace_counts_co_training_corruption(monkeypatch):
    """`cotrain` corrupts each fine-tuning batch of two or more rows through
    `make_views`, inside `training.finetune`, so the spans count it: next to
    `scarf`, whose pre-training is the same computation, `scarf+cotrain`
    makes one more `make_views` call per such batch and epoch."""
    spans = load_perfbench("spans", monkeypatch)
    ds = make_blob_dataset(n=120, d=4, seed=0)
    splits = make_splits(ds.n, 1)
    traced = {}
    for method in ("scarf", "scarf+cotrain"):
        tracer, patches = spans.Tracer(), spans.Patches()
        try:
            spans.install_trace(tracer, patches)
            traced[method] = tracer, methods.run_method(method, ds, splits, "semi25", 2, HP)
        finally:
            patches.restore()
        assert patches.verify_clean() == []

    (scarf, scarf_res), (cotrain, res) = traced["scarf"], traced["scarf+cotrain"]
    _, labeled, _ = methods.apply_setting(ds, splits, "semi25", np.random.default_rng(2),
                                          Hyperparameters())
    full, rest = divmod(len(labeled), HP.batch_size)
    contrastive_batches = full + (rest >= 2)
    assert res["pretrain_epochs"] == scarf_res["pretrain_epochs"] >= 1 and res["epochs_used"] >= 1
    assert len(cotrain.calls["corruption.make_views"]) - len(scarf.calls["corruption.make_views"]) \
        == res["epochs_used"] * contrastive_batches
    assert cotrain.counts["corruption.make_views_calls"] == \
        len(cotrain.calls["corruption.make_views"])
    assert cotrain.counts["corruption.cells_replaced"] > scarf.counts["corruption.cells_replaced"]
    [(_, finetune_rows)] = cotrain.calls["training.finetune"]
    assert finetune_rows == len(labeled) * res["epochs_used"]


def test_trace_sees_every_results_read_and_write(tmp_path, monkeypatch):
    """`run_benchmark` records through `rundir`, which calls `append_run` and
    `completed_keys` by their module-level names: the wrappers bound at
    `stats.append_run` and `stats.completed_keys` see one append per record
    and one read of the completed keys per call. A writer that stopped
    calling them would read 0 on both spans."""
    spans = load_perfbench("spans", monkeypatch)
    assert (stats.append_run, stats.completed_keys) == (rundir.append_run, rundir.completed_keys)
    ds = make_blob_dataset(n=120, d=4, seed=0)
    tracer, patches = spans.Tracer(), spans.Patches()
    try:
        spans.install_trace(tracer, patches)
        records = list(methods.run_benchmark({"blob": ds}, ["control"], ["full"], 2, 0, tmp_path,
                                             HP))
    finally:
        patches.restore()
    assert patches.verify_clean() == []

    assert len(records) == len(stats.load_runs(tmp_path / "results.jsonl")) == 2
    assert len(tracer.calls["stats.append_run"]) == len(records)
    assert len(tracer.calls["stats.completed_keys"]) == 1

