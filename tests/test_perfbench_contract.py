"""The names and argument positions of the package that perfbench/spans.py
wraps and counts: a rename or a reordered parameter fails here rather than in
a benchmark run."""

import importlib.util
import os

import numpy as np

from conftest import make_blob_dataset
from tabpretrain import methods
from tabpretrain.data import make_splits

SPANS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "spans.py")

HP = {"hidden_dim": 8, "encoder_layers": 2, "head_layers": 1, "batch_size": 16,
      "pretrain_max_epochs": 2, "finetune_max_epochs": 2, "val_build_epochs": 2}


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_counts_one_scarf_trial():
    spans = load_spans()
    ds = make_blob_dataset(n=120, d=4, seed=0)
    splits = make_splits(ds.n, 1)
    tracer, patches = spans.Tracer(), spans.Patches()
    try:
        spans.install_trace(tracer, patches)
        res = methods.run_method("scarf", ds, splits, "semi25", 2, HP)
    finally:
        patches.restore()
    assert patches.verify_clean() == []

    _, labeled, _ = methods.apply_setting(ds, splits, "semi25", np.random.default_rng(2))
    [(_, pretrain_rows)] = tracer.calls["training.pretrain_scarf"]
    [(_, finetune_rows)] = tracer.calls["training.finetune"]
    assert res["pretrain_epochs"] >= 1 and res["epochs_used"] >= 1
    assert pretrain_rows == len(splits.train) * res["pretrain_epochs"]
    assert finetune_rows == len(labeled) * res["epochs_used"]
    assert tracer.counts["training.pretrain_epochs"] == res["pretrain_epochs"]
    assert tracer.counts["training.finetune_epochs"] == res["epochs_used"]
    assert tracer.counts["corruption.make_views_calls"] == len(tracer.calls["corruption.make_views"]) > 0
    assert tracer.counts["corruption.cells_replaced"] > 0
