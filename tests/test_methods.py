import json
import os
import re
import threading
import time
import warnings
import weakref
from dataclasses import asdict, replace

import numpy as np
import pytest

from conftest import make_blob_dataset, make_numeric_dataset, read_trace
from tabpretrain import baselines, data, methods, rundir
from tabpretrain.corruption import ConfigurationError
from tabpretrain.data import (Schema, corrupt_labels, encode_csv, make_splits, process_csv,
                              read_json_object)
from tabpretrain.methods import (
    FINETUNERS,
    METHODS,
    SETTINGS,
    TrialFailure,
    UnknownMethodError,
    apply_setting,
    check_method,
    derive_seed,
    parse_method,
    run_benchmark,
    run_method,
)
from tabpretrain.training import AUTOENCODERS, PRETRAINERS, Hyperparameters, ModelBundle

# a value of another type than the field's default in Hyperparameters
MISTYPED = [("batch_size", "32"), ("corruption_rate", "0.6"), ("batch_size", 32.0),
            ("patience", True), ("learning_rate", False), ("unique_pool", 1),
            ("pretrain_loss", None)]

FAST_HP = Hyperparameters(
    hidden_dim=8,
    encoder_layers=2,
    head_layers=1,
    batch_size=32,
    pretrain_max_epochs=2,
    finetune_max_epochs=2,
    val_build_epochs=2,
    self_train_iterations=2,
)

class TestParseMethod:
    def test_the_table_holds_every_pre_trainer_and_recipe_alone_and_combined(self):
        """In print order: each pre-trainer fine-tuned by control, each recipe
        alone, then each pre-trainer (the outer loop) under each recipe;
        55 of the 65 names pre-train."""
        names = list(METHODS.items())
        assert names[:15] == ([(pre, (pre, "control")) for pre in PRETRAINERS]
                              + [(recipe, (None, recipe)) for recipe in FINETUNERS])
        assert names[15:] == [(f"{pre}+{recipe}", (pre, recipe))
                              for pre in PRETRAINERS for recipe in FINETUNERS]
        assert len(METHODS) == 65
        assert sum(pre is not None for pre, _ in METHODS.values()) == 55

    def test_bare_finetuner(self):
        assert parse_method("control") == (None, "control")
        assert parse_method("mixup") == (None, "mixup")

    def test_bare_pretrainer_implies_control(self):
        assert parse_method("scarf") == ("scarf", "control")

    def test_combination(self):
        assert parse_method("scarf+mixup") == ("scarf", "mixup")
        assert parse_method("no_noise_ae+self_train") == ("no_noise_ae", "self_train")

    @pytest.mark.parametrize("bad", ["", "scarf+", "+control", "control+scarf", "scarf+scarf",
                                     "scarf+mixup+control", "Scarf", "scarfy", "a+b+c"])
    def test_unknown_names_rejected(self, bad):
        with pytest.raises(UnknownMethodError, match=re.escape(f"unknown method {bad!r}")):
            parse_method(bad)

    @pytest.mark.parametrize("bad", [None, 3, ("scarf",), ["scarf"]])
    def test_a_name_that_is_not_a_string_is_unknown(self, bad):
        with pytest.raises(UnknownMethodError, match=re.escape(f"unknown method {bad!r}")):
            parse_method(bad)


class TestCheckMethod:
    """The method-dependent rules run before the first trial: a method that
    could only fail is rejected, and nothing is written."""

    @pytest.mark.parametrize("method", METHODS)
    def test_missing_learnable_rejects_exactly_the_methods_that_cannot_step_it(
            self, method, tmp_path, monkeypatch):
        """A method that corrupts without stepping the learnable vector is
        rejected; past the check, its trial fails on the missing vector.
        Every other method runs a trial."""
        ds = make_blob_dataset(n=60, d=4, seed=6)
        hp = replace(FAST_HP, corruption_strategy="missing_learnable")
        pre, recipe = parse_method(method)
        if pre in ("scarf_ae", "scarf_disc") or recipe in ("scarf_aug", "cotrain"):
            with pytest.raises(ValueError, match="corrupts under missing_learnable but never"):
                run_benchmark({"blob": ds}, [method], ["full"], 1, 0, out_dir=tmp_path, hp=hp)
            assert list(tmp_path.iterdir()) == []
            monkeypatch.setattr(methods, "check_method", lambda name, hp: parse_method(name))
            with pytest.raises(ConfigurationError, match="requires learnable values"):
                run_method(method, ds, make_splits(60, 1), "full", 3, hp)
        else:
            [run] = run_benchmark({"blob": ds}, [method], ["full"], 1, 0, out_dir=tmp_path, hp=hp)
            assert isinstance(run, rundir.MethodRun)

    def test_batch_size_one_rejected_for_every_pre_trainer(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(methods, "run_method", lambda *args: calls.append(args))
        ds = make_blob_dataset(n=60, d=4, seed=6)
        hp = replace(FAST_HP, batch_size=1)
        for method in METHODS:
            if parse_method(method)[0] is None:
                assert check_method(method, Hyperparameters(batch_size=1)) == parse_method(method)
                continue
            with pytest.raises(ValueError, match="pre-trains: its batches need at least 2"):
                run_benchmark({"blob": ds}, [method], ["full"], 1, 0, out_dir=tmp_path, hp=hp)
        assert calls == []
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("method", METHODS)
    def test_bundle_heads_follow_from_the_method(self, method):
        pre, recipe = parse_method(method)
        for strategy in ("marginal", "missing_learnable"):
            hp = Hyperparameters(hidden_dim=4, encoder_layers=1, head_layers=1,
                                 corruption_strategy=strategy)
            bundle = ModelBundle.create(3, 2, np.random.default_rng(0), hp, pre, recipe)
            assert ("decoder" in bundle.heads) == (pre in AUTOENCODERS or recipe == "ae_cotrain")
            assert ("disc_proj" in bundle.heads) == (pre == "scarf_disc")


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(0, "d", 1) == derive_seed(0, "d", 1)

    def test_components_matter(self):
        base = derive_seed(0, "d", 1)
        assert derive_seed(1, "d", 1) != base
        assert derive_seed(0, "e", 1) != base
        assert derive_seed(0, "d", 2) != base
        assert derive_seed(0, "d", 1, salt="m") != base

    def test_range(self):
        for t in range(20):
            s = derive_seed(7, "data", t)
            assert 0 <= s < 2**63


class TestApplySetting:
    def test_full_uses_all_train_labels(self, rng):
        ds = make_blob_dataset(n=100)
        splits = make_splits(100, 0)
        y, labeled, unlabeled = apply_setting(ds, splits, "full", rng, Hyperparameters())
        np.testing.assert_array_equal(labeled, splits.train)
        assert unlabeled.size == 0
        np.testing.assert_array_equal(y, ds.y)

    def test_noise30_touches_train_rows_only(self, rng):
        ds = make_blob_dataset(n=200)
        splits = make_splits(200, 1)
        y, labeled, _ = apply_setting(ds, splits, "noise30", rng, Hyperparameters())
        off_train = np.setdiff1d(np.arange(200), splits.train)
        np.testing.assert_array_equal(y[off_train], ds.y[off_train])
        changed = (y[splits.train] != ds.y[splits.train]).sum()
        assert 0 < changed <= round(0.3 * len(splits.train))

    def test_semi25_partitions_train(self, rng):
        ds = make_blob_dataset(n=200)
        splits = make_splits(200, 2)
        _, labeled, unlabeled = apply_setting(ds, splits, "semi25", rng, Hyperparameters())
        assert len(labeled) == round(0.25 * len(splits.train))
        assert sorted(np.concatenate([labeled, unlabeled])) == sorted(splits.train)

    def test_unknown_setting(self, rng):
        ds = make_blob_dataset(n=100)
        with pytest.raises(ValueError):
            apply_setting(ds, make_splits(100, 0), "typo", rng, Hyperparameters())


class TestRunMethod:
    @pytest.mark.parametrize("method", FINETUNERS + PRETRAINERS + ("scarf+mixup",))
    def test_every_registered_method_produces_accuracy(self, method):
        ds = make_blob_dataset(n=120, d=4, seed=1)
        splits = make_splits(120, 0)
        res = run_method(method, ds, splits, "full", 5, FAST_HP)
        assert 0.0 <= res["test_accuracy"] <= 1.0
        if method in PRETRAINERS or "+" in method:
            assert res["pretrain_epochs"] >= 1
        else:
            assert res["pretrain_epochs"] == 0

    @pytest.mark.parametrize("setting", SETTINGS)
    def test_settings_run(self, setting):
        ds = make_blob_dataset(n=120, d=4, seed=2)
        splits = make_splits(120, 1)
        res = run_method("control", ds, splits, setting, 6, FAST_HP)
        assert 0.0 <= res["test_accuracy"] <= 1.0

    def test_same_seed_same_result(self):
        ds = make_blob_dataset(n=120, d=4, seed=3)
        splits = make_splits(120, 2)
        a = run_method("scarf", ds, splits, "full", 9, FAST_HP)
        b = run_method("scarf", ds, splits, "full", 9, FAST_HP)
        assert a["test_accuracy"] == b["test_accuracy"]
        assert a["epochs_used"] == b["epochs_used"]

    def test_scarf_names_a_one_row_validation_split(self):
        """n = 12 leaves one validation row: scarf's contrastive metric needs
        two, and the pre-trainers with other metrics still run."""
        ds = make_blob_dataset(n=12, d=4, seed=4)
        splits = make_splits(12, 0)
        assert len(splits.validation) == 1
        with pytest.raises(ValueError, match="at least 2 validation rows, got 1"):
            run_method("scarf", ds, splits, "full", 0, FAST_HP)
        for method in ("scarf_disc", "no_noise_ae", "scarf_ae"):
            assert 0.0 <= run_method(method, ds, splits, "full", 0, FAST_HP)["test_accuracy"] <= 1.0

    def test_unknown_hyperparameter_rejected(self):
        ds = make_blob_dataset(n=120, d=4, seed=3)
        with pytest.raises(TypeError, match="pretrain_max_epoch"):
            run_method("control", ds, make_splits(120, 2), "full", 9,
                       replace(FAST_HP, pretrain_max_epoch=5))

    @pytest.mark.parametrize("key, value", MISTYPED)
    def test_mistyped_hyperparameter_rejected(self, key, value):
        ds = make_blob_dataset(n=120, d=4, seed=3)
        with pytest.raises(ValueError, match=f"hyperparameter '{key}' must be of type"):
            run_method("control", ds, make_splits(120, 2), "full", 9,
                       replace(FAST_HP, **{key: value}))

    def test_numbers_of_the_default_kind_accepted(self):
        hp = Hyperparameters(corruption_rate=1, batch_size=np.int64(32),
                             learning_rate=np.float64(0.01))
        assert (hp.corruption_rate, hp.batch_size, hp.learning_rate) == (1, 32, 0.01)

    @pytest.mark.parametrize("method", ["control", "mixup", "cotrain", "self_train"])
    def test_fine_tune_only_method_takes_batch_size_one(self, method):
        ds = make_blob_dataset(n=60, d=4, seed=6)
        res = run_method(method, ds, make_splits(60, 1), "semi25", 3,
                         replace(FAST_HP, batch_size=1))
        assert 0.0 <= res["test_accuracy"] <= 1.0 and res["pretrain_epochs"] == 0

    @pytest.mark.parametrize("method", ["control", "scarf"])
    def test_patience_zero_rejected(self, method):
        ds = make_blob_dataset(n=60, d=4, seed=6)
        with pytest.raises(ValueError, match="patience must be at least 1"):
            run_method(method, ds, make_splits(60, 1), "full", 3, replace(FAST_HP, patience=0))

    def test_pre_trainer_rejects_batch_size_one(self):
        ds = make_blob_dataset(n=60, d=4, seed=6)
        with pytest.raises(ValueError, match="at least 2 examples"):
            run_method("scarf", ds, make_splits(60, 1), "full", 3, replace(FAST_HP, batch_size=1))

    @pytest.mark.parametrize("recipe, key", [("smooth", "label_smoothing"), ("dropout", "dropout"),
                                             ("mixup", "mixup_alpha")])
    def test_regularizer_of_zero_trains_as_control(self, recipe, key):
        """A recipe whose regularizer is 0 makes no extra draw: accuracy and
        curves equal control's. At its default the regularizer does act."""
        ds = make_blob_dataset(n=120, d=4, seed=3)
        splits = make_splits(120, 2)
        hp = replace(FAST_HP, finetune_max_epochs=6)
        control = run_method("control", ds, splits, "semi25", 9, hp)
        off = run_method(recipe, ds, splits, "semi25", 9, replace(hp, **{key: 0.0}))
        on = run_method(recipe, ds, splits, "semi25", 9, hp)
        assert off["test_accuracy"] == control["test_accuracy"]
        assert off["finetune_outcome"] == control["finetune_outcome"]
        assert on["finetune_outcome"].train_curve != control["finetune_outcome"].train_curve

    @pytest.mark.parametrize("recipe", ["self_train", "tri_train", "distill"])
    def test_pseudo_labeling_trial_has_no_finetune_outcome(self, recipe):
        ds = make_blob_dataset(n=120, d=4, seed=4)
        res = run_method(recipe, ds, make_splits(120, 3), "semi25", 7, FAST_HP)
        assert res["finetune_outcome"] is None and res["epochs_used"] == 0
        assert 0.0 <= res["test_accuracy"] <= 1.0

    @pytest.mark.parametrize("recipe", ["control", "self_train"])
    def test_noisy_labels_reach_training_but_not_validation_or_test(self, recipe, monkeypatch):
        """Under noise30 every finetune call trains on the corrupted training
        labels and validates on the true ones; test accuracy is scored against
        the true test labels."""
        ds = make_blob_dataset(n=120, d=4, seed=5)
        splits = make_splits(120, 4)
        seen = []
        real_finetune = methods.finetune

        def spy(dataset, *args, **kwargs):
            seen.append(dataset.y.copy())
            return real_finetune(dataset, *args, **kwargs)

        monkeypatch.setattr(methods, "finetune", spy)
        res = run_method(recipe, ds, splits, "noise30", 8, FAST_HP)
        y_eff, _, _ = apply_setting(ds, splits, "noise30", np.random.default_rng(8),
                                    Hyperparameters())
        assert not np.array_equal(y_eff[splits.train], ds.y[splits.train])
        held_out = np.concatenate([splits.validation, splits.test])
        for y in seen:
            np.testing.assert_array_equal(y[held_out], ds.y[held_out])
        np.testing.assert_array_equal(seen[0][splits.train], y_eff[splits.train])
        assert 0.0 <= res["test_accuracy"] <= 1.0

    @pytest.mark.parametrize("method", ["scarf", "scarf_aug", "cotrain"])
    def test_table_reaches_both_phases(self, method, monkeypatch):
        """One batch size and one corruption config from the table feed
        pre-training, scarf_aug augmentation and the co-training term."""
        pretrain_calls, finetune_calls = [], []

        def spy(fn, calls):
            def wrapper(*args, **kwargs):
                calls.append((args, kwargs))
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(methods, "pretrain_scarf", spy(methods.pretrain_scarf, pretrain_calls))
        monkeypatch.setattr(methods, "finetune", spy(methods.finetune, finetune_calls))
        ds = make_blob_dataset(n=120, d=4, seed=3)
        hp = replace(FAST_HP, batch_size=24, corruption_rate=0.3, donor="single_row")
        run_method(method, ds, make_splits(120, 2), "full", 9, hp)
        expected = Hyperparameters(corruption_rate=0.3, donor="single_row")

        def corruption(hp):
            """The values of the eight corruption fields of `hp`."""
            return tuple(getattr(hp, name) for name in (
                "corruption_strategy", "corruption_rate", "index_selection", "view_policy",
                "index_sharing", "donor", "gaussian_sigma", "unique_pool"))

        pretrain_cfg = [args[3] for args, _ in pretrain_calls]
        [(finetune_args, finetune_kwargs)] = finetune_calls
        finetune_cfg = finetune_args[4]
        assert [c.batch_size for c in pretrain_cfg + [finetune_cfg]] == [24] * (len(pretrain_cfg) + 1)
        if method == "scarf":
            assert corruption(pretrain_cfg[0]) == corruption(expected)
        elif method == "scarf_aug":
            assert (finetune_kwargs["recipe"], corruption(finetune_cfg)) == (
                "scarf_aug", corruption(expected))
        else:
            assert (finetune_kwargs["recipe"], corruption(finetune_cfg)) == (
                "cotrain", corruption(expected))

    @pytest.mark.parametrize("recipe", ["self_train", "tri_train"])
    def test_non_default_hyperparameters_take_effect(self, recipe, monkeypatch):
        """The architecture, the setting's label noise and labeled share, and
        the pseudo-labeling threshold and rounds are read from the
        hyperparameters by the code that uses them."""
        seen = {}
        real = baselines.PSEUDO_LABELERS[recipe]

        def spy(*args):
            seen["args"] = args
            seen["model"] = real(*args)
            return seen["model"]

        monkeypatch.setitem(baselines.PSEUDO_LABELERS, recipe, spy)
        ds = make_blob_dataset(n=120, d=4, seed=3)
        splits = make_splits(120, 2)
        hp = replace(FAST_HP, hidden_dim=6, encoder_layers=3, head_layers=1,
                     labeled_fraction=0.5, self_train_threshold=0.6, self_train_iterations=3)
        run_method(recipe, ds, splits, "semi25", 9, hp)
        _, labeled, _, _, _, resolved = seen["args"]
        assert abs(len(labeled) - 0.5 * len(splits.train)) <= 0.5
        assert (resolved.self_train_threshold, resolved.self_train_iterations) == (0.6, 3)
        model = seen["model"]
        assert [(layer.in_dim, layer.out_dim) for layer in model.net(None).layers] == \
            [(4, 6), (6, 6), (6, 6), (6, 2)]
        y, _, _ = apply_setting(ds, splits, "noise30", np.random.default_rng(0),
                                Hyperparameters(noise_rate=0.5))
        np.testing.assert_array_equal(
            y[splits.train], corrupt_labels(ds.y[splits.train], 0.5, 2, np.random.default_rng(0)))


def write_mixed_csv(tmp_path, n=80):
    """Two numerical features far from zero mean and unit spread around a
    categorical one."""
    rng = np.random.default_rng(1)
    rows = ["a,color,b,target"]
    for i in range(n):
        a, b = rng.normal(size=2) * [3.0, 0.5] + [10.0, -1.0]
        rows.append(f"{a:.5f},{'rgb'[i % 3]},{b:.5f},{'xy'[int(a > 10)]}")
    path = tmp_path / "mixed.csv"
    path.write_text("\n".join(rows) + "\n")
    schema = Schema(["a", "color", "b", "target"],
                    ["numerical", "categorical", "numerical", "label"])
    return path, schema


class TestRunBenchmark:
    def test_records_and_resume(self, tmp_path):
        ds = make_blob_dataset(n=120, d=4, seed=4)
        records = list(run_benchmark({"blob": ds}, ["control"], ["full"], 2, 0,
                                     out_dir=tmp_path, hp=FAST_HP))
        assert len(records) == 2
        assert all(isinstance(r, rundir.MethodRun) for r in records)
        again = list(run_benchmark({"blob": ds}, ["control"], ["full"], 2, 0,
                                   out_dir=tmp_path, hp=FAST_HP))
        assert again == []  # everything already completed

    def test_out_dir_pins_what_decides_its_records(self, tmp_path):
        """A resume used to append records of another seed, scaling, data or
        hyperparameters to the run it resumed. Now it raises before it writes
        anything, and before it loads anything but the data it checks; the
        methods, settings, trials and jobs stay free."""
        ds = make_blob_dataset(n=120, d=4, seed=4)
        same = {"base_seed": 0, "out_dir": tmp_path, "hp": FAST_HP}
        list(run_benchmark({"blob": ds}, ["control"], ["full"], 1, **same))
        digest = rundir._data_digest(ds)
        assert json.loads((tmp_path / "pin.json").read_text()) == {
            "seed": 0, "results_version": methods.RESULTS_VERSION, "data_digest": {"blob": digest},
            **asdict(FAST_HP)}
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        for key, value, named in (("base_seed", 5, "seed is 0 there, 5 here"),
                                  ("hp", replace(FAST_HP, scaling="minmax"),
                                   "scaling is 'zscore' there, 'minmax' here"),
                                  ("hp", replace(FAST_HP, dropout=0.5),
                                   "dropout is 0.04 there, 0.5 here")):
            with pytest.raises(ValueError, match=re.escape(f"pins another run: {named}")):
                run_benchmark({"blob": lambda: pytest.fail("loaded")}, ["control"], ["full"], 2,
                              **{**same, key: value})
        other = make_blob_dataset(n=120, d=4, seed=5)
        named = (f"data_digest is {{'blob': {digest!r}}} there, "
                 f"{{'blob': {rundir._data_digest(other)!r}}} here")
        with pytest.raises(ValueError, match=re.escape(f"pins another run: {named}")):
            run_benchmark({"blob": other}, ["control"], ["full"], 2, **same)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
        again = list(run_benchmark({"blob": ds}, ["control", "mixup"], ["full", "semi25"], 2,
                                   **same, jobs=2))
        assert len(again) == 7
        assert (tmp_path / "pin.json").read_bytes() == before["pin.json"]

    def test_two_tables_under_one_id_do_not_share_out_dir(self, tmp_path):
        """Library callers pinned no data, so the records of two in-memory
        tables under one dataset id used to mix in one `out_dir`."""
        first, second = make_blob_dataset(n=120, d=4, seed=1), make_blob_dataset(n=120, d=4, seed=2)
        list(run_benchmark({"blob": first}, ["control"], ["full"], 1, 0, tmp_path, FAST_HP))
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        with pytest.raises(ValueError, match="pins another run: data_digest is "):
            run_benchmark({"blob": second}, ["mixup"], ["full"], 1, 0, tmp_path, FAST_HP)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
        # a table with no trial left is neither loaded nor checked
        assert list(run_benchmark({"blob": second}, ["control"], ["full"], 1, 0, tmp_path,
                                  FAST_HP)) == []
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
        # a new id extends the pin
        list(run_benchmark({"blob": lambda: pytest.fail("loaded"), "other": second}, ["control"],
                           ["full"], 1, 0, tmp_path, FAST_HP))
        assert json.loads((tmp_path / "pin.json").read_text())["data_digest"] == {
            "blob": rundir._data_digest(first), "other": rundir._data_digest(second)}

    def test_pin_with_scaling_beside_the_hyperparameters_resumes(self, tmp_path):
        """A pin written with `scaling` as a run key beside the 28 other
        hyperparameters holds the same keys and values as one written with it
        as a field: it resumes and is not rewritten, and it still pins the
        scaling."""
        ds = make_blob_dataset(n=120, d=4, seed=4)
        fields = asdict(FAST_HP)
        pin = {"seed": 0, "results_version": methods.RESULTS_VERSION,
               "scaling": fields.pop("scaling"), "data_digest": {"blob": rundir._data_digest(ds)},
               **fields}
        assert len(fields) == 28
        (tmp_path / "pin.json").write_text(json.dumps(pin, indent=2))
        before = (tmp_path / "pin.json").read_bytes()
        assert len(list(run_benchmark({"blob": ds}, ["control"], ["full"], 1, 0, tmp_path,
                                      FAST_HP))) == 1
        assert (tmp_path / "pin.json").read_bytes() == before
        with pytest.raises(ValueError, match=re.escape(
                "pins another run: scaling is 'zscore' there, 'minmax' here")):
            run_benchmark({"blob": ds}, ["control"], ["full"], 2, 0, tmp_path,
                          replace(FAST_HP, scaling="minmax"))
        assert (tmp_path / "pin.json").read_bytes() == before

    def test_pin_of_one_digest_for_all_data_is_refused(self, tmp_path):
        """A pin that holds one string under `data_digest` names no dataset:
        it is refused, not pinned again over records it cannot check."""
        pin = {"seed": 0, "results_version": methods.RESULTS_VERSION, "scaling": "zscore",
               "data_digest": "", **asdict(FAST_HP)}
        (tmp_path / "pin.json").write_text(json.dumps(pin, indent=2))
        with pytest.raises(ValueError, match=re.escape("pins another run: data_digest is '' "
                                                       "there, {} here")):
            run_benchmark({"blob": lambda: pytest.fail("loaded")}, ["control"], ["full"], 1, 0,
                          tmp_path, FAST_HP)
        assert json.loads((tmp_path / "pin.json").read_text()) == pin

    def test_pin_of_another_results_version_is_refused(self, tmp_path, monkeypatch):
        """A resume across a change that moved outputs used to append the new
        program's records beside the old one's. A pin of another version, or
        of the format without one, is refused before anything is written;
        deleting pin.json pins the directory again."""
        ds = make_blob_dataset(n=120, d=4, seed=4)
        list(run_benchmark({"blob": ds}, ["control"], ["full"], 1, 0, tmp_path, FAST_HP))
        pin = json.loads((tmp_path / "pin.json").read_text())
        monkeypatch.setattr(methods, "RESULTS_VERSION", methods.RESULTS_VERSION + 1)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        for there in (methods.RESULTS_VERSION - 1, None):
            if there is None:  # the format that pinned no version
                del pin["results_version"]
                (tmp_path / "pin.json").write_text(json.dumps(pin, indent=2))
                before["pin.json"] = (tmp_path / "pin.json").read_bytes()
            with pytest.raises(ValueError, match=re.escape(
                    f"pins another run: results_version is {there!r} there, "
                    f"{methods.RESULTS_VERSION} here")):
                run_benchmark({"blob": lambda: pytest.fail("loaded")}, ["control"], ["full"], 2,
                              0, tmp_path, FAST_HP)
            assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
        (tmp_path / "pin.json").unlink()
        assert len(list(run_benchmark({"blob": ds}, ["control"], ["full"], 2, 0, tmp_path,
                                      FAST_HP))) == 1
        assert json.loads((tmp_path / "pin.json").read_text())["results_version"] == \
            methods.RESULTS_VERSION

    def test_failed_pin_write_leaves_out_dir_resumable(self, tmp_path, monkeypatch):
        """A dump cut off midway used to leave a torn pin.json that every
        later call failed to parse."""
        real_dump = json.dump

        def torn_dump(obj, fh, **kwargs):
            monkeypatch.setattr(json, "dump", real_dump)
            fh.write('{"seed": 0,')
            raise OSError("disk full")

        monkeypatch.setattr(json, "dump", torn_dump)
        ds = make_blob_dataset(n=120, d=4, seed=4)
        with pytest.raises(OSError, match="disk full"):
            run_benchmark({"blob": ds}, ["control"], ["full"], 1, 0, tmp_path, FAST_HP)
        assert list(tmp_path.iterdir()) == []  # nor its temporary file
        assert len(list(run_benchmark({"blob": ds}, ["control"], ["full"], 1, 0, tmp_path,
                                      FAST_HP))) == 1
        assert json.loads((tmp_path / "pin.json").read_text())["seed"] == 0

    @pytest.mark.parametrize("first_rate, second_rate", [(0.001, 0.01), (0.01, 0.001)])
    def test_two_calls_into_one_directory_leave_a_whole_pin(self, tmp_path, first_rate,
                                                            second_rate):
        """A second call that starts while the first loads its data used to
        read the absent pin too, and both calls recorded every key, one of
        them twice in the file, from two learning rates. The first call now
        holds the directory's lock, so the second, from another thread, is
        refused before it reads or writes there, and the first runs alone.
        No thread waits more than 60 s for the other."""
        ds = make_blob_dataset(n=120, d=4, seed=4)
        loading, refused, outcomes = threading.Event(), threading.Event(), {}

        def load():
            loading.set()
            refused.wait(60)
            return ds

        def call(rate, source):
            try:
                outcomes[rate] = list(run_benchmark({"blob": source}, ["control"], ["full"], 2, 0,
                                                    tmp_path, replace(FAST_HP, learning_rate=rate)))
            except ValueError as exc:
                outcomes[rate] = exc
                refused.set()

        first = threading.Thread(target=call, args=(first_rate, load))
        first.start()
        assert loading.wait(60)
        second = threading.Thread(target=call, args=(second_rate, ds))
        second.start()
        second.join(60)
        first.join(60)
        assert not first.is_alive() and not second.is_alive()
        assert len(outcomes[first_rate]) == 2
        assert re.fullmatch(f"{re.escape(str(tmp_path))} is locked by another run_benchmark "
                            "call writing to it", str(outcomes[second_rate]))
        assert read_json_object(tmp_path / "pin.json", "pin")["learning_rate"] == first_rate
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "pin.json", "results.jsonl", "trace.jsonl"]
        assert len(rundir.load_runs(tmp_path / "results.jsonl")) == 2
        assert list(run_benchmark({"blob": ds}, ["control"], ["full"], 2, 0, tmp_path,
                                  replace(FAST_HP, learning_rate=first_rate))) == []

    @pytest.mark.parametrize("from_thread", [False, True])
    def test_open_iterator_locks_the_directory(self, tmp_path, monkeypatch, from_thread):
        """While one call's iterator is open, a second call into its
        directory raises, naming it, before it loads data or reads or writes
        there; once the first is closed, a new call runs."""
        ds = make_blob_dataset(n=120, d=4, seed=4)
        list(run_benchmark({"blob": ds}, ["control"], ["full"], 1, 0, tmp_path, FAST_HP))
        first = run_benchmark({"blob": ds}, ["control"], ["full"], 2, 0, tmp_path, FAST_HP)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        touched = []
        for name in ("read_json_object", "write_json_object", "completed_keys"):
            monkeypatch.setattr(rundir, name, lambda *a, _name=name, **k: touched.append(_name))

        def second():
            def load():
                touched.append("load")
                return ds
            return run_benchmark({"blob": load}, ["control"], ["full"], 2, 0, tmp_path, FAST_HP)

        errors = []
        if from_thread:
            thread = threading.Thread(target=lambda: errors.append(pytest.raises(ValueError, second)))
            thread.start()
            thread.join(60)
            assert not thread.is_alive()
            [refusal] = errors
        else:
            refusal = pytest.raises(ValueError, second)
        assert str(refusal.value) == f"{tmp_path} is locked by another run_benchmark call writing to it"
        assert touched == []
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
        first.close()
        monkeypatch.undo()
        assert len(list(run_benchmark({"blob": ds}, ["control"], ["full"], 2, 0, tmp_path,
                                      FAST_HP))) == 1

    def test_lock_released_when_the_iterator_ends_is_collected_or_the_call_raises(self, tmp_path):
        ds = make_blob_dataset(n=120, d=4, seed=4)
        assert len(list(run_benchmark({"blob": ds}, ["control"], ["full"], 1, 0, tmp_path,
                                      FAST_HP))) == 1  # ended
        run_benchmark({"blob": ds}, ["control"], ["full"], 2, 0, tmp_path, FAST_HP)  # collected
        with pytest.raises(ValueError, match="pins another run"):  # raised after locking
            run_benchmark({"blob": ds}, ["control"], ["full"], 2, 1, tmp_path, FAST_HP)
        assert len(list(run_benchmark({"blob": ds}, ["control"], ["full"], 2, 0, tmp_path,
                                      FAST_HP))) == 1

    @pytest.mark.parametrize("open_meanwhile", [False, True])
    def test_new_directory_written_by_another_call_meanwhile_is_refused(self, tmp_path,
                                                                        open_meanwhile):
        """A call that finds no `out_dir` creates and locks it after loading
        its data. If another call created it in the meantime and still holds
        it, or has pinned it, the call is refused and leaves what the other
        wrote as it was."""
        ds = make_blob_dataset(n=120, d=4, seed=4)
        out_dir, other = tmp_path / "new", []

        def load():  # the other call creates out_dir, pins it and runs one trial
            other.append(run_benchmark({"blob": ds}, ["control"], ["full"], 1, 0, out_dir,
                                       replace(FAST_HP, learning_rate=0.01)))
            if not open_meanwhile:
                list(other[0])
            return ds

        message = "is locked by another" if open_meanwhile else "was written by another"
        with pytest.raises(ValueError, match=f"{re.escape(str(out_dir))} {message} run_benchmark"):
            run_benchmark({"blob": load}, ["control"], ["full"], 1, 0, out_dir, FAST_HP)
        assert read_json_object(out_dir / "pin.json", "pin")["learning_rate"] == 0.01
        assert len(list(other[0])) == open_meanwhile
        assert len(rundir.load_runs(out_dir / "results.jsonl")) == 1

    def test_resume_refuses_a_key_recorded_twice(self, tmp_path):
        """A resume used to accept a results file with two records of one key
        and run on beside them."""
        ds = make_blob_dataset(n=120, d=4, seed=4)
        list(run_benchmark({"blob": ds}, ["control"], ["full"], 2, 0, tmp_path, FAST_HP))
        results = tmp_path / "results.jsonl"
        first = results.read_text().splitlines()[0]
        with open(results, "a") as fh:
            fh.write(first + "\n")
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        with pytest.raises(ValueError, match=re.escape(
                f"{results}, lines 1 and 3: key ('blob', 'control', 'full', 0) recorded twice")):
            run_benchmark({"blob": lambda: pytest.fail("loaded")}, ["control"], ["full"], 3, 0,
                          tmp_path, FAST_HP)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_resume_refuses_a_non_finite_record(self, tmp_path):
        """A record hand-edited to a NaN accuracy used to count its trial as
        done, so a resume skipped it silently and ran nothing."""
        ds = make_blob_dataset(n=120, d=4, seed=4)
        list(run_benchmark({"blob": ds}, ["control"], ["full"], 2, 0, tmp_path, FAST_HP))
        results = tmp_path / "results.jsonl"
        first, second = results.read_text().splitlines()
        edited = {**json.loads(second), "test_accuracy": float("nan")}  # dumped as bare NaN
        results.write_text(f"{first}\n{json.dumps(edited, sort_keys=True)}\n")
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        with pytest.raises(ValueError, match=re.escape(
                f"{results}, line 2: not a results record (non-finite test_accuracy nan for "
                "('blob', 'control', 'full', 1))")):
            run_benchmark({"blob": lambda: pytest.fail("loaded")}, ["control"], ["full"], 2, 0,
                          tmp_path, FAST_HP)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_refused_record_is_a_failure(self, tmp_path, monkeypatch):
        """A trial whose record `MethodRun` refuses is a TrialFailure with no
        record, and reruns on resume."""
        def nan_accuracy(method, dataset, splits, setting, seed, hp):
            return {"test_accuracy": float("nan"), "epochs_used": 1, "pretrain_epochs": 0}

        monkeypatch.setattr(methods, "run_method", nan_accuracy)
        ds = make_blob_dataset(n=120, d=4, seed=4)
        [failure] = run_benchmark({"blob": ds}, ["control"], ["full"], 1, 0, tmp_path, FAST_HP)
        assert isinstance(failure, TrialFailure)
        assert str(failure.error) == ("non-finite test_accuracy nan for "
                                      "('blob', 'control', 'full', 0)")
        [line] = read_trace(tmp_path)
        assert line["error_type"] == "ValueError"
        assert not (tmp_path / "results.jsonl").exists()
        monkeypatch.setattr(methods, "run_method", run_method)
        assert [r.trial_index for r in run_benchmark({"blob": ds}, ["control"], ["full"], 1, 0,
                                                     tmp_path, FAST_HP)] == [0]

    def test_record_written_after_its_trace_line(self, tmp_path, monkeypatch):
        """A trace append that fails leaves no record, so the trial reruns on
        resume and its curves come then."""
        real_append = rundir.append_line

        def failing_append(path, line):
            if os.path.basename(path) == "trace.jsonl":
                monkeypatch.setattr(rundir, "append_line", real_append)
                raise OSError("disk full")
            real_append(path, line)

        monkeypatch.setattr(rundir, "append_line", failing_append)
        ds = make_blob_dataset(n=120, d=4, seed=4)
        with pytest.raises(OSError, match="disk full"):
            list(run_benchmark({"blob": ds}, ["control"], ["full"], 1, 0, tmp_path, FAST_HP))
        assert not (tmp_path / "results.jsonl").exists()
        assert len(list(run_benchmark({"blob": ds}, ["control"], ["full"], 1, 0, tmp_path,
                                      FAST_HP))) == 1
        assert [line["trial_index"] for line in read_trace(tmp_path)] == [0]

    def test_dataset_id_that_names_a_path_runs(self, tmp_path):
        """The id used to name the curves files, so "a/b" was refused."""
        ds = make_blob_dataset(n=120, d=4, seed=4)
        [record] = run_benchmark({"a/b": ds}, ["control"], ["full"], 1, 0, tmp_path, FAST_HP)
        assert rundir.load_runs(tmp_path / "results.jsonl") == [record]
        assert [line["dataset_id"] for line in read_trace(tmp_path)] == ["a/b"]

    def test_dataset_too_small_to_split_raises_before_any_file(self, tmp_path):
        """Every trial would fail to split it: it used to write the pin and
        one failure per trial."""
        tiny = make_blob_dataset(n=9, d=4, seed=4)
        with pytest.raises(ValueError, match="'tiny' has 9 rows, fewer than the 10 a split needs"):
            run_benchmark({"tiny": tiny}, ["control"], ["full"], 3, 0, tmp_path / "o", FAST_HP)
        assert not (tmp_path / "o").exists()

    def test_dataset_with_one_label_raises_before_any_file(self, tmp_path):
        """Every trial would score a test accuracy of 1.0 on it: it used to
        write records that read as results."""
        blob = make_blob_dataset(n=40, d=4, seed=4)
        one = replace(blob, y=np.zeros_like(blob.y))
        with pytest.raises(ValueError, match="^dataset 'one' labels every row '0'; "
                                             "a classifier needs 2 classes$"):
            run_benchmark({"one": one}, ["control"], ["full"], 2, 0, tmp_path / "o", FAST_HP)
        assert not (tmp_path / "o").exists()

    def test_finetune_trains_on_the_array_that_scale_returned(self, monkeypatch):
        # `scale` returns X in the training dtype, so run_method's cast to the
        # weights' dtype copies nothing and the trial holds one scaled X
        scaled, trained = [], []
        real_scale, real_finetune = data.scale, methods.finetune

        def tracked_scale(*args):
            out = real_scale(*args)
            scaled.append(out.X)
            return out

        def checked_finetune(dataset, *args, **kwargs):
            trained.append(dataset.X)
            return real_finetune(dataset, *args, **kwargs)

        monkeypatch.setattr(data, "scale", tracked_scale)  # as `split_and_scale` calls it
        monkeypatch.setattr(methods, "finetune", checked_finetune)
        ds = make_blob_dataset(n=120, d=4, seed=4)
        records = list(run_benchmark({"blob": ds}, ["control"], ["full"], 2, 0, hp=FAST_HP))
        assert all(isinstance(r, rundir.MethodRun) for r in records)
        assert len(trained) == len(scaled) == 2
        assert all(t is s and t.dtype == np.float32 for t, s in zip(trained, scaled))

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_each_trial_is_set_up_once_for_all_its_methods_and_settings(self, tmp_path,
                                                                      monkeypatch, jobs):
        """Each key used to split and scale its own copy of the table: 24
        set-ups for the 24 keys of 2 datasets x 2 trials. Now each (dataset,
        trial) is set up once, and each record is still the one that a
        one-off trial on its own set-up gives; the files are the same bytes
        for any `jobs`."""
        datasets = {"a": make_blob_dataset(n=120, d=4, seed=4),
                    "b_c": make_blob_dataset(n=90, d=3, seed=5)}
        names, settings = ["control", "scarf", "mixup"], ["full", "semi25"]
        set_ups, real = [], methods.split_and_scale

        def counted(dataset, splits_seed, scaling):
            set_ups.append(splits_seed)
            return real(dataset, splits_seed, scaling)

        monkeypatch.setattr(methods, "split_and_scale", counted)
        out = tmp_path / str(jobs)
        records = list(run_benchmark(datasets, names, settings, 2, 0, out, FAST_HP, jobs=jobs))
        assert len(records) == 24 and all(isinstance(r, rundir.MethodRun) for r in records)
        assert sorted(set_ups) == sorted(derive_seed(0, dataset_id, trial)
                                         for dataset_id in datasets for trial in range(2))
        for r in records:
            res = run_method(r.method_name, *real(datasets[r.dataset_id],
                                                  derive_seed(0, r.dataset_id, r.trial_index),
                                                  FAST_HP.scaling),
                             r.setting, r.seed, FAST_HP)
            assert (r.test_accuracy, r.epochs_used, r.pretrain_epochs) == (
                res["test_accuracy"], res["epochs_used"], res["pretrain_epochs"])
        if jobs == 2:  # the jobs=1 directory of the same grid
            list(run_benchmark(datasets, names, settings, 2, 0, tmp_path / "1", FAST_HP))
            assert ({p.name: p.read_bytes() for p in out.iterdir()}
                    == {p.name: p.read_bytes() for p in (tmp_path / "1").iterdir()})

    def test_a_trial_that_writes_into_the_shared_table_fails(self, monkeypatch):
        """The methods of one trial share its scaled table, read-only: a
        method that writes into it used to change only its own copy, and now
        it fails, and the next method of the trial reads the table as it
        was. The caller's table stays writable and unchanged."""
        seen = []

        def writer(method, dataset, splits, setting, seed, hp):
            seen.append(dataset.X.copy())
            if method == "control":
                dataset.X[0, 0] += 1.0
            return {"test_accuracy": 1.0, "epochs_used": 1, "pretrain_epochs": 0}

        monkeypatch.setattr(methods, "run_method", writer)
        ds = make_blob_dataset(n=40, d=2)
        before = ds.X.copy()
        failed, ran = run_benchmark({"blob": ds}, ["control", "mixup"], ["full"], 1, 0,
                                    hp=FAST_HP)
        assert isinstance(failed, TrialFailure) and failed.method_name == "control"
        assert isinstance(failed.error, ValueError) and "read-only" in str(failed.error)
        assert isinstance(ran, rundir.MethodRun) and ran.method_name == "mixup"
        np.testing.assert_array_equal(seen[1], seen[0])
        assert ds.X.flags.writeable
        np.testing.assert_array_equal(ds.X, before)

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("names, settings", [(["control"], ["full"]),
                                                 (["control", "mixup", "scarf"], ["full", "semi25"])],
                             ids=["one_key_a_trial", "six_keys_a_trial"])
    def test_scaled_tables_alive_at_once(self, monkeypatch, jobs, names, settings):
        """No more than `jobs` + 1 scaled tables are ever alive, and no more
        than `jobs` where each trial has one key; none is left once the
        iterator ends."""
        finalizers, peak, real = [], [0], methods.split_and_scale

        def tracked(*args):
            scaled, splits = real(*args)
            finalizers.append(weakref.finalize(scaled.X, lambda: None))
            peak[0] = max(peak[0], sum(f.alive for f in finalizers))
            return scaled, splits

        def slow(method, dataset, splits, setting, seed, hp):
            time.sleep(0.005)
            return {"test_accuracy": 1.0, "epochs_used": 1, "pretrain_epochs": 0}

        monkeypatch.setattr(methods, "split_and_scale", tracked)
        monkeypatch.setattr(methods, "run_method", slow)
        records = list(run_benchmark({"a": make_blob_dataset(n=40, d=2, seed=1),
                                      "b": make_blob_dataset(n=40, d=2, seed=2)},
                                     names, settings, 4, 0, hp=FAST_HP, jobs=jobs))
        keys_a_trial = len(names) * len(settings)
        assert len(records) == 8 * keys_a_trial and len(finalizers) == 8
        assert 1 <= peak[0] <= jobs + (keys_a_trial > 1)
        assert not any(f.alive for f in finalizers)

    def test_split_seed_shared_across_methods(self):
        # both methods in one trial must see identical splits: the split seed
        # depends only on (base_seed, dataset, trial)
        assert derive_seed(0, "d", 3) == derive_seed(0, "d", 3, salt="")
        assert derive_seed(0, "d", 3, salt="control|full") != derive_seed(0, "d", 3, salt="scarf|full")

    def test_unknown_method_raises(self, tmp_path):
        ds = make_blob_dataset(n=120, d=4, seed=5)
        with pytest.raises(UnknownMethodError):
            list(run_benchmark({"blob": ds}, ["ghost"], ["full"], 1, 0, hp=FAST_HP))

    @pytest.mark.parametrize("settings, scaling", [(["half"], "zscore"), (["full"], "zscroe")])
    def test_unknown_setting_or_scaling_raises_before_first_trial(self, tmp_path, monkeypatch,
                                                                  settings, scaling):
        calls = []
        monkeypatch.setattr(methods, "run_method", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match="unknown"):
            list(run_benchmark({"blob": make_blob_dataset(n=120, d=4)}, ["control"], settings,
                               2, 0, out_dir=tmp_path, hp=replace(FAST_HP, scaling=scaling)))
        assert calls == []
        assert not (tmp_path / "results.jsonl").exists()

    def test_unknown_hyperparameter_raises_before_any_file(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(methods, "run_method", lambda *args: calls.append(args))
        with pytest.raises(TypeError, match="unexpected keyword argument 'pretrain_max_epoch'"):
            list(run_benchmark({"blob": make_blob_dataset(n=120, d=4)}, ["control"], ["full"],
                               2, 0, out_dir=tmp_path, hp=Hyperparameters(pretrain_max_epoch=5)))
        assert calls == []
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("key, value, error", [
        ("pretrain_loss", "bogus", "unknown pretrain_loss 'bogus'"),
        ("validation_metric", "bogus", "unknown validation_metric 'bogus'"),
        ("cotrain_weight", -1.0, "cotrain_weight must be nonnegative"),
    ])
    def test_invalid_hyperparameter_value_raises_before_any_file(self, tmp_path, monkeypatch,
                                                                 key, value, error):
        calls = []
        monkeypatch.setattr(methods, "run_method", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match=error):
            list(run_benchmark({"blob": make_blob_dataset(n=120, d=4)}, ["scarf+cotrain"],
                               ["full"], 2, 0, out_dir=tmp_path,
                               hp=Hyperparameters(**{key: value})))
        assert calls == []
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("key, value, rule", [
        ("learning_rate", -0.1, "positive and finite"),
        ("learning_rate", float("nan"), "positive and finite"),
        ("batch_size", -3, "at least 1"),
        ("batch_size", 0, "at least 1"),
        ("pretrain_max_epochs", -5, "nonnegative and finite"),
        ("finetune_max_epochs", -5, "nonnegative and finite"),
        ("val_build_epochs", 0, "at least 1"),
        ("hidden_dim", 0, "at least 1"),
        ("encoder_layers", 0, "at least 1"),
        ("head_layers", 0, "at least 1"),
        ("patience", 0, "at least 1"),
        ("temperature", 0.0, "positive and finite"),
        ("temperature", float("inf"), "positive and finite"),
        ("label_smoothing", 2.0, "in [0, 1)"),
        ("dropout", 1.0, "in [0, 1)"),
        ("mixup_alpha", -1.0, "nonnegative and finite"),
        ("noise_rate", 1.5, "in [0, 1]"),
        ("labeled_fraction", 0.0, "in (0, 1]"),
        ("self_train_threshold", 5, "in (0, 1]"),
        ("self_train_threshold", 0.0, "in (0, 1]"),
        ("self_train_iterations", -1, "nonnegative and finite"),
        ("gaussian_sigma", float("nan"), "positive and finite"),
        ("gaussian_sigma", float("inf"), "positive and finite"),
        ("gaussian_sigma", 0.0, "positive and finite"),
        ("corruption_rate", float("nan"), "in [0, 1]"),
        ("corruption_rate", 1.5, "in [0, 1]"),
    ])
    def test_out_of_range_hyperparameter_raises_before_any_file(self, tmp_path, monkeypatch,
                                                                key, value, rule):
        """Each value used to pass into the trials, where it failed every one
        of them or trained on a meaningless setting (gradient ascent, no step,
        no epoch)."""
        calls = []
        monkeypatch.setattr(methods, "run_method", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match=re.escape(f"{key} must be {rule}, got {value!r}")):
            list(run_benchmark({"blob": make_blob_dataset(n=120, d=4)}, ["scarf+self_train"],
                               ["semi25"], 2, 0, out_dir=tmp_path,
                               hp=Hyperparameters(**{key: value})))
        assert calls == []
        assert list(tmp_path.iterdir()) == []

    def test_missing_out_dir_is_created_before_the_first_trial(self, tmp_path):
        """The first trial used to run and then fail on results.jsonl, its
        work lost; a rejected call still creates no directory."""
        out = tmp_path / "new" / "results"
        with pytest.raises(UnknownMethodError):
            run_benchmark({"blob": make_blob_dataset(n=120, d=4)}, ["ghost"], ["full"], 1, 0,
                          out_dir=out, hp=FAST_HP)
        assert list(tmp_path.iterdir()) == []
        records = list(run_benchmark({"blob": make_blob_dataset(n=120, d=4)}, ["control"],
                                     ["full"], 1, 0, out_dir=out, hp=FAST_HP))
        assert [r.key() for r in rundir.load_runs(out / "results.jsonl")] == \
            [r.key() for r in records] == [("blob", "control", "full", 0)]

    def test_mistyped_hyperparameter_raises_before_any_file(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(methods, "run_method", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match="hyperparameter 'batch_size' must be of type int"):
            list(run_benchmark({"blob": make_blob_dataset(n=120, d=4)}, ["control"], ["full"],
                               2, 0, out_dir=tmp_path, hp=Hyperparameters(batch_size="32")))
        assert calls == []
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("trials, jobs, name", [(0, 1, "trials"), (-2, 1, "trials"),
                                                    (2, 0, "jobs")])
    def test_trials_or_jobs_below_one_raise_before_any_file(self, tmp_path, monkeypatch,
                                                            trials, jobs, name):
        calls = []
        monkeypatch.setattr(methods, "run_method", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match=f"{name} must be at least 1"):
            list(run_benchmark({"blob": make_blob_dataset(n=120, d=4)}, ["control"], ["full"],
                               trials, 0, out_dir=tmp_path, hp=FAST_HP, jobs=jobs))
        assert calls == []
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("names, settings, repeated", [
        (["control", "control"], ["full"], "method(s) named more than once: ['control']"),
        (["control"], ["full", "semi25", "full"], "setting(s) named more than once: ['full']"),
    ])
    def test_repeated_names_raise_before_results_are_read(self, tmp_path, monkeypatch, names,
                                                          settings, repeated):
        """A repeated name used to run its trials once per repeat and append
        one record per run under one key, which report's Welch tests then
        counted as extra trials."""
        calls = []
        monkeypatch.setattr(methods, "run_method", lambda *args: calls.append(args))
        monkeypatch.setattr(rundir, "completed_keys", lambda path: calls.append(path) or set())
        with pytest.raises(ValueError, match=re.escape(repeated)):
            run_benchmark({"blob": lambda: calls.append("load")}, names, settings, 2, 0,
                          out_dir=tmp_path, hp=FAST_HP)
        assert calls == []
        assert list(tmp_path.iterdir()) == []

    def test_failed_trial_writes_no_record_and_reruns(self, tmp_path, monkeypatch):
        ds = make_blob_dataset(n=120, d=4, seed=4)
        (tmp_path / "clean").mkdir()
        (tmp_path / "flaky").mkdir()
        clean = list(run_benchmark({"blob": ds}, ["control"], ["full"], 3, 0,
                                   out_dir=tmp_path / "clean", hp=FAST_HP))
        flaky_seed = derive_seed(0, "blob", 1, salt="control|full")

        def flaky(method, dataset, splits, setting, seed, hp):
            if seed == flaky_seed:
                raise RuntimeError("boom")
            return run_method(method, dataset, splits, setting, seed, hp)

        out = tmp_path / "flaky"
        monkeypatch.setattr(methods, "run_method", flaky)
        first = list(run_benchmark({"blob": ds}, ["control"], ["full"], 3, 0,
                                   out_dir=out, hp=FAST_HP))
        assert [type(r) for r in first] == [rundir.MethodRun, TrialFailure, rundir.MethodRun]
        assert first[1].trial_index == 1 and "boom" in str(first[1].error)
        assert [r.trial_index for r in rundir.load_runs(out / "results.jsonl")] == [0, 2]
        assert [("error_type" in line, "finetune" in line) for line in read_trace(out)] == [
            (False, True), (True, False), (False, True)]

        monkeypatch.setattr(methods, "run_method", run_method)
        again = list(run_benchmark({"blob": ds}, ["control"], ["full"], 3, 0,
                                   out_dir=out, hp=FAST_HP))
        assert [r.key() for r in again] == [clean[1].key()]
        assert again[0].test_accuracy == clean[1].test_accuracy
        lines = (out / "results.jsonl").read_text().splitlines()
        assert sorted(lines) == sorted((tmp_path / "clean" / "results.jsonl").read_text().splitlines())

    def test_diverged_trials_are_failures_not_records(self, tmp_path):
        """At a learning rate of 1e6 scarf_ae's pre-training and the
        fine-tuning of control and of self_train's first pool go non-finite;
        argmax of NaN logits used to score the share of class 0 as a result.
        scarf at 1e4 scores badly but stays finite, so it stays a result."""
        ds = make_numeric_dataset(n=600, d=20)
        hp = Hyperparameters(hidden_dim=32, pretrain_max_epochs=20, finetune_max_epochs=20)
        diverged, finite = tmp_path / "diverged", tmp_path / "finite"
        for out, names, lr in ((diverged, ["scarf_ae", "control", "self_train"], 1e6),
                               (finite, ["scarf"], 1e4)):
            with np.errstate(all="ignore"):
                list(run_benchmark({"mix": ds}, names, ["semi25"], 1, 0, out_dir=out,
                                   hp=replace(hp, learning_rate=lr)))
        failures = read_trace(diverged)
        assert [(f["method_name"], f["error_type"]) for f in failures] == [
            ("scarf_ae", "TrainingDiverged"), ("control", "TrainingDiverged"),
            ("self_train", "TrainingDiverged")]
        assert failures[0]["message"].startswith("scarf_ae pre-training diverged at epoch ")
        for f in failures[1:]:
            assert f["message"].startswith("fine-tuning diverged at epoch ")
        assert rundir.load_runs(diverged / "results.jsonl") == []
        assert ["error_type" in line for line in read_trace(finite)] == [False]
        assert [r.method_name for r in rundir.load_runs(finite / "results.jsonl")] == ["scarf"]

    def test_failed_trial_logged_to_the_trace(self, tmp_path, monkeypatch):
        """Each attempt leaves one line: a failure that succeeds on resume
        leaves two, the failure first."""
        ds = make_blob_dataset(n=120, d=4, seed=4)
        flaky_seed = derive_seed(0, "blob", 1, salt="control|full")

        def flaky(method, dataset, splits, setting, seed, hp):
            if seed == flaky_seed:
                raise RuntimeError("boom")
            return run_method(method, dataset, splits, setting, seed, hp)

        monkeypatch.setattr(methods, "run_method", flaky)
        list(run_benchmark({"blob": ds}, ["control"], ["full"], 2, 0, out_dir=tmp_path, hp=FAST_HP))
        lines = read_trace(tmp_path)
        assert len(lines) == 2 and "error_type" not in lines[0]
        failure = lines[1]
        assert (failure["dataset_id"], failure["method_name"], failure["setting"],
                failure["trial_index"]) == ("blob", "control", "full", 1)
        assert (failure["error_type"], failure["message"]) == ("RuntimeError", "boom")
        assert "in flaky" in failure["traceback"] and "RuntimeError: boom" in failure["traceback"]
        results = (tmp_path / "results.jsonl").read_text()
        assert [r.trial_index for r in rundir.load_runs(tmp_path / "results.jsonl")] == [0]
        assert "boom" not in results

        monkeypatch.setattr(methods, "run_method", run_method)
        again = list(run_benchmark({"blob": ds}, ["control"], ["full"], 2, 0,
                                   out_dir=tmp_path, hp=FAST_HP))
        assert [r.trial_index for r in again] == [1]
        trace = read_trace(tmp_path)
        assert trace[:2] == lines
        assert (trace[2]["trial_index"], "error_type" in trace[2]) == (1, False)

    def test_loader_runs_only_for_a_dataset_with_trials_left(self, tmp_path):
        ds = make_blob_dataset(n=120, d=4, seed=4)
        loads = []

        def loader():
            loads.append(1)
            return ds

        list(run_benchmark({"blob": ds}, ["control"], ["full"], 1, 0, out_dir=tmp_path, hp=FAST_HP))
        assert list(run_benchmark({"blob": loader}, ["control"], ["full"], 1, 0,
                                  out_dir=tmp_path, hp=FAST_HP)) == []
        assert loads == []
        again = list(run_benchmark({"blob": loader}, ["control"], ["full"], 3, 0,
                                   out_dir=tmp_path, hp=FAST_HP))
        assert [r.trial_index for r in again] == [1, 2] and loads == [1]

    def test_closing_early_under_jobs_skips_the_queued_trials(self, monkeypatch):
        """Closing the iterator after its first outcome waits for the trials
        already running and starts none of those still queued."""
        started = []

        def slow(method, dataset, splits, setting, seed, hp):
            started.append(seed)
            time.sleep(0.05)
            return {"test_accuracy": 1.0, "epochs_used": 1, "pretrain_epochs": 0}

        monkeypatch.setattr(methods, "run_method", slow)
        trials = run_benchmark({"blob": make_blob_dataset(n=40, d=2)}, ["control"], ["full"],
                               40, 0, hp=FAST_HP, jobs=2)
        next(trials)
        trials.close()
        assert len(started) <= 6

    def test_jobs_run_on_one_blas_thread_and_restore_the_count(self, monkeypatch):
        """Under jobs > 1 the trials see one OpenBLAS thread, and the count
        before comes back after the iterator closes early or ends; jobs = 1
        leaves it alone."""
        blas = methods._openblas_threads()
        if blas is None:
            pytest.skip("no known OpenBLAS thread count in this numpy")
        get, set_ = blas
        seen = []

        def counting(method, dataset, splits, setting, seed, hp):
            seen.append(get())
            time.sleep(0.01)
            return {"test_accuracy": 1.0, "epochs_used": 1, "pretrain_epochs": 0}

        monkeypatch.setattr(methods, "run_method", counting)
        ds = make_blob_dataset(n=40, d=2)
        original = get()
        set_(2)
        try:
            trials = run_benchmark({"blob": ds}, ["control"], ["full"], 40, 0, hp=FAST_HP, jobs=2)
            assert get() == 2  # no trial has started
            next(trials)
            assert get() == 1
            trials.close()
            assert get() == 2
            assert len(list(run_benchmark({"blob": ds}, ["control"], ["full"], 3, 0, hp=FAST_HP,
                                          jobs=2))) == 3
            assert get() == 2 and set(seen) == {1}
            seen.clear()
            list(run_benchmark({"blob": ds}, ["control"], ["full"], 2, 0, hp=FAST_HP))
            assert seen == [2, 2] and get() == 2
        finally:
            set_(original)

    def test_nested_jobs_iterators_restore_the_count_once_both_end(self, monkeypatch):
        blas = methods._openblas_threads()
        if blas is None:
            pytest.skip("no known OpenBLAS thread count in this numpy")
        get, set_ = blas
        monkeypatch.setattr(methods, "run_method", lambda *args: {
            "test_accuracy": 1.0, "epochs_used": 1, "pretrain_epochs": 0})
        ds = make_blob_dataset(n=40, d=2)
        original = get()
        set_(2)
        try:
            first, second = (run_benchmark({"blob": ds}, ["control"], ["full"], 4, 0, hp=FAST_HP,
                                           jobs=2) for _ in range(2))
            next(first)
            next(second)
            first.close()
            assert get() == 1  # the second still runs its trials
            second.close()
            assert get() == 2
        finally:
            set_(original)

    def test_jobs_without_a_known_blas_warn_once_and_run(self, monkeypatch):
        monkeypatch.setattr(methods, "_OPENBLAS_NAMES", ())
        monkeypatch.setattr(methods, "run_method", lambda *args: {
            "test_accuracy": 1.0, "epochs_used": 1, "pretrain_epochs": 0})
        ds = make_blob_dataset(n=40, d=2)
        methods._openblas_threads.cache_clear()
        try:
            with pytest.warns(UserWarning, match="no OpenBLAS thread count found"):
                assert len(list(run_benchmark({"blob": ds}, ["control"], ["full"], 2, 0,
                                              hp=FAST_HP, jobs=2))) == 2
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert len(list(run_benchmark({"blob": ds}, ["control"], ["full"], 2, 0,
                                              hp=FAST_HP, jobs=2))) == 2
        finally:
            methods._openblas_threads.cache_clear()

    @pytest.mark.parametrize("scaling", ["zscore", "minmax", "mean"])
    def test_each_trial_scaled_on_its_training_rows(self, tmp_path, monkeypatch, scaling):
        path, schema = write_mixed_csv(tmp_path)
        raw = encode_csv(path, schema)
        raw_X = raw.X.copy()
        assert raw.numerical_columns == [0, 4]
        num, cat = [0, 4], [1, 2, 3]
        seen = []

        def capture(method, dataset, splits, setting, seed, hp):
            seen.append((dataset, splits))
            return run_method(method, dataset, splits, setting, seed, hp)

        monkeypatch.setattr(methods, "run_method", capture)
        list(run_benchmark({"mixed": raw}, ["control"], ["full"], 2, 0,
                           hp=replace(FAST_HP, scaling=scaling)))
        assert len(seen) == 2
        for trial, (ds, splits) in enumerate(seen):
            seed = derive_seed(0, "mixed", trial)
            expected_splits = make_splits(raw.n, seed)
            for part in ("train", "validation", "test"):
                np.testing.assert_array_equal(getattr(splits, part), getattr(expected_splits, part))
            # the float64 formula, which `scale` rounds once to float32
            train = raw_X[np.ix_(splits.train, num)]
            center = train.min(axis=0) if scaling == "minmax" else train.mean(axis=0)
            denom = train.std(axis=0) if scaling == "zscore" else np.ptp(train, axis=0)
            want = raw_X.copy()
            want[:, num] = (raw_X[:, num] - center) / denom
            np.testing.assert_array_equal(ds.X, want.astype(np.float32))
            train = want[splits.train][:, num]
            center = train.min(axis=0) if scaling == "minmax" else train.mean(axis=0)
            spread = train.std(axis=0) if scaling == "zscore" else np.ptp(train, axis=0)
            np.testing.assert_allclose(center, 0.0, atol=1e-12)
            np.testing.assert_allclose(spread, 1.0, atol=1e-12)
            np.testing.assert_array_equal(ds.X[:, cat], raw_X[:, cat])
            expected, _ = process_csv(path, schema, seed, scaling)
            assert ds.X.tobytes() == expected.X.tobytes()
        assert not np.array_equal(seen[0][0].X, seen[1][0].X)
        np.testing.assert_array_equal(raw.X, raw_X)  # the encoded input is not rescaled
