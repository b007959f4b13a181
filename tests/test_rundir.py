"""The run directory's record and trace formats; the pin and the lock are
tested through `run_benchmark` in test_methods.py."""

import json
from contextlib import closing
from dataclasses import fields, replace

import numpy as np
import pytest

from conftest import make_blob_dataset, read_trace
from tabpretrain.data import split_and_scale
from tabpretrain.methods import TrialFailure, run_benchmark, run_method
from tabpretrain.rundir import MethodRun, RunDir, append_run, completed_keys, load_runs
from tabpretrain.training import Hyperparameters

FAST_HP = Hyperparameters(hidden_dim=8, encoder_layers=2, head_layers=1, batch_size=16,
                          pretrain_max_epochs=2, finetune_max_epochs=2, val_build_epochs=2)


def run(method, dataset, trial, acc, setting="full"):
    return MethodRun(dataset, method, trial, 0, setting, acc)


class TestPersistence:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "results.jsonl"
        r = MethodRun("d", "m", 0, 42, "full", 0.97, epochs_used=12, pretrain_epochs=30)
        append_run(path, r)
        loaded = load_runs(path)
        assert len(loaded) == 1
        assert loaded[0].test_accuracy == 0.97
        assert loaded[0].seed == 42
        assert set(json.loads(path.read_text())) == {f.name for f in fields(MethodRun)}

    def test_append_only(self, tmp_path):
        path = tmp_path / "results.jsonl"
        for t in range(3):
            append_run(path, run("m", "d", t, 0.5 + t / 10))
        assert [r.trial_index for r in load_runs(path)] == [0, 1, 2]

    def test_missing_file_is_empty(self, tmp_path):
        assert load_runs(tmp_path / "nope.jsonl") == []
        assert completed_keys(tmp_path / "nope.jsonl") == set()

    def test_completed_keys(self, tmp_path):
        path = tmp_path / "results.jsonl"
        append_run(path, run("m", "d", 3, 0.8, "semi25"))
        assert completed_keys(path) == {("d", "m", "semi25", 3)}

    def test_blank_line_between_records_skipped(self, tmp_path):
        """A blank line is no record and no error: the records around it both
        load, and a resume counts both keys as done."""
        path = tmp_path / "results.jsonl"
        append_run(path, run("m", "d", 0, 0.5))
        with open(path, "a") as fh:
            fh.write("\n")
        append_run(path, run("m", "d", 1, 0.6))
        assert [r.trial_index for r in load_runs(path)] == [0, 1]
        assert completed_keys(path) == {("d", "m", "full", 0), ("d", "m", "full", 1)}

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_accuracy_rejected(self, bad):
        """No record holds a non-finite accuracy, so `append_run` never
        writes one."""
        with pytest.raises(ValueError, match=f"non-finite test_accuracy {bad} for "
                                             r"\('d', 'm', 'full', 1\)"):
            run("m", "d", 1, bad)

    @pytest.mark.parametrize("field, value, message", [
        ("test_accuracy", 1.5, "test_accuracy 1.5 outside [0, 1]"),
        ("test_accuracy", -0.25, "test_accuracy -0.25 outside [0, 1]"),
        ("test_accuracy", 70.16, "test_accuracy 70.16 outside [0, 1]"),
        ("trial_index", -1, "negative trial_index -1"),
        ("epochs_used", -3, "negative epochs_used -3"),
        ("pretrain_epochs", -1, "negative pretrain_epochs -1"),
    ])
    def test_value_no_trial_produces_rejected(self, field, value, message):
        """An accuracy outside [0, 1] (a percentage among fractions) and a
        negative trial index or epoch count used to make a record, which
        `report` scored."""
        kwargs = {"dataset_id": "d", "method_name": "m", "trial_index": 0, "seed": 0,
                  "setting": "full", "test_accuracy": 0.5, field: value}
        key = ("d", "m", "full", kwargs["trial_index"])
        with pytest.raises(ValueError) as info:
            MethodRun(**kwargs)
        assert str(info.value) == f"{message} for {key}"

    @pytest.mark.parametrize("acc, trial", [(0.0, 0), (1.0, 0), (0.5, 7)])
    def test_range_bounds_accepted(self, acc, trial):
        assert MethodRun("d", "m", trial, -5, "full", acc, 0, 0).test_accuracy == acc

    @pytest.mark.parametrize("field, value", [("test_accuracy", "0.9"), ("trial_index", 1.0),
                                              ("seed", True), ("setting", None),
                                              ("epochs_used", "3")])
    def test_mistyped_field_rejected(self, field, value):
        kwargs = {"dataset_id": "d", "method_name": "m", "trial_index": 0, "seed": 0,
                  "setting": "full", "test_accuracy": 0.5, field: value}
        with pytest.raises(ValueError, match=f"field '{field}' must be of type"):
            MethodRun(**kwargs)

    def test_non_finite_line_named(self, tmp_path):
        """A hand-edited NaN accuracy used to load as a record, so a resume
        counted its trial as done; now the file is refused, naming the line."""
        path = tmp_path / "results.jsonl"
        append_run(path, run("m", "d", 0, 0.5))
        with open(path, "a") as fh:
            fh.write('{"dataset_id": "d", "method_name": "m", "trial_index": 1, '
                     '"seed": 0, "setting": "full", "test_accuracy": NaN}\n')
        match = r"results.jsonl, line 2: not a results record \(non-finite test_accuracy nan"
        with pytest.raises(ValueError, match=match):
            load_runs(path)
        with pytest.raises(ValueError, match=match):
            completed_keys(path)

    def test_torn_last_line_dropped(self, tmp_path):
        path = tmp_path / "results.jsonl"
        for t in range(3):
            append_run(path, run("m", "d", t, 0.5 + t / 10))
        whole = path.read_bytes()
        path.write_bytes(whole[: whole.rindex(b"\n", 0, -1) + 20])  # cut record 2 mid-line
        with pytest.warns(UserWarning, match="unterminated"):
            assert [r.trial_index for r in load_runs(path)] == [0, 1]
        append_run(path, run("m", "d", 2, 0.7))
        assert path.read_bytes() == whole

    @pytest.mark.parametrize("line", [
        "garbage", "{", "[1, 2]", '{"dataset_id": "d"}', "NaN",
        # a key named twice used to load with its last value, and nesting
        # past the recursion limit raised RecursionError
        pytest.param('{"dataset_id": "d", "method_name": "m", "trial_index": 1, "seed": 0, '
                     '"setting": "full", "test_accuracy": 0.667, "test_accuracy": 0.99}',
                     id="key_named_twice"),
        pytest.param("[" * 100_000 + "]" * 100_000, id="nested_too_deep"),
        pytest.param('{"dataset_id": "d", "method_name": "m", "trial_index": 1, "seed": 0, '
                     '"setting": "full", "test_accuracy": 1.5}', id="accuracy_above_1"),
    ])
    def test_malformed_line_named(self, tmp_path, line):
        """A terminated line that is not a record raises ValueError naming the
        file and its 1-based line, whether it is no JSON object by the rule of
        `data.parse_json_object` or no record by `MethodRun`'s."""
        path = tmp_path / "results.jsonl"
        append_run(path, run("m", "d", 0, 0.5))
        with open(path, "a") as fh:
            fh.write(line + "\n")
        append_run(path, run("m", "d", 1, 0.6))
        with pytest.raises(ValueError, match="results.jsonl, line 2: not a results record"):
            load_runs(path)
        with pytest.raises(ValueError, match="line 2"):
            completed_keys(path)

    def test_key_recorded_twice_named(self, tmp_path):
        """Two records of one key used to load as two trials, which `report`
        scored as such; now the file is refused, naming both lines."""
        path = tmp_path / "results.jsonl"
        for trial, acc in ((0, 0.5), (1, 0.6), (0, 0.7)):
            append_run(path, run("control", "d", trial, acc))
        key = r"\('d', 'control', 'full', 0\)"
        with pytest.raises(ValueError,
                           match=f"results.jsonl, lines 1 and 3: key {key} recorded twice"):
            load_runs(path)
        with pytest.raises(ValueError, match="lines 1 and 3"):
            completed_keys(path)

    def test_byte_identical_across_reruns(self, tmp_path):
        texts = []
        for name in ("a.jsonl", "b.jsonl"):
            path = tmp_path / name
            r = MethodRun("d", "m", 0, 1, "full", 0.9, 5, 10)
            append_run(path, r)
            texts.append(path.read_bytes())
        assert texts[0] == texts[1]


class TestRunDir:
    def test_failure_after_a_torn_line_starts_a_fresh_line(self, tmp_path):
        """A failure record cut off by a crash used to swallow the next one:
        the append ran on from the torn tail, leaving one line that is no
        JSON. The torn tail is cut off first, as for results.jsonl."""
        path = tmp_path / "trace.jsonl"
        path.write_text('{"dataset_id": "a", "sett')
        with closing(RunDir(tmp_path, {})) as run_dir:
            run_dir.record(TrialFailure("d", "control", "full", 2, RuntimeError("boom")), None)
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        failure = json.loads(lines[0])
        assert (failure["dataset_id"], failure["trial_index"], failure["message"]) == ("d", 2, "boom")

    @pytest.mark.parametrize("method", ["control", "scarf"])
    def test_trace_line_holds_the_curves_of_the_trial(self, tmp_path, method):
        """A recorded trial's line holds its key and each phase's curves, stop
        reason and best epoch, as its `TrainOutcome` holds them after a JSON
        round trip, and null for a phase that did not run; its keys are
        sorted."""
        res = run_method(method, *split_and_scale(make_blob_dataset(n=120, d=4), 7, "zscore"),
                         "full", 3, FAST_HP)
        record = MethodRun("x", method, 1, 3, "full", res["test_accuracy"], res["epochs_used"],
                           res["pretrain_epochs"])
        with closing(RunDir(tmp_path, {})) as run_dir:
            run_dir.record(record, res)
        [text] = (tmp_path / "trace.jsonl").read_text().splitlines()
        line = json.loads(text)
        assert text == json.dumps(line, sort_keys=True)
        curves = {phase: None if outcome is None else
                  {"train": outcome.train_curve, "validation": outcome.val_curve,
                   "stop_reason": outcome.stop_reason, "best_epoch": outcome.best_epoch}
                  for phase, outcome in (("pretrain", res["pretrain_outcome"]),
                                         ("finetune", res["finetune_outcome"]))}
        assert line == {"dataset_id": "x", "method_name": method, "setting": "full",
                        "trial_index": 1, **curves}
        assert (line["pretrain"] is None) == (method == "control")
        assert load_runs(tmp_path / "results.jsonl") == [record]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # pool threads ignore np.errstate
    def test_trace_is_the_same_bytes_for_any_jobs(self, tmp_path):
        """At a learning rate of 1e6 scarf_ae diverges and the other methods
        do not: one line per attempted trial, in trial order, for any jobs."""
        ds = make_blob_dataset(n=120, d=4, seed=4)
        hp = replace(FAST_HP, learning_rate=1e6)
        for jobs in (1, 2):
            outcomes = list(run_benchmark({"blob": ds}, ["control", "scarf", "scarf_ae"],
                                          ["full", "semi25"], 2, 0, tmp_path / str(jobs), hp,
                                          jobs=jobs))
        assert [type(o) for o in outcomes].count(TrialFailure) == 4
        trace = read_trace(tmp_path / "2")
        assert [(t["method_name"], t["setting"], t["trial_index"]) for t in trace] == [
            (o.method_name, o.setting, o.trial_index) for o in outcomes]
        assert [t.get("error_type") for t in trace] == [
            "TrainingDiverged" if o.method_name == "scarf_ae" else None for o in outcomes]
        assert (tmp_path / "1" / "trace.jsonl").read_bytes() == \
            (tmp_path / "2" / "trace.jsonl").read_bytes()


