import csv as csv_module
import json
import os
import subprocess
import sys
from dataclasses import asdict

import numpy as np
import pytest

from tabpretrain import cli, rundir
from tabpretrain.cli import CONFIG_DEFAULTS, main
from tabpretrain.training import Hyperparameters

FAST = {
    "trials": 1,
    "seed": 0,
    "batch_size": 16,
    "hidden_dim": 8,
    "pretrain_max_epochs": 3,
    "finetune_max_epochs": 3,
    "val_build_epochs": 2,
}


def write_dataset(tmp_path, n=60, with_empty_column=False):
    rng = np.random.default_rng(0)
    names = ["f1", "f2", "target"]
    kinds = ["numerical", "numerical", "label"]
    if with_empty_column:
        names = ["f1", "f2", "blank", "target"]
        kinds = ["numerical", "numerical", "numerical", "label"]
    rows = [",".join(names)]
    for _ in range(n):
        x1, x2 = rng.normal(size=2)
        cells = [f"{x1:.5f}", f"{x2:.5f}"]
        if with_empty_column:
            cells.append("")
        cells.append("pos" if x1 + x2 > 0 else "neg")
        rows.append(",".join(cells))
    csv_path = tmp_path / "toy.csv"
    csv_path.write_text("\n".join(rows) + "\n")
    schema_path = tmp_path / "toy.schema.json"
    schema_path.write_text(json.dumps(dict(zip(names, kinds))))
    return str(csv_path), str(schema_path)


def write_bad_cell(tmp_path, cell):
    """The toy dataset with `cell` as f1 of CSV row 4 (the header is row 1)."""
    csv, schema = write_dataset(tmp_path)
    lines = open(csv).read().splitlines()
    lines[3] = ",".join([cell] + lines[3].split(",")[1:])
    open(csv, "w").write("\n".join(lines) + "\n")
    return csv, schema


def write_unscorable(tmp_path, case):
    """The toy dataset with no label in CSV row 4, or with every feature cell
    empty, and the error that ingestion gives for it."""
    csv, schema = write_dataset(tmp_path)
    lines = open(csv).read().splitlines()
    if case == "empty_label":
        lines[3] = lines[3].rsplit(",", 1)[0] + ","
        error = "row 4 has no label"
    else:
        lines[1:] = [",," + line.rsplit(",", 1)[1] for line in lines[1:]]
        error = "no feature column has a value"
    open(csv, "w").write("\n".join(lines) + "\n")
    return csv, schema, error


def write_repeated_header(tmp_path):
    """The toy dataset with its header naming f1 twice, over a fourth column."""
    csv, schema = write_dataset(tmp_path)
    lines = open(csv).read().splitlines()
    lines = ["f1,f2,f1,target"] + [f"{a},{b},{100 * k},{c}"
                                   for k, (a, b, c) in enumerate(ln.split(",") for ln in lines[1:])]
    open(csv, "w").write("\n".join(lines) + "\n")
    return csv, schema


def write_stray_quote(tmp_path, row):
    """The toy dataset, long enough that what follows CSV row `row` is over
    the csv module's 131,072-character field limit, with a quote opening
    that row (the header is row 1)."""
    csv, schema = write_dataset(tmp_path, n=8000)
    lines = open(csv).read().splitlines()
    lines[row - 1] = '"' + lines[row - 1]
    open(csv, "w").write("\n".join(lines) + "\n")
    return csv, schema


def write_config(tmp_path, **extra):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**FAST, **extra}))
    return str(path)


class TestValidate:
    def test_healthy_dataset_report(self, tmp_path, capsys):
        csv, schema = write_dataset(tmp_path)
        assert main(["validate", "--dataset", csv, "--schema", schema]) == 0
        out = capsys.readouterr().out
        assert "rows: 60" in out
        assert "classes (2)" in out
        assert "f1: numerical" in out

    def test_dropped_column_reported(self, tmp_path, capsys):
        csv, schema = write_dataset(tmp_path, with_empty_column=True)
        assert main(["validate", "--dataset", csv, "--schema", schema]) == 0
        assert "dropped all-missing columns: blank" in capsys.readouterr().out

    def test_missing_counts_reported(self, tmp_path, capsys):
        csv = tmp_path / "gappy.csv"
        csv.write_text("f1,color,f2,target\n1.0,red,0.5,pos\n,,0.1,neg\n3.0,,0.2,pos\n"
                       "4.0,blue,0.3,neg\n")
        schema = tmp_path / "gappy.schema.json"
        schema.write_text(json.dumps({"f1": "numerical", "color": "categorical",
                                      "f2": "numerical", "target": "label"}))
        assert main(["validate", "--dataset", str(csv), "--schema", str(schema)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "  f1: numerical, 1 missing" in lines
        assert "  color: categorical, 2 missing" in lines
        assert "  f2: numerical" in lines
        assert "  target: label" in lines

    def test_whole_report_with_a_dropped_column_and_gaps(self, tmp_path, capsys):
        csv = tmp_path / "gappy.csv"
        csv.write_text("f1,blank,color,f2,target\n1.0,,red,0.5,pos\n,,,0.1,neg\n"
                       "3.0,,,0.2,pos\n4.0,,blue,0.3,neg\n")
        schema = tmp_path / "gappy.schema.json"
        schema.write_text(json.dumps({"f1": "numerical", "blank": "numerical",
                                      "color": "categorical", "f2": "numerical",
                                      "target": "label"}))
        assert main(["validate", "--dataset", str(csv), "--schema", str(schema)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "rows: 4",
            "raw features: 3 (encoded width 4)",
            "dropped all-missing columns: blank",
            "  f1: numerical, 1 missing",
            "  color: categorical, 2 missing",
            "  f2: numerical",
            "  target: label",
            "classes (2): pos: 2, neg: 2",
        ]

    def test_missing_file_fails(self, tmp_path, capsys):
        _, schema = write_dataset(tmp_path)
        code = main(["validate", "--dataset", str(tmp_path / "nope.csv"), "--schema", schema])
        assert code == 1
        assert "validation failed" in capsys.readouterr().err

    def test_schema_without_label_fails(self, tmp_path, capsys):
        csv, _ = write_dataset(tmp_path)
        bad = tmp_path / "bad.schema.json"
        bad.write_text(json.dumps({"f1": "numerical", "f2": "numerical",
                                   "target": "numerical"}))
        assert main(["validate", "--dataset", csv, "--schema", str(bad)]) == 1

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        csv, schema = write_dataset(tmp_path)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"learning_rte": 0.1}))
        assert main(["validate", "--config", str(cfg), "--dataset", csv, "--schema", schema]) == 1
        assert "validation failed: unknown config key(s): ['learning_rte']" in capsys.readouterr().err

    @pytest.mark.parametrize("cell", ["foo", "nan", "-inf"])
    def test_bad_numerical_cell_fails_with_its_position(self, tmp_path, capsys, cell):
        csv, schema = write_bad_cell(tmp_path, cell)
        assert main(["validate", "--dataset", csv, "--schema", schema]) == 1
        err = capsys.readouterr().err
        assert f"validation failed: column 'f1', row 4: {cell!r} is not a finite number" in err

    @pytest.mark.parametrize("case", ["empty_label", "no_feature_values"])
    def test_unscorable_table_fails(self, tmp_path, capsys, case):
        csv, schema, error = write_unscorable(tmp_path, case)
        assert main(["validate", "--dataset", csv, "--schema", schema]) == 1
        err = capsys.readouterr().err
        assert err.startswith("validation failed: ") and error in err

    def test_header_only_csv_fails(self, tmp_path, capsys):
        csv, schema = write_dataset(tmp_path, n=0)
        assert main(["validate", "--dataset", csv, "--schema", schema]) == 1
        assert capsys.readouterr().err == f"validation failed: {csv}: no data rows\n"

    def test_repeated_header_name_fails(self, tmp_path, capsys):
        csv, schema = write_repeated_header(tmp_path)
        assert main(["validate", "--dataset", csv, "--schema", schema]) == 1
        assert capsys.readouterr().err == \
            f"validation failed: {csv}: header names column(s) more than once: ['f1']\n"

    @pytest.mark.parametrize("key", ["dataset", "schema"])
    def test_missing_dataset_or_schema_named(self, tmp_path, capsys, key):
        paths = dict(zip(["dataset", "schema"], write_dataset(tmp_path)))
        del paths[key]
        argv = [arg for k, v in paths.items() for arg in (f"--{k}", v)]
        assert main(["validate", *argv]) == 1
        assert capsys.readouterr().err == f"validation failed: no {key} given: set --{key} " \
                                          f"or the config key {key!r}\n"


# every CONFIG_DEFAULTS key with a valid value other than its default
NON_DEFAULTS = {
    "method": "scarf", "setting": "noise30", "trials": 1, "seed": 1, "jobs": 2,
    "scaling": "minmax", "corruption_strategy": "mean", "corruption_rate": 0.5,
    "index_selection": "bernoulli", "view_policy": "corrupt_both",
    "index_sharing": "shared_batch", "donor": "single_row", "gaussian_sigma": 0.25,
    "unique_pool": True, "batch_size": 16, "learning_rate": 0.01, "patience": 2,
    "pretrain_max_epochs": 2, "finetune_max_epochs": 2, "temperature": 0.5,
    "val_build_epochs": 2, "pretrain_loss": "barlow", "validation_metric": "infonce_error",
    "label_smoothing": 0.2, "dropout": 0.1, "mixup_alpha": 0.3, "cotrain_weight": 0.2,
    "self_train_threshold": 0.9, "self_train_iterations": 2, "hidden_dim": 8,
    "encoder_layers": 2, "head_layers": 1, "noise_rate": 0.2, "labeled_fraction": 0.5,
}


class TestConfiguration:
    def test_hyperparameter_keys_are_the_table(self):
        run_keys = {"dataset", "schema", "method", "setting", "trials", "seed", "out", "jobs"}
        table = asdict(Hyperparameters())
        assert set(CONFIG_DEFAULTS) - run_keys == set(table)
        assert {k: CONFIG_DEFAULTS[k] for k in table} == table

    def test_every_key_as_config_key_and_as_flag(self, tmp_path):
        assert set(NON_DEFAULTS) | {"out", "dataset", "schema"} == set(CONFIG_DEFAULTS)
        assert all(NON_DEFAULTS[k] != CONFIG_DEFAULTS[k] for k in NON_DEFAULTS)
        csv, schema = write_dataset(tmp_path)
        path = tmp_path / "all.json"
        path.write_text(json.dumps(NON_DEFAULTS))
        flags = [arg for key, value in NON_DEFAULTS.items()
                 for arg in (f"--{key}", json.dumps(value) if isinstance(value, bool) else str(value))]
        outputs = []
        for name, args in (("from_file", ["--config", str(path)]), ("from_flags", flags)):
            out = tmp_path / name
            assert main(["run", "--dataset", csv, "--schema", schema, "--out", str(out)] + args) == 0
            echoed = json.loads((out / "config.json").read_text())
            assert echoed == {**NON_DEFAULTS, "out": str(out), "dataset": csv, "schema": schema}
            runs = rundir.load_runs(out / "results.jsonl")
            assert [(r.method_name, r.setting) for r in runs] == [("scarf", "noise30")]
            outputs.append((out / "results.jsonl").read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("content, error", [
        ([1, 2], "must be a JSON object"),
        ({"learning_rte": 0.1}, "unknown config key(s): ['learning_rte']"),
    ])
    def test_config_file_errors_take_the_error_path(self, tmp_path, capsys, command, content,
                                                    error):
        csv, schema = write_dataset(tmp_path)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(content))
        out = tmp_path / "o"
        argv = [command, "--config", str(path), "--dataset", csv, "--schema", schema]
        assert main(argv + (["--out", str(out)] if command == "run" else [])) == 1
        err = capsys.readouterr().err
        prefix = {"validate": "validation failed: ", "run": "run failed: "}[command]
        assert err.startswith(prefix) and error in err
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [
        ("trials", 1.9), ("seed", "7"), ("jobs", True), ("method", 5), ("setting", None),
        ("out", 3),
    ])
    def test_mistyped_run_key_fails_and_writes_nothing(self, tmp_path, capsys, monkeypatch, key,
                                                       value):
        csv, schema = write_dataset(tmp_path)
        monkeypatch.chdir(tmp_path)
        config = write_config(tmp_path, **{"out": "o", key: value})
        before = sorted(tmp_path.iterdir())
        assert main(["run", "--config", config, "--dataset", csv, "--schema", schema]) == 1
        kind = type(CONFIG_DEFAULTS[key]).__name__
        assert capsys.readouterr().err == \
            f"run failed: config key {key!r} must be of type {kind}, not {value!r}\n"
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("key, value", [("schema", 0), ("dataset", 7)])
    def test_non_string_path_fails_and_writes_nothing(self, tmp_path, capsys, monkeypatch,
                                                      command, key, value):
        """A number used to be opened as a file descriptor: 0 read the schema
        from stdin, 7 failed with a bad descriptor."""
        csv, schema = write_dataset(tmp_path)
        monkeypatch.chdir(tmp_path)
        config = write_config(tmp_path, **{"out": "o", "dataset": csv, "schema": schema,
                                           key: value})
        before = sorted(tmp_path.iterdir())
        assert main([command, "--config", config]) == 1
        prefix = {"validate": "validation failed: ", "run": "run failed: "}[command]
        assert capsys.readouterr().err == \
            f"{prefix}config key {key!r} must be of type str, not {value!r}\n"
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("command, which", [
        ("validate", "schema"), ("validate", "config"), ("run", "schema"), ("run", "config"),
        ("run", "pin"),
    ])
    @pytest.mark.parametrize("content, error", [
        (b"\xff{}", ": 'utf-8' codec can't decode byte 0xff in position 0"),
        (b'{"a": 1\n"b": 2}', ": Expecting ',' delimiter: line 2 column 1 (char 8)"),
        (b"[1, 2]", " must be a JSON object, not list"),
        (b"[" * 100_000 + b"]" * 100_000, ": maximum recursion depth exceeded"),
        (b'{"trials": 1, "trials": 5}', ": object names key(s) more than once: ['trials']"),
        (b'{"x": {"b": 1, "b": 2}}', ": object names key(s) more than once: ['b']"),
    ], ids=["not_utf8", "not_json", "not_an_object", "nested_too_deep", "key_named_twice",
            "nested_key_named_twice"])
    def test_malformed_json_file_is_named_and_writes_nothing(self, tmp_path, capsys, command,
                                                             which, content, error):
        """A list in pin.json used to crash `run` with an AttributeError,
        nesting past the recursion limit crashed every reader with a
        RecursionError, a parse error did not name the file, and a key named
        twice silently took its last value (a config file that set `trials`
        to 1 and then to 5 ran 5 trials)."""
        csv, schema = write_dataset(tmp_path)
        out = tmp_path / "o"
        paths = {"schema": schema, "config": write_config(tmp_path), "pin": out / "pin.json"}
        if which == "pin":
            out.mkdir()
        open(paths[which], "wb").write(content)

        def snapshot():
            return {p: p.read_bytes() for p in out.iterdir()} if out.exists() else None

        before = snapshot()
        argv = [command, "--config", paths["config"], "--dataset", csv, "--schema", schema]
        assert main(argv + (["--out", str(out)] if command == "run" else [])) == 1
        prefix = {"validate": "validation failed: ", "run": "run failed: "}[command]
        err = capsys.readouterr().err
        assert err.startswith(f"{prefix}{which} file {paths[which]}{error}")
        assert err.count("\n") == 1
        assert snapshot() == before

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("content, error", [
        ({"a": "numeric", "label": "label"}, "unknown column kind 'numeric'"),
        ({"label": "label"}, "schema needs at least one feature column"),
        ({"a": "numerical", "b": "numerical"}, "schema must declare exactly one label column"),
    ], ids=["unknown_kind", "label_only", "no_label"])
    def test_schema_content_error_names_the_file(self, tmp_path, capsys, command, content, error):
        """A schema that parses but declares no valid table used to fail
        without naming its file, unlike every other schema error."""
        csv, _ = write_dataset(tmp_path)
        schema = tmp_path / "bad.schema.json"
        schema.write_text(json.dumps(content))
        out = tmp_path / "o"
        argv = [command, "--dataset", csv, "--schema", str(schema)]
        assert main(argv + (["--out", str(out)] if command == "run" else [])) == 1
        prefix = {"validate": "validation failed: ", "run": "run failed: "}[command]
        assert capsys.readouterr().err == f"{prefix}schema file {schema}: {error}\n"
        assert not out.exists()

    def test_boolean_flag_takes_true_or_false(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "--unique_pool", "yes"])
        assert "expected true or false" in capsys.readouterr().err


class TestRun:
    def test_control_single_trial(self, tmp_path, capsys):
        csv, schema = write_dataset(tmp_path)
        cfg = write_config(tmp_path)
        out = tmp_path / "results"
        code = main(["run", "--config", cfg, "--dataset", csv, "--schema", schema,
                     "--method", "control", "--out", str(out)])
        assert code == 0
        runs = rundir.load_runs(out / "results.jsonl")
        assert len(runs) == 1
        assert runs[0].method_name == "control"
        assert runs[0].pretrain_epochs == 0
        assert 0.0 <= runs[0].test_accuracy <= 1.0
        assert (out / "config.json").exists()
        assert (out / "curves_toy_control_full_0.csv").exists()
        assert "trial 0" in capsys.readouterr().out

    def test_pin_and_config_get_the_mode_of_the_other_files(self, tmp_path):
        """`pin.json` and `config.json` used to come out 0600, the mode of a
        `tempfile.mkstemp` file that `os.replace` keeps, beside the 0644 that
        umask 022 gives `results.jsonl` and the curves."""
        csv, schema = write_dataset(tmp_path)
        cfg = write_config(tmp_path)
        out = tmp_path / "results"
        before = os.umask(0o022)
        try:
            assert main(["run", "--config", cfg, "--dataset", csv, "--schema", schema,
                         "--method", "control", "--out", str(out)]) == 0
        finally:
            os.umask(before)
        modes = {p.name: p.stat().st_mode & 0o777 for p in out.iterdir()}
        assert modes == {"pin.json": 0o644, "config.json": 0o644, "results.jsonl": 0o644,
                         "curves_toy_control_full_0.csv": 0o644}
        assert not list(out.glob("*.tmp"))

    def test_pretrained_method_records_pretrain_epochs(self, tmp_path):
        csv, schema = write_dataset(tmp_path)
        cfg = write_config(tmp_path)
        out = tmp_path / "results"
        code = main(["run", "--config", cfg, "--dataset", csv, "--schema", schema,
                     "--method", "scarf", "--out", str(out)])
        assert code == 0
        runs = rundir.load_runs(out / "results.jsonl")
        assert runs[0].pretrain_epochs >= 1
        curves = (out / "curves_toy_scarf_full_0.csv").read_text()
        assert "pretrain,1," in curves and "finetune,1," in curves

    def test_rerun_resumes_completed_trials(self, tmp_path):
        csv, schema = write_dataset(tmp_path)
        cfg = write_config(tmp_path)
        out = tmp_path / "results"
        args = ["run", "--config", cfg, "--dataset", csv, "--schema", schema,
                "--method", "control", "--out", str(out)]
        assert main(args) == 0
        first = (out / "results.jsonl").read_bytes()
        assert main(args + ["--trials", "2"]) == 0
        runs = rundir.load_runs(out / "results.jsonl")
        assert [r.trial_index for r in runs] == [0, 1]
        # trial 0 was not recomputed: its original line is an exact prefix
        assert (out / "results.jsonl").read_bytes().startswith(first)

    def test_resume_after_torn_write_matches_uninterrupted_run(self, tmp_path):
        csv, schema = write_dataset(tmp_path)
        cfg = write_config(tmp_path, trials=3)
        blobs = []
        for name in ("whole", "torn"):
            out = tmp_path / name
            args = ["run", "--config", cfg, "--dataset", csv, "--schema", schema,
                    "--method", "control", "--out", str(out)]
            assert main(args) == 0
            blobs.append((out / "results.jsonl").read_bytes())
        results = tmp_path / "torn" / "results.jsonl"
        cut = blobs[1].rindex(b"\n", 0, -1) + 25  # a crash mid-way through trial 2's record
        results.write_bytes(blobs[1][:cut])
        with pytest.warns(UserWarning, match="unterminated"):
            assert main(args) == 0
        assert results.read_bytes() == blobs[0]

    def test_resume_over_a_non_finite_record_fails_and_writes_nothing(self, tmp_path, capsys):
        """A trial whose record was edited to a NaN accuracy used to count as
        done, so the resume ran nothing and exited 0."""
        csv, schema = write_dataset(tmp_path)
        out = tmp_path / "results"
        args = ["run", "--config", write_config(tmp_path, trials=2), "--dataset", csv,
                "--schema", schema, "--method", "control", "--out", str(out)]
        assert main(args) == 0
        results = out / "results.jsonl"
        first, second = results.read_text().splitlines()
        edited = {**json.loads(second), "test_accuracy": float("nan")}  # dumped as bare NaN
        results.write_text(f"{first}\n{json.dumps(edited, sort_keys=True)}\n")
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        assert main(args) == 1
        assert capsys.readouterr() == ("", (
            f"run failed: {results}, line 2: not a results record (non-finite test_accuracy "
            "nan for ('toy', 'control', 'full', 1))\n"))
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_noop_resume_skips_ingestion(self, tmp_path, monkeypatch, capsys):
        csv, schema = write_dataset(tmp_path)
        cfg = write_config(tmp_path, trials=2)
        out = tmp_path / "results"
        args = ["run", "--config", cfg, "--dataset", csv, "--schema", schema,
                "--method", "control", "--out", str(out)]
        assert main(args) == 0
        finished = (out / "results.jsonl").read_bytes()

        def no_ingestion(*args):
            raise OSError("ingestion on a finished sweep")

        monkeypatch.setattr(cli, "encode_csv", no_ingestion)
        write_dataset(tmp_path, n=61)  # nor is the data read, so a changed CSV goes unchecked
        assert main(args) == 0
        assert (out / "results.jsonl").read_bytes() == finished
        # a sweep with a trial left still ingests, through the patched loader
        assert main(args + ["--trials", "3"]) == 1
        assert "ingestion on a finished sweep" in capsys.readouterr().err
        assert (out / "results.jsonl").read_bytes() == finished

    def test_resume_under_another_configuration_fails_and_writes_nothing(self, tmp_path, capsys):
        """A resume used to add the records of its own seed and learning rate
        to those of the run it resumed, and to overwrite its config.json."""
        csv, schema = write_dataset(tmp_path)
        out = tmp_path / "o"
        args = ["run", "--config", write_config(tmp_path), "--dataset", csv, "--schema", schema,
                "--method", "control", "--out", str(out)]
        assert main(args + ["--trials", "2", "--learning_rate", "0.05"]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        assert main(args + ["--trials", "4", "--seed", "5"]) == 1
        assert capsys.readouterr().err == (
            f"run failed: {out / 'pin.json'} pins another run: seed is 0 there, 5 here; "
            "learning_rate is 0.05 there, 0.001 here\n")
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_run_into_a_locked_directory_fails_and_writes_nothing(self, tmp_path, capsys):
        """Another process holding the output directory's flock, as a
        running `tabpretrain run` does, keeps a second run out of it."""
        csv, schema = write_dataset(tmp_path)
        out = tmp_path / "o"
        args = ["run", "--config", write_config(tmp_path), "--dataset", csv, "--schema", schema,
                "--method", "control", "--out", str(out)]
        assert main(args + ["--trials", "1"]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        holder = subprocess.Popen(
            [sys.executable, "-c", "import fcntl, os, sys; fd = os.open(sys.argv[1], os.O_RDONLY); "
             "fcntl.flock(fd, fcntl.LOCK_EX); print(flush=True); sys.stdin.read()", str(out)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        try:
            holder.stdout.readline()  # the lock is taken
            assert main(args + ["--trials", "2"]) == 1
        finally:
            holder.communicate("", timeout=60)
        assert capsys.readouterr().err == (
            f"run failed: {out} is locked by another run_benchmark call writing to it\n")
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        assert main(args + ["--trials", "2"]) == 0

    @pytest.mark.parametrize("change", ["csv", "schema", "scaling"])
    def test_resume_with_other_data_or_scaling_fails(self, tmp_path, capsys, change):
        """Two tables of one file name share a dataset id, and so their
        records' keys; the pin tells them apart by the digest of the table
        that the CSV and schema encode."""
        csv, schema = write_dataset(tmp_path)
        out = tmp_path / "o"
        args = ["run", "--config", write_config(tmp_path), "--dataset", csv, "--schema", schema,
                "--method", "control", "--out", str(out)]
        assert main(args) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        if change == "csv":
            write_dataset(tmp_path, n=61)
        elif change == "schema":
            (tmp_path / "toy.schema.json").write_text(
                json.dumps({"f1": "numerical", "f2": "categorical", "target": "label"}))
        capsys.readouterr()
        extra = ["--scaling", "minmax"] if change == "scaling" else []
        assert main(args + ["--trials", "2"] + extra) == 1
        key = "scaling" if change == "scaling" else "data_digest"
        assert capsys.readouterr().err.startswith(f"run failed: {out / 'pin.json'} pins another "
                                                  f"run: {key} is ")
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_resume_may_change_method_setting_trials_and_jobs(self, tmp_path):
        csv, schema = write_dataset(tmp_path)
        out = tmp_path / "o"
        args = ["run", "--config", write_config(tmp_path), "--dataset", csv, "--schema", schema,
                "--out", str(out)]
        assert main(args) == 0
        assert main(args + ["--method", "mixup", "--setting", "semi25", "--trials", "2",
                            "--jobs", "2"]) == 0
        assert [r.key() for r in rundir.load_runs(out / "results.jsonl")] == [
            ("toy", "control", "full", 0), ("toy", "mixup", "semi25", 0),
            ("toy", "mixup", "semi25", 1)]

    def test_same_seed_byte_identical_results(self, tmp_path):
        csv, schema = write_dataset(tmp_path)
        cfg = write_config(tmp_path)
        blobs = []
        for name in ("out_a", "out_b"):
            out = tmp_path / name
            assert main(["run", "--config", cfg, "--dataset", csv, "--schema", schema,
                         "--method", "scarf", "--out", str(out)]) == 0
            blobs.append((out / "results.jsonl").read_bytes())
        assert blobs[0] == blobs[1]

    def test_unknown_method_fails_cleanly(self, tmp_path, capsys):
        csv, schema = write_dataset(tmp_path)
        cfg = write_config(tmp_path)
        code = main(["run", "--config", cfg, "--dataset", csv, "--schema", schema,
                     "--method", "definitely_not_a_method", "--out", str(tmp_path / "o")])
        assert code == 1
        assert "failed" in capsys.readouterr().err

    def test_scaling_typo_fails_cleanly(self, tmp_path, capsys):
        csv, schema = write_dataset(tmp_path)
        cfg = write_config(tmp_path, scaling="zscroe")
        out = tmp_path / "o"
        code = main(["run", "--config", cfg, "--dataset", csv, "--schema", schema,
                     "--method", "control", "--out", str(out)])
        assert code == 1
        assert "scaling 'zscroe'" in capsys.readouterr().err
        assert not (out / "results.jsonl").exists()

    @pytest.mark.parametrize("cell", ["foo", "nan"])
    def test_bad_numerical_cell_fails_before_any_trial(self, tmp_path, capsys, cell):
        csv, schema = write_bad_cell(tmp_path, cell)
        cfg = write_config(tmp_path, trials=2)
        out = tmp_path / "o"
        code = main(["run", "--config", cfg, "--dataset", csv, "--schema", schema,
                     "--method", "control", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert f"run failed: column 'f1', row 4: {cell!r} is not a finite number" in err
        assert not (out / "results.jsonl").exists()

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("row", [1, 5])
    def test_stray_quote_fails_with_its_row(self, tmp_path, capsys, command, row):
        """The field the quote opens runs to the end of the file, and the csv
        module's error, which is no ValueError, used to end in a traceback."""
        csv, schema = write_stray_quote(tmp_path, row)
        out = tmp_path / "o"
        argv = [command, "--dataset", csv, "--schema", schema]
        assert main(argv + (["--out", str(out)] if command == "run" else [])) == 1
        prefix = {"validate": "validation failed: ", "run": "run failed: "}[command]
        assert capsys.readouterr().err == \
            f"{prefix}{csv}: row {row}: field larger than field limit (131072)\n"
        assert not out.exists()

    @pytest.mark.parametrize("case", ["empty_label", "no_feature_values"])
    def test_unscorable_table_fails_before_any_trial(self, tmp_path, capsys, case):
        csv, schema, error = write_unscorable(tmp_path, case)
        out = tmp_path / "o"
        code = main(["run", "--config", write_config(tmp_path), "--dataset", csv,
                     "--schema", schema, "--method", "control", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("run failed: ") and error in err
        assert not (out / "results.jsonl").exists() and not (out / "failures.jsonl").exists()

    @pytest.mark.parametrize("n, error", [(0, "{csv}: no data rows"),
                                          (1, "dataset 'toy' has 1 rows, fewer than the 10 a "
                                              "split needs")], ids=["header_only", "one_row"])
    def test_csv_too_small_to_split_fails_before_any_file(self, tmp_path, capsys, n, error):
        """A one-row CSV used to write the pin, config.json and one failure
        per trial."""
        csv, schema = write_dataset(tmp_path, n=n)
        out = tmp_path / "o"
        code = main(["run", "--config", write_config(tmp_path), "--dataset", csv,
                     "--schema", schema, "--method", "control", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == f"run failed: {error.format(csv=csv)}\n"
        assert not out.exists()

    def test_one_label_csv_fails_before_any_file(self, tmp_path, capsys):
        """A CSV whose label is always `pos` used to run every trial to
        test_accuracy=1.0000 and exit 0."""
        csv, schema = write_dataset(tmp_path)
        text = (tmp_path / "toy.csv").read_text()
        (tmp_path / "toy.csv").write_text(text.replace(",neg\n", ",pos\n"))
        out = tmp_path / "o"
        code = main(["run", "--config", write_config(tmp_path), "--dataset", csv,
                     "--schema", schema, "--method", "scarf", "--trials", "2", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == \
            "run failed: dataset 'toy' labels every row 'pos'; a classifier needs 2 classes\n"
        assert not out.exists()

    def test_repeated_header_name_fails_before_any_trial(self, tmp_path, capsys):
        csv, schema = write_repeated_header(tmp_path)
        out = tmp_path / "o"
        code = main(["run", "--config", write_config(tmp_path), "--dataset", csv,
                     "--schema", schema, "--method", "control", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == \
            f"run failed: {csv}: header names column(s) more than once: ['f1']\n"
        assert not (out / "results.jsonl").exists() and not (out / "failures.jsonl").exists()

    @pytest.mark.parametrize("key", ["dataset", "schema"])
    def test_missing_dataset_or_schema_named(self, tmp_path, capsys, key):
        paths = dict(zip(["dataset", "schema"], write_dataset(tmp_path)))
        del paths[key]
        argv = [arg for k, v in paths.items() for arg in (f"--{k}", v)]
        out = tmp_path / "o"
        assert main(["run", "--config", write_config(tmp_path), *argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"run failed: no {key} given: set --{key} " \
                                          f"or the config key {key!r}\n"
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [("batch_size", "32"), ("corruption_rate", "0.6"),
                                            ("scaling", ["zscore"])])
    def test_mistyped_hyperparameter_fails_before_any_trial(self, tmp_path, capsys, key, value):
        csv, schema = write_dataset(tmp_path)
        out = tmp_path / "o"
        code = main(["run", "--config", write_config(tmp_path, **{key: value}), "--dataset", csv,
                     "--schema", schema, "--method", "scarf", "--out", str(out)])
        assert code == 1
        assert f"run failed: hyperparameter {key!r} must be of type" in capsys.readouterr().err
        assert not (out / "results.jsonl").exists() and not (out / "failures.jsonl").exists()

    @pytest.mark.parametrize("flag, value", [("--trials", "-2"), ("--jobs", "0")])
    def test_trials_or_jobs_below_one_fail(self, tmp_path, capsys, flag, value):
        csv, schema = write_dataset(tmp_path)
        out = tmp_path / "o"
        code = main(["run", "--config", write_config(tmp_path), "--dataset", csv, "--schema", schema,
                     "--method", "control", flag, value, "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == f"run failed: {flag[2:]} must be at least 1, got {value}\n"
        assert not (out / "results.jsonl").exists() and not (out / "failures.jsonl").exists()

    @pytest.mark.parametrize("case", ["method", "mistyped", "trials", "dataset"])
    def test_rejected_run_leaves_config_json_as_it_was(self, tmp_path, capsys, case):
        """A run rejected before its first trial keeps the config.json of the
        last accepted run, and writes none into a new directory."""
        csv, schema = write_dataset(tmp_path)
        bad_cfg = tmp_path / "bad.json"
        bad_cfg.write_text(json.dumps({**FAST, "learning_rate": "fast"}))
        bad = {"method": ["--method", "typo"], "mistyped": ["--config", str(bad_cfg)],
               "trials": ["--trials", "0"], "dataset": ["--dataset", str(tmp_path / "nope.csv")]}

        def argv(out, extra=()):
            return ["run", "--config", write_config(tmp_path), "--dataset", csv, "--schema", schema,
                    "--method", "control", "--out", str(out), *extra]

        out = tmp_path / "o"
        assert main(argv(out)) == 0
        accepted = (out / "config.json").read_bytes()
        capsys.readouterr()
        assert main(argv(out, bad[case])) == 1
        assert capsys.readouterr().err.startswith("run failed: ")
        assert (out / "config.json").read_bytes() == accepted
        assert main(argv(tmp_path / "fresh", bad[case])) == 1
        assert not (tmp_path / "fresh").exists()

    def test_bernoulli_zero_rate_fails_instead_of_hanging(self, tmp_path, capsys):
        csv, schema = write_dataset(tmp_path)
        cfg = write_config(tmp_path, index_selection="bernoulli", corruption_rate=0)
        code = main(["run", "--config", cfg, "--dataset", csv, "--schema", schema,
                     "--method", "scarf", "--out", str(tmp_path / "o")])
        assert code == 1
        assert "bernoulli" in capsys.readouterr().err

    def test_infinite_gaussian_sigma_fails_and_writes_nothing(self, tmp_path, capsys):
        """An infinite sigma used to pass into the trials, which trained on
        NaN losses and still recorded a finite test accuracy."""
        csv, schema = write_dataset(tmp_path)
        out = tmp_path / "o"
        code = main(["run", "--config", write_config(tmp_path), "--dataset", csv,
                     "--schema", schema, "--method", "scarf", "--corruption_strategy", "gaussian",
                     "--gaussian_sigma", "inf", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == \
            "run failed: gaussian_sigma must be positive and finite, got inf\n"
        assert not out.exists()

    @pytest.mark.parametrize("method", ["scarf_ae", "control"])
    def test_diverged_trials_fail_the_run(self, tmp_path, capsys, method):
        """At a learning rate of 1e6 every trial goes non-finite: each is a
        failure, and a run in which all trials failed exits 1."""
        csv, schema = write_dataset(tmp_path, n=200)
        out = tmp_path / "o"
        with np.errstate(all="ignore"):
            code = main(["run", "--config", write_config(tmp_path, trials=2), "--dataset", csv,
                         "--schema", schema, "--method", method, "--learning_rate", "1e6",
                         "--out", str(out)])
        assert code == 1
        assert "all trials failed" in capsys.readouterr().err
        assert not (out / "results.jsonl").exists() or rundir.load_runs(out / "results.jsonl") == []
        failures = (out / "failures.jsonl").read_text().splitlines()
        assert [json.loads(line)["error_type"] for line in failures] == ["TrainingDiverged"] * 2

    def test_jobs_do_not_change_output_bytes(self, tmp_path):
        csv, schema = write_dataset(tmp_path)
        cfg = write_config(tmp_path, trials=4)
        outputs = []
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}"
            assert main(["run", "--config", cfg, "--dataset", csv, "--schema", schema,
                         "--method", "scarf", "--jobs", jobs, "--out", str(out)]) == 0
            outputs.append({p.name: p.read_bytes() for p in out.iterdir()
                            if p.name != "config.json"})
        assert len(outputs[0]) == 6  # results.jsonl, pin.json and four curves files
        assert outputs[0] == outputs[1]

    def test_parallel_jobs_complete_all_trials(self, tmp_path):
        csv, schema = write_dataset(tmp_path)
        cfg = write_config(tmp_path, trials=3)
        out = tmp_path / "results"
        code = main(["run", "--config", cfg, "--dataset", csv, "--schema", schema,
                     "--method", "control", "--jobs", "2", "--out", str(out)])
        assert code == 0
        runs = rundir.load_runs(out / "results.jsonl")
        assert sorted(r.trial_index for r in runs) == [0, 1, 2]


class TestReport:
    def _results(self, tmp_path):
        path = tmp_path / "results.jsonl"
        rng = np.random.default_rng(0)
        for d in ("d1", "d2"):
            for t in range(5):
                rundir.append_run(path, rundir.MethodRun(d, "scarf", t, 0, "full",
                                                         0.9 + rng.uniform(0, 0.01)))
                rundir.append_run(path, rundir.MethodRun(d, "control", t, 0, "full",
                                                         0.5 + rng.uniform(0, 0.01)))
        return str(path)

    def test_win_matrix_and_boxplot(self, tmp_path):
        results = self._results(tmp_path)
        out = tmp_path / "report"
        code = main(["report", "--results", results, "--methods", "scarf,control",
                     "--reference", "control", "--out", str(out)])
        assert code == 0
        matrix = (out / "win_matrix.csv").read_text()
        assert matrix.splitlines()[0] == "method,scarf,control,min_ratio"
        assert "scarf,,2/2,1.0000" in matrix
        box = (out / "box_plot.csv").read_text()
        assert box.count("scarf,control,") == 2

    @pytest.mark.parametrize("flag", ["--p-value", "--boxplot-p-value"])
    @pytest.mark.parametrize("value", ["nan", "2.0", "0", "-0.5"])
    def test_p_value_outside_unit_interval_fails_before_writing(self, tmp_path, capsys, flag,
                                                                value):
        """A threshold of NaN or above 1 used to count every pair as a
        significant win or loss."""
        results = self._results(tmp_path)
        out = tmp_path / "report"
        code = main(["report", "--results", results, "--methods", "scarf,control",
                     "--reference", "control", flag, value, "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == \
            f"report failed: {flag} must be in (0, 1], got {float(value)!r}\n"
        assert not out.exists()

    def test_exports_quote_cells_that_hold_a_comma(self, tmp_path):
        """A dataset id is a CSV's basename, so it may hold a comma or a
        quote; each exported row reads back as the header's number of cells."""
        path = tmp_path / "results.jsonl"
        for d in ('credit,g.csv', 'say "hi".csv'):
            for t in range(3):
                rundir.append_run(path, rundir.MethodRun(d, "scarf", t, 0, "full", 0.9 + t / 100))
                rundir.append_run(path, rundir.MethodRun(d, "control", t, 0, "full", 0.5 + t / 100))
        out = tmp_path / "report"
        assert main(["report", "--results", str(path), "--methods", "scarf,control",
                     "--reference", "control", "--out", str(out)]) == 0
        with open(out / "box_plot.csv", newline="") as fh:
            box = list(csv_module.reader(fh))
        assert box == [["method", "reference", "dataset_id", "relative_improvement_pct"],
                       ["scarf", "control", "credit,g.csv", "78.4314"],
                       ["scarf", "control", 'say "hi".csv', "78.4314"]]
        with open(out / "win_matrix.csv", newline="") as fh:
            assert list(csv_module.reader(fh)) == [["method", "scarf", "control", "min_ratio"],
                                                   ["scarf", "", "2/2", "1.0000"],
                                                   ["control", "0/2", "", "0.0000"]]

    def test_svg_is_well_formed(self, tmp_path):
        import xml.dom.minidom

        results = self._results(tmp_path)
        out = tmp_path / "report"
        code = main(["report", "--results", results, "--methods", "scarf,control",
                     "--svg", "--out", str(out)])
        assert code == 0
        xml.dom.minidom.parseString((out / "win_matrix.svg").read_text())

    def test_svg_escapes_markup_in_method_names(self, tmp_path):
        """A method named `a<b` used to crash the well-formedness check after
        win_matrix.csv was written."""
        import xml.dom.minidom

        path = tmp_path / "results.jsonl"
        for trial in range(3):
            for method, accuracy in (("a<b", 0.9), ("ctrl", 0.5)):
                rundir.append_run(path, rundir.MethodRun("d1", method, trial, 0, "full",
                                                         accuracy + trial / 100))
        out = tmp_path / "report"
        assert main(["report", "--results", str(path), "--methods", "a<b,ctrl", "--svg",
                     "--out", str(out)]) == 0
        svg = xml.dom.minidom.parseString((out / "win_matrix.svg").read_text())
        assert "a<b" in [t.firstChild.data for t in svg.getElementsByTagName("text")]

    def test_non_finite_accuracy_fails_before_writing(self, tmp_path, capsys):
        """A NaN accuracy written by hand used to be left out and counted on
        stdout; no record holds one, so the file is refused, naming the line."""
        results = self._results(tmp_path)
        with open(results, "a") as fh:
            fh.write('{"dataset_id": "d1", "method_name": "scarf", "trial_index": 5, '
                     '"seed": 0, "setting": "full", "test_accuracy": NaN}\n')
        out = tmp_path / "report"
        code = main(["report", "--results", results, "--methods", "scarf,control",
                     "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"report failed: {results}, line 21: not a results record (non-finite "
            "test_accuracy nan for ('d1', 'scarf', 'full', 5))\n")
        assert not out.exists()

    def test_key_recorded_twice_fails_before_writing(self, tmp_path, capsys):
        """A trial recorded twice used to count as two trials in the Welch
        tests."""
        results = self._results(tmp_path)
        rundir.append_run(results, rundir.MethodRun("d1", "scarf", 0, 0, "full", 0.95))
        out = tmp_path / "report"
        code = main(["report", "--results", results, "--methods", "scarf,control",
                     "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (f"report failed: {results}, lines 1 and 21: key "
                                           "('d1', 'scarf', 'full', 0) recorded twice\n")
        assert not out.exists()

    def test_unknown_method_fails(self, tmp_path, capsys):
        results = self._results(tmp_path)
        code = main(["report", "--results", results, "--methods", "scarf,ghost"])
        assert code == 1
        assert "ghost" in capsys.readouterr().err

    @pytest.mark.parametrize("reference, setting, error", [
        ("scraf", [], "no results for method(s): scraf\n"),
        # the setting used to be checked against the records of --methods
        # only, and this wrote a header-only box_plot.csv
        ("mixup", ["--setting", "full"], "no results for method(s): mixup in setting 'full'\n"),
    ], ids=["no_records", "records_in_another_setting"])
    def test_reference_without_records_fails_before_writing(self, tmp_path, capsys, reference,
                                                             setting, error):
        results = self._results(tmp_path)
        for t in range(3):
            rundir.append_run(results, rundir.MethodRun("d1", "mixup", t, 0, "semi25", 0.5 + t / 100))
        out = tmp_path / "report"
        code = main(["report", "--results", results, "--methods", "control,scarf",
                     "--reference", reference, *setting, "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == error
        assert not out.exists()

    @pytest.mark.parametrize("command", ["report", "run"])
    @pytest.mark.parametrize("line", [
        "not json",
        # a field of the wrong type: the accuracy used to crash the report
        # and the trial index to make a resume rerun trial 0
        '{"dataset_id": "toy", "method_name": "control", "trial_index": 0, "seed": 0, '
        '"setting": "full", "test_accuracy": "0.9"}',
        '{"dataset_id": "toy", "method_name": "control", "trial_index": "0", "seed": 0, '
        '"setting": "full", "test_accuracy": 0.9}',
        # values no trial produces, which used to load and be scored
        '{"dataset_id": "toy", "method_name": "control", "trial_index": 0, "seed": 0, '
        '"setting": "full", "test_accuracy": 1.5}',
        '{"dataset_id": "toy", "method_name": "control", "trial_index": -1, "seed": 0, '
        '"setting": "full", "test_accuracy": 0.9}',
    ], ids=["not_json", "str_accuracy", "str_trial_index", "accuracy_above_1",
            "negative_trial_index"])
    def test_malformed_results_line_named(self, tmp_path, capsys, command, line):
        """A results line that is not a record fails the command with its file
        and line, not with a traceback, and writes no report."""
        results = tmp_path / "results" / "results.jsonl"
        results.parent.mkdir()
        results.write_text(open(self._results(tmp_path)).read() + line + "\n")
        out = tmp_path / "report"
        if command == "report":
            code = main(["report", "--results", str(results), "--methods", "scarf,control",
                         "--out", str(out)])
        else:
            csv, schema = write_dataset(tmp_path)
            code = main(["run", "--config", write_config(tmp_path), "--dataset", csv,
                         "--schema", schema, "--out", str(results.parent)])
        assert code == 1
        assert f"{command} failed: {results}, line 21: not a results record" in \
            capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["report", "run"])
    def test_results_file_not_utf8_named(self, tmp_path, capsys, command):
        """The file used to be read in the locale's encoding, and a byte it
        could not decode failed the command without naming the file."""
        results = tmp_path / "results" / "results.jsonl"
        results.parent.mkdir()
        results.write_bytes(open(self._results(tmp_path), "rb").read() + b"\xff\n")
        out = tmp_path / "report"
        if command == "report":
            code = main(["report", "--results", str(results), "--methods", "scarf,control",
                         "--out", str(out)])
        else:
            csv, schema = write_dataset(tmp_path)
            code = main(["run", "--config", write_config(tmp_path), "--dataset", csv,
                         "--schema", schema, "--out", str(results.parent)])
        assert code == 1
        assert capsys.readouterr().err.startswith(
            f"{command} failed: {results}: not a UTF-8 results file ('utf-8' codec can't decode")
        assert not out.exists()
        assert [p.name for p in results.parent.iterdir()] == ["results.jsonl"]

    def test_setting_without_records_fails(self, tmp_path, capsys):
        results = self._results(tmp_path)
        out = tmp_path / "report"
        code = main(["report", "--results", results, "--methods", "scarf,control",
                     "--setting", "semi", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == \
            "no results for method(s): scarf, control in setting 'semi'\n"
        assert not out.exists()
        code = main(["report", "--results", results, "--methods", "scarf,control",
                     "--setting", "full", "--out", str(out)])
        assert code == 0
        assert "scarf,,2/2,1.0000" in (out / "win_matrix.csv").read_text()

    def test_records_of_several_settings_need_one_chosen(self, tmp_path, capsys):
        """scarf beats control in full and loses in semi25; pooling both
        settings into one Welch sample per method used to report a tie."""
        path = tmp_path / "results.jsonl"
        for t in range(5):
            for setting, scarf, control in (("full", 0.9, 0.5), ("semi25", 0.5, 0.9)):
                rundir.append_run(path, rundir.MethodRun("d1", "scarf", t, 0, setting,
                                                         scarf + t / 1000))
                rundir.append_run(path, rundir.MethodRun("d1", "control", t, 0, setting,
                                                         control + t / 1000))
        out = tmp_path / "report"
        code = main(["report", "--results", str(path), "--methods", "scarf,control",
                     "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == \
            "report failed: results hold settings ['full', 'semi25']; choose one with --setting\n"
        assert not out.exists()
        for setting, cell in (("full", "1/1"), ("semi25", "0/1")):
            assert main(["report", "--results", str(path), "--methods", "scarf,control",
                         "--setting", setting, "--out", str(out)]) == 0
            assert f"scarf,,{cell}," in (out / "win_matrix.csv").read_text()

    def test_method_named_twice_fails_before_writing(self, tmp_path, capsys):
        """A repeated method used to give win_matrix.csv two rows for it and
        count each of its opponents' losses twice."""
        results = self._results(tmp_path)
        out = tmp_path / "report"
        code = main(["report", "--results", results, "--methods", "scarf,scarf,control",
                     "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == \
            "report failed: method(s) named more than once: ['scarf']\n"
        assert not out.exists()

    @pytest.mark.parametrize("methods", ["control,", ",control", "scarf,,control", ""])
    def test_empty_method_name_fails_before_reading(self, tmp_path, capsys, monkeypatch,
                                                    methods):
        """A trailing comma used to end in `no results for method(s): `, with
        nothing named."""
        monkeypatch.setattr(rundir, "load_runs", lambda path: pytest.fail("results read"))
        out = tmp_path / "report"
        code = main(["report", "--results", self._results(tmp_path), "--methods", methods,
                     "--out", str(out)])
        assert code == 1
        assert capsys.readouterr() == (
            "", f"report failed: --methods {methods!r} names an empty method\n")
        assert not out.exists()

    def test_empty_reference_fails_before_reading(self, tmp_path, capsys, monkeypatch):
        """`--reference ""` used to count as no reference: the report exited 0
        and wrote `win_matrix.csv` alone, with no word of the box plot."""
        monkeypatch.setattr(rundir, "load_runs", lambda path: pytest.fail("results read"))
        out = tmp_path / "report"
        code = main(["report", "--results", self._results(tmp_path), "--methods", "scarf,control",
                     "--reference", "", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr() == ("", "report failed: --reference '' names an empty method\n")
        assert not out.exists()

    def test_unwritable_out_fails_without_a_traceback(self, tmp_path, capsys):
        results = self._results(tmp_path)
        code = main(["report", "--results", results, "--methods", "scarf,control",
                     "--out", str(tmp_path / "results.jsonl" / "sub")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("report failed: ") and "Not a directory" in err

    def test_empty_results_fails(self, tmp_path, capsys):
        code = main(["report", "--results", str(tmp_path / "none.jsonl"),
                     "--methods", "control"])
        assert code == 1


@pytest.mark.parametrize("reader", ["pin", "schema", "config", "results_run", "results_report"])
@pytest.mark.parametrize("content, error", [
    (b'{"dataset_id": "toy", "method_name": "control", "trial_index": 1, "seed": 0, '
     b'"setting": "full", "test_accuracy": 0.667, "test_accuracy": 0.99}',
     "object names key(s) more than once: ['test_accuracy']"),
    (b"[" * 100_000 + b"]" * 100_000, "maximum recursion depth exceeded"),
], ids=["key_named_twice", "nested_too_deep"])
def test_every_json_reader_follows_one_rule(tmp_path, capsys, reader, content, error):
    """pin.json, the schema, a config file and a results line are refused
    alike, naming the file (and the line, for results), in one line on
    stderr and exit 1. A results line used to load with a repeated key's last
    value, so trial 1 counted as done at 0.99, or end the command in a
    RecursionError traceback."""
    csv, schema = write_dataset(tmp_path)
    out = tmp_path / "o"
    config = write_config(tmp_path)
    argv = ["run", "--config", config, "--dataset", csv, "--schema", schema, "--out", str(out)]
    results = out / "results.jsonl"
    if reader in ("pin", "results_run"):
        assert main(argv) == 0
    if reader == "results_report":
        out.mkdir()
        rundir.append_run(results, rundir.MethodRun("toy", "control", 0, 0, "full", 0.5))
    target = {"pin": out / "pin.json", "schema": schema, "config": config}.get(reader, results)
    with open(target, "ab" if reader.startswith("results") else "wb") as fh:
        fh.write(content + (b"\n" if reader.startswith("results") else b""))
    before = {p.name: p.read_bytes() for p in out.iterdir()} if out.exists() else None
    capsys.readouterr()
    if reader == "results_report":
        argv = ["report", "--results", str(results), "--methods", "control",
                "--out", str(tmp_path / "report")]
    assert main(argv) == 1
    command = argv[0]
    source = {"pin": f"pin file {target}: ", "schema": f"schema file {target}: ",
              "config": f"config file {target}: "}.get(
                  reader, f"{results}, line 2: not a results record (results line: ")
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"{command} failed: {source}{error}")
    assert captured.err.count("\n") == 1
    assert ({p.name: p.read_bytes() for p in out.iterdir()} if out.exists() else None) == before
    assert not (tmp_path / "report").exists()


class TestErrorBoundary:
    """`main` is the one handler: every command raises, and main turns a
    ValueError or an OSError into one line on stderr and exit 1."""

    def _patched_argv(self, tmp_path, monkeypatch, command, exc):
        """The arguments of `command`, with one call inside it patched to raise `exc`."""
        def raiser(*args, **kwargs):
            raise exc
        module, name = {"validate": (cli, "load_csv"), "run": (cli.methods, "run_benchmark"),
                        "report": (rundir, "load_runs")}[command]
        monkeypatch.setattr(module, name, raiser)
        csv, schema = write_dataset(tmp_path)
        return {
            "validate": ["validate", "--dataset", csv, "--schema", schema],
            "run": ["run", "--config", write_config(tmp_path), "--dataset", csv,
                    "--schema", schema, "--out", str(tmp_path / "o")],
            "report": ["report", "--results", str(tmp_path / "r.jsonl"), "--methods", "control",
                       "--out", str(tmp_path / "report")],
        }[command]

    @pytest.mark.parametrize("command", ["validate", "run", "report"])
    @pytest.mark.parametrize("exc", [ValueError("bad value"), OSError("no such path")],
                             ids=["ValueError", "OSError"])
    def test_user_error_is_one_line_and_exit_1(self, tmp_path, capsys, monkeypatch, command,
                                               exc):
        assert main(self._patched_argv(tmp_path, monkeypatch, command, exc)) == 1
        prefix = {"validate": "validation", "run": "run", "report": "report"}[command]
        assert capsys.readouterr() == ("", f"{prefix} failed: {exc}\n")

    @pytest.mark.parametrize("command", ["validate", "run", "report"])
    def test_other_errors_propagate(self, tmp_path, capsys, monkeypatch, command):
        argv = self._patched_argv(tmp_path, monkeypatch, command, RuntimeError("a bug"))
        with pytest.raises(RuntimeError, match="a bug"):
            main(argv)
        assert capsys.readouterr().err == ""


def test_import_leaves_out_modules_of_one_command():
    """`xml.dom.minidom` (the check of `report --svg`), `html` (the SVG's
    escaping) and `concurrent.futures` (`--jobs` above 1) are imported where
    they are used, not by importing the package."""
    code = ("import sys, tabpretrain.cli, tabpretrain.methods; "
            "print(sorted({'xml.dom.minidom', 'html', 'concurrent.futures'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")
