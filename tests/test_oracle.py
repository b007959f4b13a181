import os
import platform
import re
import subprocess
import sys

import numpy as np
import pytest

import oracle
from conftest import make_numeric_dataset
from tabpretrain import methods
from tabpretrain.methods import derive_seed, run_benchmark
from tabpretrain.training import Hyperparameters

VERSIONS = os.path.join(os.path.dirname(oracle.DIGESTS), "results_versions.txt")


def test_grid_holds_every_method_setting_dataset_and_variant():
    assert oracle.METHODS is methods.METHODS and len(oracle.METHODS) == 65
    assert len(oracle.entries()) == 65 * 3 * 2 * 14 + 1 == 5461


def test_results_version_is_that_of_the_digest_file():
    """Each line of results_versions.txt is `<version> <overall digest>`. The
    versions strictly increase, the last is `methods.RESULTS_VERSION`, and
    its digest is the `overall` of the digest file, so a change that
    regenerates the digest file fails here until it adds a line and bumps
    the version that every out_dir pins."""
    with open(VERSIONS) as fh:
        rows = [line.split() for line in fh.read().splitlines()]
    assert rows and all(len(row) == 2 for row in rows)
    versions = [int(version) for version, _ in rows]
    assert all(a < b for a, b in zip(versions, versions[1:]))
    assert versions[-1] == methods.RESULTS_VERSION
    with open(oracle.DIGESTS) as fh:
        [overall] = [line.split()[1] for line in fh if line.startswith("overall ")]
    assert rows[-1][1] == overall


def test_env_line_names_the_openblas_core():
    """OpenBLAS picks its kernels per CPU at load time, and digests recorded
    under one core differ under another, so a process forced down to the
    Nehalem kernels, below any AVX2 host's, prints another `env` line and
    the digest check skips rather than fails there."""
    if platform.machine().lower() not in ("x86_64", "amd64"):
        pytest.skip("OpenBLAS core names are those of x86-64")
    if oracle.blas_core() in ("Nehalem", "unknown"):
        pytest.skip(f"the core here is {oracle.blas_core()}")
    code = "import oracle; print(oracle.env_line())"
    env = {**os.environ, "OPENBLAS_CORETYPE": "Nehalem",
           "PYTHONPATH": os.pathsep.join([os.path.dirname(oracle.__file__), *sys.path])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120, check=True)
    assert proc.stdout.strip().endswith(" core Nehalem")
    assert proc.stdout.strip() != oracle.env_line()


def test_entry_digests_repeat_within_one_process():
    """Two entries, one pre-training on the one-hot table and one ingested
    from the CSV with gaps, give the same digest when run again; no digest
    is pinned, because they depend on the BLAS build."""
    picked = [("one_hot_block", "batch33", "noise30", "scarf+cotrain"), oracle.GAPS_ENTRY]
    first = [oracle.entry_digest(entry) for entry in picked]
    assert [oracle.entry_digest(entry) for entry in picked] == first
    assert first[0] != first[1]


@pytest.mark.slow
def test_defaults_and_scarf_entries_match_the_digest_file():
    """The digest file lists the grid in print order, and the 391 `defaults`
    entries, the 85 `scarf` entries and the 84 `scarf+cotrain` entries of
    every variant (the barlow, align_uniform and joint paths among them, in
    pre-training and in co-training) and the 390 entries each of the two
    missing_learnable variants (the learnable vector's steps and its
    validation metric), each run by `--check` in a fresh interpreter (the
    script sets one BLAS thread before numpy loads), match it. Digests
    depend on the BLAS build, so a different `env` line skips."""
    with open(oracle.DIGESTS) as fh:
        recorded = fh.read().splitlines()
    assert [oracle.line_key(line) for line in recorded] == (
        ["env"] + [" ".join(entry) for entry in oracle.entries()] + ["overall"])
    for args, count in ((["--variant", "defaults"], 391), (["--method", "scarf"], 85),
                        (["--method", "scarf+cotrain"], 84),
                        (["--variant", "missing_learnable"], 390),
                        (["--variant", "missing_learnable_corrupt_both"], 390)):
        proc = subprocess.run([sys.executable, oracle.__file__, "--check", *args],
                              capture_output=True, text=True, timeout=600)
        env = proc.stdout.split("\n", 1)[0]
        assert env.startswith("env "), proc.stderr
        if env != recorded[0]:
            pytest.skip(f"the digests were recorded under {recorded[0]!r}, this is {env!r}")
        assert proc.returncode == 0, proc.stdout[-2000:]
        assert proc.stdout.endswith(f"check: 0 of {count} lines differ from oracle_digests.txt\n")


def test_compare_names_each_moved_added_and_removed_entry():
    theirs = ["env a", "aaaa numeric defaults full scarf", "bbbb numeric defaults full control",
              "cccc numeric defaults full mixup", "overall 1111"]
    ours = ["env a", "aaaa numeric defaults full scarf", "dddd numeric defaults full control",
            "eeee numeric defaults full scarf_ae", "overall 2222"]
    assert oracle.compare(theirs, ours, "HEAD~1") == [
        "moved: dddd numeric defaults full control (HEAD~1: bbbb numeric defaults full control)",
        "moved: overall 2222 (HEAD~1: overall 1111)",
        "added: eeee numeric defaults full scarf_ae",
        "removed: cccc numeric defaults full mixup",
        "against HEAD~1: 4 of 6 lines differ"]
    assert oracle.compare(theirs, theirs, "HEAD") == ["against HEAD: 0 of 5 lines differ"]


@pytest.mark.slow
def test_against_head_runs_the_committed_oracle():
    """`--against HEAD` runs the committed tree's own oracle from a `git
    archive`, with no PYTHONPATH of the working tree, and ends with its
    count line; whether a line differs depends on the uncommitted changes."""
    root = os.path.dirname(os.path.dirname(oracle.__file__))
    if subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True).returncode:
        pytest.skip("not a git checkout")
    proc = subprocess.run([sys.executable, oracle.__file__, "--against", "HEAD", "--variant",
                           "defaults", "--method", "control"],
                          capture_output=True, text=True, timeout=600)
    summary = re.fullmatch(r"against HEAD: (\d+) of \d+ lines differ", proc.stdout.splitlines()[-1])
    assert summary, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert proc.returncode == (summary[1] != "0")


def fake_run_method(calls, accuracy=lambda seed: 1.0):
    """A `run_method` that logs each call's method, setting, seed, splits and
    table, and scores `accuracy(seed)`."""
    def run(method, dataset, splits, setting, seed, hp):
        calls.append((method, setting, seed, splits, dataset))
        return {"test_accuracy": accuracy(seed), "epochs_used": 0, "pretrain_epochs": 0,
                "pretrain_outcome": None, "finetune_outcome": None}
    return run


def test_an_unsalted_trial_is_run_benchmarks(tmp_path, monkeypatch):
    """`run_trial` with no salt hands `run_method` the method seed, the
    splits and the scaled table that `run_benchmark` hands it for that key."""
    ds, hp = make_numeric_dataset(n=60, d=3), Hyperparameters(scaling="zscore")
    benchmark, trials = [], []
    monkeypatch.setattr(methods, "run_method", fake_run_method(benchmark))
    monkeypatch.setattr(oracle, "run_method", fake_run_method(trials))
    keys = [(trial, setting, method) for trial in range(2) for setting in ("full", "semi25")
            for method in ("control", "scarf")]
    assert len(list(run_benchmark({"d": ds}, ["control", "scarf"], ["full", "semi25"], 2, 0,
                                  tmp_path, hp))) == len(keys)
    for key in keys:
        oracle.run_trial("d", ds, *key, hp)
    assert len(trials) == len(benchmark) == len(keys)
    for (m, s, seed, splits, table), want in zip(trials, benchmark):
        assert (m, s, seed) == want[:3]
        for split in ("train", "validation", "test"):
            np.testing.assert_array_equal(getattr(splits, split), getattr(want[3], split))
        np.testing.assert_array_equal(table.X, want[4].X)


def test_margins_salts_reseed_each_method_on_the_same_splits(monkeypatch, capsys):
    """Under `run_method` stubbed, `--margins --salts 2` reruns the 40 trials
    twice on each trial's splits and table, each salt k seeding each method
    from "method|setting|k"; scarf scores 0.01 k above control under semi25
    and 0.001 more under noise30, so the margins and their summary are known."""
    calls, accuracy = [], {}
    for trial in range(10):
        for setting, extra in (("semi25", 0.0), ("noise30", 0.001)):
            for salt in (None, 1, 2):
                tail = "" if salt is None else f"|{salt}"
                for method, gain in (("control", 0.0), ("scarf", 0.01 * (salt or 0) + extra)):
                    seed = derive_seed(0, "mixture", trial, salt=f"{method}|{setting}{tail}")
                    accuracy[seed] = 0.5 + gain
    assert len(accuracy) == 10 * 2 * 3 * 2  # every seed differs
    monkeypatch.setattr(oracle, "run_method", fake_run_method(calls, accuracy.__getitem__))
    oracle.margins(2)
    assert len(calls) == len(accuracy)
    assert {seed for _, _, seed, _, _ in calls} == set(accuracy)
    first = {}
    for _, _, _, splits, table in calls:
        trial = first.setdefault(splits.test.tobytes(), (splits, table))
        np.testing.assert_array_equal(splits.train, trial[0].train)
        np.testing.assert_array_equal(table.X, trial[1].X)
    assert len(first) == 10
    lines, tens = capsys.readouterr().out.splitlines(), " ".join(["0.5000"] * 10)
    assert lines[:6] == [
        f"criterion 5 semi25 control {tens}", f"criterion 5 semi25 scarf {tens}",
        "criterion 5 margin +0.00000", f"criterion 7 noise30 control {tens}",
        "criterion 7 noise30 scarf " + " ".join(["0.5010"] * 10), "criterion 7 margin +0.00100"]
    assert lines[6:] == [
        "salt 1 criterion 5 margin +0.01000", "salt 1 criterion 7 margin +0.01100",
        "salt 2 criterion 5 margin +0.02000", "salt 2 criterion 7 margin +0.02100",
        "criterion 5 margin over 2 salts: mean +0.01500 min +0.01000 max +0.02000",
        "criterion 7 margin over 2 salts: mean +0.01600 min +0.01100 max +0.02100"]


def test_margins_without_salts_print_no_rerun(monkeypatch, capsys):
    monkeypatch.setattr(oracle, "run_method", fake_run_method([]))
    oracle.margins()
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 6
    assert lines[2::3] == ["criterion 5 margin +0.00000", "criterion 7 margin +0.00000"]


@pytest.mark.parametrize("argv", [["--salts", "2"], ["--margins", "--salts", "-1"]])
def test_salts_need_margins_and_a_count_of_at_least_0(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        oracle.main(argv)
    assert exc.value.code == 2
    assert "--salts K needs --margins" in capsys.readouterr().err
