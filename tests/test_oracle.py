import os
import platform
import subprocess
import sys

import pytest

import oracle
from tabpretrain import methods

VERSIONS = os.path.join(os.path.dirname(oracle.DIGESTS), "results_versions.txt")


def test_grid_holds_every_method_setting_dataset_and_variant():
    assert len(oracle.METHODS) == 65
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
