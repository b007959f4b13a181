import subprocess
import sys

import pytest

import oracle


def test_grid_holds_every_method_setting_dataset_and_variant():
    assert len(oracle.METHODS) == 65
    assert len(oracle.entries()) == 65 * 3 * 2 * 14 + 1 == 5461


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
    pre-training and in co-training), each run by `--check` in a fresh
    interpreter (the script sets one BLAS thread before numpy loads), match
    it. Digests depend on the BLAS build, so a different `env` line
    skips."""
    with open(oracle.DIGESTS) as fh:
        recorded = fh.read().splitlines()
    assert [oracle.line_key(line) for line in recorded] == (
        ["env"] + [" ".join(entry) for entry in oracle.entries()] + ["overall"])
    for args, count in ((["--variant", "defaults"], 391), (["--method", "scarf"], 85),
                        (["--method", "scarf+cotrain"], 84)):
        proc = subprocess.run([sys.executable, oracle.__file__, "--check", *args],
                              capture_output=True, text=True, timeout=600)
        env = proc.stdout.split("\n", 1)[0]
        assert env.startswith("env "), proc.stderr
        if env != recorded[0]:
            pytest.skip(f"the digests were recorded under {recorded[0]!r}, this is {env!r}")
        assert proc.returncode == 0, proc.stdout[-2000:]
        assert proc.stdout.endswith(f"check: 0 of {count} lines differ from oracle_digests.txt\n")
