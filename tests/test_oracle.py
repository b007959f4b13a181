import oracle


def test_grid_holds_every_method_setting_dataset_and_variant():
    assert len(oracle.METHODS) == 65
    assert len(oracle.entries()) == 65 * 3 * 2 * 11 + 1 == 4291


def test_entry_digests_repeat_within_one_process():
    """Two entries, one pre-training on the one-hot table and one ingested
    from the CSV with gaps, give the same digest when run again; no digest
    is pinned, because they depend on the BLAS build."""
    picked = [("one_hot_block", "batch33", "noise30", "scarf+cotrain"), oracle.GAPS_ENTRY]
    first = [oracle.entry_digest(entry) for entry in picked]
    assert [oracle.entry_digest(entry) for entry in picked] == first
    assert first[0] != first[1]
