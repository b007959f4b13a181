import ast
import json
import re
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import traced_peak
from tabpretrain import data
from tabpretrain.data import (
    IngestionError,
    ProcessedDataset,
    Schema,
    corrupt_labels,
    encode_csv,
    impute,
    load_csv,
    make_splits,
    mask_labels,
    one_hot,
    parse_json_object,
    process_csv,
    scale,
)
from tabpretrain.nn import TRAINING_DTYPE

SCHEMA = Schema(["age", "color", "target"], ["numerical", "categorical", "label"])


def write_csv(path, text):
    path.write_text(text)
    return path


def write_mixed_table(tmp_path, n=4000):
    """A generated table of 12 numerical and 6 categorical features of 8
    levels each, with 3% of the cells of both kinds empty."""
    rng = np.random.default_rng(0)
    names = [f"n{j}" for j in range(12)] + [f"c{j}" for j in range(6)] + ["target"]
    kinds = ["numerical"] * 12 + ["categorical"] * 6 + ["label"]
    num = rng.normal(size=(n, 12))
    level = rng.integers(0, 8, size=(n, 6))
    empty = rng.random((n, 18)) < 0.03
    rows = [",".join(names)]
    for i in range(n):
        cells = [f"{v:.6f}" for v in num[i]] + [f"c{j}level{level[i, j]}" for j in range(6)]
        cells = ["" if e else c for c, e in zip(cells, empty[i])]
        rows.append(",".join(cells + ["pos" if num[i, 0] > 0 else "neg"]))
    path = write_csv(tmp_path / "mixed.csv", "\n".join(rows) + "\n")
    return path, Schema(names, kinds)


def cells(table, j):
    """Column j of a table's non-numerical column as its level strings."""
    return [table.levels[j][code] for code in table.columns[j]]


class TestSchema:
    def test_requires_one_label(self):
        with pytest.raises(IngestionError):
            Schema(["a", "b"], ["numerical", "numerical"])

    def test_sidecar_roundtrip(self, tmp_path):
        p = tmp_path / "schema.json"
        with open(p, "w", encoding="utf-8") as fh:
            json.dump(dict(zip(SCHEMA.names, SCHEMA.kinds)), fh)
        loaded = Schema.from_file(p)
        assert loaded.names == SCHEMA.names and loaded.kinds == SCHEMA.kinds

    def test_a_column_named_twice_is_refused(self, tmp_path):
        """A dict keeps the last value of a repeated key: `age` used to load
        as categorical, silently."""
        p = tmp_path / "schema.json"
        p.write_text('{"age": "numerical", "color": "categorical", "target": "label", '
                     '"age": "categorical"}', encoding="utf-8")
        with pytest.raises(IngestionError, match=re.escape(
                f"schema file {p}: object names key(s) more than once: ['age']")):
            Schema.from_file(p)


class TestJsonObject:
    @pytest.mark.parametrize("text, message", [
        ('{"a": 1\n"b": 2}', "src: Expecting ',' delimiter: line 2 column 1 (char 8)"),
        ("[1, 2]", "src must be a JSON object, not list"),
        ("[" * 100_000 + "]" * 100_000, "src: maximum recursion depth exceeded"),
        ('{"a": 1, "a": 2}', "src: object names key(s) more than once: ['a']"),
        ('{"x": [{"b": 1, "b": 2}]}', "src: object names key(s) more than once: ['b']"),
    ], ids=["not_json", "not_an_object", "nested_too_deep", "key_named_twice",
            "nested_key_named_twice"])
    def test_refusal_is_led_by_its_source(self, text, message):
        with pytest.raises(IngestionError) as info:
            parse_json_object(text, "src")
        assert str(info.value).startswith(message)

    def test_src_has_one_json_parser(self):
        """Each reader of the package parses JSON through `parse_json_object`,
        so none of them can grow a rule of its own: a `json.load(`, a
        `json.loads(` or a `from json import` anywhere else in the package
        fails this test."""
        parser = next(node for node in ast.parse(Path(data.__file__).read_text()).body
                      if getattr(node, "name", None) == "parse_json_object")
        found = []
        for path in sorted(Path(data.__file__).parent.glob("*.py")):
            for number, line in enumerate(path.read_text().splitlines(), start=1):
                if re.search(r"json\.loads?\(|from json import", line):
                    found.append((path.name, number))
        assert found and all(name == "data.py" and parser.lineno <= number <= parser.end_lineno
                             for name, number in found), found


def test_src_sets_a_trial_up_in_one_place():
    """Every trial is split and scaled by `split_and_scale`, so no caller can
    grow a set-up of its own: a call of `make_splits` or `scale` anywhere
    else in the package fails this test."""
    set_up = next(node for node in ast.parse(Path(data.__file__).read_text()).body
                  if getattr(node, "name", None) == "split_and_scale")
    found = []
    for path in sorted(Path(data.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and getattr(
                    node.func, "id", getattr(node.func, "attr", None)) in ("make_splits", "scale"):
                found.append((path.name, node.lineno))
    assert len(found) == 2 and all(name == "data.py" and set_up.lineno <= number <= set_up.end_lineno
                                   for name, number in found), found


class TestLoadCsv:
    def test_basic(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "age,color,target\n1,red,yes\n2,blue,no\n")
        table = load_csv(p, SCHEMA)
        assert table.n_rows == 2
        np.testing.assert_array_equal(table.columns[0], [1.0, 2.0])
        assert table.columns[0].dtype == np.float64

    def test_empty_cell_is_missing(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "age,color,target\n,red,yes\n")
        table = load_csv(p, SCHEMA)
        assert np.isnan(table.columns[0][0])
        assert table.gaps(0).tolist() == [True]

    def test_header_mismatch_names_column(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "age,colour,target\n1,red,yes\n")
        with pytest.raises(IngestionError, match="colour|color"):
            load_csv(p, SCHEMA)

    def test_empty_label_names_row(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "age,color,target\n1,red,yes\n2,blue, \n")
        with pytest.raises(IngestionError, match="row 3 has no label"):
            load_csv(p, SCHEMA)

    def test_ragged_row_reports_number(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "age,color,target\n1,red,yes\n2,blue\n")
        with pytest.raises(IngestionError, match="row 3"):
            load_csv(p, SCHEMA)

    def test_bytes_that_are_not_utf8_name_the_file(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_bytes(b"age,color,target\n1,red,yes\n2,bl\xffue,no\n")
        with pytest.raises(IngestionError) as err:
            load_csv(p, SCHEMA)
        assert str(err.value) == (f"{p}: not UTF-8 at row 1 or after: "
                                  "invalid start byte, byte 0xff")

    def test_bytes_that_are_not_utf8_name_a_row_at_or_before_them(self, tmp_path):
        """The file is decoded in chunks ahead of the csv reader, so the row
        named is the one after the last row read whole, not the bad byte's."""
        p = tmp_path / "d.csv"
        rows = [b"age,color,target"] + [b"%d,red,yes" % k for k in range(3000)]
        rows[2500] = b"2499,r\xe9d,yes"  # Latin-1, not UTF-8
        p.write_bytes(b"\n".join(rows) + b"\n")
        with pytest.raises(IngestionError) as err:
            load_csv(p, SCHEMA)
        named = re.fullmatch(rf"{re.escape(str(p))}: not UTF-8 at row (\d+) or after: "
                             "invalid continuation byte, byte 0xe9", str(err.value))
        assert named and 1 < int(named[1]) <= 2501

    def test_quote_opening_the_header_names_row_1_in_a_short_error(self, tmp_path):
        """The quote runs the rest of a file under the csv module's field
        limit into one header cell, which the error used to print whole."""
        body = "".join(f"{k},red,yes\n" for k in range(10_000))  # about 100 KB
        p = write_csv(tmp_path / "d.csv", '"age,color,target\n' + body)
        with pytest.raises(IngestionError) as err:
            load_csv(p, SCHEMA)
        assert str(err.value) == (f"{p}: row 1: a quote opens a header cell that runs "
                                  "past the end of the line")

    @pytest.mark.parametrize("text, repeated", [
        ("age,color,age,target\n1,red,100,yes\n2,blue,200,no\n3,red,300,yes\n", "age"),
        ("age,color,target,color\n1,red\n", "color"),  # raises before the ragged row
    ])
    def test_repeated_header_name_rejected(self, tmp_path, text, repeated):
        p = write_csv(tmp_path / "d.csv", text)
        with pytest.raises(IngestionError, match=rf"more than once: \['{repeated}'\]"):
            load_csv(p, SCHEMA)

    def test_byte_order_mark_gives_the_same_table(self, tmp_path):
        text = "age,color,target\n1,red,yes\n,blue,no\n3,,yes\n"
        plain = write_csv(tmp_path / "plain.csv", text)
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        assert encode_csv(marked, SCHEMA).X.tobytes() == encode_csv(plain, SCHEMA).X.tobytes()

    def test_files_are_read_as_utf8(self, tmp_path):
        schema = Schema(["größe", "farbe", "target"], ["numerical", "categorical", "label"])
        with open(tmp_path / "s.json", "w", encoding="utf-8") as fh:
            json.dump(dict(zip(schema.names, schema.kinds)), fh, ensure_ascii=False)
        (tmp_path / "d.csv").write_bytes("größe,farbe,target\n1,grün,ja\n2,weiß,nein\n"
                                         .encode("utf-8"))
        loaded = Schema.from_file(tmp_path / "s.json")
        assert loaded.names == schema.names
        table = load_csv(tmp_path / "d.csv", loaded)
        assert cells(table, 1) == ["grün", "weiß"]


class TestImputeDropsEmptyColumns:
    def _table(self, tmp_path, cells):
        p = write_csv(tmp_path / "d.csv", "age,color,target\n" + cells)
        return load_csv(p, SCHEMA)

    def test_all_missing_column_removed(self, tmp_path):
        t = impute(self._table(tmp_path, ",red,yes\n,blue,no\n"))
        assert t.names == ["color", "target"] and t.kinds == ["categorical", "label"]
        assert cells(t, 0) == ["red", "blue"]

    def test_no_missing_unchanged(self, tmp_path):
        t = impute(self._table(tmp_path, "1,red,yes\n2,blue,no\n"))
        assert t.names == ["age", "color", "target"]

    def test_no_feature_left_rejected(self, tmp_path):
        with pytest.raises(IngestionError, match="no feature column has a value"):
            impute(self._table(tmp_path, ",,yes\n,,no\n"))

    def test_single_value_kept(self, tmp_path):
        t = impute(self._table(tmp_path, "1,red,yes\n,blue,no\n"))
        assert "age" in t.names
        assert list(t.columns[0]) == [1.0, 1.0]


class TestImpute:
    def _table(self, tmp_path, cells):
        p = write_csv(tmp_path / "d.csv", "age,color,target\n" + cells)
        return load_csv(p, SCHEMA)

    def test_numeric_mean(self, tmp_path):
        t = impute(self._table(tmp_path, "1,a,x\n,a,x\n3,a,x\n"))
        assert t.columns[0][1] == pytest.approx(2.0)

    def test_categorical_mode(self, tmp_path):
        t = impute(self._table(tmp_path, "1,a,x\n1,a,x\n1,,x\n1,b,x\n"))
        assert cells(t, 1) == ["a", "a", "a", "b"]

    def test_mode_tie_breaks_lexicographically(self, tmp_path):
        t = impute(self._table(tmp_path, "1,b,x\n1,a,x\n1,,x\n"))
        assert cells(t, 1)[2] == "a"

    def test_no_missing_after(self, tmp_path):
        t = impute(self._table(tmp_path, ",a,x\n2,,x\n3,b,x\n"))
        assert not any(t.gaps(j).any() for j in range(len(t.names)))
        assert not np.isnan(t.columns[0]).any()

    def test_mean_is_the_float_mean_of_the_cells(self, tmp_path):
        t = impute(self._table(tmp_path, "0.1,a,x\n,a,x\n0.2,a,x\n0.7,a,x\n"))
        assert t.columns[0][1] == np.mean([0.1, 0.2, 0.7])

    @pytest.mark.parametrize("cell", ["foo", "nan", "inf", "-Infinity"])
    def test_non_finite_cell_names_column_and_row(self, tmp_path, cell):
        with pytest.raises(IngestionError, match=f"column 'age', row 4: '{cell}'"):
            self._table(tmp_path, f"1,a,x\n,a,x\n{cell},b,x\n")


def scaled(values, kind, train=None):
    """X of `scale` over a dataset whose columns are all numerical, with the
    statistics of the `train` rows (all rows by default)."""
    X = np.array(values, dtype=float)
    d = X.shape[1]
    dataset = ProcessedDataset(X, np.zeros(len(X), dtype=int), [(j, j + 1) for j in range(d)],
                               ["0"], list(range(d)))
    return scale(dataset, np.arange(len(X)) if train is None else train, kind).X


class TestScaler:
    def test_zscore_population_std(self):
        out = scaled([[1.0], [2.0], [3.0]], "zscore")
        np.testing.assert_allclose(out.ravel(), [-1.2247, 0.0, 1.2247], atol=1e-4)

    def test_minmax(self):
        out = scaled([[1.0], [2.0], [3.0]], "minmax")
        np.testing.assert_allclose(out.ravel(), [0.0, 0.5, 1.0])

    def test_mean_scaling(self):
        out = scaled([[1.0], [2.0], [3.0]], "mean")
        np.testing.assert_allclose(out.ravel(), [-0.5, 0.0, 0.5])

    def test_degenerate_feature_maps_to_zero(self):
        # statistics of the two 5.0 rows: zero spread, so every row maps to 0
        out = scaled([[5.0], [5.0], [7.0]], "zscore", train=np.array([0, 1]))
        np.testing.assert_array_equal(out, [[0.0], [0.0], [0.0]])

    def test_fit_rows_standardized(self, rng):
        """The float32 output is the float64 formula rounded once, and the
        float64 formula standardizes the fit rows."""
        vals = rng.normal(3.0, 2.0, size=(50, 4))
        want = (vals - vals.mean(axis=0)) / vals.std(axis=0)
        out = scaled(vals, "zscore")
        assert out.dtype == np.float32
        np.testing.assert_array_equal(out, want.astype(np.float32))
        np.testing.assert_allclose(want.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(want.std(axis=0), 1.0, atol=1e-10)

    @pytest.mark.parametrize("kind", ["zscore", "minmax", "mean"])
    def test_empty_training_rows_refused(self, kind):
        """No statistics exist over no rows: zscore used to return an all-NaN
        table with RuntimeWarnings, and minmax and mean to raise numpy's
        zero-size reduction error."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError,
                               match=f"^{kind} scaling needs at least one training row$"):
                scaled([[1.0], [2.0]], kind, train=np.array([], dtype=int))


    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_none_is_a_training_dtype_copy_without_statistics(self, dtype):
        """`none` takes no statistics, so it also takes no training rows."""
        X = np.array([[1.0, 5.0], [2.0, 7.0]], dtype=dtype)
        dataset = ProcessedDataset(X, np.zeros(2, dtype=int), [(0, 1), (1, 2)], ["0"], [0, 1])
        for train in (np.arange(2), np.array([], dtype=int)):
            out = scale(dataset, train, "none").X
            assert out.dtype == TRAINING_DTYPE and not np.shares_memory(out, X)
            np.testing.assert_array_equal(out, X.astype(TRAINING_DTYPE))


class TestOneHot:
    def _dataset(self, tmp_path, cells):
        p = write_csv(tmp_path / "d.csv", "age,color,target\n" + cells)
        return one_hot(impute(load_csv(p, SCHEMA)))

    def test_categorical_block(self, tmp_path):
        ds = self._dataset(tmp_path, "1,a,x\n2,b,y\n3,a,x\n")
        lo, hi = ds.feature_blocks[1]
        np.testing.assert_array_equal(ds.X[:, lo:hi], [[1, 0], [0, 1], [1, 0]])

    def test_numerical_passthrough(self, tmp_path):
        ds = self._dataset(tmp_path, "1,a,x\n2,b,y\n3,a,x\n")
        lo, hi = ds.feature_blocks[0]
        assert hi - lo == 1
        np.testing.assert_array_equal(ds.X[:, lo], [1.0, 2.0, 3.0])

    def test_block_row_sums(self, tmp_path):
        ds = self._dataset(tmp_path, "1,a,x\n2,b,y\n3,c,x\n")
        lo, hi = ds.feature_blocks[1]
        assert set(ds.X[:, lo:hi].sum(axis=1)) <= {0.0, 1.0}

    @pytest.mark.parametrize("cell", ["1.5x", "NaN", "inf"])
    def test_non_finite_cell_names_column_and_row(self, tmp_path, cell):
        with pytest.raises(IngestionError, match=f"column 'age', row 3: '{cell}'"):
            self._dataset(tmp_path, f"1,a,x\n{cell},b,y\n3,a,x\n")

    def test_class_indices_first_appearance(self, tmp_path):
        ds = self._dataset(tmp_path, "1,a,y\n2,b,x\n3,c,y\n")
        assert ds.classes == ["y", "x"]
        np.testing.assert_array_equal(ds.y, [0, 1, 0])

    def test_block_order_follows_the_imputed_column(self, tmp_path):
        # the gap comes before the first "a", and "a" is the mode that fills it
        ds = self._dataset(tmp_path, "1,,x\n2,b,y\n3,a,x\n4,a,y\n")
        lo, hi = ds.feature_blocks[1]
        np.testing.assert_array_equal(ds.X[:, lo:hi], [[1, 0], [0, 1], [1, 0], [1, 0]])

    @given(st.lists(st.sampled_from(["b", "a", "d", "c", ""]), min_size=1, max_size=30)
           .filter(any))
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_block_matches_the_string_reference(self, tmp_path, column):
        """The block built from integer codes equals one built from the cell
        strings: the mode (ties to the smallest string) fills the gaps, and
        the levels take their first appearance in the filled column."""
        ds = self._dataset(tmp_path, "".join(f"1,{c},x\n" for c in column))
        counts = Counter(c for c in column if c)
        fill = min(c for c, n in counts.items() if n == max(counts.values()))
        filled = [c or fill for c in column]
        levels = list(dict.fromkeys(filled))
        lo, hi = ds.feature_blocks[1]
        np.testing.assert_array_equal(ds.X[:, lo:hi], np.eye(len(levels))[
            [levels.index(c) for c in filled]])


# Traced peak over X.nbytes on write_mixed_table's 4,000 rows: encode_csv
# read 3.03 with a Python float per numerical cell and per-column arrays
# joined by np.column_stack, 2.19 with float64 column buffers and X written
# in place, and 1.31 with every categorical cell an int32 code from the first
# read instead of a Python string; scale read 1.84 with full-width
# temporaries, 1.32 rescaling one column at a time, and 0.53 writing a float32
# copy after its statistics' temporaries are gone. A trial's set-up, `scale`
# and `run_method`'s cast to the weights' dtype, read 1.50 while `scale`
# returned a float64 copy and 0.53 since the cast copies nothing.
ENCODE_PEAK_BOUND = 1.6
SCALE_PEAK_BOUND = 0.7
TRIAL_SETUP_PEAK_BOUND = 0.7


class TestMemory:
    """Ingestion holds one encoded copy of the table, and `scale` one more,
    in float32."""

    def test_encode_csv_peak(self, tmp_path):
        path, schema = write_mixed_table(tmp_path)
        ds, peak = traced_peak(encode_csv, path, schema)
        assert ds.X.shape == (4000, 12 + 6 * 8)
        assert peak / ds.X.nbytes < ENCODE_PEAK_BOUND

    def test_scale_peak(self, tmp_path):
        path, schema = write_mixed_table(tmp_path)
        ds = encode_csv(path, schema)
        splits = make_splits(ds.n, 0)
        scaled, peak = traced_peak(scale, ds, splits.train, "zscore")
        assert peak / ds.X.nbytes < SCALE_PEAK_BOUND
        assert scaled.X.dtype == TRAINING_DTYPE
        assert not np.array_equal(scaled.X, ds.X)

    def test_trial_setup_peak(self, tmp_path):
        """`scale` and then `run_method`'s cast of X to the weights' dtype."""
        path, schema = write_mixed_table(tmp_path)
        ds = encode_csv(path, schema)
        splits = make_splits(ds.n, 0)

        def setup():
            return scale(ds, splits.train, "zscore").X.astype(TRAINING_DTYPE, copy=False)

        X, peak = traced_peak(setup)
        assert peak / ds.X.nbytes < TRIAL_SETUP_PEAK_BOUND
        assert X.dtype == TRAINING_DTYPE


class TestMakeSplits:
    def test_sizes_n10(self):
        s = make_splits(10, 0)
        assert (len(s.train), len(s.validation), len(s.test)) == (7, 1, 2)

    def test_deterministic(self):
        a, b = make_splits(100, 42), make_splits(100, 42)
        np.testing.assert_array_equal(a.train, b.train)
        np.testing.assert_array_equal(a.test, b.test)

    def test_different_seeds_differ(self):
        a, b = make_splits(1000, 1), make_splits(1000, 2)
        assert not np.array_equal(a.train, b.train)

    def test_partition(self):
        s = make_splits(53, 7)
        union = np.concatenate([s.train, s.validation, s.test])
        assert sorted(union) == list(range(53))

    def test_too_small(self):
        with pytest.raises(ValueError):
            make_splits(9, 0)


class TestCorruptLabels:
    def test_rate_zero_unchanged(self, rng):
        y = np.arange(10) % 3
        np.testing.assert_array_equal(corrupt_labels(y, 0.0, 3, rng), y)

    def test_exact_count_selected(self, rng):
        y = np.zeros(100, dtype=int)
        noisy = corrupt_labels(y, 0.3, 5, np.random.default_rng(0))
        # exactly 30 rows redrawn; some may redraw to the original class
        assert (noisy != y).sum() <= 30

    def test_changed_fraction_near_k_minus_1_over_k(self):
        k = 4
        y = np.zeros(20000, dtype=int)
        noisy = corrupt_labels(y, 1.0, k, np.random.default_rng(0))
        frac = (noisy != y).mean()
        assert abs(frac - (k - 1) / k) < 0.02

    def test_exactly_round_rate_n_selected(self):
        # sentinel labels outside the class range make every redraw visible
        y = np.full(100, -1, dtype=int)
        noisy = corrupt_labels(y, 0.3, 3, np.random.default_rng(1))
        assert (noisy != y).sum() == 30


class TestMaskLabels:
    def test_fraction_one_all_labeled(self, rng):
        labeled, unlabeled = mask_labels(np.arange(40), 1.0, rng)
        assert len(labeled) == 40 and len(unlabeled) == 0

    def test_quarter_split(self, rng):
        labeled, unlabeled = mask_labels(np.arange(100), 0.25, rng)
        assert len(labeled) == 25 and len(unlabeled) == 75

    def test_partition(self, rng):
        idx = np.arange(50, 80)
        labeled, unlabeled = mask_labels(idx, 0.4, rng)
        assert sorted(np.concatenate([labeled, unlabeled])) == list(idx)


@pytest.mark.parametrize("call, error, message", [
    (lambda tmp: load_csv(write_csv(tmp / "d.csv", ""), SCHEMA), IngestionError,
     "{tmp}/d.csv: empty file"),
    (lambda tmp: scaled([[1.0], [2.0]], "robust"), ValueError, "unknown scaling kind 'robust'"),
    (lambda tmp: corrupt_labels(np.zeros(4, dtype=int), 1.5, 2, np.random.default_rng(0)),
     ValueError, "noise_rate must lie in [0, 1]"),
    (lambda tmp: corrupt_labels(np.zeros(4, dtype=int), -0.1, 2, np.random.default_rng(0)),
     ValueError, "noise_rate must lie in [0, 1]"),
    (lambda tmp: mask_labels(np.arange(4), 0.0, np.random.default_rng(0)), ValueError,
     "labeled_fraction must lie in (0, 1]"),
    (lambda tmp: mask_labels(np.arange(4), 1.5, np.random.default_rng(0)), ValueError,
     "labeled_fraction must lie in (0, 1]"),
], ids=["empty_csv", "unknown_scaling", "noise_rate_above_1", "noise_rate_below_0",
        "labeled_fraction_0", "labeled_fraction_above_1"])
def test_bad_input_raises_with_its_message(tmp_path, call, error, message):
    with pytest.raises(error) as info:
        call(tmp_path)
    assert str(info.value) == message.format(tmp=tmp_path)


class TestPipelineDeterminism:
    def test_bit_identical(self, tmp_path):
        rows = ["age,color,target"]
        rng = np.random.default_rng(0)
        for i in range(40):
            rows.append(f"{rng.normal():.6f},{'ab'[i % 2]},{'xy'[i % 3 == 0]}")
        p = write_csv(tmp_path / "d.csv", "\n".join(rows) + "\n")
        ds1, sp1 = process_csv(p, SCHEMA, 9)
        ds2, sp2 = process_csv(p, SCHEMA, 9)
        assert np.array_equal(ds1.X, ds2.X)
        assert np.array_equal(ds1.y, ds2.y)
        np.testing.assert_array_equal(sp1.train, sp2.train)

    def test_scaler_uses_train_rows_only(self, tmp_path):
        rows = ["age,color,target"]
        for i in range(20):
            rows.append(f"{i},a,x")
        p = write_csv(tmp_path / "d.csv", "\n".join(rows) + "\n")
        ds, sp = process_csv(p, SCHEMA, 3)
        age = np.arange(20.0)[:, None]
        train = age[sp.train]
        want = (age - train.mean(axis=0)) / train.std(axis=0)  # the float64 formula
        np.testing.assert_array_equal(ds.X[:, :1], want.astype(np.float32))
        np.testing.assert_allclose(want[sp.train].mean(), 0.0, atol=1e-10)
        np.testing.assert_allclose(want[sp.train].std(), 1.0, atol=1e-10)


@given(st.integers(10, 500), st.integers(0, 10_000))
@settings(max_examples=50, deadline=None)
def test_split_sizes_property(n, seed):
    s = make_splits(n, seed)
    assert len(s.train) == int(np.floor(0.7 * n + 0.5))
    assert len(s.validation) == int(np.floor(0.1 * n + 0.5))
    assert len(s.train) + len(s.validation) + len(s.test) == n
