import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from tabpretrain import stats
from tabpretrain.rundir import MethodRun
from tabpretrain.stats import (
    BoxPlotEntry,
    WinMatrix,
    box_plot_csv,
    compare,
    regularized_incomplete_beta,
    relative_improvement,
    student_t_two_sided_p,
    welch_t_test,
    win_matrix,
    win_matrix_csv,
)


def run(method, dataset, trial, acc, setting="full"):
    return MethodRun(dataset, method, trial, 0, setting, acc)


class TestIncompleteBeta:
    def test_boundaries(self):
        assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
        assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0

    def test_uniform_case_is_identity(self):
        # I_x(1, 1) = x
        for x in (0.1, 0.35, 0.8):
            assert regularized_incomplete_beta(1.0, 1.0, x) == pytest.approx(x, abs=1e-12)

    def test_symmetry(self):
        for a, b, x in [(2.0, 5.0, 0.3), (0.5, 0.5, 0.7), (4.0, 1.5, 0.2)]:
            lhs = regularized_incomplete_beta(a, b, x)
            rhs = 1.0 - regularized_incomplete_beta(b, a, 1.0 - x)
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_matches_scipy(self, rng):
        for _ in range(50):
            a, b = rng.uniform(0.3, 20.0, size=2)
            x = rng.uniform(0.0, 1.0)
            ours = regularized_incomplete_beta(a, b, x)
            assert ours == pytest.approx(scipy.stats.beta.cdf(x, a, b), abs=1e-12)


class TestStudentT:
    def test_t_zero_is_one(self):
        assert student_t_two_sided_p(0.0, 5.0) == pytest.approx(1.0)

    def test_matches_scipy_survival(self, rng):
        for _ in range(50):
            t = rng.normal(scale=3.0)
            df = rng.uniform(1.0, 60.0)
            expected = 2.0 * scipy.stats.t.sf(abs(t), df)
            assert student_t_two_sided_p(t, df) == pytest.approx(expected, abs=1e-12)

    def test_rejects_bad_df(self):
        with pytest.raises(ValueError):
            student_t_two_sided_p(1.0, 0.0)


class TestWelch:
    def test_identical_samples(self):
        t, df, p = welch_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert t == 0.0 and p == pytest.approx(1.0)

    def test_textbook_example(self):
        t, df, p = welch_t_test([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
        assert t == pytest.approx(-3.674, abs=1e-3)
        assert df == pytest.approx(4.0, abs=1e-9)
        assert p == pytest.approx(0.021, abs=1e-3)

    def test_sign_antisymmetry(self, rng):
        a = rng.normal(size=6)
        b = rng.normal(1.0, 2.0, size=9)
        ta, dfa, pa = welch_t_test(a, b)
        tb, dfb, pb = welch_t_test(b, a)
        assert ta == pytest.approx(-tb) and dfa == pytest.approx(dfb) and pa == pytest.approx(pb)

    def test_matches_scipy_over_random_samples(self):
        rng = np.random.default_rng(77)
        for _ in range(1000):
            na, nb = rng.integers(2, 51, size=2)
            a = rng.normal(rng.uniform(-2, 2), rng.uniform(0.2, 3.0), size=na)
            b = rng.normal(rng.uniform(-2, 2), rng.uniform(0.2, 3.0), size=nb)
            t_ref, p_ref = scipy.stats.ttest_ind(a, b, equal_var=False)
            t, _, p = welch_t_test(a, b)
            assert t == pytest.approx(t_ref, abs=1e-6)
            assert p == pytest.approx(p_ref, abs=1e-6)

    def test_zero_variance_equal_means(self):
        t, df, p = welch_t_test([2.0, 2.0], [2.0, 2.0])
        assert (t, p) == (0.0, 1.0)

    def test_zero_variance_different_means(self):
        t, df, p = welch_t_test([2.0, 2.0], [3.0, 3.0])
        assert p == 0.0 and t == -np.inf

    def test_rejects_single_observation(self):
        with pytest.raises(ValueError):
            welch_t_test([1.0], [1.0, 2.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_sample(self, bad):
        with pytest.raises(ValueError):
            welch_t_test([0.9, 0.91, bad], [0.5, 0.52, 0.51])
        with pytest.raises(ValueError):
            welch_t_test([0.5, 0.52, 0.51], [0.9, 0.91, bad])


class TestCompare:
    def test_clear_separation_wins(self):
        assert compare([9.0, 9.1, 9.2], [1.0, 1.1, 1.2], 0.05) == "win"
        assert compare([1.0, 1.1, 1.2], [9.0, 9.1, 9.2], 0.05) == "loss"

    def test_identical_is_tie(self):
        assert compare([1.0, 2.0], [1.0, 2.0], 0.05) == "tie"

    def test_threshold_boundary_is_tie(self):
        a, b = [1.0, 2.0, 3.0], [4.0, 5.0, 6.0]
        _, _, p = welch_t_test(a, b)
        assert compare(a, b, p) == "tie"  # p >= threshold, exactly equal here
        assert compare(a, b, p + 1e-12) == "loss"

    @given(st.floats(0.1, 10.0), st.floats(-5.0, 5.0))
    @settings(max_examples=30, deadline=None)
    def test_affine_invariance(self, scale, shift):
        rng = np.random.default_rng(3)
        a = rng.normal(0.0, 1.0, size=8)
        b = rng.normal(0.5, 1.0, size=8)
        base = compare(a, b, 0.05)
        assert compare(scale * a + shift, scale * b + shift, 0.05) == base


class TestWinMatrix:
    def _runs(self):
        runs = []
        # dataset d1: A clearly beats B; dataset d2: tie
        for trial, acc in enumerate([0.9, 0.91, 0.92]):
            runs.append(run("A", "d1", trial, acc))
        for trial, acc in enumerate([0.5, 0.51, 0.52]):
            runs.append(run("B", "d1", trial, acc))
        for trial, acc in enumerate([0.7, 0.8, 0.9]):
            runs.append(run("A", "d2", trial, acc))
        for trial, acc in enumerate([0.71, 0.79, 0.9]):
            runs.append(run("B", "d2", trial, acc))
        return runs

    def test_counts_match_brute_force(self):
        runs = self._runs()
        wm = win_matrix(runs, ["A", "B"], p=0.05)
        assert wm.wins[0, 1] == 1 and wm.wins[1, 0] == 0
        assert wm.wins[1, 0] == 0 and wm.wins[0, 1] == 1

    def test_antisymmetry(self):
        """A decided pair reads as the same total from both sides, and the
        two win ratios add up to 1."""
        wm = win_matrix(self._runs(), ["A", "B"], p=0.05)
        assert wm.cell_text(0, 1) == "1/1" and wm.cell_text(1, 0) == "0/1"
        assert wm.ratio(0, 1) + wm.ratio(1, 0) == 1.0

    def test_one_welch_test_per_unordered_pair_and_dataset(self, monkeypatch):
        calls = []

        def counted(a, b):
            calls.append((tuple(a), tuple(b)))
            return welch_t_test(a, b)

        monkeypatch.setattr(stats, "welch_t_test", counted)
        rng = np.random.default_rng(3)
        runs = [run(m, d, t, rng.uniform(0.4, 1.0))
                for m in ("m1", "m2", "m3") for d in ("da", "db") for t in range(3)]
        win_matrix(runs, ["m1", "m2", "m3"], p=0.3)
        assert len(calls) == 3 * 2  # (m1, m2), (m1, m3), (m2, m3) on da and db

    def test_ratio_semantics(self):
        wm = win_matrix(self._runs(), ["A", "B"], p=0.05)
        assert wm.ratio(0, 1) == 1.0  # 1 win out of 1 decided dataset
        assert wm.ratio(1, 0) == 0.0

    def test_all_tie_ratio_is_none(self):
        runs = [run("A", "d", t, a) for t, a in enumerate([0.5, 0.6])]
        runs += [run("B", "d", t, a) for t, a in enumerate([0.5, 0.6])]
        wm = win_matrix(runs, ["A", "B"], p=0.05)
        assert wm.ratio(0, 1) is None
        assert wm.cell_text(0, 1) == "-"
        assert wm.min_ratio_column() == [None, None]

    def test_min_ratio_column_takes_worst_opponent(self):
        wins = np.array([[0, 3, 1], [0, 0, 0], [1, 0, 0]])
        wm = WinMatrix(["A", "B", "C"], wins)
        # A: 3/3 vs B, 1/2 vs C -> min 0.5; B: 0/3 -> 0, undecided vs C; C: 1/2 -> 0.5
        assert wm.min_ratio_column() == [0.5, 0.0, 0.5]

    def test_exhaustive_against_reimplementation(self):
        rng = np.random.default_rng(5)
        methods = ["m1", "m2", "m3"]
        datasets = ["da", "db", "dc", "dd"]
        runs = []
        for m in methods:
            for d in datasets:
                for t in range(5):
                    runs.append(run(m, d, t, rng.uniform(0.4, 1.0)))
        wm = win_matrix(runs, methods, p=0.3)
        for i, mi in enumerate(methods):
            for j, mj in enumerate(methods):
                if i == j:
                    continue
                w = l = 0
                for d in datasets:
                    a = [r.test_accuracy for r in runs if r.method_name == mi and r.dataset_id == d]
                    b = [r.test_accuracy for r in runs if r.method_name == mj and r.dataset_id == d]
                    _, p_val = scipy.stats.ttest_ind(a, b, equal_var=False)
                    if p_val < 0.3:
                        if np.mean(a) > np.mean(b):
                            w += 1
                        else:
                            l += 1
                assert wm.wins[i, j] == w and wm.wins[j, i] == l

    def test_failed_trial_is_not_scored(self):
        """A failed trial's NaN accuracy, which used to be filtered out here,
        makes no record; the trials that have one are scored."""
        with pytest.raises(ValueError, match="non-finite test_accuracy nan"):
            run("A", "d1", 2, np.nan)
        runs = [run("A", "d1", t, a) for t, a in enumerate([0.9, 0.91])]
        runs += [run("B", "d1", t, a) for t, a in enumerate([0.5, 0.52, 0.51])]
        wm = win_matrix(runs, ["A", "B"], p=0.05)
        assert wm.wins[0, 1] == 1 and wm.wins[1, 0] == 0

    def test_dataset_with_one_finite_accuracy_is_left_out(self):
        runs = [run("A", "d1", 0, 0.9)]
        runs += [run("B", "d1", t, a) for t, a in enumerate([0.5, 0.52])]
        runs += [run("A", "d2", t, a) for t, a in enumerate([0.9, 0.91, 0.92])]
        runs += [run("B", "d2", t, a) for t, a in enumerate([0.5, 0.51, 0.52])]
        wm = win_matrix(runs, ["A", "B"], p=0.05)
        assert wm.wins[0, 1] == 1 and wm.wins[1, 0] == 0  # d2 only
        assert wm.wins[1, 0] == 0 and wm.wins[0, 1] == 1


class TestRelativeImprovement:
    def test_plus_ten_percent(self):
        runs = [run("A", "d", t, a) for t, a in enumerate([0.549, 0.55, 0.551])]
        runs += [run("B", "d", t, a) for t, a in enumerate([0.499, 0.5, 0.501])]
        entries = relative_improvement(runs, "A", "B", p=0.20)
        assert len(entries) == 1
        assert entries[0].relative_improvement_pct == pytest.approx(10.0, abs=1e-9)

    def test_failed_trial_is_not_scored(self):
        """A failed trial makes no record; the trials that have one are
        scored."""
        with pytest.raises(ValueError, match="non-finite test_accuracy nan"):
            run("A", "d", 2, np.nan)
        runs = [run("A", "d", t, a) for t, a in enumerate([0.9, 0.91])]
        runs += [run("B", "d", t, a) for t, a in enumerate([0.5, 0.52, 0.51])]
        entries = relative_improvement(runs, "A", "B", p=0.20)
        assert len(entries) == 1
        assert entries[0].relative_improvement_pct == pytest.approx(100 * (0.905 - 0.51) / 0.51)

    def test_dataset_with_one_finite_accuracy_is_left_out(self):
        runs = [run("A", "d1", 0, 0.9)]
        runs += [run("B", "d1", t, a) for t, a in enumerate([0.5, 0.52])]
        runs += [run("A", "d2", t, a) for t, a in enumerate([0.549, 0.55, 0.551])]
        runs += [run("B", "d2", t, a) for t, a in enumerate([0.499, 0.5, 0.501])]
        entries = relative_improvement(runs, "A", "B", p=0.20)
        assert [e.dataset_id for e in entries] == ["d2"]

    def test_zero_accuracy_reference_is_left_out(self):
        """A gain relative to 0 has no value, even where the difference is
        significant."""
        runs = [run("A", "d1", t, a) for t, a in enumerate([0.5, 0.51, 0.52])]
        runs += [run("B", "d1", t, 0.0) for t in range(3)]
        runs += [run("A", "d2", t, a) for t, a in enumerate([0.549, 0.55, 0.551])]
        runs += [run("B", "d2", t, a) for t, a in enumerate([0.499, 0.5, 0.501])]
        assert compare([0.5, 0.51, 0.52], [0.0] * 3, 0.20) == "win"
        entries = relative_improvement(runs, "A", "B", p=0.20)
        assert [e.dataset_id for e in entries] == ["d2"]

    def test_tie_filtered_out(self):
        runs = [run("A", "d", t, a) for t, a in enumerate([0.4, 0.9])]
        runs += [run("B", "d", t, a) for t, a in enumerate([0.41, 0.89])]
        assert relative_improvement(runs, "A", "B", p=0.20) == []

    def test_published_gap_arithmetic(self):
        # 0.7016 vs 0.542 mean accuracy (70.16% vs 54.2%) corresponds to a
        # +29.4% relative gain
        gain = 100.0 * (0.7016 - 0.542) / 0.542
        assert gain == pytest.approx(29.446, abs=1e-3)
        runs = [run("A", "d", t, 0.7016 + t * 0.0001) for t in range(3)]
        runs += [run("B", "d", t, 0.542 + t * 0.0001) for t in range(3)]
        entries = relative_improvement(runs, "A", "B", p=0.20)
        assert entries[0].relative_improvement_pct == pytest.approx(gain, abs=0.01)

    def test_negative_improvement_reported(self):
        runs = [run("A", "d", t, a) for t, a in enumerate([0.449, 0.45, 0.451])]
        runs += [run("B", "d", t, a) for t, a in enumerate([0.499, 0.5, 0.501])]
        entries = relative_improvement(runs, "A", "B", p=0.20)
        assert entries[0].relative_improvement_pct == pytest.approx(-10.0, abs=1e-9)


class TestCsvExports:
    def test_win_matrix_csv_layout(self):
        wm = WinMatrix(["A", "B"], np.array([[0, 2], [1, 0]]))
        text = win_matrix_csv(wm)
        lines = text.strip().split("\n")
        assert lines[0] == "method,A,B,min_ratio"
        assert lines[1].startswith("A,,2/3,")
        assert lines[2].startswith("B,1/3,,")

    def test_box_plot_csv(self):
        entries = [BoxPlotEntry("A", "B", "d", 12.3456)]
        text = box_plot_csv(entries)
        assert "method,reference,dataset_id,relative_improvement_pct" in text
        assert "A,B,d,12.3456" in text
