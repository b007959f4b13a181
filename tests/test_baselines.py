import numpy as np
import pytest

from tabpretrain.baselines import mixup_batch, self_distill, self_train, tri_train
from tabpretrain.nn import softmax
from conftest import encoded_dataset


def index_dataset(n=20, num_classes=2, y=None):
    """Dataset whose feature 0 is the row index, so stub models can recover
    row identity from the matrix they are given."""
    X = np.zeros((n, 2))
    X[:, 0] = np.arange(n)
    if y is None:
        y = np.arange(n) % num_classes
    return encoded_dataset(X, y, [str(k) for k in range(num_classes)])


class StubModel:
    """predict() returns fixed logits per row, looked up by feature 0."""

    def __init__(self, logits_for_row):
        self.logits_for_row = logits_for_row

    def predict(self, X):
        return np.array([self.logits_for_row(int(r)) for r in X[:, 0]])


def constant_model(logits):
    return StubModel(lambda r: np.array(logits, dtype=float))


class FixedRng:
    """Deterministic stand-in exposing just what mixup_batch draws."""

    def __init__(self, lam, perm):
        self.lam = lam
        self.perm = np.asarray(perm)

    def beta(self, a, b):
        return self.lam

    def permutation(self, n):
        return self.perm


class TestMixup:
    def test_midpoint_with_reversing_permutation(self):
        x = np.array([[0.0, 0.0], [2.0, 4.0]])
        y = np.array([[1.0, 0.0], [0.0, 1.0]])
        xm, ym = mixup_batch(x, y, 0.2, FixedRng(0.5, [1, 0]))
        np.testing.assert_allclose(xm, [[1.0, 2.0], [1.0, 2.0]])
        np.testing.assert_allclose(ym, [[0.5, 0.5], [0.5, 0.5]])

    def test_lambda_one_is_identity(self):
        x = np.arange(6.0).reshape(3, 2)
        y = np.eye(3)
        xm, ym = mixup_batch(x, y, 0.2, FixedRng(1.0, [2, 0, 1]))
        np.testing.assert_array_equal(xm, x)
        np.testing.assert_array_equal(ym, y)

    def test_label_rows_still_sum_to_one(self, rng):
        y = np.eye(4)[rng.integers(0, 4, size=32)]
        _, ym = mixup_batch(rng.normal(size=(32, 5)), y, 0.2, rng)
        np.testing.assert_allclose(ym.sum(axis=1), 1.0)

    def test_rejects_nonpositive_alpha(self, rng):
        with pytest.raises(ValueError):
            mixup_batch(np.zeros((2, 2)), np.eye(2), 0.0, rng)

    def test_beta_02_mass_concentrates_at_extremes(self):
        # alpha = 0.2 gives a bimodal distribution: most draws are near 0 or 1,
        # so most mixed examples stay close to one of the two originals
        draws = np.random.default_rng(0).beta(0.2, 0.2, size=100_000)
        outside = np.mean((draws < 0.1) | (draws > 0.9))
        assert outside >= 0.6


class TestSelfTrain:
    def test_never_confident_pool_is_fixed_point(self):
        ds = index_dataset()
        calls = []

        def train_fn(rows, labels, soft):
            calls.append((rows.copy(), labels.copy()))
            return constant_model([0.0, 0.0])  # uniform softmax, below 0.75

        model, pool = self_train(ds, np.arange(5), np.arange(5, 20), train_fn, 0.75, 10)
        assert len(calls) == 11  # 10 rounds plus the final model
        np.testing.assert_array_equal(sorted(pool), np.arange(5))
        np.testing.assert_array_equal(calls[-1][1], ds.y[np.arange(5)])

    def test_always_confident_absorbs_everything_in_one_round(self):
        ds = index_dataset()
        calls = []

        def train_fn(rows, labels, soft):
            calls.append((rows.copy(), labels.copy()))
            return constant_model([0.0, 10.0])  # class 1 at certainty ~1

        _, pool = self_train(ds, np.arange(5), np.arange(5, 20), train_fn, 0.75, 10)
        assert sorted(pool) == list(range(20))
        rows, labels = calls[-1]
        by_row = dict(zip(rows.tolist(), labels.tolist()))
        # originals keep their labels, absorbed rows carry the prediction
        for r in range(5):
            assert by_row[r] == ds.y[r]
        for r in range(5, 20):
            assert by_row[r] == 1

    def test_pseudo_labels_frozen_across_rounds(self):
        ds = index_dataset()
        call_count = [0]

        def train_fn(rows, labels, soft):
            call_count[0] += 1
            cls = 1 if call_count[0] == 1 else 0  # flips opinion after round 1
            logits = [10.0, 0.0] if cls == 0 else [0.0, 10.0]
            last = (rows.copy(), labels.copy())
            train_fn.last = last
            return constant_model(logits)

        self_train(ds, np.arange(3), np.arange(3, 6), train_fn, 0.75, 10)
        rows, labels = train_fn.last
        by_row = dict(zip(rows.tolist(), labels.tolist()))
        for r in (3, 4, 5):  # absorbed in round 1 as class 1, never revised
            assert by_row[r] == 1

    def test_threshold_boundary_is_inclusive(self):
        ds = index_dataset()
        logit = np.log(3.0)  # softmax([0, log 3]) = (0.25, 0.75) exactly

        def train_fn(rows, labels, soft):
            train_fn.last = rows.copy()
            return constant_model([0.0, logit])

        _, pool = self_train(ds, np.arange(4), np.arange(4, 8), train_fn, threshold=0.75,
                             iterations=10)
        assert sorted(pool) == list(range(8))

    def test_bad_threshold_rejected(self):
        ds = index_dataset()
        with pytest.raises(ValueError):
            self_train(ds, np.arange(4), np.arange(4, 8), lambda *a: None, threshold=0.0,
                       iterations=10)


class TestTriTrain:
    def test_no_unlabeled_final_pool_is_labeled_set(self, rng):
        ds = index_dataset()
        def train_fn(rows, labels, soft):
            return constant_model([1.0, 0.0])

        _, rows = tri_train(ds, np.arange(6), np.array([], dtype=int), train_fn, rng, 10)
        # union of bootstrap pools plus the precedence pass covers exactly the
        # labeled rows that appeared in at least one bootstrap, then all
        # labeled rows are re-asserted with their original labels
        assert set(rows) <= set(range(6))
        assert set(np.arange(6)) >= set(rows)

    def test_agreement_absorbs_unlabeled(self, rng):
        ds = index_dataset()
        def train_fn(rows, labels, soft):
            return constant_model([0.0, 5.0])  # everyone predicts class 1

        model, rows = tri_train(ds, np.arange(6), np.arange(6, 12), train_fn, rng, 10)
        assert set(range(6, 12)) <= set(rows)

    def test_original_labels_take_precedence(self, rng):
        ds = index_dataset(y=np.zeros(12, dtype=int), num_classes=2)
        seen = []

        def train_fn(rows, labels, soft):
            seen.append(dict(zip(rows.tolist(), labels.tolist())))
            return constant_model([0.0, 5.0])  # predicts class 1 for all rows

        tri_train(ds, np.arange(6), np.arange(6, 12), train_fn, rng, 10)
        final = seen[-1]
        for r in range(6):
            if r in final:
                assert final[r] == 0  # original label, not the prediction
        for r in range(6, 12):
            assert final[r] == 1

    def test_union_keeps_the_first_pools_label(self, rng):
        """Row 6 joins pool 2 as class 1 in round 1 (models 0 and 1 agree on
        1) and pool 0 as class 0 in round 2 (models 1 and 2 agree on 0); the
        final model trains on it as class 0, the label of pool 0."""
        ds = index_dataset(n=7)
        votes = [1, 1, 0, 1, 0, 0]  # per call: round 1 models 0-2, then round 2
        calls = []

        def train_fn(rows, labels, soft):
            calls.append(dict(zip(rows.tolist(), labels.tolist())))
            cls = votes[len(calls) - 1] if len(calls) <= len(votes) else 0
            return constant_model([5.0, 0.0] if cls == 0 else [0.0, 5.0])

        tri_train(ds, np.arange(6), np.array([6]), train_fn, rng, iterations=2)
        assert len(calls) == 7
        assert 6 not in calls[3] and 6 not in calls[4] and calls[5][6] == 1  # pool 2 in round 2
        assert calls[-1][6] == 0

    def test_bootstrap_pools_resample_with_replacement(self):
        ds = index_dataset()
        first_rounds = []

        def train_fn(rows, labels, soft):
            first_rounds.append(rows.copy())
            return constant_model([0.0, 0.0])

        tri_train(ds, np.arange(6), np.arange(6, 20), train_fn,
                  np.random.default_rng(0), iterations=1)
        boots = first_rounds[:3]
        assert all(len(b) == 6 for b in boots)
        assert any(len(set(b.tolist())) < 6 for b in boots)  # a duplicate drawn


@pytest.mark.parametrize("name, unlabeled, calls", [
    pytest.param("self_train", [], 1, id="self_train-no_unlabeled"),
    pytest.param("self_train", range(6, 12), 2, id="self_train-all_absorbed"),
    pytest.param("tri_train", [], 1, id="tri_train-no_unlabeled"),
    pytest.param("tri_train", range(6, 12), 4, id="tri_train-all_absorbed"),
])
def test_rounds_stop_once_no_unlabeled_row_is_left(name, unlabeled, calls):
    """Confident, agreeing models absorb every unlabeled row in round 1 (into
    every pool for tri-training); no round runs after that, and none at all
    without unlabeled rows, so only the final model is trained then."""
    ds = index_dataset()
    trained = []

    def train_fn(rows, labels, soft):
        trained.append(rows.copy())
        return constant_model([0.0, 5.0])

    unlabeled = np.array(list(unlabeled), dtype=int)
    if name == "self_train":
        _, rows = self_train(ds, np.arange(6), unlabeled, train_fn, 0.75, 10)
    else:
        _, rows = tri_train(ds, np.arange(6), unlabeled, train_fn, np.random.default_rng(0), 10)
    assert len(trained) == calls
    np.testing.assert_array_equal(np.sort(trained[-1]), np.sort(rows))
    assert set(rows.tolist()) >= set(unlabeled.tolist())


def loop_self_train(dataset, labeled, unlabeled, train_fn, threshold, iterations):
    """Row-by-row reference for self_train: a list pool and a dict of labels."""
    pool_rows = list(np.asarray(labeled))
    pool_labels = {int(i): int(dataset.y[i]) for i in pool_rows}
    remaining = list(np.asarray(unlabeled))
    for _ in range(iterations):
        if not remaining:
            break
        model = train_fn(np.array(pool_rows), np.array([pool_labels[int(i)] for i in pool_rows]),
                         None)
        probs = softmax(model.predict(dataset.X[np.array(remaining)]))
        confident = probs.max(axis=1) >= threshold
        for r, keep, cls in zip(list(remaining), confident, probs.argmax(axis=1)):
            if keep:
                pool_labels[int(r)] = int(cls)
                pool_rows.append(r)
        remaining = [r for r, keep in zip(remaining, confident) if not keep]
    labels = np.array([pool_labels[int(i)] for i in pool_rows])
    return train_fn(np.array(pool_rows), labels, None), np.array(pool_rows)


def loop_tri_train(dataset, labeled, unlabeled, train_fn, rng, iterations):
    """Row-by-row reference for tri_train: list pools, dicts of labels and a
    dict union in which the first pool's label wins."""
    labeled, unlabeled = np.asarray(labeled), np.asarray(unlabeled)
    boots = [rng.choice(labeled, size=len(labeled), replace=True) for _ in range(3)]
    pools = [{int(i): int(dataset.y[i]) for i in b} for b in boots]
    pool_rows = [list(b) for b in boots]
    for _ in range(iterations):
        if all(int(r) in pool for pool in pools for r in unlabeled):
            break
        models = [train_fn(np.array(rows), np.array([pool[int(i)] for i in rows]), None)
                  for rows, pool in zip(pool_rows, pools)]
        preds = [m.predict(dataset.X[unlabeled]).argmax(axis=1) for m in models]
        for k in range(3):
            i, j = [m for m in range(3) if m != k]
            for r, ok, cls in zip(unlabeled, preds[i] == preds[j], preds[i]):
                if ok and int(r) not in pools[k]:
                    pools[k][int(r)] = int(cls)
                    pool_rows[k].append(r)
    union = {}
    for pool in pools:
        for r, cls in pool.items():
            union.setdefault(r, cls)
    for i in labeled:
        union[int(i)] = int(dataset.y[i])
    rows = np.array(sorted(union))
    return train_fn(rows, np.array([union[int(r)] for r in rows]), None), rows


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("name", ["self_train", "tri_train"])
def test_pools_match_the_row_by_row_reference(name, seed):
    """Stub models with random logits per call and row: the index-array
    pools train on the same rows with the same labels, call for call, as the
    list-and-dict reference, and return the same final pool."""
    n = 30
    ds = index_dataset(n=n, num_classes=3)
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    labeled, unlabeled = order[:8], order[8:]
    logits = rng.normal(scale=3.0, size=(64, n, 3))

    def run(fn, *args):
        calls = []

        def train_fn(rows, labels, soft):
            calls.append((rows.tolist(), labels.tolist()))
            table = logits[len(calls) - 1]
            return StubModel(lambda r: table[r])

        _, pool = fn(ds, labeled, unlabeled, train_fn, *args, iterations=4)
        return calls, pool.tolist()

    if name == "self_train":
        got, want = run(self_train, 0.75), run(loop_self_train, 0.75)
    else:
        got = run(tri_train, np.random.default_rng(seed))
        want = run(loop_tri_train, np.random.default_rng(seed))
    assert got == want
    assert len(want[1]) > len(labeled)  # some row was absorbed


class TestSelfDistill:
    def test_teacher_hard_student_soft(self):
        ds = index_dataset()
        calls = []

        def train_fn(rows, labels, soft):
            calls.append((rows.copy(), None if labels is None else labels.copy(),
                          None if soft is None else soft.copy()))
            return constant_model([2.0, 1.0])

        self_distill(ds, np.arange(5), np.arange(5, 20), train_fn)
        assert len(calls) == 2
        t_rows, t_labels, t_soft = calls[0]
        np.testing.assert_array_equal(t_rows, np.arange(5))
        np.testing.assert_array_equal(t_labels, ds.y[:5])
        assert t_soft is None
        s_rows, s_labels, s_soft = calls[1]
        assert sorted(s_rows) == list(range(20))
        assert s_labels is None
        np.testing.assert_allclose(s_soft[s_rows].sum(axis=1), 1.0)

    def test_soft_targets_match_teacher_softmax(self):
        ds = index_dataset(n=8)
        logits = np.array([2.0, 1.0])

        def train_fn(rows, labels, soft):
            train_fn.soft = soft
            return constant_model(logits)

        self_distill(ds, np.arange(4), np.arange(4, 8), train_fn)
        expected = np.exp(logits) / np.exp(logits).sum()
        np.testing.assert_allclose(train_fn.soft[0], expected, atol=1e-12)

    def test_no_unlabeled_student_sees_labeled_only(self):
        ds = index_dataset(n=6)
        calls = []

        def train_fn(rows, labels, soft):
            calls.append(rows.copy())
            return constant_model([0.0, 1.0])

        self_distill(ds, np.arange(6), np.array([], dtype=int), train_fn)
        np.testing.assert_array_equal(calls[1], np.arange(6))
