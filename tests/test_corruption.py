import re

import numpy as np
import pytest

from conftest import encoded_dataset, make_numeric_dataset, traced_peak
from tabpretrain.corruption import (
    STRATEGIES,
    ConfigurationError,
    build_marginal_pool,
    corrupt_batch,
    make_views,
    select_indices,
)
from tabpretrain.training import Hyperparameters


def mixed_dataset(n=30, seed=0):
    """One numerical and one 3-category categorical feature."""
    rng = np.random.default_rng(seed)
    num = rng.normal(size=n)
    cats = [["a", "b", "c"][i] for i in rng.integers(0, 3, size=n)]
    cat_order = list(dict.fromkeys(cats))
    onehot = np.zeros((n, len(cat_order)))
    for i, c in enumerate(cats):
        onehot[i, cat_order.index(c)] = 1.0
    X = np.column_stack([num, onehot])
    y = rng.integers(0, 2, size=n).astype(np.int64)
    return encoded_dataset(X, y, blocks=[(0, 1), (1, 1 + len(cat_order))])


class TestMarginalPool:
    def test_multiplicity_kept(self):
        ds = make_numeric_dataset(n=20, d=2, seed=1)
        ds.X[:, 0] = [1.0, 1.0, 2.0] + [3.0] * 17
        pool = build_marginal_pool(ds, np.array([0, 1, 2]))
        assert sorted(pool.X[pool.rows, 0]) == [1.0, 1.0, 2.0]

    def test_single_row_pool(self, rng):
        ds = make_numeric_dataset(n=20, d=3, seed=1)
        pool = build_marginal_pool(ds, np.array([4]))
        cfg = Hyperparameters(corruption_rate=1.0)
        out, _ = corrupt_batch(ds.X[:5], cfg, pool, rng)
        np.testing.assert_array_equal(out, np.tile(ds.X[4], (5, 1)))

    def test_draws_are_pool_members(self, rng):
        """Each corrupted block, numerical or categorical, equals the same
        block of some training row."""
        train = np.arange(30)
        for ds in (make_numeric_dataset(n=50, d=4, seed=2), mixed_dataset(n=50, seed=2)):
            pool = build_marginal_pool(ds, train)
            cfg = Hyperparameters(corruption_rate=1.0)
            for _ in range(100):
                out, draw = corrupt_batch(ds.X[30:38], cfg, pool, rng)
                for i, row in enumerate(draw.features):
                    for j in np.flatnonzero(row):
                        lo, hi = ds.feature_blocks[j]
                        assert (ds.X[train, lo:hi] == out[i, lo:hi]).all(axis=1).any()

    def test_holds_no_copy_of_the_training_rows(self):
        """Building a pool allocates under 1% of X: it reads X in place
        through the training row indices."""
        ds = make_numeric_dataset(n=10_000, d=20, seed=3)
        train = np.arange(7_000)
        pool, peak = traced_peak(build_marginal_pool, ds, train)
        assert peak < 0.01 * ds.X.nbytes
        assert pool.X is ds.X

    def test_empty_split_rejected(self):
        ds = make_numeric_dataset()
        with pytest.raises(ValueError):
            build_marginal_pool(ds, np.array([], dtype=int))


class TestSelectIndices:
    def test_q_floor(self, rng):
        hit = select_indices(2, Hyperparameters(corruption_rate=0.6), 4, rng)
        np.testing.assert_array_equal(hit.sum(axis=1), 1)  # floor(1.2)

    def test_rate_zero_fixed_count_empty(self, rng):
        hit = select_indices(5, Hyperparameters(corruption_rate=0.0), 4, rng)
        assert not hit.any()

    def test_bernoulli_never_empty(self, rng):
        cfg = Hyperparameters(corruption_rate=0.01, index_selection="bernoulli")
        hit = select_indices(3, cfg, 200, rng)
        assert hit.any(axis=1).all()

    def test_shared_batch_identical_sets(self, rng):
        cfg = Hyperparameters(corruption_rate=0.5, index_sharing="shared_batch")
        hit = select_indices(8, cfg, 10, rng)
        for row in hit[1:]:
            np.testing.assert_array_equal(row, hit[0])

    @pytest.mark.parametrize("index_selection", ["fixed_count", "bernoulli"])
    def test_no_feature_rejected(self, index_selection, rng):
        cfg = Hyperparameters(index_selection=index_selection)
        with pytest.raises(ValueError, match="^need at least one feature$"):
            select_indices(0, cfg, 4, rng)

    def test_per_example_sets_vary(self, rng):
        cfg = Hyperparameters(corruption_rate=0.5)
        hit = select_indices(20, cfg, 50, rng)
        assert len({tuple(row) for row in hit}) > 1


class TestCorruptBatch:
    def test_none_is_identity(self, rng):
        ds = make_numeric_dataset(n=40, d=5)
        pool = build_marginal_pool(ds, np.arange(30))
        cfg = Hyperparameters(corruption_strategy="none", corruption_rate=0.6)
        out, _ = corrupt_batch(ds.X[:6], cfg, pool, rng)
        np.testing.assert_array_equal(out, ds.X[:6])

    def test_rate_zero_is_identity(self, rng):
        ds = make_numeric_dataset(n=40, d=5)
        pool = build_marginal_pool(ds, np.arange(30))
        cfg = Hyperparameters(corruption_rate=0.0)
        out, _ = corrupt_batch(ds.X[:6], cfg, pool, rng)
        np.testing.assert_array_equal(out, ds.X[:6])

    def test_zero_strategy(self, rng):
        ds = make_numeric_dataset(n=20, d=2)
        row = np.array([[5.0, 7.0]])
        cfg = Hyperparameters(corruption_strategy="zero", corruption_rate=0.5)
        out, draw = corrupt_batch(row, cfg, build_marginal_pool(ds, np.arange(20)), rng)
        mask = draw.encoded_mask
        assert mask.sum() == 1  # floor(0.5 * 2)
        np.testing.assert_array_equal(out[mask], [0.0])
        np.testing.assert_array_equal(out[~mask], row[~mask])

    def test_untouched_coordinates_bit_identical(self, rng):
        ds = make_numeric_dataset(n=60, d=8, seed=3)
        pool = build_marginal_pool(ds, np.arange(40))
        for strategy in ("marginal", "mean", "gaussian", "joint", "zero", "missing_learnable"):
            cfg = Hyperparameters(corruption_strategy=strategy, corruption_rate=0.5)
            pool.learnable = rng.normal(size=ds.X.shape[1])
            out, draw = corrupt_batch(ds.X[:10], cfg, pool, rng)
            untouched = ~draw.encoded_mask
            np.testing.assert_array_equal(out[untouched], ds.X[:10][untouched])

    def test_mean_strategy_uses_train_means(self, rng):
        ds = make_numeric_dataset(n=30, d=3)
        train = np.arange(20)
        pool = build_marginal_pool(ds, train)
        cfg = Hyperparameters(corruption_strategy="mean", corruption_rate=1.0)
        out, _ = corrupt_batch(ds.X[25:26], cfg, pool, rng)
        np.testing.assert_allclose(out[0], ds.X[train].mean(axis=0))

    def test_missing_learnable_values_inserted(self, rng):
        ds = make_numeric_dataset(n=30, d=4)
        pool = build_marginal_pool(ds, np.arange(20))
        pool.learnable = np.arange(4, dtype=float) + 10
        cfg = Hyperparameters(corruption_strategy="missing_learnable", corruption_rate=1.0)
        out, _ = corrupt_batch(ds.X[:3], cfg, pool, rng)
        np.testing.assert_array_equal(out, np.tile(pool.learnable, (3, 1)))

    def test_learnable_required(self, rng):
        ds = make_numeric_dataset(n=30, d=4)
        cfg = Hyperparameters(corruption_strategy="missing_learnable", corruption_rate=1.0)
        with pytest.raises(ConfigurationError, match="requires learnable values"):
            corrupt_batch(ds.X[:3], cfg, build_marginal_pool(ds, np.arange(20)), rng)

    def test_column_feature_maps_each_encoded_column_to_its_block(self):
        ds = mixed_dataset()
        pool = build_marginal_pool(ds, np.arange(20))
        lo, hi = ds.feature_blocks[1]
        np.testing.assert_array_equal(pool.column_feature, [0] + [1] * (hi - lo))
        assert pool.column_feature is pool.column_feature  # built once per pool

    def test_categorical_blocks_stay_one_hot_under_marginal_and_joint(self, rng):
        ds = mixed_dataset()
        pool = build_marginal_pool(ds, np.arange(20))
        lo, hi = ds.feature_blocks[1]
        for strategy in ("marginal", "joint"):
            cfg = Hyperparameters(corruption_strategy=strategy, corruption_rate=1.0)
            out, _ = corrupt_batch(ds.X[20:30], cfg, pool, rng)
            block = out[:, lo:hi]
            assert set(np.unique(block)) <= {0.0, 1.0}
            np.testing.assert_array_equal(block.sum(axis=1), np.ones(10))

    def test_marginal_gather_matches_per_cell_loop(self):
        """The vectorised gather against a per-example, per-feature loop that
        copies block j of donor (i, j) from the same documented draws."""
        ds = mixed_dataset(n=40, seed=3)
        train = np.arange(25)
        pool = build_marginal_pool(ds, train)
        cfg = Hyperparameters(corruption_rate=0.5)
        batch = ds.X[25:35]
        out, draw = corrupt_batch(batch, cfg, pool, np.random.default_rng(11))
        donors = np.random.default_rng(11)
        donors.random((10, ds.M))  # replay the index draw
        donors = donors.integers(0, len(train), size=(10, ds.M))
        expected = batch.copy()
        for i, j in zip(*np.nonzero(draw.features)):
            lo, hi = ds.feature_blocks[j]
            expected[i, lo:hi] = ds.X[train[donors[i, j]], lo:hi]
        np.testing.assert_array_equal(out, expected)

    def test_joint_rows_come_from_one_donor(self):
        ds = make_numeric_dataset(n=30, d=5, seed=4)
        pool = build_marginal_pool(ds, np.arange(20))
        cfg = Hyperparameters(corruption_strategy="joint", corruption_rate=1.0)
        rng = np.random.default_rng(0)
        out, _ = corrupt_batch(ds.X[20:24], cfg, pool, rng)
        train = ds.X[:20]
        for row in out:
            assert any(np.array_equal(row, t) for t in train)

    def test_single_row_donor_shared_across_batch(self):
        ds = make_numeric_dataset(n=30, d=5, seed=5)
        pool = build_marginal_pool(ds, np.arange(20))
        cfg = Hyperparameters(corruption_strategy="marginal", corruption_rate=1.0,
                               donor="single_row")
        rng = np.random.default_rng(0)
        out, _ = corrupt_batch(ds.X[20:26], cfg, pool, rng)
        assert all(np.array_equal(row, out[0]) for row in out)

    @pytest.mark.parametrize("strategy, donor", [
        ("marginal", "per_example"), ("joint", "per_example"), ("marginal", "single_row"),
        ("gaussian", "per_example"),
    ])
    def test_draws_the_mask_then_the_donors(self, strategy, donor):
        """`corrupt_batch` leaves the rng where `select_indices` and then the
        strategy's one donor draw leave a twin, and its mask is the twin's."""
        ds = mixed_dataset(n=40, seed=3)
        pool = build_marginal_pool(ds, np.arange(25))
        cfg = Hyperparameters(corruption_strategy=strategy, donor=donor)
        batch, n = ds.X[25:35], len(pool.rows)
        rng, twin = np.random.default_rng(4), np.random.default_rng(4)
        _, draw = corrupt_batch(batch, cfg, pool, rng)
        np.testing.assert_array_equal(draw.features, select_indices(ds.M, cfg, 10, twin))
        if donor == "single_row":
            twin.integers(0, n)
        elif strategy == "joint":
            twin.integers(0, n, size=10)
        elif strategy == "marginal":
            twin.integers(0, n, size=(10, ds.M))
        else:
            twin.normal(0.0, cfg.gaussian_sigma, size=batch.shape)
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_scale_equivariance_of_marginal_draws(self):
        ds = make_numeric_dataset(n=40, d=3, seed=6)
        scaled = make_numeric_dataset(n=40, d=3, seed=6)
        a = 2.5
        scaled.X[:, 0] *= a
        train = np.arange(30)
        cfg = Hyperparameters(corruption_rate=1.0)
        out1, _ = corrupt_batch(ds.X[30:35], cfg, build_marginal_pool(ds, train),
                                np.random.default_rng(10))
        out2, _ = corrupt_batch(scaled.X[30:35], cfg, build_marginal_pool(scaled, train),
                                np.random.default_rng(10))
        np.testing.assert_array_equal(out2[:, 0], a * out1[:, 0])
        np.testing.assert_array_equal(out2[:, 1:], out1[:, 1:])


class TestMakeViews:
    def test_corrupt_one_view_a_bit_identical(self, rng):
        ds = make_numeric_dataset(n=40, d=5)
        pool = build_marginal_pool(ds, np.arange(30))
        batch = ds.X[:8]
        view_a, view_b, _ = make_views(batch, Hyperparameters(corruption_rate=0.6), pool, rng)
        np.testing.assert_array_equal(view_a, batch)
        assert not np.array_equal(view_b, batch)

    def test_corrupt_one_view_a_is_the_batch_itself(self, rng):
        """view_a used to be a copy of the batch, which the training step's
        stack of the two views then copied again; nothing writes into it."""
        ds = make_numeric_dataset(n=40, d=5)
        pool = build_marginal_pool(ds, np.arange(30))
        batch = ds.X[[3, 1, 4, 1, 5]]
        view_a, _, _ = make_views(batch, Hyperparameters(), pool, rng)
        assert np.shares_memory(view_a, batch)

    def test_strategy_none_both_views_equal_input(self, rng):
        ds = make_numeric_dataset(n=40, d=5)
        pool = build_marginal_pool(ds, np.arange(30))
        batch = ds.X[:8]
        cfg = Hyperparameters(corruption_strategy="none", corruption_rate=0.6)
        view_a, view_b, _ = make_views(batch, cfg, pool, rng)
        np.testing.assert_array_equal(view_a, batch)
        np.testing.assert_array_equal(view_b, batch)

    def test_corrupt_both_views_differ(self, rng):
        ds = make_numeric_dataset(n=60, d=10, seed=7)
        pool = build_marginal_pool(ds, np.arange(40))
        cfg = Hyperparameters(corruption_rate=0.6, view_policy="corrupt_both")
        view_a, view_b, _ = make_views(ds.X[:8], cfg, pool, rng)
        assert not np.array_equal(view_a, view_b)


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("index_selection", ["fixed_count", "bernoulli"])
@pytest.mark.parametrize("index_sharing", ["per_example", "shared_batch"])
@pytest.mark.parametrize("view_policy", ["corrupt_one", "corrupt_both"])
def test_draw_masks_agree(strategy, index_selection, index_sharing, view_policy, rng):
    """The drawn feature mask, its expansion to encoded columns and the
    derived index sets describe the same features, for every corrupted row:
    view_b's 8 under corrupt_one, both views' 16 under corrupt_both."""
    X = np.column_stack([rng.normal(size=(40, 3)), np.eye(3)[rng.integers(0, 3, size=40)]])
    ds = encoded_dataset(X, rng.integers(0, 2, size=40), blocks=[(0, 1), (1, 2), (2, 3), (3, 6)])
    pool = build_marginal_pool(ds, np.arange(30))
    cfg = Hyperparameters(corruption_strategy=strategy, index_selection=index_selection,
                           index_sharing=index_sharing, view_policy=view_policy)
    pool.learnable = rng.normal(size=ds.X.shape[1])
    rows = 8 if view_policy == "corrupt_one" else 16
    for _ in range(5):
        _, _, draw = make_views(ds.X[30:38], cfg, pool, rng)
        assert draw.features.dtype == bool and draw.features.shape == (rows, ds.M)
        assert len(draw.index_sets) == rows
        for row, ix in zip(draw.features, draw.index_sets):
            np.testing.assert_array_equal(ix, np.flatnonzero(row))
        if strategy == "none":
            assert not draw.encoded_mask.any()
        else:
            np.testing.assert_array_equal(draw.encoded_mask, draw.features[:, pool.column_feature])
        if index_selection == "fixed_count":
            np.testing.assert_array_equal(draw.features.sum(axis=1),
                                          int(np.floor(cfg.corruption_rate * ds.M)))


class TestConfigValidation:
    def test_bad_strategy(self):
        with pytest.raises(ConfigurationError):
            Hyperparameters(corruption_strategy="typo")

    def test_bad_rate(self):
        with pytest.raises(ConfigurationError):
            Hyperparameters(corruption_rate=1.5)

    def test_bernoulli_zero_rate_rejected(self):
        # select_indices would redraw the always-empty rows forever
        with pytest.raises(ConfigurationError, match="bernoulli"):
            Hyperparameters(corruption_rate=0.0, index_selection="bernoulli")

    @pytest.mark.parametrize("key, value, kind", [
        ("unique_pool", "no", "bool"),
        ("corruption_rate", True, "float"),
        ("donor", 1, "str"),
        ("noise_rate", True, "float"),
        ("batch_size", 2.5, "int"),
        ("hidden_dim", 8.0, "int"),
        ("learning_rate", "0.1", "float"),
    ])
    def test_field_of_the_wrong_type_rejected(self, key, value, kind):
        """Built directly, these used to pass: "no" deduplicated the pool, True
        read as a rate of 1.0, a float width or batch size failed mid-trial
        and a string learning rate raised a bare TypeError."""
        with pytest.raises(ConfigurationError, match=re.escape(
                f"hyperparameter {key!r} must be of type {kind}, not {value!r}")):
            Hyperparameters(**{key: value})

    def test_unique_pool_samples_deduplicated_values(self):
        ds = make_numeric_dataset(n=20, d=2, seed=8)
        ds = encoded_dataset(np.array([[1.0]] * 19 + [[2.0]]), ds.y)
        pool = build_marginal_pool(ds, np.arange(20))
        cfg = Hyperparameters(corruption_rate=1.0, unique_pool=True)
        rng = np.random.default_rng(0)
        draws = []
        for _ in range(200):
            out, _ = corrupt_batch(ds.X[:1], cfg, pool, rng)
            draws.append(out[0, 0])
        # set interpretation: both values roughly equally likely
        assert 0.3 < np.mean(np.array(draws) == 2.0) < 0.7
