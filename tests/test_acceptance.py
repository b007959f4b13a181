"""Acceptance criteria, one test per criterion.

Each test prints a single pass/fail line to the real stdout so the checklist
is visible even under pytest's capture. Criterion 6 needs the banknote
authentication CSV on disk (see BANKNOTE_CSV below) and skips when absent.
"""

import dataclasses
import functools
import json
import os
import sys
import time

import numpy as np
import pytest
import scipy.stats
from _pytest.outcomes import Skipped

from conftest import central_difference, encoded_dataset, scripted_fit, to_float64
from tabpretrain import losses, rundir, stats
from tabpretrain.cli import main as cli_main
from tabpretrain.corruption import build_marginal_pool, corrupt_batch, select_indices
from tabpretrain.data import Schema, corrupt_labels, encode_csv, make_splits
from tabpretrain.methods import TrialFailure, derive_seed, run_benchmark
from tabpretrain.nn import Mlp, mse, softmax_cross_entropy
from tabpretrain.training import (
    Hyperparameters,
    ModelBundle,
    build_static_validation,
    pretrain_scarf,
    _objective,
    _validation_metric,
    contrastive_step,
)

BANKNOTE_CSV = os.environ.get(
    "BANKNOTE_CSV", os.path.join(os.path.dirname(__file__), "data", "banknote.csv")
)


def criterion(num, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except Skipped as exc:
                print(f"[criterion {num}] SKIP: {desc} ({exc.msg})", file=sys.__stdout__)
                raise
            except BaseException:
                print(f"[criterion {num}] FAIL: {desc}", file=sys.__stdout__)
                raise
            print(f"[criterion {num}] PASS: {desc}", file=sys.__stdout__)
        return wrapper
    return deco


def make_mixture(n=2000, d=20, seed=0):
    """Two-class Gaussian mixture with the class signal spread redundantly
    across all features, so feature corruption leaves the class recoverable."""
    rng = np.random.default_rng(seed)
    mu = rng.uniform(0.5, 0.7, size=d) * rng.choice([-1.0, 1.0], size=d)
    y = rng.integers(0, 2, size=n)
    X = np.where(y[:, None] == 1, mu, -mu) + rng.normal(size=(n, d))
    return encoded_dataset(X, y)


def numeric_dataset(rng, n, d):
    X = rng.normal(size=(n, d))
    y = (X[:, 0] > 0).astype(np.int64)
    return encoded_dataset(X, y)


@pytest.fixture(scope="module")
def mixture():
    return make_mixture()


def _trial_accuracies(dataset, settings, methods, out_dir, trials=10, dataset_id="mixture",
                      scaling="none", jobs=1):
    """Test accuracy of each method in trial order, by setting and method,
    from one call of the library's trial loop with base seed 0 into the new
    run directory `out_dir`, whose results file must hold the records the
    loop yielded; the mixture is already on a unit scale, so by default it is
    not rescaled."""
    accs, records = {s: {m: [] for m in methods} for s in settings}, []
    for outcome in run_benchmark({dataset_id: dataset}, methods, settings, trials, 0, out_dir,
                                 Hyperparameters(scaling=scaling), jobs=jobs):
        if isinstance(outcome, TrialFailure):
            raise outcome.error
        records.append(outcome)
        accs[outcome.setting][outcome.method_name].append(outcome.test_accuracy)
    assert len(records) == len(settings) * len(methods) * trials
    assert rundir.load_runs(os.path.join(out_dir, "results.jsonl")) == records
    return accs


@pytest.fixture(scope="module")
def mixture_accuracies(mixture, tmp_path_factory):
    """The accuracies of criteria 5 and 7, from one trial loop over both
    their settings on two threads (a trial's outcome does not depend on the
    settings beside it or on the threads), and the seconds it took. The 40
    records that `report` and a resume would read are the ones scored."""
    start = time.time()
    accs = _trial_accuracies(mixture, ["semi25", "noise30"], ["control", "scarf"],
                             tmp_path_factory.mktemp("mixture"), jobs=2)
    return accs, time.time() - start


def _check_grads(analytic, numeric, rtol=1e-5):
    # relative to the largest gradient in the configuration, so exact-zero
    # arrays (dead relu units) are compared against finite-difference noise
    # at the right scale
    scale = max(max(np.abs(g).max() for g in numeric), 1e-3)
    for a, n in zip(analytic, numeric):
        assert np.abs(a - n).max() <= rtol * scale


@criterion(1, "analytic gradients match finite differences on 50 random configurations")
def test_criterion_1_gradient_checks():
    start = time.time()
    loss_kinds = ["cross_entropy", "mse", "infonce_embed", "binary_logistic",
                  "barlow", "align_uniform"]
    for i in range(50):
        kind = loss_kinds[i % len(loss_kinds)]
        for attempt in range(100):
            rng = np.random.default_rng(1000 + i + 7919 * attempt)
            n = int(rng.integers(3, 6))
            d_in = int(rng.integers(2, 5))
            hidden = int(rng.integers(3, 6))
            x = rng.normal(size=(n, d_in))
            if kind in ("cross_entropy", "mse", "binary_logistic"):
                break
            # embedding losses: at these tiny widths a fully dead relu row
            # gives an exact-zero embedding, where the zero-row normalization
            # convention makes the loss non-differentiable; a near-zero column
            # spread makes the Barlow batch norm numerically unconditioned.
            # Resample until the configuration sits at a differentiable,
            # well-conditioned point (realistic widths never produce either).
            arch = Hyperparameters(hidden_dim=hidden, encoder_layers=2, head_layers=1)
            bundle = to_float64(ModelBundle.create(d_in, 2, rng, arch))
            x2 = rng.normal(size=(n, d_in))
            tau = float(rng.uniform(0.5, 2.0))
            z, zt = bundle.embed(x), bundle.embed(x2)
            g_of_f = bundle.net("scarf").forward
            norms_ok = min(np.linalg.norm(g_of_f(v), axis=1).min() for v in (x, x2)) > 1e-2
            spread_ok = kind != "barlow" or min(z.std(axis=0).min(), zt.std(axis=0).min()) > 5e-2
            if norms_ok and spread_ok:
                break
        else:
            raise AssertionError(f"no well-conditioned configuration found for {kind}")

        if kind in ("cross_entropy", "mse", "binary_logistic"):
            d_out = 1 if kind == "binary_logistic" else int(rng.integers(2, 5))
            net = to_float64(Mlp.create([d_in, hidden, d_out], rng))
            if kind == "cross_entropy":
                target = rng.dirichlet(np.ones(d_out), size=n)
                compute = lambda: softmax_cross_entropy(net.forward(x), target)
            elif kind == "mse":
                target = rng.normal(size=(n, d_out))
                compute = lambda: mse(net.forward(x), target)
            else:
                labels = (rng.random(n) > 0.5).astype(float)
                def compute():
                    loss, grad = losses.binary_logistic(net.forward(x).ravel(), labels)
                    return loss, grad.reshape(-1, 1)
            loss, grad = compute()
            analytic, _ = net.backward(grad)
            numeric = central_difference(lambda: compute()[0], net.parameters())
            _check_grads(analytic, numeric, rtol=1e-5)
        else:
            # losses on the l2-normalized embeddings of two views, using the
            # well-conditioned bundle/x2/tau found above
            def loss_and_grads(z, zt):
                if kind == "infonce_embed":
                    return losses.infonce(z, zt, tau)
                if kind == "barlow":
                    return losses.barlow_twins(z, zt, 5e-3)
                return losses.align_uniform(z, zt, 1.0, 1.0)

            def total():
                return loss_and_grads(bundle.embed(x), bundle.embed(x2))[0]

            # analytic side: both views in one stacked forward/backward pass
            _, analytic, _ = contrastive_step(bundle.net("scarf"), x, x2, loss_and_grads)
            params = bundle.f.parameters() + bundle.heads["g"].parameters()
            numeric = central_difference(total, params)
            _check_grads(analytic, numeric, rtol=1e-5)
    assert time.time() - start < 60.0


@criterion(2, "contrastive loss matches the per-element oracle and closed forms")
def test_criterion_2_infonce_oracle():
    def naive(s, tau):
        n = s.shape[0]
        total = 0.0
        for i in range(n):
            denom = sum(np.exp(s[i, k] / tau) for k in range(n)) / n
            total += -np.log(np.exp(s[i, i] / tau) / denom)
        return total / n

    for n in range(2, 9):
        for tau in (0.5, 1.0, 2.0):
            rng = np.random.default_rng(n * 31 + int(tau * 10))
            s = rng.uniform(-1, 1, size=(n, n))
            # s @ I.T reproduces s exactly
            loss = losses.infonce(s, np.eye(n), tau)[0]
            assert abs(loss - naive(s, tau)) < 1e-10

    loss = losses.infonce(np.eye(2), np.eye(2), 1.0)[0]
    assert abs(loss - (-0.3799)) < 1e-4

    rng = np.random.default_rng(0)
    for n in (2, 5, 8):
        s = rng.uniform(-1, 1, size=(n, n))
        loss = losses.infonce(s, np.eye(n), 1.0)[0]
        # standard softmax cross-entropy on the diagonal, no 1/N factor
        standard = float(np.mean(
            [-s[i, i] + np.log(np.exp(s[i]).sum()) for i in range(n)]
        ))
        assert abs((loss - standard) - (-np.log(n))) < 1e-12


@criterion(3, "corruption invariants hold over 10^4 randomized batches")
def test_criterion_3_corruption_properties():
    start = time.time()
    rng = np.random.default_rng(42)
    datasets = [numeric_dataset(rng, 30, d) for d in (2, 4, 6, 8)]
    pools = [build_marginal_pool(ds, np.arange(20)) for ds in datasets]
    for _ in range(10_000):
        k = int(rng.integers(len(datasets)))
        ds, pool = datasets[k], pools[k]
        n_rows = int(rng.integers(2, 9))
        batch = ds.X[rng.integers(0, ds.n, size=n_rows)]
        c = float(rng.uniform(0.0, 1.0))
        cfg = Hyperparameters(corruption_rate=c)
        out, draw = corrupt_batch(batch, cfg, pool, rng)
        q = int(np.floor(c * ds.M))
        assert (draw.features.sum(axis=1) == q).all()
        np.testing.assert_array_equal(out[~draw.encoded_mask], batch[~draw.encoded_mask])
        for i in range(n_rows):
            for j in np.flatnonzero(draw.features[i]):
                assert out[i, j] in ds.X[:20, j]
        if q == 0:
            np.testing.assert_array_equal(out, batch)
        bern = select_indices(
            ds.M, dataclasses.replace(cfg, index_selection="bernoulli", corruption_rate=0.05),
            n_rows, rng)
        assert bern.any(axis=1).all()
    assert time.time() - start < 60.0


@criterion(4, "Welch p-values and win matrices match independent references")
def test_criterion_4_welch_win_matrix_oracle():
    rng = np.random.default_rng(4)
    for _ in range(1000):
        na, nb = rng.integers(2, 40, size=2)
        a = rng.normal(rng.uniform(-1, 1), rng.uniform(0.3, 2.0), size=na)
        b = rng.normal(rng.uniform(-1, 1), rng.uniform(0.3, 2.0), size=nb)
        _, p_ref = scipy.stats.ttest_ind(a, b, equal_var=False)
        _, _, p = stats.welch_t_test(a, b)
        assert abs(p - p_ref) < 1e-6

    t, df, p = stats.welch_t_test([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
    assert abs(t - (-3.674)) < 1e-3 and abs(df - 4.0) < 1e-9 and abs(p - 0.021) < 1e-3

    # brute-force enumeration on a synthetic table, including 0/1 cells
    runs = []
    table = {
        ("A", "d1"): [0.90, 0.91, 0.92], ("B", "d1"): [0.50, 0.51, 0.52],
        ("A", "d2"): [0.70, 0.80, 0.90], ("B", "d2"): [0.71, 0.79, 0.90],
    }
    for (m, d), accs in table.items():
        for t_idx, acc in enumerate(accs):
            runs.append(rundir.MethodRun(d, m, t_idx, 0, "full", acc))
    wm = stats.win_matrix(runs, ["A", "B"], p=0.05)
    for i, mi in enumerate(["A", "B"]):
        for j, mj in enumerate(["A", "B"]):
            if i == j:
                continue
            w = l = 0
            for d in ("d1", "d2"):
                _, p_val = scipy.stats.ttest_ind(table[(mi, d)], table[(mj, d)], equal_var=False)
                if p_val < 0.05:
                    if np.mean(table[(mi, d)]) > np.mean(table[(mj, d)]):
                        w += 1
                    else:
                        l += 1
            assert wm.wins[i, j] == w and wm.wins[j, i] == l
    # B decided one dataset and won none of them: the 0/1 semantics
    assert wm.cell_text(1, 0) == "0/1"
    assert wm.ratio(1, 0) == 0.0
    assert wm.min_ratio_column()[1] == 0.0


@pytest.mark.slow
@criterion(5, "pre-training matches or beats the supervised control with 25% labels")
def test_criterion_5_semi_supervised_gain(mixture_accuracies):
    accs, seconds = mixture_accuracies
    control, scarf = accs["semi25"]["control"], accs["semi25"]["scarf"]
    assert np.mean(scarf) >= np.mean(control), (np.mean(scarf), np.mean(control))
    assert stats.compare(control, scarf, 0.05) != "win"
    assert seconds < 15 * 60


@criterion(6, "banknote spot reproduction: control >= 98.5, pre-trained >= 99.0")
def test_criterion_6_banknote(tmp_path):
    if not os.path.exists(BANKNOTE_CSV):
        pytest.skip(
            f"banknote CSV not found at {BANKNOTE_CSV}; download OpenML dataset "
            "1462 as CSV and point BANKNOTE_CSV at it to enable this check"
        )
    start = time.time()
    with open(BANKNOTE_CSV) as fh:
        header = fh.readline().strip().split(",")
    kinds = ["numerical"] * (len(header) - 1) + ["label"]
    schema = Schema([h.strip('"') for h in header], kinds)
    accs = _trial_accuracies(encode_csv(BANKNOTE_CSV, schema), ["full"], ["control", "scarf"],
                             tmp_path, dataset_id="banknote", scaling="zscore")["full"]
    assert np.mean(accs["control"]) >= 0.985, np.mean(accs["control"])
    assert np.mean(accs["scarf"]) >= 0.990, np.mean(accs["scarf"])
    assert time.time() - start < 30 * 60


@pytest.mark.slow
@criterion(7, "pre-training stays within 0.5 points of control under 30% label noise")
def test_criterion_7_label_noise(mixture, mixture_accuracies):
    accs, seconds = mixture_accuracies
    accs = accs["noise30"]
    assert np.mean(accs["scarf"]) >= np.mean(accs["control"]) - 0.005, (
        np.mean(accs["scarf"]), np.mean(accs["control"])
    )
    # exactly round(0.3 * n_train) labels are redrawn: sentinel labels outside
    # the class range make every redraw observable
    n_train = len(make_splits(mixture.n, 0).train)
    sentinel = np.full(n_train, -1, dtype=int)
    redrawn = corrupt_labels(sentinel, 0.3, 2, np.random.default_rng(0))
    assert (redrawn != sentinel).sum() == round(0.3 * n_train)
    assert seconds < 15 * 60


@criterion(8, "early stopping fires at patience-3 positions and restores the best weights")
def test_criterion_8_early_stopping(mixture):
    # constructed sequences, each with one value after its expected stop
    for metrics, stop, best_epoch in (([5.0, 4.0, 4.0, 4.0, 4.0, 3.0], 5, 2),
                                      ([5.0, 6.0, 6.0, 4.0, 4.0, 4.0, 4.0, 3.0], 7, 4)):
        out = scripted_fit(metrics, patience=3)
        assert out.epochs_used == stop and out.stop_reason == "patience"
        assert out.best_epoch == best_epoch

    # live run on the criterion-5 data
    splits = make_splits(mixture.n, derive_seed(0, "mixture", 0))
    bundle = ModelBundle.create(mixture.X.shape[1], 2, np.random.default_rng(1),
                                Hyperparameters(hidden_dim=64, encoder_layers=2, head_layers=1))
    cfg = Hyperparameters(pretrain_max_epochs=1000)
    out = pretrain_scarf(mixture, splits, bundle, cfg, np.random.default_rng(2))
    assert out.epochs_used < 1000 and out.stop_reason == "patience"
    assert out.val_curve[out.best_epoch - 1] == min(out.val_curve)
    pool = build_marginal_pool(mixture, splits.train)
    rng = np.random.default_rng(2)
    pairs = build_static_validation(
        mixture.X[splits.validation],
        _objective("scarf", bundle.net("scarf"), cfg, pool, rng)[0],
        rng, cfg.val_build_epochs, cfg.batch_size)
    restored = _validation_metric(bundle, pairs, cfg, "scarf")
    assert abs(restored - out.val_curve[out.best_epoch - 1]) < 1e-12


@criterion(9, "repeated cmd_run with one seed yields byte-identical results records")
def test_criterion_9_determinism(tmp_path):
    rng = np.random.default_rng(0)
    rows = ["f1,f2,target"]
    for _ in range(60):
        x1, x2 = rng.normal(size=2)
        rows.append(f"{x1:.5f},{x2:.5f},{'pos' if x1 + x2 > 0 else 'neg'}")
    csv = tmp_path / "toy.csv"
    csv.write_text("\n".join(rows) + "\n")
    schema = tmp_path / "toy.schema.json"
    schema.write_text(json.dumps({"f1": "numerical", "f2": "numerical", "target": "label"}))
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "trials": 2, "seed": 0, "batch_size": 16, "hidden_dim": 8,
        "pretrain_max_epochs": 3, "finetune_max_epochs": 3, "val_build_epochs": 2,
    }))
    blobs = []
    for name in ("out_a", "out_b"):
        out = tmp_path / name
        code = cli_main(["run", "--config", str(cfg), "--dataset", str(csv),
                         "--schema", str(schema), "--method", "scarf", "--out", str(out)])
        assert code == 0
        blobs.append((out / "results.jsonl").read_bytes())
    assert blobs[0] == blobs[1]
