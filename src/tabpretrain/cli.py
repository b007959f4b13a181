"""Batch command-line front end.

Commands:
  validate  dry-run ingestion + preprocessing, print a dataset report
  run       execute one (dataset, method, setting) across trials
  report    win-matrix / box-plot CSV exports and an optional SVG heat map; it
            prints how many non-finite accuracies it left out

Configuration is a flat JSON object; every key can also be given as a flag,
and flags override file values. Documented keys (defaults in parentheses):
dataset, schema, method (control), setting (full), trials (30), seed (0),
out (results), jobs (1), scaling (zscore), corruption_strategy (marginal),
corruption_rate (0.6), temperature (1.0), batch_size (128),
learning_rate (0.001), pretrain_max_epochs (1000), finetune_max_epochs (200),
patience (3), val_build_epochs (10), label_smoothing (0.1), dropout (0.04),
mixup_alpha (0.2), cotrain_weight (0.1), self_train_threshold (0.75),
self_train_iterations (10), hidden_dim (256), noise_rate (0.3),
labeled_fraction (0.25).

`run` hands `methods.run_benchmark` a loader that encodes the CSV once, and
only if a trial is left to run; each trial scales on its own training rows.
With jobs > 1 that many trials run at once in threads; records and curves
files are still written in trial order, so the output is byte-identical for
any jobs. A trial that raises is reported on stderr and in failures.jsonl,
leaves no record and reruns on resume.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import xml.dom.minidom
from collections import Counter

from tabpretrain import methods, stats
from tabpretrain.corruption import CorruptionConfig
from tabpretrain.data import (
    IngestionError,
    Schema,
    drop_empty_columns,
    encode_csv,
    impute,
    load_csv,
    one_hot,
)

CONFIG_DEFAULTS = {
    "method": "control",
    "setting": "full",
    "trials": 30,
    "seed": 0,
    "out": "results",
    "jobs": 1,
    "scaling": "zscore",
    "corruption_strategy": "marginal",
    "corruption_rate": 0.6,
    "index_selection": "fixed_count",
    "view_policy": "corrupt_one",
    "index_sharing": "per_example",
    "donor": "per_example",
    "gaussian_sigma": 0.5,
    "temperature": 1.0,
    "batch_size": 128,
    "learning_rate": 0.001,
    "pretrain_max_epochs": 1000,
    "finetune_max_epochs": 200,
    "patience": 3,
    "val_build_epochs": 10,
    "pretrain_loss": "infonce",
    "validation_metric": "infonce_loss",
    "label_smoothing": 0.1,
    "dropout": 0.04,
    "mixup_alpha": 0.2,
    "cotrain_weight": 0.1,
    "self_train_threshold": 0.75,
    "self_train_iterations": 10,
    "hidden_dim": 256,
    "noise_rate": 0.3,
    "labeled_fraction": 0.25,
}


def _load_config(args) -> dict:
    cfg = dict(CONFIG_DEFAULTS)
    if getattr(args, "config", None):
        with open(args.config) as fh:
            file_cfg = json.load(fh)
        unknown = set(file_cfg) - set(CONFIG_DEFAULTS) - {"dataset", "schema"}
        if unknown:
            raise SystemExit(f"unknown config key(s): {sorted(unknown)}")
        cfg.update(file_cfg)
    for key in cfg:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    for key in ("dataset", "schema"):
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    return cfg


def _hyperparameters(cfg: dict) -> dict:
    corruption = CorruptionConfig(
        strategy=cfg["corruption_strategy"],
        rate=cfg["corruption_rate"],
        index_selection=cfg["index_selection"],
        view_policy=cfg["view_policy"],
        index_sharing=cfg["index_sharing"],
        donor=cfg["donor"],
        gaussian_sigma=cfg["gaussian_sigma"],
    )
    return {
        "corruption": corruption,
        "temperature": cfg["temperature"],
        "pretrain_batch_size": cfg["batch_size"],
        "finetune_batch_size": cfg["batch_size"],
        "learning_rate": cfg["learning_rate"],
        "pretrain_max_epochs": cfg["pretrain_max_epochs"],
        "finetune_max_epochs": cfg["finetune_max_epochs"],
        "patience": cfg["patience"],
        "val_build_epochs": cfg["val_build_epochs"],
        "pretrain_loss": cfg["pretrain_loss"],
        "validation_metric": cfg["validation_metric"],
        "label_smoothing": cfg["label_smoothing"],
        "dropout": cfg["dropout"],
        "mixup_alpha": cfg["mixup_alpha"],
        "cotrain_weight": cfg["cotrain_weight"],
        "self_train_threshold": cfg["self_train_threshold"],
        "self_train_iterations": cfg["self_train_iterations"],
        "hidden_dim": cfg["hidden_dim"],
        "noise_rate": cfg["noise_rate"],
        "labeled_fraction": cfg["labeled_fraction"],
    }


def cmd_validate(args) -> int:
    cfg = _load_config(args)
    try:
        schema = Schema.from_file(cfg["schema"])
        table = load_csv(cfg["dataset"], schema)
    except (IngestionError, FileNotFoundError, KeyError) as exc:
        print(f"validation failed: {exc}", file=sys.stderr)
        return 1
    kept = drop_empty_columns(table)
    dropped = sorted(set(table.names) - set(kept.names))
    missing_counts = {
        name: sum(1 for c in col if c is None)
        for name, col in zip(kept.names, kept.columns)
    }
    dataset = one_hot(impute(kept))
    print(f"rows: {kept.n_rows}")
    print(f"raw features: {dataset.M} (encoded width {dataset.X.shape[1]})")
    if dropped:
        print(f"dropped all-missing columns: {', '.join(dropped)}")
    for name, kind in zip(kept.names, kept.kinds):
        extra = f", {missing_counts[name]} missing" if missing_counts[name] else ""
        print(f"  {name}: {kind}{extra}")
    balance = Counter(dataset.y.tolist())
    pretty = ", ".join(f"{dataset.classes[k]}: {v}" for k, v in sorted(balance.items()))
    print(f"classes ({dataset.num_classes}): {pretty}")
    return 0


def _dataset_id(path: str) -> str:
    return os.path.splitext(os.path.basename(path))[0]


def cmd_run(args) -> int:
    cfg = _load_config(args)
    os.makedirs(cfg["out"], exist_ok=True)
    with open(os.path.join(cfg["out"], "config.json"), "w") as fh:
        json.dump(cfg, fh, indent=2, sort_keys=True)

    attempted = failed = 0
    try:
        hp = _hyperparameters(cfg)
        schema = Schema.from_file(cfg["schema"])
        for outcome in methods.run_benchmark(
            {_dataset_id(cfg["dataset"]): lambda: encode_csv(cfg["dataset"], schema)},
            [cfg["method"]], [cfg["setting"]],
            int(cfg["trials"]), int(cfg["seed"]), cfg["out"], hp, cfg["scaling"], int(cfg["jobs"]),
        ):
            attempted += 1
            if isinstance(outcome, methods.TrialFailure):
                failed += 1
                print(f"trial {outcome.trial_index} failed: {outcome.error}", file=sys.stderr)
            else:
                print(f"trial {outcome.trial_index}: test_accuracy={outcome.test_accuracy:.4f}")
    except (ValueError, OSError) as exc:  # configuration, schema or CSV errors
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    if attempted and failed == attempted:
        print("all trials failed", file=sys.stderr)
        return 1
    return 0


def cmd_report(args) -> int:
    runs = stats.load_runs(args.results)
    if not runs:
        print(f"no results in {args.results}", file=sys.stderr)
        return 1
    method_list = args.methods.split(",")
    present = {r.method_name for r in runs}
    unknown = [m for m in method_list if m not in present]
    if unknown:
        print(f"no results for method(s): {', '.join(unknown)}", file=sys.stderr)
        return 1
    setting = args.setting
    out_dir = args.out
    os.makedirs(out_dir, exist_ok=True)
    wm = stats.win_matrix(runs, method_list, p=args.p_value, setting=setting)
    with open(os.path.join(out_dir, "win_matrix.csv"), "w") as fh:
        fh.write(stats.win_matrix_csv(wm))
    if args.reference:
        entries = []
        for m in method_list:
            if m != args.reference:
                entries.extend(
                    stats.relative_improvement(runs, m, args.reference,
                                               p=args.boxplot_p_value, setting=setting)
                )
        with open(os.path.join(out_dir, "box_plot.csv"), "w") as fh:
            fh.write(stats.box_plot_csv(entries))
    if args.svg:
        svg = stats.win_matrix_svg(wm)
        xml.dom.minidom.parseString(svg)  # well-formedness check
        with open(os.path.join(out_dir, "win_matrix.svg"), "w") as fh:
            fh.write(svg)
    left_out = sum(1 for r in runs if r.method_name in method_list
                   and setting in (None, r.setting) and not math.isfinite(r.test_accuracy))
    print(f"non-finite accuracies left out: {left_out}")
    print(f"report written to {out_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tabpretrain")
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="check a dataset + schema pair")
    p_val.add_argument("--config")
    p_val.add_argument("--dataset")
    p_val.add_argument("--schema")
    p_val.set_defaults(func=cmd_validate)

    p_run = sub.add_parser("run", help="run one (dataset, method, setting) sweep")
    p_run.add_argument("--config")
    p_run.add_argument("--dataset")
    p_run.add_argument("--schema")
    p_run.add_argument("--method")
    p_run.add_argument("--setting", choices=methods.SETTINGS)
    p_run.add_argument("--trials", type=int)
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--jobs", type=int)
    p_run.add_argument("--out")
    p_run.set_defaults(func=cmd_run)

    p_rep = sub.add_parser("report", help="win matrix and box-plot exports")
    p_rep.add_argument("--results", required=True)
    p_rep.add_argument("--methods", required=True, help="comma-separated method names")
    p_rep.add_argument("--reference", help="reference method for relative improvement")
    p_rep.add_argument("--setting")
    p_rep.add_argument("--p-value", type=float, default=0.05)
    p_rep.add_argument("--boxplot-p-value", type=float, default=0.20)
    p_rep.add_argument("--svg", action="store_true", help="emit an SVG heat map")
    p_rep.add_argument("--out", default="report")
    p_rep.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
