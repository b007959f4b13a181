"""Batch command-line front end.

Commands:
  validate  dry-run ingestion + preprocessing, print a dataset report
  run       execute one (dataset, method, setting) across trials
  report    win-matrix / box-plot CSV exports and an optional SVG heat map of
            one `--setting`

Configuration is a flat JSON object of the keys of CONFIG_DEFAULTS, which
holds their defaults: the run keys of RUN_DEFAULTS (dataset, schema, method,
setting, trials, seed, out, jobs) and every field of `training.Hyperparameters`,
the one declaration of the trial hyperparameters, `scaling` among them.
Every key is also a `run` flag (`tabpretrain run --help` lists them), and
flags override file values. A value must be of its default's type, by the
rule of `corruption.check_type`, and an empty string counts as not given, so
`dataset` and `schema`, whose default is "", must be set.

`run` hands `methods.run_benchmark` a loader that encodes the CSV once, and
only if a trial is left to run; each trial scales on its own training rows.
`run_benchmark` pins in `out` the seed, the results version of the program,
the hyperparameters (the scaling among them) and a digest of the encoded
table it loads: a resume whose values differ fails and names them. A resume
with no trial left reads no data, so it checks only the first three.
`config.json` is written whole, only once `run_benchmark` has accepted the
configuration and loaded the data, so a rejected run leaves it as it was.
With jobs > 1 that many trials run at once in threads; records and curves
files are still written in trial order, so the output is byte-identical for
any jobs. A trial that raises, or whose record `stats.MethodRun` refuses
(such as a non-finite accuracy), is reported on stderr and in
failures.jsonl, leaves no record and reruns on resume. A results line that
`data.parse_json_object` (the JSON rule of the pin, schema and config files)
or `MethodRun` refuses fails `report` and a `run` resume, naming the line.

The commands raise on bad input. `main` is the one handler: a ValueError or
an OSError prints `validation failed: …`, `run failed: …` or
`report failed: …` and returns 1, and any other exception propagates.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from dataclasses import asdict, fields

from tabpretrain import methods, stats
from tabpretrain.corruption import check_type
from tabpretrain.data import (Schema, encode_csv, impute, load_csv, one_hot, read_json_object,
                              write_json_object)
from tabpretrain.training import Hyperparameters

RUN_DEFAULTS = {
    "dataset": "",
    "schema": "",
    "method": "control",
    "setting": "full",
    "trials": 30,
    "seed": 0,
    "out": "results",
    "jobs": 1,
}
CONFIG_DEFAULTS = {**RUN_DEFAULTS, **asdict(Hyperparameters())}


def _load_config(args) -> dict:
    """CONFIG_DEFAULTS, overridden by the config file, overridden by flags.
    A config file that `read_json_object` refuses or that has an unknown key,
    a run key whose value is not of its default's type or is empty (as
    `dataset` and `schema` are by default), raise ValueError; building
    `Hyperparameters` checks the hyperparameters."""
    cfg = dict(CONFIG_DEFAULTS)
    if getattr(args, "config", None):
        file_cfg = read_json_object(args.config, "config")
        unknown = set(file_cfg) - set(CONFIG_DEFAULTS)
        if unknown:
            raise ValueError(f"unknown config key(s): {sorted(unknown)}")
        cfg.update(file_cfg)
    for key in cfg:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    for key, default in RUN_DEFAULTS.items():
        check_type("config key", key, cfg[key], default)
        if cfg[key] == "":
            raise ValueError(f"no {key} given: set --{key} or the config key {key!r}")
    return cfg


def cmd_validate(args) -> int:
    cfg = _load_config(args)
    schema = Schema.from_file(cfg["schema"])
    table = load_csv(cfg["dataset"], schema)
    kept = impute(table)
    dataset = one_hot(kept)
    dropped = sorted(set(table.names) - set(kept.names))
    missing_counts = {name: int(table.gaps(j).sum()) for j, name in enumerate(table.names)}
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
    attempted = failed = 0
    cfg = _load_config(args)
    hp = Hyperparameters(**{f.name: cfg[f.name] for f in fields(Hyperparameters)})
    schema = Schema.from_file(cfg["schema"])
    outcomes = methods.run_benchmark(
        {_dataset_id(cfg["dataset"]): lambda: encode_csv(cfg["dataset"], schema)},
        [cfg["method"]], [cfg["setting"]], cfg["trials"], cfg["seed"], cfg["out"], hp,
        cfg["jobs"],
    )
    write_json_object(os.path.join(cfg["out"], "config.json"), cfg, sort_keys=True)
    for outcome in outcomes:
        attempted += 1
        if isinstance(outcome, methods.TrialFailure):
            failed += 1
            print(f"trial {outcome.trial_index} failed: {outcome.error}", file=sys.stderr)
        else:
            print(f"trial {outcome.trial_index}: test_accuracy={outcome.test_accuracy:.4f}")
    if attempted and failed == attempted:
        print("all trials failed", file=sys.stderr)
        return 1
    return 0


def cmd_report(args) -> int:
    """Score the records of `--setting`, or all records if they hold one
    setting. Every method of `--methods` and `--reference` must have records
    there, and none may be empty or named twice in `--methods`."""
    method_list = args.methods.split(",")
    if "" in method_list:
        raise ValueError(f"--methods {args.methods!r} names an empty method")
    wanted = method_list + [args.reference] if args.reference else method_list
    for flag, p in (("--p-value", args.p_value), ("--boxplot-p-value", args.boxplot_p_value)):
        if not 0 < p <= 1:  # false for NaN, which would count every pair as significant
            raise ValueError(f"{flag} must be in (0, 1], got {p!r}")
    repeated = sorted(m for m, count in Counter(method_list).items() if count > 1)
    if repeated:
        raise ValueError(f"method(s) named more than once: {repeated}")
    runs = stats.load_runs(args.results)
    if not runs:
        print(f"no results in {args.results}", file=sys.stderr)
        return 1
    setting = args.setting
    held = sorted({r.setting for r in runs if r.method_name in wanted})
    if setting is None and len(held) > 1:  # one Welch sample must not pool settings
        raise ValueError(f"results hold settings {held}; choose one with --setting")
    runs = [r for r in runs if setting in (None, r.setting)]
    present = {r.method_name for r in runs}
    unknown = [m for m in dict.fromkeys(wanted) if m not in present]
    if unknown:
        where = f" in setting {setting!r}" if setting is not None else ""
        print(f"no results for method(s): {', '.join(unknown)}{where}", file=sys.stderr)
        return 1
    wm = stats.win_matrix(runs, method_list, args.p_value)
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "win_matrix.csv"), "w") as fh:
        fh.write(stats.win_matrix_csv(wm))
    if args.reference:
        entries = [e for m in method_list if m != args.reference
                   for e in stats.relative_improvement(runs, m, args.reference,
                                                       args.boxplot_p_value)]
        with open(os.path.join(args.out, "box_plot.csv"), "w") as fh:
            fh.write(stats.box_plot_csv(entries))
    if args.svg:
        import xml.dom.minidom

        svg = stats.win_matrix_svg(wm)
        xml.dom.minidom.parseString(svg)  # well-formedness check
        with open(os.path.join(args.out, "win_matrix.svg"), "w") as fh:
            fh.write(svg)
    print(f"report written to {args.out}")
    return 0


def _boolean(text: str) -> bool:
    if text not in ("true", "false"):
        raise argparse.ArgumentTypeError(f"expected true or false, not {text!r}")
    return text == "true"


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
    for key, default in CONFIG_DEFAULTS.items():
        p_run.add_argument(f"--{key}", type=_boolean if isinstance(default, bool) else type(default),
                           choices=methods.SETTINGS if key == "setting" else None,
                           help=f"(default: {json.dumps(default)})")
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
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # bad input or configuration, or an unwritable path
        command = "validation" if args.command == "validate" else args.command
        print(f"{command} failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
