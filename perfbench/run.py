"""Benchmark of the tabpretrain package on three seeded workloads.

    python3 perfbench/run.py --workload scarf_mixed --seed 0 --seconds 50 --trace 0

The package is driven only through its public entry points,
``methods.run_method`` and ``cli.main``, on inputs generated from ``--seed``.
``--trace 0`` reports the end-to-end metrics with two phase timers as the only
wrappers; ``--trace 1`` repeats a shorter trial set untraced and then traced,
and reports per-module self times and counters. The last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics; the lines
before it are a readable report and the environment. Any failed check is named
on stderr and makes the exit code 1. README.md explains the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

# One BLAS thread per process, set before numpy loads: a run then uses one core
# and its speed does not hinge on whether the other core is free.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("scarf_numeric", "scarf_mixed", "cli_control")
DEFAULT_SEED = 0  # README.md names the held-out seed

# Mean wall time of one trial at the commit that added the benchmark (2-core
# x86 machine, one BLAS thread). A run does round(seconds / this) trials, so
# its work is fixed by --seconds: every commit runs the same trials and the
# counters and accuracies stay comparable.
NOMINAL_TRIAL_S = {"scarf_numeric": 7.5, "scarf_mixed": 10.0, "cli_control": 2.8}
MIN_TRIALS = 2
SETUP_REPS = {"scarf_numeric": 9, "scarf_mixed": 9, "cli_control": 5}
IMPORT_REPS = 9
# A gate against broken training, not a quality target: chance is 0.5 and the
# lowest trial seen over the sizing seeds was 0.9675.
ACCURACY_FLOOR = 0.9
METHOD = {"scarf_numeric": "scarf", "scarf_mixed": "scarf", "cli_control": "control"}
SETTING = "semi25"

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_rows_per_s": "rows/s",
    "trial_rows_per_s": "rows/s",
    "test_accuracy": "fraction",
    "peak_rss_mb": "MB",
}
PER_LAYER = [
    "data.load_csv_s", "data.impute_s", "data.one_hot_s", "data.process_csv_s", "data.rows",
    "corruption.make_views_s", "corruption.make_views_calls", "corruption.cells_replaced",
    "corruption.build_marginal_pool_s",
    "training.build_static_validation_s", "training.validation_s", "training.pretrain_scarf_s",
    "training.finetune_s", "training.pretrain_epochs", "training.finetune_epochs",
    "nn.forward_s", "nn.backward_s", "nn.adam_step_s", "nn.forward_rows", "nn.backward_rows",
    "nn.adam_steps",
    "losses.infonce_s", "losses.infonce_calls",
    "methods.run_method_s",
    "stats.append_run_s", "stats.completed_keys_s", "cli.cmd_run_s",
]


def load_package():
    """Import tabpretrain from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "tabpretrain", "__init__.py")):
        raise SystemExit(f"tabpretrain sources not found under {SRC}")
    sys.path.insert(0, SRC)
    import tabpretrain

    if not os.path.abspath(tabpretrain.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"tabpretrain imported from {tabpretrain.__file__}, not {SRC}")


@dataclass
class Trial:
    seconds: float
    accuracy: float
    pretrain_epochs: int
    finetune_epochs: int


class Checks:
    def __init__(self):
        self.failed: list[str] = []

    def require(self, ok: bool, name: str) -> None:
        if not ok:
            self.failed.append(name)
            print(f"CHECK FAILED: {name}", file=sys.stderr)


def median_time(fn, reps):
    """(last result, median seconds) of ``reps`` calls of fn."""
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return result, statistics.median(times)


def import_seconds() -> float:
    """Median time for a fresh interpreter to import the package."""
    code = ("import time; t = time.perf_counter(); import tabpretrain.cli, tabpretrain.methods; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for _ in range(IMPORT_REPS):
        out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
                             capture_output=True, text=True, timeout=60)
        times.append(float(out.stdout.strip()))
    return statistics.median(times)


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": BLAS_ENV,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "machine": platform.machine(),
    }


class Workload:
    """Set-up and trials of one workload; inputs depend on the seed only."""

    def __init__(self, name: str, seed: int, workdir: str):
        self.name, self.seed, self.workdir = name, seed, workdir
        self.dataset_id = {"scarf_numeric": "mixture", "scarf_mixed": "mixed", "cli_control": "cli"}[name]
        self.csv = os.path.join(workdir, f"{self.dataset_id}.csv")
        self.schema = os.path.join(workdir, f"{self.dataset_id}.schema.json")
        self.dataset = None

    def setup(self):
        import workloads
        from tabpretrain.data import Schema, process_csv
        from tabpretrain.methods import derive_seed

        if self.name == "scarf_numeric":
            return workloads.make_mixture(seed=self.seed)
        n, missing = (2000, 0.0) if self.name == "scarf_mixed" else (20000, 0.02)
        workloads.write_table(self.csv, self.schema,
                              *workloads.mixed_table(n, self.seed, missing))
        if self.name == "cli_control":
            return None
        # ingested once; each trial re-splits the encoded rows
        dataset, _ = process_csv(self.csv, Schema.from_file(self.schema),
                                 derive_seed(self.seed, self.dataset_id, 0))
        return dataset

    def library_trials(self, trials: int) -> list[Trial | None]:
        from tabpretrain import methods
        from tabpretrain.data import make_splits

        out = []
        for trial in range(trials):
            splits = make_splits(self.dataset.n, methods.derive_seed(self.seed, self.dataset_id, trial))
            seed = methods.derive_seed(self.seed, self.dataset_id, trial,
                                       salt=f"{METHOD[self.name]}|{SETTING}")
            start = time.perf_counter()
            try:
                res = methods.run_method(METHOD[self.name], self.dataset, splits, SETTING, seed)
            except Exception:
                traceback.print_exc()
                out.append(None)
                continue
            out.append(Trial(time.perf_counter() - start, res["test_accuracy"],
                             res["pretrain_epochs"], res["epochs_used"]))
        return out

    def sweep(self, out_dir: str, trials: int) -> tuple[float, int]:
        """One in-process ``tabpretrain run``: (wall seconds, exit code)."""
        from tabpretrain import cli

        argv = ["run", "--dataset", self.csv, "--schema", self.schema,
                "--method", METHOD[self.name], "--setting", SETTING,
                "--trials", str(trials), "--seed", str(self.seed), "--out", out_dir]
        start = time.perf_counter()
        with contextlib.redirect_stdout(sys.stderr):
            code = cli.main(argv)
        return time.perf_counter() - start, code


def sweep_records(out_dir: str, trials: int, checks: Checks) -> tuple[list[Trial | None], bytes]:
    """Per trial, its results.jsonl record (None when missing) and the file's bytes."""
    path = Path(out_dir, "results.jsonl")
    blob = path.read_bytes() if path.exists() else b""
    records = [json.loads(line) for line in blob.decode().splitlines() if line.strip()]
    indices = [r["trial_index"] for r in records]
    checks.require(sorted(indices) == list(range(trials)),
                   f"results.jsonl holds exactly one record per trial (trials {sorted(indices)})")
    by_trial = {r["trial_index"]: r for r in records}
    out = [Trial(math.nan, r["test_accuracy"], r["pretrain_epochs"], r["epochs_used"])
           if (r := by_trial.get(t)) else None for t in range(trials)]
    return out, blob


def check_accuracies(trials: list[Trial | None], checks: Checks) -> int:
    """Number of failed trials: raised, non-finite accuracy or no record."""
    failed = 0
    for k, t in enumerate(trials):
        if t is None or not math.isfinite(t.accuracy):
            failed += 1
            checks.require(False, f"trial {k} finished with a finite accuracy")
        else:
            checks.require(t.accuracy >= ACCURACY_FLOOR,
                           f"trial {k} accuracy {t.accuracy} >= floor {ACCURACY_FLOOR}")
    return failed


def run_pass(work: Workload, trials: int, tracer, patches, install, checks: Checks, tag: str):
    """Run the workload's trials with the given wrappers installed, remove them
    and check that none is left. Returns (trials, work seconds, results bytes)."""
    install(tracer, patches)
    try:
        if work.name == "cli_control":
            out_dir = os.path.join(work.workdir, f"out_{tag}")
            seconds, code = work.sweep(out_dir, trials)
            results, blob = sweep_records(out_dir, trials, checks)
            # cmd_run returns 0 unless every trial failed, so the records decide
            checks.require(code == 0, f"tabpretrain run exit code 0 ({tag}, got {code})")
            _, resume_code = work.sweep(out_dir, trials)
            after = Path(out_dir, "results.jsonl").read_bytes()
            checks.require(resume_code == 0 and after == blob,
                           f"resumed tabpretrain run skips every finished trial ({tag})")
        else:
            if tag == "traced" and work.name == "scarf_mixed":
                before = work.dataset
                work.dataset = work.setup()
                checks.require(before.X.tobytes() == work.dataset.X.tobytes(),
                               "traced ingestion gives the untraced encoded matrix")
            results = work.library_trials(trials)
            seconds = sum(t.seconds for t in results if t is not None)
            blob = None
    finally:
        patches.restore()
    left = patches.verify_clean()
    checks.require(not left, f"every wrapper removed after the {tag} pass (left: {left})")
    return results, seconds, blob


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.environ.update(BLAS_ENV)
    load_package()
    import spans

    name = args.workload
    trials = max(MIN_TRIALS, round(args.seconds / NOMINAL_TRIAL_S[name]))
    if args.trace:
        trials = max(1, math.ceil(trials / 2))  # run twice: untraced, then traced
    env = environment()
    checks = Checks()

    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".perfbench")) as workdir:
        work = Workload(name, args.seed, workdir)
        import_s = import_seconds()
        work.dataset, setup_body_s = median_time(work.setup, SETUP_REPS[name])

        untraced = spans.Tracer()
        results, work_s, blob = run_pass(work, trials, untraced, spans.Patches(),
                                         spans.install_phase_timers, checks, "untraced")
        failed = check_accuracies(results, checks)
        attempted = trials
        if args.trace:
            traced = spans.Tracer()
            traced_results, traced_s, traced_blob = run_pass(
                work, trials, traced, spans.Patches(), spans.install_trace, checks, "traced")
            failed += check_accuracies(traced_results, checks)
            attempted += trials
            same = [(t.accuracy, t.pretrain_epochs, t.finetune_epochs) if t else None
                    for t in results] == [(t.accuracy, t.pretrain_epochs, t.finetune_epochs)
                                          if t else None for t in traced_results]
            checks.require(same and blob == traced_blob,
                           "traced accuracies and epoch counts equal the untraced ones")

    def median(values):
        return statistics.median(values) if values else math.nan

    def ratio(rows, seconds):
        return rows / seconds if seconds > 0 else math.nan

    # Per trial: rows trained on (rows x epochs) and seconds inside the
    # pretrain_scarf and finetune calls; control trials have no pre-training.
    # The gated rates pool all trials (total rows over total seconds): the
    # host's speed jumps between states every few seconds, and the mean over
    # the whole run is steadier across runs than a median of a few trials.
    fine = untraced.calls["training.finetune"]
    pre = untraced.calls["training.pretrain_scarf"] or [(0.0, 0)] * len(fine)
    trial_rows = [pr + fr for (_, pr), (_, fr) in zip(pre, fine)]
    train_times = [ps + fs for (ps, _), (fs, _) in zip(pre, fine)]
    train_rates = [rows / seconds for rows, seconds in zip(trial_rows, train_times)]
    done = [t.seconds for t in results if t is not None]
    if name == "cli_control":
        # one sweep, whose per-trial ingestion falls outside the training calls
        trial_rate = ratio(sum(trial_rows), work_s)
        trial_s, trial_note = work_s / trials, f"sweep time / {trials} trials"
    else:
        trial_rate = ratio(sum(trial_rows), sum(done))
        trial_s, trial_note = median(done), f"median of {len(done)} trials"
    accuracies = [t.accuracy for t in results if t is not None]

    end_to_end = {
        "setup_s": import_s + setup_body_s,
        "train_rows_per_s": ratio(sum(trial_rows), sum(train_times)),
        "trial_rows_per_s": trial_rate,
        "test_accuracy": statistics.fmean(accuracies) if accuracies else math.nan,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    report = {
        "trial_s": (trial_s, "s", trial_note),
        "sweep_s": (work_s, "s", "tabpretrain run invocation" if name == "cli_control"
                    else f"sum of {trials} run_method trials"),
        "pretrain_rows_per_s": (median([r / s for s, r in untraced.calls["training.pretrain_scarf"]]),
                                "rows/s", "median over pretrain_scarf calls"),
        "finetune_rows_per_s": (median([r / s for s, r in fine]), "rows/s",
                                "median over finetune calls"),
        "failed_trials": (failed / attempted, "fraction", f"{failed} of {attempted} attempted"),
        "import_s": (import_s, "s", f"median of {IMPORT_REPS} fresh interpreters"),
    }

    print(f"workload {name}  seed {args.seed}  trials {trials}  trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    for key, value in end_to_end.items():
        print(f"  {key:24s} {value:14.6g} {END_TO_END_UNITS[key]}")
    for key, (value, unit, note) in report.items():
        print(f"  {key:24s} {value:14.6g} {unit:8s} ({note})")
    print("  accuracies " + " ".join(f"{a:.4f}" for a in accuracies))
    print("  train_rows_per_s by trial " + " ".join(f"{r:.1f}" for r in train_rates))

    if args.trace:
        per_layer = {m: ({"value": traced.self_s[m[:-2]], "unit": "s"} if m.endswith("_s")
                         else {"value": traced.counts[m], "unit": "count"}) for m in PER_LAYER}
        per_layer["trace_overhead"] = {"value": traced_s / work_s - 1.0, "unit": "fraction"}
        for key, metric in per_layer.items():
            print(f"  {key:36s} {metric['value']:14.6g} {metric['unit']}")
        metrics = per_layer
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in end_to_end.items()}

    correct = not checks.failed
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
