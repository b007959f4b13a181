"""The run directory of `methods.run_benchmark`, and its file formats.

This module alone reads and writes these files of an `out_dir`:

- `pin.json`, what decides the records (see `RunDir`), written whole by
  `write_json_object`, as `tabpretrain run` writes `config.json`;
- `results.jsonl`, one `MethodRun` per line, appended by `append_run` and
  read by `load_runs`;
- `trace.jsonl`, one line per attempted trial, appended by `RunDir.record`:
  its key, and either the exception and its traceback or each phase's curves,
  stop reason and best epoch.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import math
import os
import traceback
import warnings
from contextlib import ExitStack
from dataclasses import asdict, dataclass
from typing import get_type_hints

import numpy as np

from tabpretrain.corruption import check_type
from tabpretrain.data import ProcessedDataset, parse_json_object, read_json_object


@dataclass
class MethodRun:
    """One trial's results record, valid by construction: building one
    raises ValueError if a field is not of its declared type, by the rule of
    `corruption.check_type`, or holds a value that no trial produces: a
    `test_accuracy` that is not finite or lies outside [0, 1] (a fraction
    of the test rows, not a percentage), or a negative `trial_index`,
    `epochs_used` or `pretrain_epochs`. The `seed` may be any int."""

    dataset_id: str
    method_name: str
    trial_index: int
    seed: int
    setting: str  # full | noise30 | semi25
    test_accuracy: float
    epochs_used: int = 0
    pretrain_epochs: int = 0

    def __post_init__(self):
        for name, default in _FIELD_DEFAULTS.items():
            check_type("field", name, getattr(self, name), default)
        if not math.isfinite(self.test_accuracy):
            raise ValueError(f"non-finite test_accuracy {self.test_accuracy} for {self.key()}")
        if not 0 <= self.test_accuracy <= 1:
            raise ValueError(f"test_accuracy {self.test_accuracy} outside [0, 1] for {self.key()}")
        for name in ("trial_index", "epochs_used", "pretrain_epochs"):
            if getattr(self, name) < 0:
                raise ValueError(f"negative {name} {getattr(self, name)} for {self.key()}")

    def key(self) -> tuple:
        return (self.dataset_id, self.method_name, self.setting, self.trial_index)


# a value of each field's declared type, which `check_type` compares against
_FIELD_DEFAULTS = {name: kind() for name, kind in get_type_hints(MethodRun).items()}


def append_line(path, line: str) -> None:
    """Append `line` and its newline to the line-delimited file `path`. A
    line counts once its newline is written: an unterminated tail left by a
    torn write is cut off first, so the new line starts on a fresh line."""
    with open(path, "ab+") as fh:
        end = fh.seek(0, os.SEEK_END)
        if end:
            fh.seek(end - 1)
            if fh.read(1) != b"\n":
                fh.seek(0)
                fh.truncate(fh.read().rfind(b"\n") + 1)
        fh.write((line + "\n").encode())


def append_run(path, run: MethodRun) -> None:
    """Append one record as a JSON line by `append_line`. A `MethodRun`
    holds a finite accuracy, so the line never holds a bare NaN, which is not
    valid JSON."""
    append_line(path, json.dumps(asdict(run), sort_keys=True))


def load_runs(path) -> list[MethodRun]:
    """Records of a results file, read as UTF-8. An unterminated last line is
    a torn write: it is dropped with a warning, so its trial counts as not yet
    run. Each other line is parsed by `data.parse_json_object`, the rule of
    the pin, schema and config files, and its dict builds a `MethodRun`. A
    file that is not UTF-8, a line that the parse refuses (not JSON, not an
    object, a key named twice at any depth, nested past the recursion
    limit) or that `MethodRun` refuses (not its fields, a field not of its
    type or range), and a key recorded twice raise ValueError naming the
    file and the line, so one trial never counts twice and a failed or
    malformed one never counts as done."""
    if not os.path.exists(path):
        return []
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not a UTF-8 results file ({exc})") from exc
    if lines and not lines[-1].endswith("\n"):
        warnings.warn(f"{path}: dropping unterminated last line {lines.pop()[:80]!r}")
    runs, line_of = [], {}
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            run = MethodRun(**parse_json_object(line, "results line"))
        except (ValueError, TypeError) as exc:  # no JSON object, or no record `MethodRun` accepts
            raise ValueError(f"{path}, line {number}: not a results record ({exc})") from exc
        if (first := line_of.setdefault(run.key(), number)) != number:
            raise ValueError(f"{path}, lines {first} and {number}: key {run.key()} recorded twice")
        runs.append(run)
    return runs


def completed_keys(path) -> set[tuple]:
    return {r.key() for r in load_runs(path)}


def write_json_object(path, value: dict) -> None:
    """Write `value` to `path` as indented JSON with sorted keys, whole or
    not at all: the dump goes to a temporary file of this call's own beside
    `path`, created new under a random name with the mode that the umask
    leaves of 0666, as `open` creates a file, which then replaces `path`. So
    two writers never share a file, a reader sees one writer's whole file,
    and `path` gets the mode of the run directory's other files; a failed
    dump removes its temporary file and leaves `path` as it was."""
    tmp = f"{os.path.abspath(path)}.{os.urandom(8).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(value, fh, indent=2, sort_keys=True)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


class RunDir:
    """The run directory `out_dir` of one `run_benchmark` call, opened on
    the `pin` of what decides its records: `seed`, `results_version`, each
    field of the hyperparameters as a top-level key and, under
    `data_digest`, an empty dict that opening fills with the pinned digests
    by dataset id. A pin of another results version, or of none, is refused
    like any other difference; the methods, settings, trials and jobs stay
    free.

    One call at a time writes to `out_dir`: opening takes an exclusive
    advisory `flock` on the directory itself if it exists, before it reads
    anything there, and `pin_data` takes it on a missing one as soon as it
    creates it; `close` unlocks. A call that finds the lock taken raises
    ValueError naming `out_dir` before it reads or writes anything there; so
    does one that created `out_dir` and then finds a pin or a results file
    that another call wrote meanwhile. Opening then reads the pin and
    refuses one that differs, and reads the completed keys into `done`, all
    before anything is written; if it raises, it unlocks.

    `pin_data` takes the loaded datasets: it pins the `_data_digest` of
    each by dataset id, refusing one that differs from the pin (a new id
    adds its own), creates a missing `out_dir` and writes the pin, whole and
    with sorted keys, once it differs from the file; a pin written with
    other key order compares equal and is kept. `record` writes one trial's
    outcome."""

    def __init__(self, out_dir, pin: dict):
        self.out_dir, self.pin = out_dir, pin
        self._pin_path = os.path.join(out_dir, "pin.json")
        self._results = os.path.join(out_dir, "results.jsonl")
        self._locked = os.path.exists(out_dir)
        with ExitStack() as held:  # the lock, released here if opening raises
            if self._locked:
                held.callback(os.close, _lock_dir(out_dir))
            exists = self._locked and os.path.exists(self._pin_path)  # read only when locked
            self._pinned = read_json_object(self._pin_path, "pin") if exists else {}
            digests = self._pinned.get("data_digest", {})
            # a pin that holds one string for all its data names no dataset: refused
            pin["data_digest"] = dict(digests) if isinstance(digests, dict) else {}
            if self._pinned:
                _check_pin(self._pin_path, self._pinned, pin)
            self.done = completed_keys(self._results)
            self._held = held.pop_all()

    def pin_data(self, loaded: dict[str, ProcessedDataset]) -> None:
        here = {dataset_id: _data_digest(dataset) for dataset_id, dataset in loaded.items()}
        # the pinned digest of each loaded id; a new id pins its own
        there = {i: self.pin["data_digest"].get(i, digest) for i, digest in here.items()}
        _check_pin(self._pin_path, {"data_digest": there}, {"data_digest": here})
        self.pin["data_digest"].update(here)
        if not self._locked:
            os.makedirs(self.out_dir, exist_ok=True)
            self._held.callback(os.close, _lock_dir(self.out_dir))
            if any(os.path.exists(path) for path in (self._pin_path, self._results)):
                raise ValueError(f"{self.out_dir} was written by another run_benchmark call "
                                 "while this one loaded its data")
        if self.pin != self._pinned:  # whole: a torn pin would refuse every resume
            write_json_object(self._pin_path, self.pin)

    def record(self, outcome, res: dict | None) -> None:
        """One trace line by `append_line`, with sorted keys, then the record
        of a trial that has one, so a trial with a record has its curves and
        one whose trace line fails leaves no record and reruns on resume. The
        line holds the trial's key; a failed trial (`res` None, `outcome` a
        `methods.TrialFailure`) adds the exception and its traceback, a
        recorded one the train and validation curves, the stop reason and
        the best epoch of each phase, null for a phase that did not run."""
        line = {name: getattr(outcome, name)
                for name in ("dataset_id", "method_name", "setting", "trial_index")}
        if res is None:
            exc = outcome.error
            line.update(error_type=type(exc).__name__, message=str(exc),
                        traceback="".join(traceback.format_exception(exc)))
        else:
            for phase in ("pretrain", "finetune"):
                done = res[f"{phase}_outcome"]
                line[phase] = done and {"train": done.train_curve, "validation": done.val_curve,
                                        "stop_reason": done.stop_reason, "best_epoch": done.best_epoch}
        append_line(os.path.join(self.out_dir, "trace.jsonl"), json.dumps(line, sort_keys=True))
        if res is not None:
            append_run(self._results, outcome)

    def close(self) -> None:
        self._held.close()


class NoDir:
    """The run directory of a call without one: nothing done, nothing kept."""

    done = frozenset()
    pin_data = record = close = lambda *args: None


def _lock_dir(out_dir) -> int:
    """A descriptor of directory `out_dir` that holds its exclusive flock;
    closing it unlocks."""
    fd = os.open(out_dir, os.O_RDONLY | os.O_DIRECTORY)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except BlockingIOError:
        os.close(fd)
        raise ValueError(f"{out_dir} is locked by another run_benchmark call writing to it") from None
    return fd


def _check_pin(pin_path, pinned: dict, pin: dict) -> None:
    """ValueError naming each key whose value differs, in the order of `pin`
    (the file's keys are sorted), then the keys only the file holds."""
    differ = [key for key in {**pin, **pinned} if pinned.get(key) != pin.get(key)]
    if differ:
        raise ValueError(f"{pin_path} pins another run: " + "; ".join(
            f"{key} is {pinned.get(key)!r} there, {pin.get(key)!r} here" for key in differ))


def _data_digest(dataset: ProcessedDataset) -> str:
    """sha256 of X and y (dtype, shape and bytes, hashed in place), the
    feature blocks, the classes and the numerical columns."""
    digest = hashlib.sha256()
    for array in (dataset.X, dataset.y):
        array = np.ascontiguousarray(array)  # a copy only if it is not contiguous
        digest.update(f"{array.dtype.str}{array.shape}".encode())
        digest.update(array)
    digest.update(repr((dataset.feature_blocks, dataset.classes, dataset.numerical_columns)).encode())
    return digest.hexdigest()

