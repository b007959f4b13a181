"""Benchmark statistics: Welch's t-test, pairwise win matrices with the
minimum-win-ratio column, and relative-improvement (box-plot) exports, plus
line-delimited results persistence for multi-trial sweeps.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import warnings
from dataclasses import asdict, dataclass
from itertools import combinations
from typing import get_type_hints

import numpy as np

from tabpretrain.corruption import check_type
from tabpretrain.data import parse_json_object


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


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the regularized incomplete beta (Lentz's method)."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 300):
        m2 = 2 * m
        # the even and the odd term of the fraction, one Lentz update each
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + aa * d
            if abs(d) < tiny:
                d = tiny
            c = 1.0 + aa / c
            if abs(c) < tiny:
                c = tiny
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < 1e-12:
            break
    return h


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def student_t_two_sided_p(t: float, df: float) -> float:
    """P(|T| >= |t|) for Student's t with df degrees of freedom."""
    if df <= 0:
        raise ValueError("degrees of freedom must be positive")
    x = df / (df + t * t)
    return regularized_incomplete_beta(df / 2.0, 0.5, x)


def welch_t_test(a, b) -> tuple[float, float, float]:
    """Unequal-variance two-sample t statistic, Welch-Satterthwaite degrees of
    freedom, and the two-sided p-value.

    Both samples having zero variance is a degenerate case: equal means give
    (0, inf, 1); different means count as a deterministic separation (p = 0).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if len(a) < 2 or len(b) < 2:
        raise ValueError("each sample needs at least 2 observations")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("samples must be finite")
    va = a.var(ddof=1)
    vb = b.var(ddof=1)
    diff = a.mean() - b.mean()
    if va == 0.0 and vb == 0.0:
        if diff == 0.0:
            return 0.0, float("inf"), 1.0
        return math.copysign(float("inf"), diff), float("inf"), 0.0
    sa, sb = va / len(a), vb / len(b)
    t = diff / math.sqrt(sa + sb)
    df = (sa + sb) ** 2 / (sa**2 / (len(a) - 1) + sb**2 / (len(b) - 1))
    return float(t), float(df), student_t_two_sided_p(t, df)


def compare(a_runs, b_runs, p_threshold: float) -> str:
    """'win' / 'loss' for a vs b by mean ordering when significant, else 'tie'.
    p exactly at the threshold counts as a tie."""
    _, _, p = welch_t_test(a_runs, b_runs)
    if p >= p_threshold:
        return "tie"
    return "win" if np.mean(a_runs) > np.mean(b_runs) else "loss"


@dataclass
class WinMatrix:
    methods: list[str]
    wins: np.ndarray  # (M, M) significant wins of row method over column method; .T the losses

    def ratio(self, i: int, j: int) -> float | None:
        total = self.wins[i, j] + self.wins[j, i]
        return None if total == 0 else self.wins[i, j] / total

    def min_ratio_column(self) -> list[float | None]:
        out = []
        for i in range(len(self.methods)):
            ratios = [self.ratio(i, j) for j in range(len(self.methods)) if j != i]
            ratios = [r for r in ratios if r is not None]
            out.append(min(ratios) if ratios else None)
        return out

    def cell_text(self, i: int, j: int) -> str:
        total = int(self.wins[i, j] + self.wins[j, i])
        return "-" if total == 0 else f"{int(self.wins[i, j])}/{total}"


def _accuracies_by_dataset(runs, method: str):
    """Accuracies per dataset."""
    out: dict[str, list[float]] = {}
    for r in runs:
        if r.method_name == method:
            out.setdefault(r.dataset_id, []).append(r.test_accuracy)
    return out


def _comparable(acc_a: dict, acc_b: dict) -> list[str]:
    """Datasets on which both methods have the two accuracies a Welch test
    needs."""
    return sorted(d for d in set(acc_a) & set(acc_b) if min(len(acc_a[d]), len(acc_b[d])) >= 2)


def win_matrix(runs, methods: list[str], p: float) -> WinMatrix:
    """One Welch test at threshold `p` per unordered method pair and dataset
    on which both have two accuracies in `runs` (the records of one
    setting); a significant one is a win of the better method."""
    per_method = [_accuracies_by_dataset(runs, m) for m in methods]
    wins = np.zeros((len(methods), len(methods)), dtype=int)
    for i, j in combinations(range(len(methods)), 2):
        for d in _comparable(per_method[i], per_method[j]):
            verdict = compare(per_method[i][d], per_method[j][d], p)
            if verdict != "tie":
                wins[(i, j) if verdict == "win" else (j, i)] += 1
    return WinMatrix(methods, wins)


@dataclass
class BoxPlotEntry:
    method: str
    reference: str
    dataset_id: str
    relative_improvement_pct: float


def relative_improvement(runs, method: str, reference: str, p: float) -> list[BoxPlotEntry]:
    """Per-dataset 100*(acc_method - acc_ref)/acc_ref over the datasets of
    `runs`, the records of one setting, whose means differ at the box-plot
    filter `p`. Zero-accuracy references and datasets with fewer than two
    accuracies on either side are skipped."""
    acc_m = _accuracies_by_dataset(runs, method)
    acc_r = _accuracies_by_dataset(runs, reference)
    entries = []
    for d in _comparable(acc_m, acc_r):
        if compare(acc_m[d], acc_r[d], p) == "tie":
            continue
        ref_mean = float(np.mean(acc_r[d]))
        if ref_mean == 0.0:
            continue
        gain = 100.0 * (float(np.mean(acc_m[d])) - ref_mean) / ref_mean
        entries.append(BoxPlotEntry(method, reference, d, gain))
    return entries


def _csv_text(rows) -> str:
    """CSV text; a cell with a comma, quote or line break (a dataset id is a
    file's basename) is quoted."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def win_matrix_csv(wm: WinMatrix) -> str:
    rows = [["method"] + wm.methods + ["min_ratio"]]
    min_col = wm.min_ratio_column()
    for i, m in enumerate(wm.methods):
        cells = [m]
        for j in range(len(wm.methods)):
            cells.append("" if i == j else wm.cell_text(i, j))
        cells.append("" if min_col[i] is None else f"{min_col[i]:.4f}")
        rows.append(cells)
    return _csv_text(rows)


def box_plot_csv(entries: list[BoxPlotEntry]) -> str:
    return _csv_text([["method", "reference", "dataset_id", "relative_improvement_pct"]] + [
        [e.method, e.reference, e.dataset_id, f"{e.relative_improvement_pct:.4f}"]
        for e in entries])


def win_matrix_svg(wm: WinMatrix) -> str:
    """Self-contained heat map of the win matrix with fractional annotations."""
    from html import escape

    n = len(wm.methods)
    cell, left, top = 70, 130, 60
    width = left + (n + 1) * cell + 20
    height = top + n * cell + 20
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        '<style>text{font-family:sans-serif;font-size:11px}</style>',
    ]
    for j, m in enumerate(wm.methods):
        parts.append(f'<text x="{left + j * cell + cell / 2}" y="{top - 10}" text-anchor="middle">{escape(m)}</text>')
    parts.append(f'<text x="{left + n * cell + cell / 2}" y="{top - 10}" text-anchor="middle">min</text>')
    min_col = wm.min_ratio_column()
    for i, m in enumerate(wm.methods):
        y = top + i * cell
        parts.append(f'<text x="{left - 8}" y="{y + cell / 2}" text-anchor="end">{escape(m)}</text>')
        for j in range(n + 1):
            x = left + j * cell
            if j < n:
                r = None if i == j else wm.ratio(i, j)
                label = "" if i == j else wm.cell_text(i, j)
            else:
                r = min_col[i]
                label = "-" if r is None else f"{r:.2f}"
            if r is None:
                fill = "#dddddd"
            else:
                # blue (low) to red (high) through white
                red = int(255 * min(1.0, 2 * r))
                blue = int(255 * min(1.0, 2 * (1 - r)))
                green = int(255 * (1 - abs(2 * r - 1)))
                fill = f"rgb({red},{green},{blue})"
            parts.append(
                f'<rect x="{x}" y="{y}" width="{cell}" height="{cell}" fill="{fill}" stroke="#888"/>'
            )
            if label:
                parts.append(
                    f'<text x="{x + cell / 2}" y="{y + cell / 2 + 4}" text-anchor="middle">{label}</text>'
                )
    parts.append("</svg>")
    return "\n".join(parts)
