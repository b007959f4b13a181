"""Timing and counting wrappers installed on tabpretrain from outside it.

A span wrapper replaces a package function at every name the package binds it
to (the defining module and each module that imported it), so a call through
any of those names is timed. Self time is the span's duration minus the
durations of the spans that ran inside it. ``Patches.restore`` puts every
original back; ``Patches.verify_clean`` checks that no wrapper is left.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

_ORIGINAL = "__perfbench_original__"


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "tabpretrain" or name.startswith("tabpretrain."))]


class Tracer:
    """Per span name: self seconds and, per call, (inclusive seconds, what the
    count function returned); plus named counters that the count functions
    add to."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(list)
        self.counts = defaultdict(int)
        self._child_s = []  # one accumulator per open span

    def span(self, name, count=None):
        """Decorator factory; ``count(counts, args, result)`` runs after a
        successful call, outside the span's own timing."""

        def make(fn):
            def wrapper(*args, **kwargs):
                self._child_s.append(0.0)
                start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = time.perf_counter() - start
                    child = self._child_s.pop()
                    self.self_s[name] += elapsed - child
                    if self._child_s:
                        self._child_s[-1] += elapsed
                work = count(self.counts, args, result) if count is not None else None
                self.calls[name].append((elapsed, work))
                return result

            return wrapper

        return make


class Patches:
    """Installs wrappers and restores the originals."""

    def __init__(self):
        self._installed = []  # (owner, attribute, original)

    def wrap_function(self, fn, make_wrapper) -> None:
        wrapper = self._mark(make_wrapper(fn), fn)
        bound = 0
        for module in _package_modules():
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapper)
                    self._installed.append((module, attr, fn))
                    bound += 1
        if not bound:
            raise RuntimeError(f"{fn.__qualname__} is not bound in any tabpretrain module")

    def wrap_method(self, cls, attr, make_wrapper) -> None:
        original = vars(cls)[attr]
        setattr(cls, attr, self._mark(make_wrapper(original), original))
        self._installed.append((cls, attr, original))

    @staticmethod
    def _mark(wrapper, original):
        setattr(wrapper, _ORIGINAL, original)
        return wrapper

    def restore(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)

    def verify_clean(self) -> list[str]:
        """Names still bound to a wrapper, or not back to their original."""
        bad = [f"{getattr(o, '__name__', o)}.{a}" for o, a, orig in self._installed
               if vars(o)[a] is not orig]
        for module in _package_modules():
            for attr, value in vars(module).items():
                members = [value] + (list(vars(value).values()) if isinstance(value, type) else [])
                if any(hasattr(v, _ORIGINAL) for v in members):
                    bad.append(f"{module.__name__}.{attr}")
        return sorted(set(bad))


def _add(counts, name, amount):
    counts[name] += int(amount)


def _count_pretrain(counts, args, outcome):
    """Adds the epochs; returns the rows trained on: train rows x epochs."""
    _add(counts, "training.pretrain_epochs", outcome.epochs_used)
    return len(args[1].train) * outcome.epochs_used


def _count_finetune(counts, args, outcome):
    """Adds the epochs; returns the rows trained on: labeled rows x epochs."""
    _add(counts, "training.finetune_epochs", outcome.epochs_used)
    return len(args[2]) * outcome.epochs_used


def install_phase_timers(tracer: Tracer, patches: Patches) -> None:
    """The two wrappers of an untraced run: pre-training and fine-tuning
    calls, with the rows times epochs they trained on."""
    from tabpretrain import training

    patches.wrap_function(training.pretrain_scarf, tracer.span("training.pretrain_scarf", _count_pretrain))
    patches.wrap_function(training.finetune, tracer.span("training.finetune", _count_finetune))


def install_trace(tracer: Tracer, patches: Patches) -> None:
    """Phase timers plus one span per public function of each module that a
    trial runs through. ``training._validation_metric`` is private but is
    the per-epoch validation cost, so it gets a span of its own."""
    from tabpretrain import cli, corruption, data, losses, methods, nn, stats, training

    install_phase_timers(tracer, patches)

    def rows_in(counter):
        return lambda counts, args, result: _add(counts, counter, args[1].shape[0])

    def views(counts, args, result):
        _add(counts, "corruption.make_views_calls", 1)
        _add(counts, "corruption.cells_replaced", sum(len(ix) for ix in result[2].index_sets))

    functions = [
        (data.load_csv, "data.load_csv", None),
        (data.impute, "data.impute", None),
        (data.one_hot, "data.one_hot", None),
        (data.process_csv, "data.process_csv",
         lambda counts, args, result: _add(counts, "data.rows", result[0].n)),
        (corruption.make_views, "corruption.make_views", views),
        (corruption.build_marginal_pool, "corruption.build_marginal_pool", None),
        (training.build_static_validation, "training.build_static_validation", None),
        (training._validation_metric, "training.validation", None),
        (losses.infonce, "losses.infonce",
         lambda counts, args, result: _add(counts, "losses.infonce_calls", 1)),
        (methods.run_method, "methods.run_method", None),
        (stats.append_run, "stats.append_run", None),
        (stats.completed_keys, "stats.completed_keys", None),
        (cli.cmd_run, "cli.cmd_run", None),
    ]
    for fn, name, count in functions:
        patches.wrap_function(fn, tracer.span(name, count))
    patches.wrap_method(nn.Mlp, "forward", tracer.span("nn.forward", rows_in("nn.forward_rows")))
    patches.wrap_method(nn.Mlp, "backward", tracer.span("nn.backward", rows_in("nn.backward_rows")))
    patches.wrap_method(nn.Adam, "step", tracer.span(
        "nn.adam_step", lambda counts, args, result: _add(counts, "nn.adam_steps", 1)))
