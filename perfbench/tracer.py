"""Span tracing from outside the package.

A traced run replaces each layer function listed in ``LAYERS`` by a
timing wrapper, both in its defining module and in every ``decohd``
module that imported it by name, and restores the originals afterwards.
Spans stay in memory: name, parent span, start, end, self time and
whether the call raised.  A span's self time is its duration minus the
time its child spans cover, so the self times of all spans plus the
untraced remainder add up to the traced wall time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Callable


def _rows(a) -> float:
    shape = getattr(a, "shape", ())
    return float(shape[0]) if shape else 1.0


def _stored_elements(model) -> float:
    """Float32 words a fault-injection target stores."""
    bank = getattr(model, "bank", None)
    if bank is not None:
        return float(sum(c.size for c in bank.channels) + model.head.size)
    mask = getattr(model, "mask", None)
    if mask is not None:
        return float(mask.sum() * model.prototypes.shape[0])
    if hasattr(model, "prototypes"):
        return float(model.prototypes.size)
    return float(getattr(model, "size", 0))


@dataclass(frozen=True)
class Layer:
    """A package function to time, plus an optional work counter that
    is computed from its arguments (positional, as the package calls it)."""

    name: str  # metric prefix, "<module>.<attr>" or "<module>.<Class>.<attr>"
    count_suffix: str | None = None
    count_unit: str | None = None
    count: Callable | None = None
    target: str | None = None  # where the function lives, when not at *name*

    @property
    def module(self) -> str:
        return "decohd." + (self.target or self.name).split(".")[0]

    @property
    def path(self) -> list[str]:
        return (self.target or self.name).split(".")[1:]


LAYERS = (
    # Computed bytes sampled: projector entries are drawn in float64.
    Layer("ops.generate_matrix", "mb", "MB", lambda a: a[0].rows * a[0].cols * 8 / 1e6),
    Layer("encoding.encode_batch", "rows", "rows", lambda a: _rows(a[1]),
          target="encoding.RandomProjectionEncoder.encode_batch"),
    Layer("model.materialize_channels"),
    Layer("model.path_basis", "mb", "MB",
          lambda a: a[0].num_paths * a[0].dim * a[0].channels[0].itemsize / 1e6),
    Layer("training.train"),
    Layer("training.AdamW.step"),
    Layer("training.evaluate"),
    Layer("inference.score_batch", "rows", "rows", lambda a: _rows(a[0])),
    Layer("inference.stream_scores"),
    Layer("baselines.build_prototype_table"),
    Layer("baselines.onlinehd_refine"),
    Layer("baselines.sparsify_table"),
    Layer("precision.quantize_model"),
    Layer("precision.quantize_array", "elements", "count", lambda a: float(a[0].size)),
    Layer("faults.inject_bitflips", "bits", "bits", lambda a: 32 * _stored_elements(a[0])),
    Layer("serialize.save_classifier"),
    Layer("serialize.load_classifier", "failed", "count", None),
    Layer("experiment.fit_model"),
)

# Spans the benchmark opens around its own output checks.
CHECK_SPAN = "bench.check"


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for layer in LAYERS:
        base = layer.name
        units[f"{base}.calls"] = "count"
        units[f"{base}.self_s"] = "s"
        units[f"{base}.p50_ms"] = "ms"
        if layer.count_suffix:
            units[f"{base}.{layer.count_suffix}"] = layer.count_unit
    units[f"{CHECK_SPAN}.self_s"] = "s"
    units["trace.other_s"] = "s"
    units["trace.wall_s"] = "s"
    return units


class Tracer:
    """Collects spans; ``install`` wraps the layers, ``uninstall`` undoes it."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent, start_ns, end_ns, self_ns, ok]
        self.counts: dict[str, float] = {}
        self.absent: list[str] = []
        self.uncounted: set[str] = set()
        self._stack: list[list] = []  # [span index, child ns]
        self._restore: list[tuple] = []
        self._start_ns = time.perf_counter_ns()
        self._end_ns: int | None = None

    @contextlib.contextmanager
    def span(self, name: str):
        self._enter(name)
        ok = False
        try:
            yield
            ok = True
        finally:
            self._exit(ok)

    def _enter(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else None
        self.spans.append([name, parent, time.perf_counter_ns(), 0, 0, True])
        self._stack.append([len(self.spans) - 1, 0])

    def _exit(self, ok: bool) -> None:
        end = time.perf_counter_ns()
        index, child_ns = self._stack.pop()
        span = self.spans[index]
        duration = end - span[2]
        span[3] = end
        span[4] = duration - child_ns
        span[5] = ok
        if self._stack:
            self._stack[-1][1] += duration

    def _wrap(self, layer: Layer, fn):
        name = layer.name
        key = f"{name}.{layer.count_suffix}" if layer.count_suffix else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if layer.count is not None:
                try:
                    self.counts[key] = self.counts.get(key, 0.0) + layer.count(args)
                except (IndexError, AttributeError, TypeError):
                    self.uncounted.add(key)  # a later signature; timing still runs
            self._enter(name)
            ok = False
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                self._exit(ok)

        return traced

    def install(self) -> None:
        for layer in LAYERS:
            try:
                owner = importlib.import_module(layer.module)
                for part in layer.path[:-1]:
                    owner = getattr(owner, part)
            except (ImportError, AttributeError):
                self.absent.append(layer.name)
                continue
            attr = layer.path[-1]
            original = vars(owner).get(attr)
            if original is None:
                self.absent.append(layer.name)
                continue
            wrapped = self._wrap(layer, original)
            targets = [owner]
            if len(layer.path) == 1:  # module function: also rebind imports by name
                targets += [
                    m for n, m in list(sys.modules.items())
                    if n.startswith("decohd") and m is not owner and vars(m).get(attr) is original
                ]
            for target in targets:
                setattr(target, attr, wrapped)
                self._restore.append((target, attr, original))

    def uninstall(self) -> None:
        self._end_ns = time.perf_counter_ns()
        for target, attr, original in reversed(self._restore):
            setattr(target, attr, original)
        self._restore.clear()

    def metrics(self) -> dict[str, float]:
        """Per-layer calls, self seconds, median call milliseconds and
        counters; ``trace.other_s`` is wall time outside every span."""
        by_name: dict[str, list] = {}
        for name, _parent, start, end, self_ns, ok in self.spans:
            by_name.setdefault(name, []).append((end - start, self_ns, ok))
        out = {}
        spanned_ns = 0
        for layer in LAYERS:
            base = layer.name
            calls = by_name.get(base, [])
            self_ns = sum(c[1] for c in calls)
            spanned_ns += self_ns
            out[f"{base}.calls"] = float(len(calls))
            out[f"{base}.self_s"] = self_ns / 1e9
            out[f"{base}.p50_ms"] = statistics.median(c[0] for c in calls) / 1e6 if calls else 0.0
            if layer.count_suffix == "failed":
                out[f"{base}.failed"] = float(sum(1 for c in calls if not c[2]))
            elif layer.count_suffix:
                out[f"{base}.{layer.count_suffix}"] = self.counts.get(f"{base}.{layer.count_suffix}", 0.0)
        check_ns = sum(c[1] for c in by_name.get(CHECK_SPAN, []))
        wall_ns = (self._end_ns or time.perf_counter_ns()) - self._start_ns
        out[f"{CHECK_SPAN}.self_s"] = check_ns / 1e9
        out["trace.other_s"] = (wall_ns - spanned_ns - check_ns) / 1e9
        out["trace.wall_s"] = wall_ns / 1e9
        return out


class NullTracer:
    """Untraced runs: the benchmark's own check spans cost nothing."""

    @contextlib.contextmanager
    def span(self, name: str):
        yield
