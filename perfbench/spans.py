"""Spans around calls into the library, recorded from outside it.

`Tracer.install` replaces each public function of the traced modules, and
`BlockOperator.dense`, with a wrapper that records one span per call: name,
start, end and parent span.  A function is replaced in every module
namespace that bound it by name (``from .lgsolver import
dual_feasibility_margin`` inside ``adversary``), so cross-module calls are
seen too.  Spans stay in memory; `layer_table` turns them into per-callable
calls, total time, self time and failures, and `uninstall` restores the
originals.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
from dataclasses import dataclass
from typing import Callable

# the layers, in the order the library builds on them
LAYERS = (
    "structures", "lgsolver", "witnesses", "arrays", "adversary", "fourier",
    "indexing", "reporting",
)
# methods that carry a layer's work but are not module-level functions
METHODS = {"adversary": {"BlockOperator": ("dense",)}}


@dataclass(slots=True)
class Span:
    name: str
    start: int          # perf_counter_ns
    end: int = 0
    parent: int = -1    # index into the span list, -1 for a top-level span
    failed: bool = False
    counters: dict | None = None


def self_times(spans: list[Span]) -> list[int]:
    """Per span: its duration minus the part of it that its children cover.

    Children are clipped to the parent's interval and overlapping children
    are counted once, so the result never goes negative.
    """
    children: dict[int, list[tuple[int, int]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        covered = 0
        cursor = span.start
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        out.append(span.end - span.start - covered)
    return out


def layer_table(spans: list[Span]) -> dict[str, dict]:
    """Per callable: calls, failed, total_s (outermost calls only), self_s, counters."""
    selfs = self_times(spans)
    table: dict[str, dict] = {}
    for i, span in enumerate(spans):
        row = table.setdefault(span.name, {"calls": 0, "failed": 0, "total_s": 0.0,
                                           "self_s": 0.0})
        row["calls"] += 1
        row["failed"] += int(span.failed)
        row["self_s"] += selfs[i] / 1e9
        if not _has_ancestor_named(spans, span):
            row["total_s"] += (span.end - span.start) / 1e9
        for key, value in (span.counters or {}).items():
            row[key] = row.get(key, 0) + value
    return table


def _has_ancestor_named(spans: list[Span], span: Span) -> bool:
    parent = span.parent
    while parent >= 0:
        if spans[parent].name == span.name:
            return True
        parent = spans[parent].parent
    return False


class Tracer:
    """Records spans for calls into the wrapped callables.

    `counters` maps a span name to ``fn(result, args, kwargs) -> dict`` whose
    numbers are added to the span, for counts that only the arguments or the
    result carry (iterations, enumerated rows).
    """

    def __init__(self, counters: dict[str, Callable] | None = None):
        self.spans: list[Span] = []
        self.counters = counters or {}
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable) -> Callable:
        count = self.counters.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = Span(name, time.perf_counter_ns(), parent=stack[-1] if stack else -1)
            index = len(self.spans)
            self.spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = time.perf_counter_ns()
                stack.pop()
            if count is not None:
                span.counters = count(result, args, kwargs)
            return result

        return traced

    def _patch(self, owner, attr: str, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap the layers' public callables, named ``<layer>.<function>``."""
        modules = {name: importlib.import_module(f"lgcomplexity.{name}") for name in LAYERS}
        namespaces = [importlib.import_module("lgcomplexity"), *modules.values(),
                      importlib.import_module("lgcomplexity.cli")]
        for layer, module in modules.items():
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                wrapped = self.wrap(f"{layer}.{attr}", fn)
                for namespace in namespaces:
                    if namespace.__dict__.get(attr) is fn:
                        self._patch(namespace, attr, wrapped)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(module, cls_name)
                for method in methods:
                    wrapped = self.wrap(f"{layer}.{cls_name}.{method}", cls.__dict__[method])
                    self._patch(cls, method, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
