"""Span tracer for the traced benchmark run.

The tracer wraps public entry points of the engine from the outside (no
change to ``src/repro``): every function or method listed in a layer table
is replaced, at every module or class that holds it, by a wrapper that
records one span per call.  Spans live in memory; the benchmark writes them
out when the run ends.

Self time is computed per thread: a span's self time is its duration minus
the durations of its direct children *on the same thread*.  Work a batch
hands to pool threads shows up as root spans of those threads (their
``cause`` names the batch span open on the caller's thread), so the caller's
batch span keeps the time it spent waiting.
"""

from __future__ import annotations

import sys
import threading
import time
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from typing import Any

from repro.core.limits import EngineLimitError


@dataclass
class Span:
    sid: int
    parent: int | None  # enclosing span on the same thread
    cause: int | None  # batch span open on the caller's thread (pool threads)
    thread: int
    layer: str
    op: int
    start: float
    end: float = 0.0
    failed: bool = False


class Tracer:
    """Records spans and the limit-trip counters while ``enabled``."""

    def __init__(self, batch_layer: str, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.enabled = False
        self.op = -1
        self.spans: list[Span] = []
        self.derivations = 0
        self.limit_trips = 0
        self.limit_trip_s = 0.0
        self._batch_layer = batch_layer
        self._open_batch: int | None = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """A wrapper recording one ``layer`` span per outermost call of ``fn``.

        A call made while a span of the same layer is already open on this
        thread (e.g. ``usable_closed_masks`` calling ``closed_masks``) is part
        of that span and records nothing of its own.
        """

        def traced(*args: Any, **kwargs: Any) -> Any:
            if not self.enabled:
                return fn(*args, **kwargs)
            stack = self._stack()
            if stack and stack[-1].layer == layer:
                return fn(*args, **kwargs)
            with self._lock:
                sid = self._next_id
                self._next_id += 1
                cause = None if stack else self._open_batch
                if layer == self._batch_layer and self._open_batch is None:
                    self._open_batch = sid
            parent = stack[-1].sid if stack else None
            span = Span(sid, parent, cause, threading.get_ident(), layer, self.op, self.clock())
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = self.clock()
                stack.pop()
                with self._lock:
                    if self._open_batch == sid:
                        self._open_batch = None
                    self.spans.append(span)

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def wrap_derivation(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        """Count derivations and the wall time of those ending in a limit trip."""

        def counted(*args: Any, **kwargs: Any) -> Any:
            if not self.enabled:
                return fn(*args, **kwargs)
            start = self.clock()
            try:
                return fn(*args, **kwargs)
            except EngineLimitError:
                with self._lock:
                    self.limit_trips += 1
                    self.limit_trip_s += self.clock() - start
                raise
            finally:
                with self._lock:
                    self.derivations += 1

        counted.__wrapped__ = fn  # type: ignore[attr-defined]
        return counted


# -- installing wrappers -------------------------------------------------------


def _resolve(target: str) -> tuple[object, str, Any]:
    """``"pkg.mod:name"`` or ``"pkg.mod:Class.method"`` -> (owner, attr, value)."""
    module_name, _, path = target.partition(":")
    owner: object = sys.modules[module_name]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    if attr not in vars(owner):
        raise LookupError(f"trace target {target} does not exist")
    return owner, attr, vars(owner)[attr]


def install(
    tracer: Tracer,
    layers: Sequence[tuple[str, Sequence[str]]],
    derivation_targets: Iterable[str],
    module_prefixes: Sequence[str],
) -> list[tuple[object, str, Any]]:
    """Wrap every target at every site that holds it; return the undo list.

    A module-level function is replaced in its defining module and in every
    loaded module whose name starts with one of ``module_prefixes`` and that
    imported it (under any alias); a method is replaced on its class.  A
    target that cannot be found raises, so a renamed entry point fails the
    run instead of reading as zero calls.
    """
    plan: list[tuple[str, Callable[[Callable[..., Any]], Callable[..., Any]]]] = []
    for layer, targets in layers:
        for target in targets:
            plan.append((target, lambda fn, layer=layer: tracer.wrap(layer, fn)))
    for target in derivation_targets:
        plan.append((target, tracer.wrap_derivation))
    modules = [
        module
        for name, module in list(sys.modules.items())
        if module is not None and name.startswith(tuple(module_prefixes))
    ]
    undo: list[tuple[object, str, Any]] = []
    for target, make in plan:
        owner, attr, original = _resolve(target)
        if not callable(original):
            raise TypeError(f"trace target {target} is not a plain function")
        wrapper = make(original)
        sites: list[tuple[object, str]] = [(owner, attr)]
        if isinstance(owner, type(sys)):
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original and (module, name) != (owner, attr):
                        sites.append((module, name))
        for site, name in sites:
            undo.append((site, name, original))
            setattr(site, name, wrapper)
    return undo


def uninstall(undo: list[tuple[object, str, Any]]) -> None:
    for site, name, original in reversed(undo):
        setattr(site, name, original)


# -- per-layer summary ---------------------------------------------------------


def summarise(
    spans: Sequence[Span],
    layers: Iterable[str],
    caller_thread: int,
    window_s: float,
) -> dict[str, dict[str, float]]:
    """Per-layer ``calls`` / ``self_s`` / ``total_s`` plus the caller's gap.

    ``total_s`` sums whole span durations (children included).  The
    ``unattributed_s`` entry is the part of the caller thread's timed
    window that no span covers: spans on one thread nest, so the caller's
    root spans never overlap and their durations simply add up.
    """
    child_s: dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            child_s[span.parent] = child_s.get(span.parent, 0.0) + (span.end - span.start)
    table = {layer: {"calls": 0, "self_s": 0.0, "total_s": 0.0} for layer in layers}
    covered = 0.0
    for span in spans:
        duration = span.end - span.start
        row = table.setdefault(span.layer, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        row["calls"] += 1
        row["self_s"] += duration - child_s.get(span.sid, 0.0)
        row["total_s"] += duration
        if span.thread == caller_thread and span.parent is None:
            covered += duration
    table["unattributed"] = {"calls": 0, "self_s": window_s - covered, "total_s": window_s}
    return table
