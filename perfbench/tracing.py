"""Wall-clock spans recorded from outside the program, net of GC pauses.

A :class:`Tracer` keeps a stack of open spans.  :class:`Patcher` wraps a
layer's public callables so each call opens a span on entry and closes
it on return; nothing under ``src/`` is edited.  While a tracer is
installed, a :data:`gc.callbacks` hook times every collector pause and
charges it to the innermost open span.

Self time is the quantity every per-layer metric reports::

    self = (end - start) - sum(child durations) - GC pauses charged here

A child's duration already contains the pauses charged to it, so self
times, child durations and pauses partition the root span exactly.
Spans are kept in memory and exported once, as Chrome ``trace_event``
JSON with parent ids.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import json
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple


@dataclass
class Span:
    id: int
    name: str
    parent: Optional[int]
    start: float
    end: Optional[float] = None
    child_s: float = 0.0
    gc_s: float = 0.0
    gc_gen2: int = 0

    @property
    def duration(self) -> float:
        if self.end is None:
            raise RuntimeError(f"span {self.name!r} is still open")
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s - self.gc_s


@dataclass
class GcPause:
    span: Optional[int]
    generation: int
    start: float
    end: float


@dataclass
class Tracer:
    """Span recorder; pass ``clock`` to drive it from a fake clock."""

    clock: Callable[[], float] = time.perf_counter
    spans: List[Span] = field(default_factory=list)
    pauses: List[GcPause] = field(default_factory=list)
    _stack: List[Span] = field(default_factory=list)
    _gc_start: Optional[float] = None

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, parent, self.clock())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        if not self._stack or self._stack[-1] is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        span.end = self.clock()
        self._stack.pop()
        if self._stack:
            self._stack[-1].child_s += span.duration

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    # -- collector pauses ------------------------------------------------
    def on_gc(self, phase: str, info: Dict[str, int]) -> None:
        """A :data:`gc.callbacks` hook."""
        if phase == "start":
            self._gc_start = self.clock()
            return
        if self._gc_start is None:
            return  # installed while a collection was running
        end = self.clock()
        owner = self._stack[-1] if self._stack else None
        generation = info.get("generation", 0)
        if owner is not None:
            owner.gc_s += end - self._gc_start
            owner.gc_gen2 += generation == 2
        self.pauses.append(
            GcPause(
                owner.id if owner is not None else None,
                generation,
                self._gc_start,
                end,
            )
        )
        self._gc_start = None

    def install_gc_hook(self) -> None:
        gc.callbacks.append(self.on_gc)

    def remove_gc_hook(self) -> None:
        if self.on_gc in gc.callbacks:
            gc.callbacks.remove(self.on_gc)

    # -- summaries --------------------------------------------------------
    def closed(self) -> Iterator[Span]:
        return (span for span in self.spans if span.end is not None)

    def self_times(self) -> Dict[str, float]:
        """Span name → summed self time over every closed span."""
        totals: Dict[str, float] = {}
        for span in self.closed():
            totals[span.name] = totals.get(span.name, 0.0) + span.self_s
        return totals

    def total_times(self) -> Dict[str, float]:
        """Span name → summed duration of the outermost spans of a name
        (a recursive call is not counted twice)."""
        totals: Dict[str, float] = {}
        for span in self.closed():
            parent = span.parent
            while parent is not None and self.spans[parent].name != span.name:
                parent = self.spans[parent].parent
            if parent is None:
                totals[span.name] = totals.get(span.name, 0.0) + span.duration
        return totals

    def gc_summary(self) -> Tuple[float, int]:
        """(total pause seconds, generation-2 collections)."""
        return (
            sum(p.end - p.start for p in self.pauses),
            sum(1 for p in self.pauses if p.generation == 2),
        )

    def chrome_trace(self) -> Dict[str, Any]:
        """Chrome ``trace_event`` JSON: one complete ("X") event per span
        and per GC pause, times in microseconds, parent ids in args."""
        origin = min((s.start for s in self.spans), default=0.0)
        events: List[Dict[str, Any]] = []
        for span in self.closed():
            events.append(
                {
                    "name": span.name,
                    "cat": "layer",
                    "ph": "X",
                    "pid": 1,
                    "tid": 1,
                    "ts": round((span.start - origin) * 1e6, 3),
                    "dur": round(span.duration * 1e6, 3),
                    "args": {
                        "id": span.id,
                        "parent": span.parent,
                        "self_us": round(span.self_s * 1e6, 3),
                        "gc_us": round(span.gc_s * 1e6, 3),
                    },
                }
            )
        for pause in self.pauses:
            events.append(
                {
                    "name": f"gc.gen{pause.generation}",
                    "cat": "gc",
                    "ph": "X",
                    "pid": 1,
                    "tid": 1,
                    "ts": round((pause.start - origin) * 1e6, 3),
                    "dur": round((pause.end - pause.start) * 1e6, 3),
                    "args": {"parent": pause.span},
                }
            )
        events.sort(key=lambda event: event["ts"])
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome_trace(), handle)


def _wrap(
    tracer: Optional[Tracer],
    name: Optional[str],
    function: Callable[..., Any],
    after: Optional[Callable[..., None]],
    before: Optional[Callable[[], None]] = None,
) -> Callable[..., Any]:
    @functools.wraps(function)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if before is not None:
            before()
        if tracer is None or name is None:
            result = function(*args, **kwargs)
        else:
            span = tracer.open(name)
            try:
                result = function(*args, **kwargs)
            finally:
                tracer.close(span)
        if after is not None:
            after(result, *args, **kwargs)
        return result

    return wrapper


class Patcher:
    """Installs wrappers and restores the originals on exit.

    A wrapper given a ``name`` records a span on the tracer; one given
    only ``before``/``after`` is an observer.  ``before()`` runs ahead
    of the call; ``after(result, *args, **kwargs)`` runs once the span
    is closed, so whatever it reads is not charged to the layer it
    observes.
    """

    def __init__(self, tracer: Optional[Tracer] = None) -> None:
        self._tracer = tracer
        self._undo: List[Tuple[Any, str, Any]] = []

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def method(
        self,
        cls: type,
        attr: str,
        name: Optional[str] = None,
        after: Optional[Callable[..., None]] = None,
        before: Optional[Callable[[], None]] = None,
    ) -> None:
        original = cls.__dict__[attr]
        if isinstance(original, (classmethod, staticmethod)):
            wrapped = type(original)(
                _wrap(self._tracer, name, original.__func__, after, before)
            )
        else:
            wrapped = _wrap(self._tracer, name, original, after, before)
        self._set(cls, attr, wrapped)

    def function(
        self,
        module: Any,
        attr: str,
        name: Optional[str] = None,
        after: Optional[Callable[..., None]] = None,
        before: Optional[Callable[[], None]] = None,
    ) -> None:
        """Wrap a module-level function, rebinding it in every loaded
        ``repro`` module that imported it by name."""
        original = getattr(module, attr)
        wrapper = _wrap(self._tracer, name, original, after, before)
        for loaded in sorted(
            (m for m in list(sys.modules.values()) if m is not None),
            key=lambda m: m.__name__,
        ):
            if not loaded.__name__.startswith("repro"):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    self._set(loaded, key, wrapper)

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc: object) -> None:
        self.restore()
