"""In-memory spans around the public calls into each layer.

The tracer wraps callables from the outside (instance attributes or class
attributes), so the program under test carries no tracing code.  Each call
records one span: name, start, end, parent span and the id of the
transaction it belongs to.  Spans stay in a list until the run ends; the
aggregates below are computed from that list afterwards.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time


class Span:
    """One timed call at a layer boundary."""

    __slots__ = ("span_id", "name", "start_ns", "end_ns", "parent", "txid",
                 "child_ns")

    def __init__(self, span_id: int, name: str, start_ns: int,
                 parent: int | None, txid: int | None) -> None:
        self.span_id = span_id
        self.name = name
        self.start_ns = start_ns
        self.end_ns = start_ns
        self.parent = parent
        self.txid = txid
        self.child_ns = 0

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns

    @property
    def self_ns(self) -> int:
        """Duration minus the time the span's children cover.

        Children run on the caller's thread, nested and one after another,
        so the time they cover is the sum of their durations.
        """
        return self.duration_ns - self.child_ns


class Tracer:
    """Collects spans from wrapped calls on any number of threads."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        # list.append and next() on a count are atomic under the GIL, so
        # the hot path takes no lock
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object, bool]] = []

    def _wrap(self, fn, name_of):
        local = self._local
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            parent = stack[-1] if stack else None
            txid = None
            for arg in args[:2]:
                txid = getattr(arg, "txid", None)
                if txid is not None:
                    break
            if txid is None and parent is not None:
                txid = parent.txid
            span = Span(next(ids), name_of(args),
                        clock(), parent.span_id if parent else None, txid)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
                if span.txid is None:
                    span.txid = getattr(result, "txid", None)
                return result
            finally:
                span.end_ns = clock()
                stack.pop()
                if parent is not None:
                    parent.child_ns += span.end_ns - span.start_ns
                spans.append(span)
        return traced

    def wrap_method(self, obj: object, attr: str, name: str) -> None:
        """Trace ``obj.attr`` calls on this one instance."""
        original = getattr(obj, attr)
        setattr(obj, attr, self._wrap(original, lambda _args: name))
        self._patches.append((obj, attr, original, False))

    def wrap_class_method(self, cls: type, attr: str, name_of) -> None:
        """Trace ``cls.attr`` for every instance; ``name_of(args)`` names
        the span from the call's arguments (``args[0]`` is the instance)."""
        original = cls.__dict__[attr]
        setattr(cls, attr, self._wrap(original, name_of))
        self._patches.append((cls, attr, original, True))

    def restore(self) -> None:
        """Undo every wrap, newest first."""
        for obj, attr, original, on_class in reversed(self._patches):
            if on_class:
                setattr(obj, attr, original)
            else:
                delattr(obj, attr)
        self._patches.clear()

    # -- aggregates ----------------------------------------------------------

    def mean_us(self, name: str, self_time: bool = False) -> tuple[float, int]:
        """Mean duration (or self time) of the spans called ``name``, in
        microseconds, with their count."""
        spans = [s for s in self.spans if s.name == name]
        if not spans:
            return 0.0, 0
        total = sum(s.self_ns if self_time else s.duration_ns for s in spans)
        return total / len(spans) / 1000.0, len(spans)

    def total_us(self, prefix: str) -> tuple[float, int]:
        """Summed duration and count of spans whose name starts with
        ``prefix``."""
        spans = [s for s in self.spans if s.name.startswith(prefix)]
        return sum(s.duration_ns for s in spans) / 1000.0, len(spans)
