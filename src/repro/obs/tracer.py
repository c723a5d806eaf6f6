"""Structured spans over the DFS pipeline.

A :class:`Tracer` produces nested :class:`Span` records: wall-clock
interval, nesting (parent id / depth), structured attributes (round
index, path count, batch size, ...), and — when the tracer holds a
:class:`~repro.pram.tracker.Tracker` — the *tracked work/span deltas*
accumulated while the span was open, read from the tracker's running
``work``/``span`` totals at entry and exit.  Spans are what the
exporters (:mod:`repro.obs.export`) turn into Chrome ``trace_event``
timelines, JSONL streams, and the terminal tree report.

Two hard rules, enforced by tests:

* **observational only** — opening or closing a span never charges the
  Tracker, draws randomness, or iterates a set/dict: with tracing
  enabled, ``parallel_dfs`` returns byte-identical trees on both kernel
  backends, and tracked work/span totals are unchanged.
* **zero-overhead when disabled** — the module-wide default is
  :data:`NULL_TRACER`, whose :meth:`~NullTracer.span` hands back one
  shared no-op span; instrumented call sites cost a function call and
  a dict literal, placed only at phase/round/batch granularity (lint
  rule R006 keeps them out of the per-element kernels).

The terminology collision is acknowledged head-on: a *tracer span* is a
named wall-clock interval; the *tracked span* (:attr:`Span.span_delta`)
is the PRAM depth accumulated inside it.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from typing import Any, Callable, TYPE_CHECKING

from .context import current_request_id

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints only
    from ..pram.tracker import Tracker

__all__ = ["Span", "Tracer", "NullTracer", "NULL_TRACER"]


class Span:
    """One named interval of the pipeline; also its own context manager."""

    __slots__ = (
        "tracer",
        "name",
        "sid",
        "parent",
        "depth",
        "tid",
        "attrs",
        "t0",
        "dur",
        "work0",
        "depth0",
        "work_delta",
        "span_delta",
        "_open",
    )

    def __init__(
        self, tracer: "Tracer", name: str, sid: int, parent: int | None,
        depth: int, attrs: dict[str, Any], tid: int = 1,
        open_stack: "list[Span] | None" = None,
    ) -> None:
        self.tracer = tracer
        self.name = name
        self.sid = sid
        self.parent = parent
        self.depth = depth
        #: stable small thread id (1 = first span-opening thread); the
        #: exports key timelines on it so executor-thread spans render
        #: as separate tracks instead of a corrupt single flame graph
        self.tid = tid
        self.attrs = attrs
        self.t0 = 0.0
        self.dur = 0.0
        self.work0 = 0
        self.depth0 = 0
        #: tracked work accumulated while open (None without a tracker)
        self.work_delta: int | None = None
        #: tracked span (PRAM depth) accumulated while open
        self.span_delta: int | None = None
        #: the open-span stack of the thread that made the span (it
        #: enters and exits there, in the ``with`` that made it)
        self._open = open_stack if open_stack is not None else tracer._stack()

    def set(self, key: str, value: Any) -> None:
        """Attach/overwrite one structured attribute mid-flight."""
        self.attrs[key] = value

    def __enter__(self) -> "Span":
        tr = self.tracer
        self._open.append(self)
        t = tr.tracker
        if t is not None:
            self.work0, self.depth0 = t.work, t.span
        self.t0 = tr.clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        tr = self.tracer
        self.dur = tr.clock() - self.t0
        t = tr.tracker
        if t is not None:
            self.work_delta = t.work - self.work0
            self.span_delta = t.span - self.depth0
        popped = self._open.pop()
        assert popped is self, "span stack corrupted (overlapping exits)"
        tr.spans.append(self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Span({self.name!r}, dur={self.dur:.6f}, attrs={self.attrs})"


class Tracer:
    """Produces nested spans; collects them in completion order.

    ``tracker`` (optional) is read at span boundaries for
    work/span deltas; ``clock`` is injectable for deterministic tests
    (defaults to :func:`time.perf_counter`); ``backend`` is a free-form
    label stamped on exports (e.g. the resolved kernel backend);
    ``limit`` (optional) bounds retention — the span store becomes a
    ring that evicts oldest-first, which is what the always-on flight
    recorder (:mod:`repro.obs.flight`) runs on.

    Thread model: the *open-span stack* is thread-local, so executor
    threads nest their own spans independently (each thread gets a
    stable small ``tid``, assigned in first-span order); the finished
    store is shared (CPython list/deque appends are atomic).  The
    single-threaded PRAM simulation never notices — every span stays on
    ``tid == 1`` and exports are byte-identical to the single-stack
    implementation.  If a :func:`~repro.obs.context.request_scope` is
    current when a span is created, the request id is stamped into the
    span's attrs for cross-thread correlation.
    """

    def __init__(
        self,
        tracker: "Tracker | None" = None,
        clock: Callable[[], float] = time.perf_counter,
        backend: str | None = None,
        limit: int | None = None,
    ) -> None:
        self.tracker = tracker
        self.clock = clock
        self.backend = backend
        self.limit = limit
        self.t_origin = clock()
        #: finished spans, in completion order (a bounded ring when
        #: ``limit`` is set — oldest spans are evicted)
        self.spans: list[Span] | deque[Span] = (
            deque(maxlen=limit) if limit is not None else []
        )
        self._tls = threading.local()
        self._sid = itertools.count()
        self._tid_lock = threading.Lock()
        self._tids: dict[int, int] = {}
        #: every thread's open stack, keyed by thread ident, so the
        #: flight recorder can snapshot *in-flight* spans at dump time
        #: (the span around the anomaly hasn't closed yet — it is the
        #: one the dump most needs to show)
        self._open_stacks: dict[int, list[Span]] = {}

    def _stack(self) -> list[Span]:
        """This thread's open-span stack (created on first use)."""
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
            with self._tid_lock:
                self._open_stacks[threading.get_ident()] = stack
        return stack

    def _thread_tid(self) -> int:
        """Stable small id for the calling thread (1, 2, ... in
        first-span order)."""
        tid = getattr(self._tls, "tid", None)
        if tid is None:
            ident = threading.get_ident()
            with self._tid_lock:
                tid = self._tids.get(ident)
                if tid is None:
                    tid = self._tids[ident] = len(self._tids) + 1
            self._tls.tid = tid
        return tid

    # ------------------------------------------------------------------
    def span(self, name: str, **attrs: Any) -> Span:
        """A new span nested under the currently open one.

        Use as ``with tracer.span("separator.round", k=k) as sp: ...``;
        the span records itself on ``__exit__``.
        """
        return self.open(name, attrs)

    def open(self, name: str, attrs: dict[str, Any]) -> Span:
        """:meth:`span` with the attributes as one dict, which the span
        keeps (the form :func:`repro.obs.runtime.span` forwards)."""
        rid = current_request_id()
        if rid is not None and "request_id" not in attrs:
            attrs["request_id"] = rid
        tls = self._tls
        try:
            stack, tid = tls.stack, tls.tid
        except AttributeError:  # the thread's first span
            stack, tid = self._stack(), self._thread_tid()
        if stack:
            top = stack[-1]
            parent, depth = top.sid, top.depth + 1
        else:
            parent, depth = None, 0
        return Span(
            self, name, next(self._sid), parent, depth, attrs, tid, stack
        )

    def wrap(self, name: str, **attrs: Any):
        """Decorator form: the whole call body becomes one span."""

        def deco(fn):
            def wrapper(*args, **kwargs):
                with self.span(name, **attrs):
                    return fn(*args, **kwargs)

            wrapper.__name__ = getattr(fn, "__name__", name)
            wrapper.__doc__ = fn.__doc__
            wrapper.__wrapped__ = fn
            return wrapper

        return deco

    # ------------------------------------------------------------------
    @property
    def open_depth(self) -> int:
        """Open spans on the *calling* thread's stack."""
        return len(self._stack())

    def open_spans(self) -> list[Span]:
        """A snapshot of the spans currently open on *any* thread,
        outermost first per thread.

        Observational: list copies under the GIL are safe against
        concurrent append/pop, and a span mid-``__enter__`` simply shows
        its not-yet-stamped ``t0`` — callers synthesizing intervals must
        clamp.  Used by the flight recorder so anomaly dumps include the
        in-flight request, not just already-finished history.
        """
        with self._tid_lock:
            stacks = list(self._open_stacks.values())
        out: list[Span] = []
        for stack in stacks:
            out.extend(list(stack))
        return out

    def roots(self) -> list[Span]:
        """Finished top-level spans, in completion order."""
        return [s for s in self.spans if s.parent is None]

    def children_of(self, sid: int | None) -> list[Span]:
        """Finished children of the given span id, in completion order."""
        return [s for s in self.spans if s.parent == sid]


class _NullSpan:
    """Shared do-nothing span: the disabled-mode fast path."""

    __slots__ = ()

    def set(self, key: str, value: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Disabled tracer: every span is the shared no-op span."""

    __slots__ = ()

    tracker = None
    backend = None
    spans: list = []  # intentionally shared and always empty

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def open(self, name: str, attrs: dict[str, Any]) -> _NullSpan:
        return _NULL_SPAN

    def open_spans(self) -> list:
        return []

    def wrap(self, name: str, **attrs: Any):
        def deco(fn):
            return fn

        return deco


#: process-wide disabled tracer (see :mod:`repro.obs.runtime`)
NULL_TRACER = NullTracer()
