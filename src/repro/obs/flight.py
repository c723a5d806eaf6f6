"""Flight recorder: a bounded ring of recent spans/events, dumped on anomaly.

The offline tracer (:mod:`repro.obs.tracer` + ``repro dfs --trace``)
explains a run you *chose* to trace.  A long-lived service needs the
opposite: always-on recording cheap enough to leave running, bounded so
it cannot grow, and dumped automatically **at the moment something goes
wrong** — the slow request is explained by the spans that are already in
the buffer, not by a rerun that won't reproduce it.

A :class:`FlightRecorder` couples three bounded pieces:

* a ring-limited :class:`~repro.obs.tracer.Tracer` (``limit`` spans,
  oldest evicted) holding the recent span history across every thread;
* an event ring (``deque(maxlen=...)`` of tuples) for point-in-time
  records — request completions, protocol errors —
  each stamped with the current
  :func:`~repro.obs.context.current_request_id`;
* a :class:`~repro.obs.metrics.Metrics` registry snapshot attached to
  every dump.

:meth:`FlightRecorder.anomaly` is the trigger: it records the anomaly
as an event, bumps the per-reason counter, and (when a ``dump_dir`` is
configured) writes a Perfetto-compatible ``trace_event`` bundle —
complete events for spans, instant events (``ph: "i"``) for the event
ring — capped at ``max_dumps`` files per process so a flapping anomaly
cannot fill a disk.  Bundles pass
:func:`~repro.obs.export.validate_trace_events` by construction (tested).

Like the rest of :mod:`repro.obs`, the recorder is observational only
and defaults to off: the module-level :data:`NULL_RECORDER` swallows
everything, so instrumented call sites (the service loop) cost one
no-op method call when nothing is installed.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from typing import Any, Callable

from .context import current_request_id
from .export import TRACE_PID, _span_args, to_trace_events
from .metrics import Metrics
from .tracer import Tracer

__all__ = [
    "FlightRecorder",
    "NullFlightRecorder",
    "NULL_RECORDER",
    "install_recorder",
    "recorder",
]


class FlightRecorder:
    """Bounded always-on span/event recorder with anomaly dumps.

    ``capacity`` bounds both rings; ``tracer``/``metrics`` may be
    supplied to join an existing observability scope (the service does
    this when constructed inside ``activate()``), otherwise the recorder
    owns a fresh ring-limited tracer and registry.  ``dump_dir`` enables
    file dumps (created on first write); ``clock`` is injectable for
    deterministic tests and must match the tracer's.
    """

    def __init__(
        self,
        capacity: int = 4096,
        *,
        tracer: Tracer | None = None,
        metrics: Metrics | None = None,
        tracker: Any = None,
        backend: str | None = None,
        dump_dir: str | None = None,
        max_dumps: int = 16,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        if capacity < 2:
            raise ValueError("flight recorder capacity must be >= 2")
        self.capacity = capacity
        self.tracer = (
            tracer
            if tracer is not None
            else Tracer(
                tracker=tracker, clock=clock, backend=backend, limit=capacity
            )
        )
        self.metrics = metrics if metrics is not None else Metrics()
        self.clock = clock
        self.dump_dir = dump_dir
        self.max_dumps = max_dumps
        #: anomaly reason -> count (every trigger, dumped or not)
        self.anomalies: dict[str, int] = {}
        #: paths of bundles written, in dump order
        self.dumps: list[str] = []
        self._events: deque[tuple] = deque(maxlen=capacity)
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def event(self, name: str, **attrs: Any) -> None:
        """Record one point-in-time event (bounded; oldest evicted).

        The current request id is captured automatically; ``attrs`` must
        be JSON-serializable (they ride into the dump's ``args``).
        """
        self._events.append(
            (self.clock(), name, current_request_id(), attrs)
        )

    def events(self) -> list[dict[str, Any]]:
        """The retained events, oldest first, as plain dicts."""
        out = []
        for ts, name, rid, attrs in list(self._events):
            rec = {"ts": ts, "name": name, "attrs": dict(attrs)}
            if rid is not None:
                rec["request_id"] = rid
            out.append(rec)
        return out

    # ------------------------------------------------------------------
    # anomaly trigger
    # ------------------------------------------------------------------
    def anomaly(self, reason: str, **attrs: Any) -> str | None:
        """Record an anomaly; dump the rings when a dump dir is set.

        Returns the bundle path, or None when dumping is disabled or
        the ``max_dumps`` cap is exhausted (the event and counter are
        recorded regardless, so exhaustion is still visible in stats).
        """
        self.event("anomaly." + reason, **attrs)
        with self._lock:
            self.anomalies[reason] = self.anomalies.get(reason, 0) + 1
        if self.dump_dir is None:
            return None
        return self.dump(reason)

    def dump(self, reason: str = "manual") -> str | None:
        """Write one Perfetto bundle of the current rings; returns its
        path (None once ``max_dumps`` bundles exist)."""
        if self.dump_dir is None:
            return None
        with self._lock:
            if len(self.dumps) >= self.max_dumps:
                return None
            seq = len(self.dumps)
            path = os.path.join(
                self.dump_dir, f"flight-{seq:03d}-{reason}.json"
            )
            self.dumps.append(path)
        os.makedirs(self.dump_dir, exist_ok=True)
        doc = {
            "traceEvents": self.to_trace_events(),
            "displayTimeUnit": "ms",
            "otherData": {
                "reason": reason,
                "backend": self.tracer.backend,
                "anomalies": dict(sorted(self.anomalies.items())),
                "metrics": self.metrics.as_dict(),
            },
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, sort_keys=True)
            fh.write("\n")
        return path

    def to_trace_events(self) -> list[dict[str, Any]]:
        """Span (complete) + event (instant) records as ``trace_event``
        dicts, schema-valid under
        :func:`~repro.obs.export.validate_trace_events`.

        Spans still *open* at dump time (the batch around a slow
        request, the dispatch around a worker fault) are synthesized as
        complete events running up to "now" and marked
        ``in_flight: true`` — the anomaly fires mid-span, and that span
        is the one the dump exists to show.
        """
        events = to_trace_events(self.tracer)
        origin = self.tracer.t_origin
        now = self.clock()
        for span in self.tracer.open_spans():
            ts = max(0.0, span.t0 - origin)
            events.append(
                {
                    "name": span.name,
                    "cat": span.name.split(".", 1)[0].split(":", 1)[0],
                    "ph": "X",
                    "ts": round(ts * 1e6, 3),
                    "dur": round(max(0.0, now - origin - ts) * 1e6, 3),
                    "pid": TRACE_PID,
                    "tid": span.tid,
                    "args": {**_span_args(span), "in_flight": True},
                }
            )
        events.sort(key=lambda e: (e["tid"], e["ts"], -e["dur"]))
        for ts, name, rid, attrs in list(self._events):
            args = dict(attrs)
            if rid is not None:
                args["request_id"] = rid
            events.append(
                {
                    "name": name,
                    "cat": name.split(".", 1)[0].split(":", 1)[0],
                    "ph": "i",
                    "ts": round(max(0.0, ts - origin) * 1e6, 3),
                    "s": "t",
                    "pid": TRACE_PID,
                    "tid": 1,
                    "args": args,
                }
            )
        return events

    def stats(self) -> dict[str, Any]:
        """Bounded-state summary for the service ``stats`` op."""
        return {
            "capacity": self.capacity,
            "spans": len(self.tracer.spans),
            "events": len(self._events),
            "anomalies": dict(sorted(self.anomalies.items())),
            "dumps": list(self.dumps),
        }


class NullFlightRecorder:
    """Disabled recorder: every operation is a no-op.

    Instrumented sites (the service loop) call through this
    when nothing is installed — one method call, no ring, no dumps.
    """

    __slots__ = ()

    dump_dir = None
    anomalies: dict = {}
    dumps: list = []

    def event(self, name: str, **attrs: Any) -> None:
        pass

    def anomaly(self, reason: str, **attrs: Any) -> None:
        return None

    def dump(self, reason: str = "manual") -> None:
        return None

    def events(self) -> list:
        return []

    def stats(self) -> dict:
        return {}


#: process-wide disabled recorder
NULL_RECORDER = NullFlightRecorder()

_RECORDER: FlightRecorder | NullFlightRecorder = NULL_RECORDER


def recorder() -> FlightRecorder | NullFlightRecorder:
    """The active flight recorder (no-op singleton when none installed)."""
    return _RECORDER


def install_recorder(
    rec: FlightRecorder | NullFlightRecorder | None,
) -> FlightRecorder | NullFlightRecorder:
    """Install ``rec`` process-wide (None = uninstall); returns the
    previous recorder so callers can restore it."""
    global _RECORDER
    prev = _RECORDER
    _RECORDER = rec if rec is not None else NULL_RECORDER
    return prev
