"""Process-wide activation of the tracing/metrics layer.

The pipeline's call sites (driver phases, separator rounds, HDT batch
deletions, ...) are instrumented against *this module*, not against a
tracer threaded through every signature: ``span(...)`` delegates to the
active tracer and ``metrics()`` returns the active registry.  By default
both are the no-op singletons, so an un-traced ``parallel_dfs`` pays
only a function call per *round*, never per element.

Enable tracing by wrapping the run::

    t = Tracker()
    tracer = Tracer(tracker=t, backend="numpy")
    with activate(tracer) as obs:
        parallel_dfs(g, 0, tracker=t, kernel_backend="numpy")
    write_chrome_trace("trace.json", tracer, obs.metrics)

Structures bind their instruments at *construction* time (one registry
lookup in ``__init__``, then raw attribute bumps on the hot path), so a
structure built outside the ``activate`` scope reports to a throwaway
instrument — activate before constructing, which the driver-level entry
points (:mod:`repro.analysis.trace`, ``repro dfs --trace``) always do.

Activation is not re-entrant across *different* tracers (the previous
one is restored on exit) and is single-threaded by design — the PRAM
simulation itself is sequential.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator

from .metrics import Metrics, NULL_METRICS
from .tracer import NULL_TRACER, NullTracer, Tracer

__all__ = [
    "Observation",
    "activate",
    "enabled",
    "install",
    "metrics",
    "span",
    "traced",
    "tracer",
]

_TRACER: Tracer | NullTracer = NULL_TRACER
_METRICS: Metrics = NULL_METRICS


@dataclass
class Observation:
    """The (tracer, metrics) pair installed by :func:`activate`."""

    tracer: Tracer | NullTracer
    metrics: Metrics


def tracer() -> Tracer | NullTracer:
    """The active tracer (the no-op singleton when tracing is off)."""
    return _TRACER


def metrics() -> Metrics:
    """The active metrics registry (the no-op registry when off)."""
    return _METRICS


def enabled() -> bool:
    """True when a real tracer is active."""
    return _TRACER is not NULL_TRACER


def span(name: str, **attrs: Any):
    """Open a span on the active tracer (no-op span when disabled)."""
    return _TRACER.open(name, attrs)


def traced(name: str, **attrs: Any):
    """Decorator: each call becomes a span on the *call-time* tracer."""

    def deco(fn):
        def wrapper(*args, **kwargs):
            with _TRACER.span(name, **attrs):
                return fn(*args, **kwargs)

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    return deco


def install(
    trc: Tracer | NullTracer, mtr: Metrics | None = None
) -> Observation:
    """Install a (tracer, metrics) pair without a ``with`` block.

    The non-context twin of :func:`activate` for lifecycles that don't
    nest lexically — a service that activates at ``start()`` and
    restores at ``stop()``.  Returns the *previous* pair; pass its
    fields back (``install(prev.tracer, prev.metrics)``) to restore.
    """
    global _TRACER, _METRICS
    prev = Observation(_TRACER, _METRICS)
    _TRACER = trc
    _METRICS = (
        mtr
        if mtr is not None
        else (Metrics() if trc is not NULL_TRACER else NULL_METRICS)
    )
    return prev


@contextmanager
def activate(
    trc: Tracer, mtr: Metrics | None = None
) -> Iterator[Observation]:
    """Install ``trc`` (and a metrics registry) for the enclosed block.

    A fresh :class:`Metrics` is created when none is given.  The
    previous pair is restored on exit, so activations nest cleanly
    (inner scopes shadow outer ones).
    """
    global _TRACER, _METRICS
    prev = (_TRACER, _METRICS)
    _TRACER = trc
    _METRICS = mtr if mtr is not None else Metrics()
    try:
        yield Observation(_TRACER, _METRICS)
    finally:
        _TRACER, _METRICS = prev
