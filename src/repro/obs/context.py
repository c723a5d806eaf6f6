"""Request-scoped correlation context for the live telemetry plane.

The service tier handles many requests concurrently: they interleave in
the batch loop and fan out to executor threads.  To reconstruct *one*
request end-to-end, every span and flight-recorder event carries the
**request id** that was
current when it was created — a :mod:`contextvars` variable, so the id
follows asyncio tasks automatically and crosses thread boundaries
explicitly via :func:`bound_call` (``loop.run_in_executor`` does *not*
propagate context, so the service wraps its compute jobs).

The id is observational metadata only: nothing in the pipeline branches
on it, and with tracing disabled nobody ever reads it — zero overhead
off, lockstep-safe on.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Callable, Iterator

__all__ = [
    "bound_call",
    "current_request_id",
    "request_scope",
]

_REQUEST_ID: ContextVar[str | None] = ContextVar(
    "repro_request_id", default=None
)


def current_request_id() -> str | None:
    """The request id of the enclosing :func:`request_scope` (or None)."""
    return _REQUEST_ID.get()


@contextmanager
def request_scope(request_id: str | None) -> Iterator[None]:
    """Make ``request_id`` current for the enclosed block.

    Nested scopes shadow outer ones and restore them on exit; passing
    ``None`` explicitly clears the id for the block.
    """
    token = _REQUEST_ID.set(request_id)
    try:
        yield
    finally:
        _REQUEST_ID.reset(token)


def bound_call(
    request_id: str | None, fn: Callable[..., Any], *args: Any, **kwargs: Any
) -> Callable[[], Any]:
    """A zero-argument callable running ``fn`` under ``request_id``.

    The executor-thread shim: ``loop.run_in_executor(pool,
    bound_call(rid, fn, ...))`` carries the correlation id onto the
    worker thread, where ``ContextVar`` inheritance would otherwise
    drop it.
    """

    def call() -> Any:
        with request_scope(request_id):
            return fn(*args, **kwargs)

    return call
