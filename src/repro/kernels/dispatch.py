"""Backend dispatch for the kernel subsystem.

Two backends exist:

* ``"tracked"`` — the per-element instrumented Python implementations
  (the measurement instrument; exact work/span accounting);
* ``"numpy"`` — the vectorized batch kernels in this package (the fast
  execution engine; aggregate work/span accounting).

Parallel time ``T_p`` is not measured on an engine: it is derived from
the tracked work and span through Brent's bound
(:func:`repro.pram.tracker.brent_time_bounds`).

Resolution order for an entry point's ``backend`` argument:

1. an explicit ``backend="tracked"|"numpy"`` wins;
2. a process-wide default installed with :func:`set_default_backend` or
   the :func:`use_backend` context manager;
3. the ``REPRO_KERNEL_BACKEND`` environment variable;
4. ``"tracked"`` (so the seed's measured counts are bit-for-bit
   unchanged unless a caller opts in).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Callable, Iterator

__all__ = [
    "BACKENDS",
    "TRACKED",
    "NUMPY",
    "default_backend",
    "set_default_backend",
    "use_backend",
    "resolve_backend",
    "is_array_backend",
    "register_kernel",
    "get_kernel",
    "registered_kernels",
]

TRACKED = "tracked"
NUMPY = "numpy"
BACKENDS = (TRACKED, NUMPY)

_ENV_VAR = "REPRO_KERNEL_BACKEND"

#: process-wide override; None = fall through to the environment
_default: str | None = None


def _validate(name: str, source: str = "backend argument") -> str:
    """Reject unknown backend names where they enter, naming the source.

    A bad explicit argument or a stale ``REPRO_KERNEL_BACKEND`` fails
    here with the registered names, not deep inside a kernel.
    """
    if name not in BACKENDS:
        raise ValueError(
            f"unknown kernel backend {name!r} (from {source}); "
            f"registered backends: {', '.join(BACKENDS)}"
        )
    return name


def default_backend() -> str:
    """The backend used when an entry point gets ``backend=None``."""
    if _default is not None:
        return _default
    env = os.environ.get(_ENV_VAR)
    if env:
        return _validate(env, source=f"environment variable {_ENV_VAR}")
    return TRACKED


def set_default_backend(name: str | None) -> None:
    """Install (or with None, clear) the process-wide default backend."""
    global _default
    _default = (
        _validate(name, source="set_default_backend") if name is not None else None
    )


@contextmanager
def use_backend(name: str) -> Iterator[None]:
    """Temporarily switch the process-wide default backend (tests)."""
    global _default
    prev = _default
    _default = _validate(name, source="use_backend")
    try:
        yield
    finally:
        _default = prev


def resolve_backend(backend: str | None) -> str:
    """Resolve an entry point's ``backend`` argument to a concrete name."""
    if backend is None:
        return default_backend()
    return _validate(backend)


def is_array_backend(backend: str | None) -> bool:
    """True when ``backend`` resolves to the whole-array (numpy) engine.

    Entry points take the vectorized fast path when this holds and the
    instrumented round structure otherwise.
    """
    return resolve_backend(backend) == NUMPY


# ----------------------------------------------------------------------
# Kernel registry: maps (operation, backend) to the callable implementing
# it, so tooling can enumerate what each backend provides and entry
# points can look implementations up by name.
# ----------------------------------------------------------------------

_REGISTRY: dict[tuple[str, str], Callable] = {}


def register_kernel(operation: str, backend: str, fn: Callable) -> Callable:
    """Register ``fn`` as ``operation``'s implementation under ``backend``."""
    _validate(backend, source="register_kernel")
    _REGISTRY[(operation, backend)] = fn
    return fn


def get_kernel(operation: str, backend: str | None = None) -> Callable:
    """The registered implementation of ``operation`` for ``backend``."""
    resolved = resolve_backend(backend)
    try:
        return _REGISTRY[(operation, resolved)]
    except KeyError:
        have = sorted(op for op, b in _REGISTRY if b == resolved)
        raise KeyError(
            f"no {resolved!r} kernel registered for operation {operation!r}; "
            f"registered operations: {', '.join(have) or '(none)'}"
        ) from None


def registered_kernels() -> list[tuple[str, str]]:
    """All registered ``(operation, backend)`` pairs, sorted."""
    return sorted(_REGISTRY)
