"""Backend resolution for the kernel subsystem.

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
2. the ``REPRO_KERNEL_BACKEND`` environment variable;
3. ``"tracked"`` (so the seed's measured counts are bit-for-bit
   unchanged unless a caller opts in).

Each entry point branches on :func:`is_array_backend` and calls its
numpy kernel by name; there is no lookup table in between.
"""

from __future__ import annotations

import os

__all__ = [
    "BACKENDS",
    "TRACKED",
    "NUMPY",
    "default_backend",
    "resolve_backend",
    "is_array_backend",
]

TRACKED = "tracked"
NUMPY = "numpy"
BACKENDS = (TRACKED, NUMPY)

_ENV_VAR = "REPRO_KERNEL_BACKEND"


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
    env = os.environ.get(_ENV_VAR)
    if env:
        return _validate(env, source=f"environment variable {_ENV_VAR}")
    return TRACKED


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
