"""Lockstep randomness bridge between ``random.Random`` and numpy.

The tracked implementations draw their randomness from a shared
``random.Random`` (Mersenne Twister) that the driver threads through every
phase.  For a numpy kernel to be a *drop-in* for a tracked subroutine —
same outputs **and** same post-call generator state, so that every later
draw in the pipeline also agrees — it must consume that exact stream.

CPython's ``random.random()`` and numpy's legacy
``numpy.random.RandomState.random_sample()`` are the same generator: both
run MT19937 and derive each double from two 32-bit outputs as
``(a >> 5) * 2**26 + (b >> 6)) / 2**53``.  So a kernel can

1. open a :class:`numpy.random.RandomState` *view* of the Python
   generator's current state (:func:`randomstate_view`),
2. draw whole arrays of variates from it (vectorized), and
3. write the advanced state back (:func:`sync_python_rng`),

and the Python generator continues exactly as if the tracked code had
drawn the same variates one by one.  ``tests/test_kernels.py`` pins the
stream equivalence.

The view is not free: ``RandomState()`` plus the 624-word
``set_state``/``get_state`` round trip costs ~0.4 ms whatever the batch
size, while ``rng.random()`` costs ~0.1 µs a variate.  Below
:data:`_SMALL` variates :class:`LockstepUniform` therefore draws straight
from ``rng`` — the same generator, so the stream is identical by
construction — and opens the view only for larger batches.
"""

from __future__ import annotations

import random

import numpy as np

__all__ = [
    "randomstate_view",
    "sync_python_rng",
    "derived_generator",
    "LockstepUniform",
]

_MT_N = 624  # MT19937 state words

#: batches below this many variates are drawn with ``rng.random()``
#: directly; measured break-even against the view round trip is near
#: 5,000 variates (CPython 3.11, numpy 2.x, one x86-64 core)
_SMALL = 4096


def randomstate_view(rng: random.Random) -> np.random.RandomState:
    """A ``RandomState`` positioned exactly at ``rng``'s current state."""
    version, state, _gauss = rng.getstate()
    if version != 3:  # pragma: no cover - CPython has used version 3 forever
        raise RuntimeError(f"unsupported random.Random state version {version}")
    rs = np.random.RandomState()
    rs.set_state(("MT19937", np.asarray(state[:_MT_N], dtype=np.uint32), state[_MT_N]))
    return rs


def sync_python_rng(rng: random.Random, rs: np.random.RandomState) -> None:
    """Advance ``rng`` to ``rs``'s current position (inverse of the view)."""
    _name, keys, pos = rs.get_state()[:3]
    rng.setstate((3, tuple(int(k) for k in keys) + (int(pos),), None))


def derived_generator(rng: random.Random) -> np.random.Generator:
    """A fresh numpy ``Generator`` seeded from ``rng``'s stream.

    For the *raw* (non-lockstep) array kernels: the generator is
    independent of ``rng`` after construction, but its seed is drawn
    from the threaded stream, so results remain a pure function of the
    caller's seed — never of numpy's hidden global state.  This is the
    sanctioned way to obtain a ``Generator`` outside this module
    (rule R003 of ``repro.lint``).
    """
    return np.random.default_rng(rng.getrandbits(64))


class LockstepUniform:
    """Batched uniform draws that mirror ``rng.random()`` call for call.

    Batches below :data:`_SMALL` come straight from ``rng.random()``.
    The first larger batch opens the view, which then serves every later
    draw until :meth:`close` (or the end of the ``with`` block) writes
    the advanced state back — so a kernel that never draws, or draws
    only small batches, never pays for the state round trip.
    """

    __slots__ = ("_rng", "_rs")

    def __init__(self, rng: random.Random) -> None:
        self._rng = rng
        self._rs: np.random.RandomState | None = None

    def draw(self, k: int) -> np.ndarray:
        """The next ``k`` variates of ``rng.random()``, as a float64 array."""
        if self._rs is None:
            if k < _SMALL:
                r = self._rng.random
                return np.fromiter((r() for _ in range(k)), np.float64, k)
            self._rs = randomstate_view(self._rng)
        return self._rs.random_sample(k)

    def close(self) -> None:
        if self._rs is not None:
            sync_python_rng(self._rng, self._rs)
            self._rs = None

    def __enter__(self) -> "LockstepUniform":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
