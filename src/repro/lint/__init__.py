"""repro-lint: AST-based invariant linter for this reproduction.

The repo's two load-bearing guarantees are enforced dynamically by the
test suite: the tracked Õ(m+n)/Õ(√n) work/span bounds of Theorem 1.1
(pinned by ``tests/test_bounds.py``) and the byte-identical
tracked↔numpy pipeline results (pinned by ``tests/test_kernels.py`` /
``tests/test_stress.py`` and the differential fuzzer).  A single
uncharged loop in ``core/`` or one unsorted ``set`` iteration silently
invalidates them until a fuzz seed happens to hit it.

This package is the *static* gate: a stdlib-``ast`` analysis pass that
checks the source-level invariants behind those guarantees at lint
time, before any test runs.  Six rules ship (see ``docs/lint.md`` for
the full catalogue):

* **R001 untracked-work** — loops over non-constant-size iterables in
  cost-tracked modules whose enclosing function never charges the
  :class:`~repro.pram.tracker.Tracker`;
* **R002 nondeterministic-iteration** — iterating a ``set``/``dict``
  (incl. ``.keys()``/``.values()``/``.items()``) without an enclosing
  ``sorted(...)`` in modules covered by the byte-identical guarantee;
* **R003 raw-rng** — ``random.*`` / ``np.random.*`` module-level calls
  outside the seeded-RNG owner files (``kernels/rng.py``, the graph
  generators, the fuzz/bench entry points);
* **R004 dropped-backend-forwarding** — ``core/``/``structures/`` entry
  points that accept ``kernel_backend`` but fail to forward it to a
  callee that takes one;
* **R005 float-key-compare** — ordering comparisons / min-max keys on
  float expressions in lockstep-critical code;
* **R006 obs-in-hot-loop** — tracer/metric calls inside potentially
  graph-sized loops in ``kernels/`` (the zero-overhead fast path must
  record aggregates after the loop, never per element).

Findings are suppressed per line with ``# repro-lint: disable=R001``
(comma-separate several ids), per file with
``# repro-lint: disable-file=R001``, and grandfathered repo-wide by the
checked-in ``lint-baseline.json`` (see :mod:`repro.lint.baseline`).

Run it as ``python -m repro.lint [paths] [--format text|json]
[--baseline FILE] [--stats]``.
"""

from __future__ import annotations

from .base import Finding, Rule
from .baseline import Baseline
from .engine import ALL_RULES, LintResult, lint_paths, lint_sources

__all__ = [
    "ALL_RULES",
    "Baseline",
    "Finding",
    "LintResult",
    "Rule",
    "lint_paths",
    "lint_sources",
]
