"""R006 obs-in-hot-loop: no observability calls in kernel loops.

The observability layer (:mod:`repro.obs`) is zero-overhead *by
contract*: the vectorized kernels are the wall-clock fast path, and a
tracer/metric call inside one of their graph-sized loops turns an
O(1)-per-call bookkeeping design into an O(m) slowdown that the
overhead-guard test only catches after the fact.  The sanctioned kernel
idiom is aggregate recording — count locally in the loop, then call
``counter.inc(total)`` once after it (see
:mod:`repro.kernels.matching`).  Hot *structures* (``structures/``)
instead bind instruments at construction and bump ``ctr.value += 1``,
which is an attribute assignment, not a call, and stays out of this
rule's way by design.

A call is flagged when all of the following hold:

* the file is in scope: under ``kernels/`` or ``service/`` — everywhere
  the zero-overhead-off contract is load-bearing;
* the call sits inside a loop (``for``/``while``/comprehension) whose
  iterables are not all constant-sized — same sizing logic as R001;
* the callee is observational: rooted at a name imported from
  ``repro.obs`` (``obs.span(...)``, ``_obs_metrics()``, ...) or a
  method named like an instrument or flight-recorder operation
  (``.inc(``, ``.observe(``, ``.counter(``, ``.gauge(``,
  ``.histogram(``, ``.event(``, ``.anomaly(``).

The service's batch pump (``while True``) records once per *drained
batch* — that is the sanctioned granularity, and those sites carry an
inline ``# repro-lint: disable=R006`` stating so.
"""

from __future__ import annotations

import ast
from typing import Iterable

from .base import FileContext, Finding, Rule, is_constant_sized
from .rules_cost import _LOOP_NODES, _loop_iterables

__all__ = ["ObsInHotLoopRule", "OBS_METHODS"]

#: method names that operate on an instrument, the active tracer, or
#: the flight recorder; no other object in the scoped packages exposes
#: these
OBS_METHODS: frozenset[str] = frozenset(
    {"inc", "observe", "counter", "gauge", "histogram", "event", "anomaly"}
)

#: R006 scope: the vectorized fast path plus the service loop
_SCOPE_PACKAGES = ("kernels", "service")


def _is_obs_module(node: ast.ImportFrom) -> bool:
    """True for any ``from ...obs[.x] import ...`` / ``from repro.obs...``."""
    mod = node.module or ""
    if node.level > 0:  # relative: module text starts at the package name
        return mod == "obs" or mod.startswith("obs.")
    return mod == "repro.obs" or mod.startswith("repro.obs.")


def _obs_aliases(tree: ast.Module) -> set[str]:
    """Local names bound to anything imported from ``repro.obs``."""
    aliases: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _is_obs_module(node):
            for alias in node.names:
                aliases.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "repro.obs" or alias.name.startswith("repro.obs."):
                    aliases.add(alias.asname or alias.name.split(".", 1)[0])
    return aliases


class ObsInHotLoopRule(Rule):
    id = "R006"
    name = "obs-in-hot-loop"
    severity = "error"
    hint = (
        "accumulate in a local variable inside the loop and record once "
        "after it (counter.inc(total)), or move the span/metric to the "
        "caller — kernel loops are the wall-clock fast path"
    )

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        if not ctx.in_package(*_SCOPE_PACKAGES):
            return
        aliases = _obs_aliases(ctx.tree)

        def is_obs_call(call: ast.Call) -> bool:
            func = call.func
            if isinstance(func, ast.Attribute) and func.attr in OBS_METHODS:
                return True
            # rooted at an obs import alias: obs.span(...), _obs_metrics()
            cur = func
            while isinstance(cur, ast.Attribute):
                cur = cur.value
            return isinstance(cur, ast.Name) and cur.id in aliases

        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call) or not is_obs_call(node):
                continue
            for anc in ctx.ancestors(node):
                if not isinstance(anc, _LOOP_NODES):
                    continue
                iters = _loop_iterables(anc)
                if iters and all(is_constant_sized(it) for it in iters):
                    continue
                kind = type(anc).__name__.lower()
                yield self.finding(
                    ctx,
                    node,
                    f"observability call inside a potentially unbounded "
                    f"{kind} on the hot path",
                )
                break  # one finding per call, not per enclosing loop
