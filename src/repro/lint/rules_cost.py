"""R001 untracked-work: loops in tracked modules must charge the Tracker.

Theorem 1.1's Õ(m+n) work / Õ(√n) span bounds are *measured*, not
assumed: every elementary operation in the cost-tracked modules goes
through :meth:`Tracker.op` / :meth:`Tracker.charge` (or a
``parallel_for`` whose body charges per item).  A loop over a
graph-sized iterable in a function that never touches the tracker is
work the bound-pin tests cannot see — exactly the failure mode this
rule makes impossible to merge silently.

A loop is flagged when all of the following hold:

* the file lives in a tracked package (``core/``, ``structures/``,
  ``matching/``, ``listrank/``, ``pram/``), minus the configured
  exemptions (the cost model itself and the verification oracle);
* the loop's iterable is not constant-sized (literal tuples, plain
  ``range(3)`` etc. are O(1) in the graph size);
* the *nearest enclosing function* contains no tracker-charging call
  anywhere in its body (``.op(``, ``.charge(``, ``.parallel_for(``,
  ``.parallel(``, ``.primitive(``).

Module-level loops (import-time setup) are out of scope — they run
once per process, not per algorithm invocation.
"""

from __future__ import annotations

import ast
from typing import Iterable

from .base import FileContext, Finding, Rule, is_constant_sized
from .config import R001_SKIP_FILES, TRACKED_PACKAGES

__all__ = ["UntrackedWorkRule", "CHARGE_METHODS"]

#: Tracker methods that account work/span.  Matching on the attribute
#: name (``t.op``, ``self.t.charge``, ``tracker.parallel_for`` ...) is
#: deliberate: the tracked modules thread the tracker under several
#: names, and no other object in the codebase exposes these methods.
CHARGE_METHODS: frozenset[str] = frozenset(
    {
        "op",
        "charge",
        "parallel_for",
        "parallel",
        "primitive",
    }
)

_LOOP_NODES = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _charges_tracker(func: ast.AST) -> bool:
    for node in ast.walk(func):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in CHARGE_METHODS
        ):
            return True
    return False


def _loop_iterables(node: ast.AST) -> list[ast.AST]:
    if isinstance(node, ast.For):
        return [node.iter]
    if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
        return [gen.iter for gen in node.generators]
    return []  # While: no iterable expression to size up


class UntrackedWorkRule(Rule):
    id = "R001"
    name = "untracked-work"
    severity = "error"
    hint = (
        "charge the loop through the enclosing function's Tracker "
        "(t.op/t.charge/t.parallel_for), or suppress with a comment "
        "saying why this code is outside Theorem 1.1's cost budget"
    )

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        if not ctx.in_package(*TRACKED_PACKAGES) or ctx.rel in R001_SKIP_FILES:
            return
        #: nearest-function charge status, memoized per def
        charges: dict[int, bool] = {}
        for node in ast.walk(ctx.tree):
            if not isinstance(node, _LOOP_NODES):
                continue
            func = ctx.enclosing_function(node)
            if func is None:
                continue  # import-time setup, runs once per process
            key = id(func)
            if key not in charges:
                charges[key] = _charges_tracker(func)
            if charges[key]:
                continue
            iters = _loop_iterables(node)
            if iters and all(is_constant_sized(it) for it in iters):
                continue
            kind = type(node).__name__.lower()
            yield self.finding(
                ctx,
                node,
                f"{kind} over a potentially graph-sized iterable in tracked "
                f"function '{func.name}', which never charges the Tracker",
            )
