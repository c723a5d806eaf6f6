"""R004 dropped-backend-forwarding: one run never mixes engines.

A public entry point in ``core/``/``structures/`` that accepts
``kernel_backend`` must forward it to every callee that also takes one
(functions and classes alike).  A dropped forward silently runs half the
pipeline on the default backend.

The check needs facts from *other* files (callees live anywhere), which
is what the engine's collect pass is for.
"""

from __future__ import annotations

import ast
from typing import Iterable

from .base import FileContext, Finding, Rule, dotted_name
from .config import DISPATCH_FORWARDING_PACKAGES

__all__ = ["BackendForwardingRule"]

_PARAM = "kernel_backend"


def _params_of(func: ast.FunctionDef | ast.AsyncFunctionDef) -> list[str]:
    args = func.args
    return [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)]


class BackendForwardingRule(Rule):
    id = "R004"
    name = "dropped-backend-forwarding"
    severity = "error"
    hint = (
        "forward kernel_backend= at the call site, or suppress with a "
        "comment explaining why the callee may run on the default backend"
    )

    def __init__(self) -> None:
        #: names of functions/classes (via __init__) accepting kernel_backend
        self.takes_backend: set[str] = set()

    # ------------------------------------------------------------------
    def collect(self, ctx: FileContext) -> None:
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if _PARAM in _params_of(node):
                    if node.name == "__init__":
                        owner = ctx.enclosing_function(node)
                        parent = ctx.parent(node)
                        if owner is None and isinstance(parent, ast.ClassDef):
                            self.takes_backend.add(parent.name)
                    else:
                        self.takes_backend.add(node.name)

    # ------------------------------------------------------------------
    def check(self, ctx: FileContext) -> Iterable[Finding]:
        if not ctx.in_package(*DISPATCH_FORWARDING_PACKAGES):
            return
        for func in ctx.tree.body:
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if func.name.startswith("_") or _PARAM not in _params_of(func):
                continue
            for node in ast.walk(func):
                if not isinstance(node, ast.Call):
                    continue
                name = dotted_name(node.func)
                callee = name.split(".")[-1] if name else None
                if callee is None or callee == func.name:
                    continue
                if callee not in self.takes_backend:
                    continue
                if any(kw.arg == _PARAM for kw in node.keywords):
                    continue
                yield self.finding(
                    ctx,
                    node,
                    f"'{func.name}' accepts {_PARAM} but calls "
                    f"'{callee}' (which takes {_PARAM}) without "
                    "forwarding it; the callee falls back to the default "
                    "backend",
                )
