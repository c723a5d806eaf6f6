"""Rule framework and shared AST utilities for repro-lint.

A :class:`Rule` sees every scanned file twice: a *collect* pass (so
cross-file facts like which callables take ``kernel_backend`` can be
gathered before any check fires) and a *check* pass that yields
:class:`Finding` objects.  A :class:`FileContext` packages everything
a rule needs about one file — parsed tree, parent links, annotation
subtrees, the module-relative path used for scope decisions — and is
shared across rules so each file is parsed exactly once.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable, Iterator

__all__ = [
    "Finding",
    "FileContext",
    "Rule",
    "dotted_name",
    "call_name",
    "is_constant_sized",
]


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    rule: str
    path: str  # posix path, relative to the scan root's parent (stable key)
    line: int
    col: int
    message: str
    severity: str  # "error" | "warning"
    hint: str  # how to fix (or why it may be a false positive)
    code: str = ""  # stripped source line; the baseline's content key

    def render(self) -> str:
        loc = f"{self.path}:{self.line}:{self.col}"
        return f"{loc}: {self.rule} [{self.severity}] {self.message}"


@dataclass
class FileContext:
    """Everything the rules need to know about one scanned file."""

    path: str  # as reported in findings (posix)
    rel: str  # path relative to the ``repro`` package root, e.g. "core/dfs.py"
    source: str
    tree: ast.Module
    lines: list[str] = field(default_factory=list)
    #: child id -> parent node, for upward walks
    parents: dict[int, ast.AST] = field(default_factory=dict)
    #: ids of nodes inside annotation positions (never executed at runtime)
    annotation_ids: set[int] = field(default_factory=set)

    @classmethod
    def build(cls, path: str, rel: str, source: str) -> "FileContext":
        tree = ast.parse(source, filename=path)
        ctx = cls(path=path, rel=rel, source=source, tree=tree)
        ctx.lines = source.splitlines()
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                ctx.parents[id(child)] = node
        ctx.annotation_ids = _annotation_ids(tree)
        return ctx

    # ------------------------------------------------------------------
    def parent(self, node: ast.AST) -> ast.AST | None:
        return self.parents.get(id(node))

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        cur = self.parent(node)
        while cur is not None:
            yield cur
            cur = self.parent(cur)

    def enclosing_function(
        self, node: ast.AST
    ) -> ast.FunctionDef | ast.AsyncFunctionDef | None:
        for anc in self.ancestors(node):
            if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return anc
        return None

    def in_annotation(self, node: ast.AST) -> bool:
        return id(node) in self.annotation_ids

    def source_line(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def in_package(self, *packages: str) -> bool:
        """True when this file lives under one of the given subpackages
        of ``repro`` (e.g. ``ctx.in_package("core", "pram")``)."""
        top = self.rel.split("/", 1)[0]
        return top in packages


class Rule:
    """Base class for lint rules.

    Subclasses set the class attributes and override :meth:`check`
    (and :meth:`collect` when they need cross-file facts).  One rule
    instance is used for a whole engine run, so ``collect`` may stash
    state on ``self``.
    """

    id: str = "R000"
    name: str = "base"
    severity: str = "error"
    hint: str = ""

    def collect(self, ctx: FileContext) -> None:  # noqa: B027 - optional hook
        """First pass over every file; gather cross-file facts."""

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        """Second pass; yield findings for this file."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    def finding(
        self, ctx: FileContext, node: ast.AST, message: str, hint: str | None = None
    ) -> Finding:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0) + 1
        return Finding(
            rule=self.id,
            path=ctx.path,
            line=line,
            col=col,
            message=message,
            severity=self.severity,
            hint=hint if hint is not None else self.hint,
            code=ctx.source_line(line),
        )


# ----------------------------------------------------------------------
# shared AST helpers
# ----------------------------------------------------------------------

def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    cur = node
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if isinstance(cur, ast.Name):
        parts.append(cur.id)
        return ".".join(reversed(parts))
    return None


def call_name(node: ast.Call) -> str | None:
    """The callee's dotted name (``sorted``, ``np.lexsort``, ...)."""
    return dotted_name(node.func)


def is_constant_sized(expr: ast.AST) -> bool:
    """True for iterables whose size is a compile-time constant.

    Loops over these are O(1) in the graph size and never need a
    tracker charge: literal tuples/lists/sets/dicts, string constants,
    and ``range``/``reversed``/``zip``/``enumerate`` over constant-sized
    arguments.
    """
    if isinstance(expr, ast.Constant):
        return True
    if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
        return True
    if isinstance(expr, ast.Dict):
        return True
    if isinstance(expr, ast.Call):
        name = call_name(expr)
        if name in {"range", "reversed", "zip", "enumerate"}:
            return all(
                isinstance(a, ast.Constant)
                or isinstance(a, ast.UnaryOp)
                and isinstance(a.operand, ast.Constant)
                or is_constant_sized(a)
                for a in expr.args
            )
    return False


def _annotation_ids(tree: ast.Module) -> set[int]:
    """ids of every node that only appears in an annotation position.

    With ``from __future__ import annotations`` these are never
    evaluated, so e.g. a ``gen: np.random.Generator`` parameter must
    not trip the raw-rng rule.
    """
    out: set[int] = set()

    def mark(sub: ast.AST | None) -> None:
        if sub is None:
            return
        out.add(id(sub))
        for node in ast.walk(sub):
            out.add(id(node))

    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            mark(node.returns)
            args = node.args
            extra = [a for a in (args.vararg, args.kwarg) if a is not None]
            for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs, *extra):
                mark(arg.annotation)
        elif isinstance(node, ast.AnnAssign):
            mark(node.annotation)
        elif isinstance(node, ast.arg):
            mark(node.annotation)
    return out
