"""Engine: file discovery, two-pass rule execution, suppression filter.

The engine's core operates on ``(report_path, package_rel_path,
source)`` triples, so tests can lint synthetic sources under
fabricated ``repro/...`` paths without touching the filesystem
(:func:`lint_sources`).  :func:`lint_paths` is the filesystem wrapper
the CLI uses.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from .base import FileContext, Finding, Rule
from .rules_cost import UntrackedWorkRule
from .rules_determinism import FloatKeyCompareRule, NondeterministicIterationRule
from .rules_dispatch import BackendForwardingRule
from .rules_obs import ObsInHotLoopRule
from .rules_rng import RawRngRule
from .suppress import parse_suppressions

__all__ = ["ALL_RULES", "LintResult", "lint_paths", "lint_sources", "make_rules"]

#: rule classes in id order; instantiate fresh per run (rules carry
#: collect-pass state)
ALL_RULES: tuple[type[Rule], ...] = (
    UntrackedWorkRule,
    NondeterministicIterationRule,
    RawRngRule,
    BackendForwardingRule,
    FloatKeyCompareRule,
    ObsInHotLoopRule,
)


def make_rules(only: Sequence[str] | None = None) -> list[Rule]:
    rules = [cls() for cls in ALL_RULES]
    if only is not None:
        wanted = set(only)
        unknown = wanted - {r.id for r in rules}
        if unknown:
            raise ValueError(f"unknown rule ids: {', '.join(sorted(unknown))}")
        rules = [r for r in rules if r.id in wanted]
    return rules


@dataclass
class LintResult:
    """Findings of one engine run, plus per-file bookkeeping."""

    findings: list[Finding] = field(default_factory=list)
    files_scanned: int = 0
    #: findings dropped by inline/file suppressions (for --stats)
    suppressed: int = 0
    parse_errors: list[str] = field(default_factory=list)

    def by_rule(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for f in self.findings:
            counts[f.rule] = counts.get(f.rule, 0) + 1
        return dict(sorted(counts.items()))


def lint_sources(
    files: Sequence[tuple[str, str, str]],
    only: Sequence[str] | None = None,
) -> LintResult:
    """Lint ``(report_path, rel_path, source)`` triples.

    ``rel_path`` is the path relative to the ``repro`` package root
    (e.g. ``"core/dfs.py"``) and drives every scope decision in
    :mod:`repro.lint.config`; ``report_path`` is only used in output.
    """
    result = LintResult()
    rules = make_rules(only)
    contexts: list[tuple[FileContext, object]] = []
    for report_path, rel, source in files:
        try:
            ctx = FileContext.build(report_path, rel, source)
        except SyntaxError as exc:
            result.parse_errors.append(f"{report_path}: {exc.msg} (line {exc.lineno})")
            continue
        contexts.append((ctx, parse_suppressions(source)))
    result.files_scanned = len(contexts)

    for ctx, _sup in contexts:
        for rule in rules:
            rule.collect(ctx)
    for ctx, sup in contexts:
        for rule in rules:
            for finding in rule.check(ctx):
                if sup.is_suppressed(finding.rule, finding.line):  # type: ignore[attr-defined]
                    result.suppressed += 1
                else:
                    result.findings.append(finding)
    result.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return result


def _package_rel(path: Path) -> str:
    """Path relative to the innermost ``repro`` package directory.

    ``src/repro/core/dfs.py`` -> ``core/dfs.py``.  Files outside any
    ``repro`` directory keep their name, which places them outside
    every scoped package (only the unscoped rules apply).
    """
    parts = path.as_posix().split("/")
    for i in range(len(parts) - 2, -1, -1):
        if parts[i] == "repro":
            return "/".join(parts[i + 1 :])
    return parts[-1]


def discover_files(paths: Iterable[str | Path]) -> list[Path]:
    out: list[Path] = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            out.extend(sorted(q for q in p.rglob("*.py") if "egg-info" not in str(q)))
        elif p.suffix == ".py":
            out.append(p)
    # de-duplicate while keeping order
    seen: set[Path] = set()
    unique = []
    for p in out:
        if p not in seen:
            seen.add(p)
            unique.append(p)
    return unique


def lint_paths(
    paths: Sequence[str | Path],
    only: Sequence[str] | None = None,
) -> LintResult:
    """Lint files/directories on disk (the CLI entry)."""
    triples: list[tuple[str, str, str]] = []
    for p in discover_files(paths):
        report = os.path.relpath(p)
        source = p.read_text(encoding="utf-8")
        triples.append((Path(report).as_posix(), _package_rel(p), source))
    return lint_sources(triples, only=only)
