"""Command-line interface: ``python -m repro.lint``.

Exit codes: 0 — clean (every finding baselined), 1 — unbaselined
findings (or parse errors), 2 — usage error (bad rule id, unreadable
baseline).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from .baseline import Baseline, BaselineMatch
from .engine import ALL_RULES, LintResult, lint_paths

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=(
            "AST-based invariant linter for the repro codebase: "
            "cost-tracking (R001), deterministic iteration (R002), "
            "seeded randomness (R003), backend forwarding (R004), "
            "float ordering (R005), and observability placement "
            "(R006). See docs/lint.md."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        help="JSON baseline; grandfathered findings do not fail the run",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help=(
            "regenerate --baseline FILE from this run's findings "
            "(notes on surviving entries are preserved) and exit 0"
        ),
    )
    parser.add_argument(
        "--rules",
        metavar="IDS",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print a findings-per-rule summary",
    )
    return parser


def _print_text(
    result: LintResult, match: BaselineMatch | None, stream=sys.stdout
) -> None:
    to_show = match.new if match is not None else result.findings
    for f in to_show:
        print(f.render(), file=stream)
        if f.hint:
            print(f"    hint: {f.hint}", file=stream)
    for err in result.parse_errors:
        print(f"parse error: {err}", file=stream)
    if match is not None and match.stale:
        print(
            f"note: {len(match.stale)} baseline entr"
            f"{'y is' if len(match.stale) == 1 else 'ies are'} stale "
            "(violation fixed or moved); regenerate with --write-baseline",
            file=stream,
        )


def _print_json(result: LintResult, match: BaselineMatch | None) -> None:
    to_show = match.new if match is not None else result.findings
    payload = {
        "files_scanned": result.files_scanned,
        "suppressed": result.suppressed,
        "parse_errors": result.parse_errors,
        "findings": [
            {
                "rule": f.rule,
                "path": f.path,
                "line": f.line,
                "col": f.col,
                "severity": f.severity,
                "message": f.message,
                "hint": f.hint,
                "code": f.code,
            }
            for f in to_show
        ],
    }
    if match is not None:
        payload["baselined"] = len(match.matched)
        payload["stale_baseline_entries"] = [
            {"rule": r, "path": p, "code": c} for r, p, c in match.stale
        ]
    print(json.dumps(payload, indent=2))


def _print_stats(result: LintResult, match: BaselineMatch | None) -> None:
    known = {cls.id: cls.name for cls in ALL_RULES}
    counts = result.by_rule()
    print("repro-lint stats:")
    print(f"  files scanned : {result.files_scanned}")
    print(f"  suppressed    : {result.suppressed}")
    if match is not None:
        print(f"  baselined     : {len(match.matched)}")
        print(f"  new           : {len(match.new)}")
    for rule_id in sorted(known):
        print(
            f"  {rule_id} {known[rule_id]:<30}: {counts.get(rule_id, 0)}"
        )


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    only = None
    if args.rules:
        only = [r.strip() for r in args.rules.split(",") if r.strip()]
    try:
        result = lint_paths(args.paths, only=only)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.write_baseline:
        if not args.baseline:
            print("error: --write-baseline requires --baseline FILE", file=sys.stderr)
            return 2
        notes: dict[tuple[str, str, str], str] = {}
        try:
            notes = Baseline.load(args.baseline).notes
        except (OSError, ValueError, KeyError):
            pass  # first write, or an old/corrupt file being replaced
        Baseline.from_findings(result.findings, notes=notes).dump(args.baseline)
        print(
            f"wrote {args.baseline}: {len(result.findings)} finding(s) "
            f"across {result.files_scanned} file(s)"
        )
        return 0

    match: BaselineMatch | None = None
    if args.baseline:
        try:
            match = Baseline.load(args.baseline).match(result.findings)
        except (OSError, ValueError, KeyError) as exc:
            print(f"error: cannot read baseline {args.baseline}: {exc}", file=sys.stderr)
            return 2

    if args.format == "json":
        _print_json(result, match)
    else:
        _print_text(result, match)
    if args.stats:
        _print_stats(result, match)

    failing = len(match.new) if match is not None else len(result.findings)
    if result.parse_errors:
        return 1
    return 1 if failing else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
