"""Bench-regression watchdog over the ``BENCH_PR*.json`` ledgers.

Every benchmark PR publishes a provenance-stamped JSON ledger
(:mod:`benchmarks.conftest`): E17 end-to-end ratios and per-phase
profiles, E19 Brent envelopes, E20 service throughput/latency.  Those
files already live in ``benchmarks/results/`` — this module turns them
from a passive archive into a **gate**: diff two ledgers (or every
consecutive pair in the directory), classify each shared numeric metric,
and fail when a *portable* metric regressed past its threshold.

Metric classes (``classify``):

* **gated** — dimensionless, machine-portable quantities where both
  sides of the division were measured on the *same* host in the *same*
  run, so the value travels across machines: ``ratio``/``speedup``
  (tracked-vs-numpy), ``*hit_rate``, and the derived ``ok_fraction`` of
  any list of ``{"ok": bool, ...}`` verdict records (the E19
  Brent-envelope pass rate).  A relative drop beyond ``--threshold``
  (default 10%) is a regression → exit 1.
* **advisory** — dimensioned, machine-dependent quantities (wall
  seconds, latency quantiles, peak RSS, ops/s, deterministic
  work/span counts).  Reported as warnings past
  ``--advisory-threshold`` (default 25%), never fatal unless
  ``--gate-advisory`` (for runs where old and new ledgers are known to
  come from the same host, e.g. a before/after pair in CI).
* everything else (provenance stamps, workload descriptors like
  ``n``/``m``, counters that legitimately drift) — ignored.

Only paths present in **both** ledgers are compared, so consecutive PR
ledgers with disjoint experiment sets pass trivially — the gate bites
exactly when a PR re-measures an experiment a previous PR published.

Entries are compared only when they ran the same thing: an experiment
whose provenance stamp (:data:`PROVENANCE_KEYS` — the engine(s) and the
absorption structure the bench passed) differs between the two ledgers
is **refused** — listed in the report, none of its metrics compared.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import re
import sys
from dataclasses import dataclass, field
from typing import Any, Iterator

__all__ = [
    "PROVENANCE_KEYS",
    "Delta",
    "RegressionReport",
    "classify",
    "compare",
    "compare_dir",
    "format_report",
    "numeric_leaves",
    "main",
]

#: provenance fields two ledger entries must agree on to be compared (a
#: field absent from either entry is not known to differ)
PROVENANCE_KEYS = ("kernel_backend", "structure")

#: leaf names (last dotted segment) gated by default: dimensionless and
#: machine-portable, higher is better
_GATED = re.compile(r"(^|_)(ratio|speedup|ok_fraction)$|hit_rate$")

#: leaf names reported as advisory: real units, machine-dependent
_ADVISORY = re.compile(
    r"(_s|_ms|_kb|_mb)$"
    r"|(^|_)(p50|p90|p99|mean|min|max|work|span|elapsed)$"
    r"|_per_s$"
)

#: advisory metrics where *higher* is better (throughput-shaped); the
#: rest of the advisory class is time/memory-shaped (lower is better)
_HIGHER_BETTER_ADVISORY = re.compile(r"_per_s$")


def numeric_leaves(doc: Any, path: str = "") -> dict[str, float]:
    """Flatten a ledger into ``dotted.path -> float`` numeric leaves.

    Lists recurse with ``[i]`` index segments; a list of dicts carrying
    an ``"ok"`` bool additionally yields a derived ``<path>.ok_fraction``
    leaf (the E19 verdict pass rate) so envelope flapping is gated as
    one portable number instead of per-entry timing noise.
    """
    out: dict[str, float] = {}
    if isinstance(doc, bool):
        return out
    if isinstance(doc, (int, float)):
        out[path] = float(doc)
        return out
    if isinstance(doc, dict):
        for key in sorted(doc):
            sub = f"{path}.{key}" if path else str(key)
            out.update(numeric_leaves(doc[key], sub))
        return out
    if isinstance(doc, list):
        oks = [
            item["ok"]
            for item in doc
            if isinstance(item, dict) and isinstance(item.get("ok"), bool)
        ]
        if oks:
            out[f"{path}.ok_fraction" if path else "ok_fraction"] = sum(
                oks
            ) / len(oks)
        for i, item in enumerate(doc):
            out.update(numeric_leaves(item, f"{path}[{i}]"))
        return out
    return out


def classify(path: str) -> tuple[str | None, bool]:
    """``(class, higher_is_better)`` for one dotted leaf path.

    ``class`` is ``"gated"``, ``"advisory"``, or ``None`` (ignored).
    """
    leaf = path.rsplit(".", 1)[-1]
    leaf = re.sub(r"\[\d+\]$", "", leaf)
    if _GATED.search(leaf):
        return "gated", True
    if _ADVISORY.search(leaf):
        return "advisory", bool(_HIGHER_BETTER_ADVISORY.search(leaf))
    # per-phase profiles and t_p sweeps key samples by phase/size/width,
    # so the leaf name alone (e.g. "absorb", "2") carries no unit — an
    # enclosing segment does
    segments = re.sub(r"\[\d+\]", "", path).split(".")
    if any(
        s in ("phase_profile", "numpy_phase_profile", "t_p")
        for s in segments[:-1]
    ):
        return "advisory", False
    return None, False


@dataclass
class Delta:
    """One compared metric: old vs new with its classification."""

    path: str
    kind: str  # "gated" | "advisory"
    old: float
    new: float
    higher_better: bool
    #: signed relative change toward-worse (positive = worsened)
    worsening: float = field(init=False)

    def __post_init__(self) -> None:
        if self.old == 0:
            self.worsening = 0.0 if self.new == 0 else float("inf")
        else:
            rel = (self.new - self.old) / abs(self.old)
            self.worsening = -rel if self.higher_better else rel


@dataclass
class RegressionReport:
    """The outcome of one ledger-pair comparison."""

    old_path: str
    new_path: str
    compared: int
    regressions: list[Delta]
    warnings: list[Delta]
    #: (entry name, provenance field, old value, new value) of every
    #: entry left uncompared because its provenance differs
    refused: list[tuple[str, str, Any, Any]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.regressions


def compare(
    old_doc: Any,
    new_doc: Any,
    *,
    threshold: float = 0.10,
    advisory_threshold: float = 0.25,
    gate_advisory: bool = False,
    old_path: str = "<old>",
    new_path: str = "<new>",
) -> RegressionReport:
    """Diff two ledger documents into a :class:`RegressionReport`."""
    refused = _provenance_mismatches(old_doc, new_doc)
    if refused:
        skip = {name for name, *_ in refused}
        old_doc = {k: v for k, v in old_doc.items() if k not in skip}
        new_doc = {k: v for k, v in new_doc.items() if k not in skip}
    old = numeric_leaves(old_doc)
    new = numeric_leaves(new_doc)
    regressions: list[Delta] = []
    warns: list[Delta] = []
    compared = 0
    for path in sorted(set(old) & set(new)):
        kind, higher = classify(path)
        if kind is None:
            continue
        compared += 1
        d = Delta(path, kind, old[path], new[path], higher)
        limit = threshold if kind == "gated" else advisory_threshold
        if d.worsening <= limit:
            continue
        if kind == "gated" or gate_advisory:
            regressions.append(d)
        else:
            warns.append(d)
    return RegressionReport(
        old_path, new_path, compared, regressions, warns, refused
    )


def _provenance_mismatches(
    old_doc: Any, new_doc: Any
) -> list[tuple[str, str, Any, Any]]:
    """The shared top-level entries whose provenance stamps disagree."""
    if not isinstance(old_doc, dict) or not isinstance(new_doc, dict):
        return []
    out = []
    for name in sorted(set(old_doc) & set(new_doc)):
        a, b = old_doc[name], new_doc[name]
        if not isinstance(a, dict) or not isinstance(b, dict):
            continue
        for key in PROVENANCE_KEYS:
            if key in a and key in b and a[key] != b[key]:
                out.append((name, key, a[key], b[key]))
                break
    return out


def _load(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _ledger_order(path: str) -> tuple[int, str]:
    """Sort key: the PR number inside ``BENCH_PR<k>.json`` when present."""
    m = re.search(r"BENCH_PR(\d+)", os.path.basename(path))
    return (int(m.group(1)) if m else 1 << 30, path)


def compare_dir(
    directory: str,
    *,
    threshold: float = 0.10,
    advisory_threshold: float = 0.25,
    gate_advisory: bool = False,
    since: int = 0,
) -> Iterator[RegressionReport]:
    """Compare every consecutive ``BENCH_PR*.json`` pair in a directory.

    ``since`` drops ledgers below that PR number — early ledgers predate
    the array engines and their ratios moved for *intended* reasons;
    gating starts where the measurement methodology stabilized.
    """
    paths = sorted(
        (
            p
            for p in glob.glob(os.path.join(directory, "BENCH_PR*.json"))
            if _ledger_order(p)[0] >= since
        ),
        key=_ledger_order,
    )
    for older, newer in zip(paths, paths[1:]):
        yield compare(
            _load(older),
            _load(newer),
            threshold=threshold,
            advisory_threshold=advisory_threshold,
            gate_advisory=gate_advisory,
            old_path=older,
            new_path=newer,
        )


def format_report(report: RegressionReport) -> str:
    """Human-readable summary of one pair comparison."""
    a = os.path.basename(report.old_path)
    b = os.path.basename(report.new_path)
    lines = [
        f"{a} -> {b}: {report.compared} shared metric(s), "
        f"{len(report.regressions)} regression(s), "
        f"{len(report.warnings)} warning(s)"
        + (f", {len(report.refused)} refused" if report.refused else "")
    ]
    for name, key, old, new in report.refused:
        lines.append(
            f"  refused: {name} ran differently ({key} {old!r} -> {new!r})"
        )
    for tag, deltas in (
        ("REGRESSION", report.regressions),
        ("warning", report.warnings),
    ):
        for d in deltas:
            arrow = "down" if d.higher_better else "up"
            lines.append(
                f"  {tag}: {d.path} [{d.kind}] "
                f"{d.old:g} -> {d.new:g} "
                f"({d.worsening * 100.0:+.1f}% {arrow}-is-worse)"
            )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="repro-regress",
        description="diff benchmark ledgers and gate on portable-metric "
        "regressions (docs/observability.md)",
    )
    ap.add_argument("ledgers", nargs="*", metavar="LEDGER",
                    help="exactly two ledger JSONs: OLD NEW")
    ap.add_argument("--dir", default=None, metavar="DIR",
                    help="compare every consecutive BENCH_PR*.json pair "
                         "in DIR instead")
    ap.add_argument("--since", type=int, default=0, metavar="PR",
                    help="with --dir: ignore ledgers below this PR "
                         "number (pre-methodology history)")
    ap.add_argument("--threshold", type=float, default=0.10,
                    help="relative worsening gating a portable metric "
                         "(default 0.10)")
    ap.add_argument("--advisory-threshold", type=float, default=0.25,
                    help="relative worsening reported for machine-"
                         "dependent metrics (default 0.25)")
    ap.add_argument("--gate-advisory", action="store_true",
                    help="treat advisory worsenings as regressions too "
                         "(same-host before/after runs)")
    ap.add_argument("--json", action="store_true", dest="as_json",
                    help="emit the reports as one JSON document")
    args = ap.parse_args(argv)

    kwargs = dict(
        threshold=args.threshold,
        advisory_threshold=args.advisory_threshold,
        gate_advisory=args.gate_advisory,
    )
    try:
        if args.dir is not None:
            if args.ledgers:
                ap.error("--dir and explicit ledgers are exclusive")
            reports = list(
                compare_dir(args.dir, since=args.since, **kwargs)
            )
        else:
            if len(args.ledgers) != 2:
                ap.error("need exactly two ledgers (OLD NEW) or --dir")
            reports = [
                compare(
                    _load(args.ledgers[0]),
                    _load(args.ledgers[1]),
                    old_path=args.ledgers[0],
                    new_path=args.ledgers[1],
                    **kwargs,
                )
            ]
    except (OSError, json.JSONDecodeError) as exc:
        print(f"regress: {exc}", file=sys.stderr)
        return 2

    if args.as_json:
        doc = [
            {
                "old": r.old_path,
                "new": r.new_path,
                "compared": r.compared,
                "ok": r.ok,
                "regressions": [vars(d) for d in r.regressions],
                "warnings": [vars(d) for d in r.warnings],
                "refused": [
                    {"entry": name, "field": key, "old": a, "new": b}
                    for name, key, a, b in r.refused
                ],
            }
            for r in reports
        ]
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        for r in reports:
            print(format_report(r))
    return 0 if all(r.ok for r in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
