"""Measurement records and scaling fits for the experiment harness.

The paper's claims are asymptotic (Õ(m) work, Õ(√n) depth), so every
experiment reduces to: run a size sweep, record (work, span), and fit the
growth. Helpers here:

* :func:`loglog_slope` — least-squares slope of log y vs log x: the
  empirical growth exponent (1.0 = linear, 0.5 = √n, ...);
* :func:`polylog_normalized` — y / (x^alpha · log2(x)^beta): flat series
  certify a `x^alpha · polylog^beta` law;
* :class:`Measurement` / :func:`format_table` — uniform records and ASCII
  rendering for the bench scripts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

__all__ = [
    "Measurement",
    "loglog_slope",
    "polylog_normalized",
    "geometric_sizes",
    "format_table",
]


@dataclass
class Measurement:
    """One experimental data point."""

    label: str
    n: int
    m: int
    work: int
    span: int
    extra: dict = field(default_factory=dict)

    @property
    def work_per_edge(self) -> float:
        return self.work / max(1, self.m + self.n)

    @property
    def span_per_sqrt_n(self) -> float:
        return self.span / max(1.0, self.n**0.5)


def loglog_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of log(y) against log(x)."""
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("need at least two paired points")
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx = sum(lx) / len(lx)
    my = sum(ly) / len(ly)
    num = sum((a - mx) * (b - my) for a, b in zip(lx, ly))
    den = sum((a - mx) ** 2 for a in lx)
    if den == 0:
        raise ValueError("x values must differ")
    return num / den


def polylog_normalized(
    xs: Sequence[float], ys: Sequence[float], alpha: float, beta: float
) -> list[float]:
    """y / (x^alpha * log2(x)^beta) for each point."""
    out = []
    for x, y in zip(xs, ys):
        denom = (x**alpha) * (math.log2(max(2.0, x)) ** beta)
        out.append(y / denom)
    return out


def geometric_sizes(lo: int, hi: int, ratio: float = 2.0) -> list[int]:
    """Geometric size ladder [lo, lo*ratio, ...] capped at hi."""
    out = [lo]
    while out[-1] * ratio <= hi:
        out.append(int(out[-1] * ratio))
    return out


def format_table(headers: Sequence[str], rows: Sequence[Sequence]) -> str:
    """Plain ASCII table with right-aligned numeric columns."""
    cells = [[str(h) for h in headers]] + [
        [
            f"{c:.3f}" if isinstance(c, float) else str(c)
            for c in row
        ]
        for row in rows
    ]
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = []
    for ri, row in enumerate(cells):
        lines.append(
            "  ".join(c.rjust(w) for c, w in zip(row, widths))
        )
        if ri == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)
