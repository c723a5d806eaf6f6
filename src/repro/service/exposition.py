"""OpenMetrics exposition document for one running :class:`DFSService`.

Builds the text served by ``{"op": "stats", "format": "openmetrics"}``
(and therefore by ``repro stats --format openmetrics``): the bound
observability registry, the service's deterministic counter ledger,
per-resident-graph gauges (labelled by graph name), the build/provenance
info metric, and the flight-recorder state.

This is the *scrape* path: it runs only when a client explicitly asks
for the exposition, renders a bounded number of instrument families,
and never touches a graph-sized structure — which is why the
obs-placement rule is disabled file-wide here rather than argued with
line by line.
"""

# repro-lint: disable-file=R006 — exposition rendering is the cold
# scrape path (one pass over bounded instrument families per explicit
# stats request), not a kernel or batch loop

from __future__ import annotations

from typing import TYPE_CHECKING

from ..obs.metrics import NullMetrics
from ..obs.openmetrics import OpenMetricsDoc

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .server import DFSService

__all__ = ["render_service_openmetrics"]


def render_service_openmetrics(service: "DFSService") -> str:
    """The OpenMetrics text for one service (ends with ``# EOF``)."""
    doc = OpenMetricsDoc(prefix="repro")
    m = service._bound_metrics()
    have_registry = not isinstance(m, NullMetrics)
    if have_registry:
        doc.from_metrics(m)
    # the deterministic ledger; requests/errors are mirrored by the
    # registry counters rendered above, so skip them when present
    covered = {"requests", "errors"} if have_registry else set()
    for name in sorted(service.counters):
        if name in covered:
            continue
        value = service.counters[name]
        if name.startswith("max_"):
            doc.gauge(f"service.{name}", value)
        else:
            doc.counter(f"service.{name}", value)
    for gname, st in sorted(service.store.stats().items()):
        labels = {"graph": gname}
        doc.gauge("graph.n", st["n"], labels)
        doc.gauge("graph.m", st["m"], labels)
        doc.counter("graph.mutations", st["mutations"], labels)
        doc.gauge("graph.cache_entries", st["cache_entries"], labels)
        doc.gauge("graph.cache_hit_rate", st["cache_hit_rate"], labels)
    info = service._server_info()
    flight = info.pop("flight", None)
    doc.gauge("server.uptime_seconds", info["uptime_s"])
    doc.info(
        "server.build",
        {
            "git_sha": info["git_sha"],
            "kernel_backend": info["kernel_backend"],
            "structure": info["structure"],
            "python": info["python"],
        },
    )
    if flight is not None:
        doc.gauge("flight.spans", flight["spans"])
        doc.gauge("flight.events", flight["events"])
        doc.counter("flight.dumps", len(flight["dumps"]))
        for reason in sorted(flight["anomalies"]):
            doc.counter(
                "flight.anomalies",
                flight["anomalies"][reason],
                {"reason": reason},
            )
    return doc.render()
