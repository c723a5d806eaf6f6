"""DFS-as-a-service: an async batch server over the kernel backends.

The production-traffic tier of ROADMAP item 3: graphs stay *resident*
(live edge set + HDT connectivity + cached canonical DFS trees keyed on
per-component mutation stamps), concurrent queries coalesce into batches
executed on the numpy backend via a worker executor, and edge
insert/delete batches flow through the incremental-maintenance layer of
:mod:`repro.service.dynamic` — with every response byte-identical to a
fresh ``parallel_dfs`` on the mutated graph.  See docs/service.md.
"""

from .client import ServiceClient
from .dynamic import BatchReport, DynamicGraph
from .protocol import MAX_LINE, ProtocolError, tree_bytes, tree_payload
from .server import DFSService, ServiceConfig, ServiceHandle, ServiceServer
from .store import GraphStore, ResidentGraph, ServiceError

__all__ = [
    "BatchReport",
    "DFSService",
    "DynamicGraph",
    "GraphStore",
    "MAX_LINE",
    "ProtocolError",
    "ResidentGraph",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
    "ServiceHandle",
    "ServiceServer",
    "tree_bytes",
    "tree_payload",
]
