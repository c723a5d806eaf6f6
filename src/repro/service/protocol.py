"""Line-delimited JSON protocol for the DFS service.

One request per line, one response per line, UTF-8 JSON objects with the
canonical encoding (sorted keys, no whitespace).  Every request may carry
a client-chosen ``"id"`` which the response echoes verbatim, so clients
can pipeline requests and match responses without positional bookkeeping.

Operations (``"op"`` field):

``ping``
    Liveness probe; echoes ``{"ok": true, "pong": true}``.
``load``
    Create a resident graph: ``{"op": "load", "graph": NAME, "n": N,
    "edges": [[u, v], ...]}`` or generated from a seeded family:
    ``{"op": "load", "graph": NAME, "family": F, "n": N, "seed": S}``.
``update``
    Apply an edge mutation batch: ``{"op": "update", "graph": NAME,
    "insert": [[u, v], ...], "delete": [[u, v], ...]}``.  Applied
    atomically through the incremental-maintenance layer
    (:mod:`repro.service.dynamic`); the response reports the new
    mutation counter and whether the batch went through the incremental
    or the full-rebuild path.
``dfs``
    Query a DFS tree: ``{"op": "dfs", "graph": NAME, "root": R,
    "seed": S}``.  The ``"tree"`` object of the response is
    **byte-identical** (under :func:`tree_bytes`) to a fresh
    ``parallel_dfs`` on the graph's current canonical state — the
    repo-wide lockstep contract extended to the service (see
    docs/service.md).
``stats``
    Service and per-graph statistics (queue/batch/cache/latency), plus
    a ``server`` provenance block (git SHA, uptime, resolved backend,
    flight-recorder state).  With ``"format": "openmetrics"`` the
    response instead carries the OpenMetrics text exposition under
    ``"openmetrics"`` (see docs/observability.md), which is what
    ``repro stats --format openmetrics`` polls.
``graphs``
    Names of resident graphs.
``drop``
    Remove a resident graph: ``{"op": "drop", "graph": NAME}``.

Failures are *structured*: ``{"ok": false, "error": {"code": ...,
"message": ...}}`` with the request id echoed when one was parseable.
A protocol error never kills the server; an oversized line additionally
closes the offending connection (the stream is no longer in sync).
"""

from __future__ import annotations

import json
from typing import Any, Mapping

__all__ = [
    "MAX_LINE",
    "OPS",
    "ProtocolError",
    "decode_request",
    "validate_request",
    "encode",
    "error_payload",
    "tree_bytes",
    "tree_payload",
    "normalize_pairs",
]

#: hard cap on one protocol line (bytes), request or response
MAX_LINE = 1 << 20

#: the operations the service understands
OPS = ("ping", "load", "update", "dfs", "stats", "graphs", "drop")

#: per-op required / optional field names (validation happens here, at the
#: protocol boundary, so the service core only ever sees well-formed ops)
_FIELDS: dict[str, tuple[set[str], set[str]]] = {
    "ping": (set(), set()),
    "load": ({"graph"}, {"n", "edges", "family", "seed"}),
    "update": ({"graph"}, {"insert", "delete"}),
    "dfs": ({"graph", "root"}, {"seed"}),
    "stats": (set(), {"graph", "format"}),
    "graphs": (set(), set()),
    "drop": ({"graph"}, set()),
}


class ProtocolError(ValueError):
    """A malformed request; ``code`` is the machine-readable reason."""

    def __init__(self, code: str, message: str, req_id: Any = None) -> None:
        super().__init__(message)
        self.code = code
        self.message = message
        self.req_id = req_id


def encode(obj: Mapping[str, Any]) -> bytes:
    """Canonical one-line JSON encoding (sorted keys, compact, newline)."""
    return (
        json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
    ).encode("utf-8")


def error_payload(code: str, message: str, req_id: Any = None) -> dict:
    """The structured-failure response body."""
    resp: dict[str, Any] = {
        "ok": False,
        "error": {"code": code, "message": message},
    }
    if req_id is not None:
        resp["id"] = req_id
    return resp


def _req_id(obj: Any) -> Any:
    if isinstance(obj, dict):
        rid = obj.get("id")
        if isinstance(rid, (str, int)):
            return rid
    return None


def decode_request(line: bytes | str) -> dict:
    """Parse and validate one request line.

    Raises :class:`ProtocolError` (carrying the request id when one was
    recoverable) on anything malformed; returns the validated dict
    otherwise.
    """
    if isinstance(line, bytes):
        if len(line) > MAX_LINE:
            raise ProtocolError(
                "line_too_long",
                f"request line exceeds {MAX_LINE} bytes",
            )
        try:
            text = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError("bad_encoding", f"not UTF-8: {exc}") from exc
    else:
        text = line
    text = text.strip()
    if not text:
        raise ProtocolError("empty_line", "empty request line")
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProtocolError("bad_json", f"invalid JSON: {exc}") from exc
    return validate_request(obj)


def validate_request(obj: Any) -> dict:
    """Validate a decoded request object (shared with the in-process
    :class:`~repro.service.server.ServiceHandle`, so both entry paths
    enforce the identical schema)."""
    rid = _req_id(obj)
    if not isinstance(obj, dict):
        raise ProtocolError(
            "bad_request", "request must be a JSON object", rid
        )
    op = obj.get("op")
    if not isinstance(op, str) or op not in OPS:
        raise ProtocolError(
            "unknown_op",
            f"unknown op {op!r}; valid ops: {', '.join(OPS)}",
            rid,
        )
    required, optional = _FIELDS[op]
    allowed = required | optional | {"op", "id"}
    for field in required:
        if field not in obj:
            raise ProtocolError(
                "missing_field", f"op {op!r} requires field {field!r}", rid
            )
    extra = sorted(set(obj) - allowed)
    if extra:
        raise ProtocolError(
            "unknown_field",
            f"op {op!r} does not accept field(s) {', '.join(extra)}",
            rid,
        )
    # light type validation; semantic checks (ranges, duplicates) belong
    # to the service core which owns the graph state
    for field in ("graph", "family"):
        if field in obj and not isinstance(obj[field], str):
            raise ProtocolError(
                "bad_field", f"field {field!r} must be a string", rid
            )
    if "format" in obj and obj["format"] not in ("json", "openmetrics"):
        raise ProtocolError(
            "bad_field",
            f"field 'format' must be 'json' or 'openmetrics', "
            f"got {obj['format']!r}",
            rid,
        )
    for field in ("n", "root", "seed"):
        if field in obj and not _is_int(obj[field]):
            raise ProtocolError(
                "bad_field", f"field {field!r} must be an integer", rid
            )
    for field in ("edges", "insert", "delete"):
        if field in obj:
            obj[field] = normalize_pairs(obj[field], field, rid)
    return obj


def _is_int(x: Any) -> bool:
    """A JSON integer: ``bool`` is an ``int`` subclass in Python, but
    ``true``/``false`` are not vertex ids, sizes or seeds."""
    return isinstance(x, int) and not isinstance(x, bool)


def normalize_pairs(
    value: Any, field: str, req_id: Any = None
) -> list[tuple[int, int]]:
    """Validate a ``[[u, v], ...]`` field into canonical int pairs."""
    if not isinstance(value, list):
        raise ProtocolError(
            "bad_field", f"field {field!r} must be a list of pairs", req_id
        )
    out: list[tuple[int, int]] = []
    for item in value:
        if (
            not isinstance(item, (list, tuple))
            or len(item) != 2
            or not all(_is_int(x) for x in item)
        ):
            raise ProtocolError(
                "bad_field",
                f"field {field!r} entries must be [u, v] integer pairs",
                req_id,
            )
        u, v = item
        out.append((u, v) if u <= v else (v, u))
    return out


# ----------------------------------------------------------------------
# canonical tree payload — the byte-identity surface
# ----------------------------------------------------------------------

def tree_payload(root: int, parent: Mapping[int, int | None],
                 depth: Mapping[int, int]) -> dict:
    """The canonical JSON form of a DFS tree.

    Used by both the service (to build responses) and the test oracles
    (to encode a fresh ``parallel_dfs`` result), so "byte-identical"
    means exactly ``tree_bytes(service) == tree_bytes(oracle)``.  JSON
    object keys must be strings; sorting happens in :func:`encode` /
    :func:`tree_bytes`.
    """
    return {
        "root": root,
        "parent": {str(v): p for v, p in parent.items()},
        "depth": {str(v): d for v, d in depth.items()},
    }


def tree_bytes(tree: Mapping[str, Any]) -> bytes:
    """Canonical bytes of a tree payload (the comparison unit)."""
    return json.dumps(tree, sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    )
