"""The ingest wire protocol: framed packet-key batches over a socket.

One frame is a single JSON header line (UTF-8, ``\\n``-terminated)
optionally followed by a fixed-size binary payload:

``{"op": "ingest", "tenant": "<id>", "count": N}`` + ``N * 8`` bytes
    ``N`` little-endian int64 flow keys -- the same dtype the trace
    replayer and the batch kernels use, so the server can
    ``np.frombuffer`` the payload straight into a
    :class:`~repro.traffic.replay.Batch` without a Python-object per
    packet.  No reply (ingest is pipelined; backpressure is exerted by
    the server simply not reading, which fills the client's TCP window).
``{"op": "sync", "tenant": "<id>"}``
    Reply arrives once every previously-sent batch for that tenant has
    fully drained into the sketch: one JSON line of tenant stats.  The
    deterministic barrier tests, CI and the perf gate need.
``{"op": "stats", "tenant": "<id>"}``
    Same reply, immediately (no drain barrier).
``{"op": "bye"}``
    Polite close; the server answers ``{"ok": true}`` and drops the
    connection.

The header is capped at :data:`MAX_HEADER_BYTES` and a frame at
:data:`MAX_FRAME_KEYS` keys so a garbage or hostile client cannot make
the server buffer unbounded memory; tenant ids must match
:data:`TENANT_RE` (they become metric label values and checkpoint
directory names).
"""

from __future__ import annotations

import json
import re
from typing import Dict, Optional, Tuple

import numpy as np

from repro.traffic.replay import Batch

#: Wire dtype for flow keys: little-endian int64, matching trace keys.
KEY_DTYPE = np.dtype("<i8")

#: Hard cap on one header line (a legitimate header is < 128 bytes).
MAX_HEADER_BYTES = 4096

#: Hard cap on keys per frame (8 MiB of payload).
MAX_FRAME_KEYS = 1 << 20

#: Legal tenant ids: they appear in metric labels and (hex-encoded) in
#: checkpoint directory names, so keep them to a sane identifier set.
TENANT_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._\-]{0,63}$")

OPS = ("ingest", "sync", "stats", "bye")


def validate_tenant(tenant: str) -> str:
    """Return ``tenant`` if it is a legal id, raise ``ValueError`` otherwise."""
    if not isinstance(tenant, str) or not TENANT_RE.match(tenant):
        raise ValueError("invalid tenant id %r" % (tenant,))
    return tenant


def encode_keys(keys) -> bytes:
    """Flow keys -> wire payload (little-endian int64)."""
    return np.ascontiguousarray(keys, dtype=KEY_DTYPE).tobytes()


def decode_keys(payload: bytes) -> "np.ndarray":
    """Wire payload -> int64 key array (zero-copy view when aligned)."""
    if len(payload) % KEY_DTYPE.itemsize:
        raise ValueError(
            "payload length %d is not a multiple of %d"
            % (len(payload), KEY_DTYPE.itemsize)
        )
    return np.frombuffer(payload, dtype=KEY_DTYPE).astype(np.int64, copy=False)


def encode_frame(op: str, tenant: Optional[str] = None, keys=None) -> bytes:
    """One complete wire frame (header line + optional payload)."""
    header, payload = frame_parts(op, tenant, keys)
    return header + payload.tobytes()


def frame_parts(
    op: str, tenant: Optional[str] = None, keys=None
) -> Tuple[bytes, "np.ndarray"]:
    """A wire frame as ``(header line, payload)`` without joining them.

    The payload is the key array itself in wire dtype (a view, no copy,
    when ``keys`` already is contiguous little-endian int64; empty for
    ops without keys), so a sender can hand both pieces to the socket
    without copying the payload.
    """
    if op not in OPS:
        raise ValueError("unknown op %r" % (op,))
    header: Dict[str, object] = {"op": op}
    if op != "bye":
        header["tenant"] = validate_tenant(tenant)
    payload = np.ascontiguousarray(
        keys if op == "ingest" and keys is not None else [], dtype=KEY_DTYPE
    )
    if op == "ingest":
        header["count"] = len(payload)
        if header["count"] > MAX_FRAME_KEYS:
            raise ValueError(
                "frame carries %d keys, cap is %d" % (header["count"], MAX_FRAME_KEYS)
            )
    elif keys is not None:
        raise ValueError("op %r carries no key payload" % (op,))
    line = json.dumps(header, separators=(",", ":")).encode("ascii") + b"\n"
    if len(line) > MAX_HEADER_BYTES:
        raise ValueError("header too long (%d bytes)" % len(line))
    return line, payload


def decode_header(line: bytes) -> Tuple[str, Optional[str], int]:
    """Parse one header line -> ``(op, tenant, payload_bytes)``.

    Raises ``ValueError`` on anything malformed -- the server turns that
    into a connection close rather than guessing at framing.
    """
    if len(line) > MAX_HEADER_BYTES:
        raise ValueError("header too long (%d bytes)" % len(line))
    try:
        header = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError("unparseable header: %s" % exc)
    if not isinstance(header, dict):
        raise ValueError("header must be a JSON object, got %r" % type(header))
    op = header.get("op")
    if op not in OPS:
        raise ValueError("unknown op %r" % (op,))
    tenant = None
    if op != "bye":
        tenant = validate_tenant(header.get("tenant"))
    payload_bytes = 0
    if op == "ingest":
        count = header.get("count")
        if not isinstance(count, int) or count < 0 or count > MAX_FRAME_KEYS:
            raise ValueError("bad ingest count %r" % (count,))
        payload_bytes = count * KEY_DTYPE.itemsize
    return op, tenant, payload_bytes


def batch_from_keys(keys: "np.ndarray") -> Batch:
    """Wrap decoded wire keys as the :class:`Batch` the daemon ingests.

    The wire carries flow keys only (the sketch needs nothing else);
    sizes and timestamps are synthesised as the replayer would for an
    un-timestamped trace.  Both are constant, so they are read-only
    broadcast views rather than two fresh arrays per frame.
    """
    n = len(keys)
    return Batch(
        keys=keys,
        sizes=np.broadcast_to(np.float64(64.0), (n,)),
        timestamps=np.broadcast_to(np.float64(0.0), (n,)),
    )
