"""A minimal blocking client for the ingest wire protocol.

Used by the CLI (``nitrosketch serve --demo``), the CI smoke job, the
chaos client-flood scenario and the perf gate.  Deliberately dumb: one
socket, stdlib only, no retries -- the interesting behaviour
(backpressure, drop accounting) lives on the server side and this
client's job is to exercise it faithfully.
"""

from __future__ import annotations

import json
import socket
from typing import Dict, Optional

from repro.service import records


class IngestClient:
    """One TCP connection speaking :mod:`repro.service.records` frames."""

    def __init__(self, host: str, port: int, timeout: float = 30.0) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)
        # A frame goes out back to back (header, then payload), so there
        # is nothing for Nagle to coalesce; with it on, a small sync/stats
        # frame written right after an ingest frame waits for the
        # server's delayed ACK (tens of ms per round trip).
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._file = self._sock.makefile("rb")
        self._closed = False

    def ingest(self, tenant: str, keys) -> None:
        """Send one batch of flow keys; does not wait for the server."""
        # Header and payload go out as two writes: joining them would
        # copy the whole payload once more per frame.
        header, payload = records.frame_parts("ingest", tenant, keys)
        self._sock.sendall(header)
        self._sock.sendall(payload)

    def sync(self, tenant: str) -> Dict:
        """Barrier: returns tenant stats once every sent batch drained."""
        self._sock.sendall(records.encode_frame("sync", tenant))
        return self._read_reply()

    def stats(self, tenant: str) -> Dict:
        """Immediate tenant stats (no drain barrier)."""
        self._sock.sendall(records.encode_frame("stats", tenant))
        return self._read_reply()

    def bye(self) -> Optional[Dict]:
        """Polite goodbye; returns the server's ack (None if it's gone)."""
        try:
            self._sock.sendall(records.encode_frame("bye"))
            return self._read_reply()
        except (OSError, ValueError):
            return None

    def _read_reply(self) -> Dict:
        line = self._file.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line.decode("utf-8"))

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "IngestClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.bye()
        self.close()
