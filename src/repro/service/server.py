"""The always-on monitoring service: async ingest + query plane.

:class:`MonitoringService` composes the pieces every other PR built:

* an **asyncio ingest endpoint** (wire format in
  :mod:`repro.service.records`) accepting framed key batches from many
  concurrent clients.  Each frame lands in the owning tenant's bounded
  daemon queue; a drainer coroutine feeds queues into the sketches.
  Backpressure is real: with ``overflow="wait"`` a full queue parks the
  reading coroutine, the socket stops being read and the client's TCP
  window fills -- with ``overflow="drop"`` the batch is shed and
  accounted (``daemon_batches_dropped_total`` /
  ``service_dropped_batches_total{tenant=...}``);
* the **multi-tenant namespace** of :class:`~repro.service.tenants.TenantManager`
  (LRU + idle eviction inside one memory budget, checkpoint-on-evict);
* a **REST query plane** (:mod:`repro.service.query`) mounted onto the
  existing :class:`~repro.telemetry.TelemetryServer` via its ``routes``
  hook, so ``/metrics`` ``/health`` ``/alerts`` and ``/tenants/...``
  share one HTTP endpoint;
* **graceful lifecycle**: :meth:`stop` stops accepting, drains every
  queue, checkpoints every tenant through
  :class:`~repro.control.checkpoint.CheckpointManager`, and
  :meth:`start` restores all of them byte-exactly.

Threading model: one dedicated thread runs the asyncio loop (socket
reads + queue drain -- the CPU-heavy sketch updates); the HTTP server
answers queries from its own thread pool, synchronised per tenant with
``TenantState.lock``.  The registry lock (PR 10's scrape-race fix) keeps
exposition consistent underneath both.
"""

from __future__ import annotations

import asyncio
import socket
import threading
from typing import Dict, List, Optional

import numpy as np

from repro.service import records
from repro.service.query import QueryRoutes
from repro.service.tenants import ServiceConfig, TenantManager, TenantState
from repro.telemetry import NULL_TELEMETRY, TelemetryServer
from repro.telemetry.fanin import record_service_state
from repro.telemetry.health import HealthEvaluator, QueueSaturationRule, default_rules

#: How many queued batches one drainer visit ingests per tenant before
#: yielding -- bounds per-tenant latency under multi-tenant load.
DRAIN_QUANTUM = 32

#: Idle-sweep / gauge-export cadence (seconds).
IDLE_TICK_SECONDS = 0.5

#: Longest a ``sync`` waits between queue-depth checks.  The drainer
#: wakes waiting syncs after every quantum, so this only bounds the wait
#: when a queue empties some other way (eviction, shutdown drain).
SYNC_RECHECK_SECONDS = 0.01


class _FrameSocket:
    """Frame reads and replies on one non-blocking client socket.

    Header lines come through a small staging buffer; an ingest payload
    is received straight into the buffer the batch's keys will view, so
    at most one staging chunk of it is copied in user space (asyncio's
    ``StreamReader`` copies every payload byte twice more).
    """

    def __init__(self, loop: asyncio.AbstractEventLoop, sock: socket.socket) -> None:
        self._loop = loop
        self._sock = sock
        self._chunk = bytearray(records.MAX_HEADER_BYTES)
        self._pending = bytearray()  # received, not yet consumed

    async def _recv_chunk(self) -> int:
        got = await self._loop.sock_recv_into(self._sock, self._chunk)
        self._pending += memoryview(self._chunk)[:got]
        return got

    async def readline(self) -> bytes:
        """The next ``\\n``-terminated line; what is left at EOF (``b""``
        on a clean close).  ``ValueError`` if no newline arrives within
        :data:`~repro.service.records.MAX_HEADER_BYTES`."""
        pending = self._pending
        while True:
            end = pending.find(b"\n", 0, records.MAX_HEADER_BYTES)
            if end >= 0:
                line = bytes(pending[: end + 1])
                del pending[: end + 1]
                return line
            if len(pending) >= records.MAX_HEADER_BYTES:
                raise ValueError("header line over %d bytes" % records.MAX_HEADER_BYTES)
            if not await self._recv_chunk():
                line = bytes(pending)
                pending.clear()
                return line

    async def readexactly(self, size: int) -> np.ndarray:
        """Exactly ``size`` bytes as a fresh uint8 array."""
        payload = np.empty(size, dtype=np.uint8)
        view = memoryview(payload)
        filled = min(size, len(self._pending))
        view[:filled] = self._pending[:filled]
        del self._pending[:filled]
        while filled < size:
            got = await self._loop.sock_recv_into(self._sock, view[filled:])
            if not got:
                raise asyncio.IncompleteReadError(bytes(view[:filled]), size)
            filled += got
        return payload

    async def write(self, data: bytes) -> None:
        await self._loop.sock_sendall(self._sock, data)


class MonitoringService:
    """A long-running, multi-tenant sketch monitoring service.

    Parameters
    ----------
    config:
        The :class:`ServiceConfig` every tenant is built from.
    telemetry:
        The (single, shared) telemetry sink; tenant labels distinguish
        per-tenant series.
    host / ingest_port / http_port:
        Bind addresses; port 0 picks ephemeral ports (read them back
        from :attr:`ingest_port` / :attr:`http_port` after
        :meth:`start`).
    http:
        Set False to run ingest-only (tests that drive queries through
        :attr:`routes` directly).
    """

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        telemetry=NULL_TELEMETRY,
        host: str = "127.0.0.1",
        ingest_port: int = 0,
        http_port: int = 0,
        http: bool = True,
        alerts=None,
        history=None,
    ) -> None:
        self.config = config if config is not None else ServiceConfig()
        self.telemetry = telemetry
        self.host = host
        self._requested_ingest_port = ingest_port
        self._requested_http_port = http_port
        self._http_enabled = http
        self.alerts = alerts
        self.history = history
        self.tenants = TenantManager(self.config, telemetry=telemetry)
        self.routes = QueryRoutes(self)
        self.health = HealthEvaluator(
            telemetry,
            rules=list(default_rules(component="svc")) + [QueueSaturationRule()],
            alerts=alerts,
        )
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._connections: set = set()  # live connection tasks
        self._http_server: Optional[TelemetryServer] = None
        self._ready = threading.Event()
        self._stopping = False
        self._started = False
        self._work: Optional[asyncio.Event] = None
        self._drained: Optional[asyncio.Event] = None
        self.ingest_port: Optional[int] = None
        self.http_port: Optional[int] = None
        self.connections_active = 0
        self._startup_error: Optional[BaseException] = None

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "MonitoringService":
        """Restore checkpointed tenants, bind sockets, start serving."""
        if self._started:
            raise RuntimeError("service already started")
        self._started = True
        restored = self.tenants.restore_on_start()
        if restored:
            self.telemetry.event("service.restored", tenants=len(restored))
        self._thread = threading.Thread(
            target=self._run_loop, name="svc-ingest", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=10.0):
            raise RuntimeError("ingest endpoint failed to come up")
        if self._startup_error is not None:
            raise RuntimeError(
                "ingest endpoint failed to bind"
            ) from self._startup_error
        if self._http_enabled:
            self._http_server = TelemetryServer(
                self.telemetry,
                host=self.host,
                port=self._requested_http_port,
                health=self.health,
                history=self.history,
                alerts=self.alerts,
                routes=self.routes.dispatch,
            ).start()
            self.http_port = self._http_server.port
        return self

    def stop(self) -> None:
        """Graceful shutdown: stop accepting, drain, checkpoint, close."""
        if not self._started or self._stopping:
            return
        self._stopping = True
        loop = self._loop
        if loop is not None:
            loop.call_soon_threadsafe(self._wake)
        if self._thread is not None:
            self._thread.join(timeout=10.0)
        # The loop is gone: every accepted batch is either ingested or
        # still queued.  Drain the remainder synchronously, then persist.
        self.tenants.drain_all()
        if self.config.checkpoint_dir is not None:
            written = self.tenants.checkpoint_all()
            self.telemetry.event("service.checkpointed", tenants=written)
        if self._http_server is not None:
            self._http_server.close()
        self.telemetry.event("service.stopped")

    def __enter__(self) -> "MonitoringService":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # -- the asyncio side ----------------------------------------------------

    def _run_loop(self) -> None:
        try:
            asyncio.run(self._main())
        except Exception as exc:  # pragma: no cover - surfaced via start()
            self._startup_error = exc
            self._ready.set()

    def _wake(self) -> None:
        if self._work is not None:
            self._work.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._work = asyncio.Event()
        self._drained = asyncio.Event()
        try:
            family = socket.getaddrinfo(self.host, None, type=socket.SOCK_STREAM)[0][0]
            listener = socket.create_server(
                (self.host, self._requested_ingest_port), family=family
            )
        except OSError as exc:
            self._startup_error = exc
            self._ready.set()
            return
        listener.setblocking(False)
        self.ingest_port = listener.getsockname()[1]
        self._ready.set()
        drainer = asyncio.ensure_future(self._drain_loop())
        ticker = asyncio.ensure_future(self._tick_loop())
        acceptor = asyncio.ensure_future(self._accept_loop(listener))
        try:
            while not self._stopping:
                await asyncio.sleep(0.05)
        finally:
            acceptor.cancel()
            ticker.cancel()
            listener.close()
            self._wake()
            await drainer

    async def _tick_loop(self) -> None:
        """Sweep idle tenants and refresh gauges, busy or not.

        Its own task, so the drainer waits for work on a bare event (a
        timed wait costs a task and a timer per wake-up, i.e. per frame
        when the drainer keeps up with the wire).
        """
        while not self._stopping:
            await asyncio.sleep(IDLE_TICK_SECONDS)
            self.tenants.sweep_idle()
            record_service_state(self.telemetry, self)

    async def _accept_loop(self, listener: socket.socket) -> None:
        loop = asyncio.get_running_loop()
        while True:
            sock, _ = await loop.sock_accept(listener)
            sock.setblocking(False)
            # Replies are single small writes the client waits on.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            task = asyncio.ensure_future(self._handle_connection(sock))
            self._connections.add(task)
            task.add_done_callback(self._connections.discard)

    async def _drain_loop(self) -> None:
        """Feed tenant queues into their sketches, round-robin.

        Runs on the same loop as the readers: after each tenant's
        quantum it yields, so socket reads interleave with sketch
        updates instead of starving behind them.
        """
        work = self._work
        while not self._stopping:
            await work.wait()
            work.clear()
            busy = True
            while busy and not self._stopping:
                busy = False
                for state in self.tenants.states():
                    with state.lock:
                        drained = state.daemon.drain(DRAIN_QUANTUM)
                    if drained:
                        busy = True
                        self._drained.set()
                        self.telemetry.gauge(
                            "service_queue_depth",
                            state.daemon.queue_depth,
                            tenant=state.name,
                        )
                    await asyncio.sleep(0)
        # Shutdown: one final full drain so stop() has little left to do.
        self.tenants.drain_all()

    async def _handle_connection(self, sock: socket.socket) -> None:
        self.connections_active += 1
        with self.telemetry.atomic():
            self.telemetry.count("service_connections_total")
            self.telemetry.gauge("service_connections_active", self.connections_active)
        try:
            await self._serve_client(_FrameSocket(self._loop, sock))
        except (
            asyncio.IncompleteReadError,
            ConnectionResetError,
            BrokenPipeError,
        ):
            pass  # client went away mid-frame; per-frame accounting stands
        finally:
            self.connections_active -= 1
            self.telemetry.gauge(
                "service_connections_active", self.connections_active
            )
            sock.close()

    async def _serve_client(self, wire: _FrameSocket) -> None:
        while not self._stopping:
            try:
                line = await wire.readline()
            except ValueError:
                self.telemetry.count("service_frames_total", outcome="oversized")
                return
            if not line:
                return  # clean EOF
            try:
                op, tenant, payload_bytes = records.decode_header(line)
            except ValueError:
                self.telemetry.count("service_frames_total", outcome="malformed")
                return  # framing is lost; close rather than guess
            if op == "bye":
                await self._reply(wire, {"ok": True})
                return
            if op == "ingest":
                payload = await wire.readexactly(payload_bytes)
                await self._ingest_frame(tenant, payload)
                # A read that finds its data waiting never suspends: let
                # the drainer take this batch before the next frame, so
                # it holds the tenant lock (and queries wait) for about
                # one batch, not a whole backlog.
                await asyncio.sleep(0)
            elif op == "sync":
                await self._sync(tenant)
                await self._reply(wire, self._tenant_stats(tenant))
            elif op == "stats":
                await self._reply(wire, self._tenant_stats(tenant))

    async def _ingest_frame(self, tenant: str, payload) -> None:
        keys = records.decode_keys(payload)
        batch = records.batch_from_keys(keys)
        state = self.tenants.get_or_create(tenant)
        shedding = self.config.overflow == "drop"
        while True:
            with state.lock:
                # Under "wait", don't offer a batch to a full queue: a
                # refused enqueue() counts as a *drop* in the daemon's
                # books, and a parked-then-delivered batch is not one.
                if (
                    shedding
                    or self._stopping
                    or state.daemon.queue_depth < self.config.queue_capacity
                ):
                    accepted = state.daemon.enqueue(batch)
                else:
                    accepted = None  # full: park below, retry
            if accepted:
                state.batches_accepted += 1
                state.packets_accepted += len(batch)
                with self.telemetry.atomic():
                    self.telemetry.count("service_frames_total", outcome="accepted")
                    self.telemetry.count(
                        "service_ingest_batches_total", tenant=tenant
                    )
                    self.telemetry.count(
                        "service_ingest_packets_total", len(batch), tenant=tenant
                    )
                self._wake()
                return
            if accepted is False:
                # enqueue() already bumped daemon.batches_dropped.
                with self.telemetry.atomic():
                    self.telemetry.count("service_frames_total", outcome="dropped")
                    self.telemetry.count(
                        "service_dropped_batches_total", tenant=tenant
                    )
                return
            # overflow == "wait": park this reader until the drainer
            # frees queue space -- the socket stops being read, TCP
            # flow control pushes back on the client.
            self._wake()
            await asyncio.sleep(0.002)

    async def _sync(self, tenant: str) -> None:
        """Block until every accepted batch for ``tenant`` has drained."""
        state = self.tenants.get(tenant)
        if state is None:
            return
        while True:
            with state.lock:
                depth = state.daemon.queue_depth
            if depth == 0:
                return
            self._wake()
            # No await since the depth check, so the drainer cannot have
            # set the event in between: clearing loses no wake-up.
            self._drained.clear()
            try:
                await asyncio.wait_for(
                    self._drained.wait(), timeout=SYNC_RECHECK_SECONDS
                )
            except asyncio.TimeoutError:
                pass

    def _tenant_stats(self, tenant: str) -> Dict[str, object]:
        state = self.tenants.get(tenant)
        if state is None:
            return {"tenant": tenant, "error": "unknown tenant"}
        with state.lock:
            return state.stats()

    async def _reply(self, wire: _FrameSocket, payload: Dict) -> None:
        import json

        await wire.write(json.dumps(payload, separators=(",", ":")).encode() + b"\n")

    # -- conveniences (tests, CLI) -------------------------------------------

    def ingest_direct(self, tenant: str, keys) -> bool:
        """Synchronous in-process ingest (no socket); used by tests."""
        batch = records.batch_from_keys(records.decode_keys(records.encode_keys(keys)))
        state = self.tenants.get_or_create(tenant)
        with state.lock:
            accepted = state.daemon.enqueue(batch)
            if accepted:
                state.batches_accepted += 1
                state.packets_accepted += len(batch)
                state.daemon.drain()
        return accepted

    def tenant_states(self) -> List[TenantState]:
        return self.tenants.states()
