"""Served workloads: ``nitrosketch serve`` in its own process, driven
over loopback by this process with the shipped ``IngestClient`` and the
HTTP query plane.

The load generator is this process: one ingest thread (the caller) and
one query thread, so at most two client connections are open at once
(the ingest connection, and one short-lived HTTP/1.0 query connection).
"""

from __future__ import annotations

import http.client
import json
import os
import re
import select
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

import layers
import tracing
from measure import cpu_seconds, peak_rss_mib, percentile
from workloads import (
    HH_SHARE,
    PROBE_TENANT,
    QUERY_RATE_HZ,
    ServedWorkload,
    point_keys,
    probe_frame,
    serve_args,
    served_pool,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.dirname(os.path.abspath(__file__))

#: Service launches per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Unmeasured ingest before the window, so the window sees a tenant in
#: steady state (converged sampling, filled top-k), as a long-running
#: service does.
WARMUP_S = 2.0
#: The measured window is split into this many back-to-back sub-windows;
#: the ingest rate is the median over them, so a burst of noise from
#: other tenants of the host spoils one sub-window, not the run.
SUB_WINDOWS = 5
#: Seconds allowed for the service to print its ports / stop cleanly.
START_TIMEOUT = 30.0
STOP_TIMEOUT = 30.0

_PORTS = re.compile(r"ingest on [\d.]+:(\d+), http on [\d.]+:(\d+)")


class RunError(RuntimeError):
    """The run could not be measured (service died, timed out, ...)."""


class ServiceProcess:
    """One ``nitrosketch serve`` process on ephemeral loopback ports."""

    def __init__(self, workload: ServedWorkload, checkpoint_dir: str,
                 spans_path: Optional[str] = None, cpu: Optional[int] = None) -> None:
        argv = ["serve", "--ingest-port", "0", "--http-port", "0",
                "--checkpoint-dir", checkpoint_dir, *serve_args(workload)]
        if spans_path is None:
            command = [sys.executable, "-m", "repro.cli", *argv]
        else:
            command = [sys.executable, os.path.join(HERE, "service_host.py"),
                       spans_path, *argv]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(ROOT, "src")
        env["PYTHONUNBUFFERED"] = "1"
        self.checkpoint_dir = checkpoint_dir
        self._stderr = open(checkpoint_dir + ".stderr", "w+")
        pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
        self.proc = subprocess.Popen(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
            stderr=self._stderr, text=True, preexec_fn=pin,
        )
        self.pid = self.proc.pid
        self.ingest_port, self.http_port = self._read_ports()

    def _read_ports(self):
        deadline = time.monotonic() + START_TIMEOUT
        stdout = self.proc.stdout
        while time.monotonic() < deadline:
            ready, _, _ = select.select([stdout], [], [], 0.5)
            if ready:
                line = stdout.readline()
                if not line:
                    break
                match = _PORTS.search(line)
                if match:
                    return int(match.group(1)), int(match.group(2))
        self.kill()
        raise RunError("service did not come up: %s" % self.stderr_tail())

    def stderr_tail(self) -> str:
        self._stderr.seek(0)
        return self._stderr.read()[-2000:]

    def stop(self) -> None:
        """SIGINT, as an operator stops ``nitrosketch serve``; the
        service drains, checkpoints every tenant and must exit 0."""
        self.proc.send_signal(signal.SIGINT)
        try:
            out, _ = self.proc.communicate(timeout=STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.kill()
            raise RunError("service did not stop within %.0fs" % STOP_TIMEOUT)
        finally:
            self._stderr.close()
        if self.proc.returncode != 0 or "stopped cleanly" not in out:
            raise RunError("service exited %s: %s" % (self.proc.returncode, out[-500:]))

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self._stderr.close()


def http_get_json(port: int, path: str) -> Dict:
    """GET one query-plane path; raises RunError unless 200 + JSON."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        body = response.read()
    finally:
        connection.close()
    if response.status != 200:
        raise RunError("%s -> HTTP %d" % (path, response.status))
    return json.loads(body)


@dataclass
class QueryLoop:
    """Open-loop queries at :data:`QUERY_RATE_HZ` on their own thread.

    Query ``i`` is due at ``start + i / rate``; its latency runs from
    when it was due, so a stall also charges the queries behind it.
    """

    port: int
    tenant: str
    point_query: str
    start: float
    deadline: float
    #: Per query: ms from when it was due to its reply, and to its send.
    latency_ms: List[float] = field(default_factory=list)
    late_ms: List[float] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)

    def run(self) -> None:
        paths = (
            "/tenants/%s/heavy_hitters?share=%g" % (self.tenant, HH_SHARE),
            "/tenants/%s/point?key=%s" % (self.tenant, self.point_query),
        )
        index = 0
        while True:
            due = self.start + index / QUERY_RATE_HZ
            if due >= self.deadline:
                return
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            try:
                http_get_json(self.port, paths[index % 2])
            except (RunError, OSError, ValueError) as exc:
                self.failures.append(str(exc))
            done = time.perf_counter()
            self.latency_ms.append((done - due) * 1e3)
            self.late_ms.append((sent - due) * 1e3)
            index += 1


@dataclass
class Window:
    """One measured sub-window: it closes when the final syncs report
    every packet sent in it drained."""

    seconds: float = 0.0
    packets: int = 0
    sync_ms: List[float] = field(default_factory=list)

    @property
    def mpps(self) -> float:
        return self.packets / self.seconds / 1e6


@dataclass
class Phase:
    """What one service launch measured and sent."""

    setup_s: float
    windows: List[Window] = field(default_factory=list)
    window_ns: tuple = (0, 0)
    frames: int = 0
    syncs: int = 0
    queries: Optional[QueryLoop] = None
    failures: List[str] = field(default_factory=list)
    #: tenant -> pool slots sent, in order; the probe's count of frames.
    slots: Dict[str, List[int]] = field(default_factory=dict)
    probe_frames: int = 0
    peak_rss_mb: float = 0.0
    service_cpu_frac: float = 0.0
    loadgen_cpu_frac: float = 0.0
    hh: Dict[str, Dict] = field(default_factory=dict)
    #: The next frame's index in the tenant round robin / frame pool.
    next_frame: int = 0

    @property
    def ingest_mpps(self) -> float:
        """Median over the sub-windows of drained packets per second."""
        return float(np.median([window.mpps for window in self.windows]))

    def latency_ms(self, q: float) -> Tuple[float, float]:
        """(sync, query) latency percentile ``q`` over every sample of
        the measured window: a sub-window holds too few samples for a
        p90 with ten beyond it."""
        sync = [latency for window in self.windows for latency in window.sync_ms]
        return percentile(sync, q), percentile(self.queries.latency_ms, q)


class ServedRun:
    """Inputs of one served workload at one seed, and the runs over them."""

    def __init__(self, workload: ServedWorkload, seed: int, seconds: float,
                 scratch: str, service_cpu: Optional[int] = None) -> None:
        from repro.service import IngestClient

        self.IngestClient = IngestClient
        self.workload = workload
        self.seconds = seconds
        self.scratch = scratch
        self.service_cpu = service_cpu
        self.pool = served_pool(workload, seed)
        self.probe_keys = probe_frame(seed)
        self.point_query = ",".join(str(int(key)) for key in point_keys(self.pool, seed))
        self._launches = 0

    def _sync(self, client, tenant: str, phase: Phase) -> None:
        reply = client.sync(tenant)
        phase.syncs += 1
        if "error" in reply or reply.get("batches_dropped", 0):
            phase.failures.append("sync %s: %s" % (tenant, reply))

    def _send(self, client, tenant: str, slot: int, phase: Phase) -> None:
        client.ingest(tenant, self.pool.frames[slot])
        phase.slots.setdefault(tenant, []).append(slot)
        phase.frames += 1

    def launch(self, spans_path: Optional[str] = None):
        """Start a service and complete its setup: the first frame of
        the first tenant, synced.  Returns (service, client, phase)."""
        self._launches += 1
        checkpoint_dir = os.path.join(self.scratch, "ckpt%d" % self._launches)
        os.makedirs(checkpoint_dir)
        start = time.perf_counter()
        service = ServiceProcess(self.workload, checkpoint_dir, spans_path,
                                 self.service_cpu)
        try:
            client = self.IngestClient("127.0.0.1", service.ingest_port)
            phase = Phase(setup_s=0.0)
            self._send(client, self.workload.tenants[0], 0, phase)
            phase.next_frame = 1
            self._sync(client, self.workload.tenants[0], phase)
        except BaseException:
            service.kill()
            raise
        phase.setup_s = time.perf_counter() - start
        return service, client, phase

    def _traffic(self, client, phase: Phase, until: float,
                 window: Optional[Window] = None) -> None:
        """Closed-loop ingest until ``until``, then sync every tenant.
        A measured ``window`` gets the packets and read-your-writes
        latencies."""
        workload = self.workload
        tenants = workload.tenants
        sent_packets = 0
        sync_ms = window.sync_ms if window is not None else []
        while True:  # at least one frame, however late the previous sync ran
            frame = phase.next_frame
            tenant = tenants[frame % len(tenants)]
            begin = time.perf_counter()
            self._send(client, tenant, frame % len(self.pool), phase)
            sent_packets += workload.frame_keys
            if workload.sync_each_frame:
                self._sync(client, tenant, phase)
                sync_ms.append((time.perf_counter() - begin) * 1e3)
            phase.next_frame = frame = frame + 1
            if workload.probe_every and frame % workload.probe_every == 0:
                begin = time.perf_counter()
                client.ingest(PROBE_TENANT, self.probe_keys)
                phase.probe_frames += 1
                sent_packets += len(self.probe_keys)
                self._sync(client, PROBE_TENANT, phase)
                sync_ms.append((time.perf_counter() - begin) * 1e3)
            if time.perf_counter() >= until:
                break
        for tenant in phase.slots:
            self._sync(client, tenant, phase)
        if window is not None:
            window.packets = sent_packets

    def measure(self, service, client, phase: Phase) -> None:
        """Warm-up, then :data:`SUB_WINDOWS` measured sub-windows back to
        back: closed-loop ingest on this thread, the open-loop query
        thread running alongside through all of them."""
        self._traffic(client, phase, time.perf_counter() + WARMUP_S)
        cpu0 = cpu_seconds(service.pid)
        loadgen_cpu0 = time.process_time()
        start = time.perf_counter()
        start_ns = time.perf_counter_ns()
        deadline = start + self.seconds
        queries = QueryLoop(service.http_port, self.workload.tenants[0],
                            self.point_query, start, deadline)
        query_thread = threading.Thread(target=queries.run, name="query-loop")
        query_thread.start()
        try:
            for index in range(SUB_WINDOWS):
                begin = time.perf_counter()
                window = Window()
                self._traffic(client, phase,
                              start + self.seconds * (index + 1) / SUB_WINDOWS, window)
                window.seconds = time.perf_counter() - begin
                phase.windows.append(window)
        finally:
            query_thread.join()
        end = time.perf_counter()
        phase.window_ns = (start_ns, time.perf_counter_ns())
        wall = end - start
        phase.queries = queries
        phase.failures.extend(queries.failures)
        phase.service_cpu_frac = (cpu_seconds(service.pid) - cpu0) / wall
        phase.loadgen_cpu_frac = (time.process_time() - loadgen_cpu0) / wall
        phase.peak_rss_mb = peak_rss_mib(service.pid)
        for tenant in self.workload.tenants:
            if tenant in phase.slots:
                phase.hh[tenant] = http_get_json(
                    service.http_port,
                    "/tenants/%s/heavy_hitters?share=%g" % (tenant, HH_SHARE),
                )

    def finish(self, service, client, phase: Phase, tamper: bool = False) -> List[str]:
        """Stop the service and check what it persisted; returns the
        correctness failures (empty when every check holds)."""
        client.bye()
        client.close()
        service.stop()
        return self.verify(service.checkpoint_dir, phase, tamper)

    def verify(self, checkpoint_dir: str, phase: Phase, tamper: bool) -> List[str]:
        """Each tenant's state at stop must serialize byte-identical to
        a reference daemon fed the same frames in-process."""
        from repro.control.checkpoint import CheckpointManager
        from repro.control.export import serialize_monitor
        from repro.service import ServiceConfig
        from repro.service.records import batch_from_keys
        from repro.service.tenants import tenant_subdir
        from repro.switchsim.daemon import MeasurementDaemon

        config = ServiceConfig(**dict(self.workload.config))
        streams = {tenant: [self.pool.frames[s] for s in slots]
                   for tenant, slots in phase.slots.items()}
        if phase.probe_frames:
            streams[PROBE_TENANT] = [self.probe_keys] * phase.probe_frames
        failures = []
        for position, (tenant, frames) in enumerate(sorted(streams.items())):
            if tamper and position == 0:
                frames = frames + [self.probe_keys[:1]]
            reference = MeasurementDaemon(
                config.build_monitor(tenant), name="ref",
                queue_capacity=config.queue_capacity,
                epoch_batches=config.epoch_batches,
                window_epochs=config.window_epochs,
            )
            for keys in frames:
                reference.ingest(batch_from_keys(np.asarray(keys, dtype=np.int64)))
            restored = CheckpointManager(
                os.path.join(checkpoint_dir, tenant_subdir(tenant)), prefix="tenant",
            ).restore_latest()
            if restored is None:
                failures.append("%s: no checkpoint at stop" % tenant)
                continue
            sent = sum(len(keys) for keys in frames)
            offered = int(restored.meta.get("packets_offered", -1))
            if offered != sent:
                failures.append("%s: %d packets persisted, %d sent" % (tenant, offered, sent))
            if serialize_monitor(restored.monitor) != serialize_monitor(reference.monitor):
                failures.append("%s: state differs from the in-process reference" % tenant)
        return failures

    def heavy_hitter_accuracy(self, phase: Phase):
        """(recall, mean relative error) of the run-end ``/heavy_hitters``
        answers against exact counts of what each tenant was sent."""
        found = 0
        wanted = 0
        errors = []
        for tenant, reply in phase.hh.items():
            counts = self.pool.exact_counts(phase.slots[tenant])
            truth = counts >= HH_SHARE * counts.sum()
            exact = dict(zip(self.pool.distinct[truth].tolist(), counts[truth].tolist()))
            wanted += len(exact)
            for item in reply["heavy_hitters"]:
                true_count = exact.get(item["key"])
                if true_count is not None:
                    found += 1
                    errors.append(abs(item["estimate"] - true_count) / true_count)
        recall = found / wanted if wanted else 0.0
        return recall, float(np.mean(errors)) if errors else 0.0


def run(workload: ServedWorkload, seed: int, seconds: float, trace: bool,
        scratch: str, tamper: bool = False) -> Dict:
    """One benchmark run of a served workload; see run.py for the shape.

    The service is pinned to one CPU and this process (the load
    generator) to another, so the two never share a CPU and the kernel
    cannot regroup the server's threads from run to run; a one-CPU
    host pins nothing."""
    allowed = os.sched_getaffinity(0)
    cpus = sorted(allowed)
    service_cpu = cpus[0] if len(cpus) > 1 else None
    if service_cpu is not None:
        os.sched_setaffinity(0, {cpus[1]})
    try:
        return _run(ServedRun(workload, seed, seconds, scratch, service_cpu),
                    trace, scratch, tamper)
    finally:
        os.sched_setaffinity(0, allowed)


def _run(runner: ServedRun, trace: bool, scratch: str, tamper: bool) -> Dict:
    failures: List[str] = []
    phases: List[Phase] = []

    def measured(spans_path: Optional[str] = None) -> Phase:
        service, client, phase = runner.launch(spans_path)
        try:
            runner.measure(service, client, phase)
        except BaseException:
            service.kill()
            raise
        failures.extend(runner.finish(service, client, phase, tamper))
        phases.append(phase)
        return phase

    if not trace:
        setups = []
        for _ in range(SETUP_REPEATS - 1):
            service, client, phase = runner.launch()
            setups.append(phase.setup_s)
            failures.extend(runner.finish(service, client, phase))
            phases.append(phase)
        phase = measured()
        setups.append(phase.setup_s)
        recall, are = runner.heavy_hitter_accuracy(phase)
        sync_p50, query_p50 = phase.latency_ms(50)
        sync_p90, query_p90 = phase.latency_ms(90)
        metrics = {
            "ingest_mpps": phase.ingest_mpps,
            "sync_ms_p50": sync_p50,
            "sync_ms_p90": sync_p90,
            "query_ms_p50": query_p50,
            "query_ms_p90": query_p90,
            "hh_recall": recall,
            "hh_are": are,
            "setup_s": float(np.median(setups)),
            "peak_rss_mb": phase.peak_rss_mb,
        }
        notes = {
            "window_mpps": [round(window.mpps, 4) for window in phase.windows],
            "window_seconds": [round(window.seconds, 3) for window in phase.windows],
            "sync_samples": [len(window.sync_ms) for window in phase.windows],
            "query_samples": len(phase.queries.latency_ms),
            "setup_samples": [round(setup, 4) for setup in setups],
        }
        return _result(phases, failures, metrics, notes)

    # Traced run: an untraced window first (the overhead baseline), then
    # the same window with every layer wrapped.
    base = measured()
    client_recorder = tracing.Recorder()
    tracing.install_client(client_recorder)
    spans_path = os.path.join(scratch, "spans.json")
    try:
        phase = measured(spans_path)
    finally:
        client_recorder.unwrap()
    start_ns, end_ns = phase.window_ns
    server_tree = layers.SpanTree(tracing.load(spans_path), start_ns, end_ns)
    client_tree = layers.SpanTree(client_recorder.spans, start_ns, end_ns)
    metrics = layers.served_layers(
        server_tree, client_tree, phase.service_cpu_frac,
        phase.queries.late_ms, phase.loadgen_cpu_frac,
    )
    metrics["trace.overhead_frac"] = 1.0 - phase.ingest_mpps / base.ingest_mpps
    notes = {
        "untraced_mpps": base.ingest_mpps,
        "traced_mpps": phase.ingest_mpps,
        "blocking_path": layers.blocking_path(server_tree, client_tree),
    }
    return _result(phases, failures, metrics, notes)


def _result(phases: List[Phase], failures: List[str], metrics: Dict, notes: Dict) -> Dict:
    """Operations are frames, syncs and queries; a failed one is a sync
    error or drop, or a query that did not return 200 + JSON."""
    attempted = sum(
        phase.frames + phase.probe_frames + phase.syncs
        + (len(phase.queries.latency_ms) if phase.queries else 0)
        for phase in phases
    )
    op_failures = [failure for phase in phases for failure in phase.failures]
    return {
        "failures": op_failures + failures,
        "attempted": attempted,
        "failed": len(op_failures),
        "metrics": metrics,
        "notes": notes,
    }


def scratch_dir() -> str:
    path = os.path.join(ROOT, ".perfbench_tmp", "run-%d" % os.getpid())
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path
