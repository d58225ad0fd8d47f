"""In-memory span recording around the public calls of each layer.

The benchmark never edits ``src/``: it wraps the layer boundaries from
outside, by replacing class attributes and module globals with timing
wrappers before the program builds its objects.  One span is recorded
per wrapped call as a tuple::

    (name, start_ns, end_ns, parent_index, batch_id, thread_id, extra)

``parent_index`` is the index of the innermost enclosing span on the
same thread (-1 at the root), so a layer's self time is its duration
minus its children's.  ``batch_id`` ties a served batch's queue wait
(enqueue) to the ingest that consumed it.  Nothing is wrapped per key:
top-k work comes from the daemon's ``OpCounter`` deltas.

Spans stay in memory and are written once, at exit, as JSON.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

Span = Tuple[str, int, int, int, int, int, Optional[Dict[str, Any]]]


class Recorder:
    """Collects spans from every thread of one process."""

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self._local = threading.local()
        self._batch_ids = itertools.count()
        #: id(batch) -> (enqueue time, batch id) for batches still queued.
        self.enqueued: Dict[int, Tuple[int, int]] = {}
        self._originals: List[Tuple[Any, str, Any]] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        before: Optional[Callable[..., Any]] = None,
        after: Optional[Callable[..., Optional[Dict[str, Any]]]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a wrapper recording span ``name``.

        ``before(args, kwargs)`` runs before the call and its value is
        handed to ``after(args, kwargs, result, state)``, which returns
        the span's ``extra`` counts (or None).
        """
        original = getattr(owner, attr)
        self._originals.append((owner, attr, owner.__dict__[attr]))
        spans = self.spans
        stack_of = self._stack

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            state = before(args, kwargs) if before is not None else None
            start = time.perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
            extra = after(args, kwargs, result, state) if after is not None else None
            batch = -1
            if extra is not None:
                batch = extra.pop("batch", -1)
            spans[index] = (
                name, start, end, parent, batch, threading.get_ident(), extra,
            )
            return result

        setattr(owner, attr, wrapper)

    def unwrap(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def dump(self, path: str) -> None:
        """Write every span; a call that raised leaves a ``null`` hole,
        so list positions (the parent indices) stay valid."""
        with open(path, "w") as handle:
            json.dump(self.spans, handle)


def load(path: str) -> List[Optional[Span]]:
    with open(path) as handle:
        return [None if span is None else tuple(span) for span in json.load(handle)]


def install_server(recorder: Recorder) -> None:
    """Wrap the service-process layers: records, server queue, daemon,
    nitro, geometric, kernel, sketch, query, tenants, checkpoint,
    windows.  Call before the service builds any tenant."""
    from repro.control.checkpoint import CheckpointManager
    from repro.control.windows import SlidingWindowMonitor
    from repro.core import nitro
    from repro.core.nitro import NitroSketch
    from repro.kernels.rowkernel import SketchKernel
    from repro.service import records, server
    from repro.service.query import QueryRoutes
    from repro.service.tenants import TenantManager
    from repro.sketches.base import CanonicalSketch
    from repro.switchsim.daemon import MeasurementDaemon

    rec = recorder

    # service.records -- only ingest frames count as decode work.
    rec.wrap(records, "decode_header", "records.decode_header",
             after=lambda a, k, r, s: {"ingest": r[0] == "ingest"})
    rec.wrap(records, "decode_keys", "records.decode_keys")
    rec.wrap(records, "batch_from_keys", "records.batch_from_keys")

    # service.server -- queue wait runs from enqueue to daemon.ingest.
    def after_enqueue(args, kwargs, accepted, state):
        daemon, batch = args[0], args[1]
        if not accepted:
            return {"depth": daemon.queue_depth}
        batch_id = next(rec._batch_ids)
        rec.enqueued[id(batch)] = (time.perf_counter_ns(), batch_id)
        return {"depth": daemon.queue_depth, "batch": batch_id}

    rec.wrap(MeasurementDaemon, "enqueue", "server.enqueue", after=after_enqueue)
    rec.wrap(MeasurementDaemon, "drain", "server.drain",
             after=lambda a, k, drained, s: {
                 "drained": drained,
                 "quantum": (a[1] if len(a) > 1 else k.get("max_batches"))
                 == server.DRAIN_QUANTUM,
             })

    # switchsim.daemon -- queue wait, packets and top-k op deltas.
    def before_ingest(args, kwargs):
        daemon, batch = args[0], args[1]
        queued = rec.enqueued.pop(id(batch), None)
        ops = daemon.ops
        return (time.perf_counter_ns(), queued, ops.table_lookups, ops.heap_ops)

    def after_ingest(args, kwargs, result, state):
        daemon, batch = args[0], args[1]
        start, queued, lookups, heap_ops = state
        extra = {
            "packets": len(batch),
            "lookups": daemon.ops.table_lookups - lookups,
            "heap_ops": daemon.ops.heap_ops - heap_ops,
        }
        if queued is not None:
            extra["queue_wait_ns"] = start - queued[0]
            extra["batch"] = queued[1]
        return extra

    rec.wrap(MeasurementDaemon, "ingest", "daemon.ingest",
             before=before_ingest, after=after_ingest)
    rec.wrap(MeasurementDaemon, "epoch_boundary", "daemon.epoch_boundary")

    # core.nitro / core.geometric / kernels / sketches.
    rec.wrap(NitroSketch, "update_batch", "nitro.update_batch",
             before=lambda a, k: a[0].packets_sampled,
             after=lambda a, k, r, sampled: {
                 "packets": len(a[1]),
                 "sampled": a[0].packets_sampled - sampled,
             })
    rec.wrap(nitro, "geometric_positions", "geometric.positions")
    rec.wrap(SketchKernel, "slot_update", "kernel.slot_update",
             after=lambda a, k, r, s: {"slots": len(a[1])})
    rec.wrap(CanonicalSketch, "update_batch", "kernel.exact_update")
    rec.wrap(CanonicalSketch, "query_batch", "sketch.query_batch",
             after=lambda a, k, r, s: {"keys": len(a[1])})

    # service.query / service.tenants / control.checkpoint / windows.
    rec.wrap(QueryRoutes, "dispatch", "query.dispatch")
    rec.wrap(TenantManager, "_evict", "tenants.evict")
    rec.wrap(TenantManager, "_restore", "tenants.restore")
    rec.wrap(CheckpointManager, "save", "checkpoint.save",
             after=lambda a, k, written, s: {"bytes": os.path.getsize(written.path)})
    rec.wrap(CheckpointManager, "restore_latest", "checkpoint.restore")
    rec.wrap(SlidingWindowMonitor, "rotate", "windows.rotate")


def install_client(recorder: Recorder) -> None:
    """Wrap the load generator's side of the wire (service.client)."""
    from repro.service.client import IngestClient

    recorder.wrap(IngestClient, "ingest", "client.ingest",
                  after=lambda a, k, r, s: {"packets": len(a[2])})
