"""Per-layer metrics of a traced run, computed from recorded spans.

Each metric names the layer (module) it measures; README.md maps each
one to the end-to-end metric and workload it should move.  Every traced
run reports the full list; a layer a workload does not exercise reads 0.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Tuple

from measure import percentile

#: (name, unit) of every per-layer metric, in report order.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("client.send_us_per_frame", "us"),
    ("records.decode_us_per_frame", "us"),
    ("server.queue_wait_ms_p50", "ms"),
    ("server.queue_wait_ms_p90", "ms"),
    ("server.queue_depth_max", "count"),
    ("server.drain_hold_ms_p90", "ms"),
    ("server.cpu_busy_frac", "ratio"),
    ("daemon.self_us_per_batch", "us"),
    ("daemon.epoch_ms_p50", "ms"),
    ("nitro.update_ns_per_pkt", "ns"),
    ("nitro.self_ns_per_pkt", "ns"),
    ("nitro.sampled_frac", "ratio"),
    ("geometric.ns_per_pkt", "ns"),
    ("kernel.slot_update_ns_per_pkt", "ns"),
    ("kernel.slots_per_pkt", "count"),
    ("kernel.exact_update_ns_per_pkt", "ns"),
    ("sketch.query_batch_ns_per_pkt", "ns"),
    ("sketch.query_keys_per_pkt", "count"),
    ("topk.lookups_per_pkt", "count"),
    ("topk.heap_ops_per_pkt", "count"),
    ("query.handler_ms_p50", "ms"),
    ("query.handler_ms_p90", "ms"),
    ("tenants.evictions_per_s", "1/s"),
    ("tenants.restores_per_s", "1/s"),
    ("checkpoint.save_ms_p50", "ms"),
    ("checkpoint.restore_ms_p50", "ms"),
    ("checkpoint.bytes_per_save", "bytes"),
    ("windows.rotate_ms_p50", "ms"),
    ("engine.worker_busy_frac", "ratio"),
    ("engine.publish_wait_s", "s"),
    ("engine.parent_s", "s"),
    ("engine.agg_cpu_mpps", "Mpps"),
    ("loadgen.late_ms_p90", "ms"),
    ("loadgen.cpu_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
)

#: The blocking path of a served batch, in the order the report prints
#: it; each entry maps a path step to the span names whose self time it
#: owns inside ``daemon.ingest`` (client/records/queue sit outside).
INGEST_LAYERS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("daemon", ("daemon.ingest", "daemon.epoch_boundary")),
    ("nitro", ("nitro.update_batch",)),
    ("geometric", ("geometric.positions",)),
    ("kernel", ("kernel.slot_update", "kernel.exact_update")),
    ("sketch", ("sketch.query_batch",)),
)


def zero_metrics() -> Dict[str, float]:
    return {name: 0.0 for name, _ in PER_LAYER}


class SpanTree:
    """Spans of one process with self times, filtered to a window."""

    def __init__(self, spans: Sequence[Optional[tuple]], start_ns: int, end_ns: int) -> None:
        self.spans = spans
        children = [0] * len(spans)
        for span in spans:
            if span is not None and span[3] >= 0:
                children[span[3]] += span[2] - span[1]
        self._children = children
        self.window_seconds = (end_ns - start_ns) / 1e9
        self.by_name: Dict[str, List[int]] = defaultdict(list)
        for index, span in enumerate(spans):
            if span is not None and span[1] >= start_ns and span[2] <= end_ns:
                self.by_name[span[0]].append(index)

    def duration(self, index: int) -> int:
        span = self.spans[index]
        return span[2] - span[1]

    def self_ns(self, index: int) -> int:
        return self.duration(index) - self._children[index]

    def extra(self, index: int) -> Dict:
        return self.spans[index][6] or {}

    def under(self, index: int, ancestor: str) -> bool:
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == ancestor:
                return True
            parent = self.spans[parent][3]
        return False

    def total(self, name: str, **filters) -> int:
        return sum(self.duration(i) for i in self.select(name, **filters))

    def select(self, name: str, under: Optional[str] = None) -> List[int]:
        indices = self.by_name.get(name, [])
        if under is not None:
            indices = [i for i in indices if self.under(i, under)]
        return indices

    def durations_ms(self, name: str) -> List[float]:
        return [self.duration(i) / 1e6 for i in self.select(name)]


def _records_ns(server: SpanTree) -> int:
    """Wire decode time of ingest frames: header + keys + Batch."""
    header_ns = sum(
        server.duration(i) for i in server.select("records.decode_header")
        if server.extra(i).get("ingest")
    )
    return (header_ns + server.total("records.decode_keys")
            + server.total("records.batch_from_keys"))


def served_layers(
    server: SpanTree,
    client: SpanTree,
    cpu_busy_frac: float,
    query_late_ms: Sequence[float],
    loadgen_cpu_frac: float,
) -> Dict[str, float]:
    """Per-layer metrics of one traced served window."""
    metrics = zero_metrics()
    frames = client.select("client.ingest")
    if frames:
        metrics["client.send_us_per_frame"] = client.total("client.ingest") / len(frames) / 1e3
    keys_spans = server.select("records.decode_keys")
    if keys_spans:
        metrics["records.decode_us_per_frame"] = _records_ns(server) / len(keys_spans) / 1e3

    ingests = server.select("daemon.ingest")
    waits = [server.extra(i)["queue_wait_ns"] / 1e6 for i in ingests
             if "queue_wait_ns" in server.extra(i)]
    metrics["server.queue_wait_ms_p50"] = percentile(waits, 50)
    metrics["server.queue_wait_ms_p90"] = percentile(waits, 90)
    metrics["server.queue_depth_max"] = float(max(
        (server.extra(i)["depth"] for i in server.select("server.enqueue")), default=0))
    holds = [server.duration(i) / 1e6 for i in server.select("server.drain")
             if server.extra(i).get("quantum") and server.extra(i).get("drained")]
    metrics["server.drain_hold_ms_p90"] = percentile(holds, 90)
    metrics["server.cpu_busy_frac"] = cpu_busy_frac

    if ingests:
        updates_ns = sum(server.duration(i) for i in server.select("nitro.update_batch")
                         if server.under(i, "daemon.ingest"))
        metrics["daemon.self_us_per_batch"] = (
            server.total("daemon.ingest") - updates_ns) / len(ingests) / 1e3
    metrics["daemon.epoch_ms_p50"] = percentile(server.durations_ms("daemon.epoch_boundary"), 50)

    updates = server.select("nitro.update_batch", under="daemon.ingest")
    packets = sum(server.extra(i)["packets"] for i in updates)
    if packets:
        per_packet = lambda ns: ns / packets  # noqa: E731
        metrics["nitro.update_ns_per_pkt"] = per_packet(sum(server.duration(i) for i in updates))
        metrics["nitro.self_ns_per_pkt"] = per_packet(sum(server.self_ns(i) for i in updates))
        metrics["nitro.sampled_frac"] = sum(server.extra(i)["sampled"] for i in updates) / packets
        metrics["geometric.ns_per_pkt"] = per_packet(server.total("geometric.positions"))
        slot_updates = server.select("kernel.slot_update", under="nitro.update_batch")
        metrics["kernel.slot_update_ns_per_pkt"] = per_packet(
            sum(server.duration(i) for i in slot_updates))
        metrics["kernel.slots_per_pkt"] = sum(
            server.extra(i)["slots"] for i in slot_updates) / packets
        metrics["kernel.exact_update_ns_per_pkt"] = per_packet(
            server.total("kernel.exact_update", under="nitro.update_batch"))
        queries = server.select("sketch.query_batch", under="nitro.update_batch")
        metrics["sketch.query_batch_ns_per_pkt"] = per_packet(
            sum(server.duration(i) for i in queries))
        metrics["sketch.query_keys_per_pkt"] = sum(
            server.extra(i)["keys"] for i in queries) / packets
        metrics["topk.lookups_per_pkt"] = sum(
            server.extra(i)["lookups"] for i in ingests) / packets
        metrics["topk.heap_ops_per_pkt"] = sum(
            server.extra(i)["heap_ops"] for i in ingests) / packets

    handlers = server.durations_ms("query.dispatch")
    metrics["query.handler_ms_p50"] = percentile(handlers, 50)
    metrics["query.handler_ms_p90"] = percentile(handlers, 90)
    seconds = server.window_seconds
    metrics["tenants.evictions_per_s"] = len(server.select("tenants.evict")) / seconds
    metrics["tenants.restores_per_s"] = len(server.select("tenants.restore")) / seconds
    metrics["checkpoint.save_ms_p50"] = percentile(server.durations_ms("checkpoint.save"), 50)
    # A restore_latest that found no checkpoint (a brand-new tenant)
    # is a directory listing, not a restore: only restores count.
    restores = [
        server.duration(i) / 1e6 for i in server.select("checkpoint.restore")
        if server.under(i, "tenants.restore")
    ]
    metrics["checkpoint.restore_ms_p50"] = percentile(restores, 50)
    saves = server.select("checkpoint.save")
    if saves:
        metrics["checkpoint.bytes_per_save"] = sum(
            server.extra(i)["bytes"] for i in saves) / len(saves)
    metrics["windows.rotate_ms_p50"] = percentile(server.durations_ms("windows.rotate"), 50)
    metrics["loadgen.late_ms_p90"] = percentile(query_late_ms, 90)
    metrics["loadgen.cpu_frac"] = loadgen_cpu_frac
    return metrics


def blocking_path(server: SpanTree, client: SpanTree) -> List[Tuple[str, float, float]]:
    """(step, self microseconds per batch, ns per packet) along the path
    client -> records -> queue -> daemon -> nitro -> geometric/kernel/sketch,
    plus a last row comparing the five in-ingest layers to ``daemon.ingest``."""
    ingests = server.select("daemon.ingest")
    frames = max(len(ingests), 1)
    packets = max(sum(server.extra(i)["packets"] for i in ingests), 1)
    rows = []

    def add(step: str, ns: float) -> None:
        rows.append((step, ns / frames / 1e3, ns / packets))

    add("client", client.total("client.ingest"))
    add("records", _records_ns(server))
    add("queue", sum(server.extra(i).get("queue_wait_ns", 0) for i in ingests))
    layer_sum = 0
    for step, names in INGEST_LAYERS:
        ns = sum(
            server.self_ns(i)
            for name in names
            for i in server.select(name)
            if name == "daemon.ingest" or server.under(i, "daemon.ingest")
        )
        layer_sum += ns
        add(step, ns)
    rows.append(("sum/ingest", layer_sum / max(server.total("daemon.ingest"), 1), 0.0))
    return rows
