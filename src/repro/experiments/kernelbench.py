"""Kernel-layer benchmark: fused batch paths vs the seed implementations.

The fused kernels (:mod:`repro.kernels`) replaced three hot paths:

* ``KWiseHash.batch`` -- object-dtype Python big-int polynomial
  evaluation -> native ``uint64`` Mersenne-61 arithmetic;
* ``CanonicalSketch.update_batch`` -- per-row Python loop with one
  ``np.add.at`` scatter per row -> one broadcast hash over every row
  plus a single flat-index scatter;
* ``NitroSketch.update_batch`` -- per-row mask loop plus *scalar*
  top-k query offers -> fused slot kernel plus ``query_batch``.

This module keeps faithful copies of the seed implementations (pinned
below, verbatim from the pre-kernel revision) and times both sides on
the same CAIDA-like workload.  ``python -m repro.experiments.kernelbench``
writes the machine-readable ``BENCH_kernels.json`` baseline that
``scripts/check_perf.py`` regresses against.
"""

from __future__ import annotations

import json
import time
from typing import Callable, Dict, Optional

import numpy as np

from repro.core import NitroSketch
from repro.experiments.report import ExperimentResult, print_result
from repro.hashing.families import MERSENNE_PRIME_61, KWiseHash
from repro.sketches import CountMinSketch, CountSketch
from repro.traffic import caida_like

#: Shapes match the paper's Section-7 Count Sketch configuration.
DEPTH, WIDTH = 5, 102400

#: Keys per frame of the served-shape row: perfbench's ``bulk_ingest``
#: frame size.
SERVICE_FRAME_KEYS = 16384

#: Minimum speedups the kernel layer must deliver (acceptance gates).
KWISE_SPEEDUP_FLOOR = 5.0
NITRO_SPEEDUP_FLOOR = 2.0

#: Enabling a real Telemetry sink on the batch update path may cost at
#: most this factor versus the default NULL_TELEMETRY no-op sink.
TELEMETRY_OVERHEAD_CEILING = 1.10

#: Running a live shadow auditor alongside the batch ingest path may
#: cost at most this factor versus an unaudited NULL_TELEMETRY run.
AUDIT_OVERHEAD_CEILING = 1.10

#: Periodic crash-safety checkpoints (serialize + atomic write + fsync)
#: at the default cadence may cost at most this factor versus a daemon
#: that never checkpoints.
CHECKPOINT_OVERHEAD_CEILING = 1.10

#: The *disabled* invariant hook (one ``is not None`` attribute test per
#: ``update_batch`` call) may cost at most this factor versus calling
#: the batch implementation directly with no hook dispatch at all.
VERIFY_OVERHEAD_CEILING = 1.05

#: Full tracing instrumentation -- a live Telemetry sink, the span
#: tracer, and a StageProfiler at its default sampling cadence -- may
#: cost at most this factor versus the bare NULL_TELEMETRY/NULL_PROFILER
#: ingest path.
TRACING_OVERHEAD_CEILING = 1.10

#: The alert plane at its default cadence -- sketch-driven anomaly
#: detectors observing every epoch plus an AlertManager evaluating the
#: default rule set -- may cost at most this factor versus bare ingest.
ALERT_OVERHEAD_CEILING = 1.10

#: Routing batched ingest through a :class:`SlidingWindowMonitor` --
#: the boundary check per batch, epoch rotations (recycle + reset) at
#: the default cadence, and merged-view cache invalidation -- may cost
#: at most this factor versus updating the wrapped sketch directly.
WINDOW_OVERHEAD_CEILING = 1.15

#: Serving ingest over the wire -- client-side frame encode, loopback
#: TCP, the asyncio reader, header/key decode, per-tenant queue and the
#: drainer coroutine -- may cost at most this factor versus the same
#: batches ingested in-process through ``MeasurementDaemon.ingest``.
SERVICE_OVERHEAD_CEILING = 1.15


# -- seed (pre-kernel) reference implementations ---------------------------


def legacy_kwise_batch(hash_fn: KWiseHash, keys: "np.ndarray") -> "np.ndarray":
    """The seed ``KWiseHash.batch``: object-dtype big-int Horner loop."""
    ks = np.asarray(keys, dtype=object) % MERSENNE_PRIME_61
    acc = np.zeros(ks.shape, dtype=object)
    for coeff in reversed(hash_fn._coeffs):
        acc = (acc * ks + coeff) % MERSENNE_PRIME_61
    return (acc % hash_fn.width).astype(np.int64)


def legacy_update_batch(sketch, keys: "np.ndarray", weights=None) -> None:
    """The seed ``CanonicalSketch.update_batch``: per-row ``np.add.at``."""
    keys = np.asarray(keys)
    if weights is None:
        weights = np.ones(keys.shape, dtype=np.float64)
    else:
        weights = np.asarray(weights, dtype=np.float64)
    sketch.ops.packet(len(keys))
    for row in range(sketch.depth):
        sketch.ops.hash(len(keys))
        buckets = sketch.row_hashes[row].batch(keys)
        if sketch.signed:
            signs = sketch.row_signs[row].batch(keys)
            np.add.at(sketch.counters[row], buckets, weights * signs)
        else:
            np.add.at(sketch.counters[row], buckets, weights)
        sketch.ops.counter_update(len(keys))


def legacy_nitro_update_batch(nitro: NitroSketch, keys: "np.ndarray", weights=None) -> None:
    """The seed ``NitroSketch.update_batch`` sampled path.

    Per-row mask loop over the sampled slots, then one *scalar*
    ``sketch.query`` per distinct sampled key for the top-k offers --
    the dominant cost the fused path removes.
    """
    from repro.core.geometric import geometric_positions

    keys = np.asarray(keys)
    count = len(keys)
    if count == 0:
        return
    nitro.packets_seen += count
    nitro.ops.packet(count)

    probability = nitro.sampler.probability
    depth = nitro.sketch.depth
    total_slots = count * depth
    if nitro._pending >= total_slots:
        nitro._pending -= total_slots
        return
    first = nitro._pending
    tail, leftover = geometric_positions(
        probability, total_slots - first - 1, nitro._batch_rng
    )
    positions = np.concatenate([np.array([first], dtype=np.int64), first + 1 + tail])
    nitro._pending = leftover
    nitro.ops.prng(len(positions))

    packet_idx = positions // depth
    rows = positions % depth
    inverse = 1.0 / probability
    if weights is None:
        slot_weights = np.full(positions.shape, inverse, dtype=np.float64)
    else:
        slot_weights = np.asarray(weights, dtype=np.float64)[packet_idx] * inverse

    sampled_keys = keys[packet_idx]
    nitro.sketch.note_batch_mass(float(np.sum(slot_weights)))
    sketch = nitro.sketch
    for row in range(depth):
        mask = rows == row
        if not np.any(mask):
            continue
        row_keys = sampled_keys[mask]
        nitro.ops.hash(len(row_keys))
        buckets = sketch.row_hashes[row].batch(row_keys)
        if sketch.signed:
            signs = sketch.row_signs[row].batch(row_keys)
            np.add.at(sketch.counters[row], buckets, slot_weights[mask] * signs)
        else:
            np.add.at(sketch.counters[row], buckets, slot_weights[mask])
        nitro.ops.counter_update(len(row_keys))

    sampled_packets = int(np.unique(packet_idx).size)
    nitro.packets_sampled += sampled_packets
    if nitro.topk is not None:
        unique_keys = np.unique(sampled_keys)
        nitro.ops.table_lookup(max(sampled_packets - len(unique_keys), 0))
        for key in unique_keys.tolist():
            nitro.topk.offer(int(key), nitro.sketch.query(int(key)))


def legacy_query_loop(sketch, keys: "np.ndarray") -> "np.ndarray":
    """Per-key scalar point queries (what heavy-hitter reports used)."""
    return np.array([sketch.query(int(key)) for key in keys], dtype=np.float64)


# -- timing harness --------------------------------------------------------


def _best_time(fn: Callable[[], None], repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def run(scale: float = 1.0, seed: int = 0, repeats: int = 3) -> ExperimentResult:
    """Time legacy vs fused on each replaced hot path.

    Rates are millions of keys (or packets) per second over a shared
    CAIDA-like trace; ``speedup`` is fused over legacy.
    """
    n = max(10_000, int(200_000 * scale))
    trace = caida_like(n, n_flows=max(2_000, n // 5), seed=seed + 1)
    keys = trace.keys
    result = ExperimentResult(
        name="kernelbench",
        description=(
            "Fused batch kernels vs the seed implementations "
            "(%d-packet CAIDA-like trace, best of %d)" % (n, repeats)
        ),
    )

    def bench(name, unit, count, legacy_fn, fused_fn):
        legacy_s = _best_time(legacy_fn, repeats)
        fused_s = _best_time(fused_fn, repeats)
        row = {
            "bench": name,
            "unit": unit,
            "legacy_rate": count / legacy_s / 1e6,
            "fused_rate": count / fused_s / 1e6,
            "speedup": legacy_s / fused_s,
        }
        result.rows.append(row)
        return row

    # 1. Four-wise polynomial hashing (UnivMon samplers, SignHash).
    kwise = KWiseHash(4, WIDTH, seed=seed + 11)
    kwise_row = bench(
        "kwise4_batch_hash",
        "Mkeys/s",
        len(keys),
        lambda: legacy_kwise_batch(kwise, keys),
        lambda: kwise.batch(keys),
    )

    # 2. Whole-sketch vanilla batch updates (unsigned and signed).
    cm_legacy = CountMinSketch(DEPTH, WIDTH, seed=seed + 21)
    cm_fused = CountMinSketch(DEPTH, WIDTH, seed=seed + 21)
    bench(
        "countmin_update_batch",
        "Mpps",
        len(keys),
        lambda: legacy_update_batch(cm_legacy, keys),
        lambda: cm_fused.update_batch(keys),
    )
    cs_legacy = CountSketch(DEPTH, WIDTH, seed=seed + 22)
    cs_fused = CountSketch(DEPTH, WIDTH, seed=seed + 22)
    bench(
        "countsketch_update_batch",
        "Mpps",
        len(keys),
        lambda: legacy_update_batch(cs_legacy, keys),
        lambda: cs_fused.update_batch(keys),
    )

    # 3. NitroSketch end-to-end (sampled slots + top-k offers).
    nitro_legacy = NitroSketch(
        CountSketch(DEPTH, WIDTH, seed=seed + 31), probability=0.01, top_k=100
    )
    nitro_fused = NitroSketch(
        CountSketch(DEPTH, WIDTH, seed=seed + 31), probability=0.01, top_k=100
    )
    nitro_row = bench(
        "nitro_countsketch_update_batch",
        "Mpps",
        len(keys),
        lambda: legacy_nitro_update_batch(nitro_legacy, keys),
        lambda: nitro_fused.update_batch(keys),
    )

    # 3b. The served tenant (the default ServiceConfig monitor: d=5,
    # w=4096, p=0.1, top-k 100) in 16,384-key frames: at p=0.1 about 40%
    # of packets are sampled, so top-k admission and the distinct-key
    # pass dominate the batch.  build_monitor is deterministic, so both
    # sides start identical; the first pass converges AlwaysCorrect and
    # best-of timing keeps the sampled steady state.
    from repro.service.tenants import ServiceConfig

    frames = [
        keys[start : start + SERVICE_FRAME_KEYS]
        for start in range(0, len(keys), SERVICE_FRAME_KEYS)
    ]
    served_config = ServiceConfig(seed=seed + 32)
    served_legacy = served_config.build_monitor("bench")
    served_fused = served_config.build_monitor("bench")

    def frames_through(update):
        def ingest():
            for frame in frames:
                update(frame)

        return ingest

    bench(
        "nitro_countsketch_topk_p10",
        "Mpps",
        len(keys),
        frames_through(lambda frame: legacy_nitro_update_batch(served_legacy, frame)),
        frames_through(served_fused.update_batch),
    )

    # 4. Batch point queries (heavy-hitter report path).
    probe_sketch = CountSketch(DEPTH, WIDTH, seed=seed + 41)
    probe_sketch.update_batch(keys)
    probe = np.unique(keys)[: max(2_000, n // 40)]
    bench(
        "countsketch_query_batch",
        "Mkeys/s",
        len(probe),
        lambda: legacy_query_loop(probe_sketch, probe),
        lambda: probe_sketch.query_batch(probe),
    )

    result.notes.append(
        "gates: kwise4 speedup >= %.1fx (got %.1fx), nitro end-to-end >= "
        "%.1fx (got %.1fx)"
        % (
            KWISE_SPEEDUP_FLOOR,
            kwise_row["speedup"],
            NITRO_SPEEDUP_FLOOR,
            nitro_row["speedup"],
        )
    )
    return result


def telemetry_overhead(
    scale: float = 1.0, seed: int = 0, repeats: int = 3, chunk: int = 4096
) -> Dict[str, float]:
    """Cost of a live Telemetry sink on ``NitroSketch.update_batch``.

    Feeds the same CAIDA-like trace in ``chunk``-sized batches (so the
    per-batch instrumentation cost is actually exercised, not amortised
    into one giant call) twice: once with the default
    :data:`~repro.telemetry.NULL_TELEMETRY` sink and once with a real
    :class:`~repro.telemetry.Telemetry` attached.  Returns both times
    and their ratio, which ``scripts/check_perf.py`` gates at
    :data:`TELEMETRY_OVERHEAD_CEILING`.
    """
    from repro.telemetry import Telemetry

    n = max(10_000, int(200_000 * scale))
    trace = caida_like(n, n_flows=max(2_000, n // 5), seed=seed + 1)
    keys = trace.keys
    chunks = [keys[start : start + chunk] for start in range(0, len(keys), chunk)]

    def build():
        return NitroSketch(
            CountSketch(DEPTH, WIDTH, seed=seed + 51), probability=0.01, top_k=100
        )

    def ingest(nitro):
        def run_once():
            for piece in chunks:
                nitro.update_batch(piece)

        return run_once

    null_nitro = build()
    live_nitro = build()
    live_nitro.telemetry = Telemetry()
    null_seconds = _best_time(ingest(null_nitro), repeats)
    live_seconds = _best_time(ingest(live_nitro), repeats)
    return {
        "packets": float(n),
        "null_seconds": null_seconds,
        "live_seconds": live_seconds,
        "ratio": live_seconds / null_seconds,
    }


def tracing_overhead(
    scale: float = 1.0,
    seed: int = 0,
    repeats: int = 3,
    chunk: int = 4096,
    sample_every: int = 16,
) -> Dict[str, float]:
    """Cost of the full tracing/profiling stack on the ingest hot path.

    Feeds the same chunked CAIDA-like stream through
    ``NitroSketch.update_batch`` twice: once bare (the production
    defaults, NULL_TELEMETRY + NULL_PROFILER) and once with the whole
    observability stack live -- a real :class:`~repro.telemetry.
    Telemetry` sink (which carries the span tracer), a per-epoch span
    opened around each pass, and a :class:`~repro.telemetry.profile.
    StageProfiler` timing pipeline stages on every ``sample_every``-th
    batch.  The ratio is gated at :data:`TRACING_OVERHEAD_CEILING` by
    ``scripts/check_perf.py``; it is what bounds the "continuous
    profiling is cheap enough to leave on" claim.
    """
    from repro.telemetry import Telemetry
    from repro.telemetry.profile import StageProfiler

    n = max(10_000, int(200_000 * scale))
    trace = caida_like(n, n_flows=max(2_000, n // 5), seed=seed + 1)
    keys = trace.keys
    chunks = [keys[start : start + chunk] for start in range(0, len(keys), chunk)]

    def build():
        return NitroSketch(
            CountSketch(DEPTH, WIDTH, seed=seed + 91), probability=0.01, top_k=100
        )

    bare_nitro = build()
    traced_nitro = build()
    telemetry = Telemetry()
    traced_nitro.telemetry = telemetry
    traced_nitro.profiler = StageProfiler(telemetry, sample_every=sample_every)

    def bare_pass():
        for piece in chunks:
            bare_nitro.update_batch(piece)

    def traced_pass():
        with telemetry.start_span("epoch", trace_id="perf", span_id="perf"):
            for piece in chunks:
                traced_nitro.update_batch(piece)

    # Warm-up, then interleaved best-of rounds so machine-load drift
    # moves both sides alike (same rationale as verify_overhead).
    bare_pass()
    traced_pass()
    bare_seconds = float("inf")
    traced_seconds = float("inf")
    for _ in range(max(repeats, 7)):
        bare_seconds = min(bare_seconds, _best_time(bare_pass, 1))
        traced_seconds = min(traced_seconds, _best_time(traced_pass, 1))
    return {
        "packets": float(n),
        "sample_every": float(sample_every),
        "bare_seconds": bare_seconds,
        "traced_seconds": traced_seconds,
        "ratio": traced_seconds / bare_seconds,
    }


def alert_overhead(
    scale: float = 1.0,
    seed: int = 0,
    repeats: int = 3,
    chunk: int = 16384,
    epoch_every: int = 32,
) -> Dict[str, float]:
    """Cost of the alert plane + anomaly detectors on the ingest path.

    Feeds the same chunked CAIDA-like stream through a NitroSketch
    K-ary monitor twice: once bare, and once with the PR-8 alert plane
    live -- :class:`~repro.telemetry.anomaly.SketchAnomalyDetectors`
    observing an epoch every ``epoch_every`` chunks (sketch clone +
    difference + candidate queries + entropy/churn scores) and an
    :class:`~repro.telemetry.AlertManager` evaluating the default rule
    set at each epoch boundary.  The ratio is gated at
    :data:`ALERT_OVERHEAD_CEILING` by ``scripts/check_perf.py``; it is
    what bounds the "alerting is cheap enough to leave on" claim.

    The epoch size is the knob that makes this gate meaningful: the
    per-epoch cost (~0.5 ms: one sketch clone + difference, a few
    hundred candidate queries, one registry snapshot) is fixed, so the
    ratio depends on how much ingest an epoch amortises it over.  The
    default cadence of ``chunk * epoch_every`` = 524k packets per epoch
    matches the production shape -- an epoch is seconds of traffic, not
    a handful of batches -- which is why ``n`` has a higher floor here
    than the other overhead benchmarks.
    """
    from repro.core import nitro_kary
    from repro.telemetry import AlertManager, HistoryStore, ManualClock, Telemetry
    from repro.telemetry.anomaly import SketchAnomalyDetectors, default_alert_rules

    n = max(300_000, int(600_000 * scale))
    trace = caida_like(n, n_flows=max(2_000, n // 5), seed=seed + 1)
    keys = trace.keys
    chunks = [keys[start : start + chunk] for start in range(0, len(keys), chunk)]
    # Never let a small run dodge the gate entirely: at least one epoch
    # boundary must land inside the measured pass.
    epoch_every = min(epoch_every, len(chunks))

    def build():
        return nitro_kary(
            depth=DEPTH, width=8192, probability=0.01, top_k=100, seed=seed + 131
        )

    bare_nitro = build()
    alerted_nitro = build()
    telemetry = Telemetry()
    detectors = SketchAnomalyDetectors(telemetry=telemetry)
    manager = AlertManager(
        telemetry,
        rules=default_alert_rules(),
        history=HistoryStore(),
        clock=ManualClock(),
    )
    epoch_packets = chunk * epoch_every

    def bare_pass():
        for piece in chunks:
            bare_nitro.update_batch(piece)

    def alert_pass():
        detectors.reset()
        for index, piece in enumerate(chunks):
            alerted_nitro.update_batch(piece)
            if (index + 1) % epoch_every == 0:
                detectors.observe_epoch(alerted_nitro, epoch_packets)
                manager.evaluate()

    # Warm-up, then interleaved best-of rounds so machine-load drift
    # moves both sides alike (same rationale as tracing_overhead).
    bare_pass()
    alert_pass()
    bare_seconds = float("inf")
    alerted_seconds = float("inf")
    for _ in range(max(repeats, 7)):
        bare_seconds = min(bare_seconds, _best_time(bare_pass, 1))
        alerted_seconds = min(alerted_seconds, _best_time(alert_pass, 1))
    return {
        "packets": float(n),
        "epoch_every": float(epoch_every),
        "bare_seconds": bare_seconds,
        "alerted_seconds": alerted_seconds,
        "ratio": alerted_seconds / bare_seconds,
    }


def window_overhead(
    scale: float = 1.0,
    seed: int = 0,
    repeats: int = 3,
    chunk: int = 8192,
    window_epochs: int = 4,
    epochs_per_pass: int = 8,
) -> Dict[str, float]:
    """Cost of windowed ingest vs an epoch-reset sketch updated directly.

    Feeds the same chunked CAIDA-like stream through a NitroSketch
    twice: once wrapped in a
    :class:`~repro.control.windows.SlidingWindowMonitor` whose epoch
    size triggers ``epochs_per_pass`` rotations per measured pass, and
    once bare but ``reset()`` at the same epoch cadence.  The bare-side
    resets matter: a fresh epoch refills the Nitro top-k heap, and that
    warm-up is a property of *measuring in epochs* that both sides must
    pay -- without it the ratio conflates the window's bookkeeping with
    the workload change.  What remains in the ratio is the window's own
    cost: the per-batch boundary check, boundary-crossing batch splits,
    ring rotation (recycle + reset), and merged-view cache
    invalidation.  Gated at :data:`WINDOW_OVERHEAD_CEILING` by
    ``scripts/check_perf.py``; it is what bounds the "windowing rides
    the kernel ingest path" claim (docs/WINDOWS.md).
    """
    from repro.control.windows import SlidingWindowMonitor

    n = max(100_000, int(400_000 * scale))
    trace = caida_like(n, n_flows=max(2_000, n // 5), seed=seed + 1)
    keys = trace.keys
    chunks = [keys[start : start + chunk] for start in range(0, len(keys), chunk)]
    # Batch-aligned epochs: the deployed owners (daemon ``epoch_batches``,
    # control-plane ``adopt_epoch``) rotate *between* batches, so the
    # gate measures that shape; a misaligned ``epoch_packets`` would
    # additionally split one batch per epoch into two kernel calls.
    epoch_packets = max(chunk, n // epochs_per_pass // chunk * chunk)

    def build():
        return NitroSketch(
            CountSketch(DEPTH, 8192, seed=seed + 151), probability=0.01, top_k=100
        )

    bare_nitro = build()
    window = SlidingWindowMonitor(
        build, window_epochs=window_epochs, epoch_packets=epoch_packets
    )

    def bare_pass():
        # Same epoch cadence as the window, minus the window machinery.
        since_epoch = 0
        for piece in chunks:
            bare_nitro.update_batch(piece)
            since_epoch += len(piece)
            if since_epoch >= epoch_packets:
                bare_nitro.reset()
                since_epoch = 0

    def window_pass():
        # The window's packet count carries across passes, so every
        # measured pass crosses the same number of epoch boundaries.
        for piece in chunks:
            window.update_batch(piece)

    # Warm-up, then interleaved best-of rounds so machine-load drift
    # moves both sides alike (same rationale as tracing_overhead).
    bare_pass()
    window_pass()
    bare_seconds = float("inf")
    windowed_seconds = float("inf")
    for _ in range(max(repeats, 7)):
        bare_seconds = min(bare_seconds, _best_time(bare_pass, 1))
        windowed_seconds = min(windowed_seconds, _best_time(window_pass, 1))
    return {
        "packets": float(n),
        "window_epochs": float(window_epochs),
        "epoch_packets": float(epoch_packets),
        "bare_seconds": bare_seconds,
        "windowed_seconds": windowed_seconds,
        "ratio": windowed_seconds / bare_seconds,
    }


def service_overhead(
    scale: float = 1.0,
    seed: int = 0,
    repeats: int = 3,
    chunk: int = 32768,
) -> Dict[str, float]:
    """Cost of served ingest (wire + asyncio) vs direct in-process ingest.

    Feeds the same chunked CAIDA-like stream twice into bit-identical
    tenant monitors (same :meth:`ServiceConfig.build_monitor` seeds):
    once through a live :class:`~repro.service.server.MonitoringService`
    -- :class:`~repro.service.client.IngestClient` frames over loopback
    TCP, the asyncio reader, the tenant queue and the drainer coroutine,
    with a ``sync`` barrier closing each pass -- and once through
    ``MeasurementDaemon.ingest`` in the benchmark process (batch
    construction included: that is what an embedding caller pays).  The
    ratio is gated at :data:`SERVICE_OVERHEAD_CEILING` by
    ``scripts/check_perf.py``; it is what bounds the "running the
    always-on service costs little over embedding the library" claim
    (docs/SERVICE.md).

    The queue is sized to hold a whole pass so ``overflow="wait"`` never
    parks the client: the gate measures serving overhead, not
    backpressure stalls (the chaos suite covers those).
    """
    from repro.service import records
    from repro.service.client import IngestClient
    from repro.service.server import MonitoringService
    from repro.service.tenants import ServiceConfig

    from repro.switchsim.daemon import MeasurementDaemon

    n = max(100_000, int(400_000 * scale))
    trace = caida_like(n, n_flows=max(2_000, n // 5), seed=seed + 1)
    keys = trace.keys
    chunks = [keys[start : start + chunk] for start in range(0, len(keys), chunk)]
    tenant = "bench"

    config = ServiceConfig(
        seed=seed + 171,
        queue_capacity=max(8, 2 * len(chunks)),
        overflow="wait",
        epoch_batches=0,
    )
    direct = MeasurementDaemon(config.build_monitor(tenant))

    def direct_pass():
        for piece in chunks:
            direct.ingest(records.batch_from_keys(piece))

    service = MonitoringService(config, http=False).start()
    client = IngestClient("127.0.0.1", service.ingest_port)

    def served_pass():
        for piece in chunks:
            client.ingest(tenant, piece)
        client.sync(tenant)

    try:
        # Warm-up, then interleaved best-of rounds so machine-load drift
        # moves both sides alike (same rationale as tracing_overhead).
        # The warm-up also converges both (seed-identical) AlwaysCorrect
        # monitors, so measured passes run the sampled steady state.
        direct_pass()
        served_pass()
        direct_seconds = float("inf")
        served_seconds = float("inf")
        for _ in range(max(repeats, 7)):
            direct_seconds = min(direct_seconds, _best_time(direct_pass, 1))
            served_seconds = min(served_seconds, _best_time(served_pass, 1))
    finally:
        client.bye()
        client.close()
        service.stop()
    return {
        "packets": float(n),
        "chunk": float(chunk),
        "direct_seconds": direct_seconds,
        "served_seconds": served_seconds,
        "ratio": served_seconds / direct_seconds,
    }


def audit_overhead(
    scale: float = 1.0,
    seed: int = 0,
    repeats: int = 3,
    chunk: int = 4096,
    capacity: int = 256,
) -> Dict[str, float]:
    """Cost of a live :class:`~repro.telemetry.audit.ShadowAuditor`.

    Feeds the same chunked CAIDA-like stream twice through
    ``NitroSketch.update_batch``: once bare (NULL_TELEMETRY, no auditor)
    and once with a shadow auditor mirroring every chunk into its exact
    ground-truth reservoir -- the live-auditing deployment shape, where
    the auditor rides the daemon's ingest loop.  The ratio is gated at
    :data:`AUDIT_OVERHEAD_CEILING` by ``scripts/check_perf.py``.
    """
    from repro.telemetry.audit import ShadowAuditor

    n = max(10_000, int(200_000 * scale))
    trace = caida_like(n, n_flows=max(2_000, n // 5), seed=seed + 1)
    keys = trace.keys
    chunks = [keys[start : start + chunk] for start in range(0, len(keys), chunk)]

    def build():
        return NitroSketch(
            CountSketch(DEPTH, WIDTH, seed=seed + 61), probability=0.01, top_k=100
        )

    nitro = build()
    auditor = ShadowAuditor(capacity=capacity, seed=seed)
    # Settle the reservoir threshold first: a deployed auditor spends its
    # life in steady state, and the one-off settling pass would otherwise
    # dominate a short measurement.
    for piece in chunks:
        auditor.observe_batch(piece)

    def bare_pass():
        for piece in chunks:
            nitro.update_batch(piece)

    def audit_pass():
        for piece in chunks:
            auditor.observe_batch(piece)

    # Time the two components separately and add them: a combined
    # audited loop needs seconds-long runs before best-of-N converges on
    # a shared machine, while each part alone is stable with a handful
    # of repeats.  The auditor's cost is strictly additive (it shares no
    # state with the sketch), so the sum is the audited ingest time.
    bare_seconds = _best_time(bare_pass, max(repeats, 7))
    auditor_seconds = _best_time(audit_pass, max(repeats, 7))
    audited_seconds = bare_seconds + auditor_seconds
    return {
        "packets": float(n),
        "capacity": float(capacity),
        "bare_seconds": bare_seconds,
        "audited_seconds": audited_seconds,
        "ratio": audited_seconds / bare_seconds,
    }


def checkpoint_overhead(
    scale: float = 1.0,
    seed: int = 0,
    repeats: int = 3,
    chunk: int = 4096,
    interval: int = 256,
) -> Dict[str, float]:
    """Amortized cost of periodic crash-safety checkpoints.

    Feeds a chunked CAIDA-like stream through ``NitroSketch.update_batch``
    and separately times one full :class:`~repro.control.checkpoint.
    CheckpointManager` save (serialize + atomic temp-file write + fsync +
    rename + rotation) of the same monitor.  The checkpointed ingest time
    is the bare time plus one save per ``interval`` chunks -- the default
    daemon cadence from ``docs/RECOVERY.md``, roughly one checkpoint per
    million packets.  The checkpoint cost is strictly additive (the save
    only reads monitor state between batches), so the sum is the
    checkpointing daemon's ingest time; the ratio is gated at
    :data:`CHECKPOINT_OVERHEAD_CEILING` by ``scripts/check_perf.py``.

    The monitor is the deployment shape the chaos harness checkpoints (a
    5x4096 Count Sketch under 1% sampling), not the Section-7 accuracy
    shape -- checkpoint bytes scale with the grid, and what the gate
    protects is the cadence amortization, not the serializer's raw MB/s.
    """
    import tempfile

    from repro.control.checkpoint import CheckpointManager

    n = max(10_000, int(200_000 * scale))
    trace = caida_like(n, n_flows=max(2_000, n // 5), seed=seed + 1)
    keys = trace.keys
    chunks = [keys[start : start + chunk] for start in range(0, len(keys), chunk)]

    nitro = NitroSketch(
        CountSketch(5, 4096, seed=seed + 81), probability=0.01, top_k=100
    )
    manager = CheckpointManager(
        tempfile.mkdtemp(prefix="nitro-perf-ckpt-"), keep=3
    )

    def bare_pass():
        for piece in chunks:
            nitro.update_batch(piece)

    def save_once():
        manager.save(nitro)

    bare_seconds = _best_time(bare_pass, max(repeats, 7))
    save_seconds = _best_time(save_once, max(repeats, 7))
    saves_per_pass = len(chunks) / interval
    checkpointed_seconds = bare_seconds + saves_per_pass * save_seconds
    return {
        "packets": float(n),
        "interval_batches": float(interval),
        "bare_seconds": bare_seconds,
        "save_seconds": save_seconds,
        "checkpointed_seconds": checkpointed_seconds,
        "ratio": checkpointed_seconds / bare_seconds,
    }


def verify_overhead(
    scale: float = 1.0, seed: int = 0, repeats: int = 3, chunk: int = 4096
) -> Dict[str, float]:
    """Cost of the dormant invariant hook on ``NitroSketch.update_batch``.

    The verify harness hangs its per-batch invariant checks off
    ``nitro.invariant_hook``; when no hook is installed (production
    default) the only residue is the wrapper's ``is not None`` test.
    This times the same chunked CAIDA-like ingest twice -- through the
    public ``update_batch`` wrapper and through ``_update_batch_impl``
    directly -- and returns the ratio, which ``scripts/check_perf.py``
    gates at :data:`VERIFY_OVERHEAD_CEILING`.

    The two variants are timed in alternating rounds (best-of each)
    rather than in two sequential blocks, so machine-load drift during
    the run moves both numerators alike instead of biasing the ratio.
    """
    n = max(10_000, int(200_000 * scale))
    trace = caida_like(n, n_flows=max(2_000, n // 5), seed=seed + 1)
    keys = trace.keys
    chunks = [keys[start : start + chunk] for start in range(0, len(keys), chunk)]

    def build():
        return NitroSketch(
            CountSketch(DEPTH, WIDTH, seed=seed + 71), probability=0.01, top_k=100
        )

    direct_nitro = build()
    hooked_nitro = build()

    def direct_pass():
        for piece in chunks:
            direct_nitro._update_batch_impl(piece, None, None)

    def hooked_pass():
        for piece in chunks:
            hooked_nitro.update_batch(piece)

    # Warm-up round (hash caches, allocator, branch predictors), then
    # interleaved best-of timing.
    direct_pass()
    hooked_pass()
    direct_seconds = float("inf")
    hooked_seconds = float("inf")
    for _ in range(max(repeats, 9)):
        direct_seconds = min(direct_seconds, _best_time(direct_pass, 1))
        hooked_seconds = min(hooked_seconds, _best_time(hooked_pass, 1))
    return {
        "packets": float(n),
        "direct_seconds": direct_seconds,
        "hooked_seconds": hooked_seconds,
        "ratio": hooked_seconds / direct_seconds,
    }


def payload(result: ExperimentResult) -> Dict:
    """The JSON shape ``BENCH_kernels.json`` / ``check_perf.py`` use."""
    return {
        "generated_by": "python -m repro.experiments.kernelbench",
        "description": result.description,
        "benches": {
            row["bench"]: {
                "unit": row["unit"],
                "legacy_rate": round(row["legacy_rate"], 4),
                "fused_rate": round(row["fused_rate"], 4),
                "speedup": round(row["speedup"], 2),
            }
            for row in result.rows
        },
    }


def write_baseline(path: str = "BENCH_kernels.json", result: Optional[ExperimentResult] = None) -> Dict:
    """Run (if needed) and write the committed benchmark baseline."""
    if result is None:
        result = run()
    data = payload(result)
    with open(path, "w") as handle:
        handle.write(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return data


if __name__ == "__main__":
    import sys

    outcome = run()
    print_result(outcome)
    if "--write" in sys.argv:
        write_baseline(result=outcome)
        print("wrote BENCH_kernels.json")
