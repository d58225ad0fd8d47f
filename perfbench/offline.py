"""``parallel_trace``: ``ParallelIngestEngine`` run offline on a trace.

The engine is built like the default served tenant (Count Sketch d=5,
w=4096, p=0.1, top-k 100) with two merge-strategy workers.  Within the
measured window the same trace is ingested again and again; each run's
wall clock runs from worker spawn to the final merge, and the reported
rate is the median over runs.  Every run's merged monitor must be
byte-equal to the engine's in-process ``run_sequential`` oracle.
"""

from __future__ import annotations

import glob
import os
import threading
import time
from typing import Dict, List

import numpy as np

import layers
import tracing
from measure import percentile, rss_mib
from workloads import HH_SHARE

#: Packets per engine run: long enough that spawn and merge do not
#: dominate one run.
TRACE_PACKETS = 1 << 22
SETUP_REPEATS = 3


def _engine():
    from repro.parallel import ParallelIngestEngine
    from repro.parallel.factories import NitroFactory

    factory = NitroFactory(sketch="countsketch", depth=5, width=4096,
                           probability=0.1, top_k=100, seed=7)
    return ParallelIngestEngine(factory, workers=2, strategy="merge", batch_size=16384)


class RssSampler:
    """Peak of (this process + its children) resident memory, sampled."""

    def __init__(self, period: float = 0.01) -> None:
        self.period = period
        self.peak_mib = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="rss-sampler")

    def _pids(self) -> List[int]:
        pids = [os.getpid()]
        for path in glob.glob("/proc/self/task/*/children"):
            try:
                with open(path) as handle:
                    pids += [int(pid) for pid in handle.read().split()]
            except OSError:
                continue
        return pids

    def _run(self) -> None:
        while not self._stop.is_set():
            total = 0.0
            for pid in self._pids():
                try:
                    total += rss_mib(pid)
                except OSError:
                    continue  # the child exited between listing and reading
            self.peak_mib = max(self.peak_mib, total)
            self._stop.wait(self.period)

    def __enter__(self) -> "RssSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()


def _measure(engine, keys, seconds: float, oracle: bytes, failures: List[str]):
    from repro.control.export import serialize_monitor

    results = []
    deadline = time.perf_counter() + seconds
    with RssSampler() as rss:
        while not results or time.perf_counter() < deadline:
            result = engine.run(keys)
            results.append(result)
            if result.restarts:
                failures.append("worker restarts: %d" % result.restarts)
            if serialize_monitor(result.monitor) != oracle:
                failures.append("parallel output differs from run_sequential")
    return results, rss.peak_mib


def run(seed: int, seconds: float, trace: bool, tamper: bool = False) -> Dict:
    from repro.control.export import serialize_monitor
    from repro.traffic.traces import caida_like

    keys = caida_like(TRACE_PACKETS, n_flows=80_000, seed=seed).keys.astype(np.int64)
    failures: List[str] = []

    setups = []
    for _ in range(1 if trace else SETUP_REPEATS):
        start = time.perf_counter()
        _engine().run(keys[:16384])
        setups.append(time.perf_counter() - start)

    engine = _engine()
    reference = engine.run_sequential(keys[:-1] if tamper else keys)
    oracle = serialize_monitor(reference.monitor)
    results, peak = _measure(engine, keys, seconds, oracle, failures)
    walls = [result.wall_mpps for result in results]
    attempted = len(results)

    if not trace:
        distinct, counts = np.unique(keys, return_counts=True)
        truth = counts >= HH_SHARE * len(keys)
        exact = dict(zip(distinct[truth].tolist(), counts[truth].tolist()))
        reported = results[-1].monitor.heavy_hitters(HH_SHARE * len(keys))
        errors = [abs(est - exact[key]) / exact[key] for key, est in reported if key in exact]
        metrics = {
            "ingest_mpps": float(np.median(walls)),
            "hh_recall": len(errors) / len(exact),
            "hh_are": float(np.mean(errors)) if errors else 0.0,
            "setup_s": float(np.median(setups)),
            "peak_rss_mb": peak,
        }
        notes = {"engine_runs": len(results), "wall_mpps": walls, "setup_samples": setups}
        return {"failures": failures, "attempted": attempted,
                "failed": sum(result.restarts for result in results),
                "metrics": metrics, "notes": notes}

    # Traced: parent-side spans around the engine's public entry and the
    # two parent steps of every epoch (frame decode, merge).
    from repro.parallel import engine as engine_module

    recorder = tracing.Recorder()
    recorder.wrap(type(engine), "run", "engine.run")
    recorder.wrap(engine_module, "deserialize_epoch_frame", "engine.frame_decode")
    recorder.wrap(engine_module, "_merge_monitors", "engine.merge")
    try:
        traced, _ = _measure(engine, keys, seconds, oracle, failures)
    finally:
        recorder.unwrap()
    attempted += len(traced)
    metrics = layers.zero_metrics()
    last = traced[len(traced) // 2]
    busy = [stats.busy_wall_seconds for stats in last.worker_stats]
    metrics["engine.worker_busy_frac"] = float(np.mean(busy)) / last.wall_seconds
    metrics["engine.publish_wait_s"] = sum(
        stats.publish_wait_seconds for stats in last.worker_stats)
    metrics["engine.parent_s"] = last.wall_seconds - max(busy)
    metrics["engine.agg_cpu_mpps"] = last.aggregate_cpu_mpps
    traced_mpps = float(np.median([result.wall_mpps for result in traced]))
    metrics["trace.overhead_frac"] = 1.0 - traced_mpps / float(np.median(walls))
    spans = [span for span in recorder.spans if span is not None]
    per_run = {
        name: percentile([(s[2] - s[1]) / 1e6 for s in spans if s[0] == name], 50)
        for name in ("engine.run", "engine.frame_decode", "engine.merge")
    }
    notes = {
        "untraced_mpps": float(np.median(walls)),
        "traced_mpps": traced_mpps,
        "parent_ms_p50": per_run,
        "agg_cpu_mpps_is": "a per-core capacity sum, not scaling",
    }
    return {"failures": failures, "attempted": attempted,
            "failed": sum(result.restarts for result in results + traced),
            "metrics": metrics, "notes": notes}
