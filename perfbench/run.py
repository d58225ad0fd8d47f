"""The repository's end-to-end benchmark.

Usage (from the repository root)::

    python3 perfbench/run.py --workload bulk_ingest --seed 1 --seconds 10 --trace 0

Served workloads start ``nitrosketch serve`` in its own process and
drive it over loopback; ``parallel_trace`` runs ``ParallelIngestEngine``
offline.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer metrics of a traced run.  Human-readable lines come first;
the last line of stdout is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

Exit codes: 0 measured and correct; 1 a correctness check failed or the
run could not be measured; 2 bad arguments or no source tree.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Units of the end-to-end metrics (BENCHMARK.json lists the same).
END_TO_END = {
    "ingest_mpps": "Mpps",
    "sync_ms_p50": "ms",
    "sync_ms_p90": "ms",
    "query_ms_p50": "ms",
    "query_ms_p90": "ms",
    "hh_recall": "ratio",
    "hh_are": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


#: A run that has not finished by then is abandoned (and reported failed).
RUN_DEADLINE_S = 170


def _out_of_time(signum, frame):
    raise TimeoutError("run exceeded %d s" % RUN_DEADLINE_S)


def workload_names():
    from workloads import SERVED

    return list(SERVED) + ["parallel_trace"]


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 tamper: bool = False) -> dict:
    """Run one workload; returns failures/attempted/failed/metrics/notes."""
    import served

    scratch = served.scratch_dir()
    try:
        if name == "parallel_trace":
            import offline

            return offline.run(seed, seconds, trace, tamper)
        from workloads import SERVED

        return served.run(SERVED[name], seed, seconds, trace, scratch, tamper)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def units(trace: bool) -> dict:
    if trace:
        from layers import PER_LAYER

        return dict(PER_LAYER)
    return END_TO_END


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("perfbench: no source tree at %s; run from a checkout" % SRC,
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload not in workload_names():
        print("perfbench: unknown workload %r (choose from %s)"
              % (args.workload, ", ".join(workload_names())), file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    # The service is stopped with SIGINT, as an operator stops it.  A
    # parent that ignores SIGINT (a background job) would pass the
    # ignore on to it; a handler here is reset to the default on exec.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    signal.signal(signal.SIGALRM, _out_of_time)
    signal.alarm(RUN_DEADLINE_S)
    from measure import host_metadata

    print("host %s" % json.dumps(host_metadata(), sort_keys=True))
    print("workload %s seed %d seconds %g trace %d"
          % (args.workload, args.seed, args.seconds, args.trace))
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except Exception as exc:  # the run could not be measured at all
        print("perfbench: run failed: %s: %s" % (type(exc).__name__, exc))
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    unit_of = units(bool(args.trace))
    for key, value in result["notes"].items():
        if key == "blocking_path":
            print_blocking_path(value, result["notes"])
        else:
            print("note %s %s" % (key, value))
    for failure in result["failures"]:
        print("FAIL %s" % failure)
    correct = not result["failures"]
    metrics = {}
    if correct:
        for name, unit in unit_of.items():
            if name not in result["metrics"]:
                continue  # parallel_trace has no served (sync/query) path
            value = float(result["metrics"][name])
            metrics[name] = {"value": value, "unit": unit}
            print("metric %-34s %14.6f %s" % (name, value, unit))
    print(json.dumps({
        "correct": correct,
        "attempted": max(int(result["attempted"]), 1),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0 if correct else 1


def print_blocking_path(rows, notes) -> None:
    print("traced self time along the blocking path (per served batch):")
    print("  %-10s %12s %12s" % ("layer", "us/batch", "ns/packet"))
    for step, us_per_batch, ns_per_packet in rows:
        if step == "sum/ingest":
            print("  daemon+nitro+geometric+kernel+sketch self = %.3f x daemon.ingest"
                  % us_per_batch)
        else:
            print("  %-10s %12.1f %12.1f" % (step, us_per_batch, ns_per_packet))
    print("  tracing overhead: traced %.4f Mpps vs untraced %.4f Mpps (%.1f%% slower)"
          % (notes["traced_mpps"], notes["untraced_mpps"],
             100.0 * (1.0 - notes["traced_mpps"] / notes["untraced_mpps"])))


if __name__ == "__main__":
    sys.exit(main())
