"""Differential checks: every ingest path against the vanilla oracle.

The paper's interchangeability claim (Theorems 1/2/5: same query rule,
unbiased counters, bounded error) means the repo's four ways of ingesting
the same packet stream -- scalar ``update``, fused ``update_batch``,
checkpoint-restored, and ``merge``-of-shards -- must agree:

* **bit-exact where deterministic** -- vanilla scalar vs vanilla batch
  (the fused kernels are bit-exact for integral increments), batched
  top-k admission vs the per-key offer loop, shard merges of linear
  sketches, checkpoint round-trips, reset-then-reuse vs fresh
  construction, and same-seed reruns of any one path;
* **within the Theorem-2 envelope where randomized** -- Nitro's scalar
  and batch paths draw from independent PRNG streams, so their counter
  grids differ per-draw; their *estimates* must still sit within
  ``eps * L2`` of truth, with ``eps = sqrt(8 / (w p))`` implied by the
  sketch's actual width and sampling probability.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.control.export import deserialize_monitor, serialize_monitor
from repro.core.config import NitroConfig, NitroMode
from repro.core.nitro import NitroSketch
from repro.metrics.opcount import OpCounter
from repro.sketches.countmin import CountMinSketch
from repro.sketches.countsketch import CountSketch
from repro.sketches.kary import KArySketch
from repro.sketches.topk import TopK
from repro.traffic.traces import Trace, caida_like
from repro.verify.result import CheckResult

#: Per-key envelope slack: Theorem 2 holds per key with probability
#: ``1 - delta`` (``delta = 2^-depth``), so demanding *every* audited key
#: sit inside ``1x`` would false-alarm on clean code.  All keys must sit
#: within ``SLACK x`` and at least ``WITHIN_FRACTION`` within ``1x``.
ENVELOPE_SLACK = 2.0
WITHIN_FRACTION = 0.9


def implied_epsilon(width: int, probability: float) -> float:
    """The eps Theorem 2 grants a (width, p) pair: ``sqrt(8 / (w p))``."""
    return math.sqrt(8.0 / (width * probability))


def _default_trace(packets: int, seed: int) -> Trace:
    return caida_like(packets, n_flows=max(200, packets // 20), seed=seed)


def check_vanilla_scalar_vs_batch(
    packets: int = 4_000,
    seed: int = 0,
    sketch_factory: Optional[Callable[[int], object]] = None,
) -> CheckResult:
    """Scalar ``update`` and fused ``update_batch`` must be bit-exact.

    Runs every canonical sketch family unless ``sketch_factory`` (used by
    the deliberately-broken-sketch tests) narrows it to one.
    """
    name = "differential.vanilla_scalar_vs_batch"
    trace = _default_trace(packets, seed)
    factories = (
        [sketch_factory]
        if sketch_factory is not None
        else [
            lambda s: CountSketch(5, 512, s),
            lambda s: CountMinSketch(4, 512, s),
            lambda s: KArySketch(5, 512, s),
        ]
    )
    for factory in factories:
        scalar = factory(seed)
        batch = factory(seed)
        for key in trace.keys.tolist():
            scalar.update(key)
        batch.update_batch(trace.keys)
        if not np.array_equal(scalar.counters, batch.counters):
            delta = float(np.max(np.abs(scalar.counters - batch.counters)))
            return CheckResult.fail(
                name,
                "%s: scalar and batch counter grids diverge (max |delta| %g)"
                % (type(scalar).__name__, delta),
                max_delta=delta,
            )
        scalar_queries = np.array(
            [scalar.query(key) for key in trace.keys[:64].tolist()]
        )
        batch_queries = batch.query_batch(trace.keys[:64])
        # Counters are bit-exact; queries get a 1e-9 relative tolerance
        # because K-ary's mass bookkeeping sums in a different order on
        # the two paths (increment/depth per row vs one bulk add).
        if not np.allclose(scalar_queries, batch_queries, rtol=1e-9, atol=1e-6):
            return CheckResult.fail(
                name,
                "%s: scalar and batch query paths disagree (max |delta| %g)"
                % (
                    type(scalar).__name__,
                    float(np.max(np.abs(scalar_queries - batch_queries))),
                ),
            )
    return CheckResult.ok(
        name,
        "scalar and fused batch ingest bit-exact over %d sketch familie(s)"
        % len(factories),
        packets=float(packets),
    )


#: Edge cases the top-k differential check must exercise (see
#: :func:`_compare_topk_batches`).
TOPK_CASES = ("fill", "tie", "fall", "evicted_reoffer")

TopKBatch = Tuple["np.ndarray", "np.ndarray"]


def _compare_topk_batches(
    k: int, batches: Sequence[TopKBatch]
) -> Tuple[Optional[str], Dict[str, int]]:
    """Drive ``TopK.offer_sorted`` and the per-key ``offer`` loop side by side.

    Each batch is ``(sorted distinct keys, estimates)``.  After every
    batch the two stores must hold the same heap list, the same
    membership dict in the same insertion order, and the same op
    totals.  Returns the first divergence (``None`` when there is none)
    and how often each :data:`TOPK_CASES` edge case came up: a batch
    offered while the store was filling, an estimate equal to its
    stored value or to the batch-start minimum, a tracked key offered
    lower, and a tracked key offered after a key earlier in the same
    batch evicted it.
    """
    batched, scalar = TopK(k), TopK(k)
    batched.ops, scalar.ops = OpCounter(), OpCounter()
    cases = dict.fromkeys(TOPK_CASES, 0)
    for index, (keys, estimates) in enumerate(batches):
        start = dict(scalar._best)
        floor = min(start.values()) if start else None
        cases["fill"] += len(start) < k
        for key, estimate in zip(keys.tolist(), estimates.tolist()):
            stored = start.get(key)
            cases["tie"] += estimate in (stored, floor)
            if stored is not None:
                cases["fall"] += estimate < stored
                cases["evicted_reoffer"] += key not in scalar
            scalar.offer(key, estimate)
        batched.offer_sorted(keys, estimates)
        if batched._heap != scalar._heap:
            return "batch %d: heap lists differ" % index, cases
        if list(batched._best.items()) != list(scalar._best.items()):
            return "batch %d: tracked keys or their order differ" % index, cases
        if batched.ops != scalar.ops:
            return (
                "batch %d: op totals differ (batched %s, per-key %s)"
                % (index, batched.ops.as_dict(), scalar.ops.as_dict()),
                cases,
            )
    return None, cases


def _stale_top_scenarios(k: int) -> List[List[TopKBatch]]:
    """Batch streams whose final heap depends on the oracle's rejection peeks.

    Each fills a store with keys ``100..`` at estimates ``1..k`` and
    raises one key so a stale entry sits at the heap top, then offers
    one batch:

    * an untracked low key before any other key (a peek in gap 0);
    * key 0 evicts the minimum (key 100), an untracked low key is
      rejected (its peek pops the stale entry), then key 101 rises, which
      runs no peek of its own;
    * the same, but key 100 itself comes back below its old estimate:
      tracked when the batch starts, untracked at its turn.
    """
    filled = (np.arange(100, 100 + k), np.arange(1, k + 1, dtype=np.float64))
    last = 100 + k - 1
    scenarios = [
        [
            filled,
            (np.array([100]), np.array([k + 0.5])),
            (np.array([50, last]), np.array([0.1, 1e9])),
        ]
    ]
    if k > 1:
        raised = (np.array([101]), np.array([k + 0.5]))
        for returning in (50, 100):
            batch = (np.array([0, returning, 101]), np.array([k + 1.0, 0.5, 1e9]))
            scenarios.append([filled, raised, batch])
    return scenarios


def _random_topk_batches(k: int, count: int, rng) -> List[TopKBatch]:
    """Batches over a ``3k + 8``-key universe, so keys recur; every other
    batch draws its estimates from four multiples of 10 (Count Sketch
    estimates at p = 0.1 are multiples of 1/p) to force ties."""
    universe = 3 * k + 8
    batches = []
    for index in range(count):
        size = int(rng.integers(1, universe + 1))
        keys = np.sort(rng.choice(universe, size, replace=False))
        if index % 2:
            estimates = rng.integers(0, 4, size) * 10.0
        else:
            estimates = np.round(rng.lognormal(2.0, 1.0, size), 1)
        batches.append((keys, estimates))
    return batches


def check_topk_batch_vs_scalar(batches: int = 40, seed: int = 0) -> CheckResult:
    """``TopK.offer_sorted`` must match the per-key ``offer`` loop exactly.

    Every batch path admits its sampled keys through ``offer_sorted``;
    the checkpoint format stores the heap list verbatim, so anything
    short of an identical heap, dict and op tally changes served bytes.
    Runs k = 1, 5 and 100 over scripted stale-heap-top scenarios plus
    random batches, and fails if any :data:`TOPK_CASES` case never came
    up (a check that stops reaching its edge cases proves nothing).
    """
    name = "differential.topk_batch_vs_scalar"
    totals = dict.fromkeys(TOPK_CASES, 0)
    for k in (1, 5, 100):
        rng = np.random.default_rng([seed, k])
        streams = _stale_top_scenarios(k) + [_random_topk_batches(k, batches, rng)]
        for stream in streams:
            divergence, cases = _compare_topk_batches(k, stream)
            if divergence is not None:
                return CheckResult.fail(
                    name, "k=%d: %s" % (k, divergence), k=float(k)
                )
            for case, count in cases.items():
                totals[case] += count
    missing = [case for case, count in totals.items() if not count]
    if missing:
        return CheckResult.fail(
            name, "batches never exercised: %s" % ", ".join(missing)
        )
    return CheckResult.ok(
        name,
        "offer_sorted identical to per-key offers (heap, dict, ops) over "
        "k=1/5/100; cases %s"
        % ", ".join("%s=%d" % item for item in totals.items()),
        **{case: float(count) for case, count in totals.items()},
    )


def check_merge_of_shards(packets: int = 4_000, seed: int = 0, shards: int = 4) -> CheckResult:
    """Merged per-shard sketches must equal the single-run sketch bit-exactly.

    Sketch linearity is what makes distributed monitoring work; a merge
    that drops or double-counts mass breaks every downstream estimate.
    """
    name = "differential.merge_of_shards"
    trace = _default_trace(packets, seed)
    whole = CountSketch(5, 512, seed)
    whole.update_batch(trace.keys)
    merged = CountSketch(5, 512, seed)
    bounds = np.linspace(0, len(trace.keys), shards + 1).astype(int)
    for index in range(shards):
        shard = CountSketch(5, 512, seed)
        shard.update_batch(trace.keys[bounds[index] : bounds[index + 1]])
        merged.merge(shard)
    if not np.array_equal(whole.counters, merged.counters):
        delta = float(np.max(np.abs(whole.counters - merged.counters)))
        return CheckResult.fail(
            name,
            "merge of %d shards diverges from the single run (max |delta| %g)"
            % (shards, delta),
            max_delta=delta,
        )
    return CheckResult.ok(
        name,
        "merge of %d vanilla shards bit-exact vs the single run" % shards,
        packets=float(packets),
    )


def check_checkpoint_roundtrip(packets: int = 4_000, seed: int = 0) -> CheckResult:
    """Serialize mid-stream, restore, resume: byte-exact equivalence.

    The restored monitor must replay the second half of the trace into
    exactly the same bytes as the original -- counters, top-k contents
    (tracked-key sets are deterministic here) and PRNG cursors included.
    """
    name = "differential.checkpoint_roundtrip"
    trace = _default_trace(packets, seed)
    half = len(trace.keys) // 2
    monitor = NitroSketch(
        CountSketch(5, 1024, seed),
        NitroConfig(probability=0.1, top_k=32, seed=seed),
    )
    monitor.update_batch(trace.keys[:half])
    for key in trace.keys[half : half + 17].tolist():
        monitor.update(key)
    restored = deserialize_monitor(serialize_monitor(monitor))
    for resumed in (monitor, restored):
        for key in trace.keys[half : half + 17].tolist():
            resumed.update(key)
        resumed.update_batch(trace.keys[half + 17 :])
    if serialize_monitor(monitor) != serialize_monitor(restored):
        return CheckResult.fail(
            name, "restored monitor diverged from the original after resuming"
        )
    original_keys = set(monitor.topk.keys())
    restored_keys = set(restored.topk.keys())
    if original_keys != restored_keys:
        return CheckResult.fail(
            name,
            "tracked-key sets diverged after restore (%d vs %d keys, %d common)"
            % (
                len(original_keys),
                len(restored_keys),
                len(original_keys & restored_keys),
            ),
        )
    return CheckResult.ok(
        name,
        "checkpoint round-trip byte-exact through %d resumed packets"
        % (len(trace.keys) - half),
        packets=float(packets),
    )


def check_reset_equivalence(packets: int = 4_000, seed: int = 0) -> CheckResult:
    """A reset monitor must be bit-identical to a freshly built one.

    Uses AlwaysLineRate with timestamps so the controller's probability
    actually adapts away from ``config.probability`` before the reset --
    the scenario where a stale ``current_probability`` strands the
    sampler at the wrong ``p`` (the no-change short-circuit never fires).
    """
    name = "differential.reset_equivalence"
    trace = _default_trace(packets, seed)

    def build() -> NitroSketch:
        return NitroSketch(
            CountSketch(5, 1024, seed),
            NitroConfig(
                probability=0.5,
                mode=NitroMode.ALWAYS_LINE_RATE,
                adaptation_epoch_seconds=0.0005,
                top_k=32,
                seed=seed,
            ),
        )

    def drive(monitor: NitroSketch) -> None:
        # ~3.33 Mpps offered (mid-rung: p snaps robustly to 1/8, well
        # below the 0.5 start) with >= 1 full epoch inside the trace.
        for index, key in enumerate(trace.keys.tolist()):
            monitor.update(key, timestamp=index * 3e-7)

    fresh = build()
    drive(fresh)

    recycled = build()
    drive(recycled)
    adapted_probability = recycled.probability
    recycled.reset()
    violations = recycled.check_invariants()
    if violations:
        return CheckResult.fail(
            name, "post-reset invariants: %s" % "; ".join(violations)
        )
    drive(recycled)

    if recycled.probability != fresh.probability:
        return CheckResult.fail(
            name,
            "reset monitor settled at p=%g, fresh monitor at p=%g"
            % (recycled.probability, fresh.probability),
        )
    if not np.array_equal(recycled.sketch.counters, fresh.sketch.counters):
        delta = float(np.max(np.abs(recycled.sketch.counters - fresh.sketch.counters)))
        return CheckResult.fail(
            name,
            "reset monitor's counters diverge from a fresh monitor's "
            "(max |delta| %g)" % delta,
            max_delta=delta,
        )
    if (
        recycled.packets_sampled != fresh.packets_sampled
        or set(recycled.topk.keys()) != set(fresh.topk.keys())
    ):
        return CheckResult.fail(
            name, "reset monitor's sampling/top-k history diverged from fresh"
        )
    return CheckResult.ok(
        name,
        "reset-then-reuse bit-identical to fresh (p adapted to %g pre-reset)"
        % adapted_probability,
        adapted_probability=adapted_probability,
    )


def check_nitro_estimate_envelope(
    packets: int = 20_000,
    seed: int = 0,
    probability: float = 0.1,
    width: int = 2048,
    top_keys: int = 24,
    nitro_factory: Optional[Callable[[], NitroSketch]] = None,
) -> List[CheckResult]:
    """Nitro's randomized paths must estimate within ``eps * L2`` of truth.

    Three implementations under test -- scalar, fused batch, and a
    2-shard merge -- each audited on the heaviest true flows against the
    Theorem-2 envelope implied by the sketch's width and ``p``.  The
    vanilla sketch rides along as the oracle: it must sit inside the
    same envelope (it holds the stronger vanilla guarantee), which pins
    blame on the accelerated path when only that one fails.
    """
    trace = _default_trace(packets, seed)
    counts = trace.counts()
    truth = dict(sorted(counts.items(), key=lambda item: -item[1])[:top_keys])
    l2_true = math.sqrt(sum(value * value for value in counts.values()))
    envelope = implied_epsilon(width, probability) * l2_true

    def build() -> NitroSketch:
        if nitro_factory is not None:
            return nitro_factory()
        return NitroSketch(
            CountSketch(5, width, seed),
            NitroConfig(probability=probability, top_k=64, seed=seed),
        )

    scalar = build()
    for key in trace.keys.tolist():
        scalar.update(key)

    batch = build()
    for start in range(0, len(trace.keys), 2048):
        batch.update_batch(trace.keys[start : start + 2048])

    merged = build()
    other = build()
    half = len(trace.keys) // 2
    merged.update_batch(trace.keys[:half])
    other.update_batch(trace.keys[half:])
    merged.merge(other)

    oracle = CountSketch(5, width, seed)
    oracle.update_batch(trace.keys)

    results = []
    implementations = [
        ("oracle_vanilla", oracle),
        ("scalar", scalar),
        ("batch", batch),
        ("merge", merged),
    ]
    for label, monitor in implementations:
        errors = np.array(
            [abs(monitor.query(key) - count) for key, count in truth.items()]
        )
        worst = float(np.max(errors))
        within = float(np.mean(errors <= envelope))
        name = "differential.envelope_%s" % label
        if worst > ENVELOPE_SLACK * envelope or within < WITHIN_FRACTION:
            results.append(
                CheckResult.fail(
                    name,
                    "%s path: worst error %.1f vs envelope %.1f (eps*L2), "
                    "only %.0f%% of top-%d keys within 1x"
                    % (label, worst, envelope, 100 * within, len(truth)),
                    worst_error=worst,
                    envelope=envelope,
                    within_fraction=within,
                )
            )
        else:
            results.append(
                CheckResult.ok(
                    name,
                    "%s path: worst error %.1f within %.1fx of the eps*L2 "
                    "envelope %.1f" % (label, worst, worst / envelope, envelope),
                    worst_error=worst,
                    envelope=envelope,
                    within_fraction=within,
                )
            )
    return results


def run_differential_checks(quick: bool = False, seed: int = 0) -> List[CheckResult]:
    """The full differential suite (scaled down under ``quick``)."""
    packets = 2_000 if quick else 4_000
    envelope_packets = 8_000 if quick else 20_000
    results = [
        check_vanilla_scalar_vs_batch(packets=packets, seed=seed),
        check_topk_batch_vs_scalar(batches=12 if quick else 40, seed=seed),
        check_merge_of_shards(packets=packets, seed=seed),
        check_checkpoint_roundtrip(packets=packets, seed=seed),
        check_reset_equivalence(packets=packets, seed=seed),
    ]
    results.extend(check_nitro_estimate_envelope(packets=envelope_packets, seed=seed))
    return results
