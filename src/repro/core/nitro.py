"""The NitroSketch framework (paper Section 4, Algorithm 1).

:class:`NitroSketch` wraps any :class:`repro.sketches.CanonicalSketch`
and replaces its every-row update discipline with geometrically sampled
counter-array updates:

* a single Geometric(p) skip counter walks the virtual row-major sequence
  of (packet, row) slots (Idea B, Figure 5);
* a sampled slot ``(j, r)`` performs ``C[r][h_r(x_j)] += p^-1 g_r(x_j)``
  (Idea A, Figure 4 -- the ``p^-1`` scaling keeps every counter an
  unbiased estimator);
* the top-keys structure is touched only on sampled packets (Figure 7b
  step 4), removing bottleneck ``P`` from the common path;
* the adaptive controllers of Idea C (AlwaysLineRate / AlwaysCorrect)
  retune ``p`` online;
* :meth:`update_batch` is the buffered, NumPy-vectorised path of Idea D.

The wrapped sketch keeps its own query rule (min-of-rows for Count-Min,
median for Count Sketch / K-ary), so estimates read exactly like the
vanilla sketch's -- Theorems 1/2/5 give the accuracy guarantees.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Tuple

import numpy as np

from repro.core.config import NitroConfig, NitroMode
from repro.core.geometric import GeometricSampler, geometric_positions
from repro.core.modes import AlwaysCorrectController, AlwaysLineRateController
from repro.kernels.distinct import run_starts, sorted_distinct
from repro.sketches.base import CanonicalSketch
from repro.sketches.topk import TopK
from repro.telemetry import NULL_TELEMETRY
from repro.telemetry.profile import NULL_PROFILER

#: Cycles the pre-processing stage spends on an *unsampled* packet: one
#: batch-pointer advance plus the slot-counter decrement (Figure 7b,
#: "only a small portion of packets need to go through" the update).
PREPROCESS_CYCLES_PER_PACKET = 4.0


class NitroSketch:
    """Counter-array-sampling accelerator for canonical sketches.

    Parameters
    ----------
    sketch:
        The canonical sketch to accelerate.  Its width should be sized
        for the sampling probability (Theorem 2: ``w = 8 eps^-2 p^-1``;
        see :meth:`from_error_bounds` for automatic sizing).
    config:
        A :class:`NitroConfig`; keyword arguments build one implicitly,
        e.g. ``NitroSketch(sketch, probability=0.01, top_k=100)``.

    Notes
    -----
    ``update`` must be called once per packet even in sampling mode --
    skipping is *internal* (a decrement of the slot counter), which is
    precisely why it is cheap.
    """

    def __init__(self, sketch: CanonicalSketch, config: Optional[NitroConfig] = None, **kwargs) -> None:
        if config is None:
            config = NitroConfig(**kwargs)
        elif kwargs:
            raise TypeError("pass either a config object or keyword arguments, not both")
        self.sketch = sketch
        self.config = config
        self.sampler = GeometricSampler(config.probability, config.seed)
        self.topk: Optional[TopK] = TopK(config.top_k) if config.top_k else None
        # Slots (row positions) to skip before the next sampled slot,
        # relative to row 0 of the *next* packet processed.
        self._pending = self.sampler.next_gap() - 1
        self.packets_seen = 0
        #: Packets that triggered at least one counter update -- the
        #: fraction copied into the shared buffer in the separate-thread
        #: integration (Section 6), i.e. the pre-processing stage's output.
        self.packets_sampled = 0
        # Batch-path RNG (NumPy) -- independent stream from the scalar
        # sampler, same distribution.
        self._batch_rng = np.random.default_rng(config.seed ^ 0xB5B5B5B5)

        self.linerate: Optional[AlwaysLineRateController] = None
        self.correctness: Optional[AlwaysCorrectController] = None
        if config.mode is NitroMode.ALWAYS_LINE_RATE:
            self.linerate = AlwaysLineRateController(config)
        elif config.mode is NitroMode.ALWAYS_CORRECT:
            self.correctness = AlwaysCorrectController(config, sketch)
            self.sampler.set_probability(1.0)
        self._telemetry = NULL_TELEMETRY
        #: Per-stage latency profiler (see
        #: :class:`repro.telemetry.profile.StageProfiler`).  The default
        #: null profiler costs one method call per batch; attach a real
        #: one to decompose batch ingest into geometric_skip / row_hash
        #: / scatter / query stage histograms.
        self.profiler = NULL_PROFILER
        #: Optional callable invoked as ``hook(self)`` after every
        #: :meth:`update_batch`.  The verify harness installs one that
        #: raises on any :meth:`check_invariants` violation; ``None``
        #: (the default) costs a single attribute test per batch.
        self.invariant_hook = None

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_error_bounds(
        cls,
        sketch_cls,
        epsilon: float,
        delta: float,
        probability: float = 0.01,
        mode: NitroMode = NitroMode.FIXED,
        top_k: int = 100,
        seed: int = 0,
    ) -> "NitroSketch":
        """Build a correctly sized Nitro-wrapped sketch for a target error.

        ``sketch_cls`` is a canonical sketch class exposing
        ``(depth, width, seed)`` -- e.g. ``CountSketch`` or
        ``CountMinSketch``.  Width follows Theorem 2 (or Theorem 5 for
        AlwaysCorrect); depth is ``ceil(log2 1/delta)``.
        """
        config = NitroConfig(
            probability=probability,
            mode=mode,
            epsilon=epsilon,
            delta=delta,
            top_k=top_k,
            seed=seed,
        )
        from repro.sketches.countmin import CountMinSketch

        guarantee = "l1" if issubclass(sketch_cls, CountMinSketch) else "l2"
        width = config.recommended_width(guarantee)
        depth = config.recommended_depth()
        return cls(sketch_cls(depth, width, seed), config)

    # -- properties -------------------------------------------------------------

    @property
    def ops(self):
        return self.sketch.ops

    @ops.setter
    def ops(self, sink) -> None:
        self.sketch.ops = sink
        self.sampler.ops = sink
        if self.topk is not None:
            self.topk.ops = sink

    @property
    def telemetry(self):
        """The telemetry sink (default :data:`NULL_TELEMETRY`, free)."""
        return self._telemetry

    @telemetry.setter
    def telemetry(self, sink) -> None:
        """Attach a sink and fan it out to the sampler and controllers."""
        self._telemetry = sink
        self.sampler.telemetry = sink
        if self.linerate is not None:
            self.linerate.telemetry = sink
        if self.correctness is not None:
            self.correctness.telemetry = sink
        sink.gauge("nitro_sampling_probability", self.sampler.probability)

    def _set_probability(self, probability: float, reason: str) -> None:
        """Move ``p`` and record the transition (gauge + event + counter)."""
        previous = self.sampler.probability
        self.sampler.set_probability(probability)
        self._telemetry.count("nitro_probability_changes_total", reason=reason)
        self._telemetry.event(
            "nitro.p_change",
            reason=reason,
            old=previous,
            new=probability,
            packets_seen=self.packets_seen,
        )

    @property
    def probability(self) -> float:
        """The sampling probability currently in force."""
        return self.sampler.probability

    @property
    def converged(self) -> bool:
        """AlwaysCorrect convergence state (True for other modes)."""
        if self.correctness is None:
            return True
        return self.correctness.converged

    @property
    def depth(self) -> int:
        return self.sketch.depth

    # -- data plane ---------------------------------------------------------------

    def update(self, key: int, weight: float = 1.0, timestamp: Optional[float] = None) -> None:
        """Process one packet (Algorithm 1's Update).

        ``timestamp`` (seconds) feeds AlwaysLineRate's rate measurement;
        it is ignored by the other modes.
        """
        self.packets_seen += 1
        self.ops.packet()
        self.ops.fixed(PREPROCESS_CYCLES_PER_PACKET)
        self._telemetry.count("nitro_packets_total", path="scalar")
        self._mode_hooks_scalar(timestamp)

        probability = self.sampler.probability
        if probability >= 1.0:
            # Exact phase (AlwaysCorrect warm-up, or p pinned to 1).
            self.packets_sampled += 1
            self._telemetry.count("nitro_sampled_packets_total")
            for row in range(self.sketch.depth):
                self.sketch.row_update(row, key, weight)
            if self.topk is not None:
                self.topk.offer(key, self.sketch.query(key))
            return

        depth = self.sketch.depth
        inverse = weight / probability
        updated = False
        if self.config.sampling == "bernoulli":
            # Ablation path (Idea A without Idea B): one coin flip per row.
            rng = self.sampler._rng
            self.ops.prng(depth)
            for row in range(depth):
                if rng.next_float() < probability:
                    self.sketch.row_update(row, key, inverse)
                    updated = True
        else:
            while self._pending < depth:
                self.sketch.row_update(self._pending, key, inverse)
                updated = True
                self._pending += self.sampler.next_gap()
            self._pending -= depth
        if updated:
            self.packets_sampled += 1
            self._telemetry.count("nitro_sampled_packets_total")
            if self.topk is not None:
                self.topk.offer(key, self.sketch.query(key))

    def _mode_hooks_scalar(self, timestamp: Optional[float]) -> None:
        if self.linerate is not None:
            new_probability = self.linerate.on_packet(timestamp)
            if new_probability is not None:
                self._set_probability(new_probability, "linerate")
        elif self.correctness is not None and not self.correctness.converged:
            if self.correctness.on_packet():
                self._set_probability(self.config.probability, "converged")

    def update_many(self, keys: Iterable[int]) -> None:
        """Scalar-loop ingest of a key sequence."""
        for key in keys:
            self.update(key)

    def update_batch(
        self,
        keys: "np.ndarray",
        weights: Optional["np.ndarray"] = None,
        duration_seconds: Optional[float] = None,
    ) -> None:
        """Vectorised ingest of a packet batch (Idea D).

        Statistically equivalent to calling :meth:`update` per key (it
        uses an independent RNG stream, so results differ per-draw but
        not in distribution).  ``duration_seconds`` is the wall-clock
        span of the batch and drives AlwaysLineRate adaptation.

        Top-k offers still happen for every packet that received at least
        one sampled row update.
        """
        self._update_batch_impl(keys, weights, duration_seconds)
        if self.invariant_hook is not None:
            self.invariant_hook(self)

    def _update_batch_impl(
        self,
        keys: "np.ndarray",
        weights: Optional["np.ndarray"],
        duration_seconds: Optional[float],
    ) -> None:
        keys = np.asarray(keys)
        count = len(keys)
        if count == 0:
            return
        profiler = self.profiler
        profiler.tick()
        self.packets_seen += count
        self.ops.packet(count)
        self.ops.fixed(PREPROCESS_CYCLES_PER_PACKET * count)
        self._telemetry.count("nitro_packets_total", count, path="batch")

        # Mode hooks at batch granularity.
        if self.linerate is not None and duration_seconds is not None:
            new_probability = self.linerate.on_batch(count, duration_seconds)
            if new_probability is not None:
                self._set_probability(new_probability, "linerate")
        if self.correctness is not None and not self.correctness.converged:
            # Warm-up: exact vectorised update, then check convergence.
            # The batch is already billed as packets above, so the inner
            # update is told not to recount it.
            self.packets_sampled += count
            self._telemetry.count("nitro_sampled_packets_total", count)
            with profiler.stage("exact_update"):
                self.sketch.update_batch(keys, weights, count_packets=False)
            with profiler.stage("query"):
                self._offer_topk(keys, count)
            if self.correctness.on_batch(count):
                self._set_probability(self.config.probability, "converged")
            return

        probability = self.sampler.probability
        depth = self.sketch.depth
        if probability >= 1.0:
            self.packets_sampled += count
            self._telemetry.count("nitro_sampled_packets_total", count)
            with profiler.stage("exact_update"):
                self.sketch.update_batch(keys, weights, count_packets=False)
            with profiler.stage("query"):
                self._offer_topk(keys, count)
            return

        total_slots = count * depth
        # Honour the skip carried over from previous packets: the next
        # sampled slot sits at absolute position `_pending`, and subsequent
        # samples continue the geometric process from there.
        if self._pending >= total_slots:
            self._pending -= total_slots
            return
        with profiler.stage("geometric_skip"):
            first = self._pending
            tail, leftover = geometric_positions(
                probability, total_slots - first - 1, self._batch_rng
            )
            positions = np.concatenate(
                [np.array([first], dtype=np.int64), first + 1 + tail]
            )
            self._pending = leftover
            self.ops.prng(len(positions))

            packet_idx = positions // depth
            rows = positions % depth
            inverse = 1.0 / probability
            if weights is None:
                slot_weights = np.full(positions.shape, inverse, dtype=np.float64)
            else:
                slot_weights = (
                    np.asarray(weights, dtype=np.float64)[packet_idx] * inverse
                )
            sampled_keys = keys[packet_idx]

        self.sketch.note_batch_mass(float(np.sum(slot_weights)))
        # One fused kernel call hashes and scatters every sampled slot
        # at once (row-indexed hashing + flat-index scatter-add), instead
        # of the old per-row mask/`np.add.at` loop.  The profiler (when
        # this batch is sampled) splits it into row_hash and scatter.
        self.ops.hash(len(positions))
        self.sketch.kernel.slot_update(
            rows,
            sampled_keys,
            slot_weights,
            profiler=profiler if profiler.active else None,
        )
        self.ops.counter_update(len(positions))

        # Positions ascend, so each sampled packet's slots are adjacent.
        packet_starts = run_starts(packet_idx)
        sampled_packets = int(np.count_nonzero(packet_starts))
        self.packets_sampled += sampled_packets
        self._telemetry.count("nitro_sampled_packets_total", sampled_packets)
        self._telemetry.count("nitro_geometric_draws_total", len(positions))
        if self.topk is not None:
            with profiler.stage("query"):
                unique_keys = sorted_distinct(sampled_keys[packet_starts])
                # Scalar ingest probes the heap once per *sampled packet*.
                self.ops.table_lookup(sampled_packets - len(unique_keys))
                estimates = self.sketch.query_batch(unique_keys)
                self.topk.offer_sorted(unique_keys, estimates)

    def _offer_topk(self, keys: "np.ndarray", count: int) -> None:
        """Offer each distinct key of an exact-phase batch to the heap."""
        if self.topk is None:
            return
        unique_keys = sorted_distinct(keys)
        self.ops.table_lookup(count - len(unique_keys))
        self.topk.offer_sorted(unique_keys, self.sketch.query_batch(unique_keys))

    # -- queries -----------------------------------------------------------------

    def query(self, key: int) -> float:
        """Point frequency estimate (the wrapped sketch's own rule)."""
        return self.sketch.query(key)

    def _fresh_estimates(self) -> List[Tuple[int, float]]:
        """Batch-requery every tracked key (one fused query_batch call)."""
        tracked = list(self.topk.keys()) if self.topk is not None else []
        if not tracked:
            return []
        estimates = self.sketch.query_batch(np.asarray(tracked))
        return [(key, float(est)) for key, est in zip(tracked, estimates.tolist())]

    def heavy_hitters(self, threshold: float) -> List[Tuple[int, float]]:
        """Tracked flows with a fresh estimate above ``threshold``."""
        if self.topk is None:
            raise RuntimeError("top-k tracking disabled (config.top_k == 0)")
        hitters = [
            (key, est) for key, est in self._fresh_estimates() if est > threshold
        ]
        hitters.sort(key=lambda item: (-item[1], item[0]))
        return hitters

    def top_items(self) -> List[Tuple[int, float]]:
        """Tracked (key, fresh estimate) pairs -- UnivMon's per-level hook."""
        return self._fresh_estimates()

    def l2_estimate(self) -> float:
        """AMS L2 estimate from the wrapped sketch (signed sketches only)."""
        return math.sqrt(max(self.sketch.l2_squared_estimate(), 0.0))

    def merge(self, other: "NitroSketch") -> None:
        """Merge another NitroSketch built with the same config/seed.

        Sketch linearity makes distributed monitoring trivial: each
        vantage point runs its own NitroSketch and the control plane sums
        the counter grids (plus unions the top-k candidates).  Requires
        identical wrapped-sketch configuration so the hash functions
        agree.
        """
        self.sketch.merge(other.sketch)
        self.packets_seen += other.packets_seen
        self.packets_sampled += other.packets_sampled
        if self.topk is not None and other.topk is not None:
            # Re-offer *every* tracked key (ours and theirs) with its
            # post-merge estimate: our keys' stored estimates predate the
            # merge, and leaving them stale would let eviction order be
            # driven by pre-merge counts.
            tracked = np.asarray(
                sorted(set(self.topk.keys()) | set(other.topk.keys()))
            )
            if tracked.size:
                self.topk.offer_sorted(tracked, self.sketch.query_batch(tracked))

    # -- invariants ---------------------------------------------------------------

    def check_invariants(self) -> List[str]:
        """Cross-component coherence checks; returns violation strings.

        Pull-based: nothing on the data plane calls this unless an
        :attr:`invariant_hook` is installed, so the disabled overhead is
        one attribute test per batch.  Checks (docs/VERIFICATION.md):

        * ``packets_sampled <= packets_seen`` and a non-negative skip
          cursor;
        * sampler/controller/config ``p`` coherence -- the sampler must
          agree with AlwaysLineRate's ``current_probability``, with
          AlwaysCorrect's phase (1.0 unconverged, ``config.probability``
          after), or with the fixed configured ``p``;
        * the wrapped sketch's own invariants (finite counters, K-ary
          mass conservation) and the top-k heap/dict consistency.
        """
        violations: List[str] = []
        if self.packets_sampled > self.packets_seen:
            violations.append(
                "nitro: packets_sampled %d exceeds packets_seen %d"
                % (self.packets_sampled, self.packets_seen)
            )
        if self._pending < 0:
            violations.append("nitro: negative pending slot skip %d" % self._pending)
        probability = self.sampler.probability
        if self.linerate is not None:
            if probability != self.linerate.current_probability:
                violations.append(
                    "nitro: sampler p=%g desynced from AlwaysLineRate "
                    "controller p=%g" % (probability, self.linerate.current_probability)
                )
        elif self.correctness is not None:
            expected = 1.0 if not self.correctness.converged else self.config.probability
            if probability != expected:
                violations.append(
                    "nitro: sampler p=%g but AlwaysCorrect (%s) implies p=%g"
                    % (
                        probability,
                        "converged" if self.correctness.converged else "warm-up",
                        expected,
                    )
                )
        elif probability != self.config.probability:
            violations.append(
                "nitro: fixed-mode sampler p=%g != config p=%g"
                % (probability, self.config.probability)
            )
        if hasattr(self.sketch, "check_invariants"):
            violations.extend(self.sketch.check_invariants())
        if self.topk is not None:
            violations.extend(self.topk.check_invariants())
        return violations

    # -- bookkeeping ----------------------------------------------------------------

    def memory_bytes(self) -> int:
        total = self.sketch.memory_bytes()
        if self.topk is not None:
            total += self.topk.memory_bytes()
        return total

    def reset(self) -> None:
        """Clear counters, top-k and mode state (keeps hashes and config).

        The contract is reset-equals-fresh: after ``reset`` the monitor
        behaves bit-identically to a newly built ``NitroSketch`` with the
        same config and seed -- PRNG cursors are reseeded and every
        controller (including AlwaysLineRate's ``current_probability``,
        epoch accumulators and adjustment history) returns to its
        constructed state.  The statements mirror ``__init__`` order so
        the same number of gap draws is consumed in every mode.
        """
        self.sketch.reset()
        if self.topk is not None:
            self.topk.reset()
        self.packets_seen = 0
        self.packets_sampled = 0
        self.sampler.reset(self.config.probability)
        self._pending = self.sampler.next_gap() - 1
        self._batch_rng = np.random.default_rng(self.config.seed ^ 0xB5B5B5B5)
        if self.linerate is not None:
            self.linerate.reset()
        if self.correctness is not None:
            self.correctness.reset()
            self._set_probability(1.0, "reset")
        else:
            self._set_probability(self.config.probability, "reset")
