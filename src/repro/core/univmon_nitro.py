"""NitroSketch-integrated UnivMon.

Two ways to combine NitroSketch with UnivMon exist in the paper:

* conceptually, "replacing each Count Sketch instance in UnivMon with
  ... NitroSketch" (Section 8) -- the per-level wrapping
  :func:`repro.core.nitro_univmon` provides with
  ``integration='per_level'``;
* operationally, the implementation's data plane (Figure 7b): geometric
  pre-processing runs *first*, so an unsampled packet performs **no**
  hash at all -- not even the level-membership hash.  This is what makes
  the in-memory figure of 83 Mpps possible (Figure 13a): the common-path
  cost is one slot-counter decrement.

:class:`NitroUnivMon` implements the operational form: a single
geometric process walks the virtual row-major slot sequence of the
*entire* structure (``levels x depth`` slots per packet).  A sampled
slot ``(level, row)`` first checks -- with the one shared sampler hash
-- whether the key belongs to that level's substream; if so it applies
the ``p^-1``-scaled row update.  Each level's substream is therefore
sampled at exactly rate ``p``, preserving the per-level Theorem-2
guarantee, while unsampled packets cost O(1).
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from repro.core.config import NitroConfig, NitroMode
from repro.core.geometric import GeometricSampler, geometric_positions
from repro.core.modes import AlwaysCorrectController, AlwaysLineRateController
from repro.core.nitro import PREPROCESS_CYCLES_PER_PACKET
from repro.kernels.distinct import run_starts, sorted_distinct
from repro.sketches.univmon import UnivMon, default_level_factory
from repro.telemetry.profile import NULL_PROFILER


class NitroUnivMon(UnivMon):
    """UnivMon driven by whole-structure geometric counter-array sampling."""

    def __init__(
        self,
        levels: int = 14,
        depth: int = 5,
        widths: Union[int, Sequence[int]] = 10000,
        k: int = 100,
        config: Optional[NitroConfig] = None,
        **config_kwargs,
    ) -> None:
        if config is None:
            config = NitroConfig(**config_kwargs)
        elif config_kwargs:
            raise TypeError("pass either a config object or keyword arguments, not both")
        super().__init__(
            levels=levels,
            depth=depth,
            widths=widths,
            k=k,
            seed=config.seed,
            level_factory=default_level_factory,
        )
        self.config = config
        self.sampler = GeometricSampler(config.probability, config.seed ^ 0x0417)
        self._slots_per_packet = levels * depth
        self._pending = self.sampler.next_gap() - 1
        self._packets_sampled = 0
        self._batch_rng = np.random.default_rng(config.seed ^ 0x7A7A7A7A)
        # Same stage-profiler contract as NitroSketch: assign a live
        # StageProfiler to time geometric_skip/scatter/query per batch.
        self.profiler = NULL_PROFILER

        self.linerate: Optional[AlwaysLineRateController] = None
        self.correctness: Optional[AlwaysCorrectController] = None
        if config.mode is NitroMode.ALWAYS_LINE_RATE:
            self.linerate = AlwaysLineRateController(config)
        elif config.mode is NitroMode.ALWAYS_CORRECT:
            self.correctness = AlwaysCorrectController(
                config, self.sketches[0].sketch
            )
            self.sampler.set_probability(1.0)

    # -- properties -----------------------------------------------------------

    @property
    def probability(self) -> float:
        return self.sampler.probability

    @property
    def converged(self) -> bool:
        if self.correctness is None:
            return True
        return self.correctness.converged

    @property
    def packets_sampled(self) -> int:
        return self._packets_sampled

    # -- data plane -------------------------------------------------------------

    def update(self, key: int, weight: float = 1.0, timestamp: Optional[float] = None) -> None:
        """Process one packet: pre-processing first, hashing only if sampled."""
        self.ops.packet()
        self.ops.fixed(PREPROCESS_CYCLES_PER_PACKET)
        self.packets_seen += 1
        self.total += weight
        self._mode_hooks(timestamp)

        probability = self.sampler.probability
        if probability >= 1.0:
            # Exact phase (AlwaysCorrect warm-up): classic UnivMon update.
            self._packets_sampled += 1
            self.ops.hash()
            deepest = self.sampled_depth(key)
            for level in range(deepest + 1):
                self.sketches[level].update(key, weight)
            return

        slots = self._slots_per_packet
        depth = self.depth
        inverse = weight / probability
        membership: Optional[int] = None
        updated_levels = set()
        while self._pending < slots:
            level, row = divmod(self._pending, depth)
            if membership is None:
                # One shared hash resolves membership at every level.
                self.ops.hash()
                membership = self.sampled_depth(key)
            if level <= membership:
                self.sketches[level].sketch.row_update(row, key, inverse)
                updated_levels.add(level)
            self._pending += self.sampler.next_gap()
        self._pending -= slots
        if updated_levels:
            self._packets_sampled += 1
            for level in updated_levels:
                unit = self.sketches[level]
                unit.topk.offer(key, unit.sketch.query(key))

    def _mode_hooks(self, timestamp: Optional[float]) -> None:
        if self.linerate is not None:
            new_probability = self.linerate.on_packet(timestamp)
            if new_probability is not None:
                self.sampler.set_probability(new_probability)
        elif self.correctness is not None and not self.correctness.converged:
            if self.correctness.on_packet():
                self.sampler.set_probability(self.config.probability)

    def update_batch(
        self,
        keys: "np.ndarray",
        weights: Optional["np.ndarray"] = None,
        duration_seconds: Optional[float] = None,
    ) -> None:
        """Vectorised whole-structure sampling (Idea D)."""
        keys = np.asarray(keys)
        count = len(keys)
        if count == 0:
            return
        profiler = self.profiler
        profiler.tick()
        self.ops.packet(count)
        self.ops.fixed(PREPROCESS_CYCLES_PER_PACKET * count)
        self.packets_seen += count
        self.total += count if weights is None else float(np.sum(weights))

        if self.linerate is not None and duration_seconds is not None:
            new_probability = self.linerate.on_batch(count, duration_seconds)
            if new_probability is not None:
                self.sampler.set_probability(new_probability)
        if self.correctness is not None and not self.correctness.converged:
            self._packets_sampled += count
            with profiler.stage("exact_update"):
                self._exact_batch(keys, weights)
            if self.correctness.on_batch(count):
                self.sampler.set_probability(self.config.probability)
            return

        probability = self.sampler.probability
        if probability >= 1.0:
            self._packets_sampled += count
            with profiler.stage("exact_update"):
                self._exact_batch(keys, weights)
            return

        with profiler.stage("geometric_skip"):
            slots = self._slots_per_packet
            depth = self.depth
            total_slots = count * slots
            if self._pending >= total_slots:
                self._pending -= total_slots
                return
            first = self._pending
            tail, leftover = geometric_positions(
                probability, total_slots - first - 1, self._batch_rng
            )
            positions = np.concatenate(
                [np.array([first], dtype=np.int64), first + 1 + tail]
            )
            self._pending = leftover
            self.ops.prng(len(positions))

            packet_idx = positions // slots
            slot_idx = positions % slots
            level_idx = slot_idx // depth
            row_idx = slot_idx % depth

            sampled_keys = keys[packet_idx]
            # One membership hash per sampled position (scalar path pays one
            # per sampled *packet*; bill per unique packet).
            self.ops.hash(int(np.count_nonzero(run_starts(packet_idx))))
            membership = self.sampled_depth_batch(sampled_keys)
            in_level = level_idx <= membership

            inverse = 1.0 / probability
            if weights is None:
                slot_weights = np.full(positions.shape, inverse, dtype=np.float64)
            else:
                slot_weights = np.asarray(weights, dtype=np.float64)[packet_idx] * inverse

        kernel_profiler = profiler if profiler.active else None
        updated_keys = {}
        for level in range(self.levels):
            level_mask = (level_idx == level) & in_level
            if not np.any(level_mask):
                continue
            sketch = self.sketches[level].sketch
            level_rows = row_idx[level_mask]
            level_keys = sampled_keys[level_mask]
            # Fused per-level scatter: one kernel call replaces the old
            # per-row mask/np.add.at loop, with identical op accounting
            # (one hash + one counter update per sampled slot).
            self.ops.hash(len(level_keys))
            sketch.kernel.slot_update(
                level_rows, level_keys, slot_weights[level_mask],
                profiler=kernel_profiler,
            )
            self.ops.counter_update(len(level_keys))
            updated_keys[level] = sorted_distinct(level_keys)

        # Positions ascend, so each sampled packet's slots are adjacent.
        self._packets_sampled += int(np.count_nonzero(run_starts(packet_idx[in_level])))
        with profiler.stage("query"):
            for level, unique_keys in updated_keys.items():
                unit = self.sketches[level]
                unit.topk.offer_sorted(unique_keys, unit.sketch.query_batch(unique_keys))

    def _exact_batch(self, keys, weights) -> None:
        """Vanilla UnivMon batch path, without re-counting packets/total."""
        super().update_batch(keys, weights, count_packets=False)

    # -- bookkeeping ----------------------------------------------------------

    def memory_bytes(self) -> int:
        return super().memory_bytes()

    def reset(self) -> None:
        """Reset-equals-fresh, mirroring ``__init__`` order (see
        :meth:`NitroSketch.reset`): PRNG cursors reseed and every
        controller -- including AlwaysLineRate's ``current_probability``
        -- returns to its constructed state."""
        super().reset()
        self._packets_sampled = 0
        self.sampler.reset(self.config.probability)
        self._pending = self.sampler.next_gap() - 1
        self._batch_rng = np.random.default_rng(self.config.seed ^ 0x7A7A7A7A)
        if self.linerate is not None:
            self.linerate.reset()
        if self.correctness is not None:
            self.correctness.reset()
            self.sampler.set_probability(1.0)
