"""Tests for the NitroSketch core (Algorithm 1)."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import NitroConfig, NitroMode, NitroSketch
from repro.metrics.opcount import OpCounter
from repro.sketches import CountMinSketch, CountSketch, KArySketch
from repro.traffic import zipf_keys


def make_nitro(probability=0.05, width=16384, depth=5, seed=1, **kwargs):
    config = NitroConfig(probability=probability, seed=seed, **kwargs)
    return NitroSketch(CountSketch(depth, width, seed), config)


class TestExactMode:
    def test_p_one_equals_vanilla(self):
        """At p = 1 NitroSketch is bit-identical to the wrapped sketch."""
        keys = zipf_keys(5000, 500, 1.2, seed=2)
        vanilla = CountSketch(5, 1024, seed=3)
        nitro = NitroSketch(CountSketch(5, 1024, seed=3), probability=1.0, seed=3)
        for key in keys.tolist():
            vanilla.update(key)
            nitro.update(key)
        assert np.array_equal(vanilla.counters, nitro.sketch.counters)
        assert nitro.packets_sampled == len(keys)

    def test_p_one_batch_equals_vanilla(self):
        keys = zipf_keys(5000, 500, 1.2, seed=2)
        vanilla = CountSketch(5, 1024, seed=3)
        nitro = NitroSketch(CountSketch(5, 1024, seed=3), probability=1.0, seed=3)
        vanilla.update_batch(keys)
        nitro.update_batch(keys)
        assert np.array_equal(vanilla.counters, nitro.sketch.counters)


class TestSampledMode:
    def test_unbiased_heavy_flow_estimate(self):
        keys = zipf_keys(100000, 5000, 1.2, seed=4)
        nitro = make_nitro(probability=0.05, seed=4)
        nitro.update_many(keys.tolist())
        truth = Counter(keys.tolist())
        top = max(truth, key=truth.get)
        assert nitro.query(int(top)) == pytest.approx(truth[top], rel=0.1)

    def test_batch_statistically_equivalent(self):
        keys = zipf_keys(100000, 5000, 1.2, seed=4)
        truth = Counter(keys.tolist())
        top = max(truth, key=truth.get)
        nitro = make_nitro(probability=0.05, seed=4)
        nitro.update_batch(keys)
        assert nitro.query(int(top)) == pytest.approx(truth[top], rel=0.1)

    def test_sampled_row_rate(self):
        """Counter updates per packet should be ~ d*p (Theorem-2 costs)."""
        nitro = make_nitro(probability=0.02, depth=5, seed=5)
        ops = OpCounter()
        nitro.ops = ops
        keys = zipf_keys(50000, 1000, 1.0, seed=5)
        nitro.update_many(keys.tolist())
        per_packet = ops.counter_updates / ops.packets
        assert per_packet == pytest.approx(5 * 0.02, rel=0.15)

    def test_sampled_packet_fraction(self):
        """P(packet touches >= 1 row) = 1 - (1-p)^d."""
        probability, depth = 0.05, 5
        nitro = make_nitro(probability=probability, depth=depth, seed=6)
        keys = zipf_keys(40000, 1000, 1.0, seed=6)
        nitro.update_many(keys.tolist())
        expected = 1 - (1 - probability) ** depth
        assert nitro.packets_sampled / nitro.packets_seen == pytest.approx(
            expected, rel=0.15
        )

    def test_batch_packets_sampled_counts_distinct_packets(self, monkeypatch):
        """The batch path's first-of-packet count equals the distinct
        packet indices of the sampled slots (``np.unique(packet_idx)``)."""
        import repro.core.nitro as nitro_module

        depth = 5
        nitro = make_nitro(probability=0.3, depth=depth, seed=13)
        drawn = []
        real = nitro_module.geometric_positions

        def recording(probability, span, rng):
            first = nitro._pending
            tail, leftover = real(probability, span, rng)
            drawn.append(np.concatenate([[first], first + 1 + tail]))
            return tail, leftover

        monkeypatch.setattr(nitro_module, "geometric_positions", recording)
        keys = zipf_keys(20000, 1000, 1.1, seed=13)
        for start in range(0, len(keys), 4096):
            before = nitro.packets_sampled
            nitro.update_batch(keys[start : start + 4096])
            expected = int(np.unique(drawn[-1] // depth).size)
            assert nitro.packets_sampled - before == expected
        assert len(drawn) == 5

    def test_increments_scaled_by_inverse_p(self):
        nitro = make_nitro(probability=0.25, depth=1, width=1, seed=7)
        for _ in range(4000):
            nitro.update(1)
        # Single counter accumulates ~m regardless of p (each sampled
        # update adds 1/p).
        assert abs(nitro.sketch.counters[0, 0]) == pytest.approx(4000, rel=0.15)

    def test_works_with_countmin(self):
        nitro = NitroSketch(CountMinSketch(5, 16384, seed=8), probability=0.1, seed=8)
        keys = zipf_keys(50000, 2000, 1.2, seed=8)
        nitro.update_batch(keys)
        truth = Counter(keys.tolist())
        top = max(truth, key=truth.get)
        assert nitro.query(int(top)) == pytest.approx(truth[top], rel=0.15)

    def test_works_with_kary(self):
        nitro = NitroSketch(KArySketch(5, 16384, seed=9), probability=0.1, seed=9)
        keys = zipf_keys(50000, 2000, 1.2, seed=9)
        nitro.update_batch(keys)
        truth = Counter(keys.tolist())
        top = max(truth, key=truth.get)
        assert nitro.query(int(top)) == pytest.approx(truth[top], rel=0.15)
        assert nitro.sketch.total == pytest.approx(len(keys), rel=0.1)

    def test_bernoulli_sampling_equivalent_distribution(self):
        nitro = make_nitro(probability=0.1, seed=10, sampling="bernoulli")
        keys = zipf_keys(60000, 2000, 1.2, seed=10)
        nitro.update_many(keys.tolist())
        truth = Counter(keys.tolist())
        top = max(truth, key=truth.get)
        assert nitro.query(int(top)) == pytest.approx(truth[top], rel=0.12)

    def test_bernoulli_bills_per_row_prng(self):
        nitro = make_nitro(probability=0.01, depth=5, seed=11, sampling="bernoulli")
        ops = OpCounter()
        nitro.ops = ops
        for key in range(1000):
            nitro.update(key)
        assert ops.prng_draws == 5000  # d coin flips per packet


class TestTopK:
    def test_heavy_hitters_found(self):
        keys = zipf_keys(100000, 5000, 1.3, seed=12)
        nitro = make_nitro(probability=0.05, seed=12, top_k=50)
        nitro.update_batch(keys)
        truth = Counter(keys.tolist())
        top5 = [key for key, _ in truth.most_common(5)]
        hitters = [key for key, _ in nitro.heavy_hitters(threshold=0)]
        for key in top5:
            assert key in hitters

    def test_heavy_hitters_sorted(self):
        keys = zipf_keys(50000, 2000, 1.3, seed=13)
        nitro = make_nitro(probability=0.05, seed=13)
        nitro.update_batch(keys)
        estimates = [est for _, est in nitro.heavy_hitters(0)]
        assert estimates == sorted(estimates, reverse=True)

    def test_topk_disabled(self):
        nitro = make_nitro(top_k=0)
        nitro.update(1)
        with pytest.raises(RuntimeError):
            nitro.heavy_hitters(0)
        assert nitro.top_items() == []


class TestLifecycle:
    def test_reset(self):
        nitro = make_nitro(probability=0.5, seed=14)
        nitro.update_many(range(100))
        nitro.reset()
        assert nitro.packets_seen == 0
        assert nitro.packets_sampled == 0
        assert np.all(nitro.sketch.counters == 0)

    def test_config_and_kwargs_mutually_exclusive(self):
        with pytest.raises(TypeError):
            NitroSketch(CountSketch(2, 16), NitroConfig(), probability=0.5)

    def test_from_error_bounds_l2(self):
        nitro = NitroSketch.from_error_bounds(CountSketch, 0.1, 0.05, probability=0.1)
        assert nitro.sketch.width >= 8 / (0.01 * 0.1) - 1

    def test_from_error_bounds_l1(self):
        nitro = NitroSketch.from_error_bounds(CountMinSketch, 0.1, 0.05)
        assert nitro.sketch.width >= 4 / 0.1 - 1

    def test_memory_includes_topk(self):
        nitro = make_nitro(top_k=10)
        nitro.update_many(range(100))
        assert nitro.memory_bytes() > nitro.sketch.memory_bytes()

    def test_l2_estimate_positive(self):
        nitro = make_nitro(probability=1.0)
        nitro.update_many([1] * 100)
        assert nitro.l2_estimate() > 0

    @given(st.floats(min_value=0.01, max_value=1.0))
    @settings(max_examples=20, deadline=None)
    def test_probability_exposed(self, probability):
        nitro = make_nitro(probability=probability, width=256)
        assert nitro.probability == probability


class TestOpsAccounting:
    def test_unsampled_packets_cost_no_hash(self):
        nitro = make_nitro(probability=0.001, depth=5, seed=15, top_k=0)
        ops = OpCounter()
        nitro.ops = ops
        for key in range(10000):
            nitro.update(key)
        # ~ d*p*packets = 50 hashes expected, far below one per packet.
        assert ops.hashes < 200
        assert ops.packets == 10000

    def test_preprocess_cycles_charged(self):
        nitro = make_nitro(probability=0.5, seed=16)
        ops = OpCounter()
        nitro.ops = ops
        nitro.update(1)
        assert ops.fixed_cycles > 0


class TestMergeAndWeights:
    def test_merge_distributed_vantage_points(self):
        """Two NitroSketches at different vantage points merge into one
        whose estimates reflect the combined traffic."""
        keys_a = zipf_keys(40000, 2000, 1.2, seed=20)
        keys_b = zipf_keys(40000, 2000, 1.2, seed=21)
        a = make_nitro(probability=0.1, seed=22)
        b = make_nitro(probability=0.1, seed=22)
        a.update_batch(keys_a)
        b.update_batch(keys_b)
        truth = Counter(keys_a.tolist()) + Counter(keys_b.tolist())
        a.merge(b)
        top = max(truth, key=truth.get)
        assert a.query(int(top)) == pytest.approx(truth[top], rel=0.12)
        assert a.packets_seen == 80000

    def test_merge_requires_same_configuration(self):
        a = make_nitro(width=1024, seed=1)
        b = make_nitro(width=2048, seed=1)
        with pytest.raises(ValueError):
            a.merge(b)

    def test_byte_counting_mode(self):
        """Weights carry packet sizes: the paper's byte-count HH variant."""
        nitro = make_nitro(probability=0.2, seed=23)
        rng = np.random.default_rng(23)
        sizes = rng.choice([64, 1500], size=30000, p=[0.3, 0.7])
        keys = zipf_keys(30000, 1000, 1.2, seed=23)
        nitro.update_batch(keys, weights=sizes.astype(float))
        true_bytes = {}
        for key, size in zip(keys.tolist(), sizes.tolist()):
            true_bytes[key] = true_bytes.get(key, 0) + size
        top = max(true_bytes, key=true_bytes.get)
        assert nitro.query(int(top)) == pytest.approx(true_bytes[top], rel=0.12)


class TestMergeTopKRefresh:
    def test_merge_refreshes_tracked_estimates(self):
        """Post-merge top-k estimates come from the merged grid, not the
        stale pre-merge offers, so eviction order follows true counts."""
        config = dict(probability=1.0, top_k=2, seed=3)
        a = NitroSketch(CountMinSketch(3, 512, 3), NitroConfig(**config))
        b = NitroSketch(CountMinSketch(3, 512, 3), NitroConfig(**config))
        a.update_batch(np.repeat([1, 2], [10, 3]))
        b.update_batch(np.repeat(np.int64(2), 5))
        a.merge(b)
        assert a.topk.estimate(2) == a.sketch.query(2)
        assert a.topk.estimate(1) == a.sketch.query(1)
        assert a.topk.min_estimate() == min(a.sketch.query(1), a.sketch.query(2))
        # A newcomer below the refreshed minimum (but above the stale
        # pre-merge one) must NOT evict a tracked key.
        assert not a.topk.offer(9, a.topk.min_estimate() - 1.0)
        assert set(a.topk.keys()) == {1, 2}


class TestResetEqualsFresh:
    def test_fixed_mode_reset_equals_fresh(self):
        """After reset, re-ingesting a trace must be bit-identical to a
        fresh monitor: PRNG cursors reseed, so the same gap sequence and
        batch draws replay."""
        keys = zipf_keys(4000, 300, 1.1, seed=21)
        fresh = make_nitro(probability=0.1, width=1024, seed=21, top_k=16)
        recycled = make_nitro(probability=0.1, width=1024, seed=21, top_k=16)
        recycled.update_batch(keys[::-1].copy())  # arbitrary pre-reset history
        recycled.update_many(keys[:100].tolist())
        recycled.reset()

        half = len(keys) // 2
        for monitor in (fresh, recycled):
            monitor.update_batch(keys[:half])
            monitor.update_many(keys[half:].tolist())

        assert np.array_equal(fresh.sketch.counters, recycled.sketch.counters)
        assert fresh.packets_seen == recycled.packets_seen
        assert fresh.packets_sampled == recycled.packets_sampled
        assert set(fresh.topk.keys()) == set(recycled.topk.keys())
        assert recycled.check_invariants() == []

    def test_linerate_reset_resyncs_controller(self):
        """Regression: reset must restore AlwaysLineRate's
        ``current_probability`` alongside the sampler -- a stale value let
        the no-change short-circuit strand the sampler at config p while
        the controller believed the adapted p was still in force."""
        config_kwargs = dict(
            probability=0.5,
            width=1024,
            seed=22,
            mode=NitroMode.ALWAYS_LINE_RATE,
            adaptation_epoch_seconds=0.0005,
        )
        keys = zipf_keys(6000, 300, 1.1, seed=22)

        def drive(monitor):
            # ~3.33 Mpps: p adapts from 0.5 down to 1/8 within the trace.
            for index, key in enumerate(keys.tolist()):
                monitor.update(int(key), timestamp=index * 3e-7)

        fresh = make_nitro(**config_kwargs)
        drive(fresh)
        assert fresh.probability == 1 / 8

        recycled = make_nitro(**config_kwargs)
        drive(recycled)
        recycled.reset()
        assert recycled.probability == 0.5
        assert recycled.linerate.current_probability == 0.5
        assert recycled.check_invariants() == []
        drive(recycled)
        assert recycled.probability == fresh.probability
        assert np.array_equal(fresh.sketch.counters, recycled.sketch.counters)
        assert fresh.packets_sampled == recycled.packets_sampled

    def test_always_correct_reset_restarts_warmup(self):
        nitro = make_nitro(
            probability=0.1,
            width=2048,
            seed=23,
            mode=NitroMode.ALWAYS_CORRECT,
            epsilon=0.5,
            convergence_check_period=1000,
        )
        nitro.update_batch(np.full(3000, 7, dtype=np.int64))
        assert nitro.converged
        nitro.reset()
        assert not nitro.converged
        assert nitro.probability == 1.0  # back in the exact warm-up phase
        assert nitro.correctness.converged_at_packet is None
        assert nitro.check_invariants() == []
