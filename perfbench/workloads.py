"""Workload definitions and their seeded inputs.

Every input is a pure function of the workload and ``--seed``: the
service sees only the frames generated here.  A served workload cycles
through a fixed pool of frames, so exact per-tenant counts (the
heavy-hitter ground truth) follow from how often each pool frame was
sent, without keeping the whole stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.traffic.traces import caida_like, datacenter_like

#: The open-loop query rate every served workload runs alongside ingest.
QUERY_RATE_HZ = 20.0
#: Keys per ``/point`` query.
POINT_KEYS = 64
#: Heavy-hitter share queried during and after the run.
HH_SHARE = 0.001
#: The read-your-writes probe: a small tenant sharing the connection.
PROBE_TENANT = "probe"
PROBE_KEYS = 1024


@dataclass(frozen=True)
class ServedWorkload:
    """One traffic mix driven through ``nitrosketch serve`` (README.md
    says why each exists)."""

    name: str
    trace: str  # "caida" or "datacenter"
    flows: int
    frame_keys: int
    pool_frames: int
    #: Tenants the client round-robins over, one frame each.
    tenants: Tuple[str, ...]
    #: True: every frame is followed by its ``sync`` (read-your-writes
    #: client).  False: frames go back to back and a probe tenant's
    #: frame + ``sync`` is sent every ``probe_every`` frames.
    sync_each_frame: bool
    probe_every: int
    #: ServiceConfig fields that differ from the defaults; each is passed
    #: to ``nitrosketch serve`` as its ``--field-name`` flag.
    config: Tuple[Tuple[str, int], ...] = ()
    #: False: runnable by name, but left out of BENCHMARK.json.
    listed: bool = True


CHURN_TENANTS = tuple("t%02d" % index for index in range(16))

SERVED: Dict[str, ServedWorkload] = {
    workload.name: workload
    for workload in (
        ServedWorkload(
            name="bulk_ingest",
            trace="caida",
            flows=80_000,
            frame_keys=16_384,
            pool_frames=64,
            tenants=("bulk",),
            sync_each_frame=False,
            probe_every=8,
        ),
        ServedWorkload(
            name="small_frames",
            trace="datacenter",
            flows=20_000,
            frame_keys=1_024,
            pool_frames=256,
            tenants=("small",),
            sync_each_frame=True,
            probe_every=0,
            listed=False,
        ),
        ServedWorkload(
            name="tenant_churn",
            trace="caida",
            flows=80_000,
            frame_keys=8_192,
            pool_frames=128,
            tenants=CHURN_TENANTS,
            sync_each_frame=False,
            probe_every=8,
            config=(("max_tenants", 8), ("epoch_batches", 4)),
        ),
        ServedWorkload(
            name="tenant_churn_windowed",
            trace="caida",
            flows=80_000,
            frame_keys=8_192,
            pool_frames=128,
            tenants=CHURN_TENANTS,
            sync_each_frame=False,
            probe_every=8,
            config=(("max_tenants", 8), ("epoch_batches", 4), ("window_epochs", 4)),
            listed=False,
        ),
    )
}


class FramePool:
    """``pool_frames`` frames of ``frame_keys`` keys from one seeded trace."""

    def __init__(self, trace: str, flows: int, frame_keys: int,
                 pool_frames: int, seed: int) -> None:
        generator = {"caida": caida_like, "datacenter": datacenter_like}[trace]
        packets = frame_keys * pool_frames
        self.frame_keys = frame_keys
        self.keys = generator(packets, n_flows=flows, seed=seed).keys.astype(np.int64)
        self.frames = self.keys.reshape(pool_frames, frame_keys)
        # Distinct pool keys and each pool position's index into them,
        # for exact counts of any multiset of pool frames.
        self.distinct, self._inverse = np.unique(self.keys, return_inverse=True)

    def __len__(self) -> int:
        return len(self.frames)

    def exact_counts(self, slots: "np.ndarray") -> "np.ndarray":
        """Exact key counts (aligned with :attr:`distinct`) of the
        stream made of pool frames ``slots`` (repeats allowed)."""
        per_slot = np.bincount(np.asarray(slots, dtype=np.int64),
                               minlength=len(self.frames))
        weights = np.repeat(per_slot, self.frame_keys).astype(np.float64)
        return np.bincount(self._inverse, weights=weights,
                           minlength=len(self.distinct))


def serve_args(workload: ServedWorkload) -> Tuple[str, ...]:
    args = []
    for field, value in workload.config:
        args += ["--" + field.replace("_", "-"), str(value)]
    return tuple(args)


def served_pool(workload: ServedWorkload, seed: int) -> FramePool:
    return FramePool(workload.trace, workload.flows, workload.frame_keys,
                     workload.pool_frames, seed)


def probe_frame(seed: int) -> "np.ndarray":
    """The probe tenant's frame: a small datacenter-like batch."""
    return datacenter_like(PROBE_KEYS, seed=seed + 1).keys.astype(np.int64)


def point_keys(pool: FramePool, seed: int) -> "np.ndarray":
    """The fixed key set every ``/point`` query asks for."""
    rng = np.random.default_rng(seed + 2)
    return rng.choice(pool.distinct, size=min(POINT_KEYS, len(pool.distinct)),
                      replace=False)
