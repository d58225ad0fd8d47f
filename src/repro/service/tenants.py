"""Per-tenant sketch namespaces sharing one memory budget.

The north star is "millions of users": the service models that as
thousands of *tenants*, each owning an independent
:class:`~repro.switchsim.daemon.MeasurementDaemon` (its own sketch, its
own bounded ingest queue, optionally its own sliding window and live
guarantee auditor) while all of them share one resident-memory budget.

Isolation comes from the seed-derivation machinery the parallel engine
already uses: a tenant's id hashes to a 64-bit stream id, the sampler
seed derives via :meth:`NitroConfig.for_shard` and the sketch seed via a
second :func:`~repro.hashing.prng.derive_stream_seed` stream, so two
tenants never share hash functions or sampling streams -- tenant A's
traffic cannot perturb tenant B's estimates (the ``service`` selfcheck
suite proves this against a bit-identical reference build).

Eviction is LRU with an optional idle clock: when the tenant count or
the summed sketch bytes cross the configured budget, the
least-recently-touched tenant drains its queue, checkpoints through the
real :class:`~repro.control.checkpoint.CheckpointManager` machinery
(NSKW v2 frames -- byte-exact on restore) and leaves memory.  The next
ingest for that tenant transparently restores it; a lookup that only
reads (query, sync, stats) answers from a detached view restored from
the same checkpoint (:meth:`TenantManager.get`), so reading an evicted
tenant never evicts another one.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from repro.control.checkpoint import CheckpointManager
from repro.core.config import NitroConfig, NitroMode
from repro.hashing.prng import derive_stream_seed
from repro.service.records import validate_tenant
from repro.switchsim.daemon import MeasurementDaemon
from repro.telemetry import NULL_TELEMETRY

#: Second derivation stream for sketch seeds, so a tenant's sketch hash
#: functions are independent of its sampler stream (both still pure
#: functions of (base seed, tenant id)).
_SKETCH_SEED_SALT = 0x5EED_5A17

#: Detached views of evicted tenants kept for repeat reads (LRU).
MAX_VIEWS = 8


def tenant_stream_id(tenant: str) -> int:
    """Stable 64-bit stream id for a tenant (blake2b of the id)."""
    digest = hashlib.blake2b(tenant.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def tenant_subdir(tenant: str) -> str:
    """Checkpoint subdirectory name for a tenant (reversible hex)."""
    return "t_" + tenant.encode("utf-8").hex()


def tenant_from_subdir(name: str) -> Optional[str]:
    """Inverse of :func:`tenant_subdir`; None for foreign directories."""
    if not name.startswith("t_"):
        return None
    try:
        return bytes.fromhex(name[2:]).decode("utf-8")
    except ValueError:
        return None


@dataclass
class ServiceConfig:
    """Everything the monitoring service needs to build a tenant.

    The sketch defaults mirror the audited-demo/chaos configuration
    (AlwaysCorrect Nitro Count Sketch, loose epsilon) so Theorem-2
    envelope checks are meaningful on smoke-sized streams; production
    deployments tighten ``epsilon``/``width`` per tenant volume.
    """

    # Sketch shape (per tenant).
    depth: int = 5
    width: int = 4096
    probability: float = 0.1
    epsilon: float = 0.5
    mode: NitroMode = NitroMode.ALWAYS_CORRECT
    convergence_check_period: int = 1000
    top_k: int = 100
    seed: int = 7
    # Ingest queue (per tenant).
    queue_capacity: int = 256
    #: ``"wait"`` parks the producer until space frees (TCP backpressure
    #: propagates to the client); ``"drop"`` sheds the batch and counts
    #: it (the FIFO-overflow behaviour of a real separate-thread
    #: integration).
    overflow: str = "wait"
    # Epoch / window structure.
    window_epochs: int = 0
    epoch_batches: int = 16
    # Live guarantee auditing (PR 3).  Mutually exclusive with windows:
    # the auditor's ground truth is lifetime mass, which a rotating ring
    # deliberately forgets.
    audit: bool = False
    audit_capacity: int = 256
    # Tenancy budget.
    max_tenants: int = 64
    memory_budget_bytes: int = 0  # 0 = unbounded
    idle_seconds: float = 0.0  # 0 = no idle eviction
    # Durability.
    checkpoint_dir: Optional[str] = None
    checkpoint_keep: int = 2

    def __post_init__(self) -> None:
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        if self.overflow not in ("wait", "drop"):
            raise ValueError("overflow must be 'wait' or 'drop', got %r" % (self.overflow,))
        if self.max_tenants < 1:
            raise ValueError("max_tenants must be >= 1")
        if self.memory_budget_bytes < 0 or self.idle_seconds < 0:
            raise ValueError("budgets must be >= 0")
        if self.audit and self.window_epochs > 0:
            raise ValueError(
                "audit and window_epochs are mutually exclusive: the guarantee "
                "auditor tracks lifetime stream mass, which a sliding window "
                "deliberately forgets"
            )
        if isinstance(self.mode, str):
            self.mode = NitroMode(self.mode)

    def nitro_config(self, tenant: str) -> NitroConfig:
        """The per-tenant :class:`NitroConfig` (derived sampler seed)."""
        sid = tenant_stream_id(tenant)
        base = NitroConfig(
            probability=self.probability,
            mode=self.mode,
            epsilon=self.epsilon,
            top_k=self.top_k,
            convergence_check_period=self.convergence_check_period,
            seed=self.seed,
        )
        # for_shard masks nothing: derive_stream_seed takes the full id.
        return replace(base, seed=derive_stream_seed(base.seed, sid))

    def sketch_seed(self, tenant: str) -> int:
        """The per-tenant sketch (hash-function) seed."""
        sid = tenant_stream_id(tenant)
        return derive_stream_seed(self.seed, sid ^ _SKETCH_SEED_SALT)

    def build_monitor(self, tenant: str):
        """A pristine monitor for ``tenant`` -- deterministic in
        (config, tenant id), so verification can rebuild a bit-identical
        reference and replay the same stream into it."""
        from repro.core.nitro import NitroSketch
        from repro.sketches.countsketch import CountSketch

        return NitroSketch(
            CountSketch(self.depth, self.width, self.sketch_seed(tenant)),
            self.nitro_config(tenant),
        )


@dataclass
class TenantState:
    """One resident tenant: daemon + lock + bookkeeping."""

    name: str
    daemon: MeasurementDaemon
    #: Serialises drain (asyncio thread) against queries (HTTP threads).
    lock: threading.RLock = field(default_factory=threading.RLock)
    last_active: float = 0.0
    #: Per-tenant anomaly detectors (null-telemetry: the shared anomaly
    #: gauges are unlabeled, so per-tenant signals stay on the object).
    anomaly: Optional[object] = None
    #: Per-tenant GuaranteeMonitor when auditing is on.
    guarantee: Optional[object] = None
    #: Wire-side accounting (batches never enqueued due to drop policy
    #: live in ``daemon.batches_dropped``).
    batches_accepted: int = 0
    packets_accepted: int = 0
    restored: bool = False

    def stats(self) -> Dict[str, object]:
        daemon = self.daemon
        return {
            "tenant": self.name,
            "batches_accepted": self.batches_accepted,
            "packets_accepted": self.packets_accepted,
            "batches_ingested": daemon.batches_ingested,
            "packets_ingested": daemon.packets_offered,
            "batches_dropped": daemon.batches_dropped,
            "queue_depth": daemon.queue_depth,
            "epochs_completed": daemon.epochs_completed,
            "memory_bytes": daemon.memory_bytes(),
            "windowed": daemon.windowed,
            "audited": self.guarantee is not None,
            "restored": self.restored,
        }


class TenantManager:
    """The LRU tenant table behind the service.

    Thread-safe: the manager lock guards the table itself; each tenant's
    own lock guards its daemon.  Lock order is always manager -> tenant,
    never the reverse.
    """

    def __init__(
        self,
        config: ServiceConfig,
        telemetry=NULL_TELEMETRY,
        clock=time.monotonic,
    ) -> None:
        self.config = config
        self.telemetry = telemetry
        self.clock = clock
        self._lock = threading.RLock()
        self._tenants: "OrderedDict[str, TenantState]" = OrderedDict()
        #: Detached, read-only views of evicted tenants (see :meth:`get`).
        self._views: "OrderedDict[str, TenantState]" = OrderedDict()
        self.created = 0
        self.evicted = 0
        self.restored = 0

    # -- construction --------------------------------------------------------

    def _checkpoints_for(self, tenant: str) -> Optional[CheckpointManager]:
        if self.config.checkpoint_dir is None:
            return None
        directory = os.path.join(self.config.checkpoint_dir, tenant_subdir(tenant))
        return CheckpointManager(
            directory,
            prefix="tenant",
            keep=self.config.checkpoint_keep,
            telemetry=NULL_TELEMETRY,
        )

    def _build_state(self, tenant: str) -> TenantState:
        from repro.telemetry.anomaly import SketchAnomalyDetectors
        from repro.telemetry.audit import GuaranteeMonitor, ShadowAuditor

        config = self.config
        monitor = config.build_monitor(tenant)
        guarantee = None
        if config.audit:
            auditor = ShadowAuditor(
                capacity=config.audit_capacity,
                seed=derive_stream_seed(config.seed, tenant_stream_id(tenant)),
                telemetry=NULL_TELEMETRY,
            )
            guarantee = GuaranteeMonitor(auditor, monitor, telemetry=NULL_TELEMETRY)
        anomaly = SketchAnomalyDetectors(telemetry=NULL_TELEMETRY)
        daemon = MeasurementDaemon(
            monitor,
            name="svc",
            telemetry=NULL_TELEMETRY,
            auditor=guarantee,
            queue_capacity=config.queue_capacity,
            checkpoints=self._checkpoints_for(tenant),
            anomaly=anomaly if config.epoch_batches > 0 else None,
            epoch_batches=config.epoch_batches,
            window_epochs=config.window_epochs,
        )
        return TenantState(
            name=tenant, daemon=daemon, anomaly=daemon.anomaly, guarantee=guarantee
        )

    # -- lookup --------------------------------------------------------------

    def get_or_create(self, tenant: str) -> TenantState:
        """The resident state for ``tenant``, creating or restoring it.

        Creation may evict the least-recently-used tenant(s) to stay
        inside the budget; a tenant with an on-disk checkpoint restores
        byte-exactly instead of starting empty.
        """
        validate_tenant(tenant)
        with self._lock:
            state = self._touch(tenant)
            if state is not None:
                return state
            # Resident from here on: its checkpoint may move, so a
            # cached view would go stale.
            self._views.pop(tenant, None)
            state = self._build_state(tenant)
            state.last_active = self.clock()
            if state.daemon.checkpoints is not None:
                if state.daemon.checkpoints.latest_sequence() is not None:
                    self._restore(state)
            self._tenants[tenant] = state
            self.created += 1
            self.telemetry.count("service_tenants_created_total")
            self._enforce_budget(protect=tenant)
            self._export_gauges()
            return state

    def get(self, tenant: str) -> Optional[TenantState]:
        """The state to read ``tenant`` from; never creates a tenant.

        A resident tenant is returned (and touched).  An evicted one is
        answered from a detached view restored from its newest
        checkpoint: the view is not made resident, so a read never
        evicts (drains, checkpoints, fsyncs) another tenant, and it does
        not count as a restore.  Views are cached, at most
        :data:`MAX_VIEWS` of them, until the tenant turns resident again
        -- the only way its checkpoint can change.  ``None`` for a
        tenant that never ingested.
        """
        with self._lock:
            state = self._touch(tenant)
            if state is not None:
                return state
            view = self._views.get(tenant)
            if view is not None:
                self._views.move_to_end(tenant)
                return view
            checkpoints = self._checkpoints_for(tenant)
            if checkpoints is None or checkpoints.latest_sequence() is None:
                return None
            view = self._build_state(tenant)
            self._load(view)
            self._views[tenant] = view
            if len(self._views) > MAX_VIEWS:
                self._views.popitem(last=False)
            return view

    def _touch(self, tenant: str) -> Optional[TenantState]:
        """The resident state, moved to the most-recently-used end."""
        state = self._tenants.get(tenant)
        if state is not None:
            self._tenants.move_to_end(tenant)
            state.last_active = self.clock()
        return state

    def _load(self, state: TenantState) -> bool:
        """Restore ``state`` from its newest checkpoint, if there is one."""
        if not state.daemon.restore_latest():
            return False
        # restore_latest swapped the monitor object: the guarantee
        # tracker (if any) must audit the restored instance.
        if state.guarantee is not None:
            state.guarantee.monitor = state.daemon.monitor
        state.restored = True
        return True

    def _restore(self, state: TenantState) -> None:
        if self._load(state):
            self.restored += 1
            self.telemetry.count("service_tenants_restored_total")

    # -- budget / eviction ---------------------------------------------------

    def memory_bytes(self) -> int:
        """Summed sketch working set across resident tenants."""
        with self._lock:
            return sum(
                state.daemon.memory_bytes() for state in self._tenants.values()
            )

    def _enforce_budget(self, protect: Optional[str] = None) -> None:
        config = self.config
        while len(self._tenants) > 1:
            over_count = len(self._tenants) > config.max_tenants
            over_bytes = (
                config.memory_budget_bytes > 0
                and self.memory_bytes() > config.memory_budget_bytes
            )
            if not over_count and not over_bytes:
                break
            victim = next(iter(self._tenants))
            if victim == protect:
                # The newest tenant alone busts the budget; nothing
                # sane to evict.
                break
            self._evict(victim, reason="budget")

    def sweep_idle(self) -> int:
        """Evict tenants idle longer than ``idle_seconds``; returns count."""
        if self.config.idle_seconds <= 0:
            return 0
        cutoff = self.clock() - self.config.idle_seconds
        with self._lock:
            victims = [
                name
                for name, state in self._tenants.items()
                if state.last_active < cutoff
            ]
            for name in victims:
                self._evict(name, reason="idle")
        return len(victims)

    def evict(self, tenant: str, reason: str = "manual") -> bool:
        """Evict one tenant (drain + checkpoint + drop); False if absent."""
        with self._lock:
            if tenant not in self._tenants:
                return False
            self._evict(tenant, reason=reason)
            return True

    def _evict(self, tenant: str, reason: str) -> None:
        state = self._tenants.pop(tenant)
        with state.lock:
            # Nothing queued may be lost to an eviction: drain first,
            # then persist, so the checkpoint carries every accepted
            # packet and the next ingest resumes byte-exactly.
            state.daemon.drain()
            if state.daemon.checkpoints is not None:
                state.daemon.checkpoint()
        self.evicted += 1
        self.telemetry.count("service_tenants_evicted_total", reason=reason)
        self._export_gauges()

    # -- lifecycle -----------------------------------------------------------

    def restore_on_start(self) -> List[str]:
        """Eagerly restore every checkpointed tenant found on disk."""
        if self.config.checkpoint_dir is None or not os.path.isdir(
            self.config.checkpoint_dir
        ):
            return []
        names = []
        for entry in sorted(os.listdir(self.config.checkpoint_dir)):
            tenant = tenant_from_subdir(entry)
            if tenant is None:
                continue
            state = self.get_or_create(tenant)
            if state.restored:
                names.append(tenant)
        return names

    def checkpoint_all(self) -> int:
        """Drain + checkpoint every resident tenant (shutdown path)."""
        if self.config.checkpoint_dir is None:
            return 0
        written = 0
        with self._lock:
            states = list(self._tenants.values())
        for state in states:
            with state.lock:
                state.daemon.drain()
                state.daemon.checkpoint()
                written += 1
        return written

    def drain_all(self, max_batches_per_tenant: Optional[int] = None) -> int:
        """Drain every resident tenant's queue; returns batches drained."""
        with self._lock:
            states = list(self._tenants.values())
        drained = 0
        for state in states:
            with state.lock:
                drained += state.daemon.drain(max_batches_per_tenant)
        return drained

    # -- introspection -------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._tenants)

    def __contains__(self, tenant: str) -> bool:
        with self._lock:
            return tenant in self._tenants

    def tenants(self) -> List[str]:
        """Resident tenant ids, least-recently-used first."""
        with self._lock:
            return list(self._tenants)

    def states(self) -> List[TenantState]:
        with self._lock:
            return list(self._tenants.values())

    def stats(self) -> Dict[str, object]:
        with self._lock:
            return {
                "tenants": len(self._tenants),
                "created": self.created,
                "evicted": self.evicted,
                "restored": self.restored,
                "memory_bytes": self.memory_bytes(),
                "max_tenants": self.config.max_tenants,
                "memory_budget_bytes": self.config.memory_budget_bytes,
            }

    def _export_gauges(self) -> None:
        self.telemetry.gauge("service_tenants_active", len(self._tenants))
        self.telemetry.gauge("service_memory_bytes", self.memory_bytes())
