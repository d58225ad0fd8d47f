"""The REST query plane, mounted on the telemetry HTTP server.

Endpoints (all JSON, all read-only):

``GET /tenants``
    Tenant table: per-tenant stats plus the manager's budget counters.
``GET /tenants/<id>/stats``
    One tenant's ingest/queue/memory accounting.
``GET /tenants/<id>/heavy_hitters?share=0.01`` (or ``threshold=<abs>``)
    Flows above a share of the tenant's traffic (windowed traffic when
    the tenant measures over a sliding window).
``GET /tenants/<id>/point?key=1,2,3``
    Point frequency estimates for one or more flow keys.
``GET /tenants/<id>/entropy``
    Flow-size entropy estimate over the tracked heavy keys.
``GET /tenants/<id>/change``
    The anomaly detectors' latest epoch signals (change score, entropy
    drop, heavy-hitter churn) -- present once one detector epoch closed.
``GET /tenants/<id>/reports``
    The control-plane task catalogue evaluated online against the live
    sketch (:meth:`~repro.control.plane.ControlPlane.evaluate_online_epoch`).

When the tenant is audited (``ServiceConfig.audit``), every estimate
endpoint embeds the live Theorem-bound verdict of its
:class:`~repro.telemetry.audit.GuaranteeMonitor` under ``"audit"``, so a
caller can see not just the answer but whether the sketch currently
*proves* its error envelope.

Queries never create tenants (an estimate for a tenant that never
ingested is meaningless -- 404) and answer evicted ones from a detached
view restored from their newest checkpoint, without making them
resident (:meth:`~repro.service.tenants.TenantManager.get`).  Every
handler runs under the tenant's lock, so answers are consistent with
concurrent drain; the ``service`` selfcheck suite verifies
query-during-ingest answers stay inside the Theorem-2 envelope.
"""

from __future__ import annotations

import json
import time
from typing import Dict, List, Optional, Tuple
from urllib.parse import parse_qs

Reply = Tuple[int, str, str]

_JSON = "application/json"


def _json_reply(status: int, payload: Dict) -> Reply:
    return status, _JSON, json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _error(status: int, message: str) -> Reply:
    return _json_reply(status, {"error": message})


class QueryRoutes:
    """Routes ``/tenants...`` paths for a :class:`MonitoringService`."""

    def __init__(self, service) -> None:
        self.service = service

    # -- plumbing ------------------------------------------------------------

    def dispatch(self, path: str, query: str) -> Optional[Reply]:
        """The ``TelemetryServer`` routes hook: None = not ours (404)."""
        if path == "/tenants":
            return self._timed("tenants", lambda p: self._list_tenants(), {})
        if not path.startswith("/tenants/"):
            return None
        parts = [part for part in path.split("/") if part]
        if len(parts) != 3:
            return _error(404, "expected /tenants/<id>/<endpoint>")
        _, tenant, endpoint = parts
        handler = {
            "stats": self._stats,
            "heavy_hitters": self._heavy_hitters,
            "point": self._point,
            "entropy": self._entropy,
            "change": self._change,
            "reports": self._reports,
        }.get(endpoint)
        if handler is None:
            return _error(404, "unknown endpoint %r" % endpoint)
        params = parse_qs(query, keep_blank_values=True)
        state = self.service.tenants.get(tenant)
        if state is None:
            return _error(404, "unknown tenant %r" % tenant)
        return self._timed(endpoint, lambda p: handler(state, p), params)

    def _timed(self, endpoint: str, handler, params) -> Reply:
        telemetry = self.service.telemetry
        telemetry.count("service_queries_total", endpoint=endpoint)
        start = time.perf_counter()
        try:
            return handler(params)
        except ValueError as exc:
            return _error(400, str(exc))
        finally:
            telemetry.observe(
                "service_query_seconds", time.perf_counter() - start, endpoint=endpoint
            )

    @staticmethod
    def _param(params: Dict, name: str) -> Optional[str]:
        values = params.get(name)
        return values[-1] if values else None

    # -- shared query context ------------------------------------------------

    @staticmethod
    def _traffic_packets(state) -> int:
        """The packet mass estimates are relative to: the sliding
        window's coverage for windowed tenants, lifetime ingest else."""
        daemon = state.daemon
        if daemon.windowed:
            return daemon.monitor.window_packets()
        return daemon.packets_offered

    @staticmethod
    def _audit_section(state) -> Optional[Dict]:
        if state.guarantee is None:
            return None
        report = state.guarantee.check()
        return report.as_dict()

    def _answer(self, state, payload: Dict) -> Reply:
        payload["tenant"] = state.name
        payload["windowed"] = state.daemon.windowed
        audit = self._audit_section(state)
        if audit is not None:
            payload["audit"] = audit
        return _json_reply(200, payload)

    # -- endpoints -----------------------------------------------------------

    def _list_tenants(self) -> Reply:
        manager = self.service.tenants
        tenants = []
        for state in manager.states():
            with state.lock:
                tenants.append(state.stats())
        payload = manager.stats()
        payload["tenant_stats"] = tenants
        return _json_reply(200, payload)

    def _stats(self, state, params) -> Reply:
        with state.lock:
            return self._answer(state, dict(state.stats()))

    def _heavy_hitters(self, state, params) -> Reply:
        share_arg = self._param(params, "share")
        threshold_arg = self._param(params, "threshold")
        with state.lock:
            packets = self._traffic_packets(state)
            if threshold_arg is not None:
                threshold = float(threshold_arg)
                share = threshold / packets if packets else 0.0
            else:
                share = float(share_arg) if share_arg is not None else 0.01
                if not 0 < share < 1:
                    raise ValueError("share must be in (0, 1)")
                threshold = share * packets
            hitters = state.daemon.monitor.heavy_hitters(threshold)
            return self._answer(
                state,
                {
                    "threshold": threshold,
                    "share": share,
                    "packets": packets,
                    "heavy_hitters": [
                        {"key": int(key), "estimate": float(est)}
                        for key, est in hitters
                    ],
                },
            )

    def _point(self, state, params) -> Reply:
        raw = self._param(params, "key")
        if raw is None:
            raise ValueError("missing ?key=<flow key>[,<flow key>...]")
        try:
            keys = [int(item) for item in raw.split(",") if item]
        except ValueError:
            raise ValueError("keys must be integers, got %r" % raw)
        if not keys:
            raise ValueError("missing ?key=<flow key>[,<flow key>...]")
        if len(keys) > 1024:
            raise ValueError("at most 1024 keys per query")
        with state.lock:
            monitor = state.daemon.monitor
            estimates = [
                {"key": key, "estimate": float(monitor.query(key))} for key in keys
            ]
            return self._answer(
                state,
                {"packets": self._traffic_packets(state), "estimates": estimates},
            )

    def _entropy(self, state, params) -> Reply:
        from repro.telemetry.anomaly import entropy_from_estimates

        with state.lock:
            monitor = state.daemon.monitor
            packets = self._traffic_packets(state)
            if hasattr(monitor, "top_items"):
                estimates = {key: est for key, est in monitor.top_items() if est > 0}
            else:
                estimates = dict(monitor.heavy_hitters(0.0))
            bits = entropy_from_estimates(estimates, packets)
            return self._answer(
                state,
                {
                    "entropy_bits": bits,
                    "packets": packets,
                    "tracked_flows": len(estimates),
                },
            )

    def _change(self, state, params) -> Reply:
        with state.lock:
            signals = getattr(state.anomaly, "last_signals", None)
            if signals is None:
                return self._answer(
                    state,
                    {
                        "signals": None,
                        "detail": "no completed detector epoch yet "
                        "(epoch_batches=%d)" % self.service.config.epoch_batches,
                    },
                )
            return self._answer(
                state,
                {
                    "signals": dict(signals),
                    "epochs_completed": state.daemon.epochs_completed,
                },
            )

    def _reports(self, state, params) -> Reply:
        from repro.control.plane import ControlPlane
        from repro.control.tasks import HeavyHitterTask

        share_arg = self._param(params, "share")
        share = float(share_arg) if share_arg is not None else 0.01
        if not 0 < share < 1:
            raise ValueError("share must be in (0, 1)")
        plane = ControlPlane(
            monitor_factory=lambda epoch: state.daemon.monitor,
            tasks=[HeavyHitterTask(threshold_fraction=share)],
            score=False,
            telemetry=self.service.telemetry,
        )
        with state.lock:
            packets = self._traffic_packets(state)
            report = plane.evaluate_online_epoch(
                state.daemon.monitor, state.daemon.epochs_completed, packets
            )
            tasks: List[Dict] = []
            for name, task_report in report.reports.items():
                tasks.append(
                    {
                        "task": name,
                        "estimate": task_report.estimate,
                        "detected": {
                            str(key): float(est)
                            for key, est in task_report.detected.items()
                        },
                    }
                )
            return self._answer(
                state, {"epoch": report.epoch, "packets": packets, "tasks": tasks}
            )
