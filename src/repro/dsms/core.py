"""The engine core shared by every DKF facade.

:class:`StreamFacade` holds the query lifecycle, ``answer`` and the
``run`` / ``settle`` loops of the scalar, batch and federated engines;
:class:`EngineCore` adds the single-server engines' resilience guards,
answers, durability path and reports.  Engines supply only per-row
state through small hooks; the core never asks which engine it serves.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import NamedTuple

from repro.dsms.energy import EnergyModel, EnergyReport
from repro.dsms.query import ContinuousQuery, QueryAnswer
from repro.dsms.registry import SourceRegistry
from repro.errors import ConfigurationError, UnknownSourceError
from repro.obs.exporters import build_snapshot
from repro.obs.telemetry import NULL_TELEMETRY
from repro.resilience.checkpoint import CheckpointStore, build_checkpoint
from repro.resilience.config import ResilienceConfig
from repro.resilience.supervisor import StreamSupervisor
from repro.resilience.watchdog import DivergenceWatchdog

__all__ = ["EngineCore", "EngineReport", "LedgerRow", "StreamFacade"]


@dataclass(frozen=True)
class EngineReport:
    """System-wide summary after (part of) a run.

    Attributes:
        ticks: Sampling instants processed.
        readings: Total sensor readings across sources.
        updates_sent: Update messages offered on the wire over each
            source's whole lifetime (counted at the fabric, so the
            figure survives source restarts that wipe per-source
            counters).  Disjoint from ``retransmits`` and
            ``heartbeats``, so the traffic conservation law holds:
            ``updates_sent + retransmits + heartbeats == delivered +
            messages_lost + corrupted + in_flight``.
        bytes_delivered: Total bytes that crossed the network.
        messages_lost: Data messages dropped by the loss model.
            Disjoint from ``corrupted``.
        in_flight: Messages still queued on latent links (both
            directions) when the report was cut.
        retransmits: Resync snapshots offered on the wire -- ack-timeout
            and server-requested retransmissions plus post-restart
            re-priming.
        heartbeats: Liveness beacons offered by sources.
        corrupted: Messages rejected by the receiver-side CRC check.
        acks_delivered: Server-to-source acknowledgements delivered.
        per_source_energy: Energy report per source id.
    """

    ticks: int
    readings: int
    updates_sent: int
    bytes_delivered: int
    messages_lost: int
    in_flight: int
    retransmits: int
    heartbeats: int
    corrupted: int
    acks_delivered: int
    per_source_energy: dict[str, EnergyReport]

    @property
    def total_energy_joules(self) -> float:
        """System-wide sensor energy across all sources."""
        return sum(r.total_joules for r in self.per_source_energy.values())

    def to_dict(self) -> dict:
        """JSON-serialisable form (nested ``EnergyReport``s included).

        Round-trips exactly through :meth:`from_dict`; the snapshot
        exporter embeds this under its ``meta`` when a run report rides
        along with the telemetry.
        """
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "EngineReport":
        """Rebuild a report from :meth:`to_dict` output."""
        try:
            energy = {
                source_id: EnergyReport(**fields)
                for source_id, fields in data["per_source_energy"].items()
            }
            return cls(**{**data, "per_source_energy": energy})
        except (KeyError, TypeError) as exc:
            raise ConfigurationError(
                f"malformed EngineReport dict: {exc}"
            ) from None


class LedgerRow(NamedTuple):
    """One source's lifetime traffic (``offered`` includes resyncs and
    heartbeats) and filter-work counters."""

    samples: int
    smoothing_steps: int
    state_dim: int
    measurement_dim: int
    offered: int
    resyncs: int
    heartbeats: int
    bytes_delivered: int
    lost: int
    corrupted: int
    acks_delivered: int
    in_flight: int


def pick_answer(query_id: str, answers: list[QueryAnswer]) -> QueryAnswer:
    """The answer for ``query_id`` among ``answers`` (raises if absent)."""
    for candidate in answers:
        if candidate.query_id == query_id:
            return candidate
    raise UnknownSourceError(f"no answer available for query {query_id!r}")


class StreamFacade:
    """Query lifecycle and run loop shared by every DKF facade.

    Subclasses provide ``step()``, ``_row_config`` (the installed DKF
    config or None), ``_install`` / ``_retire``, ``_drained()`` (every
    stream exhausted), ``_quiet()`` (nothing in flight or unacked) and
    optionally ``_flush_in_flight()``.
    """

    #: Span the run loop records under.
    _run_span = "engine.run"

    def __init__(self, telemetry=None) -> None:
        self.registry = SourceRegistry()
        self._tel = telemetry or NULL_TELEMETRY
        self._ticks = 0
        self._faults = None

    @property
    def ticks(self) -> int:
        """Sampling instants processed so far."""
        return self._ticks

    @property
    def faults(self):
        """The injected fault schedule, if any."""
        return self._faults

    @property
    def telemetry(self):
        """The telemetry handle (the no-op singleton when unobserved)."""
        return self._tel

    def submit_query(self, query: ContinuousQuery) -> None:
        """Activate a continuous query, (re)installing the source's DKF.

        The first query on a source installs its DKF pair; later queries
        reinstall only when they tighten the effective δ or F (a reinstall
        resets the filters, costing one priming update -- the trade the
        paper's protocol makes for simplicity).
        """
        config = self.registry.add_query(query).build_config()
        if self._row_config(query.source_id) != config:
            self._install(query.source_id, config)

    def retire_query(self, query_id: str) -> None:
        """Deactivate a query; tear down the DKF when none remain."""
        descriptor = self.registry.remove_query(query_id)
        source_id = descriptor.source_id
        installed = self._row_config(source_id)
        if descriptor.queries:
            config = descriptor.build_config()
            if installed != config:
                self._install(source_id, config)
        elif installed is not None:
            self._retire(source_id)

    def answer(self, query_id: str) -> QueryAnswer:
        """The current answer for one query."""
        return pick_answer(query_id, self.answers())

    def run(self, max_ticks: int | None = None) -> int:
        """Step until every stream is exhausted (or ``max_ticks``).

        With no installed stream the run returns at once.  When every
        stream drained, in-flight messages are flushed so nothing is
        silently stranded; a ``max_ticks`` cut leaves the transport
        untouched so the run can be resumed.

        Returns the number of ticks executed.
        """
        executed = 0
        with self._tel.timers.span(self._run_span):
            while max_ticks is None or executed < max_ticks:
                if self._drained():
                    break
                if self.step() == 0 and self._drained():
                    break
                executed += 1
            if self._drained():
                self._flush_in_flight()
        return executed

    def settle(self, max_ticks: int = 256) -> int:
        """Tick the transport until it quiesces (post-run grace period).

        Keeps stepping (consuming no new readings once streams are
        exhausted) until no message is in flight and no source is waiting
        on an ack, or ``max_ticks`` elapse.  Use after :meth:`run` when a
        test or deployment needs every retransmission resolved rather
        than merely flushed.

        Returns the number of grace ticks executed.
        """
        executed = 0
        while executed < max_ticks and not self._quiet():
            self.step()
            executed += 1
        return executed

    def _flush_in_flight(self) -> None:
        return None


class EngineCore(StreamFacade):
    """The single-server engines' shared core, over per-row hooks.

    Owns the resilience guards, ``answers``, checkpoint / crash /
    recover with WAL replay, and the reports.  Row hooks, keyed by
    source id: ``_install_row``, ``_retire_row``, ``_row_ids()``,
    ``_answer_view`` (``(k, value, precision, staleness, confidence,
    suspect)`` of a primed row, else None), ``_export_row``,
    ``_import_row`` (False when not held), ``_last_k``, ``_tick_row``,
    ``_replay_record`` (apply one WAL record), ``_row_lag`` (instants
    the restored filter trails its mirror), ``_resync_if_behind`` and
    ``_ledger_row``.  Server hooks: ``_server_clock()``,
    ``_lose_inbox()``, ``_restart_server()`` (fresh rows, drop counts
    zeroed), ``_finish_recovery()``,
    ``_dropped_while_down()``, ``_guard_reports()`` and
    ``_snapshot_meta()``.
    """

    def __init__(
        self,
        energy_model: EnergyModel | None,
        telemetry,
        resilience: ResilienceConfig | None,
    ) -> None:
        super().__init__(telemetry)
        self._resilience = resilience
        if resilience is not None:
            resilience.validate()
        self._track_health = (
            resilience is not None and resilience.watchdog is not None
        )
        self._energy = energy_model or EnergyModel()
        self._server_down = False
        self._recoveries = 0
        self._ckpt: CheckpointStore | None = None
        self._watchdog: DivergenceWatchdog | None = None
        self._supervisor: StreamSupervisor | None = None
        self._autoscaler = None
        if resilience is not None:
            if resilience.checkpoint_dir is not None:
                self._ckpt = CheckpointStore(resilience.checkpoint_dir)
            if resilience.watchdog is not None:
                self._watchdog = DivergenceWatchdog(
                    resilience.watchdog, telemetry=self._tel
                )
            if resilience.restart is not None:
                self._supervisor = StreamSupervisor(
                    resilience.restart, telemetry=self._tel
                )

    @property
    def resilience(self) -> ResilienceConfig | None:
        """The installed resilience configuration, if any."""
        return self._resilience

    @property
    def server_down(self) -> bool:
        """Whether :meth:`crash_server` killed the server process."""
        return self._server_down

    @property
    def checkpoint_store(self) -> CheckpointStore | None:
        """The durable checkpoint + WAL pair (None when disabled)."""
        return self._ckpt

    @property
    def watchdog(self) -> DivergenceWatchdog | None:
        """The divergence watchdog (None when disabled)."""
        return self._watchdog

    @property
    def supervisor(self) -> StreamSupervisor | None:
        """The restart supervisor (None when disabled)."""
        return self._supervisor

    @property
    def autoscaler(self):
        """The predictive autoscaler (None when disabled)."""
        return self._autoscaler

    def _install(self, source_id: str, config) -> None:
        self._install_row(source_id, config)
        if self._watchdog is not None:
            self._watchdog.register(source_id)

    def _retire(self, source_id: str) -> None:
        self._retire_row(source_id)
        if self._watchdog is not None:
            self._watchdog.deregister(source_id)

    def _lose_inbox(self) -> int:
        return 0

    def _guard_reports(self) -> dict[str, object]:
        return {}

    def _snapshot_meta(self) -> dict:
        return {}

    def _wal_append(self, record: dict) -> None:
        """Log one applied update/resync to the WAL."""
        self._ckpt.wal_append(record)
        if self._tel.enabled:
            self._tel.count("wal_records_total", record["source_id"])

    def _maybe_checkpoint(self) -> None:
        """Write a periodic snapshot when the cadence says so."""
        if (
            self._resilience is None
            or not self._resilience.checkpoint_every
            or self._ckpt is None
            or self._server_down
        ):
            return
        if self._ticks % self._resilience.checkpoint_every == 0:
            self.checkpoint()

    # Answers ---------------------------------------------------------------

    def answers(self) -> list[QueryAnswer]:
        """Current answers for every active query.

        Each answer carries the liveness verdict for its source:
        ``staleness_ticks`` since the server last heard anything,
        ``confidence`` derived from the coasting filter's inflated
        covariance, and ``degraded=True`` once the silence exceeded the
        source's suspect deadline -- the honest "possibly dead" signal the
        plain value cannot convey.  While the server process is down,
        clients read the cached last-known answers, always degraded.
        ``precision`` is the effective δ, widened by any overload
        shedding.
        """
        tel = self._tel
        watchdog = self._watchdog
        out = []
        for query in self.registry.active_queries:
            source_id = query.source_id
            view = self._answer_view(source_id)
            if view is None:
                continue
            k, value, precision, staleness, confidence, suspect = view
            if tel.enabled:
                tel.observe(
                    "staleness_at_answer_ticks",
                    staleness,
                    source_id=source_id,
                )
            out.append(
                QueryAnswer(
                    query_id=query.query_id,
                    source_id=source_id,
                    k=k,
                    value=value,
                    precision=precision,
                    staleness_ticks=staleness,
                    confidence=confidence,
                    degraded=suspect or self._server_down,
                    quarantined=(
                        watchdog is not None
                        and watchdog.is_quarantined(source_id)
                    ),
                )
            )
        return out

    # Crash recovery --------------------------------------------------------

    def checkpoint(self) -> int:
        """Snapshot the full server filter bank to durable storage.

        Writes one atomic ``repro.ckpt-v1`` snapshot (per-source state
        vector, covariance, clock and sequence expectations) and
        truncates the WAL it supersedes.  Returns the framed size in
        bytes.  Either engine can recover from the other's snapshot.

        Raises:
            ConfigurationError: When no checkpoint directory is
                configured or the server is down.
        """
        if self._ckpt is None:
            raise ConfigurationError(
                "checkpointing requires a ResilienceConfig with a "
                "checkpoint_dir"
            )
        if self._server_down:
            raise ConfigurationError("cannot checkpoint a dead server")
        snapshot = build_checkpoint(
            self._ticks,
            self._server_clock(),
            {sid: self._export_row(sid) for sid in self._row_ids()},
            meta={"recoveries": self._recoveries},
        )
        size = self._ckpt.save(snapshot)
        if self._tel.enabled:
            self._tel.emit(
                "checkpoint.write",
                bytes=size,
                sources=len(snapshot["sources"]),
            )
            self._tel.count("checkpoint_writes_total")
            self._tel.gauge("checkpoint_bytes", size)
        return size

    def crash_server(self) -> int:
        """Kill the central server process mid-run.

        Every in-memory filter dies with it; only the checkpoint and WAL
        survive.  Until :meth:`recover`, deliveries are dropped on the
        floor (counted delivered -- that is what happens to packets that
        reach a dead host), sources keep sampling and their un-acked
        messages age toward retransmission, and :meth:`answers` serves
        the cached last-known values flagged ``degraded``.  Returns the
        number of queued inbox messages lost.

        Raises:
            ConfigurationError: When resilience is not enabled (without
                it there is no recovery path, so a crash would just be a
                broken simulation).
        """
        if self._resilience is None:
            raise ConfigurationError(
                "crash_server requires a ResilienceConfig"
            )
        if self._server_down:
            return 0
        self._server_down = True
        lost = self._lose_inbox()
        if self._tel.enabled:
            self._tel.emit("server.crash", inbox_lost=lost)
            self._tel.count("server_crashes_total")
        return lost

    def recover(self) -> dict[str, int]:
        """Rebuild the server from the last checkpoint plus WAL replay.

        The recovery handshake:

        1. a fresh server registers every installed source (configs live
           in the engine, not the dead process);
        2. the checkpoint restores each source's ``(x, P, k)``, counters
           and sequence expectations;
        3. the WAL tail replays every update/resync applied since the
           snapshot, interleaving the prediction steps the original run
           performed (the filter arithmetic is deterministic, so replay
           reconstructs the exact pre-crash estimates);
        4. each filter rolls forward to the present (it predicted
           nothing while dead, its mirror predicted every tick);
        5. sources whose sequence numbers advanced past what the
           restored server expects are asked for a resync snapshot --
           the same message that heals a lossy link heals a reborn
           server.

        Returns a summary dict (``restored_sources``, ``wal_replayed``,
        ``resync_requests``, ``dropped_while_down``).
        """
        if self._resilience is None:
            raise ConfigurationError("recover requires a ResilienceConfig")
        dropped = self._dropped_while_down()
        self._restart_server()
        self._server_down = False
        snapshot = self._ckpt.load() if self._ckpt is not None else None
        restored = 0
        if snapshot is not None:
            for source_id, data in snapshot["sources"].items():
                restored += self._import_row(source_id, data)
        replayed = self._replay_wal() if self._ckpt is not None else 0
        # Roll each restored filter forward to the present: the mirror
        # predicted once per sampled instant while the server was dead.
        for source_id in self._row_ids():
            behind = self._row_lag(source_id)
            last_k = self._last_k(source_id)
            for i in range(max(0, behind)):
                self._tick_row(source_id, last_k + i + 1)
        self._finish_recovery()
        resyncs = sum(
            self._resync_if_behind(source_id) for source_id in self._row_ids()
        )
        self._recoveries += 1
        if self._tel.enabled:
            self._tel.emit(
                "recovery.replay",
                restored_sources=restored,
                wal_replayed=replayed,
                resync_requests=resyncs,
                dropped_while_down=dropped,
            )
            self._tel.count("recoveries_total")
        return {
            "restored_sources": restored,
            "wal_replayed": replayed,
            "resync_requests": resyncs,
            "dropped_while_down": dropped,
        }

    def _replay_wal(self) -> int:
        """Apply the WAL tail to a freshly restored server."""
        count = 0
        held = set(self._row_ids())
        for record in self._ckpt.wal_records():
            source_id = record.get("source_id")
            if source_id not in held:
                continue
            # Interleave the prediction steps the original run performed
            # between the previous applied message and this one (one per
            # sampled instant).
            for t in range(self._last_k(source_id) + 1, int(record["k"]) + 1):
                self._tick_row(source_id, t)
            self._replay_record(source_id, record)
            count += 1
        return count

    # Reports ---------------------------------------------------------------

    def resilience_report(self) -> dict[str, object]:
        """Summary of every resilience guard's activity this run."""
        report: dict[str, object] = {
            "enabled": self._resilience is not None,
            "recoveries": self._recoveries,
            "server_down": self._server_down,
            "dropped_while_down": self._dropped_while_down(),
        }
        if self._watchdog is not None:
            report["watchdog"] = self._watchdog.report()
        if self._supervisor is not None:
            report["supervisor"] = self._supervisor.report()
        report.update(self._guard_reports())
        return report

    def report(self) -> EngineReport:
        """System-wide traffic and energy summary, summed over the
        sources' link ledgers (which outlive source restarts)."""
        per_source_energy = {}
        totals = [0] * len(LedgerRow._fields)
        for source_id in self._row_ids():
            row = self._ledger_row(source_id)
            per_source_energy[source_id] = self._energy.report(
                bytes_sent=row.bytes_delivered,
                filter_steps=row.samples,
                state_dim=row.state_dim,
                measurement_dim=row.measurement_dim,
                smoothing_steps=row.smoothing_steps,
            )
            totals = [a + b for a, b in zip(totals, row)]
        total = LedgerRow(*totals)
        return EngineReport(
            ticks=self._ticks,
            readings=total.samples,
            updates_sent=total.offered - total.resyncs - total.heartbeats,
            bytes_delivered=total.bytes_delivered,
            messages_lost=total.lost,
            in_flight=total.in_flight,
            retransmits=total.resyncs,
            heartbeats=total.heartbeats,
            corrupted=total.corrupted,
            acks_delivered=total.acks_delivered,
            per_source_energy=per_source_energy,
        )

    def obs_snapshot(self, meta: dict | None = None) -> dict:
        """Telemetry snapshot of this run (``repro.obs/v2`` schema).

        Merges the engine's traffic report into ``meta`` so a snapshot is
        self-describing even when telemetry was disabled (counters empty).
        Building the snapshot flushes the final tick into the metric
        history, so the exported series cover the whole run.
        """
        merged = {
            "ticks": self._ticks,
            "report": self.report().to_dict(),
            **self._snapshot_meta(),
        }
        if self._resilience is not None:
            merged["resilience"] = self.resilience_report()
        if meta:
            merged.update(meta)
        return build_snapshot(self._tel, meta=merged)
