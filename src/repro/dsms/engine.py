"""Multi-source, multi-query DSMS engine (the "end-to-end system" of the
paper's future-work list, item 1).

The engine wires together every substrate in the library:

* a :class:`~repro.dsms.registry.SourceRegistry` mapping queries to
  sources and deriving each source's effective δ and F;
* one :class:`~repro.dkf.source.DKFSource` per registered source (the
  sensor side) and a single shared :class:`~repro.dkf.server.DKFServer`
  running in tolerant, ack-emitting mode;
* a :class:`~repro.dsms.network.NetworkFabric` carrying updates *and*
  acks, with per-direction latency/loss/corruption;
* an :class:`~repro.dsms.energy.EnergyModel` for per-node joule totals;
* optionally a :class:`~repro.dsms.faults.FaultSchedule` injecting source
  crashes, sensor faults, burst loss and payload corruption.

Loss recovery is *asymmetric-information realistic*: the engine never
peeks at the link's verdict.  A source only learns an update died when its
ack timeout expires, at which point it retransmits a full resync snapshot
over the same lossy, latent link, backing off exponentially until an ack
lands.  The server, for its part, detects sequence gaps and asks for a
resync through the ack channel instead of raising into the delivery loop.

Each call to :meth:`StreamEngine.step` advances every source by one
sampling instant; :meth:`StreamEngine.answers` returns the current answer
for every active query, annotated with staleness, confidence and a
``degraded`` flag once a source has been silent past its liveness
deadline.
"""

from __future__ import annotations

import numpy as np

from repro.autoscale.config import AutoscalePolicy
from repro.autoscale.controller import InboxAutoscaler
from repro.dkf.config import TransportPolicy
from repro.dkf.protocol import ResyncMessage, UpdateMessage, instrument_codec
from repro.dkf.server import DKFServer
from repro.dkf.source import DKFSource
from repro.dsms.core import EngineCore, EngineReport, LedgerRow
from repro.dsms.energy import EnergyModel
from repro.dsms.faults import FaultSchedule
from repro.dsms.network import LinkConfig, NetworkFabric
from repro.dsms.sources import SourceSide, answer_view
from repro.errors import ConfigurationError
from repro.filters.models import StateSpaceModel
from repro.resilience.checkpoint import wal_record
from repro.resilience.config import ResilienceConfig
from repro.resilience.supervisor import BoundedInbox, OverloadController
from repro.streams.base import MaterializedStream

__all__ = ["StreamEngine", "EngineReport", "SERVER_NODE"]

#: Node id of the central server in partition fault schedules: a
#: :meth:`FaultSchedule.partition` side containing this name cuts the
#: named sources off from the server (data *and* ack directions).
SERVER_NODE = "server"


class StreamEngine(EngineCore):
    """Drive many DKF pairs over their streams under one server.

    Args:
        energy_model: Energy accounting model (defaults shared by all
            sources).
        telemetry: Optional :class:`~repro.obs.telemetry.Telemetry`
            threaded through every component (fabric, sources, server,
            fault schedule, filter hot paths).  The default
            :class:`~repro.obs.telemetry.NullTelemetry` keeps a seeded
            run byte-identical to an unobserved one.
        resilience: Optional
            :class:`~repro.resilience.config.ResilienceConfig` enabling
            checkpoint/WAL durability, the divergence watchdog, restart
            supervision and overload shedding.  When None (the default)
            the engine runs the exact pre-resilience delivery path --
            messages go straight from the fabric into the server -- so a
            seeded run stays byte-identical to one built before this
            subsystem existed.
        autoscale: Optional
            :class:`~repro.autoscale.config.AutoscalePolicy` arming the
            predictive control loop: a Kalman forecast of the inbox
            arrival rate hands δ-widening schedules to the overload
            controller *before* the watermark is crossed.  Requires an
            overload policy (the actuator and shed ledger).
    """

    def __init__(
        self,
        energy_model: EnergyModel | None = None,
        telemetry=None,
        resilience: ResilienceConfig | None = None,
        autoscale: AutoscalePolicy | None = None,
    ) -> None:
        super().__init__(energy_model, telemetry, resilience)
        self._server = self._new_server()
        self._side = SourceSide(
            # The resilient deliver path must survive the server object
            # being replaced on recovery, so it routes through a wrapper
            # instead of binding the server's method directly.
            deliver=(
                self._server.receive if resilience is None else self._deliver
            ),
            advance=self._advance,
            telemetry=self._tel,
            supervisor=self._supervisor,
            watchdog=self._watchdog,
        )
        if self._tel.enabled:
            # The codec is module-level, so its timers are too; the most
            # recently built observed engine wins the hook.
            instrument_codec(self._tel.timers)
        self._priorities: dict[str, int] = {}
        self._dropped = 0
        self._overload: OverloadController | None = None
        self._inbox: BoundedInbox | None = None
        if resilience is not None and resilience.overload is not None:
            self._overload = OverloadController(
                resilience.overload, telemetry=self._tel
            )
            self._inbox = BoundedInbox(resilience.overload.inbox_capacity)
        if autoscale is not None:
            autoscale.validate()
            if self._overload is None:
                raise ConfigurationError(
                    "predictive autoscaling widens delta through the "
                    "overload controller; pass a ResilienceConfig with an "
                    "overload policy alongside the autoscale policy"
                )
            self._autoscaler = InboxAutoscaler(
                autoscale, self._overload, telemetry=self._tel
            )

    def _new_server(self) -> DKFServer:
        return DKFServer(
            strict=False,
            emit_acks=True,
            telemetry=self._tel,
            track_health=self._track_health,
        )

    @property
    def server(self) -> DKFServer:
        """The shared central server (live object)."""
        return self._server

    @property
    def fabric(self) -> NetworkFabric:
        """The simulated network fabric (live object)."""
        return self._side.fabric

    @property
    def sources(self) -> dict[str, DKFSource]:
        """The installed source-side DKF endpoints (live objects)."""
        return dict(self._side.sources)

    @property
    def overload(self) -> OverloadController | None:
        """The overload controller (None when disabled)."""
        return self._overload

    @property
    def inbox(self) -> BoundedInbox | None:
        """The bounded server inbox (None when overload is disabled)."""
        return self._inbox

    # Resilient delivery path ---------------------------------------------

    def _deliver(self, message):
        """Fabric deliver callback when resilience is enabled.

        While the server is down every delivery is dropped on the floor
        (the fabric already counted it delivered, which is what a dead
        process does to packets that reach its host).  With an overload
        policy the message lands in the bounded inbox and is processed at
        the drain rate; otherwise it is applied synchronously.
        """
        if self._server_down:
            self._dropped += 1
            return None
        if self._inbox is not None:
            if not self._inbox.offer(message):
                self._overload.charge_drop(message.source_id)
                if self._tel.enabled:
                    self._tel.emit(
                        "shed.drop",
                        source_id=message.source_id,
                        depth=self._inbox.depth,
                    )
                    self._tel.count("inbox_dropped_total", message.source_id)
            return None
        return self._apply_message(message)

    def _apply_message(self, message):
        """Hand one message to the server, WAL-logging what it applies."""
        server = self._server
        if (
            self._ckpt is None
            or not isinstance(message, (UpdateMessage, ResyncMessage))
            or message.source_id not in self._side.sources
        ):
            return server.receive(message)
        source_id = message.source_id
        before = server.stats(source_id)
        result = server.receive(message)
        after = server.stats(source_id)
        applied = (
            after["updates_received"] > before["updates_received"]
            or after["resyncs_received"] > before["resyncs_received"]
        )
        if applied:
            resync = isinstance(message, ResyncMessage)
            self._wal_append(
                wal_record(
                    source_id,
                    message.seq,
                    message.k,
                    message.value,
                    x=message.x if resync else None,
                    p=message.p if resync else None,
                )
            )
        return result

    # Setup ----------------------------------------------------------------

    def add_source(
        self,
        source_id: str,
        model: StateSpaceModel,
        stream: MaterializedStream,
        link: LinkConfig | None = None,
        default_smoothing_r: float = 1.0,
        transport: TransportPolicy | None = None,
        priority: int = 0,
    ) -> None:
        """Register a source, its model, its data stream and its link.

        ``priority`` only matters under an overload policy: when the
        server inbox backs up, the shedding controller widens the δ of
        the *lowest*-priority streams first, so higher numbers keep their
        precision longest.
        """
        self.registry.register_source(
            source_id, model, default_smoothing_r=default_smoothing_r
        )
        self._side.add(source_id, stream, link, transport)
        self._priorities[source_id] = priority

    def inject_faults(self, schedule: FaultSchedule) -> None:
        """Install a fault schedule; call after every ``add_source``.

        Burst-loss and corruption faults are layered onto the affected
        links (existing loss functions still apply -- the fabric drops a
        message when *either* says so).  Partitions cut sources off from
        :data:`SERVER_NODE`.  Crash and sensor faults are consumed tick
        by tick inside :meth:`step`.
        """
        self._side.inject_faults(schedule, lambda _source_id: SERVER_NODE)
        self._faults = schedule

    def _row_config(self, source_id: str):
        return self._side.config(source_id)

    def _install_row(self, source_id: str, config) -> None:
        transport = self._side.install(source_id, config)
        if source_id in self._server.source_ids:
            self._server.deregister(source_id)
        self._server.register(source_id, config, transport=transport)
        if self._overload is not None:
            self._overload.register(
                source_id,
                self._priorities.get(source_id, 0),
                config.min_delta,
            )

    def _retire_row(self, source_id: str) -> None:
        self._side.retire(source_id)
        self._server.deregister(source_id)
        if self._overload is not None:
            self._overload.deregister(source_id)

    # Tick loop ------------------------------------------------------------

    def step(self) -> int:
        """Advance every queried source one sampling instant.

        Per source: consume fault events (crash/restart, sensor faults),
        take a reading, run the suppression decision, offer any update to
        the link (ignoring the link's verdict -- only acks reveal fate),
        then run the transport state machine (timeout retransmissions and
        heartbeats).  Finally the fabric advances one tick, delivering due
        messages, and the server's queued acks are sent back.

        Returns the number of sources that produced a reading (sources
        whose streams are exhausted or that are crashed are skipped).
        """
        tel = self._tel
        now = self._ticks
        tel.set_tick(now)
        with tel.timers.span("engine.step"):
            processed = self._side.step(now)
            self._ticks += 1
            if not self._server_down:
                self._server.advance_clock(self._ticks)
            self._side.fabric.advance(self._ticks)
            self._drain_inbox()
            if not self._server_down:
                for ack in self._server.take_outbox():
                    self._side.fabric.send_ack(ack)
            self._run_watchdog()
            self._maybe_checkpoint()
        return processed

    def _advance(self, source_id: str, k: int, sampled: bool) -> None:
        """Predict the server filter of one source at instant ``k``."""
        if not self._server_down and (
            sampled or self._server.is_primed(source_id)
        ):
            self._server.tick(source_id, k)

    def _drain_inbox(self) -> None:
        """Process the bounded inbox at the configured drain rate."""
        if self._inbox is None:
            return
        if not self._server_down:
            for message in self._inbox.drain(
                self._overload.policy.drain_per_tick
            ):
                self._apply_message(message)
        depth = self._inbox.depth
        if self._tel.enabled:
            self._tel.gauge("inbox_depth", depth)
        # The predictive loop runs first: planned widening stamps the
        # reactive cooldown, so the controller below stays a backstop
        # for whatever the forecast missed.
        if self._autoscaler is not None:
            planned = self._autoscaler.control(
                self._ticks,
                depth=depth,
                offered=self._inbox.accepted + self._inbox.dropped,
            )
            self._apply_scales(planned)
        self._apply_scales(self._overload.step(self._ticks, depth))

    def _apply_scales(self, changes: dict[str, float]) -> None:
        for source_id, scale in changes.items():
            source = self._side.sources.get(source_id)
            if source is not None:
                source.set_delta_scale(scale)

    def _run_watchdog(self) -> None:
        """Health-check every primed stream and apply escalations."""
        if self._watchdog is None or self._server_down:
            return
        for source_id, source in self._side.sources.items():
            if not self._server.is_primed(source_id):
                continue
            action = self._watchdog.check(
                source_id, self._ticks, self._server.health_view(source_id)
            )
            if action is None:
                continue
            if action == "resync":
                if source.primed:
                    source.request_resync()
            elif action == "reprime":
                self._server.reprime(source_id)
                if source.primed:
                    source.request_resync()
            # "quarantine" needs no mechanism here: answers() reads the
            # watchdog's rung and flags the stream untrustworthy.

    # Run-loop hooks -------------------------------------------------------

    def _drained(self) -> bool:
        return self._side.drained()

    def _quiet(self) -> bool:
        return self._side.quiet()

    def _flush_in_flight(self) -> None:
        """Deliver stranded in-flight traffic (and resulting acks)."""
        fabric = self._side.fabric
        while True:
            drained = fabric.drain()
            if self._inbox is not None and not self._server_down:
                for message in self._inbox.drain(self._inbox.depth):
                    self._apply_message(message)
            acks = [] if self._server_down else self._server.take_outbox()
            for ack in acks:
                fabric.send_ack(ack)
            if drained == 0 and not acks:
                break

    # Core hooks -----------------------------------------------------------

    # Bound in this class's own namespace too, so per-class
    # instrumentation can wrap it.
    answers = EngineCore.answers

    def _row_ids(self):
        return self._side.sources.keys()

    def _answer_view(self, source_id: str):
        source = self._side.sources.get(source_id)
        if source is None or not self._server.is_primed(source_id):
            return None
        return answer_view(self._server, source)

    def _server_clock(self) -> int:
        return self._server.clock

    def _export_row(self, source_id: str) -> dict:
        return self._server.export_source_state(source_id)

    def _import_row(self, source_id: str, data: dict) -> bool:
        if source_id not in self._side.sources:
            return False
        self._server.import_source_state(source_id, data)
        return True

    def _lose_inbox(self) -> int:
        return self._inbox.clear() if self._inbox is not None else 0

    def _restart_server(self) -> None:
        self._dropped = 0
        self._server = self._new_server()
        for source_id, source in self._side.sources.items():
            self._server.register(
                source_id,
                source.config,
                transport=self._side.transports[source_id],
            )

    def _last_k(self, source_id: str) -> int:
        return int(self._server.stats(source_id)["last_k"])

    def _tick_row(self, source_id: str, k: int) -> None:
        self._server.tick(source_id, k)

    def _replay_record(self, source_id: str, record: dict) -> None:
        k = int(record["k"])
        # The live run delivered this message while the server clock sat
        # at its sampling instant (zero-latency links deliver inside the
        # same step), so replay matches that clock exactly --
        # last_contact comes out bit-identical.
        self._server.advance_clock(k)
        value = np.asarray(record["value"], dtype=float)
        if record["kind"] == "resync":
            message = ResyncMessage(
                source_id=source_id,
                seq=int(record["seq"]),
                k=k,
                x=np.asarray(record["x"], dtype=float),
                p=np.asarray(record["p"], dtype=float),
                value=value,
            )
        else:
            message = UpdateMessage(
                source_id=source_id, seq=int(record["seq"]), k=k, value=value
            )
        self._server.receive(message)

    def _row_lag(self, source_id: str) -> int:
        source = self._side.sources[source_id]
        if not (self._server.is_primed(source_id) and source.primed):
            return 0
        return source.mirror.k - self._server.filter_clock(source_id)

    def _finish_recovery(self) -> None:
        self._server.advance_clock(self._ticks)
        # Replay re-derived acks for messages whose originals were acked
        # before the crash; re-sending them would be duplicate traffic.
        self._server.take_outbox()

    def _resync_if_behind(self, source_id: str) -> bool:
        source = self._side.sources[source_id]
        if not source.primed or (
            source.next_seq == self._server.stats(source_id)["expected_seq"]
        ):
            return False
        source.request_resync()
        return True

    def _ledger_row(self, source_id: str) -> LedgerRow:
        source = self._side.sources[source_id]
        stats = self._side.fabric.stats_for(source_id)
        model = source.config.model
        return LedgerRow(
            samples=source.samples_seen,
            smoothing_steps=(
                source.samples_seen if source.config.smoothed else 0
            ),
            state_dim=model.state_dim,
            measurement_dim=model.measurement_dim,
            offered=stats.offered,
            resyncs=stats.resyncs,
            heartbeats=stats.heartbeats,
            bytes_delivered=stats.bytes_delivered,
            lost=stats.lost,
            corrupted=stats.corrupted,
            acks_delivered=stats.acks_delivered,
            in_flight=stats.in_flight,
        )

    def _dropped_while_down(self) -> int:
        return self._dropped

    def _guard_reports(self) -> dict[str, object]:
        report: dict[str, object] = {}
        if self._inbox is not None:
            report["inbox"] = {
                "depth": self._inbox.depth,
                "accepted": self._inbox.accepted,
                "dropped": self._inbox.dropped,
            }
            report["overload"] = self._overload.report()
            report["shed_ledger"] = self._overload.ledger()
        if self._autoscaler is not None:
            report["autoscale"] = self._autoscaler.report()
        return report
