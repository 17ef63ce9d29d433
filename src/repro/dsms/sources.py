"""The scalar source side shared by the engine and the federated cluster:
cursors, links and :class:`~repro.dkf.source.DKFSource` endpoints, the
source fabric, fault layering on its links and the per-source tick loop.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable

from repro.dkf.config import TransportPolicy
from repro.dkf.protocol import AckMessage
from repro.dkf.server import DKFServer
from repro.dkf.source import DKFSource
from repro.dsms.faults import FaultSchedule, either
from repro.dsms.network import LinkConfig, NetworkFabric
from repro.errors import StreamExhaustedError
from repro.obs.events import trace_id
from repro.streams.base import MaterializedStream, StreamCursor

__all__ = ["SourceSide", "answer_view"]


def answer_view(server: DKFServer, source: DKFSource) -> tuple:
    """``(k, value, precision, staleness, confidence, suspect)`` of a
    source on a server bank holding it primed; ``precision`` is the
    source's effective δ, widened by any overload shedding."""
    source_id = source.source_id
    live = server.liveness(source_id)
    return (
        int(server.stats(source_id)["last_k"]),
        tuple(float(v) for v in server.value(source_id)),
        source.effective_min_delta,
        int(live["staleness_ticks"]),
        server.confidence(source_id),
        bool(live["suspect"]),
    )


class SourceSide:
    """Every registered stream up to the server ingress.

    Args:
        deliver: Fabric callback receiving each delivered data message.
        advance: ``advance(source_id, k, sampled)`` predicts the server
            bank(s) of one source at instant ``k``; ``sampled`` is False
            while the source is down.
        telemetry: Telemetry handle shared with the owner.
        supervisor: Optional restart supervisor pacing source restarts.
        watchdog: Optional watchdog fed each reading's verdict.
    """

    def __init__(
        self,
        deliver: Callable,
        advance: Callable[[str, int, bool], None],
        telemetry,
        supervisor=None,
        watchdog=None,
    ) -> None:
        self._tel = telemetry
        self._advance = advance
        self._supervisor = supervisor
        self._watchdog = watchdog
        self.fabric = NetworkFabric(
            deliver=deliver, deliver_ack=self._on_ack, telemetry=telemetry
        )
        self.sources: dict[str, DKFSource] = {}
        self.cursors: dict[str, StreamCursor] = {}
        self.links: dict[str, LinkConfig] = {}
        self.transports: dict[str, TransportPolicy] = {}
        self.faults: FaultSchedule | None = None
        self.exhausted: set[str] = set()
        self.resync_prime: set[str] = set()
        self.down_now: set[str] = set()
        self.restart_pending: set[str] = set()
        #: ``(fabric, nominal link configs)`` pairs asymmetric-link
        #: windows may slow; owners with more fabrics append theirs.
        self.routes: list[tuple[NetworkFabric, dict[str, LinkConfig]]] = [
            (self.fabric, self.links)
        ]
        self._latency_overrides: dict[str, tuple[int, int]] = {}

    # Registration ---------------------------------------------------------

    def add(
        self,
        source_id: str,
        stream: MaterializedStream,
        link: LinkConfig | None,
        transport: TransportPolicy | None,
    ) -> None:
        """Attach a stream cursor and a link for a registered source."""
        self.cursors[source_id] = StreamCursor(stream)
        self.fabric.add_link(source_id, link)
        self.links[source_id] = link or LinkConfig()
        self.transports[source_id] = transport or TransportPolicy()

    def config(self, source_id: str):
        """The installed source's DKF config (None when not installed)."""
        source = self.sources.get(source_id)
        return None if source is None else source.config

    def install(self, source_id: str, config) -> TransportPolicy:
        """(Re)install a fresh DKF source; returns its transport policy."""
        transport = self.transports[source_id]
        self.sources[source_id] = DKFSource(
            source_id, config, transport=transport, telemetry=self._tel
        )
        self.resync_prime.discard(source_id)
        return transport

    def retire(self, source_id: str) -> None:
        """Tear down an installed source."""
        del self.sources[source_id]
        self.exhausted.discard(source_id)
        self.resync_prime.discard(source_id)
        self.restart_pending.discard(source_id)

    def _on_ack(self, ack: AckMessage) -> None:
        """Fabric callback: route a delivered ack to its source.

        The fabric clock is the owner's tick at every delivery.
        """
        source = self.sources.get(ack.source_id)
        if source is not None:
            source.on_ack(ack, self.fabric.tick)

    # Faults ---------------------------------------------------------------

    def inject_faults(
        self, schedule: FaultSchedule, ingress: Callable[[str], str]
    ) -> None:
        """Layer a fault schedule onto every source link.

        Burst loss and corruption are ORed onto the existing predicates.
        Under a partition a link is severed while the cut separates the
        source from ``ingress(source_id)`` (read live): frames offered
        then are lost in both directions, and the fabric gate holds
        frames already in the pipe.
        """
        schedule.reset()
        schedule.bind_telemetry(self._tel)
        self.faults = schedule
        partitioned = schedule.has_partitions()
        for source_id in self.links:
            loss = schedule.loss_fn(source_id)
            corrupt = schedule.corrupt_fn(source_id)
            sever = None
            if partitioned:

                def sever(_index: int, _sid: str = source_id) -> bool:
                    return schedule.link_severed(_sid, ingress(_sid))

            if loss is None and corrupt is None and sever is None:
                continue
            base = self.fabric.link_config(source_id)
            self.fabric.reconfigure_link(
                source_id,
                dataclasses.replace(
                    base,
                    loss_fn=either(either(base.loss_fn, loss), sever),
                    ack_loss_fn=either(base.ack_loss_fn, sever),
                    corrupt_fn=either(base.corrupt_fn, corrupt),
                ),
            )
        if partitioned:
            self.fabric.set_gate(
                lambda link_id, tick: not schedule.link_severed(
                    link_id, ingress(link_id), tick
                )
            )

    def _apply_latency_overrides(self, now: int) -> None:
        """Apply/clear asymmetric-link latency windows on every route.

        Reconfigures only when the set of active overrides changed, so
        runs without asymmetric faults pay a single set lookup per tick.
        """
        if not self.faults.asymmetric_links():
            return
        overrides = {
            link_id: extras
            for link_id, extras in self.faults.latency_overrides(now).items()
            if self._route(link_id) is not None
        }
        if overrides == self._latency_overrides:
            return
        for link_id in set(self._latency_overrides) | set(overrides):
            fabric, base = self._route(link_id)
            data_extra, ack_extra = overrides.get(link_id, (0, 0))
            fabric.reconfigure_link(
                link_id,
                dataclasses.replace(
                    fabric.link_config(link_id),
                    latency_ticks=base.latency_ticks + data_extra,
                    ack_latency_ticks=base.ack_latency_ticks + ack_extra,
                ),
            )
        self._latency_overrides = overrides

    def _route(self, link_id: str):
        """``(fabric, nominal config)`` of a link, or None if unknown."""
        for fabric, links in self.routes:
            if link_id in links:
                return fabric, links[link_id]
        return None

    # Tick loop ------------------------------------------------------------

    def step(self, now: int) -> int:
        """Fault clock, then readings + transport for every installed
        source at tick ``now``.

        Returns the number of sources that produced a reading.
        """
        tel = self._tel
        faults = self.faults
        advance = self._advance
        if faults is not None:
            faults.observe_tick(now)
            self._apply_latency_overrides(now)
        processed = 0
        for source_id, source in self.sources.items():
            if faults is not None:
                if (
                    faults.restarts_at(source_id, now)
                    or source_id in self.restart_pending
                ):
                    # Recovered from a crash: all state is gone.  The next
                    # transmission must be a resync snapshot, because the
                    # server's expected sequence number survived the crash
                    # and a fresh seq-0 update would read as a stale
                    # duplicate.  Under a restart policy the supervisor
                    # may defer the restart (backoff or exhausted budget),
                    # in which case the source stays down and the request
                    # is retried next tick.
                    if (
                        self._supervisor is None
                        or self._supervisor.request_restart(source_id, now)
                    ):
                        self.restart_pending.discard(source_id)
                        source.reset(now)
                        self.resync_prime.add(source_id)
                        self.down_now.discard(source_id)
                        if tel.enabled:
                            tel.emit("fault.restart", source_id=source_id)
                            tel.count("restarts_total", source_id)
                    else:
                        self.restart_pending.add(source_id)
                if (
                    faults.is_down(source_id, now)
                    or source_id in self.restart_pending
                ):
                    # Sensor dead: no reading, no transport.  The server
                    # keeps coasting so staleness and covariance grow.
                    if source_id not in self.down_now:
                        self.down_now.add(source_id)
                        if tel.enabled:
                            tel.emit("fault.crash", source_id=source_id)
                            tel.count("crashes_total", source_id)
                    advance(source_id, now, False)
                    if faults.is_terminal(source_id, now):
                        self.exhausted.add(source_id)
                    continue
            if source_id not in self.exhausted:
                try:
                    record = self.cursors[source_id].next()
                except StreamExhaustedError:
                    self.exhausted.add(source_id)
                else:
                    if faults is not None:
                        record = faults.transform(source_id, now, record)
                    advance(source_id, record.k, True)
                    step = source.sample(record)
                    if self._watchdog is not None:
                        if step.rejected:
                            self._watchdog.note_rejection(source_id)
                        else:
                            self._watchdog.note_accepted(source_id)
                    message = step.message
                    if message is not None:
                        if source_id in self.resync_prime:
                            self.resync_prime.discard(source_id)
                            message = source.resync_message(
                                record.k, step.value
                            )
                            if tel.enabled:
                                tel.emit(
                                    "engine.resync_prime",
                                    source_id=source_id,
                                    trace=trace_id(source_id, message.seq),
                                    k=record.k,
                                )
                        self.fabric.send(message)
                        source.note_sent(message, now)
                    processed += 1
            # Transport maintenance runs for every live source, even after
            # its stream drained: pending retransmissions and heartbeats
            # must not strand.
            for message in source.poll_transport(now):
                self.fabric.send(message)
        return processed

    def drained(self) -> bool:
        """Whether every installed stream is exhausted."""
        return len(self.exhausted) == len(self.sources)

    def quiet(self) -> bool:
        """Nothing in flight and no source waiting on an ack."""
        return self.fabric.total_in_flight() == 0 and not any(
            s.pending_acks for s in self.sources.values()
        )
