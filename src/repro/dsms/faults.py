"""Deterministic fault-injection harness for the stream engine.

A :class:`FaultSchedule` scripts every failure the system is expected to
survive, keyed to engine ticks and derived entirely from a seed -- two
runs with equal schedules produce byte-identical behaviour, which is what
makes soak tests and replays meaningful.

Fault classes:

* **Source crashes** -- the sensor node dies at a tick and (optionally)
  restarts later, returning with amnesia: the engine re-primes the pair
  through a resync snapshot because the server's sequence expectations
  survived the crash.
* **Sensor faults** -- readings are perturbed before the source logic
  sees them: ``nan`` (non-finite garbage), ``stuck`` (the last pre-fault
  reading repeats), ``dropout`` (the reading is lost; modelled as
  non-finite so the source's rejection path handles it), ``spike``
  (a large deterministic outlier is added).
* **Burst loss** -- a two-state Gilbert-Elliott channel replaces i.i.d.
  loss: long good spells punctuated by bursts where most messages die,
  the pattern that actually defeats naive retry logic.
* **Payload corruption** -- selected messages have one encoded bit
  flipped in flight; the receiver's CRC-32 check rejects the frame, so
  corruption degenerates to loss (exactly what a checksumming NIC does).

The engine consumes the schedule via the narrow hook API at the bottom
(:meth:`FaultSchedule.is_down`, :meth:`FaultSchedule.restarts_at`,
:meth:`FaultSchedule.transform`, :meth:`FaultSchedule.loss_fn`,
:meth:`FaultSchedule.corrupt_fn`), so alternative harnesses can drive the
same schedule.
"""

from __future__ import annotations

import dataclasses
import zlib
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.obs.telemetry import NULL_TELEMETRY
from repro.streams.base import StreamRecord

__all__ = [
    "CrashFault",
    "SensorFault",
    "NetworkPartitionFault",
    "AsymmetricLinkFault",
    "GilbertElliottLoss",
    "FaultSchedule",
    "SENSOR_FAULT_KINDS",
    "LINK_FAULT_DIRECTIONS",
]

#: Sensor fault kinds understood by :meth:`FaultSchedule.sensor`.
SENSOR_FAULT_KINDS = ("nan", "stuck", "dropout", "spike")

#: Directions an asymmetric link fault can slow.
LINK_FAULT_DIRECTIONS = ("data", "ack", "both")


@dataclass(frozen=True)
class CrashFault:
    """A source-node crash window.

    Attributes:
        source_id: The crashing source.
        at_tick: First tick the source is down.
        restart_tick: Tick the source comes back (exclusive end of the
            outage); None means it never restarts.
    """

    source_id: str
    at_tick: int
    restart_tick: int | None

    def __post_init__(self) -> None:
        if self.at_tick < 0:
            raise ConfigurationError("at_tick must be non-negative")
        if self.restart_tick is not None and self.restart_tick <= self.at_tick:
            raise ConfigurationError("restart_tick must come after at_tick")

    def covers(self, tick: int) -> bool:
        """Whether the source is down at ``tick``."""
        if tick < self.at_tick:
            return False
        return self.restart_tick is None or tick < self.restart_tick


@dataclass(frozen=True)
class SensorFault:
    """A sensor malfunction window perturbing raw readings.

    Attributes:
        source_id: The faulty source.
        kind: One of :data:`SENSOR_FAULT_KINDS`.
        start_tick: First affected tick.
        duration: Number of consecutive affected ticks.
        magnitude: Spike amplitude (``spike`` kind only).
    """

    source_id: str
    kind: str
    start_tick: int
    duration: int
    magnitude: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in SENSOR_FAULT_KINDS:
            raise ConfigurationError(
                f"unknown sensor fault kind {self.kind!r}; "
                f"expected one of {SENSOR_FAULT_KINDS}"
            )
        if self.start_tick < 0:
            raise ConfigurationError("start_tick must be non-negative")
        if self.duration < 1:
            raise ConfigurationError("duration must be at least 1")
        if self.kind == "spike" and self.magnitude == 0.0:
            raise ConfigurationError("spike faults need a non-zero magnitude")

    def covers(self, tick: int) -> bool:
        """Whether the fault is active at ``tick``."""
        return self.start_tick <= tick < self.start_tick + self.duration


@dataclass(frozen=True)
class NetworkPartitionFault:
    """A network partition splitting the node set into two islands.

    Nodes are engine-level endpoints: source ids and the server (the
    scalar engine's server is the node ``"server"``), or federation peer
    ids.  While the partition is active, any link whose two endpoints sit
    on opposite sides is *severed*: frames offered to it are dropped
    (counted ``lost``), and frames already in the pipe are held in place
    -- still ``in_flight`` -- until the partition heals.  Nodes on the
    same side, or not mentioned at all, are unaffected.

    Attributes:
        side_a: Node ids on one side of the cut.
        side_b: Node ids on the other side.
        at_tick: First tick the partition is active.
        heal_tick: Tick the partition heals (exclusive end); None means
            it never heals.
    """

    side_a: frozenset[str]
    side_b: frozenset[str]
    at_tick: int
    heal_tick: int | None

    def __post_init__(self) -> None:
        object.__setattr__(self, "side_a", frozenset(self.side_a))
        object.__setattr__(self, "side_b", frozenset(self.side_b))
        if not self.side_a or not self.side_b:
            raise ConfigurationError("both partition sides must be non-empty")
        if self.side_a & self.side_b:
            raise ConfigurationError(
                f"partition sides overlap: {sorted(self.side_a & self.side_b)}"
            )
        if self.at_tick < 0:
            raise ConfigurationError("at_tick must be non-negative")
        if self.heal_tick is not None and self.heal_tick <= self.at_tick:
            raise ConfigurationError("heal_tick must come after at_tick")

    def covers(self, tick: int) -> bool:
        """Whether the partition is active at ``tick``."""
        if tick < self.at_tick:
            return False
        return self.heal_tick is None or tick < self.heal_tick

    def severs(self, node_a: str, node_b: str) -> bool:
        """Whether a link between the two nodes crosses the cut."""
        return (node_a in self.side_a and node_b in self.side_b) or (
            node_a in self.side_b and node_b in self.side_a
        )


@dataclass(frozen=True)
class AsymmetricLinkFault:
    """A one-directional slow-link window (congestion, bad route).

    Adds ``extra_latency_ticks`` to one direction of one link for a
    window of ticks; the reverse direction keeps its configured latency,
    which is exactly the asymmetry that defeats RTT-symmetric timeout
    tuning.  Frames already in flight keep their original delivery time
    (the extra latency applies at send), so the fault is drain-safe.

    Attributes:
        link_id: The fabric link key (a source id, or a directed peer
            link id in a federation).
        extra_latency_ticks: Added delivery delay while active.
        at_tick: First affected tick.
        duration: Number of consecutive affected ticks.
        direction: ``"data"``, ``"ack"`` or ``"both"``.
    """

    link_id: str
    extra_latency_ticks: int
    at_tick: int
    duration: int
    direction: str = "data"

    def __post_init__(self) -> None:
        if self.extra_latency_ticks < 1:
            raise ConfigurationError(
                "extra_latency_ticks must be at least 1"
            )
        if self.at_tick < 0:
            raise ConfigurationError("at_tick must be non-negative")
        if self.duration < 1:
            raise ConfigurationError("duration must be at least 1")
        if self.direction not in LINK_FAULT_DIRECTIONS:
            raise ConfigurationError(
                f"unknown link fault direction {self.direction!r}; "
                f"expected one of {LINK_FAULT_DIRECTIONS}"
            )

    def covers(self, tick: int) -> bool:
        """Whether the fault is active at ``tick``."""
        return self.at_tick <= tick < self.at_tick + self.duration


class GilbertElliottLoss:
    """Two-state Markov burst-loss model (Gilbert-Elliott).

    The channel alternates between a *good* state (loss probability
    ``loss_good``, usually ~0) and a *bad* state (``loss_bad``, usually
    near 1).  Transitions happen per message: ``p_enter`` is the
    good-to-bad probability, ``p_exit`` bad-to-good.  Decisions are
    derived from the seed and the message index alone -- the chain is
    materialised lazily and memoised, so any query order yields the same
    answers and replays are exact.

    Args:
        p_enter: Per-message probability of entering the bad state.
        p_exit: Per-message probability of leaving the bad state.
        loss_good: Loss probability while in the good state.
        loss_bad: Loss probability while in the bad state.
        seed: Seed for the chain's random draws.
    """

    def __init__(
        self,
        p_enter: float,
        p_exit: float,
        loss_good: float = 0.0,
        loss_bad: float = 1.0,
        seed: int = 0,
    ) -> None:
        for name, p in (
            ("p_enter", p_enter),
            ("p_exit", p_exit),
            ("loss_good", loss_good),
            ("loss_bad", loss_bad),
        ):
            if not 0.0 <= p <= 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1], got {p}")
        self._p_enter = p_enter
        self._p_exit = p_exit
        self._loss_good = loss_good
        self._loss_bad = loss_bad
        self._rng = np.random.default_rng(seed)
        self._decisions: list[bool] = []
        self._bad = False

    def _extend_to(self, index: int) -> None:
        while len(self._decisions) <= index:
            transition, drop = self._rng.random(2)
            if self._bad:
                if transition < self._p_exit:
                    self._bad = False
            elif transition < self._p_enter:
                self._bad = True
            rate = self._loss_bad if self._bad else self._loss_good
            self._decisions.append(bool(drop < rate))

    def __call__(self, index: int) -> bool:
        """Whether message ``index`` is dropped."""
        if index < 0:
            raise ConfigurationError("message index must be non-negative")
        self._extend_to(index)
        return self._decisions[index]


def either(
    first: Callable[[int], bool] | None, second: Callable[[int], bool] | None
) -> Callable[[int], bool] | None:
    """OR two optional link predicates (fault layering on one link).

    A message is dropped (or corrupted) when *either* predicate says so;
    a missing predicate leaves the other unchanged.
    """
    if first is None:
        return second
    if second is None:
        return first

    def drop(index: int) -> bool:
        return bool(first(index)) or bool(second(index))

    return drop


class FaultSchedule:
    """A seeded, deterministic script of failures for one engine run.

    Build the schedule declaratively (:meth:`crash`, :meth:`sensor`,
    :meth:`burst_loss`, :meth:`corrupt`), hand it to
    ``StreamEngine.inject_faults``, and run.  All randomness (burst-loss
    chains, corruption picks, spike signs) derives from ``seed`` plus
    stable per-fault identifiers, never from call order.

    Args:
        seed: Master seed all stochastic fault decisions derive from.
    """

    def __init__(self, seed: int = 0) -> None:
        self._seed = int(seed)
        self._crashes: list[CrashFault] = []
        self._sensor_faults: list[SensorFault] = []
        self._burst_loss: dict[str, tuple[float, float, float, float]] = {}
        self._corrupt_rates: dict[str, float] = {}
        self._loss_fns: dict[str, GilbertElliottLoss] = {}
        self._stuck_values: dict[str, np.ndarray] = {}
        self._partitions: list[NetworkPartitionFault] = []
        self._asymmetric: list[AsymmetricLinkFault] = []
        self._now = 0
        self._tel = NULL_TELEMETRY

    def bind_telemetry(self, telemetry) -> None:
        """Attach a telemetry handle (the engine does this on inject).

        Sensor-fault applications then emit ``fault.sensor`` events; the
        engine itself emits the crash/restart events because only it
        knows when a hook actually fired.
        """
        self._tel = telemetry or NULL_TELEMETRY

    @property
    def seed(self) -> int:
        """The master seed."""
        return self._seed

    def _subseed(self, tag: str) -> int:
        """A stable per-fault seed derived from the master seed."""
        return (self._seed << 32) ^ zlib.crc32(tag.encode("utf-8"))

    # Declarative construction --------------------------------------------

    def crash(
        self, source_id: str, at: int, restart_at: int | None = None
    ) -> "FaultSchedule":
        """Schedule a source crash at tick ``at`` (restart optional)."""
        self._crashes.append(
            CrashFault(source_id=source_id, at_tick=at, restart_tick=restart_at)
        )
        return self

    def sensor(
        self,
        source_id: str,
        kind: str,
        start: int,
        duration: int,
        magnitude: float = 0.0,
    ) -> "FaultSchedule":
        """Schedule a sensor fault window (see :class:`SensorFault`)."""
        self._sensor_faults.append(
            SensorFault(
                source_id=source_id,
                kind=kind,
                start_tick=start,
                duration=duration,
                magnitude=magnitude,
            )
        )
        return self

    def burst_loss(
        self,
        source_id: str,
        p_enter: float,
        p_exit: float,
        loss_good: float = 0.0,
        loss_bad: float = 1.0,
    ) -> "FaultSchedule":
        """Attach a Gilbert-Elliott burst-loss channel to a source's link."""
        if source_id in self._burst_loss:
            raise ConfigurationError(
                f"burst loss already scheduled for {source_id!r}"
            )
        self._burst_loss[source_id] = (p_enter, p_exit, loss_good, loss_bad)
        return self

    def partition(
        self,
        side_a,
        side_b,
        at: int,
        heal_at: int | None = None,
    ) -> "FaultSchedule":
        """Schedule a network partition between two node sets.

        Nodes are source ids plus the server node (``"server"`` in the
        single-server engines) or federation peer ids.  The cut severs
        every link crossing it from tick ``at`` until ``heal_at``
        (never, when None).
        """
        self._partitions.append(
            NetworkPartitionFault(
                side_a=frozenset(side_a),
                side_b=frozenset(side_b),
                at_tick=at,
                heal_tick=heal_at,
            )
        )
        return self

    def asymmetric_link(
        self,
        link_id: str,
        extra_latency_ticks: int,
        at: int,
        duration: int,
        direction: str = "data",
    ) -> "FaultSchedule":
        """Schedule a one-directional slow-link window on one link."""
        self._asymmetric.append(
            AsymmetricLinkFault(
                link_id=link_id,
                extra_latency_ticks=extra_latency_ticks,
                at_tick=at,
                duration=duration,
                direction=direction,
            )
        )
        return self

    def corrupt(self, source_id: str, rate: float) -> "FaultSchedule":
        """Corrupt a fraction ``rate`` of a source's encoded messages."""
        if not 0.0 <= rate < 1.0:
            raise ConfigurationError(f"rate must be in [0, 1), got {rate}")
        if source_id in self._corrupt_rates:
            raise ConfigurationError(
                f"corruption already scheduled for {source_id!r}"
            )
        self._corrupt_rates[source_id] = rate
        return self

    # Engine-facing hooks --------------------------------------------------

    def reset(self) -> None:
        """Clear per-run state (stuck-value memory, burst-loss chains).

        ``StreamEngine.inject_faults`` calls this, so a schedule can be
        reused across runs and still produce identical behaviour.
        """
        self._stuck_values.clear()
        self._loss_fns.clear()
        self._now = 0

    def observe_tick(self, tick: int) -> None:
        """Advance the schedule's clock (engines call this every step).

        Time-dependent link faults -- partitions, asymmetric windows --
        are evaluated against this clock when a loss predicate offers no
        tick of its own (fabric loss functions only see a message index).
        """
        if tick > self._now:
            self._now = tick

    @property
    def now(self) -> int:
        """The schedule's current clock (last observed engine tick)."""
        return self._now

    def has_partitions(self) -> bool:
        """Whether any partition fault is scheduled."""
        return bool(self._partitions)

    def partitioned_nodes(self) -> set[str]:
        """Every node id named by a scheduled partition."""
        nodes: set[str] = set()
        for fault in self._partitions:
            nodes |= fault.side_a | fault.side_b
        return nodes

    def link_severed(
        self, node_a: str, node_b: str, tick: int | None = None
    ) -> bool:
        """Whether the ``node_a``--``node_b`` link crosses an active cut.

        ``tick`` defaults to the schedule clock (:meth:`observe_tick`).
        """
        when = self._now if tick is None else tick
        return any(
            f.covers(when) and f.severs(node_a, node_b)
            for f in self._partitions
        )

    def partition_active(self, tick: int | None = None) -> bool:
        """Whether any partition is active at ``tick`` (default: now)."""
        when = self._now if tick is None else tick
        return any(f.covers(when) for f in self._partitions)

    def asymmetric_links(self) -> set[str]:
        """Link ids with at least one asymmetric window scheduled."""
        return {f.link_id for f in self._asymmetric}

    def latency_overrides(
        self, tick: int | None = None
    ) -> dict[str, tuple[int, int]]:
        """Active extra latency per link at ``tick`` (default: now).

        Returns ``{link_id: (data_extra, ack_extra)}`` with the extras of
        overlapping windows summed per direction.  Links with no active
        window are absent, so an empty dict means "all links nominal".
        """
        when = self._now if tick is None else tick
        overrides: dict[str, tuple[int, int]] = {}
        for fault in self._asymmetric:
            if not fault.covers(when):
                continue
            data, ack = overrides.get(fault.link_id, (0, 0))
            if fault.direction in ("data", "both"):
                data += fault.extra_latency_ticks
            if fault.direction in ("ack", "both"):
                ack += fault.extra_latency_ticks
            overrides[fault.link_id] = (data, ack)
        return overrides

    def is_down(self, source_id: str, tick: int) -> bool:
        """Whether the source is crashed at ``tick``."""
        return any(
            c.source_id == source_id and c.covers(tick) for c in self._crashes
        )

    def is_terminal(self, source_id: str, tick: int) -> bool:
        """Whether the source is crashed at ``tick`` and never restarts."""
        return any(
            c.source_id == source_id and c.covers(tick) and c.restart_tick is None
            for c in self._crashes
        )

    def restarts_at(self, source_id: str, tick: int) -> bool:
        """Whether the source comes back from a crash exactly at ``tick``."""
        return any(
            c.source_id == source_id and c.restart_tick == tick
            for c in self._crashes
        )

    def crash_sources(self) -> set[str]:
        """Source ids with a crash/restart fault scheduled.

        The batch engine consults crash state per tick only for these
        rows, so a mostly-healthy shard pays no per-row Python cost.
        """
        return {c.source_id for c in self._crashes}

    def sensor_sources(self) -> set[str]:
        """Source ids with at least one sensor fault scheduled.

        Rows outside this set skip the per-reading :meth:`transform`
        call entirely on the batch engine's bulk read path.
        """
        return {f.source_id for f in self._sensor_faults}

    def transform(
        self, source_id: str, tick: int, record: StreamRecord
    ) -> StreamRecord:
        """Apply active sensor faults to a reading (engine hook).

        Healthy readings additionally refresh the stuck-value memory so a
        later ``stuck`` window repeats the last good reading.
        """
        value = record.value
        faulted = False
        for fault in self._sensor_faults:
            if fault.source_id != source_id or not fault.covers(tick):
                continue
            faulted = True
            if self._tel.enabled:
                self._tel.emit(
                    "fault.sensor",
                    source_id=source_id,
                    kind=fault.kind,
                    k=record.k,
                )
                self._tel.count("sensor_faults_total", source_id)
            if fault.kind in ("nan", "dropout"):
                value = np.full_like(value, np.nan)
            elif fault.kind == "stuck":
                held = self._stuck_values.get(source_id)
                if held is not None and held.shape == value.shape:
                    value = held.copy()
            elif fault.kind == "spike":
                sign_seed = self._subseed(f"spike:{source_id}:{tick}")
                sign = 1.0 if np.random.default_rng(sign_seed).random() < 0.5 else -1.0
                value = value + sign * fault.magnitude
        if not faulted:
            self._stuck_values[source_id] = record.value.copy()
            return record
        return dataclasses.replace(record, value=value)

    def loss_fn(self, source_id: str) -> Callable[[int], bool] | None:
        """The burst-loss predicate for a source's link, if scheduled."""
        params = self._burst_loss.get(source_id)
        if params is None:
            return None
        if source_id not in self._loss_fns:
            p_enter, p_exit, loss_good, loss_bad = params
            self._loss_fns[source_id] = GilbertElliottLoss(
                p_enter=p_enter,
                p_exit=p_exit,
                loss_good=loss_good,
                loss_bad=loss_bad,
                seed=self._subseed(f"burst:{source_id}"),
            )
        return self._loss_fns[source_id]

    def corrupt_fn(self, source_id: str) -> Callable[[int], bool] | None:
        """The corruption predicate for a source's link, if scheduled."""
        rate = self._corrupt_rates.get(source_id)
        if rate is None:
            return None
        subseed = self._subseed(f"corrupt:{source_id}")

        def pick(index: int) -> bool:
            return bool(np.random.default_rng((subseed, index)).random() < rate)

        return pick

    def describe(self) -> dict[str, int]:
        """Summary counts of scheduled faults (logging aid)."""
        return {
            "crashes": len(self._crashes),
            "sensor_faults": len(self._sensor_faults),
            "burst_loss_links": len(self._burst_loss),
            "corrupted_links": len(self._corrupt_rates),
            "partitions": len(self._partitions),
            "asymmetric_links": len(self._asymmetric),
        }
