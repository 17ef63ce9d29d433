"""The three engine workloads: ``scalar``, ``batch`` and ``federation``.

All three run the reference mix (``perfbench.inputs``) for ``TICKS``
ticks per round, repeating rounds until the run's time is spent.  A
round builds a fresh engine (timed as set-up), steps it tick by tick,
reads every answer on answer ticks and checks each one against the
reading it answers for, then settles the transport and checks the
books.  The rounds of one run replay the same inputs, so every round
must send exactly the same updates: that is checked too.

The host-speed kernel (``perfbench.hostspeed``) is timed before every
tick and around every build, outside the timed spans; every time the
metrics report is divided by the speed factor of its moment.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from perfbench.hostspeed import HostSpeed
from perfbench.inputs import Source, check_offered, digest, reference_mix
from repro.dsms.engine import StreamEngine
from repro.dsms.query import ContinuousQuery
from repro.federation import FederatedCluster, FederationConfig
from repro.resilience.config import ResilienceConfig
from repro.scale.engine import BatchStreamEngine

#: Ticks per round; every source's stream has exactly this many readings.
TICKS = 300

#: Slack on the delta test for float rounding in the answer path.
_EPS = 1e-9


@dataclass(frozen=True)
class EngineWorkload:
    """Shape of one engine workload."""

    sources: int
    answer_every: int


WORKLOADS = {
    "scalar": EngineWorkload(sources=63, answer_every=1),
    "batch": EngineWorkload(sources=3072, answer_every=10),
    "federation": EngineWorkload(sources=63, answer_every=1),
}


def build_engine(name: str, mix: list[Source], workdir: Path):
    """Construct the workload's engine and register every source."""
    if name == "scalar":
        engine = StreamEngine(
            resilience=ResilienceConfig(
                checkpoint_dir=str(workdir), checkpoint_every=100
            )
        )
    elif name == "batch":
        engine = BatchStreamEngine(workers=0)
    else:
        engine = FederatedCluster(FederationConfig(peers=3, replication=1))
    for source in mix:
        engine.add_source(source.source_id, source.model, source.stream)
        engine.submit_query(
            ContinuousQuery(
                source.source_id,
                delta=source.delta,
                query_id=f"q-{source.source_id}",
            )
        )
    return engine


class DeltaAudit:
    """Checks answers against the readings they answer for.

    An answer for source ``s`` at instant ``k`` must lie within
    ``precision + consensus_error`` of reading ``k`` on every component
    (the max-norm ``DKFSource.sample`` tests), unless it carries an
    honesty flag (``degraded`` or ``quarantined``).  Unflagged answers
    outside that bound are violations.
    """

    def __init__(self, mix: list[Source]) -> None:
        self._index = {s.source_id: i for i, s in enumerate(mix)}
        ticks = _ticks(mix)
        # Readings padded to two components; 1-D sources read 0 on the
        # second and so do their padded answers.
        self._truth = np.zeros((len(mix), ticks, 2))
        for i, source in enumerate(mix):
            self._truth[i, :, : source.values.shape[1]] = source.values
        self._dims = np.array([s.values.shape[1] for s in mix])
        self.answers = 0
        self.violations = 0
        self.error_sum = 0.0
        self.error_terms = 0

    def check(self, answers) -> None:
        count = len(answers)
        if not count:
            return
        rows = np.fromiter(
            (self._index[a.source_id] for a in answers), np.intp, count
        )
        ks = np.fromiter((a.k for a in answers), np.intp, count)
        values = np.array(
            [a.value if len(a.value) == 2 else (a.value[0], 0.0)
             for a in answers]
        )
        bound = np.fromiter(
            (a.precision + a.consensus_error for a in answers), float, count
        )
        flagged = np.fromiter(
            (a.degraded or a.quarantined for a in answers), bool, count
        )
        error = np.abs(values - self._truth[rows, ks])
        outside = (error > bound[:, None] + _EPS).any(axis=1)
        self.violations += int((outside & ~flagged).sum())
        self.answers += count
        self.error_sum += float(error.sum())
        self.error_terms += int(self._dims[rows].sum())

    @property
    def error_mean(self) -> float:
        return self.error_sum / self.error_terms if self.error_terms else 0.0


@dataclass
class RoundResult:
    """One round's books and per-tick times (raw, and the speed factors)."""

    setup_s: float
    readings: int = 0
    updates: int = 0
    ledger: dict = field(default_factory=dict)
    facts: dict = field(default_factory=dict)
    #: ``perf_counter`` time each tick started.
    started: list = field(default_factory=list)
    tick_ms: list = field(default_factory=list)
    step_ms: list = field(default_factory=list)
    cpu_ms: list = field(default_factory=list)
    #: Ticks (indices into the lists above) that read answers.
    answer_ticks: list = field(default_factory=list)
    #: Host-speed factor of every tick, set when the round ends.
    factor: np.ndarray | None = None

    @property
    def loop_s(self) -> float:
        """Raw wall seconds of the timed loop."""
        return sum(self.tick_ms) / 1e3

    def series(self, name: str, scaled: bool = True) -> np.ndarray:
        """Per-tick milliseconds of ``tick``, ``step``, ``cpu`` or
        ``query`` (answer reads, on answer ticks only), each divided by
        its tick's host-speed factor if ``scaled``."""
        if name == "query":
            times = np.asarray(self.tick_ms) - np.asarray(self.step_ms)
        else:
            times = np.asarray(getattr(self, f"{name}_ms"))
        if scaled:
            times = times / self.factor
        return times[self.answer_ticks] if name == "query" else times


def _books(name: str, engine, mix: list[Source], result: RoundResult) -> None:
    """Fill the round's readings, updates, ledger and facts; check them."""
    ids = [s.source_id for s in mix]
    facts = result.facts
    if name == "federation":
        report = engine.report()
        sources = engine.sources
        readings = sum(sources[sid].samples_seen for sid in ids)
        updates = sum(sources[sid].updates_sent for sid in ids)
        lost = report.source_lost + report.peer_lost
        in_flight = report.source_in_flight + report.peer_in_flight
        facts["bytes"] = (
            engine.source_fabric.total_bytes()
            + engine.peer_fabric.total_bytes()
        )
        facts["peer_frames"] = report.peer_offered
        facts["source_frames"] = report.source_offered
        facts["consensus_rounds"] = report.consensus_rounds
        ledger = {
            sid: (
                sources[sid].updates_sent,
                engine.peer(engine.home_of(sid)).server.stats(sid)[
                    "updates_received"
                ],
            )
            for sid in ids
        }
    else:
        report = engine.report()
        readings, updates = report.readings, report.updates_sent
        lost, in_flight = report.messages_lost, report.in_flight
        if name == "scalar":
            facts["bytes"] = report.bytes_delivered
        stats = engine.stats if name == "batch" else engine.server.stats
        ledger = {sid: _ledger_row(stats(sid)) for sid in ids}
    expected = len(mix) * _ticks(mix)
    if readings != expected:
        raise AssertionError(f"{name}: {readings} readings, want {expected}")
    if lost:
        raise AssertionError(f"{name}: {lost} messages lost")
    if in_flight:
        raise AssertionError(f"{name}: {in_flight} messages in flight")
    result.readings, result.updates, result.ledger = readings, updates, ledger


def _ticks(mix: list[Source]) -> int:
    return mix[0].values.shape[0]


def _ledger_row(stats: dict) -> tuple:
    return tuple(
        stats[key]
        for key in (
            "updates_received",
            "resyncs_received",
            "heartbeats_received",
            "expected_seq",
            "last_k",
        )
    )


def ledger(name: str, mix: list[Source], workdir: Path) -> dict:
    """Run one untimed round; its per-source ledger, keyed by source id.

    A row holds the server's updates, resyncs and heartbeats received,
    its next expected sequence number and last sampling instant.
    """
    engine = build_engine(name, mix, workdir)
    for _ in range(_ticks(mix)):
        engine.step()
    engine.settle()
    result = RoundResult(0.0)
    _books(name, engine, mix, result)
    return result.ledger


#: Host-speed probes taken on either side of a build.
_BUILD_PROBES = 5


def timed_build(
    name: str, mix: list[Source], workdir: Path, speed: HostSpeed,
    setups: list,
):
    """Build the engine; append ``(start, seconds)`` of the build to
    ``setups`` and probe the host on either side of it."""
    speed.probe(_BUILD_PROBES)
    started = time.perf_counter()
    engine = build_engine(name, mix, workdir)
    setups.append((started, time.perf_counter() - started))
    speed.probe(_BUILD_PROBES)
    return engine


def run_round(
    name: str,
    mix: list[Source],
    audit: DeltaAudit,
    workdir: Path,
    speed: HostSpeed,
    setups: list,
    tracer=None,
) -> RoundResult:
    """One timed round; the audit and ``setups`` accumulate across rounds.

    With a tracer, spans are recorded during the timed loop only.
    """
    spec = WORKLOADS[name]
    clock, cpu = time.perf_counter, time.process_time
    engine = timed_build(name, mix, workdir, speed, setups)
    result = RoundResult(setups[-1][1])
    if tracer is not None:
        tracer.enabled = True
    for tick in range(_ticks(mix)):
        speed.probe()
        wall0, cpu0 = clock(), cpu()
        engine.step()
        stepped = clock()
        answers = None
        if (tick + 1) % spec.answer_every == 0:
            answers = engine.answers()
        done, cpu1 = clock(), cpu()
        result.started.append(wall0)
        result.tick_ms.append((done - wall0) * 1e3)
        result.step_ms.append((stepped - wall0) * 1e3)
        result.cpu_ms.append((cpu1 - cpu0) * 1e3)
        if answers is not None:
            result.answer_ticks.append(tick)
            if len(answers) != len(mix):
                raise AssertionError(
                    f"{name}: {len(answers)} answers for {len(mix)} queries"
                )
            audit.check(answers)
    if tracer is not None:
        tracer.enabled = False
    speed.probe(_BUILD_PROBES)
    result.factor = speed.factors(result.started)
    engine.settle()
    _books(name, engine, mix, result)
    return result


def workload_inputs(name: str, seed: int) -> list[Source]:
    return reference_mix(seed, WORKLOADS[name].sources, TICKS)


#: Build-only set-ups before every round but the first, on top of the
#: round's own build: up to ``_SETUP_REPS`` while they and that build
#: take under ``_SETUP_BUDGET_S``.  Spread over the run, they sample the
#: machine at many moments instead of one.
_SETUP_REPS = 25
_SETUP_BUDGET_S = 0.25


#: Traced runs alternate this many untraced and traced rounds, so drift
#: in the machine's speed cancels out of the tracing overhead.
TRACE_PAIRS = 2


def run(
    name: str,
    seed: int,
    seconds: float,
    workroot: Path,
    tracer=None,
) -> dict:
    """Rounds until ``seconds`` pass (at least three); metrics + checks.

    With a tracer (its wrappers installed), run ``TRACE_PAIRS`` pairs of
    rounds instead, the first of each pair with the wrappers removed:
    the metrics are those of the traced rounds, whose counts repeat
    exactly, and ``untraced_metrics`` those of the others.
    """
    mix = workload_inputs(name, seed)
    check_offered(mix)
    audit = DeltaAudit(mix)
    speed = HostSpeed()
    done: list[RoundResult] = []
    traced: list[bool] = []
    setups: list[tuple[float, float]] = []

    def workdir() -> Path:
        return Path(tempfile.mkdtemp(prefix=f"{name}-", dir=workroot))

    def keep_going() -> bool:
        if tracer is not None:
            return len(done) < 2 * TRACE_PAIRS
        return len(done) < 3 or time.perf_counter() - started < seconds

    if tracer is not None:
        tracer.uninstall()
    started = time.perf_counter()
    while keep_going():
        extra = 0
        spent = 0.0
        while (
            done
            and extra < _SETUP_REPS
            and spent + done[-1].setup_s < _SETUP_BUDGET_S
        ):
            path = workdir()
            try:
                timed_build(name, mix, path, speed, setups)
            finally:
                shutil.rmtree(path, ignore_errors=True)
            extra += 1
            spent += setups[-1][1]
        tracing = tracer is not None and len(done) % 2 == 1
        if tracing:
            tracer.reinstall()
        path = workdir()
        try:
            done.append(
                run_round(
                    name, mix, audit, path, speed, setups,
                    tracer if tracing else None,
                )
            )
        finally:
            shutil.rmtree(path, ignore_errors=True)
            if tracing:
                tracer.uninstall()
        traced.append(tracing)
    check_offered(mix)
    first = done[0]
    for other in done[1:]:
        if other.ledger != first.ledger:
            raise AssertionError(f"{name}: rounds sent different updates")
    if audit.violations:
        raise AssertionError(
            f"{name}: {audit.violations} unflagged answers outside delta"
        )
    if tracer is None:
        rounds = done
    else:
        rounds = [r for r, t in zip(done, traced) if t]
    facts = {
        key: sum(r.facts[key] for r in rounds) for key in first.facts
    }
    facts["wall_s"] = sum(r.loop_s for r in rounds)
    setup_factors = speed.factors([at for at, _ in setups])
    scaled_setups = [s / f for (_, s), f in zip(setups, setup_factors)]
    result = {
        "rounds": len(done),
        "digest": digest(mix),
        "facts": facts,
        "attempted": audit.answers,
        "failed": audit.violations,
        "samples": {
            "ticks": sum(len(r.tick_ms) for r in rounds),
            "queries": sum(len(r.answer_ticks) for r in rounds),
            "setups": len(setups),
        },
        "host_speed": speed.overall(),
        "metrics": _metrics(rounds, scaled_setups, audit),
        "raw_metrics": _metrics(
            rounds, [s for _, s in setups], audit, raw=True
        ),
    }
    if tracer is not None:
        untraced = [r for r, t in zip(done, traced) if not t]
        result["untraced_metrics"] = _metrics(untraced, scaled_setups, audit)
    return result


def _metrics(
    rounds: list[RoundResult],
    setups: list[float],
    audit: DeltaAudit,
    raw: bool = False,
) -> dict[str, float]:
    """The end-to-end metrics; times scaled by host speed unless ``raw``."""

    def series(r: RoundResult, name: str) -> np.ndarray:
        return r.series(name, scaled=not raw)

    def percentile(name: str, q: float) -> float:
        # Every round replays the same ticks, so each tick has one time
        # per round.  Each tick keeps its fastest half (rounded up), and
        # the percentile is taken over all that are kept: a stall of the
        # host drops out, a tick the program makes slower in every
        # round stays.
        times = np.sort([series(r, name) for r in rounds], axis=0)
        return float(np.percentile(times[: (len(rounds) + 1) // 2], q))

    def per_second(count: str, name: str) -> float:
        return float(np.median([
            getattr(r, count) / (series(r, name).sum() / 1e3) for r in rounds
        ]))

    first = rounds[0]
    return {
        "setup_s": float(np.median(setups)),
        "readings_per_s": per_second("readings", "tick"),
        "tick_p50_ms": percentile("tick", 50),
        "tick_p99_ms": percentile("tick", 99),
        "update_pct": 100.0 * first.updates / first.readings,
        "answer_err_mean": audit.error_mean,
        "query_p50_ms": percentile("query", 50),
        "query_p99_ms": percentile("query", 99),
        "freshness_p50_ms": percentile("step", 50),
        "freshness_p99_ms": percentile("step", 99),
        "updates_per_cpu_s": per_second("updates", "cpu"),
    }
