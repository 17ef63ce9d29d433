"""Chaos parity: the batch engine survives what the scalar engine survives.

The full drill from the resilience suite -- burst loss, NaN sensor
fault, spike fault, a source crash/restart, a mid-run server crash with
checkpoint+WAL recovery -- runs on both engines with identical seeds.
Everything observable must match: the recovery summary, the watchdog
trip ledger, every link counter, every server stat, every answer.
"""

import numpy as np
import pytest

from repro.dkf.config import TransportPolicy
from repro.dsms.engine import StreamEngine
from repro.dsms.faults import FaultSchedule
from repro.dsms.query import ContinuousQuery
from repro.errors import ConfigurationError
from repro.filters.models import linear_model
from repro.resilience.config import ResilienceConfig
from repro.resilience.supervisor import RestartPolicy
from repro.resilience.watchdog import WatchdogPolicy
from repro.scale.engine import BatchStreamEngine
from repro.streams.base import stream_from_values

T = 300
CRASH_AT, RECOVER_AT = 225, 235
MODEL = linear_model(dims=1)
DELTAS = {"hi": 1.0, "mid": 1.5, "lo": 2.0}


def _truth():
    rng = np.random.default_rng(7)
    return {
        "hi": np.cumsum(rng.normal(0.4, 1.0, T)),
        "mid": np.cumsum(rng.normal(-0.2, 1.2, T)),
        "lo": np.cumsum(rng.normal(0.0, 0.8, T)),
    }


def _schedule():
    return (
        FaultSchedule(seed=7)
        .burst_loss("hi", p_enter=0.05, p_exit=0.3)
        .sensor("mid", "nan", start=80, duration=12)
        .sensor("lo", "spike", start=120, duration=6, magnitude=40.0)
        .crash("lo", at=150, restart_at=160)
    )


def _build(cls, ckdir, truth):
    res = ResilienceConfig(
        checkpoint_dir=ckdir,
        checkpoint_every=50,
        watchdog=WatchdogPolicy(),
        restart=RestartPolicy(),
    )
    eng = cls(resilience=res)
    for sid, vals in truth.items():
        eng.add_source(
            sid,
            MODEL,
            stream_from_values(vals, name=sid),
            transport=TransportPolicy(ack_timeout_ticks=4),
        )
    for sid in truth:
        eng.submit_query(
            ContinuousQuery(source_id=sid, delta=DELTAS[sid], query_id=f"q-{sid}")
        )
    eng.inject_faults(_schedule())
    return eng


def _drive(eng):
    recovery = None
    for _ in range(T):
        tick = eng.ticks
        if tick == CRASH_AT:
            eng.crash_server()
        if tick == RECOVER_AT:
            recovery = eng.recover()
        eng.step()
    eng.settle()
    return recovery


@pytest.fixture(scope="module")
def drilled(tmp_path_factory):
    truth = _truth()
    scalar = _build(StreamEngine, tmp_path_factory.mktemp("ck-scalar"), truth)
    batch = _build(
        BatchStreamEngine, tmp_path_factory.mktemp("ck-batch"), truth
    )
    return scalar, batch, _drive(scalar), _drive(batch)


def test_recovery_summaries_identical(drilled):
    _, _, rec_a, rec_b = drilled
    assert rec_a is not None
    assert rec_a == rec_b
    assert rec_a["restored_sources"] == 3
    assert rec_a["wal_replayed"] > 0
    assert rec_a["dropped_while_down"] > 0


def test_reports_identical_under_chaos(drilled):
    scalar, batch, _, _ = drilled
    ra, rb = scalar.report().to_dict(), batch.report().to_dict()
    assert ra == rb
    assert rb["messages_lost"] > 0  # burst loss actually fired
    assert rb["retransmits"] > 0


def test_server_stats_identical_under_chaos(drilled):
    scalar, batch, _, _ = drilled
    for sid in DELTAS:
        assert scalar.server.stats(sid) == batch.stats(sid)
    # The NaN window must have been rejected, not folded in.
    assert batch.stats("mid")["rejected_nonfinite"] == 0  # rejected at source
    assert scalar.server.stats("hi")["gaps_detected"] > 0


def test_watchdog_ledgers_identical(drilled):
    scalar, batch, _, _ = drilled
    wa, wb = scalar.resilience_report(), batch.resilience_report()
    assert wa.get("watchdog") == wb.get("watchdog")
    assert wa["dropped_while_down"] == wb["dropped_while_down"]
    assert wa["recoveries"] == wb["recoveries"] == 1


def test_answers_identical_under_chaos(drilled):
    scalar, batch, _, _ = drilled
    ans_a = {x.query_id: x for x in scalar.answers()}
    ans_b = {x.query_id: x for x in batch.answers()}
    assert set(ans_a) == set(ans_b)
    for qid, a in ans_a.items():
        b = ans_b[qid]
        delta = np.abs(np.array(a.value) - np.array(b.value)).max()
        assert delta <= 1e-9, (qid, delta)
        for field in ("k", "precision", "staleness_ticks", "degraded",
                      "quarantined"):
            assert getattr(a, field) == getattr(b, field), (qid, field)


def test_checkpoint_restart_cold(tmp_path):
    """A fresh batch engine recovers from another run's checkpoint dir."""
    truth = _truth()
    first = _build(BatchStreamEngine, tmp_path, truth)
    for _ in range(120):
        first.step()
    saved = first.checkpoint()
    assert saved > 0
    snapshot = first.checkpoint_store.load()
    assert snapshot is not None
    assert set(snapshot["sources"]) == set(DELTAS)
    fresh = _build(BatchStreamEngine, tmp_path, truth)
    summary = fresh.recover()
    assert summary["restored_sources"] == len(DELTAS)
    assert summary["wal_replayed"] == 0
    for sid in DELTAS:
        assert fresh.stats(sid) == first.stats(sid)
        np.testing.assert_array_equal(fresh.value(sid), first.value(sid))


SWAP_AT, AFTER_SWAP = 120, 30


def _recover_from(eng, snapshot_dir):
    """Crash ``eng`` and recover it from the checkpoint in ``snapshot_dir``."""
    source = snapshot_dir / "checkpoint.ckpt"
    eng.checkpoint_store.checkpoint_path.write_bytes(source.read_bytes())
    eng.crash_server()
    return eng.recover()


@pytest.mark.parametrize(
    "cls, other",
    [(StreamEngine, BatchStreamEngine), (BatchStreamEngine, StreamEngine)],
    ids=["scalar-reads-batch", "batch-reads-scalar"],
)
def test_checkpoint_readable_by_the_other_engine(tmp_path, cls, other):
    """An engine recovered from the other engine's checkpoint answers
    exactly like one recovered from its own."""
    truth = _truth()
    own = _build(cls, tmp_path / "own", truth)
    crossed = _build(cls, tmp_path / "crossed", truth)
    donor = _build(other, tmp_path / "donor", truth)
    for eng in (own, crossed, donor):
        for _ in range(SWAP_AT):
            eng.step()
        eng.checkpoint()
    rec_own = _recover_from(own, tmp_path / "own")
    rec_crossed = _recover_from(crossed, tmp_path / "donor")
    assert rec_crossed == rec_own
    assert rec_crossed["restored_sources"] == len(DELTAS)
    for _ in range(AFTER_SWAP):
        own.step()
        crossed.step()
    ans_own = {x.query_id: x for x in own.answers()}
    ans_crossed = {x.query_id: x for x in crossed.answers()}
    assert set(ans_own) == set(ans_crossed) == {f"q-{s}" for s in DELTAS}
    for qid, a in ans_own.items():
        b = ans_crossed[qid]
        delta = np.abs(np.array(a.value) - np.array(b.value)).max()
        assert delta <= 1e-9, (qid, delta)
        for field in ("k", "precision", "staleness_ticks", "degraded",
                      "quarantined"):
            assert getattr(a, field) == getattr(b, field), (qid, field)
    assert own.report() == crossed.report()


def test_quarantine_on_persistent_nan(tmp_path):
    """A sensor stuck on NaN walks the ladder into quarantine on both."""
    rng = np.random.default_rng(3)
    vals = np.cumsum(rng.normal(0.1, 1.0, 200))

    def build(cls, ckdir):
        res = ResilienceConfig(
            watchdog=WatchdogPolicy(
                reject_limit=3, escalation_grace_ticks=2, hysteresis_ticks=4
            ),
            restart=RestartPolicy(),
            checkpoint_dir=ckdir,
        )
        eng = cls(resilience=res)
        eng.add_source("s0", MODEL, stream_from_values(vals, name="s0"))
        eng.submit_query(
            ContinuousQuery(source_id="s0", delta=1.0, query_id="q0")
        )
        eng.inject_faults(
            FaultSchedule(seed=1).sensor("s0", "nan", start=50, duration=150)
        )
        return eng

    a = build(StreamEngine, tmp_path / "a")
    b = build(BatchStreamEngine, tmp_path / "b")
    a.run()
    b.run()
    wa, wb = a.resilience_report(), b.resilience_report()
    assert wa.get("watchdog") == wb.get("watchdog")
    (ans_a,) = a.answers()
    (ans_b,) = b.answers()
    assert ans_a.quarantined == ans_b.quarantined
    assert ans_a.degraded == ans_b.degraded
    assert a.server.stats("s0") == b.stats("s0")


def test_crash_recover_requires_resilience():
    eng = BatchStreamEngine()
    eng.add_source("s0", MODEL, stream_from_values(np.zeros(10), name="s0"))
    with pytest.raises(ConfigurationError):
        eng.crash_server()
    with pytest.raises(ConfigurationError):
        eng.recover()
    with pytest.raises(ConfigurationError):
        eng.checkpoint()


def test_rebalance_split_preserves_results(tmp_path):
    """Forcing a mid-run shard split must not change any outcome."""
    truth = _truth()
    plain = _build_plain(truth)
    split = _build_plain(truth, latency_budget_us=0.0)
    plain.run()
    split.run()
    assert split.scale_report()["rebalances"] > 0
    assert len(split.shards) > len(plain.shards)
    assert plain.report().to_dict() == split.report().to_dict()
    for sid in DELTAS:
        assert plain.stats(sid) == split.stats(sid)


def _build_plain(truth, **kw):
    eng = BatchStreamEngine(**kw)
    for sid, vals in truth.items():
        eng.add_source(sid, MODEL, stream_from_values(vals, name=sid))
        eng.submit_query(
            ContinuousQuery(source_id=sid, delta=DELTAS[sid], query_id=f"q-{sid}")
        )
    return eng


class TestLinkFaultsAreScalarOnly:
    """The batch transport is synchronous: there is no link pipeline to
    sever or slow, so partition/asymmetric schedules must be rejected
    loudly instead of silently doing nothing."""

    def _engine(self):
        eng = BatchStreamEngine()
        eng.add_source(
            "s0", MODEL, stream_from_values(np.zeros(8), name="s0")
        )
        eng.submit_query(ContinuousQuery("s0", delta=1.0, query_id="q"))
        return eng

    def test_partition_schedule_rejected(self):
        with pytest.raises(ConfigurationError):
            self._engine().inject_faults(
                FaultSchedule().partition({"s0"}, {"server"}, at=10)
            )

    def test_asymmetric_schedule_rejected(self):
        with pytest.raises(ConfigurationError):
            self._engine().inject_faults(
                FaultSchedule().asymmetric_link("s0", 3, at=0, duration=5)
            )

    def test_plain_schedules_still_accepted(self):
        self._engine().inject_faults(
            FaultSchedule().crash("s0", at=2, restart_at=4)
        )
