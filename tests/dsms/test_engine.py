"""Integration tests for the multi-source DSMS engine."""

import numpy as np
import pytest

from repro.dsms.engine import StreamEngine
from repro.dsms.network import LinkConfig
from repro.dsms.query import ContinuousQuery
from repro.errors import UnknownSourceError
from repro.filters.models import constant_model, linear_model
from repro.streams.base import stream_from_values


def ramp(n=100, slope=2.0):
    return stream_from_values(np.arange(n, dtype=float) * slope, name="ramp")


def make_engine(n=100):
    engine = StreamEngine()
    engine.add_source("s0", linear_model(dims=1, dt=1.0), ramp(n))
    return engine


class TestLifecycle:
    def test_run_to_exhaustion(self):
        engine = make_engine(50)
        engine.submit_query(ContinuousQuery("s0", delta=1.0, query_id="q"))
        ticks = engine.run()
        assert ticks >= 50
        report = engine.report()
        assert report.readings == 50

    def test_max_ticks_respected(self):
        engine = make_engine(100)
        engine.submit_query(ContinuousQuery("s0", delta=1.0, query_id="q"))
        engine.run(max_ticks=10)
        assert engine.report().readings == 10

    def test_unqueried_source_not_driven(self):
        engine = make_engine(20)
        engine.step()
        assert engine.report().readings == 0

    def test_answers_after_run(self):
        engine = make_engine(30)
        engine.submit_query(ContinuousQuery("s0", delta=1.0, query_id="q"))
        engine.run()
        answers = engine.answers()
        assert len(answers) == 1
        answer = answers[0]
        assert answer.query_id == "q"
        # Ramp of slope 2: the final value is near 2 * 29.
        assert abs(answer.value[0] - 58.0) <= 1.0 + 1e-9

    def test_answer_lookup(self):
        engine = make_engine(10)
        engine.submit_query(ContinuousQuery("s0", delta=1.0, query_id="q"))
        engine.run()
        assert engine.answer("q").query_id == "q"
        with pytest.raises(UnknownSourceError):
            engine.answer("ghost")


class TestMultiQuery:
    def test_tightest_delta_installed(self):
        engine = make_engine(50)
        engine.submit_query(ContinuousQuery("s0", delta=10.0, query_id="loose"))
        engine.submit_query(ContinuousQuery("s0", delta=2.0, query_id="tight"))
        engine.run()
        for answer in engine.answers():
            assert answer.precision == 2.0

    def test_loosening_query_does_not_reinstall(self):
        engine = make_engine(50)
        engine.submit_query(ContinuousQuery("s0", delta=2.0, query_id="tight"))
        engine.run(max_ticks=10)
        updates_before = engine.report().updates_sent
        engine.submit_query(ContinuousQuery("s0", delta=10.0, query_id="loose"))
        # The installed filter (delta=2) already satisfies delta=10; no
        # reinstall means the source keeps its accumulated state.
        engine.run(max_ticks=10)
        assert engine.report().updates_sent >= updates_before

    def test_retire_reverts_to_remaining_query(self):
        engine = make_engine(100)
        engine.submit_query(ContinuousQuery("s0", delta=10.0, query_id="loose"))
        engine.submit_query(ContinuousQuery("s0", delta=2.0, query_id="tight"))
        engine.retire_query("tight")
        engine.run(max_ticks=10)
        assert engine.answers()[0].precision == 10.0

    def test_retiring_last_query_tears_down(self):
        engine = make_engine(20)
        engine.submit_query(ContinuousQuery("s0", delta=1.0, query_id="q"))
        engine.retire_query("q")
        assert engine.answers() == []
        engine.step()  # no queried sources; nothing crashes
        assert engine.report().readings == 0


class TestMultiSource:
    def test_independent_sources(self):
        engine = StreamEngine()
        engine.add_source("a", linear_model(dims=1, dt=1.0), ramp(40, slope=1.0))
        engine.add_source("b", constant_model(dims=1), ramp(40, slope=0.0))
        engine.submit_query(ContinuousQuery("a", delta=1.0, query_id="qa"))
        engine.submit_query(ContinuousQuery("b", delta=1.0, query_id="qb"))
        engine.run()
        report = engine.report()
        assert report.readings == 80
        # The constant stream needs only its priming update.
        assert engine.server.stats("b")["updates_received"] == 1

    def test_per_source_energy_reported(self):
        engine = StreamEngine()
        engine.add_source("a", linear_model(dims=1, dt=1.0), ramp(30))
        engine.submit_query(ContinuousQuery("a", delta=1.0, query_id="qa"))
        engine.run()
        report = engine.report()
        assert "a" in report.per_source_energy
        assert report.total_energy_joules > 0


class TestRegistrationEdges:
    def test_duplicate_source_rejected(self):
        from repro.errors import DuplicateSourceError

        engine = make_engine(10)
        with pytest.raises(DuplicateSourceError):
            engine.add_source("s0", constant_model(dims=1), ramp(10))

    def test_retire_unknown_query_rejected(self):
        from repro.errors import QueryError

        engine = make_engine(10)
        with pytest.raises(QueryError):
            engine.retire_query("ghost")

    def test_query_on_unknown_source_rejected(self):
        from repro.errors import UnknownSourceError

        engine = make_engine(10)
        with pytest.raises(UnknownSourceError):
            engine.submit_query(ContinuousQuery("ghost", delta=1.0))

    def test_stepping_after_full_retire_is_noop(self):
        engine = make_engine(10)
        engine.submit_query(ContinuousQuery("s0", delta=1.0, query_id="q"))
        engine.run(max_ticks=3)
        engine.retire_query("q")
        readings_before = engine.report().readings
        engine.step()
        assert engine.report().readings == readings_before

    def test_requery_after_retire_reinstalls(self):
        engine = make_engine(50)
        engine.submit_query(ContinuousQuery("s0", delta=1.0, query_id="q1"))
        engine.run(max_ticks=5)
        engine.retire_query("q1")
        engine.submit_query(ContinuousQuery("s0", delta=1.0, query_id="q2"))
        engine.run(max_ticks=5)
        # The new installation re-primed: the server holds an answer again.
        assert engine.server.is_primed("s0")

    def test_tightening_query_reinstalls_and_loosening_does_not(self):
        engine = make_engine(100)
        engine.submit_query(ContinuousQuery("s0", delta=5.0, query_id="loose"))
        engine.run(max_ticks=5)
        first_install = engine.sources["s0"]
        engine.submit_query(ContinuousQuery("s0", delta=1.0, query_id="tight"))
        second_install = engine.sources["s0"]
        assert second_install is not first_install  # tightened: reinstall
        engine.submit_query(ContinuousQuery("s0", delta=9.0, query_id="wide"))
        third_install = engine.sources["s0"]
        assert third_install is second_install  # loosened: keep filters


class TestEngineReportSerde:
    def run_report(self):
        engine = make_engine(40)
        engine.submit_query(ContinuousQuery("s0", delta=1.0, query_id="q"))
        engine.run()
        return engine.report()

    def test_round_trip(self):
        from repro.dsms.engine import EngineReport

        report = self.run_report()
        rebuilt = EngineReport.from_dict(report.to_dict())
        assert rebuilt == report

    def test_to_dict_is_json_serialisable(self):
        import json

        text = json.dumps(self.run_report().to_dict())
        decoded = json.loads(text)
        assert decoded["readings"] == 40
        assert "s0" in decoded["per_source_energy"]

    def test_from_dict_rejects_malformed(self):
        from repro.dsms.engine import EngineReport
        from repro.errors import ConfigurationError

        good = self.run_report().to_dict()
        bad = dict(good)
        del bad["ticks"]
        with pytest.raises(ConfigurationError):
            EngineReport.from_dict(bad)
        bad = dict(good)
        bad["per_source_energy"] = {"s0": {"bogus_field": 1}}
        with pytest.raises(ConfigurationError):
            EngineReport.from_dict(bad)


class TestTrafficConservation:
    """offered == delivered + lost + corrupted + in_flight, always."""

    def make_faulty_engine(self, latency=0):
        from repro.dkf.config import TransportPolicy
        from repro.dsms.faults import FaultSchedule

        rng = np.random.default_rng(23)
        engine = StreamEngine()
        engine.add_source(
            "s0",
            linear_model(dims=1, dt=1.0),
            stream_from_values(
                np.cumsum(rng.normal(0.0, 1.0, size=250)), name="walk"
            ),
            transport=TransportPolicy(ack_timeout_ticks=4),
            link=LinkConfig(latency_ticks=latency),
        )
        engine.submit_query(ContinuousQuery("s0", delta=1.0, query_id="q"))
        engine.inject_faults(
            FaultSchedule(seed=23)
            .burst_loss("s0", p_enter=0.06, p_exit=0.3)
            .corrupt("s0", rate=0.02)
        )
        return engine

    def assert_conserved(self, engine):
        report = engine.report()
        delivered = sum(
            engine.fabric.stats_for(sid).delivered for sid in engine.sources
        )
        offered = report.updates_sent + report.retransmits + report.heartbeats
        assert offered == (
            delivered
            + report.messages_lost
            + report.corrupted
            + report.in_flight
        )

    def test_conserved_after_settled_run(self):
        engine = self.make_faulty_engine()
        engine.run()
        engine.settle()
        self.assert_conserved(engine)
        assert engine.report().messages_lost > 0
        assert engine.report().corrupted > 0

    def test_conserved_mid_run_with_frames_in_flight(self):
        # Data latency keeps frames in flight at the cut; acks stay
        # instantaneous so in_flight counts only data messages.
        engine = self.make_faulty_engine(latency=3)
        engine.run(max_ticks=40)
        assert engine.report().in_flight > 0
        self.assert_conserved(engine)

    def test_conserved_across_crash_and_restart(self):
        # DKFSource.reset() wipes its own counters on restart; the report
        # must keep counting offered traffic from the fabric ledger or
        # the conservation law breaks mid-lifetime.
        from repro.dkf.config import TransportPolicy
        from repro.dsms.faults import FaultSchedule

        rng = np.random.default_rng(23)
        engine = StreamEngine()
        engine.add_source(
            "s0",
            linear_model(dims=1, dt=1.0),
            stream_from_values(
                np.cumsum(rng.normal(0.0, 1.0, size=250)), name="walk"
            ),
            transport=TransportPolicy(ack_timeout_ticks=6),
            link=LinkConfig(latency_ticks=1, ack_latency_ticks=1),
        )
        engine.submit_query(ContinuousQuery("s0", delta=1.0, query_id="q"))
        engine.inject_faults(
            FaultSchedule(seed=23)
            .burst_loss("s0", p_enter=0.06, p_exit=0.3)
            .crash("s0", at=120, restart_at=160)
        )
        engine.run()
        engine.settle()
        report = engine.report()
        # Restart re-primes via resync, so retransmits include it.
        assert report.retransmits > 0
        assert report.messages_lost > 0
        self.assert_conserved(engine)


class TestLossyLinks:
    def test_lossy_link_recovers_via_resync(self):
        engine = StreamEngine()
        # Drop every 2nd message: plenty of ack timeouts on a ramp.
        rng_values = np.concatenate(
            [np.arange(50, dtype=float), np.arange(50, 0, -1, dtype=float)]
        )
        engine.add_source(
            "s0",
            constant_model(dims=1),
            stream_from_values(rng_values),
            link=LinkConfig(loss_fn=lambda i: i % 2 == 1),
        )
        engine.submit_query(ContinuousQuery("s0", delta=0.5, query_id="q"))
        engine.run()
        engine.settle()
        stats = engine.fabric.stats_for("s0")
        assert stats.lost > 0
        # Losses are only discovered through ack timeouts, each cutting a
        # resync retransmission; the exact count depends on which class of
        # message died, but recovery must have happened and converged.
        assert stats.resyncs > 0
        assert engine.report().retransmits > 0
        assert not engine.server.stats("s0")["desynced"]
        assert engine.sources["s0"].pending_acks == 0

    def test_latency_link_delivers_eventually(self):
        engine = StreamEngine()
        engine.add_source(
            "s0",
            constant_model(dims=1),
            ramp(30),
            link=LinkConfig(latency_ticks=2),
        )
        engine.submit_query(ContinuousQuery("s0", delta=0.5, query_id="q"))
        engine.run()
        engine.fabric.advance(engine.ticks + 5)
        stats = engine.fabric.stats_for("s0")
        assert stats.in_flight == 0
        assert stats.delivered > 0
