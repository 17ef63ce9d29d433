"""Which program calls the traced run wraps, and the per-layer metrics.

Layer names are ``src/repro`` module names.  Every span is named
``<layer>.<method>``.  Metrics of a layer that a workload bypasses read
0: that is the prediction for it (README.md, "Layer to end-to-end map").
"""

from __future__ import annotations

import numpy as np

from perfbench.tracing import Ledger, Tracer
from repro.dkf.server import DKFServer
from repro.dkf.source import DKFSource
from repro.dsms.engine import StreamEngine
from repro.dsms.network import NetworkFabric
from repro.federation.cluster import FederatedCluster
from repro.filters.kalman import KalmanFilter
from repro.resilience.checkpoint import CheckpointStore
from repro.scale.engine import BatchStreamEngine
from repro.scale.shard import ShardRuntime
from repro.scale.vector_bank import VectorKalmanBank
from repro.wire.fleet import LiteFleet
from repro.wire.query import QueryServer
from repro.wire.server import WireServer

#: (metric, unit, better): the ``per_layer`` list of BENCHMARK.json.
PER_LAYER = (
    ("filters.kalman.predict_calls", "count", "lower"),
    ("filters.kalman.predict_us", "us", "lower"),
    ("filters.kalman.update_calls", "count", "lower"),
    ("filters.kalman.update_us", "us", "lower"),
    ("dkf.source.sample_us", "us", "lower"),
    ("dkf.source.send_ratio", "%", "lower"),
    ("dkf.server.receive_us", "us", "lower"),
    ("dkf.server.receive_calls", "count", "lower"),
    ("dsms.network.send_us", "us", "lower"),
    ("dsms.network.advance_us", "us", "lower"),
    ("dsms.network.bytes", "bytes", "lower"),
    ("dsms.engine.step_self_us", "us", "lower"),
    ("dsms.engine.answers_us", "us", "lower"),
    ("resilience.checkpoint.save_ms", "ms", "lower"),
    ("resilience.checkpoint.wal_append_us", "us", "lower"),
    ("resilience.checkpoint.wal_records", "count", "lower"),
    ("scale.shard.step_us_per_row", "us", "lower"),
    ("scale.shard.flush_acks_us", "us", "lower"),
    ("scale.shard.slow_path_rows", "count", "lower"),
    ("scale.vector_bank.predict_us_per_row", "us", "lower"),
    ("scale.vector_bank.update_us_per_row", "us", "lower"),
    ("scale.vector_bank.update_rows_ratio", "ratio", "lower"),
    ("scale.engine.answers_us", "us", "lower"),
    ("federation.cluster.step_self_us", "us", "lower"),
    ("federation.cluster.peer_frames", "count", "lower"),
    ("federation.cluster.source_frames", "count", "lower"),
    ("federation.cluster.consensus_rounds", "count", "lower"),
    ("wire.fleet.step_tick_ms", "ms", "lower"),
    ("wire.server.process_tick_ms", "ms", "lower"),
    ("wire.server.us_per_applied_update", "us", "lower"),
    ("wire.server.frames_decoded", "count", "higher"),
    ("wire.server.frames_rejected", "count", "lower"),
    ("wire.server.inbox_depth_max", "count", "lower"),
    ("wire.query.dispatch_us", "us", "lower"),
    ("wire.loop.busy_pct", "%", "lower"),
    ("bench.generator_lag_p99_ms", "ms", "lower"),
    ("bench.trace_overhead_pct", "%", "lower"),
    ("bench.attributed_pct", "%", "higher"),
    ("bench.residual_pct", "%", "lower"),
)

UNITS = {name: unit for name, unit, _ in PER_LAYER}


def _rows(args, result) -> int:
    return int(np.size(args[1]))


def _sent(args, result) -> int:
    return int(result.message is not None)


def _returned(args, result) -> int:
    return int(result)


def install(tracer: Tracer) -> None:
    """Wrap every traced public call (and one count-only hook)."""
    for owner, attr, name, work in (
        (KalmanFilter, "predict", "filters.kalman.predict", None),
        (KalmanFilter, "update", "filters.kalman.update", None),
        (DKFSource, "sample", "dkf.source.sample", _sent),
        (DKFServer, "receive", "dkf.server.receive", None),
        (NetworkFabric, "send", "dsms.network.send", None),
        (NetworkFabric, "advance", "dsms.network.advance", None),
        (StreamEngine, "step", "dsms.engine.step", None),
        (StreamEngine, "answers", "dsms.engine.answers", None),
        (BatchStreamEngine, "step", "scale.engine.step", None),
        (BatchStreamEngine, "answers", "scale.engine.answers", None),
        (CheckpointStore, "save", "resilience.checkpoint.save", None),
        (CheckpointStore, "wal_append", "resilience.checkpoint.wal_append",
         None),
        (ShardRuntime, "step", "scale.shard.step", _returned),
        (ShardRuntime, "flush_acks", "scale.shard.flush_acks", None),
        (VectorKalmanBank, "predict", "scale.vector_bank.predict", _rows),
        (VectorKalmanBank, "update", "scale.vector_bank.update", _rows),
        (FederatedCluster, "step", "federation.cluster.step", None),
        (LiteFleet, "step_tick", "wire.fleet.step_tick", None),
        (WireServer, "process_tick", "wire.server.process_tick", None),
        (QueryServer, "dispatch_line", "wire.query.dispatch_line", None),
    ):
        tracer.wrap(owner, attr, name, work)
    # No public call marks the shard's per-row slow path; count its rows
    # at the private entry point instead (no span).
    tracer.count(
        ShardRuntime, "_send_slow", "scale.shard.slow_path_rows",
        lambda args, result: 1,
    )


def _ratio(numerator: float, denominator: float, scale: float = 1.0) -> float:
    return numerator / denominator * scale if denominator else 0.0


def metrics(ledger: Ledger, tracer: Tracer, facts: dict) -> dict[str, float]:
    """Every per-layer metric from the traced spans and run facts.

    ``facts`` carries what spans cannot give: ``wall_s`` (the traced
    wall time the ledger must account for), network ``bytes``,
    federation frame counts, wire counters and the applied updates of
    the traced window, the generator lag and the tracing overhead.
    """
    us, ms = 1e6, 1e3
    dispatch = "wire.query.dispatch_line"

    def busy_s(name: str) -> float:
        # A tick phase's own time: its duration minus the queries other
        # tasks served while it awaited.
        return ledger.duration_s(name) - ledger.nested_s(name, dispatch)

    def busy_per_call(name: str, scale: float) -> float:
        return _ratio(busy_s(name), ledger.calls(name), scale)

    sample = "dkf.source.sample"
    attributed = sum(ledger.self_by_name().values())
    wall = facts["wall_s"]
    applied = facts.get("applied_updates", 0)
    out = {
        "filters.kalman.predict_calls": ledger.calls("filters.kalman.predict"),
        "filters.kalman.predict_us": ledger.per_call(
            "filters.kalman.predict", us
        ),
        "filters.kalman.update_calls": ledger.calls("filters.kalman.update"),
        "filters.kalman.update_us": ledger.per_call(
            "filters.kalman.update", us
        ),
        "dkf.source.sample_us": ledger.per_call(sample, us),
        "dkf.source.send_ratio": _ratio(
            ledger.work(sample), ledger.calls(sample), 100.0
        ),
        "dkf.server.receive_us": ledger.per_call("dkf.server.receive", us),
        "dkf.server.receive_calls": ledger.calls("dkf.server.receive"),
        "dsms.network.send_us": ledger.per_call("dsms.network.send", us),
        "dsms.network.advance_us": ledger.per_call(
            "dsms.network.advance", us
        ),
        "dsms.network.bytes": facts.get("bytes", 0),
        "dsms.engine.step_self_us": ledger.per_call("dsms.engine.step", us),
        "dsms.engine.answers_us": ledger.per_call("dsms.engine.answers", us),
        "resilience.checkpoint.save_ms": ledger.per_call(
            "resilience.checkpoint.save", ms
        ),
        "resilience.checkpoint.wal_append_us": ledger.per_call(
            "resilience.checkpoint.wal_append", us
        ),
        "resilience.checkpoint.wal_records": ledger.calls(
            "resilience.checkpoint.wal_append"
        ),
        "scale.shard.step_us_per_row": ledger.per_work("scale.shard.step", us),
        "scale.shard.flush_acks_us": ledger.per_call(
            "scale.shard.flush_acks", us
        ),
        "scale.shard.slow_path_rows": tracer.counts.get(
            "scale.shard.slow_path_rows", 0
        ),
        "scale.vector_bank.predict_us_per_row": ledger.per_work(
            "scale.vector_bank.predict", us
        ),
        "scale.vector_bank.update_us_per_row": ledger.per_work(
            "scale.vector_bank.update", us
        ),
        "scale.vector_bank.update_rows_ratio": _ratio(
            ledger.work("scale.vector_bank.update"),
            ledger.work("scale.vector_bank.predict"),
        ),
        "scale.engine.answers_us": ledger.per_call("scale.engine.answers", us),
        "federation.cluster.step_self_us": ledger.per_call(
            "federation.cluster.step", us
        ),
        "federation.cluster.peer_frames": facts.get("peer_frames", 0),
        "federation.cluster.source_frames": facts.get("source_frames", 0),
        "federation.cluster.consensus_rounds": facts.get(
            "consensus_rounds", 0
        ),
        "wire.fleet.step_tick_ms": busy_per_call("wire.fleet.step_tick", ms),
        "wire.server.process_tick_ms": busy_per_call(
            "wire.server.process_tick", ms
        ),
        "wire.server.us_per_applied_update": _ratio(
            busy_s("wire.server.process_tick"), applied, us
        ),
        "wire.server.frames_decoded": facts.get("frames_decoded", 0),
        "wire.server.frames_rejected": facts.get("frames_rejected", 0),
        "wire.server.inbox_depth_max": facts.get("inbox_depth_max", 0),
        "wire.query.dispatch_us": ledger.per_call(dispatch, us),
        "wire.loop.busy_pct": _ratio(
            busy_s("wire.fleet.step_tick")
            + busy_s("wire.server.process_tick"),
            wall,
            100.0,
        ),
        "bench.generator_lag_p99_ms": facts.get("generator_lag_p99_ms", 0.0),
        "bench.trace_overhead_pct": facts["trace_overhead_pct"],
        "bench.attributed_pct": _ratio(attributed, wall, 100.0),
        "bench.residual_pct": 100.0 - _ratio(attributed, wall, 100.0),
    }
    return {
        name: int(value) if isinstance(value, (int, np.integer)) else float(value)
        for name, value in out.items()
    }


def self_time_report(ledger: Ledger, wall_s: float) -> list[dict]:
    """Self time per span name, largest first, with its share of wall."""
    rows = [
        {
            "span": name,
            "calls": ledger.calls(name),
            "self_s": seconds,
            "share_pct": _ratio(seconds, wall_s, 100.0),
        }
        for name, seconds in ledger.self_by_name().items()
    ]
    return sorted(rows, key=lambda row: -row["self_s"])
