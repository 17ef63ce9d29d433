"""The engine core's run loop, shared by every facade.

Each test runs under a hard deadline: a run loop that never returns
dumps every thread's stack and fails the suite instead of hanging it.
"""

import faulthandler
import os

import numpy as np
import pytest

from repro.dsms.engine import StreamEngine
from repro.dsms.query import ContinuousQuery
from repro.federation import FederatedCluster
from repro.filters.models import linear_model
from repro.scale.engine import BatchStreamEngine
from repro.streams.base import stream_from_values

FACADES = [StreamEngine, BatchStreamEngine, FederatedCluster]
DEADLINE_S = 20


@pytest.fixture(autouse=True)
def deadline(capsys):
    # The dump goes to a copy of the real stderr: the captured one is
    # lost when the timer kills the process.
    with capsys.disabled():
        stderr = os.dup(2)
    faulthandler.dump_traceback_later(DEADLINE_S, exit=True, file=stderr)
    yield
    faulthandler.cancel_dump_traceback_later()
    os.close(stderr)


@pytest.mark.parametrize("cls", FACADES, ids=lambda cls: cls.__name__)
def test_run_without_queries_returns_at_once(cls):
    facade = cls()
    assert facade.run() == 0
    assert facade.run(max_ticks=50) == 0
    assert facade.ticks == 0


@pytest.mark.parametrize("cls", FACADES, ids=lambda cls: cls.__name__)
def test_run_with_registered_but_unqueried_sources_steps_nothing(cls):
    facade = cls()
    facade.add_source(
        "s0", linear_model(dims=1), stream_from_values(np.arange(20.0))
    )
    assert facade.run() == 0
    assert facade.ticks == 0


@pytest.mark.parametrize("cls", FACADES, ids=lambda cls: cls.__name__)
def test_run_drains_every_stream_then_returns(cls):
    facade = cls()
    rng = np.random.default_rng(3)
    for i in range(3):
        values = np.cumsum(rng.normal(0.0, 1.0, 40))
        facade.add_source(f"s{i}", linear_model(dims=1), stream_from_values(values))
        facade.submit_query(ContinuousQuery(f"s{i}", delta=1.0, query_id=f"q{i}"))
    assert facade.run() == 40
    assert facade.run() == 0
    facade.settle()
    assert {a.query_id for a in facade.answers()} == {"q0", "q1", "q2"}
    # A retired query stops its stream; the loop still terminates.
    facade.retire_query("q0")
    assert facade.run(max_ticks=5) == 0
