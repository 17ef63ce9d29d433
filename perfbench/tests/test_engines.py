"""Self-tests of the engine workloads and the delta audit."""

import dataclasses

import pytest

from perfbench import engines
from perfbench.inputs import check_offered, digest, reference_mix
from repro.dsms.query import QueryAnswer


@pytest.fixture(scope="module")
def mix():
    return reference_mix(seed=5, sources=9, ticks=80)


def test_scalar_and_batch_ledgers_match_on_shared_sources(mix, tmp_path):
    scalar = engines.ledger("scalar", mix, tmp_path / "scalar")
    batch = engines.ledger("batch", mix, tmp_path / "batch")
    assert scalar == batch
    assert all(row[0] > 0 for row in scalar.values())


def test_source_streams_do_not_depend_on_the_source_count(mix):
    wider = reference_mix(seed=5, sources=12, ticks=80)
    assert digest(wider[: len(mix)]) == digest(mix)
    assert digest(reference_mix(seed=6, sources=9, ticks=80)) != digest(mix)


def test_offered_check_catches_a_changed_stream(mix):
    check_offered(mix)
    changed = dataclasses.replace(mix[1], values=mix[1].values + 1.0)
    with pytest.raises(AssertionError):
        check_offered([mix[0], changed])


def _answer(source, k, value, **flags):
    return QueryAnswer(
        query_id=f"q-{source.source_id}",
        source_id=source.source_id,
        k=k,
        value=tuple(value),
        precision=source.delta,
        staleness_ticks=0,
        confidence=1.0,
        **flags,
    )


def test_delta_audit_catches_a_planted_out_of_delta_answer(mix):
    audit = engines.DeltaAudit(mix)
    source, k = mix[1], 7
    reading = source.values[k]
    inside = _answer(source, k, reading + 0.9 * source.delta)
    outside = _answer(source, k, reading + 1.1 * source.delta)
    flagged = _answer(source, k, reading + 5.0 * source.delta, degraded=True)
    audit.check([inside, flagged])
    assert audit.violations == 0
    audit.check([outside])
    assert audit.violations == 1
    assert audit.answers == 3


def test_delta_audit_tests_every_component(mix):
    audit = engines.DeltaAudit(mix)
    source, k = mix[0], 3
    assert source.values.shape[1] == 2
    shifted = source.values[k] + [0.0, 1.5 * source.delta]
    audit.check([_answer(source, k, shifted)])
    assert audit.violations == 1
