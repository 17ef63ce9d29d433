"""Aggregate continuous queries over predicted values.

The DKF guarantees each source's server-side value is within its δ_i of
the (smoothed) reading.  Those per-source bounds propagate through
aggregates by interval arithmetic, so the server can answer SUM / AVG /
MIN / MAX queries *across sources* with a certified error bound and zero
extra communication:

* ``SUM``:  value = Σ v̂_i,      bound = Σ δ_i
* ``AVG``:  value = Σ v̂_i / t,  bound = Σ δ_i / t
* ``MIN``:  the true minimum lies in [min(v̂_i − δ_i), min(v̂_i + δ_i)];
  the midpoint is reported with half the interval as the bound
* ``MAX``:  symmetric to MIN

This is the precision-bounded-aggregation capability the STREAM line of
work pursues, rebuilt on predicted (rather than cached) values.  Only
scalar sources participate; a vector source contributes the component the
query names.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from repro.dsms.engine import StreamEngine
from repro.errors import ConfigurationError, QueryError, UnknownSourceError

__all__ = ["AggregateKind", "AggregateQuery", "AggregateAnswer", "answer_aggregate"]


class AggregateKind(str, Enum):
    """Supported aggregate functions."""

    SUM = "sum"
    AVG = "avg"
    MIN = "min"
    MAX = "max"


@dataclass(frozen=True)
class AggregateQuery:
    """A continuous aggregate over several sources' current values.

    Attributes:
        kind: The aggregate function.
        source_ids: Sources aggregated over (at least one).
        component: Which measured component of each source participates
            (0 for scalar sources).
        query_id: Identifier for reporting.
    """

    kind: AggregateKind
    source_ids: tuple[str, ...]
    component: int = 0
    query_id: str = "aggregate"

    def __post_init__(self) -> None:
        if not self.source_ids:
            raise ConfigurationError("aggregate needs at least one source")
        if self.component < 0:
            raise ConfigurationError("component must be non-negative")
        object.__setattr__(self, "kind", AggregateKind(self.kind))
        object.__setattr__(self, "source_ids", tuple(self.source_ids))


@dataclass(frozen=True)
class AggregateAnswer:
    """A certified aggregate answer.

    Attributes:
        query_id: The originating query.
        kind: The aggregate function.
        value: The point answer.
        error_bound: Half-width of the certified interval: the true
            aggregate of the sources' (smoothed) readings lies within
            ``value ± error_bound`` whenever every per-source DKF bound
            held at this instant.
        lower / upper: The certified interval endpoints.
    """

    query_id: str
    kind: AggregateKind
    value: float
    error_bound: float

    @property
    def lower(self) -> float:
        """Certified lower endpoint of the answer interval."""
        return self.value - self.error_bound

    @property
    def upper(self) -> float:
        """Certified upper endpoint of the answer interval."""
        return self.value + self.error_bound


def _source_intervals(
    engine: StreamEngine, query: AggregateQuery
) -> tuple[np.ndarray, np.ndarray]:
    """Per-source value and δ arrays for the queried component."""
    values = []
    deltas = []
    sources = engine.sources
    for source_id in query.source_ids:
        if not engine.server.is_primed(source_id):
            raise UnknownSourceError(
                f"source {source_id!r} has not delivered its priming update"
            )
        vector = engine.server.value(source_id)
        if query.component >= vector.shape[0]:
            raise QueryError(
                f"source {source_id!r} has no component {query.component}"
            )
        source = sources.get(source_id)
        if source is None:
            raise UnknownSourceError(f"source {source_id!r} has no active DKF")
        delta_vec = source.config.delta_vector()
        values.append(float(vector[query.component]))
        deltas.append(float(delta_vec[query.component]))
    return np.array(values), np.array(deltas)


def answer_aggregate(engine: StreamEngine, query: AggregateQuery) -> AggregateAnswer:
    """Answer an aggregate query from the engine's current predictions.

    The bound is *conditional* on each per-source guarantee holding at
    this instant, which the DKF provides at decision instants; between
    decisions (adaptive sampling's skipped instants) the bound is best
    effort, matching the underlying guarantee.
    """
    values, deltas = _source_intervals(engine, query)
    if query.kind is AggregateKind.SUM:
        return AggregateAnswer(
            query_id=query.query_id,
            kind=query.kind,
            value=float(values.sum()),
            error_bound=float(deltas.sum()),
        )
    if query.kind is AggregateKind.AVG:
        return AggregateAnswer(
            query_id=query.query_id,
            kind=query.kind,
            value=float(values.mean()),
            error_bound=float(deltas.sum() / len(deltas)),
        )
    if query.kind is AggregateKind.MIN:
        low = float(np.min(values - deltas))
        high = float(np.min(values + deltas))
    else:  # MAX
        low = float(np.max(values - deltas))
        high = float(np.max(values + deltas))
    return AggregateAnswer(
        query_id=query.query_id,
        kind=query.kind,
        value=(low + high) / 2.0,
        error_bound=(high - low) / 2.0,
    )
