"""Seeded inputs: the reference mix of the three engine workloads.

Source ``i`` of the reference mix is of kind ``i % 3``:

* kind 0, Example 1 moving object: 2-D piecewise-linear trajectory
  (random heading, speed up to 500 units/s, 25-250 samples per leg,
  100 ms sampling), ``linear_model(dims=2, dt=0.1)``, delta 3;
* kind 1, Example 2 zonal load: diurnal + weekly + seasonal load with
  Gaussian noise, hourly, ``linear_model(dims=1)``, delta 50;
* kind 2, Example 3 HTTP counts: Poisson packet counts with random
  bursts and spikes, sampled every 10 raw intervals,
  ``constant_model()``, delta 10.

Each source draws from its own generator, seeded by ``(seed, i)``, so a
source's stream does not depend on how many sources a workload has:
the first 63 sources of the 3072-source batch workload are exactly the
63 sources of the scalar and federation workloads.  Generation is
vectorised over time per source; the per-sample ``repro.datasets``
loops are far too slow at thousands of sources.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from repro.filters.models import StateSpaceModel, constant_model, linear_model
from repro.streams.base import MaterializedStream, stream_from_values

#: (name, model factory, delta) per kind, in ``i % 3`` order.
KINDS = (
    ("moving-object", lambda: linear_model(dims=2, dt=0.1), 3.0),
    ("zonal-load", lambda: linear_model(dims=1), 50.0),
    ("http-counts", lambda: constant_model(), 10.0),
)


@dataclass(frozen=True)
class Source:
    """One generated source: what an engine's ``add_source`` receives."""

    source_id: str
    kind: str
    model: StateSpaceModel
    delta: float
    values: np.ndarray
    stream: MaterializedStream


def _moving_object(rng: np.random.Generator, ticks: int) -> np.ndarray:
    dt = 0.1
    legs = ticks // 25 + 1
    lengths = rng.integers(25, 251, legs)
    heading = rng.uniform(0.0, 2.0 * np.pi, legs)
    speed = rng.uniform(0.0, 500.0, legs)
    start = rng.uniform(-1000.0, 1000.0, 2)
    leg = np.repeat(np.arange(legs), lengths)[:ticks]
    velocity = np.stack(
        [speed * np.cos(heading), speed * np.sin(heading)], axis=1
    )
    return start + np.cumsum(velocity[leg] * dt, axis=0)


def _zonal_load(rng: np.random.Generator, ticks: int) -> np.ndarray:
    k = np.arange(ticks, dtype=float) + rng.integers(0, 24 * 7 * 52)
    hour = k % 24.0
    weekday = (k // 24.0) % 7
    return (
        rng.uniform(900.0, 1300.0)
        + 350.0 * np.sin(2.0 * np.pi * (hour - 8.0) / 24.0)
        + np.where(weekday >= 5, -90.0, 0.0)
        + 120.0 * np.sin(2.0 * np.pi * k / (24.0 * 91.0))
        + rng.normal(0.0, 25.0, ticks)
    )


def _http_counts(rng: np.random.Generator, ticks: int) -> np.ndarray:
    stride = 10
    raw = ticks * stride
    t = np.arange(raw)
    starts = rng.random(raw) < 0.03
    # A burst started at t lasts 4-40 raw intervals; a raw interval is
    # in a burst while some earlier start's end lies past it.
    ends = np.where(starts, t + rng.integers(4, 41, raw), 0)
    in_burst = np.maximum.accumulate(ends) > t
    counts = rng.poisson(np.where(in_burst, 320.0, 60.0)).astype(float)
    counts[rng.random(raw) < 0.008] *= 4.0
    return counts[::stride]


_GENERATORS = (_moving_object, _zonal_load, _http_counts)


def source_values(seed: int, index: int, ticks: int) -> np.ndarray:
    """The readings of reference-mix source ``index``: ``(ticks, dim)``."""
    rng = np.random.default_rng([seed, index])
    values = _GENERATORS[index % 3](rng, ticks)
    return values.reshape(ticks, -1)


def reference_mix(seed: int, sources: int, ticks: int) -> list[Source]:
    """The first ``sources`` sources of the reference mix."""
    models = [model() for _, model, _ in KINDS]
    out = []
    for i in range(sources):
        name, _, delta = KINDS[i % 3]
        values = source_values(seed, i, ticks)
        out.append(
            Source(
                source_id=f"s{i}",
                kind=name,
                model=models[i % 3],
                delta=delta,
                values=values,
                stream=stream_from_values(values, name=name),
            )
        )
    return out


def digest(mix: list[Source]) -> str:
    """CRC-32 over every source's id, kind, delta and generated readings."""
    crc = 0
    for source in mix:
        crc = zlib.crc32(
            f"{source.source_id}:{source.kind}:{source.delta}".encode(), crc
        )
        crc = zlib.crc32(source.values.tobytes(), crc)
    return f"{crc:08x}"


def check_offered(mix: list[Source]) -> None:
    """Fail unless each stream offers exactly the generated readings."""
    for source in mix:
        if not np.array_equal(source.stream.values(), source.values):
            raise AssertionError(
                f"{source.source_id}: the stream offers other readings "
                "than were generated"
            )
