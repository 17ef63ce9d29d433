"""Spans recorded from outside the program, around public layer calls.

:class:`Tracer` replaces a class attribute with a wrapper that records
``(name, start, end, parent, work)`` for every call and restores the
original on :meth:`Tracer.uninstall`.  Spans stay in memory until the
run ends; :meth:`Tracer.write` saves them as one ``.npz`` file.

The parent of a span is the innermost span open on the thread when it
started.  The event loop runs one task at a time, so on the wire path a
query served while a tick phase awaits is recorded as that phase's
child: its time is then subtracted from the phase's self time, which is
what the ledger needs.  Self time is a span's duration minus the time
its children cover.
"""

from __future__ import annotations

import functools
import inspect
import time

import numpy as np

__all__ = ["Tracer", "Ledger"]

_clock = time.perf_counter_ns


class Tracer:
    """In-memory span recorder for wrapped methods."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[list[int]] = []
        self.counts: dict[str, int] = {}
        #: Wrapped calls record spans only while this is True.
        self.enabled = False
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, owner, attr: str, name: str, work=None) -> None:
        """Record a span named ``name`` around every ``owner.attr`` call.

        ``work(args, result)`` returns the span's work count (rows,
        readings, updates sent); it defaults to 0.
        """
        original = owner.__dict__[attr]
        nid = self._name_id(name)
        spans = self.spans
        stack = self._stack
        tracer = self

        def open_span() -> int:
            index = len(spans)
            spans.append([nid, _clock(), 0, stack[-1] if stack else -1, 0])
            stack.append(index)
            return index

        def close_span(index: int, args, result) -> None:
            record = spans[index]
            record[2] = _clock()
            if work is not None:
                record[4] = int(work(args, result))
            stack.pop()

        if inspect.iscoroutinefunction(original):

            @functools.wraps(original)
            async def wrapper(*args, **kwargs):
                if not tracer.enabled:
                    return await original(*args, **kwargs)
                index = open_span()
                result = None
                try:
                    result = await original(*args, **kwargs)
                    return result
                finally:
                    close_span(index, args, result)

        else:

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                if not tracer.enabled:
                    return original(*args, **kwargs)
                index = open_span()
                result = None
                try:
                    result = original(*args, **kwargs)
                    return result
                finally:
                    close_span(index, args, result)

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original, wrapper))

    def count(self, owner, attr: str, name: str, work) -> None:
        """Add ``work(args, result)`` to counter ``name`` on every call."""
        original = owner.__dict__[attr]
        counts = self.counts
        counts.setdefault(name, 0)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            if tracer.enabled:
                counts[name] += int(work(args, result))
            return result

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original, wrapper))

    def uninstall(self) -> None:
        """Restore every wrapped attribute (:meth:`reinstall` undoes it)."""
        for owner, attr, original, _ in reversed(self._patched):
            setattr(owner, attr, original)

    def reinstall(self) -> None:
        """Put the wrappers back after :meth:`uninstall`."""
        for owner, attr, _, wrapper in self._patched:
            setattr(owner, attr, wrapper)

    def arrays(self) -> dict[str, np.ndarray]:
        """The spans as columns: name id, start/end ns, parent, work."""
        table = np.array(self.spans, dtype=np.int64).reshape(-1, 5)
        return {
            "name": table[:, 0],
            "start_ns": table[:, 1],
            "end_ns": table[:, 2],
            "parent": table[:, 3],
            "work": table[:, 4],
        }

    def write(self, path) -> None:
        """Save every span, with the name table, to ``path`` (``.npz``)."""
        np.savez(path, names=np.array(self.names), **self.arrays())

    def ledger(self) -> "Ledger":
        """Per-name totals over every span recorded so far."""
        return Ledger(self.names, self.arrays())


class Ledger:
    """Per-name calls, durations, self times and work of a span table."""

    def __init__(self, names: list[str], columns: dict[str, np.ndarray]):
        duration = (columns["end_ns"] - columns["start_ns"]) / 1e9
        parent = columns["parent"]
        nested = parent >= 0
        children = np.zeros(duration.size)
        np.add.at(children, parent[nested], duration[nested])
        self_time = duration - children
        self._names = names
        self._name = columns["name"]
        self._parent = parent
        self._duration = duration
        self._self = self_time
        self._work = columns["work"]

    def _mask(self, name: str) -> np.ndarray:
        if name not in self._names:
            return np.zeros(self._name.size, dtype=bool)
        return self._name == self._names.index(name)

    def calls(self, name: str) -> int:
        return int(self._mask(name).sum())

    def self_s(self, name: str) -> float:
        """Total self time, in seconds."""
        return float(self._self[self._mask(name)].sum())

    def duration_s(self, name: str) -> float:
        """Total duration, in seconds."""
        return float(self._duration[self._mask(name)].sum())

    def work(self, name: str) -> int:
        return int(self._work[self._mask(name)].sum())

    def per_call(self, name: str, scale: float) -> float:
        """Mean self time per call times ``scale`` (0 when never called)."""
        calls = self.calls(name)
        return self.self_s(name) / calls * scale if calls else 0.0

    def per_work(self, name: str, scale: float) -> float:
        """Self time per unit of work times ``scale`` (0 without work)."""
        work = self.work(name)
        return self.self_s(name) / work * scale if work else 0.0

    def nested_s(self, name: str, child: str) -> float:
        """Time spans named ``child`` cover directly inside ``name``."""
        inside = self._mask(child) & (self._parent >= 0)
        parents = self._parent[inside]
        hit = self._mask(name)[parents]
        return float(self._duration[inside][hit].sum())

    def self_by_name(self) -> dict[str, float]:
        """Self time in seconds per span name."""
        return {name: self.self_s(name) for name in self._names}
