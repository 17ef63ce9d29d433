"""Open-loop query client for the ``wire`` workload.

Requests go out on a fixed, seeded schedule over one TCP connection
whatever the server does, so a stalled server faces a growing queue, as
independent users would give it.  The gaps between requests are
exponential (Poisson arrivals), so requests land at every phase of the
server's ticks instead of locking onto a few.  Each reply is timed from
when its request was due, not from when it was sent, which counts the
wait a stall imposes on every later request; how late the sender itself
ran is recorded apart.

Run as a child process (``python3 perfbench/wire_client.py``): it reads
one JSON line with the plan from stdin, prints one JSON line with the
results to stdout and exits.  The server's event loop never runs it.
"""

from __future__ import annotations

import asyncio
import ctypes
import faulthandler
import json
import random
import signal
import sys
import time

#: Keys every ``answer`` reply carries (``repro.wire.query``).
ANSWER_KEYS = ("source_id", "primed", "staleness_ms", "suspect", "degraded",
               "quarantined")


def classify(line: bytes, source_id: str) -> str:
    """``ok``, ``refused`` (an ``error`` reply) or ``malformed``.

    A reply is well formed when it is a JSON object: an ``error`` reply
    or an ``answer`` reply for ``source_id`` with every honesty flag and,
    once primed, a list of float values.
    """
    try:
        reply = json.loads(line)
    except ValueError:
        return "malformed"
    if not isinstance(reply, dict):
        return "malformed"
    if "error" in reply:
        return "refused"
    if any(key not in reply for key in ANSWER_KEYS):
        return "malformed"
    if reply["source_id"] != source_id:
        return "malformed"
    if reply["primed"]:
        value = reply.get("value")
        if not isinstance(value, list) or not all(
            isinstance(v, float) for v in value
        ):
            return "malformed"
    return "ok"


def schedule(start_at: float, duration: float, count: int, seed: int):
    """``count`` sorted due times, uniform over ``duration`` from ``start_at``.

    That is a Poisson process conditioned on ``count`` arrivals, so the
    last request is due before the window, and the server, close.
    """
    rng = random.Random(seed)
    return sorted(start_at + rng.uniform(0.0, duration) for _ in range(count))


async def run_client(
    host: str,
    port: int,
    due: list[float],
    targets: list[str],
    grace_s: float,
) -> dict:
    """Send an ``answer`` request for ``targets[i]`` at ``due[i]``.

    Due times are on the ``time.monotonic`` clock.  Replies still
    missing ``grace_s`` after the last send are left out of ``replied``.
    """
    reader, writer = await asyncio.open_connection(host, port)
    count = len(targets)
    requests = [
        json.dumps({"op": "answer", "source_id": sid}).encode() + b"\n"
        for sid in targets
    ]
    lag_ms: list[float] = []
    latency_ms: list[float] = []
    verdicts = {"ok": 0, "refused": 0, "malformed": 0}

    async def send() -> None:
        for i in range(count):
            delay = due[i] - time.monotonic()
            if delay > 0:
                await asyncio.sleep(delay)
            lag_ms.append(max(0.0, time.monotonic() - due[i]) * 1e3)
            writer.write(requests[i])

    async def receive() -> None:
        for i in range(count):
            try:
                line = await reader.readline()
            except OSError:
                return
            if not line:
                return
            latency_ms.append((time.monotonic() - due[i]) * 1e3)
            verdicts[classify(line, targets[i])] += 1

    receiver = asyncio.ensure_future(receive())
    try:
        await send()
        try:
            await writer.drain()
        except OSError:
            pass
        try:
            await asyncio.wait_for(asyncio.shield(receiver), grace_s)
        except asyncio.TimeoutError:
            pass
    finally:
        receiver.cancel()
        try:
            await receiver
        except asyncio.CancelledError:
            pass
        writer.close()
        try:
            await writer.wait_closed()
        except OSError:
            pass
    return {
        "scheduled": count,
        "replied": len(latency_ms),
        "refused": verdicts["refused"],
        "malformed": verdicts["malformed"],
        "latency_ms": latency_ms,
        "lag_ms": lag_ms,
    }


def main() -> int:
    # Die with the parent: the benchmark must never leave this behind.
    try:
        ctypes.CDLL(None).prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG
    except (OSError, AttributeError):
        pass
    plan = json.loads(sys.stdin.readline())
    faulthandler.dump_traceback_later(plan["deadline_s"], exit=True)
    due = schedule(
        plan["start_at"], plan["duration"], len(plan["targets"]), plan["seed"]
    )
    result = asyncio.run(
        run_client(
            plan["host"], plan["port"], due, plan["targets"], plan["grace_s"]
        )
    )
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
