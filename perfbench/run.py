"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload scalar --seed 1 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric, times scaled to the
nominal host speed (``perfbench/hostspeed.py``); ``--trace 1`` runs the
workload both untraced and traced and prints every per-layer metric,
the tracing overhead included.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  A full
report, and with ``--trace 1`` the spans, go to ``perfbench/out/``.
The command fails (exit 1, ``"correct": false``) when a correctness
check fails, and dumps every thread's stack and exits 3 if the run
outlives its hard deadline.
"""

from __future__ import annotations

import argparse
import faulthandler
import json
import os
import platform
import resource
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"

#: The run is killed (stacks dumped, exit 3) after this many seconds.
DEADLINE_S = 150.0

#: (metric, unit): the ``end_to_end`` list of BENCHMARK.json.
END_TO_END = (
    ("setup_s", "s"),
    ("readings_per_s", "1/s"),
    ("tick_p50_ms", "ms"),
    ("tick_p99_ms", "ms"),
    ("update_pct", "%"),
    ("answer_err_mean", "units"),
    ("query_p50_ms", "ms"),
    ("query_p99_ms", "ms"),
    ("freshness_p50_ms", "ms"),
    ("freshness_p99_ms", "ms"),
    ("updates_per_cpu_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

WORKLOADS = ("scalar", "batch", "federation", "wire")


def _hang_guard(deadline_s: float) -> None:
    """Dump every stack and exit 3 once ``deadline_s`` has passed.

    A watchdog thread does it; the C-level ``faulthandler`` timer backs
    it up in case the thread cannot run.  Child processes die with this
    one (``wire_client.py`` asks the kernel for that).
    """

    def expire() -> None:
        sys.stderr.write(f"perfbench: deadline of {deadline_s:.0f} s hit\n")
        faulthandler.dump_traceback(all_threads=True)
        sys.stderr.flush()
        os._exit(3)

    timer = threading.Timer(deadline_s, expire)
    timer.daemon = True
    timer.start()
    faulthandler.dump_traceback_later(deadline_s + 10.0, exit=True)


def calibrate() -> float:
    """Microseconds per 2x2 ``KalmanFilter`` predict + update (median).

    Report-only: it lets figures from different machines be compared.
    """
    import numpy as np

    from repro.filters.models import constant_model

    kf = constant_model(dims=2).build_filter(np.zeros(2))
    z = np.array([0.5, -0.5])
    batches = []
    for _ in range(5):
        started = time.perf_counter()
        for _ in range(1000):
            kf.predict()
            kf.update(z)
        batches.append((time.perf_counter() - started) / 1000 * 1e6)
    return float(np.median(batches))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(workload: str, seed: int, seconds: float) -> dict:
    if workload == "wire":
        from perfbench import wire

        return wire.run(seed, seconds)
    from perfbench import engines

    return engines.run(workload, seed, seconds, OUT)


def run_traced(workload: str, seed: int, seconds: float) -> dict:
    """Per-layer metrics, tracing overhead and spans.

    Engines alternate untraced and traced rounds within one run; wire
    runs the runtime untraced, then traced.
    """
    from perfbench import layers
    from perfbench.tracing import Tracer

    tracer = Tracer()
    if workload == "wire":
        from perfbench import wire

        base_metrics = wire.run(seed, seconds)["metrics"]
        layers.install(tracer)
        traced = wire.run(seed, seconds, tracer=tracer)
        key = "updates_per_cpu_s"
    else:
        from perfbench import engines

        layers.install(tracer)
        traced = engines.run(workload, seed, seconds, OUT, tracer=tracer)
        base_metrics = traced["untraced_metrics"]
        key = "readings_per_s"
    tracer.uninstall()
    facts = dict(traced["facts"])
    facts["trace_overhead_pct"] = (
        base_metrics[key] / traced["metrics"][key] - 1.0
    ) * 100.0
    ledger = tracer.ledger()
    metrics = layers.metrics(ledger, tracer, facts)
    if workload in ("scalar", "federation"):
        send_ratio = metrics["dkf.source.send_ratio"]
        if abs(send_ratio - traced["metrics"]["update_pct"]) > 1e-9:
            raise AssertionError(
                f"{workload}: send_ratio {send_ratio} != update_pct "
                f"{traced['metrics']['update_pct']}"
            )
    spans = OUT / f"{workload}-spans.npz"
    tracer.write(spans)
    traced["ledger"] = {
        "wall_s": facts["wall_s"],
        "self_time": layers.self_time_report(ledger, facts["wall_s"]),
        "spans_file": str(spans.relative_to(ROOT)),
        "spans": len(tracer.spans),
    }
    traced["untraced_metrics"] = base_metrics
    traced["metrics"] = metrics
    return traced


def _report_lines(workload: str, result: dict, units: dict) -> list[str]:
    lines = [f"workload {workload}: digest {result['digest']}"]
    for key in ("rounds", "samples", "overruns", "host_speed"):
        if key in result:
            lines.append(f"  {key}: {result[key]}")
    attempted, failed = result["attempted"], result["failed"]
    lines.append(
        f"  failed_pct = {100.0 * failed / attempted:.6g} % "
        f"({failed} of {attempted} operations)"
    )
    for name, value in result["metrics"].items():
        lines.append(f"  {name} = {value:.6g} {units[name]}")
    if "ledger" in result:
        ledger = result["ledger"]
        lines.append(f"  self time of {ledger['wall_s']:.3f} s traced wall:")
        for row in ledger["self_time"]:
            if not row["calls"]:
                continue
            lines.append(
                f"    {row['span']:40s} {row['calls']:9d} calls "
                f"{row['self_s']:9.4f} s {row['share_pct']:6.2f} %"
            )
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        sys.stderr.write(f"perfbench: no program source under {ROOT}/src\n")
        return 2
    _hang_guard(DEADLINE_S)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    OUT.mkdir(exist_ok=True)

    calibration_us = calibrate()
    try:
        if args.trace:
            from perfbench.layers import UNITS

            result = run_traced(args.workload, args.seed, args.seconds)
            units = UNITS
        else:
            result = run_untraced(args.workload, args.seed, args.seconds)
            result["metrics"]["peak_rss_mb"] = peak_rss_mb()
            units = dict(END_TO_END)
    except AssertionError as error:
        print(f"perfbench: correctness check failed: {error}")
        print(json.dumps(
            {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        ))
        return 1
    metrics = {
        name: {"value": result["metrics"][name], "unit": units[name]}
        for name in units
    }
    report = {
        "meta": {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "digest": result["digest"],
            "calibration_kf2x2_us": calibration_us,
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
        },
        **{
            key: result[key]
            for key in ("rounds", "samples", "overruns", "host_speed",
                        "raw_metrics", "ledger", "untraced_metrics")
            if key in result
        },
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    name = f"{args.workload}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(report, indent=1) + "\n")
    for line in _report_lines(args.workload, result, units):
        print(line)
    print(f"  calibration: {calibration_us:.3f} us per 2x2 KF predict+update")
    print(json.dumps({
        "correct": True,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
