"""The repository benchmark: seeded workloads, correctness checks, traces.

Run it from the repository root with ``python3 perfbench/run.py``; see
``perfbench/README.md`` for the workloads and metrics.
"""
