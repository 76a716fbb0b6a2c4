"""End-to-end benchmark of the repro system: workloads, tracing, compare.

See ``e2ebench/README.md`` and ``BENCHMARK.json`` at the repository root.
"""
