"""End-to-end benchmark: four workloads, per-layer spans timed from outside.

See ``README.md`` in this directory and ``BENCHMARK.json`` at the root.
"""
