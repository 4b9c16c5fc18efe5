"""End-to-end, layer-attributed benchmark over repro's public entry points.

The harness lives entirely under ``benchmarks/e2e`` and imports from
``repro`` only the names listed in this directory's README, so later
PRs can reshape ``src/`` without editing the benchmark that judges them.
"""
